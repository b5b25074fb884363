//! Ablation of the operator pipeline layer: every analytic expressed
//! as an advance/filter/compute [`Pipeline`] versus the legacy entry
//! point it refactors (`run_program`, `pagerank`, `betweenness`).
//!
//! The pipeline layer is pure dispatch — it validates capabilities and
//! lowers onto the same kernels — so its results must be byte-equal
//! and its wall clock within a few percent of the legacy call. Both
//! are asserted, not just printed: values byte-equal always, and the
//! mean overhead ratio gated at ≤5% in the full configuration
//! (smoke runs are sub-millisecond and jitter-dominated, so the smoke
//! gate is relaxed to 2x).
//!
//! PageRank and betweenness are measured twice: on the simulator and on
//! `BackendKind::Sequential`, the plan the server runs, where the same
//! drivers are host loops. The `@sequential` rows put that path under
//! the dispatch-overhead figure; a second table reports host vs
//! simulator time, asserts the two agree to the bit, and gates host
//! `pr` at ≥ 5× faster — a Sequential plan must never replay the
//! simulator.
//!
//! The four new operator-only workloads (khop, bounded paths, label
//! propagation, triangle counting) are timed alongside and pinned to
//! cheap cross-checks: khop is the masked BFS hop array, bounded
//! paths' distance half is the masked SSSP array, lp is run-to-run
//! deterministic, and tc's corner incidences come in threes.
//!
//! Output goes both to stdout (aligned table) and to a
//! machine-readable JSON file: `BENCH_operators.json` at the workspace
//! root by default, `target/BENCH_operators.smoke.json` under
//! `--smoke`. `--out <path>` overrides the destination.

use std::time::Instant;

use tigr_bench::{max_degree_source, prepare_input, print_table};
use tigr_engine::{
    operators, BackendKind, Engine, FrontierMode, MonotoneProgram, Pipeline, PipelineOutput,
    PrOptions, PushOptions, Representation,
};
use tigr_sim::GpuConfig;

/// One measured legacy-vs-pipeline pair.
struct Sample {
    analytic: &'static str,
    legacy_ms: f64,
    pipeline_ms: f64,
    iterations: u64,
}

impl Sample {
    fn overhead(&self) -> f64 {
        if self.legacy_ms <= 0.0 {
            return 1.0;
        }
        self.pipeline_ms / self.legacy_ms
    }

    fn json(&self) -> String {
        format!(
            "{{\"analytic\": \"{}\", \"legacy_wall_ms\": {:.3}, \"pipeline_wall_ms\": {:.3}, \
             \"overhead_ratio\": {:.4}, \"iterations\": {}}}",
            self.analytic,
            self.legacy_ms,
            self.pipeline_ms,
            self.overhead(),
            self.iterations,
        )
    }

    fn row(&self) -> Vec<String> {
        vec![
            self.analytic.to_string(),
            format!("{:.2}", self.legacy_ms),
            format!("{:.2}", self.pipeline_ms),
            format!("{:.3}", self.overhead()),
            self.iterations.to_string(),
        ]
    }
}

fn best_of<T>(repeats: usize, mut run: impl FnMut() -> T) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let out = run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((out, ms));
        }
    }
    best.expect("at least one repeat")
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    // Smoke: a few thousand nodes, single repeat — a CI-speed compile
    // and equality gate. Full: the scale-16 RMAT analog the ≤5%
    // dispatch-overhead claim is stated for, best-of-5 timing.
    let (scale, repeats, gate) = if smoke {
        (11u32, 1usize, 2.0)
    } else {
        (16, 5, 1.05)
    };
    let out_path = flag("--out").unwrap_or_else(|| {
        if smoke {
            "target/BENCH_operators.smoke.json".to_string()
        } else {
            "BENCH_operators.json".to_string()
        }
    });

    let seed = 2018;
    let t = Instant::now();
    let g = prepare_input(&format!("rmat:{scale}:16"), seed, Some((1, 64, seed))).into_graph();
    let src = max_degree_source(&g);
    eprintln!(
        "rmat scale {scale}: {} nodes, {} edges, source {src}, prepared in {:.1?}",
        g.num_nodes(),
        g.num_edges(),
        t.elapsed()
    );
    println!(
        "Operator-pipeline ablation: {} nodes, {} edges, best of {} run(s), overhead gate {gate}x",
        g.num_nodes(),
        g.num_edges(),
        repeats
    );
    let rep = Representation::Original(&g);
    // Deterministic sequential replay throughout: the parallel replay
    // reorders racing relaxations (and float adds), so iteration counts
    // and `f32` bits differ from one run to the next and two runs could
    // not be compared exactly.
    let engine = Engine::new(GpuConfig::default()).with_options(PushOptions {
        worklist: true,
        frontier: FrontierMode::Auto,
        ..PushOptions::default()
    });

    let mut samples: Vec<Sample> = Vec::new();
    let mut sssp_dist: Vec<u32> = Vec::new();

    // The monotone analytics: run_program vs the lifted pipeline.
    for (analytic, prog) in [
        ("bfs", MonotoneProgram::BFS),
        ("sssp", MonotoneProgram::SSSP),
        ("sswp", MonotoneProgram::SSWP),
        ("cc", MonotoneProgram::CC),
    ] {
        let source = prog.needs_source().then_some(src);
        let (legacy, legacy_ms) =
            best_of(repeats, || engine.run_program(&rep, prog, source).unwrap());
        let pipeline = prog.pipeline();
        let (out, pipeline_ms) = best_of(repeats, || {
            engine.run_pipeline(&rep, &pipeline, source).unwrap()
        });
        assert_eq!(
            out.values, legacy.values,
            "{analytic}: pipeline diverged from run_program"
        );
        assert_eq!(out.iterations, legacy.directions.len() as u64);
        if analytic == "sssp" {
            sssp_dist = legacy.values;
        }
        samples.push(Sample {
            analytic,
            legacy_ms,
            pipeline_ms,
            iterations: out.iterations,
        });
    }

    // PageRank at a fixed sweep count so both variants do identical
    // work, and single-source betweenness — each on the simulator and on
    // the `Sequential` backend's host loop, the plan the server runs.
    // Pipeline vs direct and host vs simulator are compared to the bit.
    let pr_opts = PrOptions {
        tolerance: 0.0,
        max_iterations: if smoke { 5 } else { 20 },
        ..PrOptions::default()
    };
    let degrees = tigr_engine::pr::out_degrees(&g);
    let pr_pipeline = Pipeline::pagerank(pr_opts);
    let bc_pipeline = Pipeline::betweenness();
    let float_bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    // (analytic, pipeline output, direct wall ms): simulator rows, then
    // the host rows in the same order.
    let mut float_runs: Vec<(&str, PipelineOutput, f64)> = Vec::new();
    for (backend, [pr_name, bc_name]) in [
        (BackendKind::WarpSim, ["pr", "bc"]),
        (BackendKind::Sequential, ["pr@sequential", "bc@sequential"]),
    ] {
        let engine = Engine::new(GpuConfig::default()).with_backend(backend);
        let (direct, pr_ms) = best_of(repeats, || {
            engine.pagerank(&rep, &degrees, &pr_opts).unwrap()
        });
        let (pr_out, pipeline_ms) = best_of(repeats, || {
            engine.run_pipeline(&rep, &pr_pipeline, None).unwrap()
        });
        assert_eq!(
            pr_out.values,
            float_bits(&direct.ranks),
            "{pr_name}: pipeline diverged from pagerank"
        );
        samples.push(Sample {
            analytic: pr_name,
            legacy_ms: pr_ms,
            pipeline_ms,
            iterations: pr_out.iterations,
        });

        let (direct, bc_ms) = best_of(repeats, || engine.betweenness(&rep, src).unwrap());
        let (bc_out, pipeline_ms) = best_of(repeats, || {
            engine.run_pipeline(&rep, &bc_pipeline, Some(src)).unwrap()
        });
        assert_eq!(
            bc_out.values,
            float_bits(&direct.centrality),
            "{bc_name}: pipeline diverged from betweenness"
        );
        samples.push(Sample {
            analytic: bc_name,
            legacy_ms: bc_ms,
            pipeline_ms,
            iterations: bc_out.iterations,
        });
        float_runs.push((pr_name, pr_out, pr_ms));
        float_runs.push((bc_name, bc_out, bc_ms));
    }
    let (warp_runs, host_runs) = float_runs.split_at(2);
    let host_speedup: Vec<(&str, f64, f64)> = warp_runs
        .iter()
        .zip(host_runs)
        .map(|((analytic, warp_out, warp_ms), (_, host_out, host_ms))| {
            assert_eq!(
                (&host_out.values, host_out.iterations),
                (&warp_out.values, warp_out.iterations),
                "{analytic}: host loop diverged from the simulator"
            );
            (*analytic, *warp_ms, *host_ms)
        })
        .collect();

    print_table(
        "legacy entry point vs operator pipeline",
        &["analytic", "legacy ms", "pipeline ms", "ratio", "iters"],
        &samples.iter().map(Sample::row).collect::<Vec<_>>(),
    );

    let mean_overhead = samples.iter().map(Sample::overhead).sum::<f64>() / samples.len() as f64;
    let max_overhead = samples.iter().map(Sample::overhead).fold(0.0, f64::max);
    println!("\nmean overhead {mean_overhead:.3}x, max {max_overhead:.3}x (gate {gate}x)");
    assert!(
        mean_overhead <= gate,
        "operator dispatch overhead {mean_overhead:.3}x exceeds the {gate}x gate"
    );

    print_table(
        "pr/bc: simulator vs the host loop of every other backend (direct entry points)",
        &["analytic", "warp-sim ms", "host ms", "speedup"],
        &host_speedup
            .iter()
            .map(|(analytic, warp_ms, host_ms)| {
                vec![
                    analytic.to_string(),
                    format!("{warp_ms:.2}"),
                    format!("{host_ms:.2}"),
                    format!("{:.1}", warp_ms / host_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    // 27x measured on the scale-17 serving graph: the bar is about the
    // host path being there at all, not about the host's mood.
    let (_, warp_ms, host_ms) = host_speedup[0];
    assert!(
        warp_ms >= 5.0 * host_ms,
        "host pr ({host_ms:.2} ms) is not 5x faster than warp-sim pr ({warp_ms:.2} ms): \
         is a Sequential plan replaying the simulator?"
    );

    // The operator-only workloads, each pinned to a cheap cross-check
    // against the arrays measured above.
    let mut workloads: Vec<(&str, PipelineOutput, f64)> = Vec::new();
    let run_pipeline =
        |p: &Pipeline, source| best_of(repeats, || engine.run_pipeline(&rep, p, source).unwrap());

    let (k, radius, rounds) = (4u32, 96u32, 8usize);
    let (khop, ms) = run_pipeline(&Pipeline::khop(k), Some(src));
    // BFS here is weighted, so the hop-count cross-check runs the
    // unit-hop program through the *legacy* entry point and masks it
    // by hand.
    let mut expect = engine
        .run_program(&rep, MonotoneProgram::KHOP, Some(src))
        .unwrap()
        .values;
    operators::mask_above(&mut expect, k);
    assert_eq!(
        khop.values, expect,
        "khop is not the masked hop-count array"
    );
    workloads.push(("khop", khop, ms));

    let (paths, ms) = run_pipeline(&Pipeline::bounded_paths(radius), Some(src));
    let mut expect = sssp_dist.clone();
    operators::mask_above(&mut expect, radius);
    assert_eq!(
        &paths.values[..g.num_nodes()],
        &expect,
        "paths distances are not the masked SSSP array"
    );
    workloads.push(("paths", paths, ms));

    let (lp, ms) = run_pipeline(&Pipeline::label_propagation(rounds), None);
    let (again, _) = run_pipeline(&Pipeline::label_propagation(rounds), None);
    assert_eq!(
        lp.values, again.values,
        "lp is not run-to-run deterministic"
    );
    workloads.push(("lp", lp, ms));

    let (tc, ms) = run_pipeline(&Pipeline::triangle_count(), None);
    let corners: u64 = tc.values.iter().map(|&c| c as u64).sum();
    assert_eq!(corners % 3, 0, "tc corner incidences must come in threes");
    println!("tc: {} triangles", corners / 3);
    workloads.push(("tc", tc, ms));

    print_table(
        "operator-only workloads",
        &["workload", "wall ms", "iters", "converged"],
        &workloads
            .iter()
            .map(|(name, out, ms)| {
                vec![
                    name.to_string(),
                    format!("{ms:.2}"),
                    out.iterations.to_string(),
                    out.converged.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let workload_json = workloads
        .iter()
        .map(|(name, out, ms)| {
            format!(
                "{{\"workload\": \"{name}\", \"wall_ms\": {ms:.3}, \"iterations\": {}}}",
                out.iterations
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let host_json = host_speedup
        .iter()
        .map(|(analytic, warp_ms, host_ms)| {
            format!(
                "{{\"analytic\": \"{analytic}\", \"warp_sim_wall_ms\": {warp_ms:.3}, \
                 \"host_wall_ms\": {host_ms:.3}, \"speedup\": {:.2}}}",
                warp_ms / host_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"operators\",\n  \"smoke\": {smoke},\n  \"graph\": \
         {{\"generator\": \"rmat\", \"scale\": {scale}, \"nodes\": {}, \"edges\": {}}},\n  \
         \"repeats\": {repeats},\n  \"overhead_gate\": {gate},\n  \
         \"mean_overhead_ratio\": {mean_overhead:.4},\n  \
         \"max_overhead_ratio\": {max_overhead:.4},\n  \"results\": [\n    {}\n  ],\n  \
         \"host_vs_warp_sim\": [\n    {host_json}\n  ],\n  \
         \"workloads\": [\n    {workload_json}\n  ]\n}}\n",
        g.num_nodes(),
        g.num_edges(),
        samples
            .iter()
            .map(Sample::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write JSON output");
    println!("\nwrote {out_path}");
}
