//! `tigr run <analytic> --graph <file>` — run an analytic on the
//! simulated GPU (or, with `--cpu`, on the host executor), optionally
//! through a virtual transformation. Every verb is one
//! [`Engine::run_prepared_pipeline`] call and prints its value summary,
//! `checksum`, iterations and meter.
//!
//! Inputs resolve through the [`tigr_core::GraphStore`] artifact layer:
//! with `--cache-dir` (or `TIGR_CACHE_DIR`) set, the loaded graph and
//! every derived view the run needs — virtual overlay, pull-direction
//! transpose, mirrored reverse overlay — are cached as one `TIGRCSR2`
//! artifact, so a warm rerun performs zero transform/transpose work
//! (`--stats` shows the cache outcome and work counters).

use tigr_core::{CancelToken, PrepareSpec};
use tigr_engine::{
    Algo, BackendKind, Direction, Engine, FrontierMode, Pipeline, PrMode, PrOptions, PushOptions,
    Representation,
};
use tigr_graph::NodeId;
use tigr_sim::GpuConfig;

use crate::args::Args;
use crate::commands::{format_prepare_report, store_from_args, timeout_message, CmdResult};

/// Runs the `run` command.
pub fn run(args: &Args) -> CmdResult {
    if args.switch("help") {
        return Ok(format!("{USAGE}\n"));
    }
    args.reject_unknown(FLAGS)
        .map_err(|e| format!("{e}\n{USAGE}"))?;
    let analytic = args.positional(0).ok_or(USAGE)?;
    // One shared verb table ([`tigr_engine::Algo`]) names every
    // analytic across `tigr run`, `tigr query`, and the server.
    let algo = Algo::parse(analytic).ok_or_else(|| {
        format!(
            "unknown analytic `{analytic}` (known: {})\n{USAGE}",
            Algo::known_labels()
        )
    })?;
    let path: String = args.require("graph").map_err(|_| USAGE.to_string())?;
    // --limit carries the algo-specific bound: k for khop, radius for
    // paths, rounds for lp. Arity is enforced by the shared table.
    let limit: Option<u32> = match args.flag("limit") {
        Some(s) => Some(s.parse().map_err(|_| "invalid --limit".to_string())?),
        None => None,
    };
    if algo.needs_limit() && limit.is_none() {
        return Err(format!(
            "{} requires --limit ({})",
            algo.label(),
            algo.limit_name().unwrap_or("limit"),
        ));
    }
    if !algo.needs_limit() && limit.is_some() {
        return Err(format!("{} takes no --limit", algo.label()));
    }

    // --frontier selects the worklist scheduling policy: auto (default),
    // dense, sparse, or off (full sweeps every iteration).
    let frontier_flag = args.flag("frontier").unwrap_or("auto");
    let (worklist, frontier) = match frontier_flag {
        "off" => (false, FrontierMode::Auto),
        other => match FrontierMode::parse(other) {
            Some(mode) => (true, mode),
            None => {
                return Err(format!(
                    "invalid --frontier `{other}` (expected auto, dense, sparse, or off)"
                ))
            }
        },
    };
    // --direction selects push (top-down), pull (bottom-up over an
    // internally built transpose), or auto (the Beamer-style density
    // switch generalized to every monotone program).
    let direction = match args.flag("direction") {
        Some(s) => Direction::parse(s).ok_or(format!(
            "invalid --direction `{s}` (expected push, pull, or auto)"
        ))?,
        None => Direction::Push,
    };
    // --cpu runs the analytic on the host executor instead of the
    // simulator: same plan, same prepared views. One source is one lane,
    // so there is nothing to deal across threads.
    let cpu = args.switch("cpu");
    let virtual_k: Option<u32> = args
        .flag("virtual")
        .map(|k| k.parse().map_err(|_| "invalid --virtual K".to_string()))
        .transpose()?;

    // Describe everything this run derives from the input as one
    // PrepareSpec, so the store can cache it all in a single artifact.
    // On the host, PageRank in either direction gathers over the
    // transpose.
    let needs_transpose = match algo {
        Algo::Bfs | Algo::Sssp | Algo::Sswp | Algo::Cc | Algo::Khop | Algo::Paths => {
            direction != Direction::Push
        }
        Algo::Pr => direction == Direction::Pull || cpu,
        _ => false,
    };
    let mut spec = PrepareSpec::from_file(&path).with_transpose(needs_transpose);
    if let Some(k) = virtual_k {
        spec = spec.with_virtual(k, args.switch("coalesced"));
    }
    // --deadline-ms bounds preparation *and* execution with one
    // cooperative cancel token, polled at iteration boundaries; expiry
    // exits with the distinct timeout code.
    let cancel = match args.flag("deadline-ms") {
        Some(ms) => {
            let ms: u64 = ms
                .parse()
                .map_err(|_| "invalid --deadline-ms".to_string())?;
            CancelToken::with_deadline(std::time::Duration::from_millis(ms))
        }
        None => CancelToken::never(),
    };
    let prepared = store_from_args(args)?
        .prepare_cancellable(&spec, &cancel)
        .map_err(|e| match e {
            tigr_graph::GraphError::Cancelled => {
                timeout_message(format!("loading {path} hit --deadline-ms"))
            }
            other => format!("cannot load {path}: {other}"),
        })?;
    let g = prepared.graph();
    if g.num_nodes() == 0 {
        return Err("graph is empty".into());
    }
    let source = NodeId::new(args.flag_or("source", 0u32)?);
    if source.index() >= g.num_nodes() {
        return Err(format!("--source {source} out of range"));
    }

    let engine = Engine::new(GpuConfig::default())
        .with_backend(if cpu {
            BackendKind::CpuPool
        } else {
            BackendKind::WarpSim
        })
        .with_options(PushOptions {
            worklist,
            frontier,
            ..PushOptions::default()
        })
        .with_direction(direction)
        .with_cancel(cancel.clone());
    // PageRank has no density switch: pull gathers over the prepared
    // transpose, auto means push.
    let pipeline = match algo {
        Algo::Pr if direction == Direction::Pull => Pipeline::pagerank(PrOptions {
            mode: PrMode::Pull,
            ..PrOptions::default()
        }),
        _ => Pipeline::for_algo(algo, limit).map_err(|e| e.to_string())?,
    };
    let started = std::time::Instant::now();
    let result = engine
        .run_prepared_pipeline(&prepared, &pipeline, algo.needs_source().then_some(source))
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    if result.cancelled {
        return Err(timeout_message(format!(
            "{analytic} stopped after {} iterations",
            result.iterations
        )));
    }
    // Same digest, over the same per-original-node values, as a served
    // query's `checksum` line.
    let projected = prepared
        .transformed()
        .map(|t| t.project_values(&result.values));
    let values = projected.as_deref().unwrap_or(&result.values);
    let limit = limit.unwrap_or_default();
    let top = || {
        values
            .iter()
            .map(|&v| f32::from_bits(v))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty graph")
    };
    let reached = |vals: &[u32]| vals.iter().filter(|&&v| v != u32::MAX).count();
    let mut out = match algo {
        Algo::Bfs | Algo::Sssp | Algo::Sswp | Algo::Cc => format!(
            "{analytic} from {source}: {} nodes with non-trivial values\n",
            values.iter().filter(|&&v| v != u32::MAX && v != 0).count()
        ),
        Algo::Pr => {
            let (top, rank) = top();
            let mode = if direction == Direction::Pull {
                "pull"
            } else {
                "push"
            };
            format!("pagerank: top node {top} (rank {rank:.6})\ndirection       {mode}\n")
        }
        Algo::Bc => {
            let (top, score) = top();
            format!("bc from {source}: top broker {top} (dependency {score:.2})\n")
        }
        Algo::Khop => format!(
            "khop from {source}: {} nodes within {limit} hops\n",
            reached(values)
        ),
        Algo::Paths => {
            let (dist, pred) = values.split_at(values.len() / 2);
            let tree_edges = (0..dist.len())
                .filter(|&v| dist[v] != u32::MAX && pred[v] != v as u32)
                .count();
            format!(
                "paths from {source}: {} nodes within cost {limit}, {tree_edges} tree edges\n",
                reached(dist)
            )
        }
        Algo::Lp => {
            let mut labels = values.to_vec();
            labels.sort_unstable();
            labels.dedup();
            format!(
                "lp after {limit} rounds: {} distinct labels\n",
                labels.len()
            )
        }
        Algo::Tc => {
            let corners: u64 = values.iter().map(|&c| u64::from(c)).sum();
            format!(
                "tc: {} triangles ({corners} corner incidences)\n",
                corners / 3
            )
        }
    };
    out.push_str(&format!(
        "checksum        {:016x}\n",
        tigr_server::protocol::checksum(values)
    ));
    if !result.directions.is_empty() {
        let sweeps = result.directions.len();
        let pulls = result
            .directions
            .iter()
            .filter(|&&d| d == Direction::Pull)
            .count();
        let direction_line = match (direction, pulls) {
            (Direction::Auto, _) => format!("auto ({} push / {pulls} pull)", sweeps - pulls),
            (_, 0) => "push".to_string(),
            _ => "pull".to_string(),
        };
        out.push_str(&format!(
            "direction       {direction_line}\nfrontier        {}\nedges touched   {}\n",
            if worklist { frontier.label() } else { "off" },
            result.edges_touched,
        ));
    }
    out.push_str(&format!(
        "representation  {}\niterations      {}\n",
        Representation::from_prepared(&prepared).label(),
        result.iterations
    ));
    let report = &result.report;
    if cpu {
        // The host has no architectural meter: wall clock it is.
        out.push_str(&format!(
            "backend         cpupool\nwall time       {:.3} ms\n",
            elapsed.as_secs_f64() * 1e3
        ));
    } else {
        out.push_str(&format!(
            "sim cycles      {} ({:.3} ms at 1.2 GHz)\nwarp efficiency {:.1}%\n",
            report.total_cycles(),
            GpuConfig::default().cycles_to_ms(report.total_cycles()),
            100.0 * report.warp_efficiency(),
        ));
    }
    if args.switch("stats") {
        out.push_str(&format_prepare_report(&prepared));
    }
    if args.switch("report") && !cpu {
        out.push_str("per-iteration cycles:\n");
        for it in &report.iterations {
            out.push_str(&format!(
                "  iter {:>3}: {:>8} threads {:>12} cycles\n",
                it.iteration, it.threads, it.metrics.cycles
            ));
        }
    }
    Ok(out)
}

/// Every flag and switch `tigr run` reads; anything else is refused.
const FLAGS: &[&str] = &[
    "graph",
    "source",
    "limit",
    "virtual",
    "coalesced",
    "direction",
    "frontier",
    "deadline-ms",
    "report",
    "stats",
    "cache-dir",
    "verify",
    "cpu",
];

const USAGE: &str = "usage: tigr run <bfs|sssp|sswp|cc|pr|bc|khop|paths|lp|tc> --graph <file> \
[--source N] [--limit K|RADIUS|ROUNDS] [--virtual K [--coalesced]] \
[--direction push|pull|auto] \
[--frontier auto|dense|sparse|off] [--deadline-ms MS] [--report] [--stats] \
[--cache-dir DIR] [--verify eager|lazy] [--cpu]
sim cycles come from the simulator's sequential warp replay, so two runs of one command print \
the same iterations, edges touched and cycles. Reproducible metrics come from the sequential \
replay: every verb here, and every tigr-bench table and figure";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    /// A test's own scratch directory holding the fixture graph: tests
    /// run on parallel threads, so they share no file.
    struct Fixture {
        dir: std::path::PathBuf,
    }

    impl std::fmt::Display for Fixture {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.dir.join("g.bin").display())
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn fixture() -> Fixture {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tigr_cli_run_test_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let fixture = Fixture { dir };
        let g = tigr_graph::generators::with_uniform_weights(
            &tigr_graph::generators::rmat(&tigr_graph::generators::RmatConfig::graph500(8, 6), 3),
            1,
            9,
            4,
        );
        crate::io_util::save_graph(&g, &fixture.to_string()).unwrap();
        fixture
    }

    #[test]
    fn runs_sssp_virtual_with_report() {
        let path = fixture();
        let out = run(&parse(&format!(
            "sssp --graph {path} --source 0 --virtual 10 --coalesced --report"
        )))
        .unwrap();
        assert!(out.contains("representation  virtual+"));
        assert!(out.contains("per-iteration cycles"));
        // The operator workloads meter their sweeps too.
        let out = run(&parse(&format!("khop --graph {path} --limit 2 --report"))).unwrap();
        assert!(out.contains("\nedges touched   "), "{out}");
        assert!(out.contains("\n  iter   0: "), "{out}");
    }

    #[test]
    fn help_names_the_reproducible_replay() {
        let out = run(&parse("--help")).unwrap();
        assert!(out.starts_with("usage: tigr run"), "{out}");
        assert!(out.contains("Reproducible metrics come from the sequential replay"));
    }

    #[test]
    fn runs_pagerank_original() {
        let path = fixture();
        let out = run(&parse(&format!("pr --graph {path}"))).unwrap();
        assert!(out.contains("pagerank: top node"));
        assert!(out.contains("representation  original"));
    }

    #[test]
    fn frontier_modes_report_and_match() {
        let path = fixture();
        let on = run(&parse(&format!("sssp --graph {path} --frontier sparse"))).unwrap();
        assert!(on.contains("frontier        sparse"));
        let off = run(&parse(&format!("sssp --graph {path} --frontier off"))).unwrap();
        assert!(off.contains("frontier        off"));
        let touched = |s: &str| -> u64 {
            s.lines()
                .find(|l| l.starts_with("edges touched"))
                .and_then(|l| l.split_whitespace().last())
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(
            touched(&on) < touched(&off),
            "frontier run should attempt fewer relaxations"
        );
    }

    #[test]
    fn cpu_path_reports_backend_and_stats() {
        let path = fixture();
        let out = run(&parse(&format!("sssp --graph {path} --cpu --stats"))).unwrap();
        assert!(out.contains("sssp from 0:"), "{out}");
        assert!(out.contains("backend         cpupool\n"), "{out}");
        assert!(out.contains("wall time"), "{out}");
        assert!(out.contains("cache           "), "{out}");
        assert!(!out.contains("sim cycles"), "{out}");
        // A single-source run has no lanes to deal: no thread knob.
        let err = run(&parse(&format!("bfs --graph {path} --cpu --threads 2"))).unwrap_err();
        assert!(err.contains("unknown flag --threads"), "{err}");
    }

    #[test]
    fn retired_schedule_flag_is_unknown() {
        let path = fixture();
        // Spelled in parts: the retired knob's name appears nowhere else
        // in the tree.
        let retired = ["cpu", "schedule"].join("-");
        let err = run(&parse(&format!(
            "bfs --graph {path} --cpu --{retired} virtual"
        )))
        .unwrap_err();
        assert!(err.contains(&format!("unknown flag --{retired}")), "{err}");
    }

    /// `--cpu` answers all ten verbs in every direction — `bc`, pull
    /// `pr` and the operator workloads included — with the simulator
    /// run's value summary and checksum, and every run prints the shared
    /// tail: `iterations`, then sim cycles or the host's backend line.
    #[test]
    fn cpu_answers_every_verb_like_the_simulator() {
        let path = fixture();
        let summary = |out: &str| -> Vec<String> {
            let first = out.lines().next().unwrap_or_default();
            out.lines()
                .filter(|l| *l == first || l.starts_with("checksum"))
                .map(str::to_string)
                .collect()
        };
        let verbs = ["bfs", "sssp", "sswp", "cc", "pr", "bc"]
            .into_iter()
            .chain(["khop --limit 2", "paths --limit 40", "lp --limit 3", "tc"]);
        for verb in verbs {
            for d in ["push", "pull", "auto"] {
                let cmd = format!("{verb} --graph {path} --direction {d}");
                let sim = run(&parse(&cmd)).unwrap();
                let cpu = run(&parse(&format!("{cmd} --cpu"))).unwrap();
                assert_eq!(summary(&sim).len(), 2, "{cmd}: no checksum\n{sim}");
                assert!(sim.contains("\niterations      "), "{cmd}: {sim}");
                assert!(sim.contains("\nsim cycles      "), "{cmd}: {sim}");
                assert!(cpu.contains("\nbackend         cpupool\n"), "{cmd}: {cpu}");
                assert_eq!(summary(&cpu), summary(&sim), "{cmd}");
            }
        }
    }

    #[test]
    fn direction_flag_runs_and_reports_every_analytic() {
        let path = fixture();
        let values = |s: &str| -> u64 {
            s.lines()
                .find(|l| l.contains("non-trivial values"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|l| l.split_whitespace().next())
                .unwrap()
                .parse()
                .unwrap()
        };
        let push = run(&parse(&format!("bfs --graph {path} --direction push"))).unwrap();
        assert!(push.contains("direction       push"));
        for d in ["pull", "auto"] {
            let out = run(&parse(&format!("bfs --graph {path} --direction {d}"))).unwrap();
            assert!(out.contains(&format!("direction       {d}")), "{out}");
            assert_eq!(values(&out), values(&push), "--direction {d}");
        }
        // Auto runs every analytic, even the push-only ones.
        for analytic in ["sssp", "sswp", "cc", "pr", "bc"] {
            let out = run(&parse(&format!(
                "{analytic} --graph {path} --direction auto"
            )))
            .unwrap();
            assert!(!out.is_empty(), "{analytic}");
        }
        // Pull PR gathers over the transpose and says so.
        let out = run(&parse(&format!("pr --graph {path} --direction pull"))).unwrap();
        assert!(out.contains("direction       pull"));
    }

    #[test]
    fn rejects_bad_direction() {
        let path = fixture();
        let err = run(&parse(&format!("bfs --graph {path} --direction sideways"))).unwrap_err();
        assert!(err.contains("invalid --direction"));
    }

    #[test]
    fn rejects_bad_frontier_mode() {
        let path = fixture();
        let err = run(&parse(&format!("bfs --graph {path} --frontier bitmap"))).unwrap_err();
        assert!(err.contains("invalid --frontier"));
    }

    #[test]
    fn cache_dir_hits_on_second_run_with_zero_work() {
        let path = fixture();
        let cache = path.dir.join("cache").display().to_string();
        let cmd = format!(
            "sssp --graph {path} --virtual 10 --coalesced --direction auto --stats --cache-dir {cache}"
        );
        let cold = run(&parse(&cmd)).unwrap();
        assert!(cold.contains("cache           miss"), "{cold}");
        let warm = run(&parse(&cmd)).unwrap();
        assert!(warm.contains("cache           hit"), "{warm}");
        assert!(
            warm.contains("prep work       0 transforms, 0 transposes, 0 overlays"),
            "{warm}"
        );
        // The cached run prints what the cold one printed, schedule and
        // simulator counters included; only the cache lines differ.
        let run_lines = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("cache") && !l.starts_with("prep work"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert!(cold.contains("\nedges touched   "), "{cold}");
        assert_eq!(run_lines(&cold), run_lines(&warm));
    }

    /// Every verb replays sequentially, so repeated runs of one command
    /// print the same bytes: iterations, edges touched and sim cycles
    /// included, even where `--direction auto` switches mid-run.
    #[test]
    fn repeated_runs_print_identical_output() {
        let path = fixture();
        let cmd = format!("sssp --graph {path} --direction auto --virtual 8");
        let first = run(&parse(&cmd)).unwrap();
        assert!(first.contains("\nsim cycles      "), "{first}");
        for _ in 1..5 {
            assert_eq!(run(&parse(&cmd)).unwrap(), first, "{cmd}");
        }
    }

    #[test]
    fn stats_without_cache_dir_reports_off() {
        if std::env::var_os("TIGR_CACHE_DIR").is_some() {
            return; // ambient cache directory: outcome is miss/hit, not off
        }
        let path = fixture();
        let out = run(&parse(&format!("bfs --graph {path} --stats"))).unwrap();
        assert!(out.contains("cache           off"), "{out}");
        // The CPU path appends the same cache lines.
        let out = run(&parse(&format!("bfs --graph {path} --cpu --stats"))).unwrap();
        assert!(out.contains("backend         cpupool"), "{out}");
        assert!(out.contains("cache           off"), "{out}");
    }

    #[test]
    fn zero_deadline_times_out_with_marker() {
        let path = fixture();
        for cmd in [
            format!("sssp --graph {path} --deadline-ms 0"),
            format!("sssp --graph {path} --cpu --deadline-ms 0"),
        ] {
            let err = run(&parse(&cmd)).unwrap_err();
            assert!(
                err.starts_with(crate::commands::TIMEOUT_PREFIX),
                "{cmd}: {err}"
            );
        }
        let err = run(&parse(&format!("sssp --graph {path} --deadline-ms soon"))).unwrap_err();
        assert!(err.contains("invalid --deadline-ms"));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let path = fixture();
        let out = run(&parse(&format!("bfs --graph {path} --deadline-ms 60000"))).unwrap();
        assert!(out.contains("non-trivial values"), "{out}");
    }

    #[test]
    fn rejects_bad_source() {
        let path = fixture();
        let err = run(&parse(&format!("bfs --graph {path} --source 99999"))).unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn rejects_unknown_analytic() {
        let path = fixture();
        let err = run(&parse(&format!("coloring --graph {path}"))).unwrap_err();
        assert!(err.contains("unknown analytic"));
        // The rejection names the shared verb table.
        assert!(err.contains("khop"), "{err}");
        assert!(err.contains("tc"), "{err}");
    }

    #[test]
    fn pipeline_workloads_run_from_the_cli() {
        let path = fixture();
        let out = run(&parse(&format!("khop --graph {path} --source 0 --limit 2"))).unwrap();
        assert!(out.contains("khop from 0:"), "{out}");
        assert!(out.contains("within 2 hops"), "{out}");
        let out = run(&parse(&format!(
            "paths --graph {path} --source 0 --limit 40"
        )))
        .unwrap();
        assert!(out.contains("paths from 0:"), "{out}");
        assert!(out.contains("tree edges"), "{out}");
        let out = run(&parse(&format!("lp --graph {path} --limit 3"))).unwrap();
        assert!(out.contains("lp after 3 rounds:"), "{out}");
        assert!(out.contains("distinct labels"), "{out}");
        let out = run(&parse(&format!("tc --graph {path}"))).unwrap();
        assert!(out.contains("tc: "), "{out}");
        assert!(out.contains("triangles"), "{out}");
    }

    #[test]
    fn khop_widens_with_k_and_limit_arity_is_enforced() {
        let path = fixture();
        let reached = |out: &str| -> u64 {
            out.lines()
                .next()
                .and_then(|l| l.split(':').nth(1))
                .and_then(|l| l.split_whitespace().next())
                .unwrap()
                .parse()
                .unwrap()
        };
        let narrow = run(&parse(&format!("khop --graph {path} --source 0 --limit 1"))).unwrap();
        let wide = run(&parse(&format!("khop --graph {path} --source 0 --limit 8"))).unwrap();
        assert!(reached(&narrow) < reached(&wide), "{narrow}\n{wide}");
        let err = run(&parse(&format!("khop --graph {path} --source 0"))).unwrap_err();
        assert!(err.contains("requires --limit (k)"), "{err}");
        let err = run(&parse(&format!("bfs --graph {path} --limit 2"))).unwrap_err();
        assert!(err.contains("takes no --limit"), "{err}");
    }
}
