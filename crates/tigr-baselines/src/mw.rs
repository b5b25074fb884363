//! Maximum Warp (Hong et al., PPoPP 2011): virtual-warp-centric
//! processing.
//!
//! A warp of 32 lanes is decomposed into `32 / W` *virtual warps* of
//! width `W`; each virtual warp cooperatively processes one node, its
//! lanes striding the node's edge list by `W`. Wide virtual warps tame
//! hubs but waste lanes on low-degree nodes; narrow ones do the
//! opposite — hence the paper evaluates `W ∈ 2..32` and reports the best
//! (Table 2).
//!
//! Faithful to the original, there is no worklist: every node is
//! processed every iteration, with updates applied atomically and
//! relaxed visibility.

use std::sync::atomic::{AtomicBool, Ordering};

use tigr_engine::addr::{edge_addr, row_ptr_addr, value_addr, FLAG_ADDR};
use tigr_engine::{AtomicFloats, AtomicValues, MonotoneProgram, PrOptions, PrOutput};
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuSimulator, KernelMetrics, SimReport};

use crate::common::{dangling_mass, dangling_nodes, FrameworkRun};

/// The virtual-warp widths the paper sweeps.
pub const WIDTHS: [usize; 5] = [2, 4, 8, 16, 32];

/// Runs a monotone analytic with virtual warps of `width`, or the best
/// of [`WIDTHS`] when `width` is `None`.
///
/// # Panics
///
/// Panics if `width` is not a divisor of the simulated warp size, or if
/// the program's source is missing/out of range.
pub fn run_monotone(
    sim: &GpuSimulator,
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    width: Option<usize>,
) -> FrameworkRun {
    match width {
        Some(w) => run_with_width(sim, g, prog, source, w),
        None => WIDTHS
            .iter()
            .map(|&w| run_with_width(sim, g, prog, source, w))
            .min_by_key(|r| r.report.total_cycles())
            .expect("WIDTHS is non-empty"),
    }
}

fn run_with_width(
    sim: &GpuSimulator,
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    width: usize,
) -> FrameworkRun {
    let warp = sim.config().warp_size;
    assert!(
        width > 0 && warp.is_multiple_of(width),
        "virtual warp width {width} must divide the warp size {warp}"
    );
    let n = g.num_nodes();
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let mut report = SimReport::new();

    loop {
        let changed = AtomicBool::new(false);
        // One virtual warp (W threads) per node.
        let metrics = sim.launch(n * width, |tid, lane| {
            let node = tid / width;
            let lane_in_group = tid % width;
            let v = NodeId::from_index(node);
            // Every lane of the group reads the node header and value
            // (one coalesced transaction since addresses coincide).
            lane.load(row_ptr_addr(node), 8);
            lane.load(value_addr(node), 4);
            let d = values.load(node);
            let (start, end) = (g.edge_start(v), g.edge_end(v));
            let mut e = start + lane_in_group;
            while e < end {
                lane.load(edge_addr(e), 8);
                let nbr = g.edge_target(e).index();
                let cand = prog.edge_op.apply(d, g.weight(e));
                lane.compute(2);
                lane.load(value_addr(nbr), 4);
                if prog.combine.improves(cand, values.load(nbr))
                    && values.try_improve(nbr, cand, prog.combine)
                {
                    lane.atomic(value_addr(nbr), 4);
                    lane.store(FLAG_ADDR, 1);
                    changed.store(true, Ordering::Relaxed);
                }
                e += width;
            }
        });
        report.push(n * width, metrics);
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }

    FrameworkRun {
        values: values.snapshot(),
        report,
    }
}

/// PageRank with virtual warps: push-style scatter over out-edges.
pub fn run_pagerank(
    sim: &GpuSimulator,
    g: &Csr,
    options: &PrOptions,
    width: Option<usize>,
) -> PrOutput {
    let width = width.unwrap_or(8);
    let n = g.num_nodes();
    if n == 0 {
        return PrOutput {
            ranks: Vec::new(),
            report: SimReport::new(),
            iterations: 0,
            converged: true,
            cancelled: false,
        };
    }
    let ranks = AtomicFloats::new(n, 1.0 / n as f32);
    let accum = AtomicFloats::new(n, 0.0);
    let dangling_nodes = dangling_nodes(g);
    let mut report = SimReport::new();
    let mut converged = false;

    for _ in 0..options.max_iterations {
        accum.fill(0.0);
        let mut metrics = sim.launch(n * width, |tid, lane| {
            let node = tid / width;
            let lane_in_group = tid % width;
            let v = NodeId::from_index(node);
            lane.load(row_ptr_addr(node), 8);
            lane.load(value_addr(node), 4);
            let deg = g.out_degree(v);
            if deg == 0 {
                return;
            }
            let share = ranks.load(node) / deg as f32;
            lane.compute(1);
            let (start, end) = (g.edge_start(v), g.edge_end(v));
            let mut e = start + lane_in_group;
            while e < end {
                lane.load(edge_addr(e), 8);
                let nbr = g.edge_target(e).index();
                accum.fetch_add(nbr, share);
                lane.atomic(tigr_engine::addr::aux_addr(0, nbr), 4);
                e += width;
            }
        });

        let dangling = dangling_mass(&ranks, &dangling_nodes);
        let base =
            (1.0 - options.damping) / n as f32 + options.damping * dangling as f32 / n as f32;
        let delta = AtomicFloats::new(1, 0.0);
        let fin: KernelMetrics = sim.launch(n, |v, lane| {
            lane.load(tigr_engine::addr::aux_addr(0, v), 4);
            lane.load(value_addr(v), 4);
            let new = base + options.damping * accum.load(v);
            delta.fetch_add(0, (new - ranks.load(v)).abs());
            ranks.store(v, new);
            lane.compute(3);
            lane.store(value_addr(v), 4);
        });
        metrics.merge(&fin);
        report.push(n * width, metrics);
        if delta.load(0) < options.tolerance {
            converged = true;
            break;
        }
    }

    PrOutput {
        ranks: ranks.snapshot(),
        iterations: report.num_iterations(),
        report,
        converged,
        cancelled: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{dijkstra, pagerank};
    use tigr_sim::GpuConfig;

    fn fixture() -> Csr {
        with_uniform_weights(&rmat(&RmatConfig::graph500(7, 6), 71), 1, 32, 4)
    }

    #[test]
    fn mw_sssp_matches_dijkstra_for_every_width() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        let sim = GpuSimulator::new(GpuConfig::default());
        for w in WIDTHS {
            let out = run_monotone(
                &sim,
                &g,
                MonotoneProgram::SSSP,
                Some(NodeId::new(0)),
                Some(w),
            );
            assert_eq!(out.values, expect, "width {w}");
        }
    }

    #[test]
    fn auto_width_picks_a_fast_one() {
        let g = fixture();
        let sim = GpuSimulator::new(GpuConfig::default());
        let auto = run_monotone(&sim, &g, MonotoneProgram::SSSP, Some(NodeId::new(0)), None);
        for w in WIDTHS {
            let fixed = run_monotone(
                &sim,
                &g,
                MonotoneProgram::SSSP,
                Some(NodeId::new(0)),
                Some(w),
            );
            assert!(auto.report.total_cycles() <= fixed.report.total_cycles());
        }
    }

    #[test]
    fn wide_virtual_warps_help_hubs() {
        // A giant star: W=32 shares the hub's edges across a full warp;
        // W=2 leaves one pair doing all the work.
        let g = tigr_graph::generators::star_graph(4001);
        let sim = GpuSimulator::new(GpuConfig::default());
        let narrow = run_monotone(
            &sim,
            &g,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            Some(2),
        );
        let wide = run_monotone(
            &sim,
            &g,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            Some(32),
        );
        assert!(
            wide.report.total_cycles() < narrow.report.total_cycles(),
            "wide {} < narrow {}",
            wide.report.total_cycles(),
            narrow.report.total_cycles()
        );
    }

    #[test]
    fn mw_pagerank_matches_oracle() {
        let g = rmat(&RmatConfig::graph500(7, 6), 72);
        let expect = pagerank(&g, 0.85, 50);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_pagerank(
            &sim,
            &g,
            &PrOptions {
                max_iterations: 50,
                tolerance: 1e-7,
                ..PrOptions::default()
            },
            Some(4),
        );
        for (i, (&got, &want)) in out.ranks.iter().zip(&expect).enumerate() {
            assert!((got as f64 - want).abs() < 1e-4, "rank[{i}]");
        }
    }

    #[test]
    #[should_panic(expected = "must divide the warp size")]
    fn invalid_width_rejected() {
        let g = fixture();
        let sim = GpuSimulator::new(GpuConfig::default());
        let _ = run_monotone(
            &sim,
            &g,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            Some(7),
        );
    }
}
