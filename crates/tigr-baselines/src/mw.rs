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

use std::iter::StepBy;
use std::ops::Range;
use std::sync::atomic::Ordering;

use tigr_core::CancelToken;
use tigr_engine::addr::{aux_addr, edge_addr, row_ptr_addr, value_addr, FLAG_ADDR};
use tigr_engine::{pr, MonotoneProgram, PrOptions, PrOutput};
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuSimulator, KernelMetrics, Lane};

use crate::common::{fixpoint, FrameworkRun};

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
    by_width(
        width,
        |r: &FrameworkRun| r.report.total_cycles(),
        |w| run_with_width(sim, g, prog, source, w),
    )
}

/// `run` at `width`, or the run of [`WIDTHS`] that takes the fewest
/// simulated cycles when `width` is `None`.
fn by_width<T>(width: Option<usize>, cycles: impl Fn(&T) -> u64, run: impl Fn(usize) -> T) -> T {
    match width {
        Some(w) => run(w),
        None => WIDTHS
            .iter()
            .map(|&w| run(w))
            .min_by_key(cycles)
            .expect("WIDTHS is non-empty"),
    }
}

/// The mapping: one virtual warp of `width` threads per node. Thread
/// `tid` is lane `tid % width` of node `tid / width`'s group; it loads
/// the node's header and value, then `body` walks every `width`-th of
/// the node's edges from the lane's offset.
fn sweep(
    sim: &GpuSimulator,
    g: &Csr,
    width: usize,
    body: impl Fn(&mut Lane, usize, StepBy<Range<usize>>) + Sync,
) -> (usize, KernelMetrics) {
    let threads = g.num_nodes() * width;
    let metrics = sim.launch(threads, |tid, lane| {
        let v = NodeId::from_index(tid / width);
        // Every lane of the group reads the node header and value (one
        // coalesced transaction since addresses coincide).
        lane.load(row_ptr_addr(v.index()), 8);
        lane.load(value_addr(v.index()), 4);
        let first = g.edge_start(v) + tid % width;
        body(lane, v.index(), (first..g.edge_end(v)).step_by(width));
    });
    (threads, metrics)
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
    fixpoint(g.num_nodes(), prog, source, |values, changed| {
        sweep(sim, g, width, |lane, node, edges| {
            let d = values.load(node);
            for e in edges {
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
            }
        })
    })
}

/// PageRank with virtual warps of `width`, or the best of [`WIDTHS`]
/// when `width` is `None`: push-style scatter over out-edges.
pub fn run_pagerank(
    sim: &GpuSimulator,
    g: &Csr,
    options: &PrOptions,
    width: Option<usize>,
) -> PrOutput {
    by_width(
        width,
        |r: &PrOutput| r.report.total_cycles(),
        |w| pagerank_with_width(sim, g, options, w),
    )
}

fn pagerank_with_width(sim: &GpuSimulator, g: &Csr, options: &PrOptions, width: usize) -> PrOutput {
    pr::power_iterate(
        sim,
        &pr::out_degrees(g),
        options,
        &CancelToken::never(),
        |shares, accum| {
            sweep(sim, g, width, |lane, node, edges| {
                if g.out_degree(NodeId::from_index(node)) == 0 {
                    return;
                }
                let share = shares.load(node);
                lane.compute(1);
                for e in edges {
                    lane.load(edge_addr(e), 8);
                    let nbr = g.edge_target(e).index();
                    accum.fetch_add(nbr, share);
                    lane.atomic(aux_addr(0, nbr), 4);
                }
            })
        },
        |lane, v| {
            lane.load(aux_addr(0, v), 4);
            lane.load(value_addr(v), 4);
        },
    )
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
    fn auto_width_pagerank_is_the_fastest_width() {
        let g = fixture();
        let sim = GpuSimulator::new(GpuConfig::default());
        let options = PrOptions::default();
        let auto = run_pagerank(&sim, &g, &options, None);
        let fixed: Vec<PrOutput> = WIDTHS
            .iter()
            .map(|&w| run_pagerank(&sim, &g, &options, Some(w)))
            .collect();
        let cycles = |r: &PrOutput| r.report.total_cycles();
        assert_eq!(Some(cycles(&auto)), fixed.iter().map(cycles).min());
        assert!(fixed.iter().any(|r| r.ranks == auto.ranks));
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
