//! CuSha (Khorasani et al., HPDC 2014): shard-based processing with
//! G-Shards and Concatenated Windows.
//!
//! CuSha abandons CSR for *shards*: edges are grouped by destination
//! window and stored as full `(src, dst, weight, src-value)` entries so
//! that a block of threads sweeps a shard with perfectly coalesced
//! reads, combines updates in on-chip windows (no global atomics), and
//! writes each window back once. The costs of that strategy, all
//! reproduced here:
//!
//! * a **value-refresh scatter** per iteration (the src-value copies in
//!   every shard entry must be updated from the value array),
//! * a **write-back pass** per window,
//! * ~2× edge storage, which produces the paper's OOM entries
//!   (`common::Baseline::footprint_bytes`),
//! * and no worklist: every edge is processed every iteration.
//!
//! In exchange, the main sweep is edge-parallel, fully balanced, and
//! atomic-free — which is exactly why CuSha wins PageRank in Table 4
//! while losing the frontier-driven analytics to Tigr-V+.

use std::sync::atomic::Ordering;

use tigr_core::CancelToken;
use tigr_engine::addr::{aux_addr, value_addr, FLAG_ADDR};
use tigr_engine::{pr, MonotoneProgram, PrOptions, PrOutput};
use tigr_graph::reverse::transpose;
use tigr_graph::{Csr, NodeId, Weight};
use tigr_sim::{GpuSimulator, KernelMetrics, Lane};

use crate::common::{fixpoint, CushaMode, FrameworkRun};

/// Simulated base address of the shard entry array (16-byte entries).
const SHARD_BASE: u64 = 0x8000_0000;

const fn shard_addr(e: usize) -> u64 {
    SHARD_BASE + (e as u64) * 16
}

/// One shard entry: an edge sorted by destination.
#[derive(Clone, Copy, Debug)]
struct ShardEntry {
    src: u32,
    dst: u32,
    weight: Weight,
}

/// The shard representation: edges of `g` sorted by destination —
/// i.e. the transpose's flat order, which groups each destination
/// window's updates contiguously.
fn build_shards(g: &Csr) -> Vec<ShardEntry> {
    let rev = transpose(g);
    let mut entries = Vec::with_capacity(g.num_edges());
    for dst in rev.nodes() {
        for (off, &src) in rev.neighbors(dst).iter().enumerate() {
            let e = rev.edge_start(dst) + off;
            entries.push(ShardEntry {
                src: src.raw(),
                dst: dst.raw(),
                weight: rev.weight(e),
            });
        }
    }
    entries
}

/// The mapping, one thread per shard entry in two launches. The refresh
/// copies current values into the entries' src-value slots (scattered
/// gather, coalesced store); the sweep reads each entry coalesced and
/// hands it to `combine`, which folds it into its destination window
/// on chip (compute only, no atomics).
fn shard_pass(
    sim: &GpuSimulator,
    shards: &[ShardEntry],
    combine: impl Fn(&mut Lane, &ShardEntry),
) -> KernelMetrics {
    let mut metrics = sim.launch(shards.len(), |tid, lane| {
        lane.load(value_addr(shards[tid].src as usize), 4);
        lane.store(shard_addr(tid) + 12, 4);
    });
    let sweep = sim.launch(shards.len(), |tid, lane| {
        lane.load(shard_addr(tid), 16);
        combine(lane, &shards[tid]);
    });
    metrics.merge(&sweep);
    metrics
}

/// What a G-Shards write-back or finalize thread loads: the window's old
/// value, which Concatenated Windows skip.
fn window_loads(mode: CushaMode, lane: &mut Lane, v: usize) {
    if matches!(mode, CushaMode::GShards) {
        lane.load(aux_addr(4, v), 4);
    }
}

/// Runs a monotone analytic with CuSha's shard strategy.
pub fn run_monotone(
    sim: &GpuSimulator,
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    mode: CushaMode,
) -> FrameworkRun {
    let n = g.num_nodes();
    let shards = build_shards(g);
    fixpoint(n, prog, source, |values, changed| {
        let mut metrics = shard_pass(sim, &shards, |lane, entry| {
            let d = values.load(entry.src as usize);
            let cand = prog.edge_op.apply(d, entry.weight);
            lane.compute(3);
            if prog.combine.improves(cand, values.load(entry.dst as usize))
                && values.try_improve(entry.dst as usize, cand, prog.combine)
            {
                // Window update in shared memory: compute-only.
                lane.compute(1);
                lane.store(FLAG_ADDR, 1);
                changed.store(true, Ordering::Relaxed);
            }
        });
        // Window write-back, one coalesced pass over nodes.
        let writeback = sim.launch(n, |tid, lane| {
            window_loads(mode, lane, tid);
            lane.compute(1);
            lane.store(value_addr(tid), 4);
        });
        metrics.merge(&writeback);
        (shards.len(), metrics)
    })
}

/// PageRank with CuSha: the shard sweep gathers `rank/outdeg`
/// contributions per destination window without atomics — the shape that
/// wins PR in Table 4. The finalize kernel is the window write-back.
pub fn run_pagerank(sim: &GpuSimulator, g: &Csr, options: &PrOptions, mode: CushaMode) -> PrOutput {
    let shards = build_shards(g);
    pr::power_iterate(
        sim,
        &pr::out_degrees(g),
        options,
        &CancelToken::never(),
        |shares, accum| {
            // The host accumulation uses atomics for thread-safety, but
            // the simulated cost is compute-only, matching on-chip
            // combining.
            let metrics = shard_pass(sim, &shards, |lane, entry| {
                accum.add(entry.dst as usize, shares.load(entry.src as usize));
                lane.compute(3);
            });
            (shards.len(), metrics)
        },
        |lane, v| window_loads(mode, lane, v),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{dijkstra, pagerank};
    use tigr_sim::GpuConfig;

    fn fixture() -> Csr {
        with_uniform_weights(&rmat(&RmatConfig::graph500(7, 6), 81), 1, 32, 6)
    }

    #[test]
    fn cusha_sssp_matches_dijkstra_in_both_modes() {
        let g = fixture();
        let expect = dijkstra(&g, NodeId::new(0));
        let sim = GpuSimulator::new(GpuConfig::default());
        for mode in [CushaMode::GShards, CushaMode::ConcatenatedWindows] {
            let out = run_monotone(&sim, &g, MonotoneProgram::SSSP, Some(NodeId::new(0)), mode);
            assert_eq!(out.values, expect, "{mode:?}");
        }
    }

    #[test]
    fn cusha_pagerank_matches_oracle() {
        let g = rmat(&RmatConfig::graph500(7, 6), 82);
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
            CushaMode::GShards,
        );
        for (i, (&got, &want)) in out.ranks.iter().zip(&expect).enumerate() {
            assert!((got as f64 - want).abs() < 1e-4, "rank[{i}]");
        }
    }

    #[test]
    fn shard_sweep_is_atomic_free() {
        let g = fixture();
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_monotone(
            &sim,
            &g,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            CushaMode::GShards,
        );
        assert_eq!(
            out.report.total().atomic_ops,
            0,
            "window combining avoids atomics"
        );
    }

    #[test]
    fn shards_sorted_by_destination() {
        let g = fixture();
        let shards = build_shards(&g);
        assert_eq!(shards.len(), g.num_edges());
        assert!(shards.windows(2).all(|w| w[0].dst <= w[1].dst));
    }

    #[test]
    fn shard_sweep_has_high_warp_efficiency() {
        // Edge-parallel processing is perfectly balanced even on a star.
        let g = tigr_graph::generators::star_graph(2001);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run_monotone(
            &sim,
            &g,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            CushaMode::GShards,
        );
        assert!(
            out.report.warp_efficiency() > 0.9,
            "efficiency {}",
            out.report.warp_efficiency()
        );
    }
}
