//! The simulator's warp replay against the plain one
//! (`common::reference_launch`: every lane in a `Vec` of its own, every
//! step visiting all of them, a fresh coalescing buffer per step): every
//! `KernelMetrics` field equal, for lane traces drawn as data and played
//! through the kernel closure, over warp sizes, line sizes and both
//! timing models.

mod common;

use common::{play, reference_launch, TraceOp};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tigr_sim::{CostModel, GpuConfig, GpuSimulator, KernelMetrics, TimingModel};

const WARP_SIZES: [usize; 5] = [1, 4, 32, 33, 64];
const LINE_BYTES: [u64; 3] = [16, 128, 4096];
/// Access widths: the engine's 4 and 8, zero (counted as one byte), and
/// widths that straddle a 16- or 128-byte line or a whole 4096-byte one.
const WIDTHS: [u64; 8] = [4, 4, 8, 0, 1, 24, 200, 5000];

fn config(warp: usize, line: u64, mimd: bool, sms: usize, cost: (u64, u64, u64)) -> GpuConfig {
    GpuConfig {
        warp_size: warp,
        num_sms: sms,
        cacheline_bytes: line,
        cost: CostModel {
            compute_cycles: cost.0,
            mem_transaction_cycles: cost.1,
            atomic_extra_cycles: cost.2,
            kernel_launch_cycles: 7,
        },
        timing: if mimd {
            TimingModel::IdealMimd
        } else {
            TimingModel::SimdLockstep
        },
        ..GpuConfig::default()
    }
}

/// One drawn op of thread `tid`: computes of weight 0–5 (zero records
/// nothing, neighbours fuse), loads, stores and atomics over a few
/// hundred words (so lanes collide on addresses and lines), sometimes
/// misaligned, and coalesced loads at `tid`'s own word.
fn trace_op(tid: usize, (kind, weight, slot, width): (u8, u64, u64, usize)) -> TraceOp {
    let addr = 0x1000 + slot * 4 + u64::from(weight == 5);
    let bytes = WIDTHS[width];
    match kind {
        0 => TraceOp::Compute(weight),
        1 => TraceOp::Load(addr, bytes),
        2 => TraceOp::Store(addr, bytes),
        3 => TraceOp::Atomic(addr, bytes),
        _ => TraceOp::Load(0x10_0000 + tid as u64 * 4, 4),
    }
}

/// Shapes a drawn lane: a quarter empty, most at most eight ops, one in
/// sixteen up to 120 — the long lone-lane tail of a hub row.
fn shape(tid: usize, (class, ops): (u8, Vec<(u8, u64, u64, usize)>)) -> Vec<TraceOp> {
    let len = match class {
        0..=3 => 0,
        4..=14 => ops.len().min(8),
        _ => ops.len(),
    };
    ops[..len].iter().map(|&op| trace_op(tid, op)).collect()
}

fn lanes() -> impl Strategy<Value = Vec<Vec<TraceOp>>> {
    let op = (0u8..5, 0u64..6, 0u64..300, 0usize..WIDTHS.len());
    vec((0u8..16, vec(op, 0..121)), 0..71).prop_map(|lanes| {
        lanes
            .into_iter()
            .enumerate()
            .map(|(tid, lane)| shape(tid, lane))
            .collect()
    })
}

fn launch(config: GpuConfig, traces: &[Vec<TraceOp>]) -> KernelMetrics {
    GpuSimulator::new(config).launch(traces.len(), |tid, lane| play(&traces[tid], lane))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn replay_equals_the_reference(
        (warp, line, mimd) in (0usize..WARP_SIZES.len(), 0usize..LINE_BYTES.len(), any::<bool>()),
        sms in 1usize..4,
        cost in (0u64..4, 1u64..10, 0u64..6),
        traces in lanes(),
    ) {
        let config = config(WARP_SIZES[warp], LINE_BYTES[line], mimd, sms, cost);
        let replayed = launch(config, &traces);
        let reference = reference_launch(&config, traces.len(), |tid, lane| play(&traces[tid], lane));
        prop_assert_eq!(&replayed, &reference);
    }
}

/// Every warp size × line size × timing model on one fixed trace set of
/// 200 lanes: power-law lengths (a few hubs, many one-op lanes),
/// coalesced and scattered accesses, straddling and zero-byte ones.
#[test]
fn replay_equals_the_reference_on_every_geometry() {
    let mut rng = StdRng::seed_from_u64(36);
    let traces: Vec<Vec<TraceOp>> = (0..200)
        .map(|tid| {
            let len = (1.0 / (0.004 + 0.996 * rng.gen::<f64>())) as usize - 1;
            (0..len)
                .map(|_| {
                    let op = (
                        rng.gen_range(0u8..5),
                        rng.gen_range(0u64..6),
                        rng.gen_range(0u64..2000),
                        rng.gen_range(0..WIDTHS.len()),
                    );
                    trace_op(tid, op)
                })
                .collect()
        })
        .collect();
    for warp in WARP_SIZES {
        for line in LINE_BYTES {
            for mimd in [false, true] {
                let config = config(warp, line, mimd, 3, (1, 8, 4));
                let replayed = launch(config, &traces);
                let reference =
                    reference_launch(&config, traces.len(), |tid, lane| play(&traces[tid], lane));
                assert_eq!(replayed, reference, "warp {warp}, line {line}, mimd {mimd}");
            }
        }
    }
}
