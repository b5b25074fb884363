//! Warp-lockstep replay of lane traces.

use crate::config::GpuConfig;
use crate::executor::Op;
use crate::memory::{coalesce_transactions, MemAccess};

/// Timing and occupancy of a single simulated warp.
///
/// Produced by the warp-replay step and consumed by the executor's SM accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarpStats {
    /// Cycles this warp occupied its SM.
    pub cycles: u64,
    /// Useful lane-slots (instructions actually executed by lanes).
    pub useful_slots: u64,
    /// Issued lane-slots (`warp_size × Σ step weights`), counting idle
    /// lanes held in lockstep.
    pub issued_slots: u64,
    /// Memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Atomic operations executed.
    pub atomic_ops: u64,
    /// Lockstep steps executed (max lane trace length).
    pub steps: u64,
}

/// Replays the per-lane traces of one warp in lockstep and returns its
/// stats.
///
/// Semantics, mirroring SIMD hardware (Figure 3 of the paper):
///
/// * The warp executes `max(len(trace))` steps; at step `k`, every lane
///   with a `k`-th operation is active, the rest idle.
/// * A step's *compute* component costs `max` over active compute weights
///   (lanes with fewer pending instructions stall).
/// * A step's *memory* component groups all active lanes' accesses into
///   aligned cache-line transactions ([`coalesce_transactions`]).
/// * Idle lanes still consume issued slots — that is precisely the warp
///   inefficiency Tigr removes by regularizing degrees.
pub(crate) fn replay_warp(lanes: &[Vec<Op>], config: &GpuConfig) -> WarpStats {
    match config.timing {
        crate::config::TimingModel::SimdLockstep => replay_lockstep(lanes, config),
        crate::config::TimingModel::IdealMimd => replay_mimd(lanes, config),
    }
}

fn replay_lockstep(lanes: &[Vec<Op>], config: &GpuConfig) -> WarpStats {
    let steps = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut stats = WarpStats {
        steps: steps as u64,
        ..WarpStats::default()
    };
    let mut step_accesses: Vec<MemAccess> = Vec::with_capacity(config.warp_size);

    for k in 0..steps {
        step_accesses.clear();
        let mut max_compute = 0u64;
        let mut useful = 0u64;
        for lane in lanes {
            match lane.get(k) {
                Some(Op::Compute(w)) => {
                    max_compute = max_compute.max(*w);
                    useful += w;
                }
                Some(Op::Mem(a)) => {
                    step_accesses.push(*a);
                    useful += 1;
                }
                None => {}
            }
        }

        let mut step_weight = 0u64;
        if max_compute > 0 {
            stats.cycles += max_compute * config.cost.compute_cycles;
            step_weight += max_compute;
        }
        if !step_accesses.is_empty() {
            let (tx, atomics) = coalesce_transactions(&step_accesses, config.cacheline_bytes);
            stats.cycles +=
                tx * config.cost.mem_transaction_cycles + atomics * config.cost.atomic_extra_cycles;
            stats.mem_transactions += tx;
            stats.atomic_ops += atomics;
            step_weight = step_weight.max(1);
        }

        stats.useful_slots += useful;
        stats.issued_slots += config.warp_size as u64 * step_weight;
    }
    stats
}

/// The MIMD ablation: no lockstep — useful work is spread evenly over
/// the lanes, memory still pays per-access transactions (no warp-level
/// coalescing opportunity either; each access is its own transaction).
fn replay_mimd(lanes: &[Vec<Op>], config: &GpuConfig) -> WarpStats {
    let mut stats = WarpStats::default();
    let mut compute = 0u64;
    for lane in lanes {
        for op in lane {
            match op {
                Op::Compute(w) => {
                    compute += w;
                    stats.useful_slots += w;
                }
                Op::Mem(a) => {
                    stats.mem_transactions += 1;
                    if a.kind == crate::memory::AccessKind::Atomic {
                        stats.atomic_ops += 1;
                    }
                    stats.useful_slots += 1;
                }
            }
        }
        stats.steps = stats.steps.max(lane.len() as u64);
    }
    stats.issued_slots = stats.useful_slots;
    stats.cycles = compute.div_ceil(config.warp_size as u64) * config.cost.compute_cycles
        + stats.mem_transactions.div_ceil(config.warp_size as u64)
            * config.cost.mem_transaction_cycles
        + stats.atomic_ops * config.cost.atomic_extra_cycles / config.warp_size.max(1) as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AccessKind;

    fn cfg() -> GpuConfig {
        GpuConfig::tiny() // warp 4, line 16, mem 4 cyc, atomic +2, compute 1
    }

    fn compute(w: u64) -> Op {
        Op::Compute(w)
    }

    fn load(addr: u64) -> Op {
        Op::Mem(MemAccess::load4(addr))
    }

    #[test]
    fn empty_warp_has_zero_stats() {
        let stats = replay_warp(&[vec![], vec![], vec![], vec![]], &cfg());
        assert_eq!(stats, WarpStats::default());
    }

    #[test]
    fn balanced_compute_is_fully_efficient() {
        let lanes = vec![vec![compute(3)]; 4];
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.cycles, 3);
        assert_eq!(s.useful_slots, 12);
        assert_eq!(s.issued_slots, 12);
    }

    #[test]
    fn divergent_compute_wastes_slots() {
        // One lane does 8 instructions, three do 1: SIMD runs 8 steps.
        let lanes = vec![
            vec![compute(8)],
            vec![compute(1)],
            vec![compute(1)],
            vec![compute(1)],
        ];
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.cycles, 8);
        assert_eq!(s.useful_slots, 11);
        assert_eq!(s.issued_slots, 4 * 8);
        assert!((s.useful_slots as f64 / s.issued_slots as f64) < 0.5);
    }

    #[test]
    fn trailing_idle_lanes_count_as_issued() {
        // Lane 0 has two steps; others have one.
        let lanes = vec![
            vec![compute(1), compute(1)],
            vec![compute(1)],
            vec![compute(1)],
            vec![compute(1)],
        ];
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.steps, 2);
        assert_eq!(s.useful_slots, 5);
        assert_eq!(s.issued_slots, 8);
    }

    #[test]
    fn coalesced_loads_cost_one_transaction() {
        let lanes: Vec<Vec<Op>> = (0..4u64).map(|i| vec![load(i * 4)]).collect();
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.mem_transactions, 1);
        assert_eq!(s.cycles, 4); // one transaction at 4 cycles
    }

    #[test]
    fn strided_loads_cost_one_transaction_each() {
        let lanes: Vec<Vec<Op>> = (0..4u64).map(|i| vec![load(i * 64)]).collect();
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.mem_transactions, 4);
        assert_eq!(s.cycles, 16);
    }

    #[test]
    fn atomics_add_surcharge() {
        let lanes = vec![vec![Op::Mem(MemAccess {
            addr: 0,
            bytes: 4,
            kind: AccessKind::Atomic,
        })]];
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.cycles, 4 + 2);
    }

    #[test]
    fn mimd_ablation_has_no_lockstep_waste() {
        let mut cfg = cfg();
        cfg.timing = crate::config::TimingModel::IdealMimd;
        // Wildly skewed lanes: MIMD shares the work perfectly.
        let lanes = vec![
            vec![compute(97)],
            vec![compute(1)],
            vec![compute(1)],
            vec![compute(1)],
        ];
        let s = replay_warp(&lanes, &cfg);
        assert_eq!(s.useful_slots, 100);
        assert_eq!(s.issued_slots, 100, "no idle slots under MIMD");
        assert_eq!(s.cycles, 25, "100 instructions over 4 lanes");
        // Under lockstep the same trace costs 97 cycles.
        let lockstep = replay_lockstep(&lanes, &GpuConfig::tiny());
        assert_eq!(lockstep.cycles, 97);
    }

    #[test]
    fn mimd_counts_memory_per_access() {
        let mut cfg = cfg();
        cfg.timing = crate::config::TimingModel::IdealMimd;
        let lanes: Vec<Vec<Op>> = (0..4u64).map(|i| vec![load(i * 4)]).collect();
        let s = replay_warp(&lanes, &cfg);
        assert_eq!(s.mem_transactions, 4, "no coalescing under MIMD");
    }

    #[test]
    fn mixed_step_charges_compute_and_memory() {
        // Step 0 has one compute lane and one memory lane (divergence).
        let lanes = vec![vec![compute(2)], vec![load(0)], vec![], vec![]];
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.cycles, 2 + 4);
        assert_eq!(s.useful_slots, 3);
        // Step weight = max(compute weight, 1 for mem) = 2.
        assert_eq!(s.issued_slots, 8);
    }
}
