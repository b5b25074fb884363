//! Warp-lockstep replay of lane traces.

use crate::config::{GpuConfig, TimingModel};
use crate::executor::Op;
use crate::memory::{AccessKind, Coalescer};

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

/// Replays warps: the scratch one host thread reuses for every warp it
/// replays — the coalescer's segment buffer and table, and the list of
/// lanes still running — so a step allocates nothing.
///
/// A warp arrives as its lanes' traces back to back in one buffer: lane
/// `i`'s ops are `ops[ends[i - 1]..ends[i]]` (from `0` for lane 0).
#[derive(Debug)]
pub(crate) struct WarpReplay<'c> {
    config: &'c GpuConfig,
    coalescer: Coalescer,
    /// `(start, len)` in `ops` of each lane that still has an op, in lane
    /// order.
    active: Vec<(usize, usize)>,
}

impl<'c> WarpReplay<'c> {
    /// Scratch for replaying warps under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cacheline_bytes` is not a power of two.
    pub(crate) fn new(config: &'c GpuConfig) -> Self {
        WarpReplay {
            config,
            coalescer: Coalescer::new(config.cacheline_bytes),
            active: Vec::with_capacity(config.warp_size),
        }
    }

    /// Replays the per-lane traces of one warp in lockstep and returns
    /// its stats.
    ///
    /// Semantics, mirroring SIMD hardware (Figure 3 of the paper):
    ///
    /// * The warp executes `max(len(trace))` steps; at step `k`, every
    ///   lane with a `k`-th operation is active, the rest idle.
    /// * A step's *compute* component costs `max` over active compute
    ///   weights (lanes with fewer pending instructions stall).
    /// * A step's *memory* component groups all active lanes' accesses
    ///   into aligned cache-line transactions ([`coalesce_transactions`]).
    /// * Idle lanes still consume issued slots — that is precisely the
    ///   warp inefficiency Tigr removes by regularizing degrees.
    ///
    /// [`coalesce_transactions`]: crate::coalesce_transactions
    pub(crate) fn replay(&mut self, ops: &[Op], ends: &[usize]) -> WarpStats {
        self.active.clear();
        let mut start = 0;
        for &end in ends {
            if end > start {
                self.active.push((start, end - start));
            }
            start = end;
        }
        match self.config.timing {
            TimingModel::SimdLockstep => self.lockstep(ops),
            TimingModel::IdealMimd => self.mimd(ops),
        }
    }

    /// The lockstep replay at the cost of the active lanes: a step walks
    /// only the lanes that still have an op (kept in lane order, so a
    /// coalesced step's segments arrive ascending). An idle lane adds
    /// nothing to a step but its issued slots, which `charge_step` counts
    /// for the whole warp, so every count is the one stepping all lanes
    /// gives.
    fn lockstep(&mut self, ops: &[Op]) -> WarpStats {
        let WarpReplay {
            config,
            coalescer,
            active,
        } = self;
        let mut stats = WarpStats {
            steps: active.iter().map(|&(_, len)| len).max().unwrap_or(0) as u64,
            ..WarpStats::default()
        };
        let mut k = 0;
        while !active.is_empty() {
            // The active set holds until its shortest lane runs out.
            let end = active.iter().map(|&(_, len)| len).min().unwrap_or(k);
            for step in k..end {
                let mut max_compute = 0u64;
                let mut useful = 0u64;
                let mut accesses = coalescer.step();
                for &(start, _) in active.iter() {
                    match &ops[start + step] {
                        Op::Compute(w) => {
                            max_compute = max_compute.max(*w);
                            useful += w;
                        }
                        &Op::Mem(addr, bytes, kind) => {
                            accesses.push(addr, u64::from(bytes), kind);
                            useful += 1;
                        }
                    }
                }
                let memory = accesses.finish();
                charge_step(&mut stats, config, max_compute, memory, useful);
            }
            k = end;
            active.retain(|&(_, len)| len > end);
        }
        stats
    }

    /// The MIMD ablation: no lockstep — useful work is spread evenly over
    /// the lanes, memory still pays per-access transactions (no
    /// warp-level coalescing opportunity either; each access is its own
    /// transaction).
    fn mimd(&self, ops: &[Op]) -> WarpStats {
        let config = self.config;
        let mut stats = WarpStats::default();
        let mut compute = 0u64;
        for &(start, len) in &self.active {
            for op in &ops[start..start + len] {
                match op {
                    Op::Compute(w) => {
                        compute += w;
                        stats.useful_slots += w;
                    }
                    &Op::Mem(_, _, kind) => {
                        stats.mem_transactions += 1;
                        if kind == AccessKind::Atomic {
                            stats.atomic_ops += 1;
                        }
                        stats.useful_slots += 1;
                    }
                }
            }
            stats.steps = stats.steps.max(len as u64);
        }
        stats.issued_slots = stats.useful_slots;
        stats.cycles = compute.div_ceil(config.warp_size as u64) * config.cost.compute_cycles
            + stats.mem_transactions.div_ceil(config.warp_size as u64)
                * config.cost.mem_transaction_cycles
            + stats.atomic_ops * config.cost.atomic_extra_cycles / config.warp_size.max(1) as u64;
        stats
    }
}

/// Charges one lockstep step: `max_compute` is the widest compute op of
/// the active lanes, `memory` the step's coalesced `(transactions,
/// atomics)` if any lane accessed memory, `useful` the lane-slots it
/// executed. The step issues `warp_size` slots per unit of its weight.
#[inline]
fn charge_step(
    stats: &mut WarpStats,
    config: &GpuConfig,
    max_compute: u64,
    memory: Option<(u64, u64)>,
    useful: u64,
) {
    let mut step_weight = 0u64;
    if max_compute > 0 {
        stats.cycles += max_compute * config.cost.compute_cycles;
        step_weight += max_compute;
    }
    if let Some((tx, atomics)) = memory {
        stats.cycles +=
            tx * config.cost.mem_transaction_cycles + atomics * config.cost.atomic_extra_cycles;
        stats.mem_transactions += tx;
        stats.atomic_ops += atomics;
        step_weight = step_weight.max(1);
    }
    stats.useful_slots += useful;
    stats.issued_slots += config.warp_size as u64 * step_weight;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::tiny() // warp 4, line 16, mem 4 cyc, atomic +2, compute 1
    }

    fn replay_warp(lanes: &[Vec<Op>], config: &GpuConfig) -> WarpStats {
        let ops: Vec<Op> = lanes.concat();
        let ends: Vec<usize> = lanes
            .iter()
            .scan(0, |end, lane| {
                *end += lane.len();
                Some(*end)
            })
            .collect();
        WarpReplay::new(config).replay(&ops, &ends)
    }

    fn compute(w: u64) -> Op {
        Op::Compute(w)
    }

    fn load(addr: u64) -> Op {
        Op::Mem(addr, 4, AccessKind::Load)
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
        let lanes = vec![vec![Op::Mem(0, 4, AccessKind::Atomic)]];
        let s = replay_warp(&lanes, &cfg());
        assert_eq!(s.atomic_ops, 1);
        assert_eq!(s.cycles, 4 + 2);
    }

    #[test]
    fn mimd_ablation_has_no_lockstep_waste() {
        let mut cfg = cfg();
        cfg.timing = TimingModel::IdealMimd;
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
        let lockstep = replay_warp(&lanes, &GpuConfig::tiny());
        assert_eq!(lockstep.cycles, 97);
    }

    #[test]
    fn mimd_counts_memory_per_access() {
        let mut cfg = cfg();
        cfg.timing = TimingModel::IdealMimd;
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
