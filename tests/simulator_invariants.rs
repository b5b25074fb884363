//! Property-based invariants of the GPU simulator, exercised through
//! randomly generated kernels.

use proptest::collection::vec;
use proptest::prelude::*;

use tigr_sim::{GpuConfig, GpuSimulator, TimingModel};

/// A randomly generated per-thread workload: (compute weight, number of
/// loads, load stride, issue atomic?).
type ThreadSpec = (u8, u8, u8, bool);

fn run_kernel(config: GpuConfig, specs: &[ThreadSpec]) -> tigr_sim::KernelMetrics {
    GpuSimulator::new(config).launch(specs.len(), |tid, lane| {
        let (weight, loads, stride, atomic) = specs[tid];
        lane.compute(weight as u64);
        for i in 0..loads as u64 {
            lane.load(tid as u64 * 4 + i * (stride as u64 + 1) * 4, 4);
        }
        if atomic {
            lane.atomic(0x9000_0000 + (tid as u64 % 16) * 4, 4);
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn efficiency_is_a_valid_fraction(specs in vec(any::<ThreadSpec>(), 0..300)) {
        let m = run_kernel(GpuConfig::default(), &specs);
        let eff = m.warp_efficiency();
        prop_assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");
        prop_assert!(m.instructions <= m.issued_slots.max(m.instructions));
    }

    #[test]
    fn cycles_never_below_launch_overhead(specs in vec(any::<ThreadSpec>(), 0..100)) {
        let cfg = GpuConfig::default();
        let m = run_kernel(cfg, &specs);
        prop_assert!(m.cycles >= cfg.cost.kernel_launch_cycles);
    }

    #[test]
    fn mimd_is_never_slower_than_lockstep(specs in vec(any::<ThreadSpec>(), 0..200)) {
        let lockstep = run_kernel(GpuConfig::default(), &specs);
        let mimd = run_kernel(
            GpuConfig { timing: TimingModel::IdealMimd, ..GpuConfig::default() },
            &specs,
        );
        // Identical useful work, but MIMD wastes no slots...
        prop_assert_eq!(mimd.instructions, lockstep.instructions);
        prop_assert!(mimd.warp_efficiency() >= lockstep.warp_efficiency() - 1e-12);
    }

    #[test]
    fn instructions_equal_total_declared_work(specs in vec(any::<ThreadSpec>(), 0..200)) {
        let m = run_kernel(GpuConfig::default(), &specs);
        let expect: u64 = specs
            .iter()
            .map(|&(w, loads, _, atomic)| w as u64 + loads as u64 + atomic as u64)
            .sum();
        prop_assert_eq!(m.instructions, expect);
    }

    #[test]
    fn warp_count_matches_grid(n in 0usize..5000) {
        let sim = GpuSimulator::new(GpuConfig::default());
        let m = sim.launch(n, |_, lane| lane.compute(1));
        prop_assert_eq!(m.warps as usize, n.div_ceil(32));
    }

    #[test]
    fn coalesced_never_costs_more_transactions_than_strided(
        lanes in 1usize..64,
        accesses in 1u8..8,
    ) {
        let sim = GpuSimulator::new(GpuConfig::default());
        let coalesced = sim.launch(lanes, |tid, lane| {
            for i in 0..accesses as u64 {
                lane.load((tid as u64 + i * lanes as u64) * 4, 4);
            }
        });
        let strided = sim.launch(lanes, |tid, lane| {
            for i in 0..accesses as u64 {
                lane.load((tid as u64 * 1024) + i * 4096, 4);
            }
        });
        prop_assert!(coalesced.mem_transactions <= strided.mem_transactions);
    }
}
