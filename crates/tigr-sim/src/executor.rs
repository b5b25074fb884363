//! Kernel launch machinery: grids, lanes, and SM accounting.

use std::num::NonZeroUsize;

use crate::config::GpuConfig;
use crate::memory::{AccessKind, MemAccess};
use crate::metrics::KernelMetrics;
use crate::warp::WarpReplay;

/// One operation recorded by a lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// `n` back-to-back arithmetic/control instructions.
    Compute(u64),
    /// One memory access.
    Mem(MemAccess),
}

/// Recording handle passed to a kernel closure: the simulated "thread".
///
/// The kernel does its real work on host data and mirrors each costed
/// action onto the lane: [`Lane::compute`] for arithmetic, and the
/// load/store/atomic methods for memory traffic with *simulated* byte
/// addresses (see [`GpuSimulator::launch`]).
#[derive(Debug, Default)]
pub struct Lane {
    /// The traces of the warp's lanes recorded so far, back to back.
    ops: Vec<Op>,
    /// Where this lane's trace starts in `ops`.
    start: usize,
}

impl Lane {
    /// Records `n` arithmetic/control instructions.
    ///
    /// Consecutive `compute` calls fuse into one lockstep step of weight
    /// `n₁ + n₂`; memory accesses break the fusion, which keeps lanes with
    /// identical control flow aligned step-for-step.
    #[inline]
    pub fn compute(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(Op::Compute(w)) = self.ops[self.start..].last_mut() {
            *w += n;
        } else {
            self.ops.push(Op::Compute(n));
        }
    }

    /// Records a load of `bytes` bytes at simulated address `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64, bytes: u64) {
        self.ops.push(Op::Mem(MemAccess {
            addr,
            bytes,
            kind: AccessKind::Load,
        }));
    }

    /// Records a store of `bytes` bytes at simulated address `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, bytes: u64) {
        self.ops.push(Op::Mem(MemAccess {
            addr,
            bytes,
            kind: AccessKind::Store,
        }));
    }

    /// Records an atomic read-modify-write (e.g. `atomicMin`) at `addr`.
    #[inline]
    pub fn atomic(&mut self, addr: u64, bytes: u64) {
        self.ops.push(Op::Mem(MemAccess {
            addr,
            bytes,
            kind: AccessKind::Atomic,
        }));
    }

    /// Number of operations this lane has recorded so far.
    pub fn len(&self) -> usize {
        self.ops.len() - self.start
    }

    /// `true` if this lane has recorded no operation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[cfg(test)]
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops[self.start..]
    }
}

/// The simulated GPU: launches kernels over thread grids and accounts
/// their cost under the configured [`GpuConfig`].
#[derive(Clone, Debug)]
pub struct GpuSimulator {
    config: GpuConfig,
    host_threads: usize,
}

impl GpuSimulator {
    /// Creates a simulator for the given device configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` is structurally invalid (see
    /// [`GpuConfig::validate`]).
    pub fn new(config: GpuConfig) -> Self {
        config.validate();
        GpuSimulator {
            config,
            host_threads: 1,
        }
    }

    /// Creates a simulator that replays warps on all available host cores.
    ///
    /// The aggregation itself is order-independent (sums and maxima
    /// commute), so a kernel whose per-lane traces do not depend on
    /// cross-thread races produces metrics identical to sequential
    /// replay. Kernels with racy side effects (e.g. "first thread to
    /// claim a node logs the enqueue") keep exact *results* for monotone
    /// programs, but their traces are not the sequential replay's, and
    /// the difference is not small: the engine's relax kernels spread by
    /// 0.186 and 0.223 of their cycles over repeated runs in two of four
    /// traced benchmark runs (`sim.parallel_cycle_drift`). Making both
    /// replays one semantics is ROADMAP item 12.
    pub fn new_parallel(config: GpuConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(config).with_host_threads(threads)
    }

    /// Sets the number of host threads used to replay warps.
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Launches `kernel` over a grid of `num_threads` threads and returns
    /// the aggregated metrics.
    ///
    /// The kernel closure receives the thread id and a [`Lane`] recorder.
    /// Threads are grouped into warps of `config.warp_size`; warps are
    /// assigned round-robin to SMs; the kernel's cycle count is the
    /// busiest SM's total plus the fixed launch overhead.
    ///
    /// When the simulator was built with multiple host threads, warps are
    /// replayed concurrently. The kernel must then tolerate concurrent
    /// execution (use atomics for shared host data) — the same discipline
    /// real CUDA kernels need.
    pub fn launch<F>(&self, num_threads: usize, kernel: F) -> KernelMetrics
    where
        F: Fn(usize, &mut Lane) + Sync,
    {
        let ws = self.config.warp_size;
        let num_warps = num_threads.div_ceil(ws);
        let mut metrics = if self.host_threads <= 1 || num_warps < 2 {
            self.run_warp_range(0, num_warps, num_threads, &kernel)
        } else {
            let workers = self.host_threads.min(num_warps);
            let chunk = num_warps.div_ceil(workers);
            let mut partials: Vec<KernelMetrics> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for w in 0..workers {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(num_warps);
                    let kernel = &kernel;
                    handles.push(
                        scope.spawn(move || self.run_warp_range(lo, hi, num_threads, kernel)),
                    );
                }
                for h in handles {
                    partials.push(h.join().expect("simulator worker panicked"));
                }
            });
            let mut total = KernelMetrics {
                sm_cycles: vec![0; self.config.num_sms],
                ..KernelMetrics::default()
            };
            for p in &partials {
                // Partial metrics describe disjoint warp sets running in
                // the same launch: everything accumulates element-wise.
                total.instructions += p.instructions;
                total.issued_slots += p.issued_slots;
                total.mem_transactions += p.mem_transactions;
                total.atomic_ops += p.atomic_ops;
                total.warps += p.warps;
                for (a, b) in total.sm_cycles.iter_mut().zip(&p.sm_cycles) {
                    *a += b;
                }
            }
            total
        };

        metrics.cycles = metrics.sm_cycles.iter().copied().max().unwrap_or(0)
            + self.config.cost.kernel_launch_cycles;
        metrics
    }

    fn run_warp_range<F>(
        &self,
        warp_lo: usize,
        warp_hi: usize,
        num_threads: usize,
        kernel: &F,
    ) -> KernelMetrics
    where
        F: Fn(usize, &mut Lane) + Sync,
    {
        let ws = self.config.warp_size;
        let mut metrics = KernelMetrics {
            sm_cycles: vec![0; self.config.num_sms],
            ..KernelMetrics::default()
        };
        // One warp's lanes record back to back into `recorder.ops`; lane
        // `i`'s trace ends at `ends[i]`.
        let mut recorder = Lane::default();
        let mut ends: Vec<usize> = Vec::with_capacity(ws);
        let mut replay = WarpReplay::new(&self.config);

        for warp in warp_lo..warp_hi {
            recorder.ops.clear();
            ends.clear();
            for tid in warp * ws..((warp + 1) * ws).min(num_threads) {
                recorder.start = recorder.ops.len();
                kernel(tid, &mut recorder);
                ends.push(recorder.ops.len());
            }
            let stats = replay.replay(&recorder.ops, &ends);
            metrics.warps += 1;
            metrics.instructions += stats.useful_slots;
            metrics.issued_slots += stats.issued_slots;
            metrics.mem_transactions += stats.mem_transactions;
            metrics.atomic_ops += stats.atomic_ops;
            // Round-robin warp-to-SM assignment.
            metrics.sm_cycles[warp % self.config.num_sms] += stats.cycles;
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sim() -> GpuSimulator {
        GpuSimulator::new(GpuConfig::tiny()) // warp 4, 2 SMs, launch 10
    }

    #[test]
    fn lane_fuses_consecutive_compute() {
        let mut lane = Lane::default();
        lane.compute(2);
        lane.compute(3);
        assert_eq!(lane.ops(), &[Op::Compute(5)]);
        lane.load(0, 4);
        lane.compute(1);
        assert_eq!(lane.len(), 3);
        assert!(!lane.is_empty());
    }

    #[test]
    fn lane_ignores_zero_compute() {
        let mut lane = Lane::default();
        lane.compute(0);
        assert!(lane.is_empty());
    }

    #[test]
    fn lane_does_not_fuse_into_the_previous_lanes_trace() {
        let mut lane = Lane::default();
        lane.compute(2);
        lane.start = lane.ops.len();
        assert!(lane.is_empty());
        lane.compute(3);
        assert_eq!(lane.ops(), &[Op::Compute(3)]);
        assert_eq!(lane.len(), 1);
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let m = sim().launch(0, |_, _| {});
        assert_eq!(m.cycles, 10);
        assert_eq!(m.warps, 0);
        assert_eq!(m.instructions, 0);
    }

    #[test]
    fn uniform_kernel_is_fully_efficient() {
        let m = sim().launch(8, |_, lane| lane.compute(5));
        assert_eq!(m.warps, 2);
        assert_eq!(m.instructions, 40);
        assert_eq!(m.issued_slots, 40);
        assert!((m.warp_efficiency() - 1.0).abs() < 1e-12);
        // 2 warps on 2 SMs, 5 cycles each: busiest SM = 5, +10 launch.
        assert_eq!(m.cycles, 15);
    }

    #[test]
    fn partial_last_warp_reduces_efficiency() {
        // 5 threads in warps of 4: second warp has 3 idle lanes.
        let m = sim().launch(5, |_, lane| lane.compute(1));
        assert_eq!(m.warps, 2);
        assert_eq!(m.instructions, 5);
        assert_eq!(m.issued_slots, 8);
    }

    #[test]
    fn skewed_kernel_has_low_efficiency_and_high_sm_imbalance() {
        // Thread 0 does 100 instructions; others do 1. All heavy work in
        // warp 0 -> SM 0.
        let m = sim().launch(8, |tid, lane| lane.compute(if tid == 0 { 100 } else { 1 }));
        assert!(m.warp_efficiency() < 0.4, "eff = {}", m.warp_efficiency());
        assert!(m.sm_imbalance() > 1.5, "imbalance = {}", m.sm_imbalance());
    }

    #[test]
    fn kernel_side_effects_actually_execute() {
        let counter = AtomicU64::new(0);
        let m = sim().launch(10, |tid, lane| {
            counter.fetch_add(tid as u64, Ordering::Relaxed);
            lane.compute(1);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 45);
        assert_eq!(m.instructions, 10);
    }

    #[test]
    fn parallel_replay_matches_sequential_metrics() {
        let kernel = |tid: usize, lane: &mut Lane| {
            lane.compute((tid % 7) as u64 + 1);
            lane.load((tid as u64) * 4, 4);
            if tid.is_multiple_of(3) {
                lane.atomic(1024 + (tid as u64 % 5) * 4, 4);
            }
        };
        let seq = sim().launch(1000, kernel);
        let par = sim().with_host_threads(4).launch(1000, kernel);
        assert_eq!(seq, par);
    }

    #[test]
    fn round_robin_sm_assignment() {
        // 4 warps on 2 SMs: warps 0,2 -> SM0; 1,3 -> SM1.
        let m = sim().launch(16, |_, lane| lane.compute(3));
        assert_eq!(m.sm_cycles, vec![6, 6]);
    }

    #[test]
    fn coalesced_vs_strided_loads_differ_in_cycles() {
        let coalesced = sim().launch(4, |tid, lane| lane.load(tid as u64 * 4, 4));
        let strided = sim().launch(4, |tid, lane| lane.load(tid as u64 * 64, 4));
        assert!(strided.cycles > coalesced.cycles);
        assert_eq!(coalesced.mem_transactions, 1);
        assert_eq!(strided.mem_transactions, 4);
    }

    #[test]
    fn new_parallel_constructs() {
        let sim = GpuSimulator::new_parallel(GpuConfig::tiny());
        let m = sim.launch(100, |_, lane| lane.compute(1));
        assert_eq!(m.instructions, 100);
    }
}
