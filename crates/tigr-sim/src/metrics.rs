//! Execution metrics: the simulator's analog of a GPU profiler.

/// Aggregate metrics of one simulated kernel launch.
///
/// The fields correspond to the profiler counters the paper reports in
/// Table 8: total executed instructions, warp execution efficiency, and
/// the cycle count that stands in for wall-clock time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelMetrics {
    /// Simulated cycles: busiest-SM total plus launch overhead.
    pub cycles: u64,
    /// Useful lane-slots executed (the paper's `#instr.`): compute
    /// operations weighted by their instruction count plus one per memory
    /// access.
    pub instructions: u64,
    /// Lane-slots *issued*, including idle lanes kept in lockstep
    /// (`warp_size × Σ per-step max-weight`). The denominator of warp
    /// efficiency.
    pub issued_slots: u64,
    /// Memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Atomic operations executed.
    pub atomic_ops: u64,
    /// Number of warps launched.
    pub warps: u64,
    /// Per-SM accumulated cycles (length = configured SM count).
    pub sm_cycles: Vec<u64>,
}

impl KernelMetrics {
    /// Warp execution efficiency in `[0, 1]`: the fraction of issued SIMD
    /// lane-slots doing useful work (Table 8's `warp effi.`).
    ///
    /// Returns `1.0` for an empty launch.
    pub fn warp_efficiency(&self) -> f64 {
        if self.issued_slots == 0 {
            1.0
        } else {
            self.instructions as f64 / self.issued_slots as f64
        }
    }

    /// Cycle imbalance across SMs: busiest-SM cycles over mean cycles.
    /// `1.0` means perfectly balanced; large values indicate inter-warp
    /// load imbalance (§2.3).
    pub fn sm_imbalance(&self) -> f64 {
        if self.sm_cycles.is_empty() {
            return 1.0;
        }
        let max = *self.sm_cycles.iter().max().unwrap() as f64;
        let sum: u64 = self.sm_cycles.iter().sum();
        let mean = sum as f64 / self.sm_cycles.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Accumulates `other` into `self` (SM cycles add element-wise;
    /// kernels run back-to-back, so total cycles add).
    pub fn merge(&mut self, other: &KernelMetrics) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.issued_slots += other.issued_slots;
        self.mem_transactions += other.mem_transactions;
        self.atomic_ops += other.atomic_ops;
        self.warps += other.warps;
        if self.sm_cycles.len() < other.sm_cycles.len() {
            self.sm_cycles.resize(other.sm_cycles.len(), 0);
        }
        for (a, b) in self.sm_cycles.iter_mut().zip(&other.sm_cycles) {
            *a += b;
        }
    }
}

/// Metrics of one BSP iteration of a graph algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationTrace {
    /// Iteration index, starting at 0.
    pub iteration: usize,
    /// The thread count the driver records for the iteration, not a sum
    /// of its launches. A full sweep records its grid: rows × width,
    /// virtual nodes or edge blocks. A sparse-worklist push records the
    /// frontier's length whatever it launched: over a virtual overlay,
    /// a compaction plus one thread per family member; over edge blocks,
    /// a full sweep of ⌈|E|/K⌉ threads.
    pub threads: usize,
    /// Kernel metrics of this iteration.
    pub metrics: KernelMetrics,
}

/// Full execution report of a multi-iteration graph-algorithm run: what
/// the engine returns alongside the computed values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// One trace per BSP iteration, in order.
    pub iterations: Vec<IterationTrace>,
}

impl SimReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        SimReport::default()
    }

    /// Appends an iteration trace.
    pub fn push(&mut self, threads: usize, metrics: KernelMetrics) {
        self.iterations.push(IterationTrace {
            iteration: self.iterations.len(),
            threads,
            metrics,
        });
    }

    /// Number of iterations executed (Table 8's `#iter`).
    pub fn num_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Sum of all iterations' metrics.
    pub fn total(&self) -> KernelMetrics {
        let mut total = KernelMetrics::default();
        for it in &self.iterations {
            total.merge(&it.metrics);
        }
        total
    }

    /// Total simulated cycles across iterations.
    pub fn total_cycles(&self) -> u64 {
        self.iterations.iter().map(|i| i.metrics.cycles).sum()
    }

    /// Mean cycles per iteration (Table 8's `time / iter.`), `0.0` when
    /// empty.
    pub fn cycles_per_iteration(&self) -> f64 {
        if self.iterations.is_empty() {
            0.0
        } else {
            self.total_cycles() as f64 / self.iterations.len() as f64
        }
    }

    /// Aggregate warp efficiency over the whole run.
    pub fn warp_efficiency(&self) -> f64 {
        self.total().warp_efficiency()
    }

    /// Writes the per-iteration metrics as CSV (header + one row per
    /// iteration), for plotting outside the harness.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    ///
    /// # Example
    ///
    /// ```
    /// # use tigr_sim::{KernelMetrics, SimReport};
    /// let mut report = SimReport::new();
    /// report.push(8, KernelMetrics::default());
    /// let mut csv = Vec::new();
    /// report.write_csv(&mut csv)?;
    /// let text = String::from_utf8(csv).unwrap();
    /// assert!(text.starts_with("iteration,threads,cycles"));
    /// assert_eq!(text.lines().count(), 2);
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn write_csv<W: std::io::Write>(&self, mut out: W) -> std::io::Result<()> {
        writeln!(
            out,
            "iteration,threads,cycles,instructions,issued_slots,mem_transactions,atomic_ops,warps,warp_efficiency"
        )?;
        for it in &self.iterations {
            let m = &it.metrics;
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{:.6}",
                it.iteration,
                it.threads,
                m.cycles,
                m.instructions,
                m.issued_slots,
                m.mem_transactions,
                m.atomic_ops,
                m.warps,
                m.warp_efficiency()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycles: u64, instr: u64, issued: u64) -> KernelMetrics {
        KernelMetrics {
            cycles,
            instructions: instr,
            issued_slots: issued,
            mem_transactions: 5,
            atomic_ops: 2,
            warps: 1,
            sm_cycles: vec![cycles, 0],
        }
    }

    #[test]
    fn efficiency_is_useful_over_issued() {
        let m = sample(10, 50, 100);
        assert!((m.warp_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_launch_is_fully_efficient() {
        assert_eq!(KernelMetrics::default().warp_efficiency(), 1.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = sample(10, 50, 100);
        a.merge(&sample(5, 25, 50));
        assert_eq!(a.cycles, 15);
        assert_eq!(a.instructions, 75);
        assert_eq!(a.issued_slots, 150);
        assert_eq!(a.mem_transactions, 10);
        assert_eq!(a.atomic_ops, 4);
        assert_eq!(a.warps, 2);
        assert_eq!(a.sm_cycles, vec![15, 0]);
    }

    #[test]
    fn merge_grows_sm_vector() {
        let mut a = KernelMetrics::default();
        a.merge(&sample(7, 1, 1));
        assert_eq!(a.sm_cycles.len(), 2);
    }

    #[test]
    fn sm_imbalance_detects_skew() {
        let balanced = KernelMetrics {
            sm_cycles: vec![10, 10],
            ..KernelMetrics::default()
        };
        assert!((balanced.sm_imbalance() - 1.0).abs() < 1e-12);
        let skewed = KernelMetrics {
            sm_cycles: vec![20, 0],
            ..KernelMetrics::default()
        };
        assert!((skewed.sm_imbalance() - 2.0).abs() < 1e-12);
        assert_eq!(KernelMetrics::default().sm_imbalance(), 1.0);
    }

    #[test]
    fn report_aggregation() {
        let mut r = SimReport::new();
        r.push(100, sample(10, 40, 80));
        r.push(50, sample(30, 40, 40));
        assert_eq!(r.num_iterations(), 2);
        assert_eq!(r.total_cycles(), 40);
        assert!((r.cycles_per_iteration() - 20.0).abs() < 1e-12);
        assert!((r.warp_efficiency() - 80.0 / 120.0).abs() < 1e-12);
        assert_eq!(r.iterations[1].iteration, 1);
        assert_eq!(r.iterations[1].threads, 50);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut r = SimReport::new();
        r.push(100, sample(10, 40, 80));
        r.push(50, sample(30, 40, 40));
        let mut buf = Vec::new();
        r.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("iteration,threads,cycles"));
        assert!(lines[1].starts_with("0,100,10,40,80,5,2,1,0.5"));
        assert!(lines[2].starts_with("1,50,30,40,40,5,2,1,1.0"));
    }

    #[test]
    fn empty_report() {
        let r = SimReport::new();
        assert_eq!(r.num_iterations(), 0);
        assert_eq!(r.cycles_per_iteration(), 0.0);
        assert_eq!(r.warp_efficiency(), 1.0);
    }
}
