//! Device-memory budget tracking.
//!
//! Table 4 of the paper shows CuSha and Gunrock running out of the Quadro
//! P4000's 8 GB on the two largest graphs, while Tigr-V+ and MW fit.
//! Frameworks in this reproduction declare their allocations against a
//! [`DeviceMemory`] budget so the same OOM behaviour emerges at analog
//! scale.

use std::error::Error as StdError;
use std::fmt;

/// Error returned when an allocation exceeds the remaining device budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the failed allocation requested.
    pub requested: u64,
    /// Bytes that were still available.
    pub available: u64,
    /// Total device capacity.
    pub capacity: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes with {} of {} available",
            self.requested, self.available, self.capacity
        )
    }
}

impl StdError for OutOfMemory {}

/// A simulated device-memory arena with a fixed byte budget.
///
/// # Example
///
/// ```
/// use tigr_sim::DeviceMemory;
///
/// let mut mem = DeviceMemory::new(1024);
/// mem.alloc(1000)?;
/// assert!(mem.alloc(100).is_err());
/// mem.free(500);
/// assert!(mem.alloc(100).is_ok());
/// # Ok::<(), tigr_sim::OutOfMemory>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    peak: u64,
}

impl DeviceMemory {
    /// Creates a budget of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// The paper's device: 8 GB.
    pub fn quadro_p4000() -> Self {
        DeviceMemory::new(8 * 1024 * 1024 * 1024)
    }

    /// A budget scaled by the analog's size fraction: `8 GB / denominator`,
    /// preserving the graph-size-to-memory ratio that produces Table 4's
    /// OOM entries.
    pub fn scaled(denominator: u64) -> Self {
        DeviceMemory::new(8 * 1024 * 1024 * 1024 / denominator.max(1))
    }

    /// Records an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if the allocation does not fit; the budget
    /// is left unchanged in that case.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        let available = self.capacity - self.used;
        if bytes > available {
            return Err(OutOfMemory {
                requested: bytes,
                available,
                capacity: self.capacity,
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Records a free. Saturates at zero (double-frees are a framework
    /// accounting bug, not a simulator crash).
    pub fn free(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// High-water mark of allocations.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes remaining.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = DeviceMemory::new(100);
        m.alloc(60).unwrap();
        assert_eq!(m.used(), 60);
        assert_eq!(m.available(), 40);
        m.free(10);
        assert_eq!(m.used(), 50);
        assert_eq!(m.peak(), 60);
    }

    #[test]
    fn oom_reports_sizes_and_leaves_state() {
        let mut m = DeviceMemory::new(100);
        m.alloc(90).unwrap();
        let err = m.alloc(20).unwrap_err();
        assert_eq!(err.requested, 20);
        assert_eq!(err.available, 10);
        assert_eq!(err.capacity, 100);
        assert_eq!(m.used(), 90, "failed alloc must not change usage");
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn free_saturates() {
        let mut m = DeviceMemory::new(10);
        m.free(5);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn p4000_has_8gb() {
        assert_eq!(DeviceMemory::quadro_p4000().capacity(), 8 << 30);
    }

    #[test]
    fn scaled_budget_divides_capacity() {
        assert_eq!(DeviceMemory::scaled(64).capacity(), (8 << 30) / 64);
        assert_eq!(DeviceMemory::scaled(0).capacity(), 8 << 30);
    }

    #[test]
    fn zero_sized_alloc_always_fits() {
        let mut m = DeviceMemory::new(0);
        assert!(m.alloc(0).is_ok());
        assert!(m.alloc(1).is_err());
    }
}
