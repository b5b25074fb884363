//! Memory-access modeling and coalescing.
//!
//! On real GPUs, the loads and stores a warp issues in one SIMD step are
//! serviced in units of aligned cache-line segments (128 bytes on the
//! paper's hardware). If the 32 lanes touch 32 consecutive 4-byte words,
//! one transaction suffices; if they stride across the edge array — the
//! pattern §4.4 identifies in the naive virtual layout — each lane costs
//! its own transaction. Edge-array coalescing exists precisely to reduce
//! this number.

/// Kind of a memory access, determining its simulated cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain load.
    Load,
    /// Plain store.
    Store,
    /// Atomic read-modify-write (e.g. the `atomicMin` of Algorithm 2);
    /// costs a transaction plus the atomic surcharge.
    Atomic,
}

/// One memory access issued by one lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Simulated byte address.
    pub addr: u64,
    /// Access width in bytes (4 for the engine's node ids and values).
    pub bytes: u64,
    /// Access kind.
    pub kind: AccessKind,
}

impl MemAccess {
    /// Convenience constructor for a 4-byte load.
    pub fn load4(addr: u64) -> Self {
        MemAccess {
            addr,
            bytes: 4,
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a 4-byte atomic RMW.
    pub fn atomic4(addr: u64) -> Self {
        MemAccess {
            addr,
            bytes: 4,
            kind: AccessKind::Atomic,
        }
    }
}

/// Counts the aligned cache-line transactions needed to service the
/// accesses a warp issued in one lockstep step.
///
/// Accesses are grouped by the aligned segments `[k·line, (k+1)·line)`
/// they touch; each distinct segment costs one transaction, mirroring the
/// hardware's global-memory coalescer. Returns `(transactions, atomics)`
/// where `atomics` is the number of atomic accesses (each also counted in
/// `transactions`' segments but carrying an extra surcharge; concurrent
/// atomics to the same segment still serialize their RMW part, hence they
/// are tallied per access, not per segment).
///
/// The simulator's warp replay counts every step through the same
/// coalescer, so this is the one definition of a transaction count.
///
/// # Panics
///
/// Panics if `cacheline_bytes` is not a power of two — the rule
/// [`GpuConfig::validate`](crate::GpuConfig::validate) enforces, which
/// makes a segment `addr >> log2(line)`.
///
/// # Example
///
/// ```
/// use tigr_sim::{coalesce_transactions, MemAccess};
///
/// // Four consecutive words in one 128-byte line: one transaction.
/// let accesses: Vec<MemAccess> = (0..4).map(|i| MemAccess::load4(i * 4)).collect();
/// assert_eq!(coalesce_transactions(&accesses, 128).0, 1);
///
/// // The same four words strided 128 bytes apart: four transactions.
/// let strided: Vec<MemAccess> = (0..4).map(|i| MemAccess::load4(i * 128)).collect();
/// assert_eq!(coalesce_transactions(&strided, 128).0, 4);
/// ```
pub fn coalesce_transactions(accesses: &[MemAccess], cacheline_bytes: u64) -> (u64, u64) {
    let mut coalescer = Coalescer::new(cacheline_bytes);
    let mut step = coalescer.step();
    for a in accesses {
        step.push(a);
    }
    step.finish().unwrap_or((0, 0))
}

/// The buffer behind [`coalesce_transactions`]: a step's segments, kept
/// from one step to the next so a step allocates nothing once the largest
/// has been seen.
#[derive(Debug)]
pub(crate) struct Coalescer {
    line_shift: u32,
    segments: Vec<u64>,
}

impl Coalescer {
    /// A coalescer for `cacheline_bytes`-byte segments.
    ///
    /// # Panics
    ///
    /// Panics if `cacheline_bytes` is not a power of two.
    pub(crate) fn new(cacheline_bytes: u64) -> Self {
        assert!(
            cacheline_bytes.is_power_of_two(),
            "cache line must be a power of two"
        );
        Coalescer {
            line_shift: cacheline_bytes.trailing_zeros(),
            segments: Vec::new(),
        }
    }

    /// Starts coalescing one step's accesses.
    #[inline]
    pub(crate) fn step(&mut self) -> Step<'_> {
        Step {
            line_shift: self.line_shift,
            coalescer: self,
            last: None,
            ascending: true,
            atomics: 0,
        }
    }

    /// Pushes the segments `from..=last` of an access that straddles
    /// lines: out of line, so the one-segment path keeps its registers.
    #[cold]
    #[inline(never)]
    fn push_span(&mut self, from: u64, last: u64) {
        self.segments.extend(from..=last);
    }

    /// The distinct values in `segments`, sorted in place and counted
    /// where a value differs from its neighbour.
    fn count_unsorted(&mut self) -> u64 {
        self.segments.sort_unstable();
        1 + self
            .segments
            .windows(2)
            .filter(|pair| pair[0] != pair[1])
            .count() as u64
    }
}

/// One step's accesses being coalesced: its segments go into the
/// coalescer's buffer, the rest is kept here, where the compiler can hold
/// it in registers.
#[derive(Debug)]
pub(crate) struct Step<'c> {
    coalescer: &'c mut Coalescer,
    line_shift: u32,
    /// The last segment pushed.
    last: Option<u64>,
    /// Whether the segments pushed so far ascend.
    ascending: bool,
    atomics: u64,
}

impl Step<'_> {
    /// Adds the segments `a` touches — at least one: a zero-byte access
    /// counts as one byte — except one equal to the segment pushed just
    /// before it, which it cannot add to the count.
    #[inline]
    pub(crate) fn push(&mut self, a: &MemAccess) {
        self.atomics += u64::from(a.kind == AccessKind::Atomic);
        let first = a.addr >> self.line_shift;
        let last = (a.addr + a.bytes.max(1) - 1) >> self.line_shift;
        if let Some(prev) = self.last {
            self.ascending &= prev <= first;
        }
        let repeat = self.last == Some(first);
        if first == last {
            if !repeat {
                self.coalescer.segments.push(first);
            }
        } else {
            self.coalescer.push_span(first + u64::from(repeat), last);
        }
        self.last = Some(last);
    }

    /// `(transactions, atomics)` of the step, `None` if it pushed no
    /// access: the distinct segments pushed — their number if they ascend
    /// (no two equal ones are neighbours), else counted after a sort —
    /// and the atomic accesses.
    #[inline]
    pub(crate) fn finish(self) -> Option<(u64, u64)> {
        self.last?;
        let coalescer = self.coalescer;
        let distinct = if self.ascending {
            coalescer.segments.len() as u64
        } else {
            coalescer.count_unsorted()
        };
        coalescer.segments.clear();
        Some((distinct, self.atomics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_warp_step_costs_nothing() {
        assert_eq!(coalesce_transactions(&[], 128), (0, 0));
    }

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        let acc: Vec<_> = (0..32u64).map(|i| MemAccess::load4(4096 + i * 4)).collect();
        assert_eq!(coalesce_transactions(&acc, 128).0, 1);
    }

    #[test]
    fn strided_warp_costs_one_per_lane() {
        let acc: Vec<_> = (0..32u64).map(|i| MemAccess::load4(i * 256)).collect();
        assert_eq!(coalesce_transactions(&acc, 128).0, 32);
    }

    #[test]
    fn stride_of_k_words_costs_proportionally() {
        // 32 lanes, stride 10 words (K=10 in the naive virtual layout):
        // lanes span 32*40 = 1280 bytes = 10 lines.
        let acc: Vec<_> = (0..32u64).map(|i| MemAccess::load4(i * 40)).collect();
        let (tx, _) = coalesce_transactions(&acc, 128);
        assert_eq!(tx, 10);
    }

    #[test]
    fn duplicate_addresses_collapse() {
        let acc = vec![
            MemAccess::load4(0),
            MemAccess::load4(0),
            MemAccess::load4(4),
        ];
        assert_eq!(coalesce_transactions(&acc, 128).0, 1);
    }

    #[test]
    fn access_straddling_lines_counts_both() {
        let acc = vec![MemAccess {
            addr: 126,
            bytes: 8,
            kind: AccessKind::Load,
        }];
        assert_eq!(coalesce_transactions(&acc, 128).0, 2);
    }

    #[test]
    fn atomics_are_tallied_per_access() {
        let acc = vec![
            MemAccess::atomic4(0),
            MemAccess::atomic4(4),
            MemAccess::load4(8),
        ];
        let (tx, atomics) = coalesce_transactions(&acc, 128);
        assert_eq!(tx, 1);
        assert_eq!(atomics, 2);
    }

    #[test]
    fn misaligned_base_still_groups_by_segment() {
        // Two words in the same 16-byte segment despite odd bases:
        // 17..21 and 21..25 both lie inside [16, 32).
        let acc = vec![MemAccess::load4(17), MemAccess::load4(21)];
        assert_eq!(coalesce_transactions(&acc, 16).0, 1);
    }

    #[test]
    fn a_step_starts_empty_after_the_last() {
        let mut c = Coalescer::new(16);
        let mut step = c.step();
        step.push(&MemAccess::atomic4(40));
        step.push(&MemAccess::load4(0));
        step.push(&MemAccess::load4(40));
        assert_eq!(step.finish(), Some((2, 1)));
        assert_eq!(c.step().finish(), None);
        let mut step = c.step();
        step.push(&MemAccess::load4(8));
        assert_eq!(step.finish(), Some((1, 0)));
    }

    #[test]
    fn unsorted_steps_count_each_segment_once() {
        let mut c = Coalescer::new(128);
        for round in 0..3u64 {
            let mut step = c.step();
            for i in (0..200u64).rev() {
                step.push(&MemAccess::load4((i % 50) * 128 + round));
            }
            assert_eq!(step.finish(), Some((50, 0)));
        }
    }

    #[test]
    #[should_panic(expected = "cache line must be a power of two")]
    fn non_power_of_two_line_rejected() {
        coalesce_transactions(&[MemAccess::load4(0)], 96);
    }
}
