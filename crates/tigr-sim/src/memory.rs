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
        step.push(a.addr, a.bytes, a.kind);
    }
    step.finish().unwrap_or((0, 0))
}

/// Segments a step keeps in the coalescer's inline buffer, and the most
/// the table counts: a warp of 32 or 64 lanes fits unless some access
/// straddles lines. A step with more goes on in `spill` and is sorted.
const BUFFERED: usize = 64;
/// log2 of the slots in the coalescer's table: four per buffered segment,
/// so a probe seldom passes a taken slot. (With one slot in two taken, a
/// scattered 32-lane step counted about three times slower.)
const SLOT_BITS: u32 = 8;
/// Slots in the coalescer's table.
const SLOTS: usize = 1 << SLOT_BITS;

// A probe ends: some slot is always free.
const _: () = assert!(SLOTS > BUFFERED);

/// A slot of the coalescer's table: it holds `segment` for the step whose
/// generation is `stamp`, and is free for any other.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    stamp: u32,
    segment: u64,
}

/// The scratch behind [`coalesce_transactions`], kept from one step to the
/// next so a step allocates nothing once the largest has been seen: a
/// step's segments, and the table that counts the distinct ones when they
/// arrive out of order.
#[derive(Debug)]
pub(crate) struct Coalescer {
    line_shift: u32,
    /// A step's segments `0..BUFFERED`, inline, so pushing one loads no
    /// pointer; the [`Step`] keeps their number.
    buffer: [u64; BUFFERED],
    /// A step's segments from `BUFFERED` on.
    spill: Vec<u64>,
    /// An open-addressing set of one step's segments. Only slots stamped
    /// with `generation` are in it, so a step empties the table by taking
    /// the next generation.
    slots: [Slot; SLOTS],
    generation: u32,
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
            buffer: [0; BUFFERED],
            spill: Vec::new(),
            slots: [Slot::default(); SLOTS],
            generation: 0,
        }
    }

    /// Starts coalescing one step's accesses.
    #[inline]
    pub(crate) fn step(&mut self) -> Step<'_> {
        Step {
            line_shift: self.line_shift,
            coalescer: self,
            len: 0,
            last: None,
            ascending: true,
            atomics: 0,
        }
    }

    /// Writes the step's segment number `i`, dropping any written at `i`
    /// or past it before.
    #[inline]
    fn write(&mut self, i: usize, segment: u64) {
        if i < BUFFERED {
            self.buffer[i] = segment;
        } else {
            self.write_spill(i - BUFFERED, segment);
        }
    }

    #[cold]
    #[inline(never)]
    fn write_spill(&mut self, i: usize, segment: u64) {
        self.spill.truncate(i);
        self.spill.push(segment);
    }

    /// Writes the segments `from..=last` of an access that straddles
    /// lines as segments `len..`, and returns the step's new number of
    /// segments: out of line, so the one-segment path keeps its registers.
    #[cold]
    #[inline(never)]
    fn push_span(&mut self, mut len: usize, from: u64, last: u64) -> usize {
        for segment in from..=last {
            self.write(len, segment);
            len += 1;
        }
        len
    }

    /// The number of distinct values among the step's `len` segments:
    /// each is inserted into the table, and one that finds a free slot
    /// before its own is new. A step with more than [`BUFFERED`] is sorted
    /// and counted where a value differs from its neighbour.
    fn count_unsorted(&mut self, len: usize) -> u64 {
        if len > BUFFERED {
            let all = &mut self.spill;
            all.truncate(len - BUFFERED);
            all.extend_from_slice(&self.buffer);
            all.sort_unstable();
            return 1 + all.windows(2).filter(|pair| pair[0] != pair[1]).count() as u64;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Every stamp is some past generation: free them all before
            // the generations start over.
            self.slots = [Slot::default(); SLOTS];
            self.generation = 1;
        }
        let stamp = self.generation;
        let mut distinct = 0;
        for &segment in &self.buffer[..len] {
            let mut i = slot_of(segment);
            loop {
                let slot = &mut self.slots[i];
                if slot.stamp != stamp {
                    *slot = Slot { stamp, segment };
                    distinct += 1;
                    break;
                }
                if slot.segment == segment {
                    break;
                }
                i = (i + 1) % SLOTS;
            }
        }
        distinct
    }
}

/// The table slot where `segment`'s probe starts: the top bits of a
/// Fibonacci hash, which spreads the runs of neighbouring segments a
/// scattered step touches.
#[inline]
fn slot_of(segment: u64) -> usize {
    (segment.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOT_BITS)) as usize
}

/// One step's accesses being coalesced: its segments go into the
/// coalescer's buffer, the rest is kept here, where the compiler can hold
/// it in registers.
#[derive(Debug)]
pub(crate) struct Step<'c> {
    coalescer: &'c mut Coalescer,
    line_shift: u32,
    /// The segments written to the coalescer so far.
    len: usize,
    /// The last segment pushed.
    last: Option<u64>,
    /// Whether the segments pushed so far ascend.
    ascending: bool,
    atomics: u64,
}

impl Step<'_> {
    /// Adds the segments an access of `bytes` bytes at `addr` touches — at
    /// least one: a zero-byte access counts as one byte — except one equal
    /// to the segment pushed just before it, which it cannot add to the
    /// count.
    #[inline]
    pub(crate) fn push(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        self.atomics += u64::from(kind == AccessKind::Atomic);
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) - 1) >> self.line_shift;
        if let Some(prev) = self.last {
            self.ascending &= prev <= first;
        }
        let repeat = self.last == Some(first);
        if first == last {
            // Written either way, kept only if new: no branch on `repeat`.
            self.coalescer.write(self.len, first);
            self.len += usize::from(!repeat);
        } else {
            self.len = self
                .coalescer
                .push_span(self.len, first + u64::from(repeat), last);
        }
        self.last = Some(last);
    }

    /// `(transactions, atomics)` of the step, `None` if it pushed no
    /// access: the distinct segments pushed — their number if they ascend
    /// (no two equal ones are neighbours), else counted in the table —
    /// and the atomic accesses.
    #[inline]
    pub(crate) fn finish(self) -> Option<(u64, u64)> {
        self.last?;
        let distinct = if self.ascending {
            self.len as u64
        } else {
            self.coalescer.count_unsorted(self.len)
        };
        Some((distinct, self.atomics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The first `n` segments whose probe starts at `slot`.
    fn colliding(slot: usize, n: usize) -> Vec<u64> {
        (0u64..).filter(|&s| slot_of(s) == slot).take(n).collect()
    }

    /// The distinct segments of `accesses`, counted by sort and dedup.
    fn sort_and_dedup(accesses: &[(u64, u64)], line: u64) -> u64 {
        let mut segments: Vec<u64> = accesses
            .iter()
            .flat_map(|&(addr, bytes)| addr / line..=(addr + bytes.max(1) - 1) / line)
            .collect();
        segments.sort_unstable();
        segments.dedup();
        segments.len() as u64
    }

    /// One step of `accesses` (all loads) through `c`.
    fn count(c: &mut Coalescer, accesses: &[(u64, u64)]) -> u64 {
        let mut step = c.step();
        for &(addr, bytes) in accesses {
            step.push(addr, bytes, AccessKind::Load);
        }
        step.finish().map_or(0, |(tx, _)| tx)
    }

    proptest! {
        /// 0–300 accesses drawn with repeats from a pool of segments —
        /// eight probing from the same slot, eight from the last slot
        /// (their probes wrap), runs of neighbours and far-apart lines —
        /// some straddling two lines, some zero bytes wide, as one step
        /// and as steps of `chunk` accesses: a step counts what sort and
        /// dedup count, whether the table or the sort counts it.
        #[test]
        fn a_step_counts_what_sort_and_dedup_count(
            picks in vec((any::<u16>(), 0u64..4), 0..301),
            chunk in 1usize..80,
        ) {
            const LINE: u64 = 128;
            let mut pool = colliding(0, 8);
            pool.extend(colliding(SLOTS - 1, 8));
            pool.extend(1000..1040);
            pool.extend((1..17).map(|i| i << 40));
            let accesses: Vec<(u64, u64)> = picks
                .iter()
                .map(|&(pick, width)| {
                    let base = pool[usize::from(pick) % pool.len()] * LINE;
                    match width {
                        0 => (base + 4, 4),
                        1 => (base + LINE - 4, 8),
                        2 => (base + 9, 0),
                        _ => (base + 100, 28),
                    }
                })
                .collect();
            let mut c = Coalescer::new(LINE);
            prop_assert_eq!(count(&mut c, &accesses), sort_and_dedup(&accesses, LINE));
            for step in accesses.chunks(chunk) {
                prop_assert_eq!(count(&mut c, step), sort_and_dedup(step, LINE));
            }
        }
    }

    #[test]
    fn the_table_empties_when_generations_wrap() {
        let mut c = Coalescer::new(1);
        // Descending, so each step goes through the table.
        let mut early = colliding(0, 3);
        let mut late = colliding(SLOTS / 2, 3);
        early.reverse();
        late.reverse();
        let early: Vec<(u64, u64)> = early.into_iter().map(|s| (s, 1)).collect();
        let late: Vec<(u64, u64)> = late.into_iter().map(|s| (s, 1)).collect();
        // Generation 1 stamps the slots `early` takes.
        assert_eq!(count(&mut c, &early), 3);
        c.generation = u32::MAX - 2;
        for _ in 0..2 {
            assert_eq!(count(&mut c, &late), 3);
        }
        assert_eq!(c.generation, u32::MAX);
        // Generation 1 again: `early`'s old slots must be free.
        assert_eq!(count(&mut c, &early), 3);
        assert_eq!(c.generation, 1);
        assert_eq!(count(&mut c, &late), 3);
    }

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
        step.push(40, 4, AccessKind::Atomic);
        step.push(0, 4, AccessKind::Load);
        step.push(40, 4, AccessKind::Load);
        assert_eq!(step.finish(), Some((2, 1)));
        assert_eq!(c.step().finish(), None);
        let mut step = c.step();
        step.push(8, 4, AccessKind::Load);
        assert_eq!(step.finish(), Some((1, 0)));
    }

    #[test]
    fn unsorted_steps_count_each_segment_once() {
        let mut c = Coalescer::new(128);
        for round in 0..3u64 {
            let mut step = c.step();
            for i in (0..200u64).rev() {
                step.push((i % 50) * 128 + round, 4, AccessKind::Load);
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
