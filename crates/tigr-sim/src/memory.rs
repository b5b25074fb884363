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

    /// Convenience constructor for a 4-byte store.
    pub fn store4(addr: u64) -> Self {
        MemAccess {
            addr,
            bytes: 4,
            kind: AccessKind::Store,
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
    debug_assert!(cacheline_bytes > 0);
    let mut segments: Vec<u64> = Vec::with_capacity(accesses.len());
    let mut atomics = 0u64;
    for a in accesses {
        if a.kind == AccessKind::Atomic {
            atomics += 1;
        }
        let first = a.addr / cacheline_bytes;
        let last = (a.addr + a.bytes.max(1) - 1) / cacheline_bytes;
        for seg in first..=last {
            segments.push(seg);
        }
    }
    segments.sort_unstable();
    segments.dedup();
    (segments.len() as u64, atomics)
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
}
