//! Active-frontier worklist abstraction (Gunrock-style).
//!
//! A frontier is the set of nodes whose values changed last iteration.
//! GPU frameworks keep it in one of two physical forms:
//!
//! * **sparse** — a compacted list of node ids; threads are launched one
//!   per active node. Cheap when few nodes are active, but the list must
//!   be compacted (and, for virtual representations, expanded into
//!   virtual-node families) every iteration.
//! * **dense** — a bitmap with one bit per node; one thread per node is
//!   launched and inactive threads exit after a single bitmap load. No
//!   compaction, and sequential bitmap reads coalesce perfectly, which
//!   wins once a sizable fraction of the graph is active.
//!
//! [`Frontier`] carries both a bitmap (O(1) membership, needed by the
//! pull engine and by dense kernels) and the sorted active list (needed
//! by sparse kernels and degree sorting), plus the *scheduling
//! representation* chosen by a [`FrontierMode`] policy. The crossover of
//! [`FrontierMode::Auto`] is [`DENSE_FRACTION`]: the frontier goes dense
//! when more than one node in 32 is active, mirroring the thresholds
//! GPU frameworks use for their sparse→dense switch.
//!
//! [`FrontierBuilder`] is the concurrent collector kernels push newly
//! activated nodes into: an atomic bitmap, so duplicate activations
//! coalesce and draining yields ids in ascending order — the next
//! frontier is deterministic no matter how worker threads interleaved.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use tigr_graph::{Csr, NodeId};

/// `Auto` switches the frontier dense once `len > n /` this constant.
pub const DENSE_FRACTION: usize = 32;

/// Policy selecting the frontier's scheduling representation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierMode {
    /// Density-based switching: sparse below `n /` [`DENSE_FRACTION`]
    /// active nodes, dense above.
    #[default]
    Auto,
    /// Always the bitmap form (one thread per node).
    Dense,
    /// Always the compacted list (one thread per active node).
    Sparse,
}

impl FrontierMode {
    /// Parses a mode name as the CLI accepts it.
    pub fn parse(s: &str) -> Option<FrontierMode> {
        match s {
            "auto" => Some(FrontierMode::Auto),
            "dense" => Some(FrontierMode::Dense),
            "sparse" => Some(FrontierMode::Sparse),
            _ => None,
        }
    }

    /// The mode's name (`"auto"`, `"dense"`, `"sparse"`).
    pub fn label(self) -> &'static str {
        match self {
            FrontierMode::Auto => "auto",
            FrontierMode::Dense => "dense",
            FrontierMode::Sparse => "sparse",
        }
    }
}

/// The representation a frontier was materialized in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontierRep {
    /// Bitmap scheduling: one thread per node.
    Dense,
    /// Compacted-list scheduling: one thread per active node.
    Sparse,
}

/// One iteration's set of active nodes.
#[derive(Clone, Debug)]
pub struct Frontier {
    n: usize,
    bits: Vec<u64>,
    /// Active ids; ascending unless reordered by [`Frontier::sort_by_degree`].
    active: Vec<u32>,
    rep: FrontierRep,
}

impl Frontier {
    /// Builds a frontier over `n` nodes from the given active ids
    /// (duplicates and order don't matter), choosing the representation
    /// per `mode`.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= n`.
    pub fn from_active(n: usize, mut active: Vec<u32>, mode: FrontierMode) -> Frontier {
        active.sort_unstable();
        active.dedup();
        let mut bits = vec![0u64; n.div_ceil(64)];
        for &v in &active {
            assert!((v as usize) < n, "active node {v} out of range (n = {n})");
            bits[v as usize / 64] |= 1 << (v % 64);
        }
        let rep = choose_rep(mode, active.len(), n);
        Frontier {
            n,
            bits,
            active,
            rep,
        }
    }

    /// Number of nodes the frontier ranges over.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of active nodes.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when no node is active (the run has converged).
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Fraction of nodes active, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.active.len() as f64 / self.n as f64
        }
    }

    /// The scheduling representation in effect.
    pub fn rep(&self) -> FrontierRep {
        self.rep
    }

    /// O(1) membership test.
    pub fn contains(&self, v: usize) -> bool {
        v < self.n && self.bits[v / 64] & (1 << (v % 64)) != 0
    }

    /// The active ids in scheduling order.
    pub fn nodes(&self) -> &[u32] {
        &self.active
    }

    /// Reorders the active list by out-degree (ties by id) so warps
    /// receive similar-sized work items. Only affects sparse scheduling;
    /// dense kernels walk the bitmap in node order regardless.
    pub fn sort_by_degree(&mut self, g: &Csr) {
        self.active
            .sort_unstable_by_key(|&v| (g.out_degree(NodeId::new(v)), v));
    }
}

fn choose_rep(mode: FrontierMode, len: usize, n: usize) -> FrontierRep {
    match mode {
        FrontierMode::Dense => FrontierRep::Dense,
        FrontierMode::Sparse => FrontierRep::Sparse,
        FrontierMode::Auto => {
            if len * DENSE_FRACTION > n {
                FrontierRep::Dense
            } else {
                FrontierRep::Sparse
            }
        }
    }
}

/// Appends the ids of the bits set in `words` (bitmap words in order, as
/// their owner hands them over) to `out`, ascending — the one word-drain
/// loop, shared by [`FrontierBuilder`]'s atomic bitmap (each word taken
/// with a swap) and a host lane's plain one (`mem::take`).
pub(crate) fn drain_words(words: impl Iterator<Item = u64>, out: &mut Vec<u32>) {
    for (w, mut bits) in words.enumerate() {
        while bits != 0 {
            out.push((w * 64) as u32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Concurrent next-frontier collector: an atomic bitmap kernels set bits
/// in. Duplicate activations collapse; [`FrontierBuilder::take`] yields
/// ids in ascending order, so the produced frontier is independent of
/// worker-thread interleaving.
#[derive(Debug)]
pub struct FrontierBuilder {
    bits: Vec<AtomicU64>,
    count: AtomicUsize,
    n: usize,
}

impl FrontierBuilder {
    /// A builder over `n` nodes with no bits set.
    pub fn new(n: usize) -> FrontierBuilder {
        FrontierBuilder {
            bits: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicUsize::new(0),
            n,
        }
    }

    /// Marks `v` active. Returns whether the bit was newly set (so the
    /// kernel can charge the store exactly once per node).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn activate(&self, v: usize) -> bool {
        assert!(v < self.n, "node {v} out of range (n = {})", self.n);
        let mask = 1u64 << (v % 64);
        if self.bits[v / 64].fetch_or(mask, Ordering::Relaxed) & mask == 0 {
            self.count.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Number of bits currently set.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// `true` when no node has been activated since the last take.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the builder into a [`Frontier`], clearing all bits.
    pub fn take(&self, mode: FrontierMode) -> Frontier {
        let mut active = Vec::with_capacity(self.count.swap(0, Ordering::Relaxed));
        drain_words(
            self.bits.iter().map(|w| w.swap(0, Ordering::Relaxed)),
            &mut active,
        );
        let rep = choose_rep(mode, active.len(), self.n);
        let mut bitmap = vec![0u64; self.n.div_ceil(64)];
        for &v in &active {
            bitmap[v as usize / 64] |= 1 << (v % 64);
        }
        Frontier {
            n: self.n,
            bits: bitmap,
            active,
            rep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_active_sorts_and_dedups() {
        let f = Frontier::from_active(100, vec![7, 3, 7, 99], FrontierMode::Auto);
        assert_eq!(f.nodes(), &[3, 7, 99]);
        assert_eq!(f.len(), 3);
        assert!(f.contains(3) && f.contains(7) && f.contains(99));
        assert!(!f.contains(4) && !f.contains(100));
    }

    #[test]
    fn auto_switches_on_density() {
        let sparse = Frontier::from_active(320, vec![0; 1], FrontierMode::Auto);
        assert_eq!(sparse.rep(), FrontierRep::Sparse);
        let dense = Frontier::from_active(320, (0..11).collect(), FrontierMode::Auto);
        assert_eq!(dense.rep(), FrontierRep::Dense);
        // Exactly at the boundary (len * 32 == n) stays sparse.
        let edge = Frontier::from_active(320, (0..10).collect(), FrontierMode::Auto);
        assert_eq!(edge.rep(), FrontierRep::Sparse);
    }

    #[test]
    fn forced_modes_override_density() {
        let f = Frontier::from_active(4, vec![0, 1, 2, 3], FrontierMode::Sparse);
        assert_eq!(f.rep(), FrontierRep::Sparse);
        let f = Frontier::from_active(1000, vec![0], FrontierMode::Dense);
        assert_eq!(f.rep(), FrontierRep::Dense);
    }

    #[test]
    fn builder_dedups_and_drains_in_order() {
        let b = FrontierBuilder::new(200);
        assert!(b.activate(150));
        assert!(b.activate(3));
        assert!(!b.activate(150), "second activation is deduplicated");
        assert_eq!(b.len(), 2);
        let f = b.take(FrontierMode::Auto);
        assert_eq!(f.nodes(), &[3, 150]);
        assert!(b.is_empty(), "take clears the builder");
        assert!(b.take(FrontierMode::Auto).is_empty());
    }

    #[test]
    fn builder_is_deterministic_under_concurrency() {
        let b = FrontierBuilder::new(10_000);
        std::thread::scope(|s| {
            for t in 0..8 {
                let b = &b;
                s.spawn(move || {
                    for v in (t * 7..10_000).step_by(13) {
                        b.activate(v);
                    }
                });
            }
        });
        let nodes = b.take(FrontierMode::Auto).nodes().to_vec();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(nodes, sorted, "drain order is ascending and unique");
    }

    #[test]
    fn empty_frontier_over_empty_graph() {
        let f = Frontier::from_active(0, vec![], FrontierMode::Auto);
        assert!(f.is_empty());
        assert_eq!(f.density(), 0.0);
        assert!(!f.contains(0));
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            assert_eq!(FrontierMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(FrontierMode::parse("bitmap"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_activation_rejected() {
        FrontierBuilder::new(5).activate(5);
    }
}
