//! Per-node value storage.
//!
//! GPU vertex-centric kernels update neighbor values with hardware
//! atomics (`atomicMin` in Algorithm 2). This module mirrors that with an
//! array of `AtomicU32`, giving the engine the same correctness
//! discipline the paper requires for pull-based virtual processing
//! ("updates to the value array are performed with atomic operations",
//! §4.2).
//!
//! The atomics exist because many threads share one array. A host lane
//! ([`crate::batch`]) has exactly one writer, so its values are a plain
//! `[u32]`; [`ValueCells`] is what the scatter body in [`crate::kernel`]
//! is generic over, so both kinds of storage run the same code.

use std::sync::atomic::{AtomicU32, Ordering};

/// Evaluates `$body` with `$fold` bound to the [`Fold`] of a runtime
/// [`Combine`]: one arm per operator, so whatever `$body` calls is
/// instantiated per operator and the `match` runs once, outside it.
macro_rules! resolve_combine {
    ($combine:expr, |$fold:ident| $body:expr) => {
        match $combine {
            $crate::state::Combine::Min => {
                let $fold = $crate::state::KeepMin;
                $body
            }
            $crate::state::Combine::Max => {
                let $fold = $crate::state::KeepMax;
                $body
            }
        }
    };
}
pub(crate) use resolve_combine;

/// Monotone combining operator of a vertex program.
///
/// Monotonicity is what makes relaxed (non-BSP) execution safe: applying
/// the operator more often, or with stale candidates, cannot overshoot
/// the fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Combine {
    /// Keep the minimum (SSSP, BFS, CC labels).
    Min,
    /// Keep the maximum (SSWP widths).
    Max,
}

impl Combine {
    /// The identity element: the initial value improvement starts from.
    pub fn identity(self) -> u32 {
        match self {
            Combine::Min => u32::MAX,
            Combine::Max => 0,
        }
    }

    /// Whether `candidate` strictly improves on `current`.
    #[inline]
    pub fn improves(self, candidate: u32, current: u32) -> bool {
        resolve_combine!(self, |fold| fold.improves(candidate, current))
    }
}

/// A [`Combine`] resolved to a type. A loop instantiated over a `Fold`
/// holds the operator's compare and read-modify-write themselves, not a
/// branch that picks them per edge; `resolve_combine!` is the one place
/// a runtime [`Combine`] turns into one.
pub trait Fold: Copy {
    /// Whether `candidate` strictly improves on `current`.
    fn improves(self, candidate: u32, current: u32) -> bool;

    /// The hardware read-modify-write (`atomicMin`/`atomicMax`) on a
    /// shared cell; returns the value the cell held before.
    fn fetch(self, cell: &AtomicU32, candidate: u32) -> u32;
}

/// [`Combine::Min`] as a [`Fold`].
#[derive(Clone, Copy, Debug)]
pub struct KeepMin;

/// [`Combine::Max`] as a [`Fold`].
#[derive(Clone, Copy, Debug)]
pub struct KeepMax;

impl Fold for KeepMin {
    #[inline]
    fn improves(self, candidate: u32, current: u32) -> bool {
        candidate < current
    }

    #[inline]
    fn fetch(self, cell: &AtomicU32, candidate: u32) -> u32 {
        cell.fetch_min(candidate, Ordering::Relaxed)
    }
}

impl Fold for KeepMax {
    #[inline]
    fn improves(self, candidate: u32, current: u32) -> bool {
        candidate > current
    }

    #[inline]
    fn fetch(self, cell: &AtomicU32, candidate: u32) -> u32 {
        cell.fetch_max(candidate, Ordering::Relaxed)
    }
}

/// The value cells a scatter writes — what [`crate::kernel::push_relax`]
/// is generic over. Many threads share an [`AtomicValues`], so improving
/// a cell there is a hardware read-modify-write; a host lane is the only
/// writer of its `[u32]`, so there it is a compare and a store.
pub trait ValueCells {
    /// Reads cell `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn load(&self, i: usize) -> u32;

    /// Folds `candidate` into cell `i`, returning `true` if the cell
    /// strictly improved.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn improve(&mut self, i: usize, candidate: u32, fold: impl Fold) -> bool;
}

impl ValueCells for &AtomicValues {
    #[inline]
    fn load(&self, i: usize) -> u32 {
        AtomicValues::load(self, i)
    }

    #[inline]
    fn improve(&mut self, i: usize, candidate: u32, fold: impl Fold) -> bool {
        fold.improves(candidate, fold.fetch(&self.values[i], candidate))
    }
}

impl ValueCells for &mut [u32] {
    #[inline]
    fn load(&self, i: usize) -> u32 {
        self[i]
    }

    #[inline]
    fn improve(&mut self, i: usize, candidate: u32, fold: impl Fold) -> bool {
        let cell = &mut self[i];
        let improved = fold.improves(candidate, *cell);
        if improved {
            *cell = candidate;
        }
        improved
    }
}

/// A shared array of atomically-updated `u32` node values.
#[derive(Debug)]
pub struct AtomicValues {
    values: Vec<AtomicU32>,
}

impl AtomicValues {
    /// Creates an array of `n` slots all holding `init`.
    pub fn new(n: usize, init: u32) -> Self {
        AtomicValues {
            values: (0..n).map(|_| AtomicU32::new(init)).collect(),
        }
    }

    /// Creates an array from explicit initial values.
    pub fn from_values(values: impl IntoIterator<Item = u32>) -> Self {
        AtomicValues {
            values: values.into_iter().map(AtomicU32::new).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn load(&self, i: usize) -> u32 {
        self.values[i].load(Ordering::Relaxed)
    }

    /// Writes slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn store(&self, i: usize, v: u32) {
        self.values[i].store(v, Ordering::Relaxed);
    }

    /// Atomically applies `combine` with `candidate` at slot `i`
    /// (hardware `atomicMin`/`atomicMax`), returning `true` if the slot
    /// strictly improved — the signal Algorithm 2 uses to clear the
    /// `finished` flag and worklists use to enqueue the node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn try_improve(&self, i: usize, candidate: u32, combine: Combine) -> bool {
        let mut cells = self;
        resolve_combine!(combine, |fold| cells.improve(i, candidate, fold))
    }

    /// Copies the current values out.
    pub fn snapshot(&self) -> Vec<u32> {
        self.values
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect()
    }
}

/// A shared array of accumulated `f32` values (σ/δ/rank accumulators),
/// stored as bit-cast `u32`. A kernel charges the GPU's `atomicAdd` to
/// its mirror; on the host, [`AtomicFloats::add`] is a plain load, add
/// and store, since every launcher runs a grid on one thread.
#[derive(Debug)]
pub struct AtomicFloats {
    bits: Vec<AtomicU32>,
}

impl AtomicFloats {
    /// Creates an array of `n` slots all holding `init`.
    pub fn new(n: usize, init: f32) -> Self {
        AtomicFloats {
            bits: (0..n).map(|_| AtomicU32::new(init.to_bits())).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Reads slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn load(&self, i: usize) -> f32 {
        f32::from_bits(self.bits[i].load(Ordering::Relaxed))
    }

    /// Writes slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn store(&self, i: usize, v: f32) {
        self.bits[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to slot `i`: one load, add and store. Every launcher
    /// runs its grid on one thread, so nothing else writes the slot
    /// between the two.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn add(&self, i: usize, delta: f32) {
        self.store(i, self.load(i) + delta);
    }

    /// Copies the current values out.
    pub fn snapshot(&self) -> Vec<f32> {
        self.bits
            .iter()
            .map(|b| f32::from_bits(b.load(Ordering::Relaxed)))
            .collect()
    }

    /// Resets every slot to `v`.
    pub fn fill(&self, v: f32) {
        for b in &self.bits {
            b.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_identities() {
        assert_eq!(Combine::Min.identity(), u32::MAX);
        assert_eq!(Combine::Max.identity(), 0);
        assert!(Combine::Min.improves(3, 5));
        assert!(!Combine::Min.improves(5, 5));
        assert!(Combine::Max.improves(5, 3));
        assert!(!Combine::Max.improves(3, 3));
    }

    #[test]
    fn try_improve_min_semantics() {
        let v = AtomicValues::new(3, u32::MAX);
        assert!(v.try_improve(0, 10, Combine::Min));
        assert!(
            !v.try_improve(0, 10, Combine::Min),
            "equal is not improvement"
        );
        assert!(!v.try_improve(0, 11, Combine::Min));
        assert!(v.try_improve(0, 9, Combine::Min));
        assert_eq!(v.load(0), 9);
    }

    #[test]
    fn try_improve_max_semantics() {
        let v = AtomicValues::new(1, 0);
        assert!(v.try_improve(0, 7, Combine::Max));
        assert!(!v.try_improve(0, 5, Combine::Max));
        assert_eq!(v.load(0), 7);
    }

    #[test]
    fn from_values_and_snapshot_round_trip() {
        let v = AtomicValues::from_values([1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        v.store(1, 99);
        assert_eq!(v.snapshot(), vec![1, 99, 3]);
    }

    #[test]
    fn concurrent_min_converges() {
        let v = AtomicValues::new(1, u32::MAX);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let v = &v;
                s.spawn(move || {
                    for i in 0..1000u32 {
                        v.try_improve(0, t * 1000 + i, Combine::Min);
                    }
                });
            }
        });
        assert_eq!(v.load(0), 0);
    }

    #[test]
    fn atomic_floats_add() {
        let f = AtomicFloats::new(2, 0.0);
        f.add(0, 1.5);
        assert_eq!(f.load(0), 1.5);
        f.add(0, 2.5);
        assert_eq!(f.load(0), 4.0);
        assert_eq!(f.load(1), 0.0);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn fill_resets() {
        let f = AtomicFloats::new(3, 5.0);
        f.fill(0.25);
        assert_eq!(f.snapshot(), vec![0.25; 3]);
    }
}
