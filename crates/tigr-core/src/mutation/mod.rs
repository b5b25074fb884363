//! Online graph mutation: WAL + delta overlay + snapshot-isolated reads
//! + compaction.
//!
//! PR 8 made prepared graphs immutable mmap'd `TIGRCSR2` segments; this
//! module family opens the evolving-graph scenario class on top of them
//! without giving up that immutability:
//!
//! * [`Wal`] — an append-only, checksummed, fsync'd log of
//!   [`MutationOp`]s. Replay on open is crash-safe: a torn or corrupt
//!   tail is truncated back to the longest valid prefix and never
//!   panics.
//! * [`DeltaOverlay`] — an in-memory patch (per-node added edges,
//!   removed base-edge indices, weight overrides, extra nodes) layered
//!   over the immutable base CSR — the write side. [`PatchedRows`] is
//!   its frozen read side, and [`OverlayView`] exposes base + index
//!   through [`tigr_graph::RowView`] so the host push driver walks the
//!   merged adjacency without copying the base or probing a hash.
//! * [`GraphSnapshot`] — an `Arc`-held (base, delta, epoch) triple
//!   pinned by each admitted query: MVCC snapshot isolation, so
//!   concurrent mutations never change an in-flight answer. It freezes
//!   the read-side index once, on the first query that needs it. Old
//!   epochs are freed by reference counting as their last reader drops.
//! * [`MutableGraph`] — the serving wrapper tying it together, with
//!   [`MutableGraph::compact`]: merge base+delta into a fresh CSR,
//!   re-run preparation (re-splitting virtual nodes whose degree
//!   crossed `K`, §4.1), seal a new artifact, and swap the serving base
//!   atomically while draining old-epoch readers.
//!
//! # Durability protocol
//!
//! The WAL lives in the base artifact's `<key>.wal/` directory. Every
//! apply batch is appended and fsync'd *before* the in-memory overlay
//! changes. Compaction orders its durable steps so that a crash at any
//! point recovers the same visible graph: (1) write the compacted
//! artifact, (2) atomically update the `MANIFEST` pointer in the
//! original WAL dir, (3) atomically rewrite the WAL to the
//! post-snapshot tail, (4) unlink the compacted artifact the old base
//! came from. A step that fails before (3) fails the compaction with
//! the WAL intact. Replay of a *stale* (pre-reset) WAL over a
//! compacted base is state-convergent by construction: `AddEdge` of a
//! visible edge and `RemoveEdge` of an absent edge are skips, and
//! `AddNode` carries a target node count rather than an increment.

mod delta;
mod mutable;
mod wal;

use std::fmt;
use std::io;

use tigr_graph::GraphError;

pub use delta::{DeltaOverlay, OverlayView, PatchedRows};
pub use mutable::{ApplySummary, CompactionStats, GraphSnapshot, MutableGraph};
pub use wal::{MutationOp, Recovery, Wal, WAL_MAGIC};

/// Why a mutation was rejected.
#[derive(Debug)]
pub enum MutationError {
    /// The operation is malformed for this graph (endpoint out of
    /// range, weighted op on an unweighted graph, ...). The graph is
    /// unchanged.
    Invalid(String),
    /// The graph cannot be mutated at all (e.g. it was physically
    /// transformed, so node ids no longer name original nodes).
    Immutable(String),
    /// Another compaction is already running.
    Busy,
    /// The WAL could not be written or recovered.
    Io(io::Error),
    /// Compaction failed to materialize the merged graph.
    Graph(GraphError),
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::Invalid(m) => write!(f, "invalid mutation: {m}"),
            MutationError::Immutable(m) => write!(f, "graph is immutable: {m}"),
            MutationError::Busy => write!(f, "compaction already in progress"),
            MutationError::Io(e) => write!(f, "WAL I/O error: {e}"),
            MutationError::Graph(e) => write!(f, "compaction failed: {e}"),
        }
    }
}

impl std::error::Error for MutationError {}

impl From<io::Error> for MutationError {
    fn from(e: io::Error) -> Self {
        MutationError::Io(e)
    }
}

impl From<GraphError> for MutationError {
    fn from(e: GraphError) -> Self {
        MutationError::Graph(e)
    }
}
