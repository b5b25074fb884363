//! The serving wrapper: [`MutableGraph`] ties the WAL, the delta
//! overlay, MVCC snapshots, and compaction together.
//!
//! # Concurrency model
//!
//! Two mutexes with a fixed acquisition order (`inner` before `wal`)
//! guard the mutable state. Mutations are serialized; readers never
//! block on them — a reader takes [`MutableGraph::snapshot`] (a cheap
//! `Arc` clone when the graph hasn't changed since the last snapshot)
//! and works against that immutable `(base, delta, epoch)` triple for
//! its whole query. Compaction holds no lock while it merges and
//! re-prepares; only the final swap takes the `inner` lock, so
//! in-flight queries keep their pinned epoch and drop it when done —
//! old epochs are freed purely by reference counting.
//!
//! # Crash safety
//!
//! Every apply batch is fsync'd to the WAL *before* the in-memory
//! overlay changes, so an acknowledged mutation survives a crash.
//! Compaction takes four durable steps in a fixed order, each only after
//! the one before it is on disk: (1) the fresh artifact is written,
//! fsync'd and renamed into place; (2) the `MANIFEST` is atomically
//! repointed at it; (3) the WAL is rewritten to the racing tail; (4) the
//! compacted artifact the old base came from is unlinked. A failure in
//! step 1 or 2 fails the compaction with the WAL and the serving state
//! untouched — the log is dropped only once a `MANIFEST` durably names
//! an artifact that holds its ops. A crash after step 1 leaves an
//! unnamed orphan file and recovers old base + full WAL; after step 2,
//! the fresh base + the stale WAL, which is state-convergent because
//! every [`MutationOp`] is idempotent against a base that already
//! absorbed it; after step 3, the fresh base + the tail, with the
//! superseded artifact left behind as the one orphan a crash can cost.
//! The original prepare-keyed artifact is never unlinked: it is the
//! spec's cache entry and owns the WAL directory.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

use crate::store::{
    carries_lineage, replace_file, wal_dir_for, GraphStore, PreparedGraph, ViewPlan,
};

use super::delta::{DeltaOverlay, OverlayView, PatchedRows};
use super::wal::{MutationOp, Wal};
use super::MutationError;

/// File name of the mutation log inside an artifact's WAL directory.
const WAL_FILE: &str = "delta.log";
/// File name of the compaction redirect pointer.
const MANIFEST_FILE: &str = "MANIFEST";

/// What one [`MutableGraph::apply`] batch did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplySummary {
    /// Ops that changed the graph.
    pub applied: usize,
    /// Well-formed no-ops (duplicate adds, removes of absent edges, ...).
    pub skipped: usize,
    /// WAL records after the batch (the whole batch is logged, skips
    /// included — replay skips them identically).
    pub wal_len: u64,
    /// Overlay generation after the batch.
    pub epoch: u64,
}

/// What one [`MutableGraph::compact`] run did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionStats {
    /// Wall-clock milliseconds for merge + re-prepare + swap.
    pub wall_ms: u64,
    /// `delta_edges` absorbed into the fresh base.
    pub delta_edges_before: usize,
    /// `delta_edges` remaining (mutations that raced the compaction).
    pub delta_edges_after: usize,
    /// Overlay generation after the swap.
    pub epoch: u64,
}

/// An immutable `(base, delta, epoch)` triple pinned by a reader.
///
/// Queries admitted against a snapshot see exactly its state for their
/// whole execution, no matter how many mutations or compactions land
/// concurrently. A clean snapshot (`delta` is `None`) is just the base
/// — the fused batch path runs over it unchanged; a dirty snapshot
/// exposes [`GraphSnapshot::view`] (base + frozen patched rows) for the
/// same path and [`GraphSnapshot::merged`] for algorithms that need a
/// materialized CSR. Both are built lazily, once, and kept for the
/// snapshot's lifetime, so `apply` and `snapshot` never pay for them.
#[derive(Debug)]
pub struct GraphSnapshot {
    base: Arc<PreparedGraph>,
    delta: Option<Arc<DeltaOverlay>>,
    epoch: u64,
    plan: ViewPlan,
    rows: OnceLock<PatchedRows>,
    merged: Mutex<Option<Arc<PreparedGraph>>>,
}

impl GraphSnapshot {
    /// Overlay generation this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable prepared base.
    pub fn base(&self) -> &Arc<PreparedGraph> {
        &self.base
    }

    /// `true` when the snapshot carries no delta (base answers are
    /// exact, fused batch paths apply).
    pub fn is_clean(&self) -> bool {
        self.delta.is_none()
    }

    /// Delta size pinned by this snapshot (0 when clean).
    pub fn delta_edges(&self) -> usize {
        self.delta.as_ref().map_or(0, |d| d.delta_edges())
    }

    /// Nodes visible through this snapshot.
    pub fn num_nodes(&self) -> usize {
        self.delta
            .as_ref()
            .map_or(self.base.graph().num_nodes(), |d| d.num_nodes())
    }

    /// Edges visible through this snapshot.
    pub fn num_edges(&self) -> usize {
        self.delta
            .as_ref()
            .map_or(self.base.graph().num_edges(), |d| {
                d.num_edges(self.base.graph())
            })
    }

    /// Zero-copy base+delta view, when the snapshot is dirty. The first
    /// call freezes the read-side index ([`DeltaOverlay::freeze`]);
    /// later calls, from any thread, borrow it.
    pub fn view(&self) -> Option<OverlayView<'_>> {
        let base = self.base.graph();
        self.delta
            .as_ref()
            .map(|d| self.rows.get_or_init(|| d.freeze(base)).view(base))
    }

    /// The snapshot as a fully materialized [`PreparedGraph`]: the base
    /// itself when clean, otherwise base+delta merged and re-prepared
    /// in memory (no artifact write), lazily on first use.
    ///
    /// # Errors
    ///
    /// [`MutationError::Graph`] when re-preparing the merged CSR fails.
    pub fn merged(&self) -> Result<Arc<PreparedGraph>, MutationError> {
        if self.is_clean() {
            return Ok(Arc::clone(&self.base));
        }
        let mut slot = self.merged.lock().unwrap();
        if let Some(m) = &*slot {
            return Ok(Arc::clone(m));
        }
        let view = self.view().expect("a dirty snapshot has a view");
        let prepared = Arc::new(GraphStore::disabled().materialize(view.merged_csr(), self.plan)?);
        *slot = Some(Arc::clone(&prepared));
        Ok(prepared)
    }
}

/// Per-epoch mutable state, swapped atomically under one lock.
struct Inner {
    base: Arc<PreparedGraph>,
    /// Shared with the dirty snapshots pinned at this epoch; a batch
    /// writes through `Arc::make_mut`, so it copies the overlay only
    /// while one of them is still alive.
    delta: Arc<DeltaOverlay>,
    /// Mirror of the WAL's records since the last compaction (what a
    /// replay would redo), kept so compaction can split off the racing
    /// tail without re-reading the log.
    ops: Vec<(u64, MutationOp)>,
    epoch: u64,
    /// Snapshot of the current state, built lazily and reused until the
    /// next mutation — repeat readers of an unchanged graph share one
    /// `Arc`.
    cached: Option<Arc<GraphSnapshot>>,
    /// The compacted artifact `base` came from, when it is this
    /// lineage's own to unlink once the next compaction supersedes it
    /// (never the original artifact, never a file without this lineage
    /// in its canonical string).
    compacted: Option<PathBuf>,
}

/// What makes a mutable graph durable: the `MANIFEST` in the *original*
/// artifact's WAL dir, and that artifact's key — the lineage every
/// compaction product of this graph carries in its canonical string.
struct Lineage {
    manifest: PathBuf,
    key: String,
}

/// A prepared graph that accepts online mutations: WAL-durable writes,
/// snapshot-isolated reads, and background-compactable deltas.
pub struct MutableGraph {
    store: GraphStore,
    plan: ViewPlan,
    inner: Mutex<Inner>,
    wal: Mutex<Wal>,
    /// Fixed at open; `None` for cache-less stores, which are ephemeral
    /// anyway.
    lineage: Option<Lineage>,
    compacting: AtomicBool,
    compactions: AtomicU64,
    last_compaction_ms: AtomicU64,
    /// Every snapshot ever handed out, weakly: lets tests (and stats)
    /// prove old epochs are freed, without keeping them alive.
    snapshots: Mutex<Vec<Weak<GraphSnapshot>>>,
}

impl std::fmt::Debug for MutableGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableGraph")
            .field("plan", &self.plan)
            .field("epoch", &self.epoch())
            .field("wal_len", &self.wal_len())
            .field("delta_edges", &self.delta_edges())
            .field("compactions", &self.compactions())
            .finish()
    }
}

impl MutableGraph {
    /// Wraps a prepared graph for online mutation, recovering any
    /// earlier state first: if the base's WAL directory carries a
    /// compaction `MANIFEST` the serving base is redirected to the
    /// compacted artifact, then the WAL (crash-truncated to its longest
    /// valid prefix) is replayed into a fresh overlay. Unreplayable
    /// records are skipped with a warning rather than failing the open.
    ///
    /// # Errors
    ///
    /// [`MutationError::Immutable`] for physically transformed bases
    /// (split transforms renumber nodes, so mutations would name the
    /// wrong vertices); [`MutationError::Io`] when the WAL cannot be
    /// opened or recovered.
    pub fn open(store: GraphStore, base: PreparedGraph) -> Result<MutableGraph, MutationError> {
        if base.transformed().is_some() {
            return Err(MutationError::Immutable(
                "physically transformed graphs renumber nodes; use a virtual overlay instead"
                    .into(),
            ));
        }
        let plan = ViewPlan::from_prepared(&base);
        let (wal_path, lineage) = match &base.report().artifact {
            Some(artifact) => {
                let dir = wal_dir_for(artifact);
                let lineage = Lineage {
                    manifest: dir.join(MANIFEST_FILE),
                    key: base.report().key.clone(),
                };
                (dir.join(WAL_FILE), Some(lineage))
            }
            None => {
                // Cache-less stores get an ephemeral per-open log: there
                // is no artifact to pair recovery with, so uniqueness
                // beats reuse.
                static EPHEMERAL: AtomicU64 = AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "tigr-wal-{}-{}-{}",
                    std::process::id(),
                    base.report().key,
                    EPHEMERAL.fetch_add(1, Ordering::Relaxed)
                ));
                (dir.join(WAL_FILE), None)
            }
        };

        let mut base = Arc::new(base);
        let mut compacted = None;
        if let Some(lineage) = lineage.as_ref().filter(|l| l.manifest.exists()) {
            let manifest_path = &lineage.manifest;
            match read_manifest(manifest_path) {
                Ok((key, canonical)) => match store.cache_dir() {
                    Some(dir) => {
                        let artifact = dir.join(format!("{key}.tigr"));
                        match store.open_materialized(&artifact, plan, &canonical) {
                            Ok(redirected) => {
                                base = Arc::new(redirected);
                                compacted =
                                    carries_lineage(&canonical, &lineage.key).then_some(artifact);
                            }
                            Err(e) => eprintln!(
                                "tigr: compacted artifact {} unusable ({e}); \
                                 replaying full WAL over the original base",
                                artifact.display()
                            ),
                        }
                    }
                    None => eprintln!(
                        "tigr: MANIFEST present but store has no cache dir; \
                         replaying full WAL over the original base"
                    ),
                },
                Err(e) => eprintln!(
                    "tigr: unreadable MANIFEST {} ({e}); ignoring",
                    manifest_path.display()
                ),
            }
        }

        let (wal, recovery) = Wal::open(&wal_path)?;
        if recovery.truncated_bytes > 0 {
            eprintln!(
                "tigr: WAL {} had a torn tail; truncated {} byte(s)",
                wal_path.display(),
                recovery.truncated_bytes
            );
        }
        let mut delta = DeltaOverlay::new(base.graph());
        let mut ops = Vec::with_capacity(recovery.ops.len());
        for (seq, op) in recovery.ops {
            match delta.apply(base.graph(), op) {
                Ok(_) => ops.push((seq, op)),
                Err(e) => eprintln!("tigr: skipping unreplayable WAL record #{seq} ({e})"),
            }
        }
        let epoch = u64::from(!delta.is_empty());
        Ok(MutableGraph {
            store,
            plan,
            inner: Mutex::new(Inner {
                base,
                delta: Arc::new(delta),
                ops,
                epoch,
                cached: None,
                compacted,
            }),
            wal: Mutex::new(wal),
            lineage,
            compacting: AtomicBool::new(false),
            compactions: AtomicU64::new(0),
            last_compaction_ms: AtomicU64::new(0),
            snapshots: Mutex::new(Vec::new()),
        })
    }

    /// The derived-view plan compaction rebuilds (fixed at open).
    pub fn plan(&self) -> ViewPlan {
        self.plan
    }

    /// Applies a batch of mutations atomically: either every op is
    /// validated, logged (one fsync for the whole batch), and installed,
    /// or none is. Skipped no-ops count in the summary but are logged
    /// too — replay skips them identically.
    ///
    /// # Errors
    ///
    /// [`MutationError::Invalid`] if any op is malformed (the batch is
    /// rejected whole, before the WAL write); [`MutationError::Io`] if
    /// the WAL append fails (the in-memory graph is unchanged).
    pub fn apply(&self, ops: &[MutationOp]) -> Result<ApplySummary, MutationError> {
        let mut inner = self.inner.lock().unwrap();
        inner.delta.validate(ops)?;
        if ops.is_empty() {
            return Ok(ApplySummary {
                applied: 0,
                skipped: 0,
                wal_len: self.wal.lock().unwrap().len(),
                epoch: inner.epoch,
            });
        }
        let wal_len = {
            let mut wal = self.wal.lock().unwrap();
            let first_seq = wal.append_batch(ops)?;
            for (i, &op) in ops.iter().enumerate() {
                inner.ops.push((first_seq + i as u64, op));
            }
            wal.len()
        };
        // The cached snapshot shares the overlay; dropped first, it costs
        // no copy unless a reader still holds it.
        inner.cached = None;
        let inner = &mut *inner;
        let delta = Arc::make_mut(&mut inner.delta);
        let applied = ops
            .iter()
            .filter(|&&op| delta.install(inner.base.graph(), op))
            .count();
        let skipped = ops.len() - applied;
        if applied > 0 {
            inner.epoch += 1;
        }
        Ok(ApplySummary {
            applied,
            skipped,
            wal_len,
            epoch: inner.epoch,
        })
    }

    /// Pins the current state. Cheap for repeat readers: the snapshot is
    /// cached until the next mutation or compaction.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.pin().0
    }

    /// [`MutableGraph::snapshot`] plus the sequence number of the last
    /// logged op the snapshot reflects, read under the same lock.
    fn pin(&self) -> (Arc<GraphSnapshot>, Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        let high_seq = inner.ops.last().map(|&(seq, _)| seq);
        if let Some(s) = &inner.cached {
            return (Arc::clone(s), high_seq);
        }
        let snap = Arc::new(GraphSnapshot {
            base: Arc::clone(&inner.base),
            delta: (!inner.delta.is_empty()).then(|| Arc::clone(&inner.delta)),
            epoch: inner.epoch,
            plan: self.plan,
            rows: OnceLock::new(),
            merged: Mutex::new(None),
        });
        inner.cached = Some(Arc::clone(&snap));
        drop(inner);
        let mut registry = self.snapshots.lock().unwrap();
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&snap));
        (snap, high_seq)
    }

    /// Merges base+delta into a fresh CSR, re-runs preparation over it
    /// (re-splitting virtual nodes whose degree crossed `K`, §4.1),
    /// seals a new artifact, and swaps it in as the serving base; the
    /// compacted artifact it supersedes is unlinked. Mutations that land
    /// while the merge runs survive as the new (much smaller) delta.
    /// In-flight snapshots are untouched — their epochs drain by
    /// refcount, and a base mapped from the unlinked file stays mapped.
    ///
    /// # Errors
    ///
    /// [`MutationError::Busy`] when a compaction is already running;
    /// [`MutationError::Graph`] when the fresh artifact cannot be
    /// written and [`MutationError::Io`] when the `MANIFEST` cannot name
    /// it — the WAL and the serving state are unchanged either way, no
    /// acknowledged mutation is lost; [`MutationError::Io`] too when the
    /// WAL reset fails after the `MANIFEST` was repointed (the serving
    /// state is unchanged and a restart replays the stale log over the
    /// fresh base).
    pub fn compact(&self) -> Result<CompactionStats, MutationError> {
        if self.compacting.swap(true, Ordering::AcqRel) {
            return Err(MutationError::Busy);
        }
        let result = self.compact_locked();
        self.compacting.store(false, Ordering::Release);
        result
    }

    fn compact_locked(&self) -> Result<CompactionStats, MutationError> {
        let started = Instant::now();
        // Pin the merge input as any reader would, so the (potentially
        // long) merge + re-prepare hold no lock — and reuse the rows a
        // dirty query already froze.
        let (pinned, high_seq) = self.pin();
        let Some(view) = pinned.view() else {
            return Ok(CompactionStats {
                wall_ms: 0,
                delta_edges_before: 0,
                delta_edges_after: 0,
                epoch: pinned.epoch(),
            });
        };
        let delta_edges_before = pinned.delta_edges();
        let lineage_key = self.lineage.as_ref().map(|l| l.key.as_str());
        let sealed = self.store.seal(view.merged_csr(), self.plan, lineage_key)?;
        // Durable step 1: the artifact itself. Without it nothing below
        // may happen — the WAL is the only copy of the delta.
        let durable = match (&self.lineage, &sealed.prepared.report().artifact) {
            (Some(lineage), Some(artifact)) => {
                sealed.written?;
                Some((lineage, artifact.clone()))
            }
            (Some(_), None) => {
                return Err(MutationError::Io(io::Error::other(
                    "the base has a WAL directory but the store has no cache dir to seal into",
                )))
            }
            // Ephemeral: no restart will look for this graph.
            (None, _) => {
                if let Err(e) = &sealed.written {
                    eprintln!("tigr: failed to write compacted artifact ({e})");
                }
                None
            }
        };
        let fresh = Arc::new(sealed.prepared);

        let mut inner = self.inner.lock().unwrap();
        // Ops that raced the merge become the new delta.
        let tail: Vec<(u64, MutationOp)> = inner
            .ops
            .iter()
            .copied()
            .filter(|&(seq, _)| Some(seq) > high_seq)
            .collect();
        let mut new_delta = DeltaOverlay::new(fresh.graph());
        for &(seq, op) in &tail {
            if let Err(e) = new_delta.apply(fresh.graph(), op) {
                eprintln!("tigr: dropping racing op #{seq} at compaction ({e})");
            }
        }

        // Durable step 2: point the original WAL dir at the fresh
        // artifact.
        if let Some((lineage, _)) = &durable {
            write_manifest(&lineage.manifest, &fresh.report().key, &sealed.canonical)?;
        }
        // Durable step 3: shrink the WAL to the racing tail. Old records
        // are safe to drop only now — the artifact the MANIFEST names
        // holds them.
        self.wal.lock().unwrap().reset(&tail)?;

        let delta_edges_after = new_delta.delta_edges();
        inner.base = fresh;
        inner.delta = Arc::new(new_delta);
        inner.ops = tail;
        inner.epoch += 1;
        inner.cached = None;
        let epoch = inner.epoch;
        // A delta that nets out to nothing re-seals the very file the
        // base came from: then there is nothing superseded to unlink.
        let superseded = durable.and_then(|(_, artifact)| {
            inner
                .compacted
                .replace(artifact.clone())
                .filter(|old| *old != artifact)
        });
        drop(inner);

        // Durable step 4, last: nothing on disk names the superseded
        // artifact any more. Readers still holding it keep their pages.
        if let Some(path) = superseded {
            if let Err(e) = fs::remove_file(&path) {
                eprintln!(
                    "tigr: could not unlink superseded artifact {} ({e})",
                    path.display()
                );
            }
        }

        let wall_ms = started.elapsed().as_millis() as u64;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.last_compaction_ms.store(wall_ms, Ordering::Relaxed);
        Ok(CompactionStats {
            wall_ms,
            delta_edges_before,
            delta_edges_after,
            epoch,
        })
    }

    /// Kicks off [`MutableGraph::compact`] on a background thread when
    /// the delta has reached `threshold` and no compaction is running.
    /// Returns whether a thread was spawned.
    pub fn maybe_spawn_compaction(self: &Arc<Self>, threshold: usize) -> bool {
        if threshold == 0
            || self.delta_edges() < threshold
            || self.compacting.load(Ordering::Acquire)
        {
            return false;
        }
        let this = Arc::clone(self);
        std::thread::spawn(move || match this.compact() {
            Ok(stats) if stats.delta_edges_before > 0 => eprintln!(
                "tigr: background compaction absorbed {} delta edge(s) in {} ms (epoch {})",
                stats.delta_edges_before, stats.wall_ms, stats.epoch
            ),
            Ok(_) => {}
            Err(MutationError::Busy) => {}
            Err(e) => eprintln!("tigr: background compaction failed: {e}"),
        });
        true
    }

    /// WAL records since the last compaction.
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().unwrap().len()
    }

    /// Current delta size (added + removed edges + weight overrides).
    pub fn delta_edges(&self) -> usize {
        self.inner.lock().unwrap().delta.delta_edges()
    }

    /// Current overlay generation.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().unwrap().epoch
    }

    /// Completed compactions since open.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Wall-clock milliseconds of the most recent compaction (0 before
    /// the first).
    pub fn last_compaction_ms(&self) -> u64 {
        self.last_compaction_ms.load(Ordering::Relaxed)
    }

    /// Snapshots still alive (prunes dead weak refs). At most one per
    /// epoch is cached internally, so a value that stays small under
    /// mutation churn proves old epochs are being freed.
    pub fn live_snapshots(&self) -> usize {
        let mut registry = self.snapshots.lock().unwrap();
        registry.retain(|w| w.strong_count() > 0);
        registry.len()
    }
}

/// Parses a `MANIFEST`: line 1 the compacted artifact's key, line 2 its
/// canonical spec string.
fn read_manifest(path: &Path) -> std::io::Result<(String, String)> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed MANIFEST");
    let key = lines.next().ok_or_else(bad)?.trim();
    let canonical = lines.next().ok_or_else(bad)?.trim();
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) || canonical.is_empty() {
        return Err(bad());
    }
    Ok((key.to_string(), canonical.to_string()))
}

/// Atomically (tmp + fsync + rename + dir fsync) writes the redirect
/// pointer.
fn write_manifest(path: &Path, key: &str, canonical: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    replace_file(path, &tmp, |file| {
        writeln!(file, "{key}")?;
        writeln!(file, "{canonical}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PrepareSpec;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tigr_mutable_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> PrepareSpec {
        PrepareSpec::generated("ba:64:3", 11)
            .with_uniform_weights(1, 16, 5)
            .with_virtual(4, true)
            .with_transpose(true)
    }

    /// A fixed-shape batch (5 applied + 1 skipped, delta_edges 4) whose
    /// remove/set-weight targets are real edges of `g`.
    fn ops(g: &tigr_graph::Csr) -> Vec<MutationOp> {
        let mut edges = Vec::new();
        'outer: for u in 0..g.num_nodes() as u32 {
            let node = tigr_graph::NodeId::new(u);
            for e in g.edge_start(node)..g.edge_end(node) {
                edges.push((u, g.edge_target(e).raw(), g.weight(e)));
                if edges.len() == 2 {
                    break 'outer;
                }
            }
        }
        let [(ru, rv, _), (su, sv, sw)] = edges[..] else {
            panic!("test graph needs at least two edges");
        };
        vec![
            MutationOp::AddNode { nodes: 66 },
            MutationOp::AddEdge { u: 65, v: 0, w: 3 },
            MutationOp::AddEdge { u: 0, v: 65, w: 2 },
            MutationOp::RemoveEdge { u: ru, v: rv },
            MutationOp::SetWeight {
                u: su,
                v: sv,
                w: sw + 1,
            },
            MutationOp::AddEdge { u: 65, v: 0, w: 7 }, // duplicate → skip
        ]
    }

    #[test]
    fn apply_is_atomic_and_snapshot_isolated() {
        let store = GraphStore::disabled();
        let base = store.prepare(&spec()).unwrap();
        let mg = MutableGraph::open(store, base).unwrap();

        let before = mg.snapshot();
        assert!(before.is_clean());
        assert_eq!(before.epoch(), 0);
        // Cached: a second snapshot of an unchanged graph is the same Arc.
        assert!(Arc::ptr_eq(&before, &mg.snapshot()));

        let batch = ops(before.base().graph());
        let summary = mg.apply(&batch).unwrap();
        assert_eq!(summary.applied, 5);
        assert_eq!(summary.skipped, 1);
        assert_eq!(summary.wal_len, 6);
        assert_eq!(summary.epoch, 1);

        let after = mg.snapshot();
        assert!(!after.is_clean());
        assert_eq!(after.num_nodes(), 66);
        assert_eq!(after.num_edges(), before.num_edges() + 1); // +2 added −1 removed
                                                               // The pinned pre-mutation snapshot still answers from the old
                                                               // state.
        assert_eq!(before.num_nodes(), 64);
        assert!(before.is_clean());

        // A malformed batch is rejected whole: nothing from it lands.
        let bad = [
            MutationOp::AddEdge { u: 2, v: 3, w: 1 },
            MutationOp::AddEdge { u: 999, v: 0, w: 1 },
        ];
        assert!(matches!(mg.apply(&bad), Err(MutationError::Invalid(_))));
        assert_eq!(mg.epoch(), 1);
        assert_eq!(mg.wal_len(), 6);
    }

    #[test]
    fn a_batch_is_validated_whole_against_its_own_node_growth() {
        let store = GraphStore::disabled();
        let mg = MutableGraph::open(store.clone(), store.prepare(&spec()).unwrap()).unwrap();
        let grow = MutationOp::AddNode { nodes: 70 };
        let to_new = MutationOp::AddEdge { u: 0, v: 69, w: 1 };
        let out_of_range = MutationOp::AddEdge { u: 0, v: 70, w: 1 };

        let err = mg.apply(&[grow, to_new, out_of_range]).unwrap_err();
        assert!(matches!(err, MutationError::Invalid(ref m) if m.contains("node 70")));
        assert_eq!((mg.epoch(), mg.wal_len(), mg.delta_edges()), (0, 0, 0));
        assert!(mg.snapshot().is_clean());

        // The edge to node 69 is valid only because the batch grew the
        // graph first.
        let summary = mg.apply(&[grow, to_new]).unwrap();
        assert_eq!((summary.applied, summary.epoch, summary.wal_len), (2, 1, 2));
        assert_eq!(mg.snapshot().num_nodes(), 70);
    }

    #[test]
    fn a_snapshot_pinned_before_a_batch_keeps_its_edges() {
        use tigr_graph::RowView;
        let store = GraphStore::disabled();
        let base = store.prepare(&spec()).unwrap();
        let first = ops(base.graph());
        let mg = MutableGraph::open(store, base).unwrap();
        mg.apply(&first).unwrap();
        let pinned = mg.snapshot();
        let (edges, delta_edges) = (pinned.num_edges(), pinned.delta_edges());

        mg.apply(&[MutationOp::AddEdge { u: 65, v: 1, w: 9 }])
            .unwrap();
        // Frozen only now, after the batch: the rows are still the
        // pinned epoch's.
        let row = |snap: &GraphSnapshot| {
            let view = snap.view().unwrap();
            view.row(tigr_graph::NodeId::new(65)).0.to_vec()
        };
        assert_eq!(
            (pinned.num_edges(), pinned.delta_edges()),
            (edges, delta_edges)
        );
        let one = tigr_graph::NodeId::new(1);
        let old = row(&pinned);
        assert!(!old.contains(&one));
        let now = mg.snapshot();
        assert_eq!(now.num_edges(), edges + 1);
        let new = row(&now);
        assert_eq!(new.len(), old.len() + 1);
        assert!(new.contains(&one));
    }

    #[test]
    fn transformed_bases_are_immutable() {
        let store = GraphStore::disabled();
        let transformed = store
            .prepare(&spec().with_transform(
                crate::store::TransformKind::Udt,
                Some(4),
                crate::DumbWeight::Zero,
            ))
            .unwrap();
        assert!(matches!(
            MutableGraph::open(store, transformed),
            Err(MutationError::Immutable(_))
        ));
    }

    #[test]
    fn wal_replay_recovers_the_overlay_across_reopen() {
        let dir = temp_dir("replay");
        let store = GraphStore::new(Some(dir.clone()));
        let base = store.prepare(&spec()).unwrap();
        {
            let batch = ops(base.graph());
            let mg = MutableGraph::open(store.clone(), base).unwrap();
            mg.apply(&batch).unwrap();
        }
        let reopened = MutableGraph::open(store.clone(), store.prepare(&spec()).unwrap()).unwrap();
        assert_eq!(reopened.wal_len(), 6);
        assert_eq!(reopened.epoch(), 1);
        let snap = reopened.snapshot();
        assert_eq!(snap.num_nodes(), 66);
        assert_eq!(snap.delta_edges(), 4); // 2 added + 1 removed + 1 override
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_swaps_base_resets_wal_and_preserves_answers() {
        let dir = temp_dir("compact");
        let store = GraphStore::new(Some(dir.clone()));
        let base = store.prepare(&spec()).unwrap();
        let original_key = base.report().key.clone();
        let batch = ops(base.graph());
        let mg = MutableGraph::open(store.clone(), base).unwrap();
        mg.apply(&batch).unwrap();
        let pre = mg.snapshot();
        let pre_merged = pre.merged().unwrap().graph().clone();

        let stats = mg.compact().unwrap();
        assert_eq!(stats.delta_edges_before, 4);
        assert_eq!(stats.delta_edges_after, 0);
        assert_eq!(mg.compactions(), 1);
        assert_eq!(mg.wal_len(), 0);
        assert_eq!(mg.delta_edges(), 0);

        let post = mg.snapshot();
        assert!(post.is_clean());
        assert_ne!(post.base().report().key, original_key);
        // The compacted base is byte-identical to the pre-compaction
        // merged view, and the overlay was rebuilt against it.
        assert_eq!(post.base().graph(), &pre_merged);
        let overlay = post.base().overlay().unwrap();
        assert_eq!(overlay.num_physical_nodes(), 66);
        overlay.validate_against(post.base().graph()).unwrap();
        // The pinned pre-compaction snapshot still sees the delta.
        assert_eq!(pre.delta_edges(), 4);

        // Reopen from disk: the MANIFEST redirects to the compacted
        // artifact, with an empty delta.
        drop((pre, post));
        drop(mg);
        let reopened = MutableGraph::open(store.clone(), store.prepare(&spec()).unwrap()).unwrap();
        assert_eq!(reopened.wal_len(), 0);
        let snap = reopened.snapshot();
        assert!(snap.is_clean());
        assert_eq!(snap.base().graph(), &pre_merged);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_wal_replay_over_compacted_base_is_convergent() {
        // Simulate a crash between MANIFEST write and WAL reset: restore
        // the pre-compaction log next to the redirect and reopen.
        let dir = temp_dir("stale");
        let store = GraphStore::new(Some(dir.clone()));
        let base = store.prepare(&spec()).unwrap();
        let wal_path = wal_dir_for(base.report().artifact.as_ref().unwrap()).join(WAL_FILE);
        let batch = ops(base.graph());
        let mg = MutableGraph::open(store.clone(), base).unwrap();
        mg.apply(&batch).unwrap();
        let expected = mg.snapshot().merged().unwrap().graph().clone();

        let stale_log = fs::read(&wal_path).unwrap();
        mg.compact().unwrap();
        drop(mg);
        fs::write(&wal_path, &stale_log).unwrap();

        let reopened = MutableGraph::open(store.clone(), store.prepare(&spec()).unwrap()).unwrap();
        // Every stale record replays as a no-op against the compacted
        // base: same visible graph, empty delta.
        assert_eq!(reopened.delta_edges(), 0);
        assert_eq!(reopened.snapshot().merged().unwrap().graph(), &expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_compacted_artifact_without_lineage_is_served_but_never_unlinked() {
        // What a commit older than lineage keys left on disk: a MANIFEST
        // naming a content-keyed artifact that any other lineage with
        // the same CSR and plan would name too.
        let dir = temp_dir("legacy");
        let store = GraphStore::new(Some(dir.clone()));
        let base = store.prepare(&spec()).unwrap();
        let manifest = wal_dir_for(base.report().artifact.as_ref().unwrap()).join(MANIFEST_FILE);
        let mut delta = DeltaOverlay::new(base.graph());
        for op in ops(base.graph()) {
            delta.apply(base.graph(), op).unwrap();
        }
        let legacy = store
            .seal(
                delta.merged_csr(base.graph()),
                ViewPlan::from_prepared(&base),
                None,
            )
            .unwrap();
        legacy.written.unwrap();
        let legacy_path = legacy.prepared.report().artifact.clone().unwrap();
        write_manifest(&manifest, &legacy.prepared.report().key, &legacy.canonical).unwrap();

        let mg = MutableGraph::open(store, base).unwrap();
        assert!(mg.snapshot().is_clean());
        assert_eq!(mg.snapshot().base().graph(), legacy.prepared.graph());
        let add = |u, v| mg.apply(&[MutationOp::AddEdge { u, v, w: 2 }]).unwrap();
        assert_eq!(add(5, 6).applied, 1);
        mg.compact().unwrap();
        assert!(legacy_path.exists());
        // From here on the lineage owns, and unlinks, what it writes.
        let owned = mg.snapshot().base().report().artifact.clone().unwrap();
        assert_eq!(add(65, 5).applied, 1);
        mg.compact().unwrap();
        assert!(!owned.exists());
        assert!(legacy_path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racing_ops_survive_compaction_as_the_new_delta() {
        let store = GraphStore::disabled();
        let base = store.prepare(&spec()).unwrap();
        let batch = ops(base.graph());
        let mg = MutableGraph::open(store, base).unwrap();
        mg.apply(&batch).unwrap();
        // No way to pause mid-compaction deterministically here; instead
        // verify the tail split logic by applying, compacting, applying
        // again, and compacting once more.
        mg.compact().unwrap();
        mg.apply(&[MutationOp::AddEdge { u: 5, v: 6, w: 2 }])
            .unwrap();
        assert_eq!(mg.delta_edges(), 1);
        let stats = mg.compact().unwrap();
        assert_eq!(stats.delta_edges_before, 1);
        assert_eq!(stats.delta_edges_after, 0);
        assert_eq!(mg.compactions(), 2);
    }

    #[test]
    fn old_epochs_are_freed_by_refcount() {
        let store = GraphStore::disabled();
        let base = store.prepare(&spec()).unwrap();
        let mg = MutableGraph::open(store, base).unwrap();
        for i in 0..20u32 {
            let snap = mg.snapshot();
            assert_eq!(snap.epoch(), u64::from(i));
            mg.apply(&[MutationOp::AddEdge {
                u: i % 8,
                v: 40 + i,
                w: 1 + i,
            }])
            .unwrap();
            drop(snap);
        }
        // Only the currently cached snapshot (if any) can be alive.
        assert!(mg.live_snapshots() <= 1, "{}", mg.live_snapshots());
    }
}
