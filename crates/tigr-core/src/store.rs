//! The prepared-graph artifact layer: `PrepareSpec` → [`GraphStore`] →
//! [`PreparedGraph`].
//!
//! Tigr's transformations are a one-time preprocessing cost the paper
//! amortizes across runs (§5, Table 7), so re-deriving the UDT/virtual
//! overlay and the pull-direction transpose on every invocation wastes
//! exactly the work the transformation was supposed to save. This module
//! makes preparation a first-class cached artifact:
//!
//! * A [`PrepareSpec`] fully describes the input (source file or
//!   generator tag + seed, optional uniform weights), the transformation
//!   (physical split kind + `K` + dumb-weight policy, or a virtual
//!   overlay + coalescing), and whether a transpose is needed.
//! * [`GraphStore::prepare`] resolves the spec into a [`PreparedGraph`]
//!   owning the CSR and every derived view, consulting a content-hash
//!   keyed on-disk cache of `TIGRCSR2` containers when a cache directory
//!   is configured. A hit loads the artifact and performs **zero**
//!   transform/transpose/overlay construction; a miss builds the views
//!   and writes the artifact for the next run.
//!
//! Cache keys hash the *canonical spec string* — which for file sources
//! embeds an FNV-1a hash of the file's bytes, and for generated sources
//! the generator tag and seed — so edits to the input file or any spec
//! field change the key. The canonical string is also embedded in the
//! artifact (`SECTION_SPEC`) and compared on load, guarding against hash
//! collisions and stale artifacts. Writes are deterministic: the same
//! spec always produces a byte-identical artifact.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tigr_graph::io::{
    self, fnv1a64, MappedContainer, SectionParts, VerifyMode, SECTION_CSR, SECTION_OVERLAY,
    SECTION_REV_OVERLAY, SECTION_SPEC, SECTION_TRANSFORM, SECTION_TRANSPOSE,
};
use tigr_graph::reverse::transpose;
use tigr_graph::{generators, Csr, GraphError, Result, Segment};

use crate::cancel::CancelToken;
use crate::dumb_weights::DumbWeight;
use crate::k_select;
use crate::split::{
    circular_transform, clique_transform, recursive_star_transform, star_transform, udt_transform,
    TransformedGraph,
};
use crate::virtual_graph::VirtualGraph;

/// Where a graph comes from: a file on disk or a deterministic
/// generator invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// Load from a file; the cache key hashes the file's bytes, so
    /// editing the file invalidates cached artifacts.
    File(PathBuf),
    /// Generate deterministically from a tag and seed. Supported tags:
    ///
    /// * `dataset:<name>[:<denominator>[:weighted]]` — a paper dataset
    ///   proxy from `tigr_graph::datasets` at the given scale denominator
    ///   (default [`tigr_graph::datasets::DEFAULT_SCALE_DENOMINATOR`]).
    /// * `rmat:<scale>:<edge_factor>` — a Graph500 R-MAT instance.
    /// * `star:<nodes>` — a star graph (seed unused).
    /// * `ba:<nodes>:<edges_per_node>[:sym]` — Barabási–Albert.
    Generated {
        /// Generator tag (see variant docs for the grammar).
        tag: String,
        /// Generator seed.
        seed: u64,
    },
}

/// Physical split topology selector for [`PrepareSpec::transform`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformKind {
    /// Uniform-degree tree (§3.2, the paper's sweet spot).
    Udt,
    /// Single-level star (Figure 5c).
    Star,
    /// Recursive star.
    RecursiveStar,
    /// Circular chain (Figure 5b).
    Circular,
    /// Clique (Figure 5a).
    Clique,
}

impl TransformKind {
    /// Stable label used in canonical spec strings and CLI parsing.
    pub fn label(self) -> &'static str {
        match self {
            TransformKind::Udt => "udt",
            TransformKind::Star => "star",
            TransformKind::RecursiveStar => "recursive-star",
            TransformKind::Circular => "circular",
            TransformKind::Clique => "clique",
        }
    }

    /// Parses a label produced by [`TransformKind::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "udt" => TransformKind::Udt,
            "star" => TransformKind::Star,
            "recursive-star" => TransformKind::RecursiveStar,
            "circular" => TransformKind::Circular,
            "clique" => TransformKind::Clique,
            _ => return None,
        })
    }

    /// Applies the transform to `g` with degree bound `k`.
    pub fn apply(self, g: &Csr, k: u32, dumb: DumbWeight) -> TransformedGraph {
        match self {
            TransformKind::Udt => udt_transform(g, k, dumb),
            TransformKind::Star => star_transform(g, k, dumb),
            TransformKind::RecursiveStar => recursive_star_transform(g, k, dumb),
            TransformKind::Circular => circular_transform(g, k, dumb),
            TransformKind::Clique => clique_transform(g, k, dumb),
        }
    }
}

/// Physical-transform request inside a [`PrepareSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformSpec {
    /// Split topology to apply.
    pub kind: TransformKind,
    /// Degree bound; `None` selects [`k_select::physical_k`] for the
    /// resolved graph (deterministic per source).
    pub k: Option<u32>,
    /// Dumb-weight policy for introduced edges.
    pub dumb: DumbWeight,
}

/// A complete, hashable description of graph preparation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrepareSpec {
    /// Input graph source.
    pub source: GraphSource,
    /// Overlay `(lo, hi, seed)` uniform random weights after loading.
    pub uniform_weights: Option<(u32, u32, u64)>,
    /// Physical split transformation to apply.
    pub transform: Option<TransformSpec>,
    /// Build a virtual overlay with this degree bound `K`.
    pub virtual_k: Option<u32>,
    /// Use the coalesced (`Tigr-V+`) overlay layout.
    pub coalesced: bool,
    /// Build the transpose (and, for virtual specs, its mirrored
    /// overlay) — required for pull/auto direction.
    pub transpose: bool,
}

impl PrepareSpec {
    /// Spec loading `path` with no derived views.
    pub fn from_file(path: impl Into<PathBuf>) -> Self {
        PrepareSpec {
            source: GraphSource::File(path.into()),
            uniform_weights: None,
            transform: None,
            virtual_k: None,
            coalesced: false,
            transpose: false,
        }
    }

    /// Spec generating from `tag` + `seed` with no derived views.
    pub fn generated(tag: impl Into<String>, seed: u64) -> Self {
        PrepareSpec {
            source: GraphSource::Generated {
                tag: tag.into(),
                seed,
            },
            uniform_weights: None,
            transform: None,
            virtual_k: None,
            coalesced: false,
            transpose: false,
        }
    }

    /// Adds uniform random weights in `[lo, hi]` drawn with `seed`.
    #[must_use]
    pub fn with_uniform_weights(mut self, lo: u32, hi: u32, seed: u64) -> Self {
        self.uniform_weights = Some((lo, hi, seed));
        self
    }

    /// Requests a physical split transform.
    #[must_use]
    pub fn with_transform(mut self, kind: TransformKind, k: Option<u32>, dumb: DumbWeight) -> Self {
        self.transform = Some(TransformSpec { kind, k, dumb });
        self
    }

    /// Requests a virtual overlay with degree bound `k`.
    #[must_use]
    pub fn with_virtual(mut self, k: u32, coalesced: bool) -> Self {
        self.virtual_k = Some(k);
        self.coalesced = coalesced;
        self
    }

    /// Requests the transpose views (needed for pull/auto direction).
    #[must_use]
    pub fn with_transpose(mut self, yes: bool) -> Self {
        self.transpose = yes;
        self
    }

    /// The canonical spec string the cache key hashes, with the source
    /// identity resolved: file sources embed `content_hash`, generated
    /// sources their tag and seed.
    fn canonical(&self, content_hash: Option<u64>) -> String {
        let source = match (&self.source, content_hash) {
            (GraphSource::File(_), Some(h)) => format!("file:{h:016x}"),
            (GraphSource::File(p), None) => format!("file-path:{}", p.display()),
            (GraphSource::Generated { tag, seed }, _) => format!("gen:{tag}:{seed}"),
        };
        let weights = match self.uniform_weights {
            Some((lo, hi, seed)) => format!("{lo}:{hi}:{seed}"),
            None => "none".into(),
        };
        let transform = match &self.transform {
            Some(t) => format!(
                "{}:{}:{}",
                t.kind.label(),
                t.k.map_or_else(|| "auto".into(), |k| k.to_string()),
                match t.dumb {
                    DumbWeight::Zero => "zero",
                    DumbWeight::Infinity => "inf",
                    DumbWeight::Unweighted => "none",
                }
            ),
            None => "none".into(),
        };
        let overlay = match self.virtual_k {
            Some(k) if self.coalesced => format!("{k}:coalesced"),
            Some(k) => format!("{k}:consecutive"),
            None => "none".into(),
        };
        format!(
            "tigr-prepare-v2|source={source}|weights={weights}|transform={transform}|virtual={overlay}|transpose={}",
            self.transpose as u8
        )
    }
}

/// The derived views a graph carries, detached from any source spec —
/// what compaction must rebuild when it materializes a mutated CSR into
/// a fresh [`PreparedGraph`]. Physical split transforms are deliberately
/// absent: a physically transformed graph renumbers nodes, so the
/// mutation layer refuses to mutate one rather than guess a mapping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewPlan {
    /// Rebuild a virtual overlay with this degree bound `K` (re-splitting
    /// nodes whose degree crossed `K` since the base was prepared, per
    /// §4.1's split rule).
    pub virtual_k: Option<u32>,
    /// Use the coalesced (`Tigr-V+`) overlay layout.
    pub coalesced: bool,
    /// Rebuild the transpose (and mirrored overlay).
    pub transpose: bool,
}

impl ViewPlan {
    /// The plan that reproduces `p`'s derived views.
    pub fn from_prepared(p: &PreparedGraph) -> Self {
        ViewPlan {
            virtual_k: p.overlay().map(VirtualGraph::k),
            coalesced: p.overlay().is_some_and(VirtualGraph::is_coalesced),
            transpose: p.transpose().is_some(),
        }
    }

    /// Canonical artifact-spec string for a materialized CSR with this
    /// plan; `csr_hash` is an FNV-1a of the encoded CSR bytes, so the
    /// key tracks graph content exactly like file-source prepare keys.
    /// A compaction product also carries its `lineage` — the key of the
    /// prepare-keyed artifact whose `MANIFEST` will name it — so two
    /// mutable graphs that compact to byte-identical CSRs never share,
    /// and so never delete, each other's file.
    fn canonical(self, csr_hash: u64, lineage: Option<&str>) -> String {
        let overlay = match self.virtual_k {
            Some(k) if self.coalesced => format!("{k}:coalesced"),
            Some(k) => format!("{k}:consecutive"),
            None => "none".into(),
        };
        let lineage = lineage.map_or(String::new(), |key| format!("|lineage={key}"));
        format!(
            "tigr-compact-v1|csr={csr_hash:016x}|virtual={overlay}|transpose={}{lineage}",
            self.transpose as u8
        )
    }
}

/// How a [`PreparedGraph`]'s views ended up in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Views borrow a memory-mapped artifact; payload bytes were never
    /// copied onto the heap.
    Mapped,
    /// Views were decoded from an artifact into owned heap arrays,
    /// because the platform has no `mmap` or alignment defeated the
    /// in-place view.
    Decoded,
    /// Views were derived from the source (cache miss or caching off).
    Built,
}

impl OpenMode {
    /// Stable lowercase label (`mapped`/`decoded`/`built`).
    pub fn label(self) -> &'static str {
        match self {
            OpenMode::Mapped => "mapped",
            OpenMode::Decoded => "decoded",
            OpenMode::Built => "built",
        }
    }
}

/// How a [`PreparedGraph`] was opened: mode, verification level, wall
/// time, and where its view bytes live (mapped segment vs heap).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenInfo {
    /// How the views came to be (mapped / decoded / built).
    pub mode: OpenMode,
    /// Verification level the open used (meaningless for `Built`).
    pub verify: VerifyMode,
    /// Wall-clock microseconds the open (or build) took.
    pub open_us: u64,
    /// View bytes served from a mapped segment.
    pub mapped_bytes: usize,
    /// View bytes owned on the heap.
    pub heap_bytes: usize,
}

/// Outcome of the cache consultation for one [`GraphStore::prepare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Artifact found and loaded; no derivation work performed.
    Hit,
    /// No valid artifact; views were built (and the artifact written).
    Miss,
    /// The store has no cache directory.
    Disabled,
}

impl CacheStatus {
    /// Stable lowercase label (`hit`/`miss`/`off`).
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Disabled => "off",
        }
    }
}

/// What [`GraphStore::prepare`] did: cache outcome plus the number of
/// derivation steps actually executed (all zero on a hit).
#[derive(Clone, Debug)]
pub struct PrepareReport {
    /// Cache outcome.
    pub cache: CacheStatus,
    /// Cache key (16 hex digits), also the artifact file stem.
    pub key: String,
    /// Artifact path consulted/written, when caching is enabled.
    pub artifact: Option<PathBuf>,
    /// Physical split transforms built this call.
    pub transforms_built: u32,
    /// Transposes built this call.
    pub transposes_built: u32,
    /// Virtual overlays built this call (forward and reverse count
    /// separately).
    pub overlays_built: u32,
}

impl PrepareReport {
    /// Total derivation steps executed (`0` proves a warm run).
    pub fn work_items(&self) -> u32 {
        self.transforms_built + self.transposes_built + self.overlays_built
    }
}

/// A graph together with every derived view its spec requested, all
/// owned — the engine borrows from this one struct instead of each call
/// site threading separately constructed pieces.
pub struct PreparedGraph {
    graph: Csr,
    transpose: Option<Csr>,
    overlay: Option<VirtualGraph>,
    rev_overlay: Option<VirtualGraph>,
    transformed: Option<TransformedGraph>,
    report: PrepareReport,
    /// Backing segment when views borrow a mapped (or owned-container)
    /// artifact; keeps the mapping alive for the views' lifetime.
    segment: Option<Arc<Segment>>,
    open: OpenInfo,
}

impl PreparedGraph {
    /// The base (post-weights) graph.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The transpose of [`Self::graph`], when the spec requested it.
    pub fn transpose(&self) -> Option<&Csr> {
        self.transpose.as_ref()
    }

    /// The forward virtual overlay, when the spec requested one.
    pub fn overlay(&self) -> Option<&VirtualGraph> {
        self.overlay.as_ref()
    }

    /// The overlay mirrored onto the transpose (present iff both
    /// `virtual_k` and `transpose` were requested).
    pub fn rev_overlay(&self) -> Option<&VirtualGraph> {
        self.rev_overlay.as_ref()
    }

    /// The physical split transform, when the spec requested one.
    pub fn transformed(&self) -> Option<&TransformedGraph> {
        self.transformed.as_ref()
    }

    /// What preparation did (cache outcome, work counters).
    pub fn report(&self) -> &PrepareReport {
        &self.report
    }

    /// How the views were opened (mode, wall time, byte accounting).
    pub fn open_info(&self) -> &OpenInfo {
        &self.open
    }

    /// `true` when the views borrow a memory-mapped artifact.
    pub fn is_mapped(&self) -> bool {
        self.open.mode == OpenMode::Mapped
    }

    /// The artifact segment backing mapped views, when there is one.
    pub fn segment(&self) -> Option<&Arc<Segment>> {
        self.segment.as_ref()
    }

    /// The artifact sections of every view, CSR first, each array
    /// borrowed in place.
    fn sections(&self) -> Vec<SectionParts<'_>> {
        let mut sections = vec![SectionParts::csr(SECTION_CSR, &self.graph)];
        sections.extend(
            self.transpose
                .as_ref()
                .map(|t| SectionParts::csr(SECTION_TRANSPOSE, t)),
        );
        sections.extend(self.overlay.as_ref().map(|vg| vg.section(SECTION_OVERLAY)));
        sections.extend(
            self.rev_overlay
                .as_ref()
                .map(|vg| vg.section(SECTION_REV_OVERLAY)),
        );
        sections.extend(self.transformed.as_ref().map(TransformedGraph::section));
        sections
    }

    /// Sums mapped-vs-heap bytes across every view.
    fn tally_bytes(&self) -> (usize, usize) {
        let mut mapped = self.graph.mapped_bytes();
        let mut heap = self.graph.heap_bytes();
        if let Some(t) = &self.transpose {
            mapped += t.mapped_bytes();
            heap += t.heap_bytes();
        }
        for vg in [&self.overlay, &self.rev_overlay].into_iter().flatten() {
            mapped += vg.mapped_bytes();
            heap += vg.heap_bytes();
        }
        if let Some(t) = &self.transformed {
            heap += t.graph().heap_bytes();
        }
        (mapped, heap)
    }

    /// Installs the open record, deriving the byte tallies and
    /// downgrading `Mapped` to `Decoded` when the views did not actually
    /// end up borrowing a mapping (alignment or platform fallback).
    fn finish_open(&mut self, mode: OpenMode, verify: VerifyMode, started: Instant) {
        let (mapped_bytes, heap_bytes) = self.tally_bytes();
        let mode = if mode == OpenMode::Mapped && mapped_bytes == 0 {
            OpenMode::Decoded
        } else {
            mode
        };
        self.open = OpenInfo {
            mode,
            verify,
            open_us: started.elapsed().as_micros() as u64,
            mapped_bytes,
            heap_bytes,
        };
    }

    /// Consumes the prepared graph, returning the owned base CSR (for
    /// callers that only need the graph itself).
    pub fn into_graph(self) -> Csr {
        self.graph
    }
}

impl fmt::Debug for PreparedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedGraph")
            .field("nodes", &self.graph.num_nodes())
            .field("edges", &self.graph.num_edges())
            .field("transpose", &self.transpose.is_some())
            .field("overlay", &self.overlay.is_some())
            .field("transformed", &self.transformed.is_some())
            .field("cache", &self.report.cache)
            .field("open", &self.open.mode)
            .finish()
    }
}

/// Resolves [`PrepareSpec`]s into [`PreparedGraph`]s through an optional
/// on-disk artifact cache.
#[derive(Clone, Debug)]
pub struct GraphStore {
    cache_dir: Option<PathBuf>,
    verify: VerifyMode,
}

impl GraphStore {
    /// Store caching under `cache_dir` (`None` disables caching), with
    /// eager verification.
    pub fn new(cache_dir: Option<PathBuf>) -> Self {
        GraphStore {
            cache_dir,
            verify: VerifyMode::default(),
        }
    }

    /// Store with caching disabled.
    pub fn disabled() -> Self {
        GraphStore::new(None)
    }

    /// Store configured from the environment: `TIGR_CACHE_DIR` for the
    /// cache directory and `TIGR_VERIFY` (`eager`/`lazy`) for artifact
    /// verification. Unset or unrecognized values fall back to the
    /// defaults.
    pub fn from_env() -> Self {
        let verify = std::env::var("TIGR_VERIFY")
            .ok()
            .and_then(|s| VerifyMode::parse(&s))
            .unwrap_or_default();
        GraphStore {
            cache_dir: std::env::var_os("TIGR_CACHE_DIR").map(PathBuf::from),
            verify,
        }
    }

    /// Replaces the cache directory, keeping the verify policy.
    #[must_use]
    pub fn with_cache_dir(mut self, cache_dir: Option<PathBuf>) -> Self {
        self.cache_dir = cache_dir;
        self
    }

    /// Sets the verification level for artifact opens.
    #[must_use]
    pub fn with_verify(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// The configured cache directory, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The configured verification level.
    pub fn verify(&self) -> VerifyMode {
        self.verify
    }

    /// Resolves `spec` into a [`PreparedGraph`]: maps a cached artifact
    /// when one matches, otherwise loads/generates the graph, builds the
    /// requested views, and (if caching is enabled) writes the artifact,
    /// keeping the views it just built.
    ///
    /// A corrupt or stale artifact is treated as a miss and rebuilt; the
    /// condition is reported on stderr but never fails the call.
    ///
    /// Resolution is safe under concurrency: any number of threads (or
    /// processes) may warm the same key at once. Each racer writes the
    /// artifact through its own uniquely named temp file and publishes it
    /// with an atomic rename, so every racer succeeds and returns a
    /// coherent [`PreparedGraph`]; the artifacts are byte-identical, so
    /// it does not matter whose rename lands last.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] when the source cannot be loaded or the
    /// generator tag is malformed.
    pub fn prepare(&self, spec: &PrepareSpec) -> Result<PreparedGraph> {
        self.prepare_cancellable(spec, &CancelToken::never())
    }

    /// [`GraphStore::prepare`] with a cooperative cancellation hook: the
    /// token is polled between derivation steps (after the source
    /// resolves, and before each transform / overlay / transpose build),
    /// so a deadline-bound caller never waits out an expensive
    /// derivation it no longer wants. A fired token aborts with
    /// [`GraphError::Cancelled`] and writes no artifact.
    ///
    /// # Errors
    ///
    /// Everything [`GraphStore::prepare`] returns, plus
    /// [`GraphError::Cancelled`] when `cancel` fires mid-derivation.
    pub fn prepare_cancellable(
        &self,
        spec: &PrepareSpec,
        cancel: &CancelToken,
    ) -> Result<PreparedGraph> {
        // Resolve the source identity first: file bytes are read exactly
        // once and reused for parsing on a miss.
        let file_bytes = match &spec.source {
            GraphSource::File(path) => Some(fs::read(path)?),
            GraphSource::Generated { .. } => None,
        };
        let canonical = spec.canonical(file_bytes.as_deref().map(fnv1a64));
        let key = format!("{:016x}", fnv1a64(canonical.as_bytes()));
        let artifact = self
            .cache_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.tigr")));
        let plan = ViewPlan {
            virtual_k: spec.virtual_k,
            coalesced: spec.coalesced,
            transpose: spec.transpose,
        };

        if let Some(path) = &artifact {
            if path.exists() {
                let transform = spec.transform.is_some();
                match load_artifact(path, plan, transform, &canonical, self.verify) {
                    Ok(mut prepared) => {
                        prepared.report = PrepareReport {
                            cache: CacheStatus::Hit,
                            key,
                            artifact: artifact.clone(),
                            transforms_built: 0,
                            transposes_built: 0,
                            overlays_built: 0,
                        };
                        // A half-created cache entry (artifact renamed
                        // into place, WAL directory lost with the crash)
                        // must open cleanly: recreate the WAL dir
                        // idempotently on every hit.
                        ensure_wal_dir(path);
                        return Ok(prepared);
                    }
                    Err(e) => {
                        eprintln!(
                            "tigr: cache artifact {} unusable ({e}); rebuilding",
                            path.display()
                        );
                    }
                }
            }
        }

        if cancel.is_cancelled() {
            return Err(GraphError::Cancelled);
        }
        let started = Instant::now();
        let mut graph = match &spec.source {
            GraphSource::File(path) => parse_graph_bytes(path, &file_bytes.unwrap())?,
            GraphSource::Generated { tag, seed } => generate_from_tag(tag, *seed)?,
        };
        if let Some((lo, hi, seed)) = spec.uniform_weights {
            graph = generators::with_uniform_weights(&graph, lo, hi, seed);
        }

        if cancel.is_cancelled() {
            return Err(GraphError::Cancelled);
        }
        let transformed = spec.transform.as_ref().map(|t| {
            let k = t.k.unwrap_or_else(|| k_select::physical_k(&graph));
            t.kind.apply(&graph, k, t.dumb)
        });
        let built = self.derive_and_write(
            graph,
            transformed,
            plan,
            cancel,
            started,
            Echo::Spec(&canonical),
        )?;
        if let (Some(path), Err(e)) = (&artifact, &built.written) {
            eprintln!(
                "tigr: failed to write cache artifact {} ({e})",
                path.display()
            );
        }
        Ok(built.prepared)
    }

    /// Materializes an in-memory CSR into a [`PreparedGraph`], rebuilding
    /// the derived views `plan` names and — when caching is enabled —
    /// sealing the result into a fresh `TIGRCSR2` artifact (with its WAL
    /// directory) keyed by the CSR's content. The virtual overlay is
    /// rebuilt from scratch, so nodes whose degree crossed `K` are split
    /// exactly as a cold prepare of the same edge list would split them.
    /// A failed artifact write is reported on stderr and the in-memory
    /// views are returned all the same.
    pub fn materialize(&self, graph: Csr, plan: ViewPlan) -> Result<PreparedGraph> {
        let sealed = self.seal(graph, plan, None)?;
        if let (Some(path), Err(e)) = (&sealed.prepared.report().artifact, &sealed.written) {
            eprintln!(
                "tigr: failed to write materialized artifact {} ({e})",
                path.display()
            );
        }
        Ok(sealed.prepared)
    }

    /// The compaction path behind [`GraphStore::materialize`]: base+delta
    /// has already been merged into `graph`. The artifact is keyed by the
    /// CSR section's checksum, taken in the same parallel pass that
    /// hashes every other section. With a `lineage` (the original
    /// artifact's key) the product is that mutable graph's alone and gets
    /// no WAL directory of its own: its log stays beside the original.
    pub(crate) fn seal(&self, graph: Csr, plan: ViewPlan, lineage: Option<&str>) -> Result<Sealed> {
        self.derive_and_write(
            graph,
            None,
            plan,
            &CancelToken::never(),
            Instant::now(),
            Echo::Compacted(lineage),
        )
    }

    /// The one build path behind [`GraphStore::prepare`] and
    /// [`GraphStore::seal`]: derives the overlay, transpose and reverse
    /// overlay `plan` names over `graph` (polling `cancel` before each),
    /// then — when the store caches — hashes every section in parallel
    /// and streams the artifact from the views' own arrays. `echo` names
    /// the artifact; `started` is when building `graph` began.
    fn derive_and_write(
        &self,
        graph: Csr,
        transformed: Option<TransformedGraph>,
        plan: ViewPlan,
        cancel: &CancelToken,
        started: Instant,
        echo: Echo<'_>,
    ) -> Result<Sealed> {
        let overlay_of = |g: &Csr, k| {
            if plan.coalesced {
                VirtualGraph::coalesced(g, k)
            } else {
                VirtualGraph::new(g, k)
            }
        };
        let step = || {
            if cancel.is_cancelled() {
                Err(GraphError::Cancelled)
            } else {
                Ok(())
            }
        };
        step()?;
        let overlay = plan.virtual_k.map(|k| overlay_of(&graph, k));
        step()?;
        let rev = plan.transpose.then(|| transpose(&graph));
        step()?;
        let rev_overlay = rev
            .as_ref()
            .zip(plan.virtual_k)
            .map(|(t, k)| overlay_of(t, k));

        let mut prepared = PreparedGraph {
            graph,
            transpose: rev,
            overlay,
            rev_overlay,
            transformed,
            report: placeholder_report(),
            segment: None,
            open: PLACEHOLDER_OPEN,
        };
        prepared.finish_open(OpenMode::Built, self.verify, started);

        let sections = prepared.sections();
        let cache = self.cache_dir.is_some();
        let (canonical, sums) = match echo {
            Echo::Spec(canonical) if cache => (canonical.to_owned(), io::checksums(&sections)),
            Echo::Spec(canonical) => (canonical.to_owned(), Vec::new()),
            Echo::Compacted(lineage) => {
                // The CSR section's checksum keys the product; with no
                // cache it is the only one needed.
                let sums = io::checksums(if cache { &sections } else { &sections[..1] });
                (plan.canonical(sums[0], lineage), sums)
            }
        };
        let key = format!("{:016x}", fnv1a64(canonical.as_bytes()));
        let artifact = self
            .cache_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.tigr")));
        let written = match &artifact {
            Some(path) => {
                if !matches!(echo, Echo::Compacted(Some(_))) {
                    ensure_wal_dir(path);
                }
                write_artifact(path, &canonical, sections, &sums)
            }
            None => Ok(()),
        };
        prepared.report = PrepareReport {
            cache: if artifact.is_some() {
                CacheStatus::Miss
            } else {
                CacheStatus::Disabled
            },
            key,
            artifact,
            transforms_built: prepared.transformed.is_some() as u32,
            transposes_built: prepared.transpose.is_some() as u32,
            overlays_built: prepared.overlay.is_some() as u32
                + prepared.rev_overlay.is_some() as u32,
        };
        Ok(Sealed {
            prepared,
            canonical,
            written,
        })
    }

    /// Re-opens an artifact previously sealed by [`GraphStore::seal`]
    /// (compaction's MANIFEST redirect path). The embedded spec echo must
    /// match `canonical` — a mismatch (stale manifest, evicted-and-reused
    /// key) is an error the caller downgrades to replaying the full WAL
    /// over the original base.
    pub(crate) fn open_materialized(
        &self,
        artifact: &Path,
        plan: ViewPlan,
        canonical: &str,
    ) -> Result<PreparedGraph> {
        let mut prepared = load_artifact(artifact, plan, false, canonical, self.verify)?;
        prepared.report = PrepareReport {
            cache: CacheStatus::Hit,
            key: artifact
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string(),
            artifact: Some(artifact.to_path_buf()),
            transforms_built: 0,
            transposes_built: 0,
            overlays_built: 0,
        };
        Ok(prepared)
    }
}

/// What names a derived artifact: its spec echo, which the key hashes.
enum Echo<'a> {
    /// A prepare's canonical spec string, known before anything is built.
    Spec(&'a str),
    /// A compaction product's, keyed by the CSR section's checksum and
    /// carrying the lineage of the mutable graph it belongs to, if any.
    Compacted(Option<&'a str>),
}

/// What [`GraphStore::seal`] produced: the views, the canonical string
/// the artifact echoes (a `MANIFEST` repeats it), and whether the
/// artifact is durably on disk (`Ok` too when the store has no cache).
pub(crate) struct Sealed {
    pub(crate) prepared: PreparedGraph,
    pub(crate) canonical: String,
    pub(crate) written: Result<()>,
}

/// Whether `canonical` (a compaction product's spec echo, as a `MANIFEST`
/// repeats it) carries the lineage `key` — [`ViewPlan::canonical`]'s
/// suffix, recognised here so the format lives in one module.
pub(crate) fn carries_lineage(canonical: &str, key: &str) -> bool {
    canonical.ends_with(&format!("|lineage={key}"))
}

/// The WAL directory paired with an artifact path: `<key>.tigr` keeps
/// its mutation log under `<key>.wal/`.
pub fn wal_dir_for(artifact: &Path) -> PathBuf {
    artifact.with_extension("wal")
}

/// Creates the artifact's WAL directory idempotently (`mkdir` is atomic:
/// concurrent racers all succeed). Failure is reported but never fails
/// the open — a read-only cache still serves immutable graphs.
fn ensure_wal_dir(artifact: &Path) {
    let dir = wal_dir_for(artifact);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("tigr: could not create WAL dir {} ({e})", dir.display());
    }
}

/// Open record used while a [`PreparedGraph`] is under construction,
/// before [`PreparedGraph::finish_open`] installs the real one.
const PLACEHOLDER_OPEN: OpenInfo = OpenInfo {
    mode: OpenMode::Built,
    verify: VerifyMode::Eager,
    open_us: 0,
    mapped_bytes: 0,
    heap_bytes: 0,
};

/// Parses graph bytes using the format implied by `path`'s extension
/// (mirrors `tigr_graph::io::load_path`, but over already-read bytes).
fn parse_graph_bytes(path: &Path, bytes: &[u8]) -> Result<Csr> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_lowercase();
    match ext.as_str() {
        "bin" | "tigr" => io::read_binary(bytes),
        "mtx" => io::parse_matrix_market(bytes),
        "gr" => io::parse_dimacs(bytes),
        _ => io::parse_edge_list(bytes),
    }
}

/// Resolves a generator tag (see [`GraphSource::Generated`]).
fn generate_from_tag(tag: &str, seed: u64) -> Result<Csr> {
    let bad = |msg: String| GraphError::InvalidFormat(msg);
    let parts: Vec<&str> = tag.split(':').collect();
    let int = |s: &str, what: &str| -> Result<u64> {
        s.parse::<u64>()
            .map_err(|_| bad(format!("generator tag `{tag}`: invalid {what} `{s}`")))
    };
    match parts.as_slice() {
        ["dataset", name, rest @ ..] => {
            let ds = tigr_graph::datasets::by_name(name)
                .ok_or_else(|| bad(format!("unknown dataset `{name}` in tag `{tag}`")))?;
            let (denom, weighted) = match rest {
                [] => (tigr_graph::datasets::DEFAULT_SCALE_DENOMINATOR, false),
                [d] => (int(d, "denominator")?, false),
                [d, "weighted"] => (int(d, "denominator")?, true),
                _ => return Err(bad(format!("malformed dataset tag `{tag}`"))),
            };
            Ok(if weighted {
                ds.generate_weighted(denom, seed)
            } else {
                ds.generate(denom, seed)
            })
        }
        ["rmat", scale, ef] => {
            let config = generators::RmatConfig::graph500(
                int(scale, "scale")? as u32,
                int(ef, "edge factor")? as usize,
            );
            Ok(generators::rmat(&config, seed))
        }
        ["star", n] => Ok(generators::star_graph(int(n, "node count")? as usize)),
        ["ba", n, m, rest @ ..] => {
            let symmetric = match rest {
                [] => false,
                ["sym"] => true,
                _ => return Err(bad(format!("malformed ba tag `{tag}`"))),
            };
            let config = generators::BarabasiAlbertConfig {
                num_nodes: int(n, "node count")? as usize,
                edges_per_node: int(m, "edges per node")? as usize,
                symmetric,
            };
            Ok(generators::barabasi_albert(&config, seed))
        }
        _ => Err(bad(format!("unknown generator tag `{tag}`"))),
    }
}

/// Placeholder report installed while views are built or loaded; the
/// caller overwrites it with the real cache outcome.
fn placeholder_report() -> PrepareReport {
    PrepareReport {
        cache: CacheStatus::Hit,
        key: String::new(),
        artifact: None,
        transforms_built: 0,
        transposes_built: 0,
        overlays_built: 0,
    }
}

/// Opens a cached artifact and checks it against what the caller needs:
/// the embedded spec echo must equal `canonical`, and every view `plan`
/// names (plus the transform section, when `transform`) must be
/// present. Any failure is an error the caller downgrades to a miss.
///
/// The artifact is opened through [`MappedContainer`]: the section table
/// is validated (and, under eager verification, every payload checksum),
/// then the CSR and overlay tables borrow the mapping in place. Where the
/// platform has no `mmap`, or alignment defeats the in-place view, the
/// container reads into owned memory and the open reports
/// [`OpenMode::Decoded`].
fn load_artifact(
    path: &Path,
    plan: ViewPlan,
    transform: bool,
    canonical: &str,
    verify: VerifyMode,
) -> Result<PreparedGraph> {
    let started = Instant::now();
    let container = MappedContainer::open(path, verify)?;
    let stale = |what: &str| GraphError::InvalidFormat(format!("artifact {what}"));
    let invalid = GraphError::InvalidFormat;

    let echoed = container
        .section_bytes(SECTION_SPEC)
        .ok_or_else(|| stale("has no spec section"))?;
    if echoed != canonical.as_bytes() {
        return Err(stale("spec echo mismatch (stale or hash collision)"));
    }
    let graph = container
        .csr(SECTION_CSR)?
        .ok_or_else(|| stale("has no CSR section"))?;
    let rev = if plan.transpose {
        Some(
            container
                .csr(SECTION_TRANSPOSE)?
                .ok_or_else(|| stale("lacks required transpose section"))?,
        )
    } else {
        None
    };
    let deep_validate = verify == VerifyMode::Eager;
    let overlay = if plan.virtual_k.is_some() {
        let vg = VirtualGraph::from_container(&container, SECTION_OVERLAY, deep_validate)
            .map_err(invalid)?
            .ok_or_else(|| stale("lacks required overlay section"))?;
        if vg.num_physical_nodes() != graph.num_nodes() {
            return Err(stale("overlay does not match CSR"));
        }
        Some(vg)
    } else {
        None
    };
    let rev_overlay = match (&rev, plan.virtual_k) {
        (Some(rev), Some(_)) => {
            let vg = VirtualGraph::from_container(&container, SECTION_REV_OVERLAY, deep_validate)
                .map_err(invalid)?
                .ok_or_else(|| stale("lacks required reverse-overlay section"))?;
            if vg.num_physical_nodes() != rev.num_nodes() {
                return Err(stale("reverse overlay does not match transpose"));
            }
            Some(vg)
        }
        _ => None,
    };
    let transformed = if transform {
        let bytes = container
            .section_bytes(SECTION_TRANSFORM)
            .ok_or_else(|| stale("lacks required transform section"))?;
        Some(TransformedGraph::from_section_bytes(bytes).map_err(invalid)?)
    } else {
        None
    };

    let mode = if container.is_mapped() {
        OpenMode::Mapped
    } else {
        OpenMode::Decoded
    };
    let mut prepared = PreparedGraph {
        graph,
        transpose: rev,
        overlay,
        rev_overlay,
        transformed,
        report: placeholder_report(),
        segment: Some(Arc::clone(container.segment())),
        open: PLACEHOLDER_OPEN,
    };
    prepared.finish_open(mode, verify, started);
    Ok(prepared)
}

/// Monotone counter distinguishing concurrent temp files within one
/// process; the process id alone is not unique across threads racing
/// the same key.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes the artifact atomically through a uniquely named temp file
/// (see [`replace_file`]), so a concurrent reader never observes a
/// partial container and same-key racers never clobber each other's
/// in-progress temp file. `views` are `prepared`'s sections with their
/// `checksums`; the spec echo `canonical` goes first.
fn write_artifact(
    path: &Path,
    canonical: &str,
    views: Vec<SectionParts<'_>>,
    checksums: &[u64],
) -> Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut sections = vec![SectionParts::new(SECTION_SPEC).bytes(canonical.as_bytes())];
    sections.extend(views);
    let mut sums = vec![fnv1a64(canonical.as_bytes())];
    sums.extend_from_slice(checksums);
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    replace_file(path, &tmp, |file| {
        io::write_sections(&sections, &sums, file)
    })
}

/// Replaces `path` durably and atomically: `write` fills the fresh file
/// `tmp`, which is fsync'd before it is renamed over `path` (so the
/// rename never publishes a name for unwritten data), and the directory
/// is fsync'd after (so the rename itself survives a crash). Without
/// these a power loss can leave a valid-looking path whose bytes were
/// lost with the page cache. On any failure `tmp` is unlinked: a failed
/// write leaves no file behind.
pub(crate) fn replace_file<E: From<std::io::Error>>(
    path: &Path,
    tmp: &Path,
    write: impl FnOnce(&mut fs::File) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let publish = || {
        let mut file = fs::File::create(tmp)?;
        write(&mut file)?;
        file.sync_all()?;
        fs::rename(tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    };
    let published = publish();
    if published.is_err() {
        let _ = fs::remove_file(tmp);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tigr_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn full_spec() -> PrepareSpec {
        PrepareSpec::generated("rmat:8:8", 42)
            .with_uniform_weights(1, 64, 7)
            .with_virtual(8, true)
            .with_transpose(true)
    }

    #[test]
    fn disabled_store_builds_everything() {
        let store = GraphStore::disabled();
        let p = store.prepare(&full_spec()).unwrap();
        assert_eq!(p.report().cache, CacheStatus::Disabled);
        assert_eq!(p.report().transposes_built, 1);
        assert_eq!(p.report().overlays_built, 2);
        assert!(p.transpose().is_some());
        assert!(p.overlay().unwrap().is_coalesced());
        assert!(p.rev_overlay().is_some());
        p.overlay().unwrap().validate_against(p.graph()).unwrap();
        p.rev_overlay()
            .unwrap()
            .validate_against(p.transpose().unwrap())
            .unwrap();
    }

    #[test]
    fn miss_then_hit_with_zero_work() {
        let dir = temp_dir("hit");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = full_spec();

        let first = store.prepare(&spec).unwrap();
        assert_eq!(first.report().cache, CacheStatus::Miss);
        assert!(first.report().work_items() > 0);
        assert!(first.report().artifact.as_ref().unwrap().exists());

        let second = store.prepare(&spec).unwrap();
        assert_eq!(second.report().cache, CacheStatus::Hit);
        assert_eq!(second.report().work_items(), 0);
        assert_eq!(second.graph(), first.graph());
        assert_eq!(second.transpose(), first.transpose());
        assert_eq!(second.overlay(), first.overlay());
        assert_eq!(second.rev_overlay(), first.rev_overlay());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_mutation_changes_key() {
        let dir = temp_dir("mutate");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = full_spec();
        let base = store.prepare(&spec).unwrap();

        for mutated in [
            PrepareSpec {
                virtual_k: Some(9),
                ..spec.clone()
            },
            PrepareSpec {
                coalesced: false,
                ..spec.clone()
            },
            PrepareSpec {
                transpose: false,
                ..spec.clone()
            },
            spec.clone()
                .with_transform(TransformKind::Udt, Some(4), DumbWeight::Zero),
            PrepareSpec {
                source: GraphSource::Generated {
                    tag: "rmat:8:8".into(),
                    seed: 43,
                },
                ..spec.clone()
            },
        ] {
            let p = store.prepare(&mutated).unwrap();
            assert_eq!(p.report().cache, CacheStatus::Miss, "{mutated:?}");
            assert_ne!(p.report().key, base.report().key, "{mutated:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifacts_are_byte_identical_across_writes() {
        let dir_a = temp_dir("det_a");
        let dir_b = temp_dir("det_b");
        let spec = full_spec().with_transform(TransformKind::Udt, None, DumbWeight::Zero);
        let a = GraphStore::new(Some(dir_a.clone())).prepare(&spec).unwrap();
        let b = GraphStore::new(Some(dir_b.clone())).prepare(&spec).unwrap();
        let bytes_a = fs::read(a.report().artifact.as_ref().unwrap()).unwrap();
        let bytes_b = fs::read(b.report().artifact.as_ref().unwrap()).unwrap();
        assert_eq!(bytes_a, bytes_b);
        // ... and across commits: the digest of this artifact as the
        // commit before the container writer stopped re-hashing wrote it.
        assert_eq!(bytes_a.len(), 74_890);
        assert_eq!(fnv1a64(&bytes_a), 0xf481_687e_09bc_9576);
        fs::remove_dir_all(&dir_a).ok();
        fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn corrupt_artifact_is_rebuilt() {
        let dir = temp_dir("corrupt");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = full_spec();
        let first = store.prepare(&spec).unwrap();
        let path = first.report().artifact.clone().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let second = store.prepare(&spec).unwrap();
        assert_eq!(second.report().cache, CacheStatus::Miss);
        assert_eq!(second.graph(), first.graph());
        // The rebuild restored a valid artifact.
        let third = store.prepare(&spec).unwrap();
        assert_eq!(third.report().cache, CacheStatus::Hit);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_key_tracks_content() {
        let dir = temp_dir("file");
        let input = dir.join("g.el");
        fs::write(&input, "0 1\n1 2\n").unwrap();
        let store = GraphStore::new(Some(dir.clone()));
        let spec = PrepareSpec::from_file(&input).with_transpose(true);

        let first = store.prepare(&spec).unwrap();
        assert_eq!(first.report().cache, CacheStatus::Miss);
        assert_eq!(
            store.prepare(&spec).unwrap().report().cache,
            CacheStatus::Hit
        );

        // Editing the file invalidates the key.
        fs::write(&input, "0 1\n1 2\n2 0\n").unwrap();
        let third = store.prepare(&spec).unwrap();
        assert_eq!(third.report().cache, CacheStatus::Miss);
        assert_ne!(third.report().key, first.report().key);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transform_spec_round_trips_through_cache() {
        let dir = temp_dir("transform");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = PrepareSpec::generated("star:40", 0).with_transform(
            TransformKind::Udt,
            Some(4),
            DumbWeight::Zero,
        );
        let first = store.prepare(&spec).unwrap();
        assert_eq!(first.report().transforms_built, 1);
        let second = store.prepare(&spec).unwrap();
        assert_eq!(second.report().cache, CacheStatus::Hit);
        let (a, b) = (first.transformed().unwrap(), second.transformed().unwrap());
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.topology(), b.topology());
        assert_eq!(a.num_new_edges(), b.num_new_edges());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_warmup_of_same_key_both_succeed() {
        use std::sync::{Arc, Barrier};

        let dir = temp_dir("race");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = full_spec();
        let barrier = Arc::new(Barrier::new(2));

        let handles: Vec<_> = (0..2)
            .map(|_| {
                let store = store.clone();
                let spec = spec.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store.prepare(&spec).unwrap()
                })
            })
            .collect();
        let results: Vec<PreparedGraph> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Both racers return coherent, equal prepared graphs.
        assert_eq!(results[0].graph(), results[1].graph());
        assert_eq!(results[0].transpose(), results[1].transpose());
        assert_eq!(results[0].overlay(), results[1].overlay());
        assert_eq!(results[0].rev_overlay(), results[1].rev_overlay());
        assert_eq!(results[0].report().key, results[1].report().key);

        // Whoever renamed last left a valid artifact; no stray temp
        // files survive the race.
        let after = store.prepare(&spec).unwrap();
        assert_eq!(after.report().cache, CacheStatus::Hit);
        assert_eq!(after.graph(), results[0].graph());
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(!name.contains("tmp"), "leftover temp file {name}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_prepare_aborts_without_artifact() {
        let dir = temp_dir("cancel");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = full_spec();

        let token = CancelToken::new();
        token.cancel();
        match store.prepare_cancellable(&spec, &token) {
            Err(GraphError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // No artifact was written for the aborted derivation.
        let probe = store.prepare(&spec).unwrap();
        assert_eq!(probe.report().cache, CacheStatus::Miss);

        // An inert token leaves behaviour identical to plain prepare.
        let warm = store
            .prepare_cancellable(&spec, &CancelToken::never())
            .unwrap();
        assert_eq!(warm.report().cache, CacheStatus::Hit);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepared_graph_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The server shares PreparedGraphs across worker threads via
        // Arc<PreparedGraph>; that requires Send + Sync here.
        assert_send_sync::<PreparedGraph>();
        assert_send_sync::<GraphStore>();
        assert_send_sync::<PrepareReport>();
    }

    /// Whether this target supports the zero-copy open path at all
    /// (elsewhere the container transparently decodes).
    fn zero_copy_target() -> bool {
        cfg!(all(
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        ))
    }

    #[test]
    fn open_mode_labels() {
        assert_eq!(OpenMode::Mapped.label(), "mapped");
        assert_eq!(OpenMode::Decoded.label(), "decoded");
        assert_eq!(OpenMode::Built.label(), "built");
    }

    #[test]
    fn mapped_hit_equals_the_built_miss() {
        let dir = temp_dir("mmap_equiv");
        let spec = full_spec().with_transform(TransformKind::Udt, Some(4), DumbWeight::Zero);
        let store = GraphStore::new(Some(dir.clone()));
        let built = store.prepare(&spec).unwrap();
        assert_eq!(built.report().cache, CacheStatus::Miss);
        assert_eq!(built.open_info().mode, OpenMode::Built);
        assert!(built.segment().is_none());

        let mapped = store.prepare(&spec).unwrap();
        assert_eq!(mapped.report().cache, CacheStatus::Hit);
        if zero_copy_target() {
            assert_eq!(mapped.open_info().mode, OpenMode::Mapped);
            assert!(mapped.open_info().mapped_bytes > 0);
            assert!(mapped.segment().is_some());
            assert!(mapped.graph().is_mapped());
            assert!(mapped.transpose().unwrap().is_mapped());
            assert!(mapped.overlay().unwrap().is_mapped());
            assert!(mapped.rev_overlay().unwrap().is_mapped());
        }

        // The views are value-identical regardless of where the bytes
        // live.
        assert_eq!(mapped.graph(), built.graph());
        assert_eq!(mapped.transpose(), built.transpose());
        assert_eq!(mapped.overlay(), built.overlay());
        assert_eq!(mapped.rev_overlay(), built.rev_overlay());
        assert_eq!(
            mapped.transformed().unwrap().graph(),
            built.transformed().unwrap().graph()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_verify_hit_matches_eager_hit() {
        let dir = temp_dir("lazy");
        let spec = full_spec();
        let eager = GraphStore::new(Some(dir.clone()));
        let reference = eager.prepare(&spec).unwrap();

        let lazy = GraphStore::new(Some(dir.clone())).with_verify(VerifyMode::Lazy);
        let fast = lazy.prepare(&spec).unwrap();
        assert_eq!(fast.report().cache, CacheStatus::Hit);
        assert_eq!(fast.open_info().verify, VerifyMode::Lazy);
        assert_eq!(fast.graph(), reference.graph());
        assert_eq!(fast.transpose(), reference.transpose());
        assert_eq!(fast.overlay(), reference.overlay());
        assert_eq!(fast.rev_overlay(), reference.rev_overlay());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_dir_created_alongside_artifact_and_restored_on_hit() {
        let dir = temp_dir("waldir");
        let store = GraphStore::new(Some(dir.clone()));
        let spec = PrepareSpec::generated("star:16", 0);
        let p = store.prepare(&spec).unwrap();
        let wal = wal_dir_for(p.report().artifact.as_ref().unwrap());
        assert!(wal.is_dir(), "miss must create the WAL dir");

        // Half-created cache entry: artifact present, WAL dir missing
        // (e.g. a crash between the rename and the mkdir of an older
        // writer). The entry opens cleanly and the dir comes back.
        fs::remove_dir_all(&wal).unwrap();
        let hit = store.prepare(&spec).unwrap();
        assert_eq!(hit.report().cache, CacheStatus::Hit);
        assert!(wal.is_dir(), "hit must restore a missing WAL dir");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn materialize_matches_from_scratch_prepare() {
        // A CSR materialized from memory must be indistinguishable from
        // preparing the same edges from a file: same CSR, same overlay
        // split points, same transpose.
        let dir = temp_dir("materialize");
        let input = dir.join("g.el");
        fs::write(&input, "0 1\n0 2\n0 3\n1 2\n3 0\n").unwrap();
        let store = GraphStore::new(Some(dir.clone()));
        let spec = PrepareSpec::from_file(&input)
            .with_virtual(2, true)
            .with_transpose(true);
        let scratch = store.prepare(&spec).unwrap();

        let plan = ViewPlan::from_prepared(&scratch);
        assert_eq!(
            plan,
            ViewPlan {
                virtual_k: Some(2),
                coalesced: true,
                transpose: true
            }
        );
        let materialized = store.materialize(scratch.graph().clone(), plan).unwrap();
        assert_eq!(materialized.graph(), scratch.graph());
        assert_eq!(materialized.transpose(), scratch.transpose());
        assert_eq!(materialized.overlay(), scratch.overlay());
        assert_eq!(materialized.rev_overlay(), scratch.rev_overlay());

        // The compacted artifact landed under its own content key with
        // a WAL dir beside it.
        let artifact = materialized.report().artifact.clone().unwrap();
        assert!(artifact.exists());
        assert_ne!(materialized.report().key, scratch.report().key);
        assert!(wal_dir_for(&artifact).is_dir());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generator_tags_resolve() {
        assert!(generate_from_tag("rmat:6:4", 1).is_ok());
        assert!(generate_from_tag("star:10", 0).is_ok());
        assert!(generate_from_tag("ba:50:3", 2).is_ok());
        assert!(generate_from_tag("ba:50:3:sym", 2).is_ok());
        assert!(generate_from_tag("nope:1", 0).is_err());
        assert!(generate_from_tag("rmat:x:4", 0).is_err());
        assert!(generate_from_tag("dataset:no-such-dataset", 0).is_err());
    }

    #[test]
    fn dataset_tags_resolve() {
        let name = tigr_graph::datasets::PAPER_DATASETS[0].name;
        assert!(generate_from_tag(&format!("dataset:{name}:2048"), 1).is_ok());
        let g = generate_from_tag(&format!("dataset:{name}:2048:weighted"), 1).unwrap();
        assert!(g.is_weighted());
    }
}
