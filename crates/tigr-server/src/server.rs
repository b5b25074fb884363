//! The serving core and its socket front-ends.
//!
//! Request flow: **admission → plan → backend → cache** —
//!
//! 1. *Admission*: [`ServerCore::submit`] validates the query, lowers
//!    its verb onto a [`Pipeline`], arms a [`CancelToken`] with the
//!    request (or server-default) deadline, and offers the job to the
//!    bounded [`Bounded`] queue. A full queue is a typed `queue-full`
//!    rejection, never a block — that is the backpressure contract.
//! 2. *Plan*: an executor pops one job and drains compatible queued jobs
//!    (a lane program, same algorithm, graph and epoch, up to
//!    `batch_max`) into one fused batch, and runs the engine's plan gate
//!    once for it; every lane query — batched or singleton — carries its
//!    own cancel token into a lane, and every other verb runs its
//!    pipeline alone.
//! 3. *Backend*: the host lane driver advances the batch's lanes in
//!    lockstep over the shared [`PreparedGraph`] (or a dirty
//!    snapshot's base+delta rows), dealt in contiguous chunks across
//!    `kernel_threads` threads (see [`tigr_engine::batch`]); every
//!    answer is byte-equal whatever the thread count, values and
//!    iteration counts alike. Tokens are polled at iteration
//!    boundaries, so an expired deadline surfaces as a consistent
//!    monotone prefix that the server then *discards* — that client
//!    gets `deadline-exceeded`, never partial values, and its
//!    batchmates are unaffected.
//! 4. *Cache*: converged results are published to the source-keyed LRU;
//!    hits skip straight from admission to reply.
//!
//! The socket front-ends ([`Server::bind_tcp`] / [`Server::bind_unix`])
//! speak the line-delimited JSON protocol of [`crate::protocol`]; each
//! connection gets a reader thread, and requests on one connection are
//! answered in order. One accept loop serves both transports; a reply
//! under 64 KiB is one buffer and one write, a longer one streams into
//! the socket while it is encoded, TCP connections run with
//! `TCP_NODELAY`, and request lines are length-limited while they are
//! read (see "Framing and cost" in [`crate::protocol`]).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tigr_core::{
    CancelToken, GraphSnapshot, MutableGraph, MutationError, MutationOp, PreparedGraph,
};
use tigr_engine::{
    run_batch_push, BackendKind, BatchArena, BatchLane, BatchProgram, Engine, EngineError,
    Pipeline, PushOptions, Representation,
};
use tigr_graph::NodeId;

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::protocol::{
    checksum, decode_request, send_response, CompactResult, ErrorCode, MutateResult, QueryRequest,
    QueryResult, Request, Response, MAX_REQUEST_LINE,
};
use crate::queue::{Bounded, PushError};
use crate::stats::{GraphOpenStat, MutationGauges, StatsRecorder};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Total thread budget for query execution. It is divided by
    /// `kernel_threads` to derive the executor count (see
    /// [`ServerConfig::executor_count`]), so raising `kernel_threads`
    /// trades executor concurrency for per-batch parallelism inside a
    /// fixed budget.
    pub workers: usize,
    /// Threads each executor deals a batch's lanes across, in
    /// contiguous chunks (`1`, the default, runs every lane on the
    /// executor itself; a one-lane batch never spawns). Answers are
    /// byte-equal whatever the count — values, iterations, checksums
    /// (see `tigr_engine::batch`).
    pub kernel_threads: usize,
    /// Bounded admission-queue capacity; pushes beyond it are rejected
    /// with `queue-full`.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Deadline applied to queries that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Widest fused batch an executor may form (1 disables batching).
    pub batch_max: usize,
    /// How long an executor lingers on the queue collecting compatible
    /// jobs before executing a non-full batch, in microseconds. Zero
    /// means batches form only from jobs already queued.
    pub batch_wait_us: u64,
    /// Delta-edge count at which a mutate batch triggers a background
    /// compaction of that mutable graph (`0` disables automatic
    /// compaction; the `compact` verb still forces one synchronously).
    pub compact_threshold: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            kernel_threads: 1,
            queue_capacity: 128,
            cache_capacity: 256,
            default_deadline_ms: None,
            batch_max: 8,
            batch_wait_us: 0,
            compact_threshold: 0,
        }
    }
}

impl ServerConfig {
    /// Batch executors spawned, each pulling from the admission queue
    /// with its own [`BatchArena`]: `workers / kernel_threads` (min 1),
    /// so the total thread budget stays near `workers`.
    pub fn executor_count(&self) -> usize {
        (self.workers / self.kernel_threads.max(1)).max(1)
    }
}

/// One registry entry: a frozen prepared graph, or a mutable graph
/// whose WAL + delta overlay accept online mutations.
#[derive(Clone)]
enum GraphEntry {
    Static(Arc<PreparedGraph>),
    Mutable(Arc<MutableGraph>),
}

/// One admitted query waiting for a worker.
struct Job {
    request: QueryRequest,
    /// The verb lowered once, at admission: what the executor gates,
    /// fuses (by its lane program) and runs.
    pipeline: Pipeline,
    token: CancelToken,
    /// Whether `token` carries a deadline. Deadline-free duplicates may
    /// share a batch lane; a deadline-carrying job always gets a
    /// private lane so its cancellation poisons nobody else's answer.
    has_deadline: bool,
    received: Instant,
    slot: Arc<ReplySlot>,
    /// The snapshot this query pinned at admission (mutable graphs
    /// only). Holding the `Arc` is the isolation mechanism: mutations
    /// and compaction swaps that land after admission cannot touch the
    /// epoch this query reads.
    pinned: Option<Arc<GraphSnapshot>>,
}

impl Job {
    /// Cache-key epoch: the pinned overlay generation, `0` for static
    /// graphs. Also the batch-compatibility key — jobs only fuse when
    /// they observe the same epoch.
    fn epoch(&self) -> u64 {
        self.pinned.as_ref().map_or(0, |s| s.epoch())
    }
}

/// A one-shot rendezvous between the submitting thread and the worker.
struct ReplySlot {
    cell: Mutex<Option<Response>>,
    ready: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(ReplySlot {
            cell: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn set(&self, response: Response) {
        *self.cell.lock().unwrap() = Some(response);
        self.ready.notify_all();
    }

    fn wait(&self) -> Response {
        let mut cell = self.cell.lock().unwrap();
        loop {
            if let Some(response) = cell.take() {
                return response;
            }
            cell = self.ready.wait(cell).unwrap();
        }
    }
}

/// The serving core: graph registry, admission queue, worker pool,
/// result cache, and stats. Socket front-ends and the in-process
/// [`crate::Client`] both drive it through [`ServerCore::submit`].
pub struct ServerCore {
    config: ServerConfig,
    graphs: Mutex<HashMap<String, GraphEntry>>,
    queue: Bounded<Job>,
    cache: ResultCache,
    stats: StatsRecorder,
    workers: Mutex<Vec<JoinHandle<()>>>,
    closed: AtomicBool,
}

impl ServerCore {
    /// Creates the core and spawns its worker pool.
    pub fn new(config: ServerConfig) -> Arc<Self> {
        let core = Arc::new(ServerCore {
            config,
            graphs: Mutex::new(HashMap::new()),
            queue: Bounded::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            stats: StatsRecorder::default(),
            workers: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
        });
        let mut workers = core.workers.lock().unwrap();
        for i in 0..config.executor_count() {
            let core = Arc::clone(&core);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tigr-serve-{i}"))
                    .spawn(move || core.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(workers);
        core
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Registers `prepared` under `name` as a read-only graph,
    /// replacing any previous graph of that name. Queries refer to
    /// graphs by this name; `mutate` against it answers
    /// `immutable-graph`.
    pub fn add_graph(&self, name: impl Into<String>, prepared: Arc<PreparedGraph>) {
        self.graphs
            .lock()
            .unwrap()
            .insert(name.into(), GraphEntry::Static(prepared));
    }

    /// Registers a mutable graph under `name`: `mutate` batches append
    /// to its WAL and delta overlay, queries pin snapshots of it, and
    /// `compact` (or the configured `compact_threshold`) folds the
    /// overlay into a fresh base artifact.
    pub fn add_mutable_graph(&self, name: impl Into<String>, graph: Arc<MutableGraph>) {
        self.graphs
            .lock()
            .unwrap()
            .insert(name.into(), GraphEntry::Mutable(graph));
    }

    /// The mutable graph registered under `name`, if any.
    pub fn mutable_graph(&self, name: &str) -> Option<Arc<MutableGraph>> {
        match self.graphs.lock().unwrap().get(name) {
            Some(GraphEntry::Mutable(m)) => Some(Arc::clone(m)),
            _ => None,
        }
    }

    /// Names of the registered graphs, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.graphs.lock().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Per-graph open records for the `stats` verb, sorted by name: how
    /// each registered graph's views were opened (mapped / decoded /
    /// built), at what verification level, how long the open took, and
    /// where its bytes live.
    fn graph_open_stats(&self) -> Vec<GraphOpenStat> {
        let mut stats: Vec<GraphOpenStat> = self
            .graphs
            .lock()
            .unwrap()
            .iter()
            .map(|(name, entry)| {
                let base;
                let prepared = match entry {
                    GraphEntry::Static(p) => p,
                    GraphEntry::Mutable(m) => {
                        base = Arc::clone(m.snapshot().base());
                        &base
                    }
                };
                let open = prepared.open_info();
                GraphOpenStat {
                    name: name.clone(),
                    open: open.mode.label().to_owned(),
                    verify: open.verify.label().to_owned(),
                    open_us: open.open_us,
                    mapped_bytes: open.mapped_bytes as u64,
                    heap_bytes: open.heap_bytes as u64,
                }
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Aggregates the live WAL / delta / compaction gauges over every
    /// mutable graph: sums for the additive counters, maxima for the
    /// overlay generation and the last-compaction clock.
    fn mutation_gauges(&self) -> MutationGauges {
        let mut g = MutationGauges::default();
        for entry in self.graphs.lock().unwrap().values() {
            if let GraphEntry::Mutable(m) = entry {
                g.wal_len += m.wal_len();
                g.delta_edges += m.delta_edges() as u64;
                g.overlay_generation = g.overlay_generation.max(m.epoch());
                g.compactions += m.compactions();
                g.last_compaction_ms = g.last_compaction_ms.max(m.last_compaction_ms());
            }
        }
        g
    }

    /// Handles one request synchronously: `stats`, `ping`, `mutate`,
    /// and `compact` answer inline; queries go through admission and
    /// block until a worker replies. Safe to call from many threads at
    /// once.
    pub fn submit(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(Box::new(self.stats.snapshot(
                self.queue.len() as u64,
                self.config.executor_count() as u64,
                self.cache.counters(),
                self.graph_open_stats(),
                self.mutation_gauges(),
            ))),
            Request::Query(query) => self.submit_query(query),
            Request::Mutate { graph, ops } => self.submit_mutate(&graph, &ops),
            Request::Compact { graph } => self.submit_compact(&graph),
        }
    }

    /// Applies one mutation batch to a mutable graph. Runs inline on
    /// the submitting thread — the WAL fsync and overlay update are
    /// serialized per graph anyway, and bypassing the queue keeps
    /// admission capacity for queries.
    fn submit_mutate(&self, graph: &str, ops: &[MutationOp]) -> Response {
        let mutable = match self.graphs.lock().unwrap().get(graph) {
            None => {
                return Response::error(
                    ErrorCode::UnknownGraph,
                    format!("no graph registered as {graph:?}"),
                );
            }
            Some(GraphEntry::Static(_)) => {
                return Response::error(
                    ErrorCode::ImmutableGraph,
                    format!("graph {graph:?} is registered read-only; register it as mutable to accept mutations"),
                );
            }
            Some(GraphEntry::Mutable(m)) => Arc::clone(m),
        };
        match mutable.apply(ops) {
            Ok(summary) => {
                self.stats
                    .record_mutation(summary.applied as u64, summary.skipped as u64);
                if self.config.compact_threshold > 0 {
                    mutable.maybe_spawn_compaction(self.config.compact_threshold);
                }
                Response::Mutate(MutateResult {
                    graph: graph.to_owned(),
                    applied: summary.applied as u64,
                    skipped: summary.skipped as u64,
                    wal_len: summary.wal_len,
                    epoch: summary.epoch,
                })
            }
            Err(e) => mutation_error(e),
        }
    }

    /// Forces a synchronous compaction of a mutable graph.
    fn submit_compact(&self, graph: &str) -> Response {
        let mutable = match self.graphs.lock().unwrap().get(graph) {
            None => {
                return Response::error(
                    ErrorCode::UnknownGraph,
                    format!("no graph registered as {graph:?}"),
                );
            }
            Some(GraphEntry::Static(_)) => {
                return Response::error(
                    ErrorCode::ImmutableGraph,
                    format!("graph {graph:?} is registered read-only; nothing to compact"),
                );
            }
            Some(GraphEntry::Mutable(m)) => Arc::clone(m),
        };
        match mutable.compact() {
            Ok(stats) => Response::Compact(CompactResult {
                graph: graph.to_owned(),
                wall_ms: stats.wall_ms,
                delta_edges_before: stats.delta_edges_before as u64,
                delta_edges_after: stats.delta_edges_after as u64,
                epoch: stats.epoch,
            }),
            Err(e) => mutation_error(e),
        }
    }

    fn submit_query(&self, query: QueryRequest) -> Response {
        self.stats.record_received();
        // Validate against the registry before spending a queue slot.
        // Mutable graphs pin their snapshot here, at admission: the
        // epoch this query observes is fixed before it ever queues.
        let entry = match self.graphs.lock().unwrap().get(&query.graph) {
            Some(e) => e.clone(),
            None => {
                self.stats.record_failed();
                return Response::error(
                    ErrorCode::UnknownGraph,
                    format!("no graph registered as {:?}", query.graph),
                );
            }
        };
        let (num_nodes, pinned) = match &entry {
            GraphEntry::Static(p) => (p.graph().num_nodes(), None),
            GraphEntry::Mutable(m) => {
                let snapshot = m.snapshot();
                (snapshot.num_nodes(), Some(snapshot))
            }
        };
        // Enforce source arity here, not just in the wire decoder, so
        // in-process clients get the same typed rejection as sockets.
        if query.algo.needs_source() && query.source.is_none() {
            self.stats.record_failed();
            return Response::error(
                ErrorCode::BadRequest,
                format!("{} requires a source", query.algo.label()),
            );
        }
        if !query.algo.needs_source() && query.source.is_some() {
            self.stats.record_failed();
            return Response::error(
                ErrorCode::BadRequest,
                format!("{} takes no source", query.algo.label()),
            );
        }
        // Limit arity likewise, as the pipeline itself checks it: the
        // wire decoder already rejects these, but in-process clients
        // deserve the same typed answer.
        let pipeline = match Pipeline::for_algo(query.algo, query.limit) {
            Ok(pipeline) => pipeline,
            Err(e) => {
                self.stats.record_failed();
                return Response::error(ErrorCode::BadRequest, e.to_string());
            }
        };
        if let Some(source) = query.source {
            if source as usize >= num_nodes {
                self.stats.record_failed();
                return Response::error(
                    ErrorCode::BadRequest,
                    format!("source {source} out of range (graph has {num_nodes} nodes)"),
                );
            }
        }
        let deadline_ms = query.deadline_ms.or(self.config.default_deadline_ms);
        let token = match deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::never(),
        };
        let slot = ReplySlot::new();
        let job = Job {
            request: query,
            pipeline,
            token,
            has_deadline: deadline_ms.is_some(),
            received: Instant::now(),
            slot: Arc::clone(&slot),
            pinned,
        };
        match self.queue.try_push(job) {
            Ok(()) => slot.wait(),
            Err(PushError::Full(_)) => {
                self.stats.record_rejected();
                Response::error(
                    ErrorCode::QueueFull,
                    format!("admission queue at capacity ({})", self.queue.capacity()),
                )
            }
            Err(PushError::Closed(_)) => {
                self.stats.record_rejected();
                Response::error(ErrorCode::Shutdown, "server is shutting down")
            }
        }
    }

    fn worker_loop(&self) {
        // Per-executor reusable lane storage: value arrays, frontier
        // builders, and worklists survive across queries and batches,
        // so the steady-state path performs no per-query allocation.
        // The retain cap bounds what an unusually wide batch leaves
        // behind: after it, the arena shrinks back to at most
        // `2 * batch_max` lanes instead of pinning the peak footprint
        // for the life of the executor.
        let mut arena = BatchArena::with_retain_cap(2 * self.config.batch_max.max(1));
        let wait = Duration::from_micros(self.config.batch_wait_us);
        // The whole batch forms inside one queue operation: the head
        // job plus every queued job compatible with it (a lane program,
        // same algorithm, graph name and epoch), lingering up to
        // `batch_wait_us` for stragglers. Atomicity matters — popping
        // the head and draining followers as two separate steps lets
        // concurrent workers shred a burst of compatible queries into
        // singleton batches. Incompatible jobs stay queued for other
        // workers; a job without a lane program always runs alone.
        while let Some((batch, formed_in)) =
            self.queue.pop_batch(self.config.batch_max, wait, |a, b| {
                a.pipeline.lane_program().is_some()
                    && a.request.algo == b.request.algo
                    && a.request.graph == b.request.graph
                    && a.epoch() == b.epoch()
            })
        {
            self.stats
                .record_formation_wait(formed_in.as_micros() as u64);
            self.execute(batch, &mut arena);
        }
    }

    /// Answers one popped batch — a lone job, or compatible jobs whose
    /// pipeline has a lane program — and replies to every job in it.
    /// Fused answers are byte-equal to solo ones: same values, iteration
    /// counts, and checksums.
    ///
    /// Per-job admission checks (expired-while-queued, cache hits) run
    /// first. The graph is resolved and the plan gate
    /// ([`tigr_engine::ExecutionPlan::validate_pipeline`]) runs once for
    /// the batch. Lane jobs then run as lanes of one fused multi-source
    /// run: deadline-free jobs with identical sources coalesce onto one
    /// shared lane, and a job carrying a deadline gets a private lane so
    /// its cancellation fails only its own reply. A job without a lane
    /// program runs its pipeline on the engine.
    fn execute(&self, jobs: Vec<Job>, arena: &mut BatchArena) {
        let mut pending: Vec<Job> = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.token.is_cancelled() {
                self.stats.record_failed();
                job.slot.set(Response::error(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired while queued",
                ));
                continue;
            }
            if let Some(hit) = self.cache_hit(&job) {
                job.slot.set(hit);
                continue;
            }
            pending.push(job);
        }
        let Some(head) = pending.first() else {
            return;
        };
        let (pinned, source) = (head.pinned.clone(), head.request.source.map(NodeId::new));
        // Jobs pinned to a snapshot run over it — the pin, not the
        // registry, is authoritative, so a compaction swapping the
        // registry entry mid-flight changes nothing here. Static graphs
        // re-resolve from the registry (the graph may have been replaced
        // since admission, but a fresh Arc is still valid).
        let prepared = match &pinned {
            Some(snapshot) => Arc::clone(snapshot.base()),
            None => match self.graphs.lock().unwrap().get(&head.request.graph) {
                Some(GraphEntry::Static(p)) => Arc::clone(p),
                Some(GraphEntry::Mutable(m)) => Arc::clone(m.snapshot().base()),
                None => {
                    let error = Response::error(
                        ErrorCode::UnknownGraph,
                        format!("graph {:?} was unregistered", head.request.graph),
                    );
                    return self.fail(&pending, error);
                }
            },
        };
        // Every job runs the deterministic sequential plan; a solo run
        // polls the head's token. Sources were range-checked at admission
        // against the pinned snapshot, which a mutation may have grown
        // past its base.
        let engine = Engine::default()
            .with_backend(BackendKind::Sequential)
            .with_device_memory(u64::MAX)
            .with_cancel(head.token.clone());
        let rep = Representation::from_prepared(&prepared);
        if let Err(e) = engine
            .plan()
            .validate_pipeline(&rep, &head.pipeline, source)
        {
            return self.fail(&pending, engine_error(e.into()));
        }
        let (groups, runs) = match head.pipeline.lane_program() {
            Some(prog) => {
                let mut lanes: Vec<BatchLane> = Vec::new();
                let mut groups: Vec<Vec<Job>> = Vec::new();
                let mut shared: HashMap<Option<u32>, usize> = HashMap::new();
                for job in pending {
                    let source = job.request.source.map(NodeId::new);
                    if job.has_deadline {
                        lanes.push(BatchLane::with_cancel(source, job.token.clone()));
                        groups.push(vec![job]);
                    } else if let Some(&lane) = shared.get(&job.request.source) {
                        groups[lane].push(job);
                    } else {
                        shared.insert(job.request.source, lanes.len());
                        lanes.push(BatchLane::new(source));
                        groups.push(vec![job]);
                    }
                }
                self.stats
                    .record_batch(groups.iter().map(Vec::len).sum::<usize>() as u64);
                let batch = BatchProgram { prog, lanes };
                let (threads, options) = (self.config.kernel_threads, PushOptions::default());
                let runs = catch_unwind(AssertUnwindSafe(|| {
                    let out = match pinned.as_ref().and_then(|s| s.view()) {
                        // A dirty snapshot's rows are base + delta: the
                        // lane driver walks the pinned view (its index
                        // frozen by the first query of the epoch) where a
                        // clean batch walks the CSR.
                        Some(view) => run_batch_push(&view, &batch, &options, threads, arena),
                        None => run_batch_push(rep.graph(), &batch, &options, threads, arena),
                    };
                    out.lanes
                        .into_iter()
                        .map(|lane| {
                            if lane.cancelled {
                                Err(deadline_exceeded())
                            } else {
                                Ok((lane.values, lane.directions.len() as u64))
                            }
                        })
                        .collect()
                }));
                (groups, runs)
            }
            None => {
                let pipeline = &pending[0].pipeline;
                let run = || {
                    // A dirty pinned snapshot is base + delta; a solo
                    // pipeline runs over the merged graph, materialized
                    // lazily and cached on the snapshot.
                    let merged = pinned.as_ref().filter(|s| !s.is_clean());
                    let merged = merged.map(|s| s.merged()).transpose();
                    let merged = merged.map_err(mutation_error)?;
                    let graph = merged.as_deref().unwrap_or(&prepared);
                    let out = engine
                        .run_prepared_pipeline(graph, pipeline, source)
                        .map_err(engine_error)?;
                    // Every pipeline body polls the token between its
                    // iterations (BC between levels) and reports a fired
                    // one through the output.
                    if out.cancelled {
                        return Err(deadline_exceeded());
                    }
                    Ok((out.values, out.iterations))
                };
                let runs = catch_unwind(AssertUnwindSafe(|| vec![run()]));
                (vec![pending], runs)
            }
        };
        let Ok(runs) = runs else {
            let error = Response::error(ErrorCode::Internal, "query execution panicked");
            return self.fail(groups.iter().flatten(), error);
        };
        for (run, jobs) in runs.into_iter().zip(groups) {
            match run {
                // A cancelled lane's partial state is discarded and never
                // cached; its batchmates are unaffected.
                Err(error) => self.fail(&jobs, error),
                Ok((values, iterations)) => {
                    // Pipelines whose post-pass appends extra sections
                    // (bounded paths: distances then predecessors) are
                    // only valid on representations that keep original
                    // node identity, which the gate enforces — so
                    // projecting here is always section-safe.
                    let values = match prepared.transformed() {
                        Some(t) => t.project_values(&values),
                        None => values,
                    };
                    self.reply(jobs, values, iterations);
                }
            }
        }
    }

    /// Replies to the jobs that share one run's projected `values`.
    /// Each takes its pipeline's pointwise post-pass (k-hop's mask; the
    /// fixpoint is `k`-independent, so mixed-`k` jobs share a lane), and
    /// jobs with equal `limit` share one answer: every distinct limit but
    /// the last masks its own copy, the last takes `values` itself.
    fn reply(&self, jobs: Vec<Job>, mut values: Vec<u32>, iterations: u64) {
        let mut limits: Vec<Option<u32>> = jobs.iter().map(|job| job.request.limit).collect();
        limits.sort_unstable();
        limits.dedup();
        let answers: Vec<CachedResult> = limits
            .iter()
            .enumerate()
            .map(|(i, &limit)| {
                let mut values = if i + 1 == limits.len() {
                    std::mem::take(&mut values)
                } else {
                    values.clone()
                };
                let job = jobs.iter().find(|job| job.request.limit == limit);
                job.expect("every limit is some job's")
                    .pipeline
                    .apply_lane_post(&mut values);
                CachedResult {
                    checksum: checksum(&values),
                    values: Arc::new(values),
                    iterations,
                }
            })
            .collect();
        for job in jobs {
            let i = limits.binary_search(&job.request.limit);
            let answer = answers[i.expect("every job's limit is listed")].clone();
            job.slot.set(self.finish_query(&job, answer, false));
        }
    }

    /// Fails every one of `jobs` with the one typed `error`.
    fn fail<'a>(&self, jobs: impl IntoIterator<Item = &'a Job>, error: Response) {
        for job in jobs {
            self.stats.record_failed();
            job.slot.set(error.clone());
        }
    }

    /// The key `job`'s answer is cached under.
    fn cache_key(&self, job: &Job) -> CacheKey {
        CacheKey {
            graph: job.request.graph.clone(),
            algo: job.request.algo,
            source: job.request.source,
            limit: job.request.limit,
            plan: "host",
            epoch: job.epoch(),
        }
    }

    /// The finished reply to `job` from the result cache, if it allows
    /// caching and its cell is warm.
    fn cache_hit(&self, job: &Job) -> Option<Response> {
        if !job.request.cache {
            return None;
        }
        let hit = self.cache.get(&self.cache_key(job))?;
        Some(self.finish_query(job, hit, true))
    }

    /// The one reply path of a successful query: a fresh `answer` enters
    /// the cache when the request allows it, the completion is recorded,
    /// and the reply is built.
    fn finish_query(&self, job: &Job, answer: CachedResult, cached: bool) -> Response {
        let query = &job.request;
        if !cached && query.cache {
            self.cache.insert(self.cache_key(job), answer.clone());
        }
        let wall_us = job.received.elapsed().as_micros() as u64;
        self.stats.record_completed(query.algo, wall_us);
        Response::Query(QueryResult {
            algo: query.algo,
            graph: query.graph.clone(),
            source: query.source,
            nodes: answer.values.len() as u64,
            iterations: answer.iterations,
            checksum: answer.checksum,
            cached,
            wall_us,
            values: query.include_values.then(|| answer.values.as_ref().clone()),
        })
    }

    /// Stops accepting work, fails queued jobs with `shutdown`, and
    /// joins the worker pool. Idempotent.
    pub fn shutdown(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for job in self.queue.close() {
            self.stats.record_rejected();
            job.slot.set(Response::error(
                ErrorCode::Shutdown,
                "server is shutting down",
            ));
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("graphs", &self.graph_names())
            .field("queue", &self.queue)
            .field("cache", &self.cache)
            .finish()
    }
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reply to a run whose deadline fired: its partial state is
/// discarded.
fn deadline_exceeded() -> Response {
    Response::error(
        ErrorCode::DeadlineExceeded,
        "deadline expired during execution; partial state discarded",
    )
}

/// Folds an [`EngineError`] into the typed protocol vocabulary.
fn engine_error(e: EngineError) -> Response {
    match e {
        EngineError::InvalidPlan(p) => Response::error(ErrorCode::InvalidPlan, p.to_string()),
        other => Response::error(ErrorCode::Internal, other.to_string()),
    }
}

/// Folds a [`MutationError`] into the typed protocol vocabulary.
fn mutation_error(e: MutationError) -> Response {
    match e {
        MutationError::Invalid(m) => Response::error(ErrorCode::BadRequest, m),
        MutationError::Immutable(m) => Response::error(ErrorCode::ImmutableGraph, m),
        MutationError::Busy => Response::error(
            ErrorCode::Internal,
            "a compaction is already in progress on this graph",
        ),
        other => Response::error(ErrorCode::Internal, other.to_string()),
    }
}

/// Where a [`Server`] is listening.
#[derive(Clone, Debug)]
pub enum ServerAddr {
    /// TCP socket address (use for `--port 0` ephemeral binds).
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

/// A running socket front-end over a [`ServerCore`].
#[derive(Debug)]
pub struct Server {
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    addr: ServerAddr,
}

impl Server {
    /// Binds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind_tcp(core: Arc<ServerCore>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = ServerAddr::Tcp(listener.local_addr()?);
        Server::start(core, addr, move || {
            let (stream, _) = listener.accept()?;
            // Replies are one write each, and with Nagle off none of
            // them waits for the client's delayed ACK.
            stream.set_nodelay(true)?;
            stream.set_nonblocking(false)?;
            Ok(stream)
        })
    }

    /// Binds a Unix-domain socket at `path` (removing a stale socket
    /// file first) and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind_unix(core: Arc<ServerCore>, path: impl AsRef<Path>) -> std::io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Server::start(core, ServerAddr::Unix(path), move || {
            let (stream, _) = listener.accept()?;
            stream.set_nonblocking(false)?;
            Ok(stream)
        })
    }

    /// Spawns the one accept loop: polls `accept` until stopped and
    /// serves each connection on a thread of its own. `accept` takes one
    /// connection off a non-blocking listener and returns it in blocking
    /// mode (accepted sockets inherit the listener's flag on some
    /// platforms) with its transport's options set.
    fn start<S>(
        core: Arc<ServerCore>,
        addr: ServerAddr,
        accept: impl Fn() -> std::io::Result<S> + Send + 'static,
    ) -> std::io::Result<Server>
    where
        S: Send + 'static,
        for<'a> &'a S: Read + Write,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let (loop_core, loop_stop) = (Arc::clone(&core), Arc::clone(&stop));
        let accept_loop = move || {
            while !loop_stop.load(Ordering::SeqCst) {
                match accept() {
                    Ok(stream) => {
                        let core = Arc::clone(&loop_core);
                        let _ = std::thread::Builder::new()
                            .name("tigr-serve-conn".into())
                            .spawn(move || serve_connection(&core, &stream, &stream));
                    }
                    // `WouldBlock` (nothing pending) and transient
                    // failures alike: wait one poll interval, retry.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        };
        let handle = std::thread::Builder::new()
            .name("tigr-serve-accept".into())
            .spawn(accept_loop)?;
        Ok(Server {
            core,
            stop,
            accept: Some(handle),
            addr,
        })
    }

    /// Where the server is listening (for ephemeral TCP ports this is
    /// the resolved address).
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// The shared core (register graphs, build local clients).
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Stops the accept loop, then shuts the core down (failing queued
    /// jobs with typed `shutdown` errors and joining workers).
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.core.shutdown();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let ServerAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Reads request lines and writes response lines until EOF. Requests on
/// one connection are answered in order; concurrency comes from many
/// connections. A reply shorter than [`STREAM_CHUNK`] leaves in one
/// write of one buffer (line and newline together); a longer one streams
/// into the socket in pieces of at least that many bytes while its
/// `values` are still being encoded ([`send_response`]), so the buffer
/// never holds a whole bulk reply. Both line buffers live as long as the
/// connection.
///
/// [`STREAM_CHUNK`]: crate::protocol::STREAM_CHUNK
///
/// A request line longer than [`MAX_REQUEST_LINE`] is refused while it
/// is being read — the connection never buffers more than the limit —
/// with a typed `bad-request`, and the connection is closed, since the
/// rest of the oversized line cannot be told from the next request.
fn serve_connection(core: &Arc<ServerCore>, reader: impl Read, mut writer: impl Write) {
    let mut reader = BufReader::new(reader);
    let mut line = Vec::new();
    let mut reply = Vec::new();
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let oversized = line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n');
        let response = if oversized {
            Response::error(
                ErrorCode::BadRequest,
                format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            )
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => match decode_request(text) {
                    Ok(request) => core.submit(request),
                    Err(error) => Response::Error(error),
                },
                // Unlike an oversized line, this one's end is known: answer
                // it and read the next.
                Err(_) => Response::error(ErrorCode::BadRequest, "request line is not valid UTF-8"),
            }
        };
        let sent = send_response(&mut writer, &mut reply, &response);
        if sent.is_err() || oversized {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Algo;
    use tigr_core::{GraphStore, PrepareSpec};
    use tigr_engine::MonotoneProgram;

    fn small_core(config: ServerConfig) -> Arc<ServerCore> {
        let store = GraphStore::disabled();
        let spec = PrepareSpec::generated("rmat:8:8", 42).with_uniform_weights(1, 64, 7);
        let prepared = Arc::new(store.prepare(&spec).unwrap());
        let core = ServerCore::new(config);
        core.add_graph("rmat8", prepared);
        core
    }

    fn bfs_query(source: u32) -> Request {
        Request::Query(QueryRequest::new("rmat8", Algo::Bfs, Some(source)))
    }

    #[test]
    fn query_runs_and_caches() {
        let core = small_core(ServerConfig::default());
        let first = match core.submit(bfs_query(0)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(!first.cached);
        let second = match core.submit(bfs_query(0)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(second.cached);
        assert_eq!(first.checksum, second.checksum);
        assert_eq!(first.iterations, second.iterations);
        let stats = match core.submit(Request::Stats) {
            Response::Stats(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cache_hits, 1);
        core.shutdown();
    }

    #[test]
    fn unknown_graph_and_bad_source_are_typed() {
        let core = small_core(ServerConfig::default());
        let resp = core.submit(Request::Query(QueryRequest::new(
            "nope",
            Algo::Bfs,
            Some(0),
        )));
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownGraph),
            other => panic!("{other:?}"),
        }
        let resp = core.submit(bfs_query(u32::MAX));
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("{other:?}"),
        }
        core.shutdown();
    }

    #[test]
    fn values_match_direct_sequential_run() {
        let core = small_core(ServerConfig::default());
        let mut req = QueryRequest::new("rmat8", Algo::Sssp, Some(3));
        req.include_values = true;
        let served = match core.submit(Request::Query(req)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        let store = GraphStore::disabled();
        let spec = PrepareSpec::generated("rmat:8:8", 42).with_uniform_weights(1, 64, 7);
        let prepared = store.prepare(&spec).unwrap();
        let engine = Engine::default().with_backend(BackendKind::Sequential);
        let direct = engine
            .run_prepared(
                &prepared,
                tigr_engine::MonotoneProgram::SSSP,
                Some(NodeId::new(3)),
            )
            .unwrap();
        assert_eq!(served.values.as_deref(), Some(direct.values.as_slice()));
        assert_eq!(served.checksum, checksum(&direct.values));
        core.shutdown();
    }

    #[test]
    fn pagerank_ranks_travel_as_bit_patterns() {
        let core = small_core(ServerConfig::default());
        let mut req = QueryRequest::new("rmat8", Algo::Pr, None);
        req.include_values = true;
        let served = match core.submit(Request::Query(req)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        let values = served.values.unwrap();
        let sum: f64 = values
            .iter()
            .map(|&bits| f64::from(f32::from_bits(bits)))
            .sum();
        assert!((sum - 1.0).abs() < 1e-3, "ranks sum to {sum}");
        core.shutdown();
    }

    #[test]
    fn zero_deadline_is_rejected_not_cached() {
        let core = small_core(ServerConfig::default());
        let mut req = QueryRequest::new("rmat8", Algo::Sssp, Some(5));
        req.deadline_ms = Some(0);
        match core.submit(Request::Query(req)) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("{other:?}"),
        }
        // The failed run must not have poisoned the cache: the next
        // uncapped query is a miss, then computes fresh.
        let ok = match core.submit(Request::Query(QueryRequest::new(
            "rmat8",
            Algo::Sssp,
            Some(5),
        ))) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(!ok.cached);
        core.shutdown();
    }

    #[test]
    fn parallel_kernel_threads_match_sequential_answers() {
        let seq = small_core(ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        let par = small_core(ServerConfig {
            kernel_threads: 2,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        assert_eq!(par.config().executor_count(), 2);
        for (algo, source) in [
            (Algo::Bfs, Some(3)),
            (Algo::Sssp, Some(3)),
            (Algo::Sswp, Some(3)),
            (Algo::Cc, None),
        ] {
            let mut req = QueryRequest::new("rmat8", algo, source);
            req.include_values = true;
            let a = match seq.submit(Request::Query(req.clone())) {
                Response::Query(q) => q,
                other => panic!("{other:?}"),
            };
            let b = match par.submit(Request::Query(req)) {
                Response::Query(q) => q,
                other => panic!("{other:?}"),
            };
            // Dealing lanes across threads changes no byte of a reply.
            assert_eq!(a.values, b.values, "{algo:?}");
            assert_eq!(a.checksum, b.checksum, "{algo:?}");
            assert_eq!(a.iterations, b.iterations, "{algo:?}");
        }
        let stats = match par.submit(Request::Stats) {
            Response::Stats(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.workers, 2);
        par.shutdown();
        seq.shutdown();
    }

    #[test]
    fn derived_executor_count_divides_the_thread_budget() {
        let cfg = ServerConfig {
            workers: 8,
            kernel_threads: 4,
            ..ServerConfig::default()
        };
        assert_eq!(cfg.executor_count(), 2);
        // The budget never derives to zero executors.
        let cfg = ServerConfig {
            workers: 1,
            kernel_threads: 8,
            ..ServerConfig::default()
        };
        assert_eq!(cfg.executor_count(), 1);
    }

    #[test]
    fn new_workloads_run_and_cache() {
        let core = small_core(ServerConfig::default());
        for (algo, source, limit) in [
            (Algo::Bc, Some(3), None),
            (Algo::Khop, Some(3), Some(2)),
            (Algo::Paths, Some(3), Some(90)),
            (Algo::Lp, None, Some(4)),
            (Algo::Tc, None, None),
            (Algo::Pr, None, None),
        ] {
            let mut req = QueryRequest::new("rmat8", algo, source);
            req.limit = limit;
            req.include_values = true;
            let first = match core.submit(Request::Query(req.clone())) {
                Response::Query(q) => q,
                other => panic!("{algo:?}: {other:?}"),
            };
            assert!(!first.cached, "{algo:?}");
            let second = match core.submit(Request::Query(req)) {
                Response::Query(q) => q,
                other => panic!("{algo:?}: {other:?}"),
            };
            assert!(second.cached, "{algo:?}");
            assert_eq!(first.checksum, second.checksum, "{algo:?}");
            assert_eq!(first.values, second.values, "{algo:?}");
        }
        let stats = match core.submit(Request::Stats) {
            Response::Stats(s) => s,
            other => panic!("{other:?}"),
        };
        for (label, count) in &stats.algo_completed {
            let expected = if ["bc", "khop", "paths", "lp", "tc", "pr"].contains(&label.as_str()) {
                2
            } else {
                0
            };
            assert_eq!(*count, expected, "{label}");
        }
        core.shutdown();
    }

    #[test]
    fn limit_arity_and_aliasing_are_enforced() {
        let core = small_core(ServerConfig::default());
        // khop without a limit: typed rejection naming the parameter.
        match core.submit(Request::Query(QueryRequest::new(
            "rmat8",
            Algo::Khop,
            Some(0),
        ))) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest);
                assert!(e.message.contains("(k)"), "{}", e.message);
            }
            other => panic!("{other:?}"),
        }
        // bfs with a limit: typed rejection.
        let req = QueryRequest::new("rmat8", Algo::Bfs, Some(0)).with_limit(2);
        match core.submit(Request::Query(req)) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("{other:?}"),
        }
        // Different k never aliases in the cache: k=1 then k=8 from the
        // same source must answer differently (rmat8 has >1 level).
        let ask = |k: u32| {
            let mut req = QueryRequest::new("rmat8", Algo::Khop, Some(3)).with_limit(k);
            req.include_values = true;
            match core.submit(Request::Query(req)) {
                Response::Query(q) => q,
                other => panic!("{other:?}"),
            }
        };
        let one = ask(1);
        let eight = ask(8);
        assert!(!eight.cached, "k=8 must not hit k=1's entry");
        assert_ne!(one.checksum, eight.checksum);
        core.shutdown();
    }

    #[test]
    fn paths_response_carries_distances_then_predecessors() {
        let core = small_core(ServerConfig::default());
        let mut req = QueryRequest::new("rmat8", Algo::Paths, Some(3)).with_limit(120);
        req.include_values = true;
        let served = match core.submit(Request::Query(req)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        let values = served.values.unwrap();
        let n = values.len() / 2;
        assert_eq!(values.len(), 2 * n);
        assert_eq!(served.nodes as usize, 2 * n);
        let (dist, pred) = values.split_at(n);
        assert_eq!(dist[3], 0);
        assert_eq!(pred[3], 3, "the source is its own parent");
        for v in 0..n {
            if dist[v] == u32::MAX {
                assert_eq!(pred[v], u32::MAX, "unreached node {v} has a parent");
            } else {
                assert!(dist[v] <= 120, "distance above the radius survived");
                assert!((pred[v] as usize) < n);
            }
        }
        core.shutdown();
    }

    #[test]
    fn khop_batch_path_masks_each_job_and_matches_solo() {
        let core = small_core(ServerConfig::default());
        // Solo (pipeline-path) references, cache off so the batch path
        // below computes fresh.
        let solo = |k: u32, source: u32| {
            let mut req = QueryRequest::new("rmat8", Algo::Khop, Some(source)).with_limit(k);
            req.cache = false;
            req.include_values = true;
            match core.submit(Request::Query(req)) {
                Response::Query(q) => q,
                other => panic!("{other:?}"),
            }
        };
        let expect: Vec<_> = [(2, 3), (5, 3), (2, 7)]
            .into_iter()
            .map(|(k, s)| solo(k, s))
            .collect();
        // Drive the executor directly with a mixed-k fused batch: two
        // jobs share source 3 (one lane) with different k.
        let jobs: Vec<Job> = [(2u32, 3u32), (5, 3), (2, 7)]
            .into_iter()
            .map(|(k, s)| {
                let mut request = QueryRequest::new("rmat8", Algo::Khop, Some(s)).with_limit(k);
                request.cache = false;
                request.include_values = true;
                Job {
                    pipeline: Pipeline::khop(k),
                    request,
                    token: CancelToken::never(),
                    has_deadline: false,
                    received: Instant::now(),
                    slot: ReplySlot::new(),
                    pinned: None,
                }
            })
            .collect();
        let slots: Vec<Arc<ReplySlot>> = jobs.iter().map(|j| Arc::clone(&j.slot)).collect();
        let mut arena = BatchArena::with_retain_cap(4);
        core.execute(jobs, &mut arena);
        for (slot, reference) in slots.iter().zip(expect) {
            let got = match slot.wait() {
                Response::Query(q) => q,
                other => panic!("{other:?}"),
            };
            assert_eq!(got.values, reference.values);
            assert_eq!(got.checksum, reference.checksum);
            assert_eq!(got.iterations, reference.iterations);
        }
        core.shutdown();
    }

    fn mutable_core(config: ServerConfig) -> Arc<ServerCore> {
        let store = GraphStore::disabled();
        let spec = PrepareSpec::generated("rmat:8:8", 42).with_uniform_weights(1, 64, 7);
        let prepared = store.prepare(&spec).unwrap();
        let mutable = MutableGraph::open(store, prepared).unwrap();
        let core = ServerCore::new(config);
        core.add_mutable_graph("rmat8", Arc::new(mutable));
        core
    }

    #[test]
    fn static_graphs_reject_mutation_with_a_typed_error() {
        let core = small_core(ServerConfig::default());
        let resp = core.submit(Request::Mutate {
            graph: "rmat8".into(),
            ops: vec![MutationOp::AddEdge { u: 0, v: 1, w: 1 }],
        });
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ImmutableGraph),
            other => panic!("{other:?}"),
        }
        let resp = core.submit(Request::Compact {
            graph: "rmat8".into(),
        });
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::ImmutableGraph),
            other => panic!("{other:?}"),
        }
        let resp = core.submit(Request::Mutate {
            graph: "nope".into(),
            ops: vec![MutationOp::AddEdge { u: 0, v: 1, w: 1 }],
        });
        match resp {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownGraph),
            other => panic!("{other:?}"),
        }
        core.shutdown();
    }

    #[test]
    fn mutations_bump_the_epoch_so_cached_answers_never_leak() {
        let core = mutable_core(ServerConfig::default());
        let first = match core.submit(bfs_query(0)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(!first.cached);
        let warm = match core.submit(bfs_query(0)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(warm.cached, "same epoch: the cache entry must hit");
        // Grow the graph: node 256 hangs off node 0.
        let resp = core.submit(Request::Mutate {
            graph: "rmat8".into(),
            ops: vec![
                MutationOp::AddNode { nodes: 257 },
                MutationOp::AddEdge { u: 0, v: 256, w: 1 },
            ],
        });
        let mutated = match resp {
            Response::Mutate(m) => m,
            other => panic!("{other:?}"),
        };
        assert_eq!(mutated.applied, 2);
        assert_eq!(mutated.skipped, 0);
        assert!(mutated.epoch > 0);
        // The epoch key changed: the stale cached answer (without node
        // 256) is unreachable, and the fresh run sees the new edge.
        let mut req = QueryRequest::new("rmat8", Algo::Bfs, Some(0));
        req.include_values = true;
        let after = match core.submit(Request::Query(req)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        assert!(!after.cached, "stale epoch's entry must not hit");
        let values = after.values.unwrap();
        assert_eq!(values.len(), 257);
        assert_eq!(values[256], 1, "the added edge reaches the new node");
        assert_ne!(after.checksum, first.checksum);
        core.shutdown();
    }

    #[test]
    fn dirty_snapshots_serve_every_verb_and_match_the_merged_graph() {
        let core = mutable_core(ServerConfig::default());
        let mutable = core.mutable_graph("rmat8").unwrap();
        match core.submit(Request::Mutate {
            graph: "rmat8".into(),
            ops: vec![
                MutationOp::AddNode { nodes: 257 },
                MutationOp::AddEdge { u: 0, v: 256, w: 2 },
                MutationOp::AddEdge { u: 256, v: 1, w: 5 },
                MutationOp::RemoveEdge { u: 0, v: 0 },
            ],
        }) {
            Response::Mutate(m) => assert_eq!(m.applied + m.skipped, 4),
            other => panic!("{other:?}"),
        }
        // Reference: the snapshot's merged graph (itself differentially
        // tested against a from-scratch prepare in tigr-core) run
        // through the standard engine.
        let merged = mutable.snapshot().merged().unwrap();
        let engine = Engine::default()
            .with_backend(BackendKind::Sequential)
            .with_device_memory(u64::MAX);
        for (algo, prog, source) in [
            (Algo::Bfs, MonotoneProgram::BFS, Some(3)),
            (Algo::Sssp, MonotoneProgram::SSSP, Some(3)),
            (Algo::Sswp, MonotoneProgram::SSWP, Some(3)),
            (Algo::Cc, MonotoneProgram::CC, None),
        ] {
            let mut req = QueryRequest::new("rmat8", algo, source);
            req.include_values = true;
            let served = match core.submit(Request::Query(req)) {
                Response::Query(q) => q,
                other => panic!("{algo:?}: {other:?}"),
            };
            let direct = engine
                .run_prepared(&merged, prog, source.map(NodeId::new))
                .unwrap();
            assert_eq!(
                served.values.as_deref(),
                Some(direct.values.as_slice()),
                "{algo:?} view path diverged from the merged graph"
            );
        }
        // Non-monotone verbs take the merged-materialization path.
        let mut req = QueryRequest::new("rmat8", Algo::Pr, None);
        req.include_values = true;
        let served = match core.submit(Request::Query(req)) {
            Response::Query(q) => q,
            other => panic!("{other:?}"),
        };
        let values = served.values.unwrap();
        assert_eq!(values.len(), 257);
        let sum: f64 = values
            .iter()
            .map(|&bits| f64::from(f32::from_bits(bits)))
            .sum();
        assert!((sum - 1.0).abs() < 1e-3, "ranks sum to {sum}");
        core.shutdown();
    }

    #[test]
    fn compaction_preserves_answers_and_drains_the_delta() {
        let core = mutable_core(ServerConfig::default());
        match core.submit(Request::Mutate {
            graph: "rmat8".into(),
            ops: vec![
                MutationOp::AddNode { nodes: 257 },
                MutationOp::AddEdge { u: 0, v: 256, w: 3 },
                MutationOp::AddEdge { u: 256, v: 7, w: 2 },
            ],
        }) {
            Response::Mutate(m) => assert_eq!(m.applied, 3),
            other => panic!("{other:?}"),
        }
        let ask = |core: &Arc<ServerCore>, algo: Algo, source: Option<u32>| {
            let mut req = QueryRequest::new("rmat8", algo, source);
            req.cache = false;
            match core.submit(Request::Query(req)) {
                Response::Query(q) => q.checksum,
                other => panic!("{other:?}"),
            }
        };
        let before_bfs = ask(&core, Algo::Bfs, Some(0));
        let before_sssp = ask(&core, Algo::Sssp, Some(0));
        let compacted = match core.submit(Request::Compact {
            graph: "rmat8".into(),
        }) {
            Response::Compact(c) => c,
            other => panic!("{other:?}"),
        };
        assert!(compacted.delta_edges_before > 0);
        assert_eq!(compacted.delta_edges_after, 0);
        assert_eq!(ask(&core, Algo::Bfs, Some(0)), before_bfs);
        assert_eq!(ask(&core, Algo::Sssp, Some(0)), before_sssp);
        let stats = match core.submit(Request::Stats) {
            Response::Stats(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(stats.mutate_batches, 1);
        assert_eq!(stats.mutations_applied, 3);
        assert_eq!(stats.mutation.compactions, 1);
        assert_eq!(stats.mutation.delta_edges, 0);
        assert_eq!(stats.mutation.wal_len, 0, "compaction resets the WAL");
        assert!(stats.mutation.overlay_generation >= 2);
        core.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_typed() {
        let core = small_core(ServerConfig::default());
        core.shutdown();
        core.shutdown();
        match core.submit(bfs_query(0)) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Shutdown),
            other => panic!("{other:?}"),
        }
    }
}
