//! Real (wall-clock) parallel CPU execution of the analytics.
//!
//! The simulator measures *GPU-architectural* cost; this module is the
//! complementary "actually run it fast on this machine" path used by the
//! examples, `tigr run --cpu`, and the scheduling benches. It executes
//! the same monotone programs (plus push PageRank) over the same atomic
//! min/max value array, with work distributed by a [`CpuSchedule`]
//! policy:
//!
//! * [`CpuSchedule::NodeChunk`] — the legacy baseline: contiguous
//!   equal-*node-count* chunks, executed by threads spawned anew every
//!   BSP iteration ([`pool::SpawnPerEpoch`]). One hub node can pin a
//!   whole chunk on one worker, and short frontier iterations pay thread
//!   creation; kept selectable so the ablation bench can quantify both.
//! * [`CpuSchedule::EdgeBalanced`] — contiguous chunks covering ≈ equal
//!   *edge* counts (split on the `Csr::row_ptr` prefix sums; for
//!   frontier iterations, on the active list's degree prefix), executed
//!   by the persistent work-stealing pool ([`pool::with_pool`]).
//! * [`CpuSchedule::Virtual`] — Tigr's own abstraction (§4): work items
//!   are the degree-bounded virtual nodes of a [`VirtualGraph`], so
//!   every item touches at most `K` edges regardless of the degree
//!   distribution; frontier iterations expand active physical nodes into
//!   their virtual families through
//!   [`VirtualGraph::expand_active_into`]. Also pool-executed.
//!
//! All three policies reach the same fixpoint: the programs are
//! monotone, updates go through atomic `fetch_min`/`fetch_max`, and
//! stealing only changes *which worker* relaxes an edge, never whether
//! it is relaxed (see DESIGN.md §8). [`CpuOptions::frontier`] switches
//! the sweep from all nodes per iteration to only the nodes whose
//! values changed last iteration, collected through the same
//! deterministic [`FrontierBuilder`] the simulated engine uses.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use tigr_core::{CancelToken, VirtualGraph};
use tigr_graph::{Csr, NodeId};

use crate::algorithms::pr::{PrMode, PrOptions};
use crate::frontier::FrontierBuilder;
use crate::kernel::{
    csr_edges, push_relax, relax_kernel, slice_edges, unit_edges, EdgeFlow, EdgeRef, EdgeSource,
    NoMirror,
};
use crate::pool::{self, EpochRunner};
use crate::program::MonotoneProgram;
use crate::state::{AtomicFloats, AtomicValues};

/// Work-distribution policy for the CPU engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CpuSchedule {
    /// Contiguous equal-node-count chunks, threads spawned per
    /// iteration, no stealing — the legacy baseline.
    NodeChunk,
    /// Contiguous equal-edge-count chunks on the persistent
    /// work-stealing pool (the default).
    #[default]
    EdgeBalanced,
    /// Degree-bounded virtual nodes (paper §4) on the persistent
    /// work-stealing pool.
    Virtual,
}

impl CpuSchedule {
    /// All policies, in ablation order.
    pub const ALL: [CpuSchedule; 3] = [
        CpuSchedule::NodeChunk,
        CpuSchedule::EdgeBalanced,
        CpuSchedule::Virtual,
    ];

    /// Parses a policy name as the CLI and `TIGR_CPU_SCHEDULE` accept it.
    pub fn parse(s: &str) -> Option<CpuSchedule> {
        match s {
            "node-chunk" => Some(CpuSchedule::NodeChunk),
            "edge-balanced" => Some(CpuSchedule::EdgeBalanced),
            "virtual" => Some(CpuSchedule::Virtual),
            _ => None,
        }
    }

    /// The policy's name (`"node-chunk"`, `"edge-balanced"`, `"virtual"`).
    pub fn label(self) -> &'static str {
        match self {
            CpuSchedule::NodeChunk => "node-chunk",
            CpuSchedule::EdgeBalanced => "edge-balanced",
            CpuSchedule::Virtual => "virtual",
        }
    }

    /// The policy named by the `TIGR_CPU_SCHEDULE` environment variable,
    /// if set and valid.
    pub fn from_env() -> Option<CpuSchedule> {
        std::env::var("TIGR_CPU_SCHEDULE")
            .ok()
            .and_then(|s| CpuSchedule::parse(&s))
    }
}

/// Scheduling counters of a CPU run: how evenly the edge work spread
/// over the workers and how often the pool had to rebalance.
#[derive(Clone, Debug, Default)]
pub struct ScheduleStats {
    /// Policy that produced these counters.
    pub schedule: CpuSchedule,
    /// Chunks claimed from another worker's range (always 0 for
    /// [`CpuSchedule::NodeChunk`], which cannot steal).
    pub steals: u64,
    /// Edge relaxations performed by each worker, summed over all
    /// iterations.
    pub worker_edges: Vec<u64>,
}

impl ScheduleStats {
    fn new(schedule: CpuSchedule, worker_edges: Vec<u64>) -> ScheduleStats {
        ScheduleStats {
            schedule,
            steals: 0,
            worker_edges,
        }
    }

    /// Fewest edges any worker relaxed.
    pub fn worker_edges_min(&self) -> u64 {
        self.worker_edges.iter().copied().min().unwrap_or(0)
    }

    /// Most edges any worker relaxed.
    pub fn worker_edges_max(&self) -> u64 {
        self.worker_edges.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance as `max / mean` over workers (1.0 = perfectly
    /// even; `threads` = all edges on one worker). 1.0 when no edges
    /// were relaxed.
    pub fn imbalance_ratio(&self) -> f64 {
        let total: u64 = self.worker_edges.iter().sum();
        if total == 0 || self.worker_edges.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.worker_edges.len() as f64;
        self.worker_edges_max() as f64 / mean
    }
}

/// Result of a CPU-parallel run.
#[derive(Clone, Debug)]
pub struct CpuRunOutput {
    /// Final per-node values.
    pub values: Vec<u32>,
    /// BSP iterations executed.
    pub iterations: usize,
    /// Wall-clock time of the iteration loop.
    pub elapsed: Duration,
    /// Edge relaxations attempted across all iterations.
    pub edges_touched: u64,
    /// Steal and load-balance counters.
    pub sched: ScheduleStats,
    /// `true` if a [`CancelToken`] fired at a BSP iteration boundary
    /// before the fixpoint was reached; the values hold the consistent
    /// monotone prefix computed so far.
    pub cancelled: bool,
}

/// Knobs for [`run_cpu_with`].
#[derive(Clone, Copy, Debug)]
pub struct CpuOptions {
    /// Worker threads; must be at least 1.
    pub threads: usize,
    /// Sweep only the active frontier each iteration instead of every
    /// node. Same fixpoint, fewer edge relaxations on graphs where
    /// activity is localized.
    pub frontier: bool,
    /// Work-distribution policy.
    pub schedule: CpuSchedule,
    /// Degree bound `K` for [`CpuSchedule::Virtual`] when the overlay is
    /// built internally (ignored otherwise). A CPU work item is a
    /// stealable chunk, not a warp lane, so the sweet spot is far larger
    /// than the paper's GPU-side K: big enough that per-item dispatch
    /// cost stays negligible, small enough that a hub still splinters
    /// into many stealable pieces.
    pub virtual_k: u32,
}

impl Default for CpuOptions {
    fn default() -> CpuOptions {
        CpuOptions {
            threads: default_threads(),
            frontier: false,
            schedule: CpuSchedule::default(),
            virtual_k: 256,
        }
    }
}

/// Runs `prog` over `g` with `threads` worker threads until convergence.
///
/// Full-sweep convenience wrapper around [`run_cpu_with`] using the
/// default (edge-balanced) schedule.
///
/// # Panics
///
/// Panics if the program needs a source and none is given, if the source
/// is out of range, or if `threads == 0`.
pub fn run_cpu(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    threads: usize,
) -> CpuRunOutput {
    run_cpu_with(
        g,
        prog,
        source,
        &CpuOptions {
            threads,
            frontier: false,
            ..CpuOptions::default()
        },
    )
}

/// Runs `prog` over `g` until convergence, per `options`.
///
/// Uses relaxed synchronization (updates visible within an iteration),
/// which is safe for monotone programs and converges fastest. With
/// `options.frontier` set, each iteration relaxes only the out-edges of
/// nodes improved in the previous iteration; the active set is drained
/// in ascending node order, so the *work list* is deterministic
/// regardless of thread interleaving (and the fixpoint values always
/// are). For [`CpuSchedule::Virtual`] the overlay is built internally
/// with `options.virtual_k`; use [`run_cpu_virtual`] to reuse a
/// prebuilt one.
///
/// A run over an empty graph (`num_nodes() == 0`) performs no
/// relaxation work and reports exactly one (empty) inspection pass —
/// `iterations == 1` — without dispatching any worker.
///
/// # Panics
///
/// Panics if the program needs a source and none is given, if the source
/// is out of range, or if `options.threads == 0`.
pub fn run_cpu_with(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &CpuOptions,
) -> CpuRunOutput {
    run_cpu_with_cancellable(g, prog, source, options, &CancelToken::never())
}

/// [`run_cpu_with`] with a cooperative cancellation hook: `cancel` is
/// polled between BSP iterations (never mid-sweep), so a fired token
/// stops the run with `cancelled = true` and a consistent monotone
/// value prefix.
///
/// # Panics
///
/// See [`run_cpu_with`].
pub fn run_cpu_with_cancellable(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &CpuOptions,
    cancel: &CancelToken,
) -> CpuRunOutput {
    match options.schedule {
        CpuSchedule::Virtual => {
            let overlay = VirtualGraph::new(g, options.virtual_k.max(1));
            run_monotone_cpu(g, Some(&overlay), prog, source, options, cancel)
        }
        _ => run_monotone_cpu(g, None, prog, source, options, cancel),
    }
}

/// Runs `prog` over `g` scheduling the virtual nodes of a prebuilt
/// `overlay` (consecutive or coalesced layout), regardless of
/// `options.schedule`.
///
/// # Panics
///
/// Panics if `overlay` was not built for `g`, plus everything
/// [`run_cpu_with`] panics on.
pub fn run_cpu_virtual(
    g: &Csr,
    overlay: &VirtualGraph,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &CpuOptions,
) -> CpuRunOutput {
    run_cpu_virtual_cancellable(g, overlay, prog, source, options, &CancelToken::never())
}

/// [`run_cpu_virtual`] with a cooperative cancellation hook (see
/// [`run_cpu_with_cancellable`] for the contract).
///
/// # Panics
///
/// See [`run_cpu_virtual`].
pub fn run_cpu_virtual_cancellable(
    g: &Csr,
    overlay: &VirtualGraph,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &CpuOptions,
    cancel: &CancelToken,
) -> CpuRunOutput {
    assert!(
        overlay.num_physical_nodes() == g.num_nodes(),
        "overlay built for a different graph"
    );
    run_monotone_cpu(g, Some(overlay), prog, source, options, cancel)
}

/// Shared sweep state the worker body closures capture.
struct SweepState<'a> {
    g: &'a Csr,
    overlay: Option<&'a VirtualGraph>,
    prog: MonotoneProgram,
    values: AtomicValues,
    /// Frontier iterations map epoch indices through this list (node ids
    /// for physical schedules, virtual-node indices under an overlay).
    /// Full sweeps use the identity mapping and never touch it.
    items: RwLock<Vec<u32>>,
    next: FrontierBuilder,
    changed: AtomicBool,
    frontier: bool,
    worker_edges: Vec<AtomicU64>,
}

impl SweepState<'_> {
    /// Worker body: relax every item of `r`, crediting `w`'s counters.
    fn process(&self, w: usize, r: Range<usize>) {
        let mut touched = 0u64;
        if self.frontier {
            let items = self.items.read().unwrap();
            for &item in &items[r] {
                touched += self.relax(item as usize);
            }
        } else {
            for item in r {
                touched += self.relax(item);
            }
        }
        self.worker_edges[w].fetch_add(touched, Ordering::Relaxed);
    }

    fn relax(&self, item: usize) -> u64 {
        match self.overlay {
            None => self.relax_node(item),
            Some(ov) => self.relax_vnode(ov, item),
        }
    }

    fn improved(&self, target: usize) {
        if self.frontier {
            self.next.activate(target);
        } else {
            self.changed.store(true, Ordering::Relaxed);
        }
    }

    /// Relaxes every out-edge of physical node `v`, returning how many
    /// were attempted.
    fn relax_node(&self, v: usize) -> u64 {
        let node = NodeId::from_index(v);
        let d = self.values.load(v);
        // Neighbor and weight slices are loop-invariant: index `row_ptr`
        // once per node, not per edge.
        self.relax_edges(
            d,
            slice_edges(
                self.g.edge_start(node),
                self.g.neighbors(node),
                self.g.neighbor_weights(node),
            ),
        )
    }

    /// Relaxes the ≤ K edges covered by virtual node `i`. Values are
    /// read and written at the *physical* slot, so sibling virtual nodes
    /// observe each other's updates instantly (§4.1).
    fn relax_vnode(&self, ov: &VirtualGraph, i: usize) -> u64 {
        let vn = ov.vnode(i);
        let d = self.values.load(vn.physical.index());
        if vn.stride == 1 {
            // Consecutive cover: the same contiguous-slice inner loop as
            // a physical node, just over ≤ K edges.
            let (lo, hi) = (vn.first_edge as usize, (vn.first_edge + vn.count) as usize);
            let ws = self.g.weights().map(|w| &w[lo..hi]);
            self.relax_edges(d, slice_edges(lo, &self.g.col_idx()[lo..hi], ws))
        } else {
            self.relax_edges(d, csr_edges(self.g, vn.edge_indices()))
        }
    }

    #[inline]
    fn relax_edges(&self, d: u32, edges: impl EdgeSource) -> u64 {
        push_relax(
            &mut NoMirror,
            self.prog,
            &self.values,
            None,
            d,
            edges,
            |_, target| self.improved(target),
        )
    }
}

fn run_monotone_cpu(
    g: &Csr,
    overlay: Option<&VirtualGraph>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &CpuOptions,
    cancel: &CancelToken,
) -> CpuRunOutput {
    let threads = options.threads;
    assert!(threads > 0, "need at least one worker thread");
    let schedule = if overlay.is_some() {
        CpuSchedule::Virtual
    } else {
        options.schedule
    };
    let n = g.num_nodes();
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let start = Instant::now();
    if n == 0 {
        // Nothing to sweep: report the single empty inspection pass
        // without dispatching a worker (let alone spawning one).
        return CpuRunOutput {
            values: values.snapshot(),
            iterations: 1,
            elapsed: start.elapsed(),
            edges_touched: 0,
            sched: ScheduleStats::new(schedule, vec![0; threads]),
            cancelled: false,
        };
    }

    let state = SweepState {
        g,
        overlay,
        prog,
        values,
        items: RwLock::new(Vec::new()),
        next: FrontierBuilder::new(n),
        changed: AtomicBool::new(false),
        frontier: options.frontier,
        worker_edges: (0..threads).map(|_| AtomicU64::new(0)).collect(),
    };
    let body = |w: usize, r: Range<usize>| state.process(w, r);

    let ((iterations, cancelled), steals) = if schedule == CpuSchedule::NodeChunk {
        let runner = pool::SpawnPerEpoch::new(threads, &body);
        (drive_monotone(&state, &runner, source, schedule, cancel), 0)
    } else {
        pool::with_pool(threads, &body, |p| {
            (
                drive_monotone(&state, p, source, schedule, cancel),
                p.steals(),
            )
        })
    };

    let worker_edges: Vec<u64> = state
        .worker_edges
        .iter()
        .map(|e| e.load(Ordering::Relaxed))
        .collect();
    CpuRunOutput {
        values: state.values.snapshot(),
        iterations,
        elapsed: start.elapsed(),
        edges_touched: worker_edges.iter().sum(),
        sched: ScheduleStats {
            schedule,
            steals,
            worker_edges,
        },
        cancelled,
    }
}

/// The BSP driver loop, shared by all schedules and executors. Returns
/// `(iterations, cancelled)`; the token is polled between epochs only,
/// so a cancelled run still ends on a consistent iteration boundary.
fn drive_monotone(
    state: &SweepState<'_>,
    runner: &dyn EpochRunner,
    source: Option<NodeId>,
    schedule: CpuSchedule,
    cancel: &CancelToken,
) -> (usize, bool) {
    let g = state.g;
    let n = g.num_nodes();
    let threads = runner.workers();
    let mut bounds = vec![(0usize, 0usize); threads];
    let mut iterations = 0usize;

    if state.frontier {
        let mut active: Vec<u32> = state.prog.initial_frontier(n, source);
        active.sort_unstable();
        active.dedup();
        let mut degree_prefix: Vec<u64> = Vec::new();
        while !active.is_empty() {
            if cancel.is_cancelled() {
                return (iterations.max(1), true);
            }
            let nitems = {
                let mut items = state.items.write().unwrap();
                match state.overlay {
                    Some(ov) => ov.expand_active_into(&active, &mut items),
                    None => {
                        items.clear();
                        items.extend_from_slice(&active);
                    }
                }
                items.len()
            };
            match schedule {
                CpuSchedule::EdgeBalanced => {
                    degree_prefix.clear();
                    degree_prefix.push(0);
                    let mut acc = 0u64;
                    for &v in &active {
                        acc += g.out_degree(NodeId::new(v)) as u64;
                        degree_prefix.push(acc);
                    }
                    balanced_cuts(&degree_prefix, &mut bounds);
                }
                // Virtual items are degree-bounded, so an even item
                // split is already edge-balanced to within K.
                _ => count_bounds(nitems, &mut bounds),
            }
            runner.run_epoch(&bounds);
            iterations += 1;
            state.next.drain_into(&mut active);
        }
        // A frontier run with nothing initially active still counts as
        // one (empty) inspection pass, matching the full-sweep loop.
        (iterations.max(1), false)
    } else {
        // Static partition, computed once: the item space never changes.
        match (schedule, state.overlay) {
            (CpuSchedule::EdgeBalanced, None) => {
                let prefix: Vec<u64> = g.row_ptr().iter().map(|&e| e as u64).collect();
                balanced_cuts(&prefix, &mut bounds);
            }
            (_, Some(ov)) => count_bounds(ov.num_virtual_nodes(), &mut bounds),
            _ => count_bounds(n, &mut bounds),
        }
        loop {
            if cancel.is_cancelled() {
                return (iterations, true);
            }
            state.changed.store(false, Ordering::Relaxed);
            runner.run_epoch(&bounds);
            iterations += 1;
            if !state.changed.load(Ordering::Relaxed) {
                break;
            }
        }
        (iterations, false)
    }
}

/// Contiguous equal-item-count partition — the legacy node-chunk split.
/// Shared with the batched executor ([`crate::batch`]).
pub(crate) fn count_bounds(total: usize, bounds: &mut [(usize, usize)]) {
    let chunk = total.div_ceil(bounds.len()).max(1);
    for (w, b) in bounds.iter_mut().enumerate() {
        *b = ((w * chunk).min(total), ((w + 1) * chunk).min(total));
    }
}

/// Contiguous partition of `prefix.len() - 1` items so every part covers
/// ≈ equal weight, where `prefix[i]` is the total weight of items
/// `0..i` (e.g. `Csr::row_ptr`: equal *edge* counts per part).
/// Shared with the batched executor ([`crate::batch`]).
pub(crate) fn balanced_cuts(prefix: &[u64], bounds: &mut [(usize, usize)]) {
    let parts = bounds.len();
    let items = prefix.len() - 1;
    let total = prefix[items];
    if total == 0 {
        count_bounds(items, bounds);
        return;
    }
    let mut prev = 0usize;
    for (w, b) in bounds.iter_mut().enumerate() {
        let hi = if w + 1 == parts {
            items
        } else {
            let target = total * (w as u64 + 1) / parts as u64;
            prefix.partition_point(|&c| c < target).min(items).max(prev)
        };
        *b = (prev, hi);
        prev = hi;
    }
}

/// Result of a CPU PageRank run.
#[derive(Clone, Debug)]
pub struct CpuPrOutput {
    /// Final ranks, summing to ≈ 1.
    pub ranks: Vec<f32>,
    /// Power iterations executed.
    pub iterations: usize,
    /// `false` if `max_iterations` hit before `tolerance`.
    pub converged: bool,
    /// Wall-clock time of the iteration loop.
    pub elapsed: Duration,
    /// Rank contributions scattered (one per out-edge per iteration).
    pub edges_touched: u64,
    /// Steal and load-balance counters.
    pub sched: ScheduleStats,
    /// `true` if a [`CancelToken`] fired between power iterations before
    /// `tolerance` was reached.
    pub cancelled: bool,
}

/// Shared PageRank state; the worker body dispatches on `phase`.
struct PrState<'a> {
    g: &'a Csr,
    overlay: Option<&'a VirtualGraph>,
    ranks: AtomicFloats,
    accum: AtomicFloats,
    out_degrees: Vec<u32>,
    damping: f32,
    /// `(1 - d)/n + d·dangling/n`, published by the driver before each
    /// finalize phase (f32 bits).
    base_bits: AtomicU64,
    /// 0 = scatter, 1 = finalize.
    phase: AtomicU8,
    /// Per-worker L1-delta partials (f64 bits; each slot has a single
    /// writer — the worker that owns it).
    worker_delta: Vec<AtomicU64>,
    worker_edges: Vec<AtomicU64>,
}

const PHASE_SCATTER: u8 = 0;
const PHASE_FINALIZE: u8 = 1;

impl PrState<'_> {
    fn process(&self, w: usize, r: Range<usize>) {
        match self.phase.load(Ordering::Relaxed) {
            PHASE_SCATTER => self.scatter(w, r),
            _ => self.finalize(w, r),
        }
    }

    /// Scatter `rank/outdeg` along the out-edges of the items in `r`
    /// (physical nodes, or virtual nodes under an overlay).
    fn scatter(&self, w: usize, r: Range<usize>) {
        let mut touched = 0u64;
        let spread = |share: f32| {
            move |_: &mut NoMirror, edge: EdgeRef| {
                self.accum.fetch_add(edge.target, share);
                EdgeFlow::Continue
            }
        };
        match self.overlay {
            None => {
                for v in r {
                    let deg = self.out_degrees[v];
                    if deg == 0 {
                        continue;
                    }
                    let share = self.ranks.load(v) / deg as f32;
                    let node = NodeId::from_index(v);
                    touched += relax_kernel(
                        &mut NoMirror,
                        unit_edges(self.g.edge_start(node), self.g.neighbors(node)),
                        spread(share),
                    );
                }
            }
            Some(ov) => {
                for i in r {
                    let vn = ov.vnode(i);
                    if vn.count == 0 {
                        continue;
                    }
                    let p = vn.physical.index();
                    let share = self.ranks.load(p) / self.out_degrees[p] as f32;
                    touched += if vn.stride == 1 {
                        let (lo, hi) =
                            (vn.first_edge as usize, (vn.first_edge + vn.count) as usize);
                        relax_kernel(
                            &mut NoMirror,
                            unit_edges(lo, &self.g.col_idx()[lo..hi]),
                            spread(share),
                        )
                    } else {
                        relax_kernel(
                            &mut NoMirror,
                            csr_edges(self.g, vn.edge_indices()),
                            spread(share),
                        )
                    };
                }
            }
        }
        self.worker_edges[w].fetch_add(touched, Ordering::Relaxed);
    }

    /// `rank = base + d·accum` over the node range `r`, accumulating the
    /// worker's share of the L1 delta.
    fn finalize(&self, w: usize, r: Range<usize>) {
        let base = f32::from_bits(self.base_bits.load(Ordering::Relaxed) as u32);
        let mut delta = 0.0f64;
        for v in r {
            let new = base + self.damping * self.accum.load(v);
            let old = self.ranks.load(v);
            self.ranks.store(v, new);
            delta += (new - old).abs() as f64;
        }
        let slot = &self.worker_delta[w];
        let prev = f64::from_bits(slot.load(Ordering::Relaxed));
        slot.store((prev + delta).to_bits(), Ordering::Relaxed);
    }
}

/// Runs push-mode PageRank over `g` on the CPU, scheduled per
/// `cpu_options` — the wall-clock counterpart of
/// [`crate::algorithms::pr::run`]. Dangling mass redistributes
/// uniformly; iteration stops when the L1 rank change drops below
/// `options.tolerance` or at `options.max_iterations`.
///
/// Rank accumulation order varies with worker interleaving, so ranks are
/// deterministic only to floating-point rounding (compare with a
/// tolerance); the monotone analytics in [`run_cpu_with`] have no such
/// caveat.
///
/// # Panics
///
/// Panics if `options.mode` is [`PrMode::Pull`] (the CPU path schedules
/// the forward graph only) or `cpu_options.threads == 0`.
pub fn run_cpu_pr(g: &Csr, options: &PrOptions, cpu_options: &CpuOptions) -> CpuPrOutput {
    run_cpu_pr_cancellable(g, options, cpu_options, &CancelToken::never())
}

/// [`run_cpu_pr`] with a cooperative cancellation hook polled between
/// power iterations (see [`run_cpu_with_cancellable`] for the contract).
///
/// # Panics
///
/// See [`run_cpu_pr`].
pub fn run_cpu_pr_cancellable(
    g: &Csr,
    options: &PrOptions,
    cpu_options: &CpuOptions,
    cancel: &CancelToken,
) -> CpuPrOutput {
    assert!(
        options.mode == PrMode::Push,
        "CPU PageRank supports push mode only"
    );
    let threads = cpu_options.threads;
    assert!(threads > 0, "need at least one worker thread");
    let n = g.num_nodes();
    let start = Instant::now();
    let schedule = cpu_options.schedule;
    if n == 0 {
        return CpuPrOutput {
            ranks: Vec::new(),
            iterations: 0,
            converged: true,
            elapsed: start.elapsed(),
            edges_touched: 0,
            sched: ScheduleStats::new(schedule, vec![0; threads]),
            cancelled: false,
        };
    }

    let overlay = match schedule {
        CpuSchedule::Virtual => Some(VirtualGraph::new(g, cpu_options.virtual_k.max(1))),
        _ => None,
    };
    let state = PrState {
        g,
        overlay: overlay.as_ref(),
        ranks: AtomicFloats::new(n, 1.0 / n as f32),
        accum: AtomicFloats::new(n, 0.0),
        out_degrees: g.nodes().map(|v| g.out_degree(v) as u32).collect(),
        damping: options.damping,
        base_bits: AtomicU64::new(0),
        phase: AtomicU8::new(PHASE_SCATTER),
        worker_delta: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        worker_edges: (0..threads).map(|_| AtomicU64::new(0)).collect(),
    };
    let body = |w: usize, r: Range<usize>| state.process(w, r);

    let ((iterations, converged, cancelled), steals) = if schedule == CpuSchedule::NodeChunk {
        let runner = pool::SpawnPerEpoch::new(threads, &body);
        (drive_pr(&state, &runner, options, schedule, cancel), 0)
    } else {
        pool::with_pool(threads, &body, |p| {
            (drive_pr(&state, p, options, schedule, cancel), p.steals())
        })
    };

    let worker_edges: Vec<u64> = state
        .worker_edges
        .iter()
        .map(|e| e.load(Ordering::Relaxed))
        .collect();
    CpuPrOutput {
        ranks: state.ranks.snapshot(),
        iterations,
        converged,
        elapsed: start.elapsed(),
        edges_touched: worker_edges.iter().sum(),
        sched: ScheduleStats {
            schedule,
            steals,
            worker_edges,
        },
        cancelled,
    }
}

fn drive_pr(
    state: &PrState<'_>,
    runner: &dyn EpochRunner,
    options: &PrOptions,
    schedule: CpuSchedule,
    cancel: &CancelToken,
) -> (usize, bool, bool) {
    let g = state.g;
    let n = g.num_nodes();
    let threads = runner.workers();

    // Scatter partition over the schedule's item space, computed once
    // (PageRank full-sweeps every iteration).
    let mut scatter_bounds = vec![(0usize, 0usize); threads];
    match (schedule, state.overlay) {
        (CpuSchedule::EdgeBalanced, None) => {
            let prefix: Vec<u64> = g.row_ptr().iter().map(|&e| e as u64).collect();
            balanced_cuts(&prefix, &mut scatter_bounds);
        }
        (_, Some(ov)) => count_bounds(ov.num_virtual_nodes(), &mut scatter_bounds),
        _ => count_bounds(n, &mut scatter_bounds),
    }
    // Finalize is O(1) per node: an even node split is balanced.
    let mut finalize_bounds = vec![(0usize, 0usize); threads];
    count_bounds(n, &mut finalize_bounds);
    // Dangling nodes never change; reduce their rank mass on the driver.
    let dangling: Vec<usize> = (0..n).filter(|&v| state.out_degrees[v] == 0).collect();

    let mut iterations = 0usize;
    for _ in 0..options.max_iterations {
        if cancel.is_cancelled() {
            return (iterations, false, true);
        }
        state.accum.fill(0.0);
        state.phase.store(PHASE_SCATTER, Ordering::Relaxed);
        runner.run_epoch(&scatter_bounds);

        let dangling_mass: f64 = dangling.iter().map(|&v| state.ranks.load(v) as f64).sum();
        let base = (1.0 - options.damping) / n as f32
            + options.damping * (dangling_mass as f32) / n as f32;
        state
            .base_bits
            .store(base.to_bits() as u64, Ordering::Relaxed);
        for slot in &state.worker_delta {
            slot.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
        state.phase.store(PHASE_FINALIZE, Ordering::Relaxed);
        runner.run_epoch(&finalize_bounds);

        iterations += 1;
        let delta: f64 = state
            .worker_delta
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
            .sum();
        if delta < options.tolerance as f64 {
            return (iterations, true, false);
        }
    }
    (iterations, false, false)
}

/// Number of worker threads matching the host's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::dijkstra;

    fn opts(threads: usize, frontier: bool, schedule: CpuSchedule) -> CpuOptions {
        CpuOptions {
            threads,
            frontier,
            schedule,
            ..CpuOptions::default()
        }
    }

    #[test]
    fn cpu_sssp_matches_dijkstra_under_every_schedule() {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(9, 8), 61), 1, 32, 8);
        let expect = dijkstra(&g, NodeId::new(0));
        for schedule in CpuSchedule::ALL {
            for threads in [1, 4] {
                let out = run_cpu_with(
                    &g,
                    MonotoneProgram::SSSP,
                    Some(NodeId::new(0)),
                    &opts(threads, false, schedule),
                );
                assert_eq!(out.values, expect, "{}/threads={threads}", schedule.label());
                assert!(out.iterations > 0);
                assert_eq!(out.sched.schedule, schedule);
                assert_eq!(
                    out.sched.worker_edges.iter().sum::<u64>(),
                    out.edges_touched
                );
            }
        }
    }

    #[test]
    fn frontier_matches_full_sweep_and_touches_fewer_edges() {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(9, 8), 61), 1, 32, 8);
        let src = Some(NodeId::new(0));
        let full = run_cpu_with(
            &g,
            MonotoneProgram::SSSP,
            src,
            &opts(4, false, CpuSchedule::EdgeBalanced),
        );
        for schedule in CpuSchedule::ALL {
            for threads in [1, 4] {
                let frontier = run_cpu_with(
                    &g,
                    MonotoneProgram::SSSP,
                    src,
                    &opts(threads, true, schedule),
                );
                assert_eq!(
                    frontier.values,
                    full.values,
                    "{}/threads={threads}",
                    schedule.label()
                );
                assert!(
                    frontier.edges_touched < full.edges_touched,
                    "{}/threads={threads}: frontier {} vs full {}",
                    schedule.label(),
                    frontier.edges_touched,
                    full.edges_touched
                );
            }
        }
    }

    #[test]
    fn full_sweep_charges_all_edges_every_iteration() {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(8, 8), 7), 1, 32, 8);
        let out = run_cpu(&g, MonotoneProgram::SSSP, Some(NodeId::new(0)), 2);
        assert_eq!(
            out.edges_touched,
            g.num_edges() as u64 * out.iterations as u64
        );
    }

    #[test]
    fn cpu_cc_matches_oracle() {
        let mut b = tigr_graph::CsrBuilder::new(6);
        b.symmetric(true);
        b.edge(0, 1).edge(1, 2).edge(3, 4);
        let g = b.build();
        for schedule in CpuSchedule::ALL {
            let out = run_cpu_with(&g, MonotoneProgram::CC, None, &opts(2, false, schedule));
            assert_eq!(
                out.values,
                tigr_graph::properties::connected_components(&g),
                "{}",
                schedule.label()
            );
        }
    }

    #[test]
    fn frontier_cc_matches_oracle() {
        let mut b = tigr_graph::CsrBuilder::new(7);
        b.symmetric(true);
        b.edge(0, 1).edge(1, 2).edge(3, 4).edge(5, 5);
        let g = b.build();
        let out = run_cpu_with(
            &g,
            MonotoneProgram::CC,
            None,
            &opts(3, true, CpuSchedule::Virtual),
        );
        assert_eq!(out.values, tigr_graph::properties::connected_components(&g));
    }

    #[test]
    fn prebuilt_coalesced_overlay_is_accepted() {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(8, 8), 5), 1, 16, 3);
        let expect = dijkstra(&g, NodeId::new(0));
        let ov = VirtualGraph::coalesced(&g, 4);
        let out = run_cpu_virtual(
            &g,
            &ov,
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &opts(3, true, CpuSchedule::EdgeBalanced), // schedule is overridden
        );
        assert_eq!(out.values, expect);
        assert_eq!(out.sched.schedule, CpuSchedule::Virtual);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn mismatched_overlay_rejected() {
        let g = tigr_graph::generators::star_graph(10);
        let other = tigr_graph::generators::star_graph(11);
        let ov = VirtualGraph::new(&other, 4);
        let _ = run_cpu_virtual(&g, &ov, MonotoneProgram::CC, None, &CpuOptions::default());
    }

    #[test]
    fn empty_graph_terminates_without_dispatch() {
        let g = tigr_graph::CsrBuilder::new(0).build();
        for schedule in CpuSchedule::ALL {
            for frontier in [false, true] {
                let out = run_cpu_with(&g, MonotoneProgram::CC, None, &opts(2, frontier, schedule));
                assert!(out.values.is_empty());
                assert_eq!(out.iterations, 1);
                assert_eq!(out.edges_touched, 0);
            }
        }
    }

    #[test]
    fn schedule_parsing_round_trips() {
        for schedule in CpuSchedule::ALL {
            assert_eq!(CpuSchedule::parse(schedule.label()), Some(schedule));
        }
        assert_eq!(CpuSchedule::parse("chunked"), None);
        assert_eq!(CpuSchedule::default(), CpuSchedule::EdgeBalanced);
    }

    #[test]
    fn stats_report_imbalance() {
        let even = ScheduleStats {
            schedule: CpuSchedule::EdgeBalanced,
            steals: 0,
            worker_edges: vec![100, 100, 100, 100],
        };
        assert_eq!(even.worker_edges_min(), 100);
        assert_eq!(even.worker_edges_max(), 100);
        assert!((even.imbalance_ratio() - 1.0).abs() < 1e-12);
        let skewed = ScheduleStats {
            schedule: CpuSchedule::NodeChunk,
            steals: 0,
            worker_edges: vec![400, 0, 0, 0],
        };
        assert!((skewed.imbalance_ratio() - 4.0).abs() < 1e-12);
        assert_eq!(ScheduleStats::default().imbalance_ratio(), 1.0);
    }

    #[test]
    fn balanced_cuts_split_by_weight() {
        // Items with weights 10, 0, 0, 0, 10: two parts should split the
        // hub items apart instead of 3-vs-2 by count.
        let prefix = [0u64, 10, 10, 10, 10, 20];
        let mut bounds = vec![(0, 0); 2];
        balanced_cuts(&prefix, &mut bounds);
        assert_eq!(bounds, vec![(0, 1), (1, 5)]);
        // Degenerate: all weight zero falls back to count split.
        let mut bounds = vec![(0, 0); 2];
        balanced_cuts(&[0u64, 0, 0, 0, 0], &mut bounds);
        assert_eq!(bounds, vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn cpu_pr_matches_power_iteration_under_every_schedule() {
        let g = rmat(&RmatConfig::graph500(7, 6), 41);
        let expect = tigr_graph::properties::pagerank(&g, 0.85, 60);
        let pr_opts = PrOptions {
            damping: 0.85,
            tolerance: 1e-7,
            max_iterations: 60,
            mode: PrMode::Push,
        };
        for schedule in CpuSchedule::ALL {
            for threads in [1, 4] {
                let out = run_cpu_pr(&g, &pr_opts, &opts(threads, false, schedule));
                assert!(out.converged, "{}/threads={threads}", schedule.label());
                for (i, (&got, &want)) in out.ranks.iter().zip(&expect).enumerate() {
                    assert!(
                        (got as f64 - want).abs() < 1e-4,
                        "{}/threads={threads}: rank[{i}] {got} vs {want}",
                        schedule.label()
                    );
                }
                let total: f32 = out.ranks.iter().sum();
                assert!((total - 1.0).abs() < 1e-3, "ranks sum to {total}");
                assert!(out.edges_touched >= g.num_edges() as u64);
            }
        }
    }

    #[test]
    fn cpu_pr_empty_graph() {
        let g = tigr_graph::CsrBuilder::new(0).build();
        let out = run_cpu_pr(&g, &PrOptions::default(), &CpuOptions::default());
        assert!(out.ranks.is_empty());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    #[should_panic(expected = "push mode only")]
    fn cpu_pr_rejects_pull() {
        let g = tigr_graph::generators::star_graph(4);
        let _ = run_cpu_pr(
            &g,
            &PrOptions {
                mode: PrMode::Pull,
                ..PrOptions::default()
            },
            &CpuOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let g = tigr_graph::CsrBuilder::new(1).build();
        let _ = run_cpu(&g, MonotoneProgram::CC, None, 0);
    }
}
