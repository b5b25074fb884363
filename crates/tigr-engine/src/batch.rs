//! The host push driver: K same-program runs fused into one sequence
//! of sweeps over a graph's rows.
//!
//! The serving workload runs the *same* monotone program from many
//! sources over one shared graph. Executed one query at a time, every
//! run streams the whole edge array again — which is why serving
//! throughput stays flat as workers are added on a memory-bound host.
//! This module applies the "multiple frontiers" idea (Gunrock): give
//! each query its own **lane** — a private value array, next-frontier
//! bitmap, and worklist — and advance all lanes in lockstep, merging
//! their sorted active lists node-major so each node's adjacency row
//! is hot in cache for every lane that needs it in a sweep.
//!
//! [`run_batch_sequential_push`] is the one sequential push loop on the
//! host. It is generic over [`RowView`] — a [`Csr`], or a pinned
//! snapshot's base+delta view — and monomorphised per implementor, so
//! nothing on the per-row or per-edge path is dynamic. A solo run *is*
//! a `K = 1` batch: the `Sequential` backend calls it with one lane, so
//! there is no second state machine to keep in step. A lane's schedule
//! depends on nothing but its own state — pre-iteration checks in a
//! fixed order (iteration cap, empty worklist, cancellation poll),
//! ascending relaxation order (per-lane active lists are ascending, and
//! the node-major merge preserves that per lane), a private value array,
//! an optional BSP double buffer — so its `values`, iteration count,
//! `converged`, `cancelled`, and `edges_touched` are the same to the
//! byte whatever its batchmates do. Duplicate sources are just duplicate
//! lanes.
//!
//! A lane has exactly one writer — this loop — so its state is plain
//! memory: `Vec<u32>` values and a `Vec<u64>` bitmap. An improvement is
//! a compare and a store, an activation an `|=` into a word, a drain a
//! `mem::take` per word; nothing on a lane is `lock`ed. The relax body
//! is still [`push_relax`], instantiated over the lane's `&mut [u32]`
//! where the simulator and the pool instantiate it over shared atomics.
//!
//! Two executors share the lane abstraction:
//!
//! * [`run_batch_sequential_push`] — the deterministic reference. Lane
//!   layout is SoA (one value array per lane): lanes converge at
//!   different iterations, SoA lets finished lanes drop out without
//!   holes, and a lane's output is a straight copy (a solo run's is a
//!   move, `run_solo_sequential_push`).
//! * [`run_batch_cpu_pool`] — the pooled executor (DESIGN.md §8), and
//!   the only one: a solo `CpuPool` run is its `K = 1` batch. Values are
//!   interleaved **lane-major per node** (`values[v * K + lane]`), so
//!   one edge walk relaxes every live lane over contiguous memory;
//!   sweeps run on the work-stealing pool, partitioned by the
//!   representation (virtual nodes by count, anything else by
//!   edge-balanced `row_ptr` cuts); the per-sweep direction follows the
//!   Beamer density rule over the **merged** live-lane frontier (one
//!   transpose pass gathers for all lanes when it is dense), and
//!   per-worker scratch lives in [`BatchArena`]. Its contract is
//!   *value* equality with the solo sequential run — `values`,
//!   checksum, `converged`, `cancelled` — while iteration and edge
//!   counts reflect the fused schedule.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, RwLock};

use tigr_core::{CancelToken, VirtualGraph};
use tigr_graph::{reverse::transpose, Csr, NodeId, RowView};
use tigr_sim::SimReport;

use crate::frontier::{drain_words, FrontierBuilder};
use crate::kernel::{
    csr_edges, pull_gather_lanes, push_relax, push_relax_lanes, slice_edges, NoMirror,
};
use crate::monotone::MonotoneOutput;
use crate::plan::{Direction, DirectionSwitch, ExecutionPlan};
use crate::pool::{balanced_cuts, count_bounds, with_pool};
use crate::program::{InitKind, MonotoneProgram};
use crate::push::{PushOptions, SyncMode};
use crate::representation::Representation;
use crate::state::AtomicValues;

/// One query's slot in a batch: its source and its own cancellation
/// token, so a deadline poisons only this lane.
#[derive(Clone, Debug)]
pub struct BatchLane {
    /// Source node (`None` for source-free programs like CC).
    pub source: Option<NodeId>,
    /// Per-lane cancellation, polled before each of the lane's
    /// iterations.
    pub cancel: CancelToken,
}

impl BatchLane {
    /// A lane with no deadline.
    pub fn new(source: Option<NodeId>) -> Self {
        BatchLane {
            source,
            cancel: CancelToken::never(),
        }
    }

    /// A lane carrying its own cancellation token.
    pub fn with_cancel(source: Option<NodeId>, cancel: CancelToken) -> Self {
        BatchLane { source, cancel }
    }
}

/// K runs of one monotone program, executed as a single multi-source
/// sweep sequence.
#[derive(Clone, Debug)]
pub struct BatchProgram {
    /// The shared vertex program (batch compatibility: all lanes run
    /// the same program over the same representation).
    pub prog: MonotoneProgram,
    /// One lane per query; duplicates are allowed.
    pub lanes: Vec<BatchLane>,
}

impl BatchProgram {
    /// A batch of `prog` from the given sources, no deadlines.
    pub fn from_sources(
        prog: MonotoneProgram,
        sources: impl IntoIterator<Item = Option<NodeId>>,
    ) -> Self {
        BatchProgram {
            prog,
            lanes: sources.into_iter().map(BatchLane::new).collect(),
        }
    }

    /// The `K = 1` batch a solo run is: one lane under `cancel`.
    pub fn solo(prog: MonotoneProgram, source: Option<NodeId>, cancel: CancelToken) -> Self {
        BatchProgram {
            prog,
            lanes: vec![BatchLane::with_cancel(source, cancel)],
        }
    }
}

/// Result of a batched run: one [`MonotoneOutput`] per lane, in lane
/// order.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per-lane outputs (same order as [`BatchProgram::lanes`]).
    pub lanes: Vec<MonotoneOutput>,
    /// Fused sweeps executed — one per round in which at least one lane
    /// ran an iteration. `max` over lanes of their iteration count.
    pub sweeps: usize,
}

/// Reusable batch storage, so a worker thread executing a stream of
/// batches stops allocating per query: per-lane slots (value array,
/// next-frontier bitmap, worklist) for the sequential executor, plus the
/// interleaved lane-major value buffer, merged-frontier structures,
/// and per-worker scratch rows of the parallel executor. Storage grows
/// lazily to the widest batch seen; a retain cap (see
/// [`BatchArena::with_retain_cap`]) bounds what survives a wide batch
/// so alternating wide/narrow batches cannot ratchet peak memory.
#[derive(Debug)]
pub struct BatchArena {
    slots: Vec<LaneSlot>,
    /// Interleaved values for the parallel path: lane `l` of node `v`
    /// lives at `v * k + l`. May be retained larger than `n * k`; only
    /// the prefix is used (stride is always the current batch width).
    lane_major: AtomicValues,
    /// Merged next-frontier collector (union over live lanes).
    union_next: FrontierBuilder,
    /// Node count `union_next` was built for.
    union_n: usize,
    /// Merged current-frontier node list, ascending.
    union_active: Vec<u32>,
    /// Merged current-frontier bitmap (pull-sweep source filter).
    union_bits: Vec<u64>,
    /// Expanded work items (virtual-node schedule).
    items: Vec<u32>,
    /// Per-worker scratch rows (hoisted lane values, gather folds,
    /// per-lane edge counters).
    workers: Vec<Mutex<WorkerScratch>>,
    /// Max lane slots retained across batches; 0 = unbounded.
    retain_cap: usize,
}

/// One lane's storage: exclusive, plain memory.
#[derive(Debug)]
struct LaneSlot {
    values: Vec<u32>,
    /// Next-frontier bitmap, one bit per value slot.
    next: Vec<u64>,
    active: Vec<u32>,
    /// BSP double buffer (empty under relaxed sync).
    prev: Vec<u32>,
}

/// One pool worker's private scratch: reused across sweeps so the hot
/// loops never allocate.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Live lanes with a non-identity value at the node being relaxed.
    lanes: Vec<u32>,
    /// Hoisted per-lane source values, parallel to `lanes` (push), or
    /// gather start values parallel to the live list (pull).
    dv: Vec<u32>,
    /// Per-lane gather folds (pull).
    best: Vec<u32>,
    /// Per-lane edges-touched accumulators, flushed after the run.
    edges: Vec<u64>,
}

impl Default for BatchArena {
    fn default() -> Self {
        BatchArena {
            slots: Vec::new(),
            lane_major: AtomicValues::new(0, 0),
            union_next: FrontierBuilder::new(0),
            union_n: 0,
            union_active: Vec::new(),
            union_bits: Vec::new(),
            items: Vec::new(),
            workers: Vec::new(),
            retain_cap: 0,
        }
    }
}

impl BatchArena {
    /// An empty arena; storage appears on first use.
    pub fn new() -> Self {
        BatchArena::default()
    }

    /// An empty arena that, between batches, retains storage for at
    /// most `cap` lanes (a batch wider than `cap` still runs; the
    /// excess is released when the next batch begins). `0` retains
    /// everything. Servers pass ~2× their `batch_max` so one wide
    /// burst does not pin peak memory forever.
    pub fn with_retain_cap(cap: usize) -> Self {
        BatchArena {
            retain_cap: cap,
            ..BatchArena::default()
        }
    }

    /// The configured retain cap (0 = unbounded).
    pub fn retain_cap(&self) -> usize {
        self.retain_cap
    }

    /// Lane slots currently held for the sequential executor.
    pub fn retained_lanes(&self) -> usize {
        self.slots.len()
    }

    /// Total `u32` value slots currently held (sequential lane arrays
    /// plus the parallel interleaved buffer) — the figure the retain
    /// cap bounds between batches.
    pub fn retained_values(&self) -> usize {
        self.slots.iter().map(|s| s.values.len()).sum::<usize>() + self.lane_major.len()
    }

    /// Lane budget storage may occupy after sizing for a `k`-lane
    /// batch.
    fn lane_budget(&self, k: usize) -> usize {
        if self.retain_cap == 0 {
            usize::MAX
        } else {
            self.retain_cap.max(k)
        }
    }

    /// Ensures `k` lane slots sized for `n` value slots exist,
    /// releasing retained slots beyond the cap first.
    fn ensure(&mut self, k: usize, n: usize) {
        self.slots.retain(|s| s.values.len() == n);
        self.slots.truncate(self.lane_budget(k));
        while self.slots.len() < k {
            self.slots.push(LaneSlot {
                values: vec![0; n],
                next: vec![0; n.div_ceil(64)],
                active: Vec::new(),
                prev: Vec::new(),
            });
        }
    }

    /// Sizes the parallel-path storage for a `k`-lane batch over `n`
    /// value slots swept by `threads` workers.
    fn ensure_parallel(&mut self, k: usize, n: usize, threads: usize) {
        let needed = n * k;
        let budget = n.saturating_mul(self.lane_budget(k));
        if self.lane_major.len() < needed || self.lane_major.len() > budget {
            self.lane_major = AtomicValues::new(needed, 0);
        }
        if self.union_n != n {
            self.union_next = FrontierBuilder::new(n);
            self.union_n = n;
        } else {
            self.union_next.clear();
        }
        if self.workers.len() < threads {
            self.workers.resize_with(threads, Mutex::default);
        }
        for ws in self.workers.iter_mut().take(threads) {
            let ws = ws.get_mut().unwrap();
            ws.lanes.clear();
            ws.dv.clear();
            ws.best.clear();
            ws.edges.clear();
            ws.edges.resize(k, 0);
        }
    }
}

/// The per-lane run state while a batch is in flight.
struct LaneRun<'a> {
    values: &'a mut Vec<u32>,
    next: &'a mut [u64],
    active: &'a mut Vec<u32>,
    /// BSP double buffer: the values as the previous iteration left
    /// them, which is all a sweep may read. `None` under relaxed sync.
    prev: Option<&'a mut [u32]>,
    cancel: &'a CancelToken,
    /// Position in `active` during the node-major merge.
    cursor: usize,
    iterations: usize,
    edges_touched: u64,
    changed: bool,
    converged: bool,
    cancelled: bool,
    done: bool,
    runnable: bool,
}

impl LaneRun<'_> {
    /// One scatter relaxation of `slot`'s row in this lane.
    #[inline]
    fn relax_slot<R: RowView>(&mut self, rows: &R, prog: MonotoneProgram, slot: usize) {
        let prev = self.prev.as_deref();
        let d = match prev {
            Some(p) => p[slot],
            None => self.values[slot],
        };
        let (targets, weights) = rows.row(NodeId::from_index(slot));
        let next = &mut *self.next;
        let mut changed = false;
        self.edges_touched += push_relax(
            &mut NoMirror,
            prog,
            &mut self.values[..],
            prev,
            d,
            slice_edges(0, targets, weights),
            // The scatter indexed `values[t]` first, so `t` is in range.
            |_, t| {
                changed = true;
                next[t / 64] |= 1 << (t % 64);
            },
        );
        self.changed |= changed;
    }

    /// What the lane reports, around the `values` it computed.
    fn output(&self, values: Vec<u32>) -> MonotoneOutput {
        MonotoneOutput {
            values,
            report: SimReport::new(),
            converged: self.converged,
            edges_touched: self.edges_touched,
            directions: vec![Direction::Push; self.iterations],
            cancelled: self.cancelled,
        }
    }
}

/// Runs `batch` over `rows` with the deterministic single-threaded push
/// schedule, all lanes in lockstep — THE sequential push loop of the
/// host: the `Sequential` backend's solo runs are its `K = 1` case, and
/// a served query on a mutated graph passes the snapshot's base+delta
/// view where a clean one passes the CSR. Every lane's output is what
/// that lane alone would produce under the same `options`, to the byte.
///
/// # Panics
///
/// Panics if the program needs a source and a lane has none, or a
/// lane's source is out of range — the same contract as
/// [`MonotoneProgram::initial_values`].
pub fn run_batch_sequential_push<R: RowView>(
    rows: &R,
    batch: &BatchProgram,
    options: &PushOptions,
    arena: &mut BatchArena,
) -> BatchOutput {
    let (lanes, sweeps) = drive_lanes(rows, batch, options, arena);
    let lanes = lanes
        .iter()
        .map(|lane| lane.output(lane.values.clone()))
        .collect();
    BatchOutput { lanes, sweeps }
}

/// The `K = 1` case for a caller with no arena to keep: the lane's value
/// array is moved into the output instead of copied out of storage that
/// is about to be dropped.
///
/// # Panics
///
/// See [`run_batch_sequential_push`].
pub(crate) fn run_solo_sequential_push<R: RowView>(
    rows: &R,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    cancel: CancelToken,
    options: &PushOptions,
) -> MonotoneOutput {
    let batch = BatchProgram::solo(prog, source, cancel);
    let mut arena = BatchArena::new();
    let (mut lanes, _) = drive_lanes(rows, &batch, options, &mut arena);
    let lane = lanes.pop().expect("one lane in, one lane out");
    let values = std::mem::take(&mut *lane.values);
    lane.output(values)
}

/// The lane driver proper: wires each lane of `batch` to its arena slot,
/// runs all of them to completion, and returns them (each still pointing
/// at its values in the arena) with the number of fused sweeps.
fn drive_lanes<'a, R: RowView>(
    rows: &R,
    batch: &'a BatchProgram,
    options: &PushOptions,
    arena: &'a mut BatchArena,
) -> (Vec<LaneRun<'a>>, usize) {
    let n = rows.num_nodes();
    let prog = batch.prog;
    let k = batch.lanes.len();
    arena.ensure(k, n);

    // Wire each lane to its arena slot and re-initialize in place:
    // values and the seed worklist exactly as `initial_values` /
    // `initial_frontier` produce them, without the per-query
    // allocations.
    let mut lanes: Vec<LaneRun<'_>> = arena
        .slots
        .iter_mut()
        .take(k)
        .zip(&batch.lanes)
        .map(|(slot, lane)| {
            let LaneSlot {
                values,
                next,
                active,
                prev,
            } = slot;
            init_lane(prog, lane.source, values, active);
            next.fill(0);
            LaneRun {
                prev: (options.sync == SyncMode::Bsp).then(|| {
                    prev.clone_from(values);
                    &mut prev[..]
                }),
                values,
                next,
                active,
                cancel: &lane.cancel,
                cursor: 0,
                iterations: 0,
                edges_touched: 0,
                changed: false,
                converged: false,
                cancelled: false,
                done: false,
                runnable: false,
            }
        })
        .collect();

    let mut sweeps = 0usize;
    loop {
        // Per-lane pre-iteration checks: iteration cap, worklist
        // emptiness (convergence), then the cancellation poll.
        let mut any = false;
        for lane in &mut lanes {
            lane.runnable = false;
            if lane.done {
                continue;
            }
            if lane.iterations == options.max_iterations {
                lane.done = true;
                continue;
            }
            if options.worklist && lane.active.is_empty() {
                lane.converged = true;
                lane.done = true;
                continue;
            }
            if lane.cancel.is_cancelled() {
                lane.cancelled = true;
                lane.done = true;
                continue;
            }
            lane.iterations += 1;
            lane.changed = false;
            lane.cursor = 0;
            lane.runnable = true;
            any = true;
        }
        if !any {
            break;
        }
        sweeps += 1;

        if options.worklist {
            // Node-major k-way merge of the per-lane sorted worklists:
            // each node's row is walked back-to-back for every lane in
            // which it is active, and each lane still sees its nodes in
            // ascending order.
            loop {
                let mut cur: Option<u32> = None;
                for lane in lanes.iter().filter(|l| l.runnable) {
                    if let Some(&v) = lane.active.get(lane.cursor) {
                        cur = Some(cur.map_or(v, |c| c.min(v)));
                    }
                }
                let Some(v) = cur else { break };
                for lane in lanes.iter_mut().filter(|l| l.runnable) {
                    if lane.active.get(lane.cursor) == Some(&v) {
                        lane.relax_slot(rows, prog, v as usize);
                        lane.cursor += 1;
                    }
                }
            }
        } else {
            // Full sweeps: every slot, every runnable lane.
            for slot in 0..n {
                for lane in lanes.iter_mut().filter(|l| l.runnable) {
                    lane.relax_slot(rows, prog, slot);
                }
            }
        }

        for lane in lanes.iter_mut().filter(|l| l.runnable) {
            lane.active.clear();
            drain_words(lane.next.iter_mut().map(std::mem::take), lane.active);
            if !lane.changed {
                lane.converged = true;
                lane.done = true;
            } else if let Some(prev) = &mut lane.prev {
                prev.copy_from_slice(lane.values);
            }
        }
    }
    (lanes, sweeps)
}

/// In-place lane initialization: the allocation-free twin of
/// [`MonotoneProgram::initial_values`] + `initial_frontier`.
fn init_lane(
    prog: MonotoneProgram,
    source: Option<NodeId>,
    values: &mut [u32],
    active: &mut Vec<u32>,
) {
    let n = values.len();
    active.clear();
    match prog.init {
        InitKind::OwnId => {
            for (i, v) in values.iter_mut().enumerate() {
                *v = i as u32;
            }
            active.extend(0..n as u32);
        }
        InitKind::SourceZero | InitKind::SourceMax => {
            let src = source.expect("program requires a source node");
            assert!(src.index() < n, "source out of range");
            let (src_val, rest) = match prog.init {
                InitKind::SourceZero => (0, u32::MAX),
                _ => (u32::MAX, 0),
            };
            values.fill(rest);
            values[src.index()] = src_val;
            active.push(src.raw());
        }
    }
}

/// Sweep-body dispatch codes for [`BatchSweepState::process`]: the pool
/// body is fixed at spawn, so the driver publishes the mode of each
/// epoch through an atomic.
const MODE_PUSH_LIST: u8 = 0;
const MODE_PUSH_FULL: u8 = 1;
const MODE_PUSH_VLIST: u8 = 2;
const MODE_PUSH_VFULL: u8 = 3;
const MODE_PULL_LIST: u8 = 4;
const MODE_PULL_FULL: u8 = 5;

/// Shared state of one parallel batched run. Workers read the epoch's
/// mode, live-lane list, work items, and merged-frontier bitmap; the
/// driver rewrites them between epochs while the pool is parked at the
/// barrier.
struct BatchSweepState<'a> {
    g: &'a Csr,
    overlay: Option<&'a VirtualGraph>,
    /// Caller-supplied transpose (prepared graphs).
    rev_ext: Option<&'a Csr>,
    /// Transpose built lazily by the driver before the first pull
    /// epoch.
    rev_built: RwLock<Option<Csr>>,
    prog: MonotoneProgram,
    k: usize,
    /// The combine identity: lanes holding it at a node have nothing
    /// to push from there.
    identity: u32,
    /// Interleaved lane-major values, `values[v * k + lane]`.
    values: &'a AtomicValues,
    /// Lanes running this sweep, ascending.
    live: RwLock<Vec<u32>>,
    /// Work items of the current epoch (merged active nodes, or
    /// expanded virtual-node indices).
    items: RwLock<Vec<u32>>,
    /// Merged current-frontier bitmap (pull-sweep source filter).
    bits: RwLock<Vec<u64>>,
    /// Per-lane "improved something this sweep" flags.
    changed: Vec<AtomicBool>,
    /// Merged next-frontier collector.
    union_next: &'a FrontierBuilder,
    /// Whether sweeps track the next frontier (worklist mode).
    track: bool,
    mode: AtomicU8,
    workers: &'a [Mutex<WorkerScratch>],
}

impl BatchSweepState<'_> {
    fn process(&self, w: usize, r: Range<usize>) {
        match self.mode.load(Ordering::Relaxed) {
            MODE_PUSH_LIST => self.push_sweep(w, r, true, false),
            MODE_PUSH_FULL => self.push_sweep(w, r, false, false),
            MODE_PUSH_VLIST => self.push_sweep(w, r, true, true),
            MODE_PUSH_VFULL => self.push_sweep(w, r, false, true),
            MODE_PULL_LIST => self.pull_sweep(w, r, true),
            _ => self.pull_sweep(w, r, false),
        }
    }

    /// One push chunk: for each item, hoist the live lanes' source
    /// values (skipping lanes still at the identity — they have no
    /// path to push), then walk the adjacency once for all of them.
    fn push_sweep(&self, w: usize, r: Range<usize>, list: bool, vnodes: bool) {
        let live = self.live.read().unwrap();
        let items = self.items.read().unwrap();
        let mut guard = self.workers[w].lock().unwrap();
        let WorkerScratch {
            lanes, dv, edges, ..
        } = &mut *guard;
        let k = self.k;
        let g = self.g;
        let on_improve = |lane: usize, t: usize| {
            self.changed[lane].store(true, Ordering::Relaxed);
            if self.track {
                self.union_next.activate(t);
            }
        };
        for idx in r {
            let item = if list { items[idx] as usize } else { idx };
            let (v, vn) = if vnodes {
                let vn = self
                    .overlay
                    .expect("virtual mode requires an overlay")
                    .vnode(item);
                if vn.count == 0 {
                    continue;
                }
                (vn.physical.index(), Some(vn))
            } else {
                (item, None)
            };
            // Hoist per-lane source values once per item.
            lanes.clear();
            dv.clear();
            let base = v * k;
            for &lane in live.iter() {
                let d = self.values.load(base + lane as usize);
                if d != self.identity {
                    lanes.push(lane);
                    dv.push(d);
                }
            }
            if lanes.is_empty() {
                continue;
            }
            let touched = match vn {
                Some(vn) if vn.stride == 1 => {
                    let lo = vn.first_edge as usize;
                    push_relax_lanes(
                        self.prog,
                        self.values,
                        k,
                        lanes,
                        dv,
                        csr_edges(g, lo..lo + vn.count as usize),
                        &on_improve,
                    )
                }
                Some(vn) => push_relax_lanes(
                    self.prog,
                    self.values,
                    k,
                    lanes,
                    dv,
                    csr_edges(g, vn.edge_indices()),
                    &on_improve,
                ),
                None => {
                    let node = NodeId::from_index(v);
                    push_relax_lanes(
                        self.prog,
                        self.values,
                        k,
                        lanes,
                        dv,
                        csr_edges(g, g.edge_start(node)..g.edge_end(node)),
                        &on_improve,
                    )
                }
            };
            for &lane in lanes.iter() {
                edges[lane as usize] += touched;
            }
        }
    }

    /// One pull chunk: every node in the range gathers over its
    /// transpose in-edges once for all live lanes, folding locally and
    /// publishing at most one atomic per lane.
    fn pull_sweep(&self, w: usize, r: Range<usize>, filtered: bool) {
        let live = self.live.read().unwrap();
        let bits_guard = self.bits.read().unwrap();
        let bits: Option<&[u64]> = if filtered { Some(&bits_guard) } else { None };
        let rev_guard = self.rev_built.read().unwrap();
        let rev: &Csr = match self.rev_ext {
            Some(r) => r,
            None => rev_guard
                .as_ref()
                .expect("driver publishes the transpose before a pull epoch"),
        };
        let mut guard = self.workers[w].lock().unwrap();
        let WorkerScratch {
            dv, best, edges, ..
        } = &mut *guard;
        let k = self.k;
        for v in r {
            let base = v * k;
            dv.clear();
            best.clear();
            for &lane in live.iter() {
                let s = self.values.load(base + lane as usize);
                dv.push(s);
                best.push(s);
            }
            let node = NodeId::from_index(v);
            let touched = pull_gather_lanes(
                self.prog,
                self.values,
                k,
                &live,
                csr_edges(rev, rev.edge_start(node)..rev.edge_end(node)),
                bits,
                best,
            );
            if touched > 0 {
                for &lane in live.iter() {
                    edges[lane as usize] += touched;
                }
            }
            for (i, &lane) in live.iter().enumerate() {
                if best[i] != dv[i]
                    && self
                        .values
                        .try_improve(base + lane as usize, best[i], self.prog.combine)
                {
                    self.changed[lane as usize].store(true, Ordering::Relaxed);
                    if self.track {
                        self.union_next.activate(v);
                    }
                }
            }
        }
    }
}

/// Driver-side per-lane bookkeeping of the parallel executor.
struct LaneCtl {
    iterations: usize,
    dirs: Vec<Direction>,
    converged: bool,
    cancelled: bool,
    done: bool,
}

/// Runs `batch` over `rep` on the work-stealing CPU pool — every
/// `CpuPool` monotone run, solo (`K = 1`) or batched. One fused sweep
/// over the merged live-lane frontier relaxes every lane per edge
/// through the interleaved lane-major value buffer, with the per-sweep
/// direction chosen by the Beamer α/β density rule over the merged
/// frontier (when the plan says [`Direction::Auto`] and the
/// representation licenses a pull side — the same rules as
/// [`crate::run_monotone`]). The partition follows the representation:
/// a virtual overlay's degree-bounded nodes are split by count, anything
/// else by edge-balanced cuts of `row_ptr` (the active list's degree
/// prefix on worklist sweeps, the transpose's `row_ptr` on pull sweeps).
/// `pull` supplies a prebuilt transpose; otherwise one is built lazily
/// on the first pull sweep.
///
/// The contract is **value equality** with the solo sequential run:
/// per-lane `values`, `converged`, and `cancelled` match, while
/// iteration and edge counts reflect the fused schedule (merged
/// frontiers, relaxed intra-sweep visibility, direction switching).
/// Callers are expected to have validated the plan
/// ([`ExecutionPlan::validate`]) against this representation first.
///
/// # Panics
///
/// Panics if the program needs a source and a lane has none, or a
/// lane's source is out of range.
pub fn run_batch_cpu_pool(
    rep: &Representation<'_>,
    pull: Option<&Csr>,
    batch: &BatchProgram,
    plan: &ExecutionPlan,
    arena: &mut BatchArena,
) -> BatchOutput {
    let g = rep.graph();
    let n = rep.num_value_slots();
    let prog = batch.prog;
    let k = batch.lanes.len();
    if k == 0 || n == 0 {
        // Degenerate shapes carry no parallel work; the sequential
        // executor's byte-exact handling is the better answer.
        return run_batch_sequential_push(g, batch, &plan.push, arena);
    }
    let threads = plan.cpu.threads.max(1);
    let worklist = plan.push.worklist;
    // The solo driver's degrade rules; a forced pull was licensed by
    // plan validation.
    let forced = plan.effective_direction(rep, &prog);

    // Virtual nodes are the work items when the representation has
    // them: each covers at most K edges, so a count split is already
    // edge-balanced to within K.
    let overlay: Option<&VirtualGraph> = match rep {
        Representation::Virtual { overlay, .. } => Some(overlay),
        _ => None,
    };

    arena.ensure_parallel(k, n, threads);
    let BatchArena {
        lane_major,
        union_next,
        union_active,
        union_bits,
        items,
        workers,
        ..
    } = arena;
    let values: &AtomicValues = lane_major;

    // Initialize the interleaved values and the merged seed frontier.
    match prog.init {
        InitKind::OwnId => {
            for v in 0..n {
                let base = v * k;
                for l in 0..k {
                    values.store(base + l, v as u32);
                }
            }
            union_active.clear();
            union_active.extend(0..n as u32);
        }
        InitKind::SourceZero | InitKind::SourceMax => {
            let (src_val, rest) = match prog.init {
                InitKind::SourceZero => (0, u32::MAX),
                _ => (u32::MAX, 0),
            };
            values.fill(rest);
            union_active.clear();
            for (l, lane) in batch.lanes.iter().enumerate() {
                let src = lane.source.expect("program requires a source node");
                assert!(src.index() < n, "source out of range");
                values.store(src.index() * k + l, src_val);
                union_active.push(src.raw());
            }
            union_active.sort_unstable();
            union_active.dedup();
        }
    }

    let state = BatchSweepState {
        g,
        overlay,
        rev_ext: pull,
        rev_built: RwLock::new(None),
        prog,
        k,
        identity: prog.combine.identity(),
        values,
        live: RwLock::new(Vec::new()),
        items: RwLock::new(std::mem::take(items)),
        bits: RwLock::new(std::mem::take(union_bits)),
        changed: (0..k).map(|_| AtomicBool::new(false)).collect(),
        union_next,
        track: worklist,
        mode: AtomicU8::new(MODE_PUSH_LIST),
        workers: &workers[..threads],
    };

    let mut ctl: Vec<LaneCtl> = (0..k)
        .map(|_| LaneCtl {
            iterations: 0,
            dirs: Vec::new(),
            converged: false,
            cancelled: false,
            done: false,
        })
        .collect();

    let mut sweeps = 0usize;
    let mut bounds = vec![(0usize, 0usize); threads];
    let mut live_buf: Vec<u32> = Vec::new();
    let mut degree_prefix: Vec<u64> = Vec::new();
    let mut fwd_prefix: Option<Vec<u64>> = None;
    let mut rev_prefix: Option<Vec<u64>> = None;
    let mut switch = (forced == Direction::Auto).then(|| DirectionSwitch::new(g, plan.auto));

    let body = |w: usize, r: Range<usize>| state.process(w, r);
    with_pool(threads, &body, |pool| {
        loop {
            // Per-lane pre-sweep checks, the solo driver's order:
            // iteration cap, then the cancellation poll. (Worklist
            // emptiness is per-lane `changed` at sweep end here — a
            // lane that improved nothing has an empty own-frontier.)
            live_buf.clear();
            for (l, c) in ctl.iter_mut().enumerate() {
                if c.done {
                    continue;
                }
                if c.iterations == plan.push.max_iterations {
                    c.done = true;
                    continue;
                }
                if batch.lanes[l].cancel.is_cancelled() {
                    c.cancelled = true;
                    c.done = true;
                    continue;
                }
                live_buf.push(l as u32);
            }
            if live_buf.is_empty() {
                break;
            }
            if worklist && union_active.is_empty() {
                // Unreachable in practice (lanes retire the sweep they
                // stop improving), but never sweep an empty frontier.
                break;
            }

            let dir = match &switch {
                Some(switch) if switch.pull_now(union_active, n) => Direction::Pull,
                Some(_) => Direction::Push,
                None => forced,
            };
            sweeps += 1;
            for &l in &live_buf {
                let c = &mut ctl[l as usize];
                c.iterations += 1;
                c.dirs.push(dir);
                state.changed[l as usize].store(false, Ordering::Relaxed);
            }
            state.live.write().unwrap().clone_from(&live_buf);

            // Partition the epoch and publish its mode.
            match dir {
                Direction::Pull => {
                    if state.rev_ext.is_none() && state.rev_built.read().unwrap().is_none() {
                        *state.rev_built.write().unwrap() = Some(build_transpose(g));
                    }
                    let prefix = rev_prefix.get_or_insert_with(|| {
                        let guard = state.rev_built.read().unwrap();
                        let rev = state.rev_ext.or(guard.as_ref()).expect("transpose exists");
                        rev.row_ptr().iter().map(|&e| e as u64).collect()
                    });
                    balanced_cuts(prefix, &mut bounds);
                    if worklist {
                        let mut bits = state.bits.write().unwrap();
                        bits.clear();
                        bits.resize(n.div_ceil(64), 0);
                        for &v in union_active.iter() {
                            bits[v as usize / 64] |= 1 << (v % 64);
                        }
                        state.mode.store(MODE_PULL_LIST, Ordering::Relaxed);
                    } else {
                        state.mode.store(MODE_PULL_FULL, Ordering::Relaxed);
                    }
                }
                _ => {
                    if worklist {
                        if let Some(ov) = overlay {
                            let mut it = state.items.write().unwrap();
                            ov.expand_active_into(union_active, &mut it);
                            let nitems = it.len();
                            drop(it);
                            count_bounds(nitems, &mut bounds);
                            state.mode.store(MODE_PUSH_VLIST, Ordering::Relaxed);
                        } else {
                            degree_prefix.clear();
                            degree_prefix.push(0);
                            let mut acc = 0u64;
                            for &v in union_active.iter() {
                                acc += g.out_degree(NodeId::new(v)) as u64;
                                degree_prefix.push(acc);
                            }
                            balanced_cuts(&degree_prefix, &mut bounds);
                            let mut it = state.items.write().unwrap();
                            it.clear();
                            it.extend_from_slice(union_active);
                            drop(it);
                            state.mode.store(MODE_PUSH_LIST, Ordering::Relaxed);
                        }
                    } else {
                        match overlay {
                            Some(ov) => {
                                count_bounds(ov.num_virtual_nodes(), &mut bounds);
                                state.mode.store(MODE_PUSH_VFULL, Ordering::Relaxed);
                            }
                            None => {
                                let p = fwd_prefix.get_or_insert_with(|| {
                                    g.row_ptr().iter().map(|&e| e as u64).collect()
                                });
                                balanced_cuts(p, &mut bounds);
                                state.mode.store(MODE_PUSH_FULL, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }
            pool.run_epoch(&bounds);

            if worklist {
                state.union_next.drain_into(union_active);
                if let Some(switch) = &mut switch {
                    switch.retire(union_active);
                }
            }
            for &l in &live_buf {
                if !state.changed[l as usize].load(Ordering::Relaxed) {
                    let c = &mut ctl[l as usize];
                    c.converged = true;
                    c.done = true;
                }
            }
        }
    });

    // Return the scratch vectors to the arena for the next batch.
    *items = state.items.into_inner().unwrap();
    *union_bits = state.bits.into_inner().unwrap();

    let mut lane_edges = vec![0u64; k];
    for ws in workers.iter().take(threads) {
        let s = ws.lock().unwrap();
        for (l, &e) in s.edges.iter().enumerate() {
            lane_edges[l] += e;
        }
    }
    let lanes = ctl
        .into_iter()
        .enumerate()
        .map(|(l, c)| MonotoneOutput {
            values: (0..n).map(|v| values.load(v * k + l)).collect(),
            report: SimReport::new(),
            converged: c.converged,
            edges_touched: lane_edges[l],
            directions: c.dirs,
            cancelled: c.cancelled,
        })
        .collect();
    BatchOutput { lanes, sweeps }
}

/// A solo `CpuPool` run: the `K = 1` batch of [`run_batch_cpu_pool`],
/// fed the caller's prebuilt transpose when it holds one (prepared
/// graphs), so a pull sweep builds none.
pub(crate) fn run_pool_solo(
    rep: &Representation<'_>,
    pull: Option<&Csr>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> MonotoneOutput {
    let batch = BatchProgram::solo(prog, source, plan.cancel.clone());
    let mut out = run_batch_cpu_pool(rep, pull, &batch, plan, &mut BatchArena::new());
    out.lanes.pop().expect("one lane in, one lane out")
}

/// The transpose a gather builds when the caller supplied none — every
/// lazily built transpose in the engine comes from here.
pub(crate) fn build_transpose(g: &Csr) -> Csr {
    #[cfg(test)]
    tests::TRANSPOSES_BUILT.with(|c| c.set(c.get() + 1));
    transpose(g)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::BackendKind;
    use crate::runner::Engine;
    use std::cell::Cell;
    use tigr_graph::generators::{barabasi_albert, with_uniform_weights, BarabasiAlbertConfig};

    thread_local! {
        /// Transposes [`build_transpose`] built on this thread: a run
        /// handed a prepared one must leave it untouched.
        pub(crate) static TRANSPOSES_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    fn fixture() -> Csr {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 300,
                edges_per_node: 3,
                symmetric: false,
            },
            7,
        );
        with_uniform_weights(&g, 1, 31, 5)
    }

    /// A solo run of the `Sequential` backend under `options`.
    fn sequential(
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<u32>,
        options: PushOptions,
    ) -> MonotoneOutput {
        Engine::default()
            .with_backend(BackendKind::Sequential)
            .with_options(options)
            .run_program(rep, prog, source.map(NodeId::new))
            .unwrap()
    }

    fn solo(
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<u32>,
    ) -> MonotoneOutput {
        sequential(rep, prog, source, PushOptions::default())
    }

    fn assert_lane_equal(lane: &MonotoneOutput, solo: &MonotoneOutput, label: &str) {
        assert_eq!(lane.values, solo.values, "{label}: values");
        assert_eq!(lane.directions, solo.directions, "{label}: iterations");
        assert_eq!(lane.converged, solo.converged, "{label}: converged");
        assert_eq!(lane.cancelled, solo.cancelled, "{label}: cancelled");
        assert_eq!(
            lane.edges_touched, solo.edges_touched,
            "{label}: edges_touched"
        );
    }

    #[test]
    fn batched_lanes_match_solo_runs_including_duplicates() {
        let g = fixture();
        let rep = Representation::Original(&g);
        let sources = [0u32, 17, 17, 250, 3];
        for prog in [
            MonotoneProgram::BFS,
            MonotoneProgram::SSSP,
            MonotoneProgram::SSWP,
        ] {
            let batch =
                BatchProgram::from_sources(prog, sources.iter().map(|&s| Some(NodeId::new(s))));
            let mut arena = BatchArena::new();
            let out = run_batch_sequential_push(&g, &batch, &PushOptions::default(), &mut arena);
            assert_eq!(out.lanes.len(), sources.len());
            for (i, &s) in sources.iter().enumerate() {
                let reference = solo(&rep, prog, Some(s));
                assert_lane_equal(&out.lanes[i], &reference, &format!("{}/{s}", prog.name));
            }
            assert_eq!(
                out.sweeps,
                out.lanes
                    .iter()
                    .map(|l| l.directions.len())
                    .max()
                    .unwrap_or(0)
            );
        }
    }

    #[test]
    fn source_free_cc_lanes_match() {
        let g = fixture();
        let rep = Representation::Original(&g);
        let batch = BatchProgram::from_sources(MonotoneProgram::CC, [None, None]);
        let mut arena = BatchArena::new();
        let out = run_batch_sequential_push(&g, &batch, &PushOptions::default(), &mut arena);
        let reference = solo(&rep, MonotoneProgram::CC, None);
        assert_lane_equal(&out.lanes[0], &reference, "cc lane 0");
        assert_lane_equal(&out.lanes[1], &reference, "cc lane 1");
    }

    #[test]
    fn degenerate_single_lane_matches_and_arena_is_reused() {
        let g = fixture();
        let rep = Representation::Original(&g);
        let mut arena = BatchArena::new();
        // A stream of K=1 batches through one arena — the server's
        // non-batched fast path. Byte-equal every time, no state leaks
        // between runs.
        for &s in &[5u32, 42, 5, 299] {
            let batch = BatchProgram::from_sources(MonotoneProgram::SSSP, [Some(NodeId::new(s))]);
            let out = run_batch_sequential_push(&g, &batch, &PushOptions::default(), &mut arena);
            let reference = solo(&rep, MonotoneProgram::SSSP, Some(s));
            assert_lane_equal(&out.lanes[0], &reference, &format!("sssp/{s}"));
        }
    }

    #[test]
    fn parallel_batch_matches_solo_values_across_directions_and_representations() {
        use crate::plan::{CpuOptions, Direction};
        let g = fixture();
        let plain = VirtualGraph::new(&g, 4);
        let coalesced = VirtualGraph::coalesced(&g, 4);
        let reps = [
            Representation::Original(&g),
            Representation::Virtual {
                graph: &g,
                overlay: &plain,
            },
            Representation::Virtual {
                graph: &g,
                overlay: &coalesced,
            },
        ];
        let sources = [0u32, 17, 17, 250];
        for prog in [MonotoneProgram::SSSP, MonotoneProgram::SSWP] {
            let batch =
                BatchProgram::from_sources(prog, sources.iter().map(|&s| Some(NodeId::new(s))));
            let references: Vec<MonotoneOutput> = sources
                .iter()
                .map(|&s| solo(&reps[0], prog, Some(s)))
                .collect();
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                for rep in &reps {
                    let plan = ExecutionPlan {
                        backend: BackendKind::CpuPool,
                        direction: dir,
                        cpu: CpuOptions { threads: 2 },
                        ..ExecutionPlan::default()
                    };
                    let mut arena = BatchArena::new();
                    let out = run_batch_cpu_pool(rep, None, &batch, &plan, &mut arena);
                    for (i, reference) in references.iter().enumerate() {
                        let label = format!("{}/{}/{dir:?}/{}", prog.name, sources[i], rep.label());
                        // The parallel sweep reaches the same unique
                        // fixpoint; iteration and edge counts may
                        // differ from the solo schedule.
                        assert_eq!(out.lanes[i].values, reference.values, "{label}: values");
                        assert!(out.lanes[i].converged, "{label}: converged");
                        assert!(!out.lanes[i].cancelled, "{label}: cancelled");
                    }
                }
            }
        }
    }

    #[test]
    fn retain_cap_releases_wide_batch_storage_on_the_next_batch() {
        use crate::plan::CpuOptions;
        let g = fixture();
        let rep = Representation::Original(&g);
        let n = g.num_nodes();
        let cap = 4;
        let wide = || {
            BatchProgram::from_sources(
                MonotoneProgram::BFS,
                (0..12u32).map(|i| Some(NodeId::new(i * 7))),
            )
        };
        let narrow = || {
            BatchProgram::from_sources(
                MonotoneProgram::BFS,
                [Some(NodeId::new(1)), Some(NodeId::new(2))],
            )
        };

        // Uncapped: the wide burst's 12 lanes stay resident forever.
        let mut unbounded = BatchArena::new();
        run_batch_sequential_push(&g, &wide(), &PushOptions::default(), &mut unbounded);
        run_batch_sequential_push(&g, &narrow(), &PushOptions::default(), &mut unbounded);
        assert_eq!(unbounded.retained_lanes(), 12);

        // Capped: alternating wide/narrow batches settle at the cap
        // instead of ratcheting peak memory to the widest batch ever
        // seen.
        let mut arena = BatchArena::with_retain_cap(cap);
        assert_eq!(arena.retain_cap(), cap);
        for round in 0..3 {
            run_batch_sequential_push(&g, &wide(), &PushOptions::default(), &mut arena);
            run_batch_sequential_push(&g, &narrow(), &PushOptions::default(), &mut arena);
            assert_eq!(arena.retained_lanes(), cap, "round {round}");
            assert!(
                arena.retained_values() <= cap * n,
                "round {round}: retained {} value slots, cap allows {}",
                arena.retained_values(),
                cap * n
            );
        }

        // The parallel path's interleaved lane-major buffer obeys the
        // same budget.
        let plan = ExecutionPlan {
            backend: BackendKind::CpuPool,
            cpu: CpuOptions { threads: 2 },
            ..ExecutionPlan::default()
        };
        let mut par = BatchArena::with_retain_cap(cap);
        for round in 0..3 {
            run_batch_cpu_pool(&rep, None, &wide(), &plan, &mut par);
            run_batch_cpu_pool(&rep, None, &narrow(), &plan, &mut par);
            assert!(
                par.retained_values() <= cap * n,
                "round {round}: parallel retained {} value slots, cap allows {}",
                par.retained_values(),
                cap * n
            );
        }
    }

    #[test]
    fn iteration_cap_applies_per_lane() {
        let g = fixture();
        let rep = Representation::Original(&g);
        let options = PushOptions {
            max_iterations: 2,
            ..PushOptions::default()
        };
        let batch = BatchProgram::from_sources(
            MonotoneProgram::SSSP,
            [Some(NodeId::new(0)), Some(NodeId::new(100))],
        );
        let mut arena = BatchArena::new();
        let out = run_batch_sequential_push(&g, &batch, &options, &mut arena);
        for (lane, src) in out.lanes.iter().zip([0u32, 100]) {
            let reference = sequential(&rep, MonotoneProgram::SSSP, Some(src), options);
            assert_lane_equal(lane, &reference, &format!("capped/{src}"));
            assert!(lane.directions.len() <= 2);
        }
    }

    #[test]
    fn cancelled_lane_stops_alone() {
        let g = fixture();
        let rep = Representation::Original(&g);
        let doomed = CancelToken::new();
        doomed.cancel();
        let batch = BatchProgram {
            prog: MonotoneProgram::BFS,
            lanes: vec![
                BatchLane::with_cancel(Some(NodeId::new(0)), doomed),
                BatchLane::new(Some(NodeId::new(1))),
            ],
        };
        let mut arena = BatchArena::new();
        let out = run_batch_sequential_push(&g, &batch, &PushOptions::default(), &mut arena);
        assert!(out.lanes[0].cancelled && !out.lanes[0].converged);
        // Pre-cancelled lane holds exactly its initial values.
        assert_eq!(out.lanes[0].values[0], 0);
        assert!(out.lanes[0].values[1..].iter().all(|&v| v == u32::MAX));
        // The surviving lane is untouched by its neighbor's fate.
        let reference = solo(&rep, MonotoneProgram::BFS, Some(1));
        assert_lane_equal(&out.lanes[1], &reference, "survivor");
    }

    #[test]
    fn full_sweep_mode_matches_solo() {
        let g = fixture();
        let rep = Representation::Original(&g);
        let options = PushOptions {
            worklist: false,
            ..PushOptions::default()
        };
        let batch = BatchProgram::from_sources(
            MonotoneProgram::SSSP,
            [Some(NodeId::new(0)), Some(NodeId::new(9))],
        );
        let mut arena = BatchArena::new();
        let out = run_batch_sequential_push(&g, &batch, &options, &mut arena);
        for (lane, src) in out.lanes.iter().zip([0u32, 9]) {
            let reference = sequential(&rep, MonotoneProgram::SSSP, Some(src), options);
            assert_lane_equal(lane, &reference, &format!("dense/{src}"));
        }
    }

    /// The lane driver against the simulator-backed push engine — an
    /// independent loop — on every monotone program, relaxed and BSP.
    #[test]
    fn lanes_match_the_simulated_push_engine() {
        use crate::monotone::run_monotone;
        use tigr_graph::generators::{rmat, RmatConfig};
        use tigr_sim::{GpuConfig, GpuSimulator};
        let unit = rmat(&RmatConfig::graph500(8, 6), 97);
        let weighted = with_uniform_weights(&unit, 1, 32, 3);
        let sim = GpuSimulator::new(GpuConfig::default());
        let src = Some(NodeId::new(5));
        let bsp_rounds = PushOptions {
            worklist: false,
            sync: SyncMode::Bsp,
            max_iterations: 3,
            ..PushOptions::default()
        };
        for options in [PushOptions::default(), bsp_rounds] {
            for (g, prog, source) in [
                (&unit, MonotoneProgram::BFS, src),
                (&unit, MonotoneProgram::CC, None),
                (&unit, MonotoneProgram::KHOP, src),
                (&weighted, MonotoneProgram::SSSP, src),
                (&weighted, MonotoneProgram::SSWP, src),
            ] {
                let plan = ExecutionPlan {
                    push: options,
                    ..ExecutionPlan::default()
                };
                let rep = Representation::Original(g);
                let expect = run_monotone(&sim, &rep, None, prog, source, &plan).unwrap();
                let batch = BatchProgram::from_sources(prog, [source, source]);
                let out = run_batch_sequential_push(g, &batch, &options, &mut BatchArena::new());
                for lane in &out.lanes {
                    let label = format!("{}/{:?}", prog.name, options.sync);
                    assert_eq!(lane.values, expect.values, "{label}: values");
                    assert_eq!(lane.converged, expect.converged, "{label}: converged");
                    assert!(!lane.directions.is_empty(), "{label}");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = fixture();
        let batch = BatchProgram::from_sources(MonotoneProgram::BFS, []);
        let mut arena = BatchArena::new();
        let out = run_batch_sequential_push(&g, &batch, &PushOptions::default(), &mut arena);
        assert!(out.lanes.is_empty());
        assert_eq!(out.sweeps, 0);
    }
}
