//! The host push driver: K same-program runs fused into one sequence
//! of sweeps over a graph's rows, and dealt across threads a whole lane
//! at a time.
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
//! [`run_batch_push`] is the one push loop on the host. It is generic
//! over [`RowView`] — a [`Csr`], or a pinned snapshot's base+delta view
//! — and monomorphised per implementor, so nothing on the per-row or
//! per-edge path is dynamic. A solo run *is* a `K = 1` batch: both host
//! backends call the lane driver with one lane, so there is no second
//! state machine to keep in step. A lane's schedule depends on nothing
//! but its own state — pre-iteration checks in a fixed order (iteration
//! cap, empty worklist, cancellation poll), ascending relaxation order
//! (per-lane active lists are ascending, and the node-major merge
//! preserves that per lane), a private value array, an optional BSP
//! double buffer — so its `values`, iteration count, `converged`,
//! `cancelled`, and `edges_touched` are the same to the byte whatever
//! its batchmates do. Duplicate sources are just duplicate lanes.
//!
//! That independence is what makes the lane the unit of parallelism
//! (DESIGN.md §8): [`BackendKind::CpuPool`](crate::BackendKind::CpuPool)
//! deals a batch's lanes in contiguous chunks across its workers, each
//! chunk runs the same lane driver over its own disjoint slots of one
//! [`BatchArena`], and the outputs are concatenated in lane order — so
//! every answer is byte-equal to the one-thread run. Nothing is shared
//! between workers but the read-only rows.
//!
//! A lane has exactly one writer — this loop — so its state is plain
//! memory: `Vec<u32>` values and a `Vec<u64>` bitmap. An improvement is
//! a compare and a store, an activation an `|=` into a word, a drain a
//! `mem::take` per word; nothing on a lane is `lock`ed. The relax body
//! is still [`push_relax`], instantiated over the lane's `&mut [u32]`
//! where the simulator instantiates it over shared atomics. Lane layout
//! is SoA (one value array per lane): lanes converge at different
//! iterations, SoA lets finished lanes drop out without holes, and a
//! lane's output is a straight copy (a solo run's is a move,
//! `run_solo_sequential_push`).

use tigr_core::CancelToken;
use tigr_graph::{reverse::transpose, Csr, NodeId, RowView};
use tigr_sim::SimReport;

use crate::frontier::drain_words;
use crate::kernel::{push_relax, slice_edges, NoMirror};
use crate::monotone::MonotoneOutput;
use crate::plan::Direction;
use crate::program::{InitKind, MonotoneProgram};
use crate::push::{PushOptions, SyncMode};

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
/// batches stops allocating per query: one slot per lane (value array,
/// next-frontier bitmap, worklist, BSP buffer). When a batch's lanes are
/// dealt across threads, each worker borrows its own disjoint run of
/// slots. Storage grows lazily to the widest batch seen; a retain cap
/// (see [`BatchArena::with_retain_cap`]) bounds what survives a wide
/// batch so alternating wide/narrow batches cannot ratchet peak memory.
#[derive(Debug, Default)]
pub struct BatchArena {
    slots: Vec<LaneSlot>,
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

impl LaneSlot {
    /// A slot sized for `n` value slots.
    fn new(n: usize) -> Self {
        LaneSlot {
            values: vec![0; n],
            next: vec![0; n.div_ceil(64)],
            active: Vec::new(),
            prev: Vec::new(),
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

    /// Lane slots currently held.
    pub fn retained_lanes(&self) -> usize {
        self.slots.len()
    }

    /// Total `u32` value slots currently held across lane arrays — the
    /// figure the retain cap bounds between batches.
    pub fn retained_values(&self) -> usize {
        self.slots.iter().map(|s| s.values.len()).sum()
    }

    /// Ensures `k` lane slots sized for `n` value slots exist,
    /// releasing retained slots beyond the cap first, and returns them.
    fn ensure(&mut self, k: usize, n: usize) -> &mut [LaneSlot] {
        let budget = if self.retain_cap == 0 {
            usize::MAX
        } else {
            self.retain_cap.max(k)
        };
        self.slots.retain(|s| s.values.len() == n);
        self.slots.truncate(budget);
        while self.slots.len() < k {
            self.slots.push(LaneSlot::new(n));
        }
        &mut self.slots[..k]
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
        let d = match self.prev.as_deref() {
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

/// Runs `batch` over `rows` with the host push schedule — THE push loop
/// of the host: both host backends' solo runs are its `K = 1` case, and
/// a served query on a mutated graph passes the snapshot's base+delta
/// view where a clean one passes the CSR. The lanes are dealt in
/// contiguous chunks across at most `threads` workers (one chunk runs on
/// the calling thread; `threads <= 1` spawns nothing), each chunk in
/// lockstep over its own arena slots. Every lane's output is what that
/// lane alone would produce under the same `options`, to the byte,
/// whatever `threads` is; `sweeps` is the widest lane's iteration count.
///
/// # Panics
///
/// Panics if the program needs a source and a lane has none, or a
/// lane's source is out of range — the same contract as
/// [`MonotoneProgram::initial_values`].
pub fn run_batch_push<R: RowView + Sync>(
    rows: &R,
    batch: &BatchProgram,
    options: &PushOptions,
    threads: usize,
    arena: &mut BatchArena,
) -> BatchOutput {
    let k = batch.lanes.len();
    let per = chunk_len(k, threads);
    let slots = arena.ensure(k, rows.num_nodes());
    let chunks = deal(
        batch.lanes.chunks(per).zip(slots.chunks_mut(per)),
        |(lanes, slots)| {
            let (runs, sweeps) = drive_lanes(rows, batch.prog, lanes, slots, options);
            let outputs: Vec<_> = runs
                .iter()
                .map(|lane| lane.output(lane.values.clone()))
                .collect();
            (outputs, sweeps)
        },
    );
    let sweeps = chunks.iter().map(|&(_, sweeps)| sweeps).max().unwrap_or(0);
    let lanes = chunks.into_iter().flat_map(|(lanes, _)| lanes).collect();
    BatchOutput { lanes, sweeps }
}

/// Lanes per chunk when `k` lanes are dealt across at most `threads`
/// workers: contiguous chunks, none empty, the widest `ceil(k / threads)`.
pub(crate) fn chunk_len(k: usize, threads: usize) -> usize {
    k.div_ceil(threads.max(1)).max(1)
}

/// Runs `run` on every chunk and returns the results in chunk order: the
/// first chunk on the calling thread, each other one on a scoped thread
/// of its own. A single chunk spawns nothing. A panic in any chunk
/// resumes on the caller once every chunk has finished.
pub(crate) fn deal<C: Send, T: Send>(
    mut chunks: impl Iterator<Item = C>,
    run: impl Fn(C) -> T + Sync,
) -> Vec<T> {
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    let rest: Vec<C> = chunks.collect();
    if rest.is_empty() {
        return vec![run(first)];
    }
    let run = &run;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .into_iter()
            .map(|chunk| scope.spawn(move || run(chunk)))
            .collect();
        let mut out = vec![run(first)];
        out.extend(spawned.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        out
    })
}

/// The `K = 1` case for a caller with no arena to keep: the lane's value
/// array is moved into the output instead of copied out of storage that
/// is about to be dropped.
///
/// # Panics
///
/// See [`run_batch_push`].
pub(crate) fn run_solo_sequential_push<R: RowView>(
    rows: &R,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    cancel: CancelToken,
    options: &PushOptions,
) -> MonotoneOutput {
    let lane = [BatchLane::with_cancel(source, cancel)];
    let mut slot = [LaneSlot::new(rows.num_nodes())];
    let (mut runs, _) = drive_lanes(rows, prog, &lane, &mut slot, options);
    let run = runs.pop().expect("one lane in, one lane out");
    let values = std::mem::take(&mut *run.values);
    run.output(values)
}

/// The lane driver proper: wires each of `lanes` to its slot, runs all
/// of them to completion in lockstep, and returns them (each still
/// pointing at its values in its slot) with the number of fused sweeps.
fn drive_lanes<'a, R: RowView>(
    rows: &R,
    prog: MonotoneProgram,
    lanes: &'a [BatchLane],
    slots: &'a mut [LaneSlot],
    options: &PushOptions,
) -> (Vec<LaneRun<'a>>, usize) {
    let n = rows.num_nodes();

    // Wire each lane to its slot and re-initialize in place: values and
    // the seed worklist exactly as `initial_values` / `initial_frontier`
    // produce them, without the per-query allocations.
    let mut lanes: Vec<LaneRun<'_>> = slots
        .iter_mut()
        .zip(lanes)
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
    use crate::plan::ExecutionPlan;
    use crate::representation::Representation;
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

    /// A solo run of the `Sequential` backend under `options`: the lane
    /// driver's one-lane case.
    fn sequential(
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<u32>,
        options: PushOptions,
    ) -> MonotoneOutput {
        let source = source.map(NodeId::new);
        run_solo_sequential_push(rep.graph(), prog, source, CancelToken::never(), &options)
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
            let out = run_batch_push(&g, &batch, &PushOptions::default(), 1, &mut arena);
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
        let out = run_batch_push(&g, &batch, &PushOptions::default(), 1, &mut arena);
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
            let out = run_batch_push(&g, &batch, &PushOptions::default(), 1, &mut arena);
            let reference = solo(&rep, MonotoneProgram::SSSP, Some(s));
            assert_lane_equal(&out.lanes[0], &reference, &format!("sssp/{s}"));
        }
    }

    /// Dealing lanes across threads changes nothing a lane reports: every
    /// thread count, fewer or more lanes than threads, duplicates and a
    /// pre-cancelled lane included, matches the one-thread run to the
    /// byte, and `sweeps` is still the widest lane's iteration count.
    #[test]
    fn dealt_lanes_are_the_one_thread_lanes() {
        let g = fixture();
        let doomed = CancelToken::new();
        doomed.cancel();
        for k in [1usize, 2, 3, 5] {
            let mut lanes: Vec<BatchLane> = (0..k as u32)
                .map(|i| BatchLane::new(Some(NodeId::new(i * 61 % 300))))
                .collect();
            lanes.push(BatchLane::new(Some(NodeId::new(0))));
            lanes.push(BatchLane::with_cancel(Some(NodeId::new(7)), doomed.clone()));
            let batch = BatchProgram {
                prog: MonotoneProgram::SSSP,
                lanes,
            };
            let options = PushOptions::default();
            let one = run_batch_push(&g, &batch, &options, 1, &mut BatchArena::new());
            let mut warm = BatchArena::new();
            for threads in [2, 3, 4, 16] {
                let dealt = run_batch_push(&g, &batch, &options, threads, &mut warm);
                assert_eq!(dealt.sweeps, one.sweeps, "k {k} threads {threads}: sweeps");
                for (i, (lane, want)) in dealt.lanes.iter().zip(&one.lanes).enumerate() {
                    assert_lane_equal(lane, want, &format!("k {k} threads {threads} lane {i}"));
                }
            }
        }
    }

    #[test]
    fn retain_cap_releases_wide_batch_storage_on_the_next_batch() {
        let g = fixture();
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
        run_batch_push(&g, &wide(), &PushOptions::default(), 1, &mut unbounded);
        run_batch_push(&g, &narrow(), &PushOptions::default(), 1, &mut unbounded);
        assert_eq!(unbounded.retained_lanes(), 12);

        // Capped: alternating wide/narrow batches settle at the cap
        // instead of ratcheting peak memory to the widest batch ever
        // seen.
        let mut arena = BatchArena::with_retain_cap(cap);
        assert_eq!(arena.retain_cap(), cap);
        for round in 0..3 {
            run_batch_push(&g, &wide(), &PushOptions::default(), 1, &mut arena);
            run_batch_push(&g, &narrow(), &PushOptions::default(), 1, &mut arena);
            assert_eq!(arena.retained_lanes(), cap, "round {round}");
            assert!(
                arena.retained_values() <= cap * n,
                "round {round}: retained {} value slots, cap allows {}",
                arena.retained_values(),
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
        let out = run_batch_push(&g, &batch, &options, 1, &mut arena);
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
        let out = run_batch_push(&g, &batch, &PushOptions::default(), 1, &mut arena);
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
        let out = run_batch_push(&g, &batch, &options, 1, &mut arena);
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
                let out = run_batch_push(g, &batch, &options, 1, &mut BatchArena::new());
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
        let out = run_batch_push(&g, &batch, &PushOptions::default(), 1, &mut arena);
        assert!(out.lanes.is_empty());
        assert_eq!(out.sweeps, 0);
    }
}
