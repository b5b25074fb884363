//! What the differential suites hold the host lane driver against: a
//! plain reference loop that shares no code with the engine (not the
//! kernel, not the frontier, not even the operators' arithmetic), and the
//! simulated push engine. The reference pins what goes on the wire —
//! `values`, `iterations`, `converged` — and `edges_touched`; the
//! simulator, a second independent loop, pins `values` and `converged`.
//! Beside them sit the sequential R-MAT generator the chunked one must
//! reproduce byte for byte, the buffer-building artifact encoder the
//! streaming writer must reproduce byte for byte, the owned decode a
//! lazy mapped open must outrun, and the warp replay
//! that stepped every lane of a warp, whose counters the simulator's must
//! equal, the digit-at-a-time `values` text codec the wire's word-at-
//! a-time one must outrun, and the sorting split assembly whose CSR the
//! one-pass `apply_split` must reproduce byte for byte. The cost guards
//! that time one against the other all sample through [`fastest_pairs`].

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufWriter, Write};
use std::time::Instant;
use tigr::engine::{
    run_monotone, Combine, EdgeOp, ExecutionPlan, InitKind, MonotoneOutput, PrOptions, SyncMode,
};

use tigr::core::split::{split_edges, SplitEdges, SplitTopology};
use tigr::core::{DumbWeight, TransformedGraph, VirtualGraph};
use tigr::graph::generators::RmatConfig;
use tigr::graph::io::{
    decode_csr, find_section, read_container, Section, SECTION_CSR, SECTION_OVERLAY,
    SECTION_REV_OVERLAY, SECTION_TRANSPOSE,
};
use tigr::graph::RowView;
use tigr::sim::{AccessKind, KernelMetrics, Lane, MemAccess, TimingModel, WarpStats};
use tigr::{
    Csr, CsrBuilder, Edge, GpuConfig, GpuSimulator, MonotoneProgram, NodeId, PushOptions,
    Representation, Weight,
};

/// The `paths` verb's program: SSSP whose candidates above the radius
/// collapse to `∞`.
pub const fn paths_program(radius: u32) -> MonotoneProgram {
    MonotoneProgram {
        name: "paths",
        edge_op: EdgeOp::AddWeightCapped(radius),
        combine: Combine::Min,
        init: InitKind::SourceZero,
        associative: true,
    }
}

/// The push options of `rounds` synchronous full sweeps — what
/// `Engine::run_rounds` pins for label propagation.
pub fn bsp_rounds(rounds: usize) -> PushOptions {
    PushOptions {
        worklist: false,
        sync: SyncMode::Bsp,
        max_iterations: rounds,
        ..PushOptions::default()
    }
}

/// One run of [`reference_push`].
#[derive(Debug)]
pub struct Reference {
    pub values: Vec<u32>,
    pub iterations: usize,
    pub edges_touched: u64,
    pub converged: bool,
}

/// The sequential push schedule, written the plain way: `Vec<u32>`
/// values, a `Vec<u64>` next-frontier bitmap drained in ascending order,
/// a `prev` copy per iteration under BSP.
pub fn reference_push(
    rows: &impl RowView,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
) -> Reference {
    fn with_fold(
        rows: &impl RowView,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        options: &PushOptions,
        apply: impl Fn(u32, Weight) -> u32,
    ) -> Reference {
        match prog.combine {
            Combine::Min => reference_loop(rows, prog, source, options, apply, |c, cur| c < cur),
            Combine::Max => reference_loop(rows, prog, source, options, apply, |c, cur| c > cur),
        }
    }
    match prog.edge_op {
        EdgeOp::AddWeight => with_fold(rows, prog, source, options, |d, w| d.saturating_add(w)),
        EdgeOp::MinWeight => with_fold(rows, prog, source, options, |d, w| d.min(w)),
        EdgeOp::Copy => with_fold(rows, prog, source, options, |d, _| d),
        EdgeOp::AddUnit => with_fold(rows, prog, source, options, |d, _| d.saturating_add(1)),
        EdgeOp::AddWeightCapped(cap) => with_fold(rows, prog, source, options, move |d, w| {
            let sum = d.saturating_add(w);
            if sum <= cap {
                sum
            } else {
                u32::MAX
            }
        }),
    }
}

fn reference_loop(
    rows: &impl RowView,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
    apply: impl Fn(u32, Weight) -> u32,
    better: impl Fn(u32, u32) -> bool,
) -> Reference {
    let n = rows.num_nodes();
    let mut values = prog.initial_values(n, source);
    let mut active = prog.initial_frontier(n, source);
    let mut next = vec![0u64; n.div_ceil(64)];
    let (mut iterations, mut edges_touched, mut converged) = (0, 0u64, false);
    while iterations < options.max_iterations {
        if options.worklist && active.is_empty() {
            converged = true;
            break;
        }
        iterations += 1;
        if !options.worklist {
            active = (0..n as u32).collect();
        }
        let prev = (options.sync == SyncMode::Bsp).then(|| values.clone());
        let mut changed = false;
        for &v in &active {
            let d = prev.as_ref().map_or(values[v as usize], |p| p[v as usize]);
            let (targets, weights) = rows.row(NodeId::new(v));
            for (i, t) in targets.iter().map(|t| t.index()).enumerate() {
                let cand = apply(d, weights.map_or(1, |ws| ws[i]));
                edges_touched += 1;
                let seen = prev.as_ref().map_or(values[t], |p| p[t]);
                if better(cand, seen) && better(cand, values[t]) {
                    values[t] = cand;
                    next[t / 64] |= 1 << (t % 64);
                    changed = true;
                }
            }
        }
        active.clear();
        for (w, word) in next.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                active.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    Reference {
        values,
        iterations,
        edges_touched,
        converged,
    }
}

/// The simulated push engine (sequential replay) on a CSR.
pub fn simulated_push(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    options: &PushOptions,
) -> MonotoneOutput {
    let sim = GpuSimulator::new(GpuConfig::default());
    let rep = Representation::Original(g);
    let plan = ExecutionPlan {
        push: *options,
        ..ExecutionPlan::default()
    };
    run_monotone(&sim, &rep, None, prog, source, &plan).unwrap()
}

/// Asserts that a lane of the host driver is the run both independent
/// loops take: `reference` over the same rows, `simulated` over the same
/// graph as a CSR.
pub fn assert_lane_is_the_reference_run(
    lane: &MonotoneOutput,
    reference: &Reference,
    simulated: &MonotoneOutput,
    label: &str,
) {
    assert_eq!(lane.values, simulated.values, "{label}: values vs sim");
    assert_eq!(
        lane.converged, simulated.converged,
        "{label}: converged vs sim"
    );
    assert_eq!(lane.values, reference.values, "{label}: values");
    assert_eq!(
        lane.directions.len(),
        reference.iterations,
        "{label}: iterations"
    );
    assert_eq!(
        lane.edges_touched, reference.edges_touched,
        "{label}: edges_touched"
    );
    assert_eq!(lane.converged, reference.converged, "{label}: converged");
    assert!(!lane.cancelled, "{label}: cancelled");
}

/// One run of [`reference_pagerank`].
#[derive(Debug)]
pub struct ReferenceRanks {
    pub ranks: Vec<f32>,
    pub iterations: usize,
    pub converged: bool,
}

/// PageRank written the plain way, as a gather: a `Vec<f32>` of per-node
/// shares `rank / max(outdeg, 1)`, one partial sum per in-row of
/// `reverse` (the transpose of the graph `out_degrees` belong to). Its
/// `f32` arithmetic is the power iteration's, term for term and in the
/// same order, so its ranks are the engine's to the bit.
pub fn reference_pagerank(
    reverse: &Csr,
    out_degrees: &[u32],
    options: &PrOptions,
) -> ReferenceRanks {
    let n = reverse.num_nodes();
    let (rows, sources) = (reverse.row_ptr(), reverse.col_idx());
    let (d, nf) = (options.damping, n as f32);
    let share = |v: usize, rank: f32| rank / out_degrees[v].max(1) as f32;
    let mut ranks = vec![1.0 / nf; n];
    let mut shares: Vec<f32> = (0..n).map(|v| share(v, ranks[v])).collect();
    let (mut iterations, mut converged) = (0, n == 0);
    while !converged && iterations < options.max_iterations {
        let mut dangling = 0.0f64;
        for v in 0..n {
            if out_degrees[v] == 0 {
                dangling += f64::from(ranks[v]);
            }
        }
        let base = (1.0 - d) / nf + d * (dangling as f32) / nf;
        let mut delta = 0.0f32;
        for (t, rank) in ranks.iter_mut().enumerate() {
            let mut partial = 0.0f32;
            for s in &sources[rows[t]..rows[t + 1]] {
                partial += shares[s.index()];
            }
            let new = base + d * partial;
            delta += (new - *rank).abs();
            *rank = new;
        }
        for (v, s) in shares.iter_mut().enumerate() {
            *s = share(v, ranks[v]);
        }
        iterations += 1;
        converged = delta < options.tolerance;
    }
    ReferenceRanks {
        ranks,
        iterations,
        converged,
    }
}

/// R-MAT generation the sequential way: one stream, one branchy walk down
/// the quadrants per edge, a `Vec<Edge>` through [`CsrBuilder`]. Its
/// output is what `generators::rmat` must produce at any chunk count.
pub fn reference_rmat(config: &RmatConfig, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.num_nodes();
    let m = config.num_edges();

    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (src, dst) = rmat_edge(config, &mut rng);
        edges.push(Edge::unweighted(NodeId::new(src), NodeId::new(dst)));
    }

    let mut b = CsrBuilder::from_edges(n, edges);
    b.dedup(config.dedup);
    b.build()
}

fn rmat_edge(config: &RmatConfig, rng: &mut StdRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for level in (0..config.scale).rev() {
        // Multiplicative noise keeps the expected simplex but perturbs each
        // level, smoothing the synthetic degree distribution.
        let mut jitter = |p: f64| {
            if config.noise > 0.0 {
                p * (1.0 - config.noise + 2.0 * config.noise * rng.gen::<f64>())
            } else {
                p
            }
        };
        let (a, b, c, d) = (
            jitter(config.a),
            jitter(config.b),
            jitter(config.c),
            jitter(config.d()),
        );
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        let bit = 1u32 << level;
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            dst |= bit;
        } else if r < a + b + c {
            src |= bit;
        } else {
            src |= bit;
            dst |= bit;
        }
    }
    (src, dst)
}

/// A CSR section payload built into one buffer: flags, counts,
/// `row_ptr`, `col_idx`, optional weights — all little-endian.
pub fn encode_csr(g: &Csr) -> Vec<u8> {
    let n = g.num_nodes();
    let m = g.num_edges();
    let mut buf = Vec::with_capacity(24 + (n + 1) * 8 + m * 8);
    let flags = if g.is_weighted() { 1u8 } else { 0 };
    buf.extend_from_slice(&u64::from(flags).to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(m as u64).to_le_bytes());
    for &p in g.row_ptr() {
        buf.extend_from_slice(&(p as u64).to_le_bytes());
    }
    for &c in g.col_idx() {
        buf.extend_from_slice(&c.raw().to_le_bytes());
    }
    for &x in g.weights().into_iter().flatten() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf
}

/// An overlay section payload built into one buffer: `k`, coalesced
/// flag, physical counts, then the virtual node array and the family
/// index, all little-endian.
pub fn overlay_section_bytes(vg: &VirtualGraph) -> Vec<u8> {
    let n = vg.num_physical_nodes();
    let first_vnode: Vec<u32> = (0..n as u32)
        .map(|v| vg.vnode_range(NodeId::new(v)).start as u32)
        .chain([vg.num_virtual_nodes() as u32])
        .collect();
    // Every physical edge is covered by exactly one virtual node.
    let physical_edges: usize = vg.vnodes().iter().map(|vn| vn.count as usize).sum();
    let mut buf = Vec::with_capacity(32 + vg.vnodes().len() * 16 + first_vnode.len() * 4);
    buf.extend_from_slice(&vg.k().to_le_bytes());
    buf.extend_from_slice(&(vg.is_coalesced() as u32).to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(physical_edges as u64).to_le_bytes());
    buf.extend_from_slice(&(vg.vnodes().len() as u64).to_le_bytes());
    for vn in vg.vnodes().iter() {
        for word in [vn.physical.raw(), vn.first_edge, vn.stride, vn.count] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }
    for &f in first_vnode.iter() {
        buf.extend_from_slice(&f.to_le_bytes());
    }
    buf
}

/// A transform section payload built into one buffer: `k`, a topology
/// tag, original counts, the embedded transformed CSR (length-prefixed),
/// the family-root map, and the new-edge flags.
pub fn transform_section_bytes(t: &TransformedGraph) -> Vec<u8> {
    let csr = encode_csr(t.graph());
    let total_nodes = t.graph().num_nodes();
    let new_edge_flags: Vec<bool> = (0..t.graph().num_edges())
        .map(|e| t.is_new_edge(e))
        .collect();
    let mut buf = Vec::with_capacity(32 + csr.len() + total_nodes * 4 + new_edge_flags.len());
    buf.extend_from_slice(&t.k().to_le_bytes());
    buf.extend_from_slice(&topology_tag(t.topology()).to_le_bytes());
    buf.extend_from_slice(&(t.original_nodes() as u64).to_le_bytes());
    buf.extend_from_slice(&(t.num_new_edges() as u64).to_le_bytes());
    buf.extend_from_slice(&(csr.len() as u64).to_le_bytes());
    buf.extend_from_slice(&csr);
    for r in t.graph().nodes().map(|v| t.family_root(v)) {
        buf.extend_from_slice(&r.raw().to_le_bytes());
    }
    buf.extend(new_edge_flags.iter().map(|&f| f as u8));
    buf
}

fn topology_tag(name: &str) -> u32 {
    match name {
        "udt" => 1,
        "star" => 2,
        "recursive-star" => 3,
        "circular" => 4,
        "clique" => 5,
        _ => 0,
    }
}

/// A `TIGRCSR2` container of buffered sections: the table with each
/// section's checksum, then the payloads at 8-aligned offsets.
pub fn write_container<W: Write>(sections: &[Section], writer: W) -> std::io::Result<()> {
    let align8 = |x: usize| x.div_ceil(8) * 8;
    let mut out = BufWriter::new(writer);
    let table_end = 16 + 32 * sections.len();

    let mut header = Vec::with_capacity(table_end);
    header.extend_from_slice(b"TIGRCSR2");
    header.extend_from_slice(&2u32.to_le_bytes());
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = align8(table_end);
    for s in sections {
        header.extend_from_slice(&s.id.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&(offset as u64).to_le_bytes());
        header.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&s.checksum().to_le_bytes());
        offset = align8(offset + s.payload.len());
    }
    out.write_all(&header)?;

    let mut cursor = table_end;
    for s in sections {
        let start = align8(cursor);
        out.write_all(&vec![0u8; start - cursor])?;
        out.write_all(&s.payload)?;
        cursor = start + s.payload.len();
    }
    out.flush()?;
    Ok(())
}

/// An artifact's views decoded onto the heap: CSR, transpose, overlay
/// and reverse overlay, each present when the artifact carries it.
pub type DecodedViews = (Csr, Option<Csr>, Option<VirtualGraph>, Option<VirtualGraph>);

/// The owned open of an artifact, from the public container reader: read
/// the whole file, hash every section, and decode the CSR, the transpose
/// and both overlays into heap arrays.
pub fn reference_decode(path: &std::path::Path) -> DecodedViews {
    let sections = read_container(std::fs::File::open(path).unwrap()).unwrap();
    let payload = |id| find_section(&sections, id).map(|s| &s.payload[..]);
    let csr = |id| payload(id).map(|p| decode_csr(p).unwrap());
    let overlay = |id| payload(id).map(|p| VirtualGraph::from_section_bytes(p).unwrap());
    let graph = csr(SECTION_CSR).expect("artifact has a CSR section");
    (
        graph,
        csr(SECTION_TRANSPOSE),
        overlay(SECTION_OVERLAY),
        overlay(SECTION_REV_OVERLAY),
    )
}

/// What a kernel records on: the simulator's [`Lane`] or the
/// reference's [`RefLane`], so one kernel body drives both.
pub trait Recorder {
    fn compute(&mut self, n: u64);
    fn load(&mut self, addr: u64, bytes: u64);
    fn store(&mut self, addr: u64, bytes: u64);
    fn atomic(&mut self, addr: u64, bytes: u64);
}

impl Recorder for Lane {
    fn compute(&mut self, n: u64) {
        Lane::compute(self, n);
    }
    fn load(&mut self, addr: u64, bytes: u64) {
        Lane::load(self, addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u64) {
        Lane::store(self, addr, bytes);
    }
    fn atomic(&mut self, addr: u64, bytes: u64) {
        Lane::atomic(self, addr, bytes);
    }
}

/// One operation of a drawn lane trace, recorded by [`play`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    Compute(u64),
    Load(u64, u64),
    Store(u64, u64),
    Atomic(u64, u64),
}

/// Records `trace` on `lane`.
pub fn play(trace: &[TraceOp], lane: &mut impl Recorder) {
    for op in trace {
        match *op {
            TraceOp::Compute(n) => lane.compute(n),
            TraceOp::Load(addr, bytes) => lane.load(addr, bytes),
            TraceOp::Store(addr, bytes) => lane.store(addr, bytes),
            TraceOp::Atomic(addr, bytes) => lane.atomic(addr, bytes),
        }
    }
}

/// One recorded operation of the reference simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RefOp {
    Compute(u64),
    Mem(MemAccess),
}

/// The reference recorder: `Lane`'s rule — consecutive computes fuse, a
/// zero compute records nothing — over a `Vec` of its own.
#[derive(Debug, Default)]
pub struct RefLane {
    ops: Vec<RefOp>,
}

impl RefLane {
    fn access(&mut self, addr: u64, bytes: u64, kind: AccessKind) {
        self.ops.push(RefOp::Mem(MemAccess { addr, bytes, kind }));
    }
}

impl Recorder for RefLane {
    fn compute(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(RefOp::Compute(w)) = self.ops.last_mut() {
            *w += n;
        } else {
            self.ops.push(RefOp::Compute(n));
        }
    }
    fn load(&mut self, addr: u64, bytes: u64) {
        self.access(addr, bytes, AccessKind::Load);
    }
    fn store(&mut self, addr: u64, bytes: u64) {
        self.access(addr, bytes, AccessKind::Store);
    }
    fn atomic(&mut self, addr: u64, bytes: u64) {
        self.access(addr, bytes, AccessKind::Atomic);
    }
}

/// The simulator's launch written the plain way, run sequentially: every
/// lane recorded into a `Vec` of its own, every step visiting all of
/// them, every step's accesses coalesced into a fresh buffer by division,
/// sort and dedup. Shares no code with `tigr_sim`.
pub fn reference_launch<F>(config: &GpuConfig, num_threads: usize, kernel: F) -> KernelMetrics
where
    F: Fn(usize, &mut RefLane),
{
    let ws = config.warp_size;
    let mut metrics = KernelMetrics {
        sm_cycles: vec![0; config.num_sms],
        ..KernelMetrics::default()
    };
    let mut lanes: Vec<Vec<RefOp>> = vec![Vec::new(); ws];
    let mut recorder = RefLane::default();
    for warp in 0..num_threads.div_ceil(ws) {
        for (lane_idx, lane_ops) in lanes.iter_mut().enumerate() {
            lane_ops.clear();
            let tid = warp * ws + lane_idx;
            if tid < num_threads {
                recorder.ops.clear();
                kernel(tid, &mut recorder);
                std::mem::swap(lane_ops, &mut recorder.ops);
            }
        }
        let stats = match config.timing {
            TimingModel::SimdLockstep => reference_lockstep(&lanes, config),
            TimingModel::IdealMimd => reference_mimd(&lanes, config),
        };
        metrics.warps += 1;
        metrics.instructions += stats.useful_slots;
        metrics.issued_slots += stats.issued_slots;
        metrics.mem_transactions += stats.mem_transactions;
        metrics.atomic_ops += stats.atomic_ops;
        metrics.sm_cycles[warp % config.num_sms] += stats.cycles;
    }
    metrics.cycles =
        metrics.sm_cycles.iter().copied().max().unwrap_or(0) + config.cost.kernel_launch_cycles;
    metrics
}

fn reference_lockstep(lanes: &[Vec<RefOp>], config: &GpuConfig) -> WarpStats {
    let steps = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
    let mut stats = WarpStats {
        steps: steps as u64,
        ..WarpStats::default()
    };
    let mut step_accesses: Vec<MemAccess> = Vec::with_capacity(config.warp_size);

    for k in 0..steps {
        step_accesses.clear();
        let mut max_compute = 0u64;
        let mut useful = 0u64;
        for lane in lanes {
            match lane.get(k) {
                Some(RefOp::Compute(w)) => {
                    max_compute = max_compute.max(*w);
                    useful += w;
                }
                Some(RefOp::Mem(a)) => {
                    step_accesses.push(*a);
                    useful += 1;
                }
                None => {}
            }
        }

        let mut step_weight = 0u64;
        if max_compute > 0 {
            stats.cycles += max_compute * config.cost.compute_cycles;
            step_weight += max_compute;
        }
        if !step_accesses.is_empty() {
            let (tx, atomics) = reference_coalesce(&step_accesses, config.cacheline_bytes);
            stats.cycles +=
                tx * config.cost.mem_transaction_cycles + atomics * config.cost.atomic_extra_cycles;
            stats.mem_transactions += tx;
            stats.atomic_ops += atomics;
            step_weight = step_weight.max(1);
        }

        stats.useful_slots += useful;
        stats.issued_slots += config.warp_size as u64 * step_weight;
    }
    stats
}

fn reference_mimd(lanes: &[Vec<RefOp>], config: &GpuConfig) -> WarpStats {
    let mut stats = WarpStats::default();
    let mut compute = 0u64;
    for lane in lanes {
        for op in lane {
            match op {
                RefOp::Compute(w) => {
                    compute += w;
                    stats.useful_slots += w;
                }
                RefOp::Mem(a) => {
                    stats.mem_transactions += 1;
                    if a.kind == AccessKind::Atomic {
                        stats.atomic_ops += 1;
                    }
                    stats.useful_slots += 1;
                }
            }
        }
        stats.steps = stats.steps.max(lane.len() as u64);
    }
    stats.issued_slots = stats.useful_slots;
    stats.cycles = compute.div_ceil(config.warp_size as u64) * config.cost.compute_cycles
        + stats.mem_transactions.div_ceil(config.warp_size as u64)
            * config.cost.mem_transaction_cycles
        + stats.atomic_ops * config.cost.atomic_extra_cycles / config.warp_size.max(1) as u64;
    stats
}

/// `(transactions, atomics)` of one step's accesses: the distinct
/// `cacheline_bytes` segments they touch, by division, sort and dedup.
fn reference_coalesce(accesses: &[MemAccess], cacheline_bytes: u64) -> (u64, u64) {
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

/// Appends the `values` array as the wire codec wrote it a digit at a
/// time: `json::push_u64`'s divide-by-ten loop behind a comma per
/// element, straight into the line's buffer.
pub fn reference_write_values(out: &mut Vec<u8>, values: &[u32]) {
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        reference_push_u64(out, v.into());
    }
    out.push(b']');
}

fn reference_push_u64(out: &mut Vec<u8>, n: u64) {
    if n >= 1 << 53 {
        out.extend_from_slice((n as f64).to_string().as_bytes());
        return;
    }
    let mut buf = [b'0'; 16];
    let mut at = buf.len();
    let mut rest = n;
    loop {
        at -= 1;
        buf[at] += (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// A `values` array read as the wire codec read it a digit at a time:
/// the container loop, `Reader::number`'s digit loop (a plain integer of
/// up to 15 digits accumulated directly, anything else through
/// `str::parse::<f64>`) and the `u32` range rule. `None` for anything
/// the reference does not read as `[<u32>...]`.
pub fn reference_read_values(text: &str) -> Option<Vec<u32>> {
    let bytes = text.as_bytes();
    let skip_ws = |at: &mut usize| {
        while matches!(bytes.get(*at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *at += 1;
        }
    };
    let mut at = 0;
    skip_ws(&mut at);
    if bytes.get(at) != Some(&b'[') {
        return None;
    }
    at += 1;
    skip_ws(&mut at);
    let mut values = Vec::new();
    if bytes.get(at) == Some(&b']') {
        return Some(values);
    }
    loop {
        let n = reference_number(text, &mut at)?;
        let v = n as u32;
        if f64::from(v) != n {
            return None;
        }
        values.push(v);
        skip_ws(&mut at);
        match bytes.get(at) {
            Some(b',') => at += 1,
            Some(b']') => return Some(values),
            _ => return None,
        }
        skip_ws(&mut at);
    }
}

fn reference_number(text: &str, pos: &mut usize) -> Option<f64> {
    let bytes = text.as_bytes();
    let start = *pos;
    let negative = bytes.get(start) == Some(&b'-');
    let digits_start = start + usize::from(negative);
    let mut at = digits_start;
    let mut int: u64 = 0;
    while let Some(d @ b'0'..=b'9') = bytes.get(at) {
        int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        at += 1;
    }
    *pos = at;
    if (1..=15).contains(&(at - digits_start)) && !matches!(bytes.get(at), Some(b'.' | b'e' | b'E'))
    {
        let n = int as f64;
        return Some(if negative { -n } else { n });
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    text[start..*pos].parse::<f64>().ok()
}

/// One split assembled the way `apply_split` first did it: every edge in
/// the order the split emitted it (node by node, a row of degree at most
/// `k` as it is, a high-degree node's family at its turn), then a stable
/// sort of an index over them by source for the new-edge flags in CSR
/// order, and `CsrBuilder` (neighbour order kept) cloning the edge list
/// and stably sorting it again to build the CSR. Returns the CSR, the
/// flags and the family roots.
pub fn reference_split(
    topology: &dyn SplitTopology,
    g: &Csr,
    k: u32,
    dumb: DumbWeight,
) -> (Csr, Vec<bool>, Vec<NodeId>) {
    let SplitEdges {
        edges: family,
        family_root,
    } = split_edges(topology, g, k, dumb);
    let mut family = family.into_iter().peekable();
    let mut edges = Vec::new();
    for v in g.nodes() {
        if g.out_degree(v) <= k as usize {
            let start = g.edge_start(v);
            for (off, &target) in g.neighbors(v).iter().enumerate() {
                edges.push((v, target, g.weight(start + off), false));
            }
        } else {
            while let Some(e) = family.next_if(|e| family_root[e.0.index()] == v) {
                edges.push(e);
            }
        }
    }
    assert!(family.next().is_none(), "a family out of root order");
    let num_new_edges = edges.iter().filter(|e| e.3).count();
    let keep_weights = dumb.keeps_weights() && (g.is_weighted() || num_new_edges > 0);
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| edges[i].0);
    let flags = order.iter().map(|&i| edges[i].3).collect();
    let mut builder = CsrBuilder::new(family_root.len()).with_edge_capacity(edges.len());
    builder.sort_neighbors(false);
    builder.force_weighted(keep_weights);
    for &(src, dst, w, _) in &edges {
        builder.add(Edge::new(src, dst, if keep_weights { w } else { 1 }));
    }
    (builder.build(), flags, family_root)
}

/// Times `pairs` pairs of runs of `a` and of `b` and returns the fastest
/// run of each side in milliseconds. Each pair flips which side runs
/// first, so neither always inherits the other's cache state or a
/// neighbour's burst; the fastest run is the one the least disturbed.
/// `check` gets every pair's two outputs.
pub fn fastest_pairs<A, B>(
    pairs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
    mut check: impl FnMut(A, B),
) -> (f64, f64) {
    fn timed<T>(run: &mut impl FnMut() -> T, best: &mut f64) -> T {
        let started = Instant::now();
        let out = run();
        *best = best.min(started.elapsed().as_secs_f64() * 1e3);
        out
    }
    let (mut a_ms, mut b_ms) = (f64::MAX, f64::MAX);
    for pair in 0..pairs {
        let (x, y) = if pair % 2 == 0 {
            let x = timed(&mut a, &mut a_ms);
            (x, timed(&mut b, &mut b_ms))
        } else {
            let y = timed(&mut b, &mut b_ms);
            (timed(&mut a, &mut a_ms), y)
        };
        check(x, y);
    }
    (a_ms, b_ms)
}
