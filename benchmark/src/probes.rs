//! Layer probes: every layer gets a number, measured from outside.
//!
//! A traced run calls each layer's public functions directly, on the
//! same graphs the workloads use, with a span around every call. Each
//! metric names the end-to-end metric it should move (see the README's
//! per-layer table); none of them is bounded — they explain, the
//! end-to-end metrics decide.

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tigr_core::{
    udt_transform, DeltaOverlay, DumbWeight, GraphStore, MutableGraph, PrepareSpec, PreparedGraph,
    VirtualGraph, Wal,
};
use tigr_engine::{
    BackendKind, BatchArena, BatchProgram, CpuOptions, Direction, Engine, MonotoneProgram,
    Pipeline, PrOptions,
};
use tigr_graph::generators::{rmat, RmatConfig};
use tigr_graph::io::{
    decode_csr, find_section, read_container, MappedContainer, VerifyMode, SECTION_CSR,
};
use tigr_graph::reverse::transpose;
use tigr_graph::NodeId;
use tigr_server::json;
use tigr_server::{
    checksum, decode_request, decode_response, encode_request, encode_response, Algo, Bounded,
    CacheKey, CachedResult, Client, QueryRequest, QueryResult, Request, Response, ResultCache,
    ServerConfig, ServerCore,
};
use tigr_sim::GpuConfig;

use crate::rng::Rng;
use crate::setup::{serving_spec, Deployment, GRAPH, GRAPH_SEED, VIRTUAL_K};
use crate::stats::{median, percentile, summarize};
use crate::streams::{query, uncached, MutationStream, SourcePool, BATCH_OPS};
use crate::trace::Tracer;
use crate::workloads::paper_sim::base_spec;
use crate::workloads::{server_counters, server_stats, Ctx};

/// Delta size `mutable.compact_ms` is measured at.
const COMPACT_DELTA: usize = 4096;
/// Delta size `server.dirty_over_clean` is measured at.
const DIRTY_DELTA: usize = 2048;
/// Open-loop request rate, per second.
const OPEN_RATE: f64 = 60.0;
/// Open-loop requests: the fewest that still leave ten beyond p90.
const OPEN_REQUESTS: usize = 100;

/// Span recorder plus the metric map under construction.
struct Probe<'a> {
    tracer: &'a mut Tracer,
    request: u64,
    out: BTreeMap<&'static str, f64>,
}

impl Probe<'_> {
    /// Times one call under a root span; milliseconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.request += 1;
        let started = Instant::now();
        let value = f();
        let ended = Instant::now();
        self.tracer.record(name, self.request, started, ended);
        (value, ended.duration_since(started).as_secs_f64() * 1e3)
    }

    /// Median milliseconds of `reps` calls.
    fn median_ms<T>(&mut self, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let samples: Vec<f64> = (0..reps).map(|_| self.time(name, &mut f).1).collect();
        median(&samples)
    }

    /// Median microseconds per call over five batches of `calls` calls,
    /// one span per batch: a call of under a microsecond is less than a
    /// pair of clock reads resolves, and a span per call would cost
    /// more than the call.
    fn per_call_us<T>(
        &mut self,
        name: &'static str,
        calls: usize,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        let batch_ms = self.median_ms(name, 5, || {
            for _ in 0..calls {
                black_box(f());
            }
        });
        batch_ms * 1e3 / calls as f64
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("probe {what}: {e}")
}

/// `tigr-graph`, `tigr-core::{store, virtual_graph, split}`: what
/// `setup_s` is made of. Returns the store and the serving graph's
/// artifact-backed prepare for the later probes.
fn storage(p: &mut Probe<'_>, ctx: &Ctx<'_>) -> Result<(GraphStore, PrepareSpec), String> {
    let scale = ctx.sizes.serve_scale;
    let (g, ms) = p.time("graph.rmat_gen", || {
        rmat(&RmatConfig::graph500(scale, 16), GRAPH_SEED)
    });
    p.set("graph.rmat_gen_ms", ms);
    let ms = p.median_ms("graph.transpose", 3, || transpose(&g));
    p.set("graph.transpose_ms", ms);
    let ms = p.median_ms("virtual.build", 3, || {
        VirtualGraph::coalesced(&g, VIRTUAL_K)
    });
    p.set("virtual.build_ms", ms);
    p.set(
        "virtual.nodes",
        VirtualGraph::coalesced(&g, VIRTUAL_K).num_virtual_nodes() as f64,
    );
    drop(g);

    let store = GraphStore::new(Some(ctx.dir.path().join("cache")));
    let spec = serving_spec(scale, GRAPH_SEED);
    let (miss, ms) = p.time("store.prepare_miss", || store.prepare(&spec));
    let miss = miss.map_err(|e| err("prepare", e))?;
    p.set("store.prepare_miss_ms", ms);
    p.set("store.work_items", f64::from(miss.report().work_items()));
    let artifact = miss
        .report()
        .artifact
        .clone()
        .ok_or("probe prepare: the store wrote no artifact")?;
    drop(miss);
    let bytes = std::fs::metadata(&artifact)
        .map_err(|e| err("artifact", e))?
        .len();
    p.set("store.artifact_mb", bytes as f64 / (1024.0 * 1024.0));
    let ms = p.median_ms("store.prepare_hit", 3, || store.prepare(&spec).map(drop));
    p.set("store.prepare_hit_ms", ms);

    let open = |verify| MappedContainer::open(&artifact, verify).and_then(|c| c.csr(SECTION_CSR));
    let ms = p.median_ms("graph.open_mapped_lazy", 9, || open(VerifyMode::Lazy));
    p.set("graph.open_mapped_lazy_us", ms * 1e3);
    let ms = p.median_ms("graph.open_mapped_eager", 3, || open(VerifyMode::Eager));
    p.set("graph.open_mapped_eager_ms", ms);
    let ms = p.median_ms("graph.open_decoded", 3, || decode_artifact(&artifact));
    p.set("graph.open_decoded_ms", ms);
    open(VerifyMode::Eager).map_err(|e| err("open", e))?;
    decode_artifact(&artifact)?;

    let sim = GraphStore::disabled()
        .prepare(&base_spec(ctx.sizes.sim_scale))
        .map_err(|e| err("prepare", e))?;
    let k = tigr_core::k_select::physical_k(sim.graph());
    let (udt, ms) = p.time("split.udt", || {
        udt_transform(sim.graph(), k, DumbWeight::Zero)
    });
    p.set("split.udt_ms", ms);
    p.set(
        "split.udt_nodes_added",
        (udt.graph().num_nodes() - udt.original_nodes()) as f64,
    );
    Ok((store, spec))
}

/// The owned (non-mapped) open: read, verify, and decode the CSR.
fn decode_artifact(path: &Path) -> Result<(), String> {
    let file = File::open(path).map_err(|e| err("open", e))?;
    let sections = read_container(BufReader::new(file)).map_err(|e| err("read", e))?;
    let csr = find_section(&sections, SECTION_CSR).ok_or("probe read: no CSR section")?;
    decode_csr(&csr.payload)
        .map(drop)
        .map_err(|e| err("decode", e))
}

/// `tigr-core::mutation`, plus the dirty-over-clean ratio the server
/// adds on top of it.
fn mutation(
    p: &mut Probe<'_>,
    ctx: &Ctx<'_>,
    store: &GraphStore,
    spec: &PrepareSpec,
) -> Result<(), String> {
    let prepared = store.prepare(spec).map_err(|e| err("prepare", e))?;
    let original = prepared.graph().clone();
    let pool = SourcePool::of(&original);
    let mut rng = Rng::new(ctx.seed, 20);
    let mut stream = MutationStream::new(Rng::new(ctx.seed, 21));

    // WAL alone: encode + write + one fsync per 512-op batch.
    let wal_path = ctx.dir.path().join("probe.wal");
    let (mut wal, _) = Wal::open(&wal_path).map_err(|e| err("wal open", e))?;
    let empty = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let batches: Vec<_> = (0..9).map(|_| stream.next_batch(&original)).collect();
    let mut appended = batches.iter();
    let ms = p.median_ms("wal.append512", batches.len(), || {
        wal.append_batch(appended.next().expect("one batch per repetition"))
    });
    p.set("wal.append512_ms", ms);
    let logged = std::fs::metadata(&wal_path).map_or(0, |m| m.len()) - empty;
    p.set(
        "wal.bytes_per_op",
        logged as f64 / (batches.len() * BATCH_OPS) as f64,
    );
    drop(wal);

    // What the server does before it can apply a batch: decode the
    // request line (24 KB of JSON for 512 ops).
    let line = encode_request(&Request::Mutate {
        graph: GRAPH.to_owned(),
        ops: batches[0].clone(),
    });
    let ms = p.median_ms("protocol.decode_mutate512", 9, || decode_request(&line));
    p.set("protocol.decode_mutate512_ms", ms);

    // Delta overlay alone: the same ops, no log.
    let mut overlay = DeltaOverlay::new(&original);
    let (applied, ms) = p.time("delta.apply", || {
        batches
            .iter()
            .flatten()
            .filter(|&&op| overlay.apply(&original, op).unwrap_or(false))
            .count()
    });
    p.set("delta.apply_us_per_op", ms * 1e3 / applied.max(1) as f64);
    drop(overlay);

    // The two together behind `MutableGraph`, served by a core with no
    // sockets (the ratio is about the engine path, not the wire).
    let graph = Arc::new(MutableGraph::open(store.clone(), prepared).map_err(|e| err("open", e))?);
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    core.add_mutable_graph(GRAPH, Arc::clone(&graph));
    let mut client = Client::local(Arc::clone(&core));
    let sources = pool.pick_distinct(&mut rng, 4);
    let mut latency = |p: &mut Probe<'_>, name| -> Result<f64, String> {
        let mut samples = Vec::new();
        for &s in &sources {
            let (reply, ms) = p.time(name, || client.query(uncached(Algo::Sssp, s)));
            reply.map_err(|e| err("query", e))?;
            samples.push(ms);
        }
        Ok(median(&samples))
    };
    let clean = latency(p, "server.submit_clean")?;

    let mut stream = MutationStream::new(Rng::new(ctx.seed, 22));
    let mut apply_ms = Vec::new();
    let mut dirty = None;
    while graph.delta_edges() < COMPACT_DELTA {
        let ops = stream.next_batch(&original);
        let (summary, ms) = p.time("mutable.apply512", || graph.apply(&ops));
        summary.map_err(|e| err("apply", e))?;
        apply_ms.push(ms);
        if dirty.is_none() && graph.delta_edges() >= DIRTY_DELTA {
            dirty = Some(latency(p, "server.submit_dirty")?);
        }
    }
    p.set("mutable.apply512_ms", median(&apply_ms));
    p.set(
        "server.dirty_over_clean",
        dirty.ok_or("probe: delta never reached the dirty threshold")? / clean,
    );
    let us = p.per_call_us("mutable.snapshot", 1000, || graph.snapshot());
    p.set("mutable.snapshot_ns", us * 1e3);
    let (stats, ms) = p.time("mutable.compact", || graph.compact());
    let stats = stats.map_err(|e| err("compact", e))?;
    p.set("mutable.compact_ms", ms);
    p.set(
        "mutable.delta_edges_at_compact",
        stats.delta_edges_before as f64,
    );
    drop(client);
    core.shutdown();
    Ok(())
}

fn sequential() -> Engine {
    Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_device_memory(u64::MAX)
}

/// `tigr-engine` on the serving graph; returns the median sequential
/// query time (ms) and the sources it was measured on.
fn engine(p: &mut Probe<'_>, ctx: &Ctx<'_>, g: &PreparedGraph) -> Result<(f64, Vec<u32>), String> {
    let pool = SourcePool::of(g.graph());
    let sources = pool.pick_distinct(&mut Rng::new(ctx.seed, 30), 16);
    let seq = sequential();
    let (mut ms, mut edges, mut iterations) = (Vec::new(), Vec::new(), Vec::new());
    for &s in &sources {
        let (out, t) = p.time("engine.seq_query", || {
            seq.run_prepared(g, MonotoneProgram::SSSP, Some(NodeId::new(s)))
        });
        let out = out.map_err(|e| err("sssp", e))?;
        ms.push(t);
        edges.push(out.edges_touched as f64);
        iterations.push(out.directions.len() as f64);
    }
    let seq_ms = median(&ms);
    p.set("engine.seq_query_ms", seq_ms);
    p.set(
        "engine.seq_medges_per_s",
        edges.iter().sum::<f64>() / (ms.iter().sum::<f64>() / 1e3) / 1e6,
    );
    p.set("engine.edges_touched", median(&edges));
    p.set("engine.iterations", median(&iterations));

    let pr = Pipeline::pagerank(PrOptions::default());
    let (out, t) = p.time("engine.seq_pr", || seq.run_prepared_pipeline(g, &pr, None));
    out.map_err(|e| err("pr", e))?;
    p.set("engine.seq_pr_ms", t);

    let mut arena = BatchArena::new();
    let lanes = |chunk: &[u32]| {
        BatchProgram::from_sources(
            MonotoneProgram::SSSP,
            chunk.iter().map(|&s| Some(NodeId::new(s))),
        )
    };
    let mut lane_ms = Vec::new();
    for chunk in sources.chunks(8) {
        let batch = lanes(chunk);
        let (out, t) = p.time("engine.batch8", || {
            seq.run_prepared_batch(g, &batch, &mut arena)
        });
        out.map_err(|e| err("batch", e))?;
        lane_ms.push(t / chunk.len() as f64);
    }
    p.set("engine.batch8_lane_ms", median(&lane_ms));

    let pool2 = Engine::default()
        .with_backend(BackendKind::CpuPool)
        .with_direction(Direction::Auto)
        .with_cpu_options(CpuOptions {
            threads: 2,
            ..CpuOptions::default()
        })
        .with_device_memory(u64::MAX);
    let mut ms = Vec::new();
    for &s in &sources[..8] {
        let (out, t) = p.time("engine.pool2_query", || {
            pool2.run_prepared(g, MonotoneProgram::SSSP, Some(NodeId::new(s)))
        });
        out.map_err(|e| err("pool2", e))?;
        ms.push(t);
    }
    p.set("engine.pool2_query_ms", median(&ms));
    Ok((seq_ms, sources))
}

/// `tigr-sim`: exact counts of one SSSP on each representation of the
/// simulator graph, and the host time WarpSim takes to produce them.
fn simulator(p: &mut Probe<'_>, ctx: &Ctx<'_>) -> Result<(), String> {
    let store = GraphStore::disabled();
    let prepare = |spec: PrepareSpec| store.prepare(&spec).map_err(|e| err("prepare", e));
    let spec = || base_spec(ctx.sizes.sim_scale);
    let base = prepare(spec())?;
    let v = prepare(spec().with_virtual(VIRTUAL_K, false))?;
    let vplus = prepare(spec().with_virtual(VIRTUAL_K, true))?;
    let udt =
        prepare(spec().with_transform(tigr_core::TransformKind::Udt, None, DumbWeight::Zero))?;
    let source = SourcePool::of(base.graph()).pick(&mut Rng::new(ctx.seed, 40));
    let config = GpuConfig::default();
    let engine = Engine::new(config);
    let run = |p: &mut Probe<'_>, engine: &Engine, g: &PreparedGraph| {
        let (out, ms) = p.time("engine.warpsim", || {
            engine.run_prepared(g, MonotoneProgram::SSSP, Some(NodeId::new(source)))
        });
        out.map(|o| (o.report.total(), ms))
            .map_err(|e| err("warpsim", e))
    };
    let (m_base, _) = run(p, &engine, &base)?;
    let (m_v, _) = run(p, &engine, &v)?;
    let (m_udt, _) = run(p, &engine, &udt)?;
    let mut host_ms = Vec::new();
    let mut m_vplus = None;
    for _ in 0..3 {
        let (m, ms) = run(p, &engine, &vplus)?;
        host_ms.push(ms);
        if m_vplus
            .as_ref()
            .is_some_and(|prev: &tigr_sim::KernelMetrics| prev.cycles != m.cycles)
        {
            return Err("probe warpsim: sequential replay changed its cycle count".into());
        }
        m_vplus = Some(m);
    }
    let m_vplus = m_vplus.expect("three runs");
    let host = median(&host_ms);
    p.set("engine.warpsim_host_ms", host);
    p.set(
        "engine.warpsim_mcycles_per_host_s",
        m_vplus.cycles as f64 / (host / 1e3) / 1e6,
    );
    p.set("sim.cycles_base", m_base.cycles as f64);
    p.set("sim.cycles_v", m_v.cycles as f64);
    p.set("sim.cycles_vplus", m_vplus.cycles as f64);
    p.set("sim.cycles_udt", m_udt.cycles as f64);
    p.set("sim.warp_eff_base", m_base.warp_efficiency());
    p.set("sim.warp_eff_vplus", m_vplus.warp_efficiency());
    p.set("sim.warp_eff_udt", m_udt.warp_efficiency());
    p.set("sim.transactions_base", m_base.mem_transactions as f64);
    p.set("sim.transactions_v", m_v.mem_transactions as f64);
    p.set("sim.transactions_vplus", m_vplus.mem_transactions as f64);
    p.set("sim.instructions_vplus", m_vplus.instructions as f64);
    p.set(
        "sim.speedup_vplus",
        m_base.cycles as f64 / m_vplus.cycles as f64,
    );
    p.set(
        "sim.speedup_udt",
        m_base.cycles as f64 / m_udt.cycles as f64,
    );

    // `Engine::parallel` is documented "identical metrics"; record how
    // far its cycle totals actually spread over repeated runs.
    let parallel = Engine::parallel(config);
    let mut cycles = Vec::new();
    for _ in 0..3 {
        cycles.push(run(p, &parallel, &vplus)?.0.cycles as f64);
    }
    cycles.sort_by(f64::total_cmp);
    p.set(
        "sim.parallel_cycle_drift",
        (cycles[2] - cycles[0]) / cycles[0],
    );
    Ok(())
}

/// `tigr-server::{json, protocol}`: a small request/reply and a bulk
/// (one value per node) reply through each codec function.
fn codec(p: &mut Probe<'_>, values: Vec<u32>, source: u32) {
    let request = Request::Query(query(Algo::Sssp, source));
    let line = encode_request(&request);
    let us = p.per_call_us("protocol.encode_request", 1000, || encode_request(&request));
    p.set("protocol.encode_request_us", us);
    let us = p.per_call_us("protocol.decode_request", 1000, || decode_request(&line));
    p.set("protocol.decode_request_us", us);

    let reply = |values| {
        Response::Query(QueryResult {
            algo: Algo::Sssp,
            graph: GRAPH.to_owned(),
            source: Some(source),
            nodes: 0,
            iterations: 1,
            checksum: 0,
            cached: true,
            wall_us: 1,
            values,
        })
    };
    let small = encode_response(&reply(None));
    let us = p.per_call_us("json.parse_small", 1000, || json::parse(&small));
    p.set("json.parse_small_us", us);

    let bulk = reply(Some(values));
    let line = encode_response(&bulk);
    p.set("protocol.values_reply_kb", line.len() as f64 / 1024.0);
    let ms = p.median_ms("protocol.encode_values", 5, || encode_response(&bulk));
    p.set("protocol.encode_values_ms", ms);
    let ms = p.median_ms("protocol.decode_values", 5, || decode_response(&line));
    p.set("protocol.decode_values_ms", ms);
    let ms = p.median_ms("json.parse_values", 5, || json::parse(&line));
    p.set("json.parse_values_ms", ms);
    p.set(
        "json.parse_mb_per_s",
        line.len() as f64 / (1024.0 * 1024.0) / (ms / 1e3),
    );
}

/// `tigr-server::{cache, queue}` with entries the size the server
/// stores (one value per node).
fn cache_and_queue(p: &mut Probe<'_>, values: Vec<u32>) {
    let key = |source| CacheKey {
        graph: GRAPH.to_owned(),
        algo: Algo::Sssp,
        source: Some(source),
        limit: None,
        plan: "sequential:push",
        epoch: 0,
    };
    let entry = CachedResult {
        checksum: checksum(&values),
        values: Arc::new(values),
        iterations: 1,
    };
    let capacity = ServerConfig::default().cache_capacity as u32;
    let cache = ResultCache::new(capacity as usize);
    for source in 0..capacity {
        cache.insert(key(source), entry.clone());
    }
    let mut next = 0;
    let us = p.per_call_us("cache.get_hit", 1000, || {
        next = (next + 1) % capacity;
        cache.get(&key(next))
    });
    p.set("cache.get_hit_us", us);
    let mut next = capacity;
    let us = p.per_call_us("cache.insert_evict", 1000, || {
        next += 1;
        cache.insert(key(next), entry.clone());
    });
    p.set("cache.insert_evict_us", us);

    let queue = Bounded::new(ServerConfig::default().queue_capacity);
    let us = p.per_call_us("queue.push_pop", 1000, || {
        let _ = queue.try_push(1u64);
        queue.pop()
    });
    p.set("queue.push_pop_us", us);
    let us = p.per_call_us("queue.pop_batch8", 1000, || {
        for job in 0..8u64 {
            let _ = queue.try_push(job);
        }
        queue.pop_batch(8, Duration::ZERO, |_, _| true)
    });
    p.set("queue.pop_batch8_us", us);
}

/// Median round-trip milliseconds of `reps` sends of `request`.
fn roundtrips(
    p: &mut Probe<'_>,
    name: &'static str,
    client: &mut Client,
    request: &QueryRequest,
    reps: usize,
) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (reply, t) = p.time(name, || client.query(request.clone()));
        reply.map_err(|e| err(name, e))?;
        ms.push(t);
    }
    Ok(median(&ms))
}

/// One served request under one request id: the socket `roundtrip`
/// span, then an in-process `replay` of the same request with a child
/// span per codec/core step. Wire self time is roundtrip minus replay.
fn replay(
    tracer: &mut Tracer,
    id: u64,
    socket: &mut Client,
    local: &mut Client,
    request: &Request,
) -> Result<(), String> {
    let span = tracer.begin("roundtrip", id, None);
    let reply = socket.request(request);
    tracer.end(span);
    reply.map_err(|e| err("roundtrip", e))?;

    let root = tracer.begin("replay", id, None);
    let step = |name, tracer: &mut Tracer| tracer.begin(name, id, Some(root));
    let s = step("encode_request", tracer);
    let line = encode_request(request);
    tracer.end(s);
    let s = step("decode_request", tracer);
    let decoded = decode_request(&line);
    tracer.end(s);
    let s = step("submit", tracer);
    let response = local.request(&decoded.map_err(|e| err("replay decode", e))?);
    tracer.end(s);
    let response = response.map_err(|e| err("replay submit", e))?;
    let s = step("encode_response", tracer);
    let line = encode_response(&response);
    tracer.end(s);
    let s = step("decode_response", tracer);
    let decoded = decode_response(&line);
    tracer.end(s);
    tracer.end(root);
    decoded.map(drop).map_err(|e| err("replay decode", e))
}

/// Open loop: requests are due every `1 / OPEN_RATE` seconds whether or
/// not earlier ones have returned; latency counts from the due time, and
/// the generator's own lateness is reported beside it.
fn open_loop(dep: &Deployment, sources: &[u32]) -> Result<(f64, f64), String> {
    const SENDERS: usize = 4;
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Vec<(f64, f64)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|sender| {
                scope.spawn(move || {
                    let mut client = dep.connect_unix()?;
                    let mut samples = Vec::new();
                    for k in (sender..OPEN_REQUESTS).step_by(SENDERS) {
                        let due = start + Duration::from_secs_f64(k as f64 / OPEN_RATE);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let sent = Instant::now();
                        client
                            .query(uncached(Algo::Sssp, sources[k % sources.len()]))
                            .map_err(|e| err("open loop", e))?;
                        samples.push((
                            due.elapsed().as_secs_f64() * 1e3,
                            sent.duration_since(due).as_secs_f64() * 1e3,
                        ));
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("open-loop sender panicked".into()))
            })
            .collect()
    });
    let mut latency = Vec::new();
    let mut lag = Vec::new();
    for samples in results {
        for (l, g) in samples? {
            latency.push(l);
            lag.push(g);
        }
    }
    latency.sort_by(f64::total_cmp);
    lag.sort_by(f64::total_cmp);
    Ok((percentile(&latency, 90.0), percentile(&lag, 90.0)))
}

/// `tigr-server::server` and the wire, on a fresh static deployment.
fn server_and_wire(
    p: &mut Probe<'_>,
    dep: &Deployment,
    sources: &[u32],
    engine_seq_ms: f64,
    fill_counters: bool,
) -> Result<(), String> {
    let before = server_stats(dep)?;
    let mut local = dep.connect_local();
    let mut unix = dep.connect_unix()?;
    let mut tcp = dep.connect_tcp()?;

    let mut cold = Vec::new();
    for &s in sources {
        let (reply, ms) = p.time("server.submit_cold", || {
            local.query(uncached(Algo::Sssp, s))
        });
        reply.map_err(|e| err("submit", e))?;
        cold.push(ms);
    }
    let cold_ms = median(&cold);
    p.set("server.submit_cold_ms", cold_ms);
    p.set("server.overhead_ms", cold_ms - engine_seq_ms);

    let small = query(Algo::Sssp, sources[0]);
    let bulk = QueryRequest {
        include_values: true,
        ..small.clone()
    };
    local.query(small.clone()).map_err(|e| err("warm", e))?;
    let hit_small = roundtrips(p, "server.submit_hit_small", &mut local, &small, 200)?;
    p.set("server.submit_hit_small_us", hit_small * 1e3);
    let hit_values = roundtrips(p, "server.submit_hit_values", &mut local, &bulk, 30)?;
    p.set("server.submit_hit_values_us", hit_values * 1e3);

    let unix_small = roundtrips(p, "wire.unix_small", &mut unix, &small, 200)?;
    p.set("wire.unix_small_us", unix_small * 1e3);
    let tcp_small = roundtrips(p, "wire.tcp_small", &mut tcp, &small, 16)?;
    p.set("wire.tcp_small_ms", tcp_small);
    p.set("wire.tcp_overhead_ms", tcp_small - hit_small);
    let unix_values = roundtrips(p, "wire.unix_values", &mut unix, &bulk, 12)?;
    p.set("wire.unix_values_ms", unix_values);
    let tcp_values = roundtrips(p, "wire.tcp_values", &mut tcp, &bulk, 12)?;
    p.set("wire.tcp_values_ms", tcp_values);

    for (i, request) in [&small, &bulk].into_iter().cycle().take(32).enumerate() {
        let id = 1_000_000 + i as u64;
        replay(
            p.tracer,
            id,
            &mut unix,
            &mut local,
            &Request::Query(request.clone()),
        )?;
    }
    drop((local, unix, tcp));

    let (p90, lag) = open_loop(dep, sources)?;
    p.set("server.open60_p90_ms", p90);
    p.set("server.open60_sched_lag_ms", lag);

    if fill_counters {
        // A server-less workload has no traffic of its own: the probes'
        // requests stand in for it.
        let after = server_stats(dep)?;
        p.out.extend(server_counters(&before, &after));
        p.set("server.query_tail_ms", summarize(&cold).tail);
    }
    Ok(())
}

/// Runs every probe. `served` says whether the workload had a daemon of
/// its own (its counters then take precedence over the probes').
pub fn run_all(
    ctx: &Ctx<'_>,
    served: bool,
    tracer: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    ctx.dir.clear().map_err(|e| err("clear", e))?;
    let mut p = Probe {
        tracer,
        request: 2_000_000,
        out: BTreeMap::new(),
    };
    let (store, spec) = storage(&mut p, ctx)?;
    mutation(&mut p, ctx, &store, &spec)?;
    simulator(&mut p, ctx)?;

    let dep = Deployment::start_in(ctx.dir, store, &spec, false)?;
    let (seq_ms, sources) = engine(&mut p, ctx, &dep.prepared)?;
    let values = crate::oracle::values(&dep.prepared, Algo::Sssp, Some(sources[0]))?;
    codec(&mut p, values.clone(), sources[0]);
    cache_and_queue(&mut p, values);
    server_and_wire(&mut p, &dep, &sources, seq_ms, !served)?;
    Ok(p.out)
}
