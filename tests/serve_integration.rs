//! Integration tests of the serving subsystem against the acceptance
//! bar: 64 concurrent in-flight queries over an ephemeral TCP socket on
//! a scale-16 RMAT graph with every answer byte-equal to a direct
//! sequential engine run, typed queue-full rejections under a tiny
//! admission queue, cancelled runs leaving no partial state observable
//! through the cache, dirty-snapshot queries fusing and honouring
//! deadlines like clean ones, and the `stats` verb reporting it all.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use tigr::core::{
    GraphStore, MutableGraph, MutationOp, PrepareSpec, PreparedGraph, TransformKind, ViewPlan,
};
use tigr::engine::{BackendKind, Pipeline, PlanError};
use tigr::server::{
    Algo, Client, ClientError, ErrorCode, QueryRequest, QueryResult, Server, ServerAddr,
    ServerConfig, ServerCore, MAX_REQUEST_LINE,
};
use tigr::{CsrBuilder, DumbWeight, Engine, GpuConfig, MonotoneProgram, NodeId};

const MIX: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Sswp, Algo::Cc];

/// The weighted scale-16 RMAT analog.
fn rmat16_spec() -> PrepareSpec {
    PrepareSpec::generated("rmat:16:16", 2018).with_uniform_weights(1, 64, 2018)
}

/// The scale-16 RMAT analog every test shares (prepared once; the
/// server only ever reads it through an `Arc`).
fn shared_graph() -> Arc<PreparedGraph> {
    static GRAPH: OnceLock<Arc<PreparedGraph>> = OnceLock::new();
    Arc::clone(
        GRAPH.get_or_init(|| Arc::new(GraphStore::disabled().prepare(&rmat16_spec()).unwrap())),
    )
}

/// Pins a lone worker for about a second so a burst submitted meanwhile
/// queues up behind it: triangle counting (never batched, ≈ 1 s on this
/// scale-15 graph, where a served `pr` now takes tens of milliseconds)
/// on a graph of its own. Join the handle after the burst.
fn pin_worker(core: &Arc<ServerCore>) -> std::thread::JoinHandle<()> {
    static GRAPH: OnceLock<Arc<PreparedGraph>> = OnceLock::new();
    let graph = GRAPH.get_or_init(|| {
        let spec = PrepareSpec::generated("rmat:15:16", 2018);
        Arc::new(GraphStore::disabled().prepare(&spec).unwrap())
    });
    core.add_graph("blocker", Arc::clone(graph));
    let core = Arc::clone(core);
    let blocker = std::thread::spawn(move || {
        Client::local(core)
            .query(QueryRequest::new("blocker", Algo::Tc, None))
            .unwrap();
    });
    std::thread::sleep(Duration::from_millis(50));
    blocker
}

/// Sixteen sources spread across the id space.
fn sources(prepared: &PreparedGraph) -> Vec<u32> {
    let stride = (prepared.graph().num_nodes() / 16).max(1) as u32;
    (0..16u32).map(|i| i * stride).collect()
}

/// What `tigr run <algo> --backend sequential` would print: a direct
/// single-threaded engine run with the server's exact plan.
fn expected_values(prepared: &PreparedGraph, algo: Algo, source: Option<u32>) -> Vec<u32> {
    let engine = Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_device_memory(u64::MAX);
    let prog = match algo {
        Algo::Bfs => MonotoneProgram::BFS,
        Algo::Sssp => MonotoneProgram::SSSP,
        Algo::Sswp => MonotoneProgram::SSWP,
        Algo::Cc => MonotoneProgram::CC,
        Algo::Khop => MonotoneProgram::KHOP,
        other => unreachable!("{other:?}: monotone analytics only"),
    };
    let out = engine
        .run_prepared(prepared, prog, source.map(NodeId::new))
        .unwrap();
    match prepared.transformed() {
        Some(t) => t.project_values(&out.values),
        None => out.values,
    }
}

#[test]
fn sixty_four_concurrent_queries_match_sequential_runs() {
    let prepared = shared_graph();
    let sources = sources(&prepared);
    let core = ServerCore::new(ServerConfig {
        workers: 4,
        queue_capacity: 128,
        cache_capacity: 256,
        default_deadline_ms: None,
        kernel_threads: 1,
        batch_max: 8,
        batch_wait_us: 0,
        compact_threshold: 0,
    });
    core.add_graph("rmat16", Arc::clone(&prepared));
    let server = Server::bind_tcp(core, "127.0.0.1:0").unwrap();
    let addr = match server.addr() {
        ServerAddr::Tcp(a) => a.to_string(),
        other => panic!("{other:?}"),
    };

    // 64 distinct (algo, source) cells, one connection each, all
    // released at once so all 64 are in flight together.
    let barrier = Arc::new(Barrier::new(64));
    let handles: Vec<_> = (0..64usize)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let algo = MIX[i / 16];
            // CC is global: the protocol rejects a source for it, so its
            // 16 cells are deliberately identical concurrent queries.
            let source = (algo != Algo::Cc).then(|| sources[i % 16]);
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).unwrap();
                barrier.wait();
                let mut query = QueryRequest::new("rmat16", algo, source);
                query.include_values = true;
                let r = client.query(query).unwrap();
                (algo, source, r)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (algo, source, r) in results {
        let expect = expected_values(&prepared, algo, source);
        assert_eq!(r.nodes as usize, expect.len());
        assert_eq!(
            r.values.as_deref(),
            Some(expect.as_slice()),
            "{}/{source:?}: served values diverged from the sequential run",
            algo.label()
        );
    }

    let mut client = Client::connect_tcp(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.received, 64);
    assert_eq!(stats.completed, 64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.workers, 4);
    assert!(stats.p95_us >= stats.p50_us);
    server.shutdown();
}

#[test]
fn overflowing_the_admission_queue_rejects_with_typed_errors() {
    let prepared = shared_graph();
    let sources = sources(&prepared);
    // Batching stays on: a typed queue-full rejection must survive
    // workers draining the queue in batches.
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 0,
        default_deadline_ms: None,
        kernel_threads: 1,
        batch_max: 8,
        batch_wait_us: 0,
        compact_threshold: 0,
    });
    core.add_graph("rmat16", Arc::clone(&prepared));

    let barrier = Arc::new(Barrier::new(24));
    let handles: Vec<_> = (0..24usize)
        .map(|i| {
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            let source = sources[i % sources.len()];
            std::thread::spawn(move || {
                let mut client = Client::local(core);
                barrier.wait();
                client.query(QueryRequest::new("rmat16", Algo::Sssp, Some(source)))
            })
        })
        .collect();
    let mut completed = 0u64;
    let mut rejected = 0u64;
    for h in handles {
        match h.join().unwrap() {
            Ok(r) => {
                completed += 1;
                let expect = expected_values(&prepared, Algo::Sssp, r.source);
                assert_eq!(r.checksum, tigr::server::checksum(&expect));
            }
            Err(ClientError::Protocol(p)) => {
                assert_eq!(p.code, ErrorCode::QueueFull, "{p:?}");
                assert!(!p.message.is_empty());
                rejected += 1;
            }
            Err(other) => panic!("{other}"),
        }
    }
    assert_eq!(completed + rejected, 24);
    assert!(
        rejected >= 1,
        "24 racing clients never overflowed a 2-slot queue"
    );

    let mut client = Client::local(Arc::clone(&core));
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, completed);
    core.shutdown();
}

/// Satellite: a deadline-cancelled SSSP must leave no partially-written
/// state observable through a subsequent cached query — the next query
/// is a cache miss (cancelled runs are never inserted) and its values
/// are the complete sequential answer.
#[test]
fn cancelled_sssp_leaves_no_partial_state_in_the_cache() {
    let prepared = shared_graph();
    let source = sources(&prepared)[3];
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 64,
        default_deadline_ms: None,
        kernel_threads: 1,
        batch_max: 8,
        batch_wait_us: 0,
        compact_threshold: 0,
    });
    core.add_graph("rmat16", Arc::clone(&prepared));
    let mut client = Client::local(core);

    // A scale-16 SSSP takes ~10ms sequentially; a 1ms deadline fires at
    // an early iteration boundary, after partial distances exist
    // internally.
    let mut doomed = QueryRequest::new("rmat16", Algo::Sssp, Some(source));
    doomed.deadline_ms = Some(1);
    match client.query(doomed) {
        Err(ClientError::Protocol(p)) => assert_eq!(p.code, ErrorCode::DeadlineExceeded, "{p:?}"),
        other => panic!("1ms SSSP unexpectedly finished: {other:?}"),
    }

    let full = client
        .query(QueryRequest::new("rmat16", Algo::Sssp, Some(source)))
        .unwrap();
    assert!(
        !full.cached,
        "cancelled run leaked a cache entry for source {source}"
    );
    let expect = expected_values(&prepared, Algo::Sssp, Some(source));
    assert_eq!(full.checksum, tigr::server::checksum(&expect));

    let warm = client
        .query(QueryRequest::new("rmat16", Algo::Sssp, Some(source)))
        .unwrap();
    assert!(warm.cached);
    assert_eq!(warm.checksum, full.checksum);
}

/// Satellite: mixed-algorithm traffic is partitioned into compatible
/// batches — a burst of BFS/SSSP/SSWP/CC queries released while the
/// single worker is pinned (see `pin_worker`) must come back as one
/// fused batch per algorithm (CC's identical deadline-free queries
/// additionally coalesce onto one lane), every answer byte-equal to
/// the sequential reference.
#[test]
fn mixed_algorithm_burst_partitions_into_per_algorithm_batches() {
    let prepared = shared_graph();
    let sources = sources(&prepared);
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        queue_capacity: 128,
        cache_capacity: 0,
        default_deadline_ms: None,
        kernel_threads: 1,
        batch_max: 8,
        batch_wait_us: 0,
        compact_threshold: 0,
    });
    core.add_graph("rmat16", Arc::clone(&prepared));

    let blocker = pin_worker(&core);

    let barrier = Arc::new(Barrier::new(16));
    let handles: Vec<_> = (0..16usize)
        .map(|i| {
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            let algo = MIX[i % 4];
            let source = (algo != Algo::Cc).then(|| sources[i / 4]);
            std::thread::spawn(move || {
                let mut client = Client::local(core);
                barrier.wait();
                let r = client
                    .query(QueryRequest::new("rmat16", algo, source))
                    .unwrap();
                (algo, source, r)
            })
        })
        .collect();
    for h in handles {
        let (algo, source, r) = h.join().unwrap();
        let expect = expected_values(&prepared, algo, source);
        assert_eq!(
            r.checksum,
            tigr::server::checksum(&expect),
            "{}/{source:?} diverged inside a mixed batch",
            algo.label()
        );
        assert!(!r.cached);
    }
    blocker.join().unwrap();

    let stats = Client::local(Arc::clone(&core)).stats().unwrap();
    assert_eq!(stats.completed, 17);
    assert_eq!(stats.failed, 0);
    // 16 monotone queries in 4 single-algorithm batches of 4 — the
    // partitioner must neither fuse across algorithms (which would
    // break the compatibility rule) nor fall back to singletons.
    assert_eq!(stats.batched_queries, 16);
    assert_eq!(stats.batches, 4, "burst was not fused per algorithm");
    assert_eq!(stats.max_batch, 4);
    core.shutdown();
}

/// A UDT split charges AddUnit's hop for every split edge, so a served
/// k-hop over it is a typed refusal, alone or fused into lanes, as
/// bounded paths is; bfs and sssp answer the unsplit graph. The lane
/// path once lowered verbs through a table of its own that skipped the
/// engine's plan gate, and answered a split `khop` "ok" with wrong hop
/// counts.
#[test]
fn split_graphs_refuse_khop_on_every_path_and_serve_bfs_exactly() {
    let store = GraphStore::disabled();
    let spec = PrepareSpec::generated("star:200", 0);
    let plain = store.prepare(&spec).unwrap();
    let udt = spec.with_transform(TransformKind::Udt, Some(4), DumbWeight::Zero);
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    core.add_graph("udt", Arc::new(store.prepare(&udt).unwrap()));
    let refused = |reply: Result<QueryResult, ClientError>, pipeline: &'static str| match reply {
        Err(ClientError::Protocol(e)) => {
            assert_eq!(e.code, ErrorCode::InvalidPlan, "{pipeline}");
            let plan_error = PlanError::NotSplitInvariant { pipeline };
            assert_eq!(e.message, plan_error.to_string());
        }
        other => panic!("{pipeline}: {other:?}"),
    };
    let khop = |source: u32| QueryRequest::new("udt", Algo::Khop, Some(source)).with_limit(1);
    let mut client = Client::local(Arc::clone(&core));
    refused(client.query(khop(0)), "khop");
    let paths = QueryRequest::new("udt", Algo::Paths, Some(0)).with_limit(1);
    refused(client.query(paths), "paths");
    // Fused: both queue behind the pinned worker and drain as one batch.
    let blocker = pin_worker(&core);
    let fused: Vec<_> = [0, 1]
        .map(|source| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || Client::local(core).query(khop(source)))
        })
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    blocker.join().unwrap();
    for reply in fused {
        refused(reply, "khop");
    }
    let engine = Engine::default().with_backend(BackendKind::Sequential);
    for algo in [Algo::Bfs, Algo::Sssp] {
        let mut query = QueryRequest::new("udt", algo, Some(0));
        query.include_values = true;
        let served = client.query(query).unwrap();
        let pipeline = Pipeline::for_algo(algo, None).unwrap();
        let direct = engine
            .run_prepared_pipeline(&plain, &pipeline, Some(NodeId::new(0)))
            .unwrap();
        assert_eq!(served.values, Some(direct.values), "{algo:?}");
    }
    core.shutdown();
}

/// Satellite: a deadline-cancelled query sharing a batch with a
/// healthy one poisons only its own lane — its cell is never cached,
/// while its batchmate's answer is correct and cached.
#[test]
fn cancelled_query_in_a_batch_poisons_only_its_own_lane() {
    let prepared = shared_graph();
    let sources = sources(&prepared);
    let (doomed_src, healthy_src) = (sources[5], sources[9]);
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 64,
        default_deadline_ms: None,
        kernel_threads: 1,
        batch_max: 8,
        batch_wait_us: 0,
        compact_threshold: 0,
    });
    core.add_graph("rmat16", Arc::clone(&prepared));

    // Pin the worker so both SSSP queries queue up and are drained into
    // one batch; the doomed one's deadline fires while it waits or
    // during the fused run — both must surface as `deadline-exceeded`.
    let blocker = pin_worker(&core);

    let doomed = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            let mut q = QueryRequest::new("rmat16", Algo::Sssp, Some(doomed_src));
            q.deadline_ms = Some(60);
            Client::local(core).query(q)
        })
    };
    let healthy = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            Client::local(core).query(QueryRequest::new("rmat16", Algo::Sssp, Some(healthy_src)))
        })
    };
    match doomed.join().unwrap() {
        Err(ClientError::Protocol(p)) => {
            assert_eq!(p.code, ErrorCode::DeadlineExceeded, "{p:?}")
        }
        other => panic!("doomed query was not cancelled: {other:?}"),
    }
    let healthy = healthy.join().unwrap().unwrap();
    let expect = expected_values(&prepared, Algo::Sssp, Some(healthy_src));
    assert_eq!(healthy.checksum, tigr::server::checksum(&expect));
    blocker.join().unwrap();

    let mut client = Client::local(Arc::clone(&core));
    // The healthy lane was cached despite its batchmate's cancellation…
    let warm = client
        .query(QueryRequest::new("rmat16", Algo::Sssp, Some(healthy_src)))
        .unwrap();
    assert!(warm.cached, "healthy lane lost its cache entry");
    assert_eq!(warm.checksum, healthy.checksum);
    // …and the cancelled lane never reached the cache.
    let fresh = client
        .query(QueryRequest::new("rmat16", Algo::Sssp, Some(doomed_src)))
        .unwrap();
    assert!(!fresh.cached, "cancelled lane leaked a cache entry");
    let expect = expected_values(&prepared, Algo::Sssp, Some(doomed_src));
    assert_eq!(fresh.checksum, tigr::server::checksum(&expect));
    core.shutdown();
}

/// The server runs `pr` and `bc` on the host loop of its `Sequential`
/// plan; the simulator never enters. The reply still carries exactly
/// what a direct sequential-replay simulator run computes — checksum
/// and iteration count — because the two launchers agree to the bit
/// (`tests/host_vs_warpsim.rs`), so answers cached or pinned before the
/// host path existed stay valid.
#[test]
fn served_pr_and_bc_carry_the_simulator_runs_checksum_and_iterations() {
    let spec = PrepareSpec::generated("rmat:12:16", 7).with_virtual(10, true);
    let prepared = Arc::new(GraphStore::disabled().prepare(&spec).unwrap());
    let core = ServerCore::new(ServerConfig::default());
    core.add_graph("rmat12", Arc::clone(&prepared));
    let mut client = Client::local(Arc::clone(&core));
    let simulator = Engine::new(GpuConfig::default()).with_device_memory(u64::MAX);
    for (algo, source) in [(Algo::Pr, None), (Algo::Bc, Some(3))] {
        let pipeline = Pipeline::for_algo(algo, None).unwrap();
        let direct = simulator
            .run_prepared_pipeline(&prepared, &pipeline, source.map(NodeId::new))
            .unwrap();
        let served = client
            .query(QueryRequest::new("rmat12", algo, source))
            .unwrap();
        assert!(!served.cached);
        assert_eq!(
            served.checksum,
            tigr::server::checksum(&direct.values),
            "{}",
            algo.label()
        );
        assert_eq!(served.iterations, direct.iterations, "{}", algo.label());
        assert!(direct.iterations > 1, "{}", algo.label());
    }
    core.shutdown();
}

/// BC polls its token between levels, so a deadline that expires
/// mid-run surfaces as `deadline-exceeded` through the pipeline output
/// like every other verb: nothing is cached, and the worker goes on to
/// serve the next query.
#[test]
fn a_bc_deadline_expiring_mid_run_is_typed_uncached_and_frees_the_worker() {
    let prepared = shared_graph();
    let source = sources(&prepared)[2];
    let core = ServerCore::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    core.add_graph("rmat16", Arc::clone(&prepared));
    let mut client = Client::local(Arc::clone(&core));

    // A scale-16 BC takes tens of milliseconds on the host loop; 2 ms
    // run out a few levels in.
    let mut doomed = QueryRequest::new("rmat16", Algo::Bc, Some(source));
    doomed.deadline_ms = Some(2);
    match client.query(doomed) {
        Err(ClientError::Protocol(p)) => assert_eq!(p.code, ErrorCode::DeadlineExceeded, "{p:?}"),
        other => panic!("2 ms BC unexpectedly finished: {other:?}"),
    }
    let full = client
        .query(QueryRequest::new("rmat16", Algo::Bc, Some(source)))
        .unwrap();
    assert!(!full.cached, "cancelled bc leaked a cache entry");
    let direct = Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_device_memory(u64::MAX)
        .run_prepared_pipeline(
            &prepared,
            &Pipeline::for_algo(Algo::Bc, None).unwrap(),
            Some(NodeId::new(source)),
        )
        .unwrap();
    assert_eq!(full.checksum, tigr::server::checksum(&direct.values));
    let stats = client.stats().unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 1));
    core.shutdown();
}

/// Satellite: the same workload is byte-identical across runs and
/// worker counts — batching and scheduling change only throughput,
/// never a single checksum.
#[test]
fn checksums_are_identical_across_runs_and_worker_counts() {
    let prepared = shared_graph();
    let sources = sources(&prepared);
    let mut observed: Vec<std::collections::BTreeMap<(String, Option<u32>), u64>> = Vec::new();
    // Two worker counts, two runs each: four complete traversals of the
    // same 12-cell mix, all through the batched path with caching off.
    for &workers in &[1usize, 4] {
        let core = ServerCore::new(ServerConfig {
            workers,
            queue_capacity: 128,
            cache_capacity: 0,
            default_deadline_ms: None,
            kernel_threads: 1,
            batch_max: 8,
            batch_wait_us: 0,
            compact_threshold: 0,
        });
        core.add_graph("rmat16", Arc::clone(&prepared));
        for _run in 0..2 {
            let barrier = Arc::new(Barrier::new(12));
            let handles: Vec<_> = (0..12usize)
                .map(|i| {
                    let core = Arc::clone(&core);
                    let barrier = Arc::clone(&barrier);
                    let algo = MIX[i % 4];
                    let source = (algo != Algo::Cc).then(|| sources[i / 4]);
                    std::thread::spawn(move || {
                        let mut client = Client::local(core);
                        barrier.wait();
                        let r = client
                            .query(QueryRequest::new("rmat16", algo, source))
                            .unwrap();
                        ((algo.label().to_string(), source), r.checksum)
                    })
                })
                .collect();
            observed.push(handles.into_iter().map(|h| h.join().unwrap()).collect());
        }
        core.shutdown();
    }
    for later in &observed[1..] {
        assert_eq!(
            &observed[0], later,
            "same workload produced different checksums across runs/worker counts"
        );
    }
    for ((algo, source), sum) in &observed[0] {
        let expect = expected_values(&prepared, Algo::parse(algo).unwrap(), *source);
        assert_eq!(
            *sum,
            tigr::server::checksum(&expect),
            "{algo}/{source:?} diverged from the sequential reference"
        );
    }
}

/// A graph opened from a warm cache is served from the mapped artifact
/// (where the target can map in place) and answers exactly as the cold
/// build of the same spec does; `stats` says which open each served.
#[test]
fn a_warm_cache_open_is_served_mapped_with_the_cold_builds_answer() {
    let dir = std::env::temp_dir().join(format!("tigr_it_serve_warm_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = GraphStore::new(Some(dir.clone()));
    let spec = PrepareSpec::generated("rmat:12:16", 7)
        .with_uniform_weights(1, 64, 7)
        .with_virtual(8, true)
        .with_transpose(true);
    let cold = store.prepare(&spec).unwrap();
    let warm = store.prepare(&spec).unwrap();
    let serve = |prepared: PreparedGraph| {
        let core = ServerCore::new(ServerConfig::default());
        core.add_graph("g", Arc::new(prepared));
        let mut client = Client::local(Arc::clone(&core));
        let reply = client
            .query(QueryRequest::new("g", Algo::Sssp, Some(0)))
            .unwrap();
        let open = client.stats().unwrap().graphs.remove(0);
        core.shutdown();
        (reply.checksum, open)
    };
    let (cold_sum, cold_open) = serve(cold);
    let (warm_sum, warm_open) = serve(warm);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        (cold_open.name.as_str(), cold_open.open.as_str()),
        ("g", "built")
    );
    if cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        assert_eq!(warm_open.open, "mapped", "{warm_open:?}");
        assert!(warm_open.mapped_bytes > 0, "{warm_open:?}");
    }
    assert_eq!(warm_sum, cold_sum);
}

/// An uncached `sssp` from `source` on `graph`.
fn uncached_sssp(graph: &str, source: u32) -> QueryRequest {
    let mut query = QueryRequest::new(graph, Algo::Sssp, Some(source));
    query.cache = false;
    query
}

/// K same-epoch dirty queries from distinct sources go through the
/// batch path like clean ones: they fuse into one multi-lane run over
/// the pinned snapshot's view, and each answer equals its solo answer,
/// the merged graph's answer, and — after `compact` — the clean answer.
#[test]
fn same_epoch_dirty_queries_fuse_and_match_their_solo_and_compacted_answers() {
    const K: usize = 6;
    let prepared = GraphStore::disabled().prepare(&rmat16_spec()).unwrap();
    let sources: Vec<u32> = sources(&prepared).into_iter().take(K).collect();
    let edges: Vec<tigr::Edge> = prepared.graph().edges().collect();
    let n = prepared.graph().num_nodes() as u32;
    let mutable = Arc::new(MutableGraph::open(GraphStore::disabled(), prepared).unwrap());
    // Adds plus removes of base edges: both kinds of patched row.
    let mut ops: Vec<MutationOp> = (0..512u32)
        .map(|i| MutationOp::AddEdge {
            u: i.wrapping_mul(127) % n,
            v: (i.wrapping_mul(8191) + 7) % n,
            w: 1 + i % 31,
        })
        .collect();
    ops.extend((0..32).map(|i| {
        let e = edges[i * edges.len() / 32];
        MutationOp::RemoveEdge {
            u: e.src.raw(),
            v: e.dst.raw(),
        }
    }));
    assert!(mutable.apply(&ops).unwrap().applied >= 512);
    let merged = mutable.snapshot().merged().unwrap();

    let core = ServerCore::new(ServerConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    core.add_mutable_graph("dirty16", Arc::clone(&mutable));
    let mut client = Client::local(Arc::clone(&core));
    let solo: Vec<u64> = sources
        .iter()
        .map(|&s| client.query(uncached_sssp("dirty16", s)).unwrap().checksum)
        .collect();
    for (&s, &sum) in sources.iter().zip(&solo) {
        let expect = expected_values(&merged, Algo::Sssp, Some(s));
        assert_eq!(sum, tigr::server::checksum(&expect), "solo dirty sssp/{s}");
    }

    // Queue all K behind a pinned worker so they are drained together.
    let blocker = pin_worker(&core);
    let barrier = Arc::new(Barrier::new(K));
    let handles: Vec<_> = sources
        .iter()
        .map(|&s| {
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::local(core);
                barrier.wait();
                client.query(uncached_sssp("dirty16", s)).unwrap().checksum
            })
        })
        .collect();
    let fused: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    blocker.join().unwrap();
    assert_eq!(fused, solo, "a fused dirty lane diverged from its solo run");

    let stats = client.stats().unwrap();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.max_batch as usize, K, "dirty burst was not fused");
    assert_eq!(
        (stats.batches, stats.batched_queries),
        (K as u64 + 1, 2 * K as u64)
    );
    assert!(stats.batch_occupancy() > 1.0);
    let gauges = stats.mutation;
    assert!(gauges.wal_len > 0 && gauges.delta_edges > 0, "{gauges:?}");

    let compacted = client.compact("dirty16").unwrap();
    assert_eq!(compacted.delta_edges_after, 0);
    for (&s, &sum) in sources.iter().zip(&solo) {
        let clean = client.query(uncached_sssp("dirty16", s)).unwrap();
        assert_eq!(clean.checksum, sum, "compaction changed sssp/{s}");
    }
    let gauges = client.stats().unwrap().mutation;
    let drained = (gauges.wal_len, gauges.delta_edges, gauges.compactions);
    assert_eq!(drained, (0, 0, 1), "{gauges:?}");
    core.shutdown();
}

/// Deadlines on dirty snapshots: the lane driver polls a dirty query's
/// token before every iteration, so a deadline that fires mid-run stops
/// the run there — it is not run to completion and discarded — nothing
/// is cached, and a batchmate's lane is untouched.
///
/// The graph is a rail — path edges `i → i+1` with chords `i → i+2` —
/// on which `sssp` from node 0 is tens of thousands of iterations of
/// about a microsecond each: a long run made of short steps, so "stopped
/// within an iteration of the deadline" shows on the clock.
///
/// The rail is sized so the full run is well over ten deadlines long
/// (25–100 ms against 2 ms). It used to be a quarter of this length and
/// still take 70 ms: a lane's next-frontier bitmap was atomic, and every
/// iteration swapped (`xchg`) all `n / 64` of its words to drain a
/// frontier of two nodes — a high-diameter graph paid O(n/64) locked
/// operations per iteration whatever its frontier held. With the bitmap
/// plain memory that rail ran in 6–10 ms and `doomed_run * 4 < full_run`
/// failed one run in three.
#[test]
fn a_dirty_sssp_deadline_firing_mid_run_stops_the_lane_and_spares_its_batchmates() {
    const N: u32 = 1 << 17;
    let mut builder = CsrBuilder::new(N as usize);
    for i in 0..N - 1 {
        builder.weighted_edge(i, i + 1, 1);
        if i + 2 < N {
            builder.weighted_edge(i, i + 2, 3);
        }
    }
    let prepared = GraphStore::disabled()
        .materialize(builder.build(), ViewPlan::default())
        .unwrap();
    let mutable = Arc::new(MutableGraph::open(GraphStore::disabled(), prepared).unwrap());
    // Dirty both ways without changing any distance from node 0: drop
    // chords (base edges), add back edges.
    let ops: Vec<MutationOp> = (0..64u32)
        .flat_map(|i| {
            let at = i * (N / 64) + 5;
            [
                MutationOp::RemoveEdge { u: at, v: at + 2 },
                MutationOp::AddEdge {
                    u: at + 1,
                    v: at,
                    w: 1,
                },
            ]
        })
        .collect();
    assert_eq!(mutable.apply(&ops).unwrap().applied, ops.len());
    let merged = mutable.snapshot().merged().unwrap();

    let core = ServerCore::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    core.add_mutable_graph("rail", Arc::clone(&mutable));
    let mut client = Client::local(Arc::clone(&core));
    let expect_deadline = |reply: Result<_, ClientError>| match reply {
        Err(ClientError::Protocol(p)) => assert_eq!(p.code, ErrorCode::DeadlineExceeded, "{p:?}"),
        other => panic!("doomed dirty sssp was not cancelled: {other:?}"),
    };

    // Solo. The first query freezes the snapshot's read-side index; the
    // fastest of the next three is the yardstick, so one run slowed by
    // host load cannot stretch the batched deadline below past the
    // fused run it must interrupt.
    client.query(uncached_sssp("rail", 0)).unwrap();
    let (mut full, mut full_run) = (None, Duration::MAX);
    for _ in 0..3 {
        let started = Instant::now();
        full = Some(client.query(uncached_sssp("rail", 0)).unwrap());
        full_run = full_run.min(started.elapsed());
    }
    let full = full.unwrap();
    assert_eq!(
        full.checksum,
        tigr::server::checksum(&(0..N).collect::<Vec<u32>>())
    );
    assert!(full.iterations > 1000, "{} iterations", full.iterations);
    let mut doomed = QueryRequest::new("rail", Algo::Sssp, Some(0));
    doomed.deadline_ms = Some(2);
    let started = Instant::now();
    expect_deadline(client.query(doomed.clone()));
    let doomed_run = started.elapsed();
    println!("full dirty run {full_run:?}, 2 ms deadline answered in {doomed_run:?}");
    assert!(
        doomed_run * 4 < full_run,
        "a 2 ms deadline came back after {doomed_run:?}; the full run takes {full_run:?}"
    );
    let fresh = client
        .query(QueryRequest::new("rail", Algo::Sssp, Some(0)))
        .unwrap();
    assert!(!fresh.cached, "cancelled dirty run leaked a cache entry");
    assert_eq!(fresh.checksum, full.checksum);

    // Batched: while a full run occupies the lone worker, a doomed and a
    // healthy query queue up behind it and are drained as one batch;
    // the doomed one's deadline outlives the wait and fires during the
    // fused run (or, on a slow host, while queued — the reply is the
    // same). Neither is sent before the worker has taken the blocker
    // off the queue: its batch is counted just before it runs.
    let batches_before = client.stats().unwrap().batches;
    let blocker = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || Client::local(core).query(uncached_sssp("rail", 1)).unwrap())
    };
    while client.stats().unwrap().batches == batches_before {
        std::thread::sleep(Duration::from_millis(1));
    }
    let healthy = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            Client::local(core).query(QueryRequest::new("rail", Algo::Sssp, Some(7)))
        })
    };
    doomed.source = Some(3);
    doomed.deadline_ms = Some((full_run * 3 / 2).as_millis() as u64);
    expect_deadline(client.query(doomed));
    let healthy = healthy.join().unwrap().unwrap();
    blocker.join().unwrap();
    let expect = expected_values(&merged, Algo::Sssp, Some(7));
    assert_eq!(healthy.checksum, tigr::server::checksum(&expect));
    let warm = client
        .query(QueryRequest::new("rail", Algo::Sssp, Some(7)))
        .unwrap();
    assert!(warm.cached, "healthy lane lost its cache entry");
    let fresh = client
        .query(QueryRequest::new("rail", Algo::Sssp, Some(3)))
        .unwrap();
    assert!(!fresh.cached, "cancelled lane leaked a cache entry");
    core.shutdown();
}

/// A daemon over a small graph on an ephemeral TCP port.
fn small_tcp_server() -> (Server, String) {
    let prepared = GraphStore::disabled()
        .prepare(&PrepareSpec::generated("rmat:8:8", 7))
        .unwrap();
    let core = ServerCore::new(ServerConfig::default());
    core.add_graph("small", Arc::new(prepared));
    let server = Server::bind_tcp(core, "127.0.0.1:0").unwrap();
    let addr = match server.addr() {
        ServerAddr::Tcp(a) => a.to_string(),
        other => panic!("{other:?}"),
    };
    (server, addr)
}

/// One raw line in, one raw line out (`None` once the server has closed
/// the connection).
fn raw_roundtrip(stream: &mut BufReader<TcpStream>, line: &[u8]) -> Option<String> {
    stream.get_mut().write_all(line).unwrap();
    let mut reply = String::new();
    (stream.read_line(&mut reply).unwrap() > 0).then_some(reply)
}

#[test]
fn small_replies_over_tcp_do_not_wait_out_a_delayed_ack() {
    let (server, addr) = small_tcp_server();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let query = QueryRequest::new("small", Algo::Bfs, Some(0));
    assert!(!client.query(query.clone()).unwrap().cached);
    // Back to back on one connection: a reply written as two segments
    // on a socket with Nagle on stalls ~40 ms behind the client's
    // delayed ACK, every time.
    let mut times: Vec<Duration> = (0..50)
        .map(|_| {
            let start = Instant::now();
            assert!(client.query(query.clone()).unwrap().cached);
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median cached query over TCP took {median:?}"
    );
    server.shutdown();
}

#[test]
fn deeply_nested_lines_get_bad_request_and_the_daemon_keeps_serving() {
    let (server, addr) = small_tcp_server();
    let mut stream = BufReader::new(TcpStream::connect(&addr).unwrap());
    for open in ["[", "{\"a\":"] {
        let mut line = open.repeat(100_000).into_bytes();
        line.push(b'\n');
        let reply = raw_roundtrip(&mut stream, &line).expect("connection stays open");
        assert!(
            reply.contains("\"bad-request\"") && reply.contains("nesting too deep"),
            "{reply}"
        );
    }
    // Same connection, then a fresh one: both still answer.
    let pong = raw_roundtrip(&mut stream, b"{\"op\":\"ping\"}\n").unwrap();
    assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
    Client::connect_tcp(&addr).unwrap().ping().unwrap();
    server.shutdown();
}

#[test]
fn an_oversized_request_line_is_refused_while_reading_and_the_connection_closed() {
    let (server, addr) = small_tcp_server();
    let mut stream = BufReader::new(TcpStream::connect(&addr).unwrap());
    // The longest legal line (all whitespace, so it is skipped, not
    // answered) is read to its newline; the ping behind it is served.
    let mut line = vec![b' '; MAX_REQUEST_LINE];
    line.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
    let pong = raw_roundtrip(&mut stream, &line).unwrap();
    assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
    // One byte more with no newline in sight: refused without waiting
    // for the rest of the line, which never comes.
    let reply = raw_roundtrip(&mut stream, &vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
    assert!(
        reply.contains("\"bad-request\"") && reply.contains("exceeds"),
        "{reply}"
    );
    assert_eq!(raw_roundtrip(&mut stream, b""), None, "connection closed");
    Client::connect_tcp(&addr).unwrap().ping().unwrap();
    server.shutdown();
}

#[test]
fn an_invalid_utf8_request_line_gets_bad_request_and_the_connection_serves_on() {
    let (server, addr) = small_tcp_server();
    let mut stream = BufReader::new(TcpStream::connect(&addr).unwrap());
    // Both lines in one write: the bad line's end is known, so the ping
    // behind it is read and answered on the same connection.
    let reply = raw_roundtrip(&mut stream, b"\xff\xfe\n{\"op\":\"ping\"}\n")
        .expect("the invalid line is answered");
    assert!(
        reply.contains("\"bad-request\"") && reply.contains("not valid UTF-8"),
        "{reply}"
    );
    let mut pong = String::new();
    stream.read_line(&mut pong).unwrap();
    assert_eq!(pong, "{\"ok\":true,\"pong\":true}\n");
    server.shutdown();
}
