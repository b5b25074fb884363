//! The smoke graph's answers, pinned. The operator workloads (`khop`,
//! `paths`, `lp`, `tc`), single-source BC and PageRank each have one
//! committed FNV-1a64 checksum on the graph `tigr generate er --nodes
//! 2000 --edges 16000 --weighted` writes: the answers are deterministic
//! functions of that graph, so a drift in an operator pipeline shows up
//! here as a mismatch. The same digest must come from the simulator, the
//! host executor and a served query. Beside them: every verb answers
//! alike on the host and the simulator in every direction, and a
//! batching server answers what an unbatched one does.

use std::sync::{Arc, Barrier};

use tigr::core::{GraphStore, PreparedGraph, ViewPlan};
use tigr::engine::{Algo, BackendKind, Direction, Pipeline, PipelineOutput, PrMode, PrOptions};
use tigr::graph::generators::{erdos_renyi, with_uniform_weights};
use tigr::server::{
    checksum, Client, QueryRequest, QueryResult, Server, ServerAddr, ServerConfig, ServerCore,
    StatsSnapshot,
};
use tigr::{Engine, GpuConfig, NodeId};

/// The smoke graph: `tigr generate er --nodes 2000 --edges 16000
/// --weighted` at its default seed, with the transpose when `transpose`.
fn smoke_graph(transpose: bool) -> PreparedGraph {
    let g = with_uniform_weights(&erdos_renyi(2000, 16_000, 2018), 1, 64, 2018 ^ 0x5EED);
    let plan = ViewPlan {
        transpose,
        ..ViewPlan::default()
    };
    GraphStore::disabled().materialize(g, plan).unwrap()
}

/// The six pinned workloads: verb, limit, source and checksum.
const WORKLOADS: [(Algo, Option<u32>, Option<u32>, u64); 6] = [
    (Algo::Khop, Some(2), Some(0), 0xc77b_2343_7990_f3a2),
    (Algo::Paths, Some(40), Some(0), 0xc702_c9e4_0ec9_0731),
    (Algo::Lp, Some(4), None, 0xbae3_6c08_b4cc_2b9d),
    (Algo::Tc, None, None, 0xea33_e45a_1ecf_79d6),
    (Algo::Bc, None, Some(0), 0x0589_ea59_9dc7_bce9),
    (Algo::Pr, None, None, 0xbe68_4825_11b3_548a),
];

/// What `tigr run <algo> [--limit L] [--source S] --direction <d>`
/// computes, on the simulator or (`--cpu`) on the host executor: the
/// same views it prepares, the same plan, the same pipeline.
fn run(
    backend: BackendKind,
    algo: Algo,
    limit: Option<u32>,
    source: Option<u32>,
    direction: Direction,
) -> PipelineOutput {
    let transpose = match algo {
        Algo::Pr => direction == Direction::Pull || backend == BackendKind::CpuPool,
        Algo::Bc | Algo::Lp | Algo::Tc => false,
        _ => direction != Direction::Push,
    };
    let pipeline = match algo {
        Algo::Pr if direction == Direction::Pull => Pipeline::pagerank(PrOptions {
            mode: PrMode::Pull,
            ..PrOptions::default()
        }),
        _ => Pipeline::for_algo(algo, limit).unwrap(),
    };
    let out = Engine::new(GpuConfig::default())
        .with_backend(backend)
        .with_direction(direction)
        .run_prepared_pipeline(&smoke_graph(transpose), &pipeline, source.map(NodeId::new))
        .unwrap();
    assert!(!out.cancelled, "{}", algo.label());
    out
}

/// A server over the smoke graph, registered as `smoke`, on an
/// ephemeral TCP port.
fn smoke_server(config: ServerConfig) -> (Server, String) {
    let core = ServerCore::new(config);
    core.add_graph("smoke", Arc::new(smoke_graph(false)));
    let server = Server::bind_tcp(core, "127.0.0.1:0").unwrap();
    let addr = match server.addr() {
        ServerAddr::Tcp(a) => a.to_string(),
        other => panic!("{other:?}"),
    };
    (server, addr)
}

/// `received / completed / rejected / failed`, in `tigr query stats`
/// order.
fn accounting(stats: &StatsSnapshot) -> [u64; 4] {
    [
        stats.received,
        stats.completed,
        stats.rejected,
        stats.failed,
    ]
}

#[test]
fn the_six_workloads_reproduce_their_committed_checksums_everywhere() {
    let (server, addr) = smoke_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).unwrap();
    for (algo, limit, source, pinned) in WORKLOADS {
        let label = algo.label();
        for backend in [BackendKind::WarpSim, BackendKind::CpuPool] {
            let out = run(backend, algo, limit, source, Direction::Push);
            assert_eq!(checksum(&out.values), pinned, "{label} on {backend:?}");
        }
        let mut query = QueryRequest::new("smoke", algo, source);
        query.limit = limit;
        let served = client.query(query).unwrap();
        assert_eq!(served.checksum, pinned, "served {label}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(accounting(&stats), [6, 6, 0, 0]);
    for (algo, ..) in WORKLOADS {
        let label = algo.label();
        let completed = stats.algo_completed.iter().find(|(name, _)| name == label);
        assert_eq!(completed.map(|&(_, n)| n), Some(1), "{label}");
    }
    server.shutdown();
}

/// `tigr run --cpu` is the host executor on the same prepared path as
/// the simulator: all ten verbs, in every direction, give the
/// simulator's values.
#[test]
fn every_verb_answers_alike_on_the_host_and_the_simulator_in_every_direction() {
    let verbs = [
        (Algo::Bfs, None, Some(0)),
        (Algo::Sssp, None, Some(0)),
        (Algo::Sswp, None, Some(0)),
        (Algo::Cc, None, None),
        (Algo::Pr, None, None),
        (Algo::Bc, None, Some(0)),
        (Algo::Khop, Some(2), Some(0)),
        (Algo::Paths, Some(40), Some(0)),
        (Algo::Lp, Some(4), None),
        (Algo::Tc, None, None),
    ];
    for (algo, limit, source) in verbs {
        for direction in [Direction::Push, Direction::Pull, Direction::Auto] {
            let sim = run(BackendKind::WarpSim, algo, limit, source, direction);
            let host = run(BackendKind::CpuPool, algo, limit, source, direction);
            assert_eq!(host.values, sim.values, "{} {direction:?}", algo.label());
        }
    }
}

/// The uncached cells the batch former must not change: bfs and sssp
/// from two sources, sswp from one, and cc.
const CELLS: [(Algo, Option<u32>); 6] = [
    (Algo::Bfs, Some(0)),
    (Algo::Bfs, Some(9)),
    (Algo::Sssp, Some(0)),
    (Algo::Sssp, Some(9)),
    (Algo::Sswp, Some(4)),
    (Algo::Cc, None),
];

/// Sends the six cells to `addr` at once, one connection each, and
/// returns the replies in cell order.
fn concurrent_cells(addr: &str) -> Vec<QueryResult> {
    let barrier = Arc::new(Barrier::new(CELLS.len()));
    let handles: Vec<_> = CELLS
        .into_iter()
        .map(|(algo, source)| {
            let (addr, barrier) = (addr.to_string(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).unwrap();
                let mut query = QueryRequest::new("smoke", algo, source);
                query.cache = false;
                barrier.wait();
                client.query(query).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Byte-equality across the batch former: an unbatched server, a
/// batching one whose 300 ms linger fuses the in-flight burst, and a
/// batching one that deals each batch's lanes across two threads give
/// every cell the same iteration count and checksum, and each accounts
/// for exactly the six queries.
#[test]
fn batched_answers_equal_unbatched_ones_at_one_and_two_kernel_threads() {
    let configs = [
        ServerConfig {
            workers: 1,
            batch_max: 1,
            ..ServerConfig::default()
        },
        ServerConfig {
            workers: 1,
            batch_max: 8,
            batch_wait_us: 300_000,
            ..ServerConfig::default()
        },
        ServerConfig {
            workers: 2,
            kernel_threads: 2,
            batch_max: 8,
            batch_wait_us: 300_000,
            ..ServerConfig::default()
        },
    ];
    let mut answers = Vec::new();
    for config in configs {
        let (server, addr) = smoke_server(config);
        let replies = concurrent_cells(&addr);
        let stats = Client::connect_tcp(&addr).unwrap().stats().unwrap();
        assert_eq!(accounting(&stats), [6, 6, 0, 0], "{config:?}");
        println!(
            "batch_max {} x {} kernel threads: {} batches, widest {}",
            config.batch_max, config.kernel_threads, stats.batches, stats.max_batch
        );
        server.shutdown();
        let cells: Vec<(u64, u64)> = replies
            .iter()
            .map(|r| {
                assert!(!r.cached);
                (r.iterations, r.checksum)
            })
            .collect();
        answers.push(cells);
    }
    for (config, cells) in configs.iter().zip(&answers).skip(1) {
        assert_eq!(
            cells, &answers[0],
            "{config:?} diverged from the unbatched server"
        );
    }
}
