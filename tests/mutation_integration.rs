//! Integration tests of the online-mutation subsystem against the
//! acceptance bar: WAL replay recovers the longest valid prefix at
//! every byte-boundary truncation of the tail record, pinned snapshots
//! are isolated from later mutations, the compacted artifact answers
//! {bfs, sssp, cc, pr} byte-equal to preparing the final edge list from
//! scratch across every backend, concurrent mutate+query load leaks no
//! overlay generations, the host lane driver over a snapshot's
//! base+delta view is the same run — rows, values, iterations, edges
//! touched, and (within 2×) wall clock — as over the merged CSR, a
//! server dealing dirty lanes across two threads answers what a
//! one-thread server does, the streamed merge is the builder's merge at
//! under half its cost, and a
//! compaction's durable steps (artifact → `MANIFEST` → WAL reset →
//! unlink) lose nothing at any crash point or failed write and leave
//! one compacted artifact behind.

mod common;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use common::{assert_lane_is_the_reference_run, reference_push, simulated_push};

use tigr::core::{
    DeltaOverlay, GraphStore, MutableGraph, MutationError, MutationOp, PrepareSpec, PreparedGraph,
    Wal,
};
use tigr::engine::{
    run_batch_push, Algo, BackendKind, BatchArena, BatchProgram, MonotoneOutput, Pipeline,
};
use tigr::graph::RowView;
use tigr::{Csr, CsrBuilder, Edge, Engine, MonotoneProgram, NodeId, PushOptions};

/// A unique scratch directory per call (no timestamps: process id +
/// counter keep parallel test binaries apart).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tigr-mutation-it-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Decodes a generated `(kind, a, b, w)` tuple into a mutation op.
fn op_from(kind: u8, a: u32, b: u32, w: u32) -> MutationOp {
    match kind % 4 {
        0 => MutationOp::AddEdge { u: a, v: b, w },
        1 => MutationOp::RemoveEdge { u: a, v: b },
        2 => MutationOp::AddNode { nodes: a + 1 },
        _ => MutationOp::SetWeight { u: a, v: b, w },
    }
}

/// Writes `ops` into a fresh WAL and returns the log's bytes plus the
/// byte offset where each record starts (record `i` spans
/// `starts[i]..starts[i + 1]`, the last one runs to the end).
fn written_wal(dir: &std::path::Path, ops: &[MutationOp]) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("log.wal");
    let (mut wal, recovery) = Wal::open(&path).unwrap();
    assert!(recovery.ops.is_empty() && recovery.truncated_bytes == 0);
    wal.append_batch(ops).unwrap();
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    // Record layout: 20-byte header + encoded payload. Derive the file
    // header length from the total instead of hard-coding it.
    let record_lens: Vec<usize> = ops.iter().map(|op| 20 + op.encode().len()).collect();
    let header = bytes.len() - record_lens.iter().sum::<usize>();
    let mut starts = Vec::with_capacity(ops.len());
    let mut off = header;
    for len in record_lens {
        starts.push(off);
        off += len;
    }
    assert_eq!(off, bytes.len());
    (bytes, starts)
}

/// Replays a (possibly truncated) WAL image and asserts it recovers
/// exactly the first `expect` ops, stays appendable, and reports the
/// discarded tail bytes.
fn assert_recovers(dir: &std::path::Path, image: &[u8], ops: &[MutationOp], expect: usize) {
    let path = dir.join("cut.wal");
    std::fs::write(&path, image).unwrap();
    let (mut wal, recovery) = Wal::open(&path).unwrap();
    let recovered: Vec<MutationOp> = recovery.ops.iter().map(|&(_, op)| op).collect();
    assert_eq!(
        recovered,
        ops[..expect],
        "prefix diverged at cut {}",
        image.len()
    );
    let seqs: Vec<u64> = recovery.ops.iter().map(|&(seq, _)| seq).collect();
    assert_eq!(seqs, (1..=expect as u64).collect::<Vec<_>>());
    assert_eq!(wal.len(), expect as u64);
    // The recovered log accepts new records where the tail was cut.
    wal.append_batch(&[MutationOp::AddNode { nodes: 1 }])
        .unwrap();
    let (_, reread) = Wal::open(&path).unwrap();
    assert_eq!(reread.ops.len(), expect + 1);
    assert_eq!(reread.truncated_bytes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash recovery: for a random mutation log, truncating the file at
    /// every byte boundary of the tail record recovers exactly the
    /// records before it — never a panic, never a torn op.
    #[test]
    fn wal_replay_recovers_the_longest_valid_prefix_at_every_tail_cut(
        raw in vec((0..4u8, 0..40u32, 0..40u32, 1..16u32), 1..12),
    ) {
        let ops: Vec<MutationOp> =
            raw.into_iter().map(|(k, a, b, w)| op_from(k, a, b, w)).collect();
        let dir = scratch_dir("proptest");
        let (bytes, starts) = written_wal(&dir, &ops);
        let tail_start = *starts.last().unwrap();
        for cut in tail_start..bytes.len() {
            assert_recovers(&dir, &bytes[..cut], &ops, ops.len() - 1);
        }
        assert_recovers(&dir, &bytes, &ops, ops.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The committed regression corpus (see
/// `mutation_integration.proptest-regressions`): op logs that stress
/// replay edge cases — a single record, duplicate no-op adds, the
/// maximum-width record, and interleaved removes — each truncated at
/// *every* byte of the file, not just the tail record.
#[test]
fn wal_replay_regression_corpus() {
    let corpus: Vec<Vec<MutationOp>> = vec![
        vec![MutationOp::AddNode { nodes: 1 }],
        vec![
            MutationOp::AddEdge { u: 0, v: 1, w: 1 },
            MutationOp::AddEdge { u: 0, v: 1, w: 1 },
            MutationOp::RemoveEdge { u: 0, v: 1 },
        ],
        vec![
            MutationOp::AddEdge {
                u: u32::MAX,
                v: u32::MAX,
                w: u32::MAX,
            },
            MutationOp::SetWeight {
                u: u32::MAX,
                v: 0,
                w: u32::MAX,
            },
        ],
        vec![
            MutationOp::AddNode { nodes: 9 },
            MutationOp::RemoveEdge { u: 3, v: 3 },
            MutationOp::AddEdge { u: 3, v: 3, w: 2 },
            MutationOp::RemoveEdge { u: 3, v: 3 },
        ],
    ];
    for ops in corpus {
        let dir = scratch_dir("corpus");
        let (bytes, starts) = written_wal(&dir, &ops);
        for cut in 0..bytes.len() {
            // Records wholly contained in the cut image survive replay.
            let whole = starts
                .iter()
                .enumerate()
                .take_while(|&(i, _)| starts.get(i + 1).copied().unwrap_or(bytes.len()) <= cut)
                .count();
            assert_recovers(&dir, &bytes[..cut], &ops, whole);
        }
        assert_recovers(&dir, &bytes, &ops, ops.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The host lane driver over `rows` — a CSR or a snapshot's base+delta
/// view — one lane per source, under the server's push options.
fn lane_runs(
    rows: &(impl RowView + Sync),
    prog: MonotoneProgram,
    sources: impl IntoIterator<Item = Option<u32>>,
) -> Vec<MonotoneOutput> {
    lane_runs_under(rows, prog, sources, &PushOptions::default())
}

/// [`lane_runs`] under another push schedule.
fn lane_runs_under(
    rows: &(impl RowView + Sync),
    prog: MonotoneProgram,
    sources: impl IntoIterator<Item = Option<u32>>,
    options: &PushOptions,
) -> Vec<MonotoneOutput> {
    let batch = BatchProgram::from_sources(prog, sources.into_iter().map(|s| s.map(NodeId::new)));
    run_batch_push(rows, &batch, options, 1, &mut BatchArena::new()).lanes
}

/// Opens a weighted RMAT base as a mutable graph over a cache-less
/// store (ephemeral WAL).
fn mutable_fixture(tag: &str, seed: u64) -> Arc<MutableGraph> {
    let spec = PrepareSpec::generated(tag, seed).with_uniform_weights(1, 32, seed + 1);
    let prepared = GraphStore::disabled().prepare(&spec).unwrap();
    Arc::new(MutableGraph::open(GraphStore::disabled(), prepared).unwrap())
}

#[test]
fn pinned_snapshots_are_isolated_from_later_mutations() {
    let mutable = mutable_fixture("rmat:9:8", 11);
    let before = mutable.snapshot();
    let nodes = before.num_nodes() as u32;
    let engine = Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_device_memory(u64::MAX);
    let baseline = engine
        .run_prepared(before.base(), MonotoneProgram::BFS, Some(NodeId::new(0)))
        .unwrap()
        .values;

    mutable
        .apply(&[
            MutationOp::AddNode { nodes: nodes + 1 },
            MutationOp::AddEdge {
                u: 0,
                v: nodes,
                w: 1,
            },
        ])
        .unwrap();
    let after = mutable.snapshot();

    // The pre-mutation snapshot still answers over the old world...
    assert!(before.is_clean());
    assert_eq!(before.num_nodes(), nodes as usize);
    assert!(before.epoch() < after.epoch());
    let replay = engine
        .run_prepared(before.base(), MonotoneProgram::BFS, Some(NodeId::new(0)))
        .unwrap()
        .values;
    assert_eq!(replay, baseline);

    // ...while the post-mutation snapshot sees the new node, and its
    // zero-copy view agrees with the materialized merged graph.
    assert_eq!(after.num_nodes(), nodes as usize + 1);
    let view = after.view().expect("dirty snapshot has a view");
    let viewed = lane_runs(&view, MonotoneProgram::BFS, [Some(0)])
        .remove(0)
        .values;
    let merged = after.merged().unwrap();
    let materialized = engine
        .run_prepared(&merged, MonotoneProgram::BFS, Some(NodeId::new(0)))
        .unwrap()
        .values;
    assert_eq!(viewed, materialized);
    assert_eq!(viewed[..nodes as usize], baseline[..]);
    assert_eq!(viewed[nodes as usize], 1, "new leaf hangs off the source");
}

/// Runs `algo` over `prepared` on `backend` and returns the wire
/// values (PR ranks as bit patterns).
fn pipeline_values(prepared: &PreparedGraph, algo: Algo, backend: BackendKind) -> Vec<u32> {
    let engine = Engine::default()
        .with_backend(backend)
        .with_device_memory(u64::MAX);
    let pipeline = Pipeline::for_algo(algo, None).unwrap();
    let source = algo.needs_source().then(|| NodeId::new(0));
    engine
        .run_prepared_pipeline(prepared, &pipeline, source)
        .unwrap()
        .values
}

/// The differential guarantee behind compaction: replayed WAL →
/// compacted artifact → query answers byte-equal to preparing the
/// final edge list from scratch, across {bfs, sssp, cc, pr} ×
/// {Sequential, CpuPool, WarpSim}.
#[test]
fn compacted_artifact_matches_a_from_scratch_prepare() {
    let mutable = mutable_fixture("rmat:9:8", 5);
    let base = Arc::clone(mutable.snapshot().base());
    let nodes = base.graph().num_nodes() as u32;

    // Pick two base edges whose (src, dst) pair occurs exactly once so
    // remove/set-weight have an unambiguous from-scratch mirror.
    let edges: Vec<Edge> = base.graph().edges().collect();
    let unique: Vec<Edge> = edges
        .iter()
        .filter(|e| {
            edges
                .iter()
                .filter(|o| o.src == e.src && o.dst == e.dst)
                .count()
                == 1
        })
        .take(2)
        .copied()
        .collect();
    let [removed, reweighted] = unique[..] else {
        panic!("fixture has no unique edges")
    };

    let ops = [
        MutationOp::AddNode { nodes: nodes + 3 },
        MutationOp::AddEdge {
            u: nodes,
            v: nodes + 1,
            w: 3,
        },
        MutationOp::AddEdge {
            u: nodes + 1,
            v: nodes + 2,
            w: 4,
        },
        MutationOp::AddEdge {
            u: 0,
            v: nodes,
            w: 2,
        },
        MutationOp::AddEdge {
            u: nodes + 2,
            v: 0,
            w: 5,
        },
        MutationOp::RemoveEdge {
            u: removed.src.index() as u32,
            v: removed.dst.index() as u32,
        },
        MutationOp::SetWeight {
            u: reweighted.src.index() as u32,
            v: reweighted.dst.index() as u32,
            w: 17,
        },
    ];
    let summary = mutable.apply(&ops).unwrap();
    assert_eq!(summary.applied, ops.len());
    let stats = mutable.compact().unwrap();
    assert_eq!(stats.delta_edges_after, 0);
    let compacted = mutable.snapshot();
    assert!(compacted.is_clean());

    // The from-scratch mirror: edit a plain edge list the way the ops
    // say, then prepare it through the same derived-view plan.
    let mut final_edges = edges;
    let pos = final_edges
        .iter()
        .position(|e| e.src == removed.src && e.dst == removed.dst)
        .unwrap();
    final_edges.remove(pos);
    for e in &mut final_edges {
        if e.src == reweighted.src && e.dst == reweighted.dst {
            e.weight = 17;
        }
    }
    final_edges.push(Edge::new(NodeId::new(nodes), NodeId::new(nodes + 1), 3));
    final_edges.push(Edge::new(NodeId::new(nodes + 1), NodeId::new(nodes + 2), 4));
    final_edges.push(Edge::new(NodeId::new(0), NodeId::new(nodes), 2));
    final_edges.push(Edge::new(NodeId::new(nodes + 2), NodeId::new(0), 5));
    let mut builder = CsrBuilder::from_edges(nodes as usize + 3, final_edges);
    builder.force_weighted(true);
    let reference = GraphStore::disabled()
        .materialize(builder.build(), mutable.plan())
        .unwrap();

    for algo in [Algo::Bfs, Algo::Sssp, Algo::Cc, Algo::Pr] {
        for backend in [
            BackendKind::Sequential,
            BackendKind::CpuPool,
            BackendKind::WarpSim,
        ] {
            let got = pipeline_values(compacted.base(), algo, backend);
            let want = pipeline_values(&reference, algo, backend);
            assert_eq!(
                tigr::server::checksum(&got),
                tigr::server::checksum(&want),
                "{algo:?}/{backend:?}: checksum diverged"
            );
            assert_eq!(got, want, "{algo:?}/{backend:?}: values diverged");
        }
    }
}

/// Concurrent mutate + query stress: every query thread pins its own
/// snapshot mid-mutation, no run panics or loses its epoch, and once
/// the snapshots drop the overlay generations are freed (no leak).
#[test]
fn concurrent_mutation_and_queries_leak_no_epochs() {
    let mutable = mutable_fixture("rmat:8:8", 29);
    let nodes = mutable.snapshot().num_nodes() as u32;

    let mutator = {
        let mutable = Arc::clone(&mutable);
        std::thread::spawn(move || {
            for i in 0..40u32 {
                mutable
                    .apply(&[
                        MutationOp::AddNode {
                            nodes: nodes + i + 1,
                        },
                        MutationOp::AddEdge {
                            u: i % nodes,
                            v: nodes + i,
                            w: 1 + (i % 7),
                        },
                    ])
                    .unwrap();
                if i % 16 == 15 {
                    mutable.compact().unwrap();
                }
            }
        })
    };
    let readers: Vec<_> = (0..4u32)
        .map(|r| {
            let mutable = Arc::clone(&mutable);
            std::thread::spawn(move || {
                for q in 0..25u32 {
                    let snapshot = mutable.snapshot();
                    let values = match snapshot.view() {
                        Some(view) => {
                            let source = Some((r * 25 + q) % nodes);
                            lane_runs(&view, MonotoneProgram::BFS, [source])
                                .remove(0)
                                .values
                        }
                        None => {
                            Engine::default()
                                .with_backend(BackendKind::Sequential)
                                .with_device_memory(u64::MAX)
                                .run_prepared(
                                    snapshot.base(),
                                    MonotoneProgram::BFS,
                                    Some(NodeId::new((r * 25 + q) % nodes)),
                                )
                                .unwrap()
                                .values
                        }
                    };
                    assert_eq!(values.len(), snapshot.num_nodes());
                    assert_eq!(values[((r * 25 + q) % nodes) as usize], 0);
                }
            })
        })
        .collect();
    mutator.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }

    // All pins are dropped; nothing but the mutable graph's own cached
    // snapshot may keep a generation alive.
    assert!(
        mutable.live_snapshots() <= 1,
        "epochs leaked: {} snapshots still alive",
        mutable.live_snapshots()
    );
    let final_snapshot = mutable.snapshot();
    assert_eq!(final_snapshot.num_nodes(), nodes as usize + 40);
}

/// A `--kernel-threads 2` server deals a dirty batch's lanes across two
/// threads and answers exactly what a one-thread server does: values
/// and iteration counts, lane by lane. The queries arrive together so
/// each server's one executor fuses them into batches.
#[test]
fn dirty_batches_dealt_across_kernel_threads_answer_like_one_thread() {
    use std::sync::Barrier;
    use tigr::server::{QueryRequest, Request, Response, ServerConfig, ServerCore};

    let mutable = mutable_fixture("rmat:9:8", 17);
    let nodes = mutable.snapshot().num_nodes() as u32;
    let mut ops = vec![MutationOp::AddNode { nodes: nodes + 2 }];
    for i in 0..64u32 {
        ops.push(MutationOp::AddEdge {
            u: i * 7 % nodes,
            v: (i * 13 + 5) % (nodes + 2),
            w: 1 + i % 9,
        });
    }
    mutable.apply(&ops).unwrap();
    assert!(!mutable.snapshot().is_clean());

    let core = |kernel_threads| {
        let core = ServerCore::new(ServerConfig {
            workers: kernel_threads,
            kernel_threads,
            cache_capacity: 0,
            batch_max: 8,
            batch_wait_us: 300_000,
            ..ServerConfig::default()
        });
        core.add_mutable_graph("g", Arc::clone(&mutable));
        core
    };
    let sources: Vec<u32> = (0..6).map(|i| i * 37 % nodes).collect();
    let answers = |core: &ServerCore, algo: Algo| -> Vec<(Vec<u32>, u64)> {
        let gate = Barrier::new(sources.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = sources
                .iter()
                .map(|&src| {
                    let gate = &gate;
                    s.spawn(move || {
                        let mut req = QueryRequest::new("g", algo, Some(src));
                        req.include_values = true;
                        gate.wait();
                        match core.submit(Request::Query(req)) {
                            Response::Query(q) => (q.values.unwrap(), q.iterations),
                            other => panic!("{algo:?} from {src}: {other:?}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    let (one, two) = (core(1), core(2));
    for algo in [Algo::Bfs, Algo::Sssp] {
        let want = answers(&one, algo);
        let got = answers(&two, algo);
        for ((src, want), got) in sources.iter().zip(&want).zip(&got) {
            assert_eq!(got.0, want.0, "{algo:?} from {src}: values");
            assert_eq!(got.1, want.1, "{algo:?} from {src}: iterations");
        }
    }
    for core in [&one, &two] {
        match core.submit(Request::Stats) {
            Response::Stats(stats) => assert!(stats.max_batch > 1, "no batch fused: {stats:?}"),
            other => panic!("{other:?}"),
        }
    }
    one.shutdown();
    two.shutdown();
}

/// Decodes one generated `(kind, a, b, w)` tuple into a mutation aimed
/// at the overlay's current state, so every delta shape occurs often:
/// adds, removes and re-weights of *base* edges, removes and re-weights
/// of edges added earlier in the sequence, node growth followed by
/// edges to and from the new nodes, and blind ops that mostly skip.
fn aimed_op(
    (kind, a, b, w): (u8, u32, u32, u32),
    base_edges: &[(u32, u32)],
    added: &mut Vec<(u32, u32)>,
    nodes: &mut u32,
) -> Vec<MutationOp> {
    let pick = |list: &[(u32, u32)], i: u32| list.get(i as usize % list.len().max(1)).copied();
    let (ru, rv) = (a % *nodes, b % *nodes);
    match kind % 8 {
        0 => {
            added.push((ru, rv));
            vec![MutationOp::AddEdge { u: ru, v: rv, w }]
        }
        1 => pick(base_edges, a).map_or(vec![], |(u, v)| vec![MutationOp::RemoveEdge { u, v }]),
        2 => pick(base_edges, a).map_or(vec![], |(u, v)| vec![MutationOp::SetWeight { u, v, w }]),
        3 => pick(added, a).map_or(vec![], |(u, v)| vec![MutationOp::RemoveEdge { u, v }]),
        4 => pick(added, a).map_or(vec![], |(u, v)| vec![MutationOp::SetWeight { u, v, w }]),
        5 => {
            let fresh = *nodes;
            *nodes += 1;
            added.extend([(fresh, rv), (ru, fresh)]);
            vec![
                MutationOp::AddNode { nodes: *nodes },
                MutationOp::AddEdge { u: fresh, v: rv, w },
                MutationOp::AddEdge { u: ru, v: fresh, w },
            ]
        }
        6 => vec![MutationOp::RemoveEdge { u: ru, v: rv }],
        _ => vec![MutationOp::SetWeight { u: ru, v: rv, w }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The read-side index makes base+delta *the merged graph*: for a
    /// random base and a random op sequence, the streamed `merged_csr`
    /// is the CSR `CsrBuilder` builds from the merged edge list, byte for
    /// byte — also over a `positional` base, whose parallel edges got
    /// their weights by position and so sit out of `(dst, weight)` order
    /// — the frozen view's rows are its rows edge for edge, the lane
    /// driver over the view takes the very run it takes over the merged
    /// CSR (values, iteration count, edges touched, convergence) for
    /// every monotone program, and eight fused lanes on the view are
    /// eight solo runs on the view, to the byte. (`GraphSnapshot::view`
    /// is this `freeze` behind a `OnceLock`.) The driver is compared with
    /// itself there, so each lane is also held against two loops that
    /// share nothing with it: the plain reference over the view
    /// (`iterations`, `edges_touched`) and the simulated push engine over
    /// the merged CSR (`values`, `converged`) — every edge function, both
    /// combines, weighted and unit rows, and the BSP full-sweep rounds of
    /// `lp` beside the served schedule, over patched rows.
    #[test]
    fn lane_driver_over_the_frozen_view_is_the_run_over_the_merged_csr(
        n in 2..24u32,
        weighted in any::<bool>(),
        positional in any::<bool>(),
        raw_base in vec((0..24u32, 0..24u32, 1..16u32), 0..96),
        raw_ops in vec((0..8u8, 0..64u32, 0..64u32, 1..16u32), 1..64),
        seed in 0..1024u32,
        rounds in 1..6usize,
    ) {
        let mut builder = CsrBuilder::new(n as usize);
        for &(u, v, w) in &raw_base {
            if weighted {
                builder.weighted_edge(u % n, v % n, w);
            } else {
                builder.edge(u % n, v % n);
            }
        }
        builder.force_weighted(weighted);
        let mut base = builder.build();
        if weighted && positional {
            base = base.with_weights_from(|e| 1 + (e as u32 * 7 + seed) % 15);
        }
        let base_edges: Vec<(u32, u32)> =
            base.edges().map(|e| (e.src.raw(), e.dst.raw())).collect();

        let mut overlay = DeltaOverlay::new(&base);
        let (mut added, mut nodes) = (Vec::new(), n);
        for raw in raw_ops {
            let raw = if weighted { raw } else { (raw.0, raw.1, raw.2, 1) };
            for op in aimed_op(raw, &base_edges, &mut added, &mut nodes) {
                // Unweighted graphs reject set-weight; everything else
                // is well-formed by construction.
                let outcome = overlay.apply(&base, op);
                prop_assert!(outcome.is_ok() || !weighted, "{op:?}: {outcome:?}");
            }
        }
        let frozen = overlay.freeze(&base);
        let view = frozen.view(&base);
        let merged = overlay.merged_csr(&base);
        prop_assert_eq!(&view.merged_csr(), &merged);

        let mut from_edges = CsrBuilder::from_edges(nodes as usize, overlay.merged_edges(&base));
        from_edges.force_weighted(weighted);
        prop_assert_eq!(&merged, &from_edges.build());

        // An unpatched row of a positional base is the base's own slice,
        // in the base's order; every other row is the merged CSR's.
        prop_assert_eq!(view.num_nodes(), merged.num_nodes());
        for u in merged.nodes() {
            let pairs = |(targets, weights): (&[NodeId], Option<&[u32]>)| {
                let mut pairs: Vec<(NodeId, u32)> =
                    (0..targets.len()).map(|i| (targets[i], weights.map_or(1, |w| w[i]))).collect();
                pairs.sort_unstable();
                pairs
            };
            if weighted && positional {
                prop_assert_eq!(pairs(view.row(u)), pairs(merged.row(u)), "row {}", u.raw());
            } else {
                prop_assert_eq!(view.row(u), merged.row(u), "row {}", u.raw());
            }
        }

        let total = view.num_nodes() as u32;
        let sources: Vec<u32> = (0..8).map(|i| (seed + i * 5) % total).collect();
        let programs = [
            MonotoneProgram::BFS,
            MonotoneProgram::SSSP,
            MonotoneProgram::SSWP,
            MonotoneProgram::CC,
            MonotoneProgram::KHOP,
            common::paths_program(20),
        ];
        let schedules = [PushOptions::default(), common::bsp_rounds(rounds)];
        for (prog, options) in programs.iter().flat_map(|&p| schedules.iter().map(move |o| (p, o))) {
            let lane_sources: Vec<Option<u32>> =
                sources.iter().map(|&s| prog.needs_source().then_some(s)).collect();
            let fused = lane_runs_under(&view, prog, lane_sources.iter().copied(), options);
            for (lane, &source) in fused.iter().zip(&lane_sources) {
                let label = format!("{}/{:?}/{source:?}", prog.name, options.sync);
                let solo = lane_runs_under(&view, prog, [source], options).remove(0);
                let on_merged = lane_runs_under(&merged, prog, [source], options).remove(0);
                let source = source.map(NodeId::new);
                assert_lane_is_the_reference_run(
                    lane,
                    &reference_push(&view, prog, source, options),
                    &simulated_push(&merged, prog, source, options),
                    &label,
                );
                for (other, what) in [(&solo, "solo on the view"), (&on_merged, "merged CSR")] {
                    prop_assert_eq!(&lane.values, &other.values, "{}: values vs {}", label, what);
                    prop_assert_eq!(
                        lane.directions.len(),
                        other.directions.len(),
                        "{}: iterations vs {}", label, what
                    );
                    prop_assert_eq!(
                        lane.edges_touched,
                        other.edges_touched,
                        "{}: edges touched vs {}", label, what
                    );
                    prop_assert_eq!(lane.converged, other.converged, "{}: converged vs {}", label, what);
                    prop_assert_eq!(lane.cancelled, other.cancelled, "{}: cancelled vs {}", label, what);
                }
            }
        }
    }
}

/// A ≈ 2 k-edge delta over `g`: 2 048 adds between pseudo-random
/// endpoints, then 64 removes of base edges spread evenly over the edge
/// array.
fn delta_2k_ops(g: &Csr) -> Vec<MutationOp> {
    let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % bound) as u32
    };
    let mut ops: Vec<MutationOp> = (0..2048)
        .map(|_| MutationOp::AddEdge {
            u: next(n),
            v: next(n),
            w: 1 + next(32),
        })
        .collect();
    let sources_of: Vec<Edge> = g.edges().collect();
    ops.extend((0..64u64).map(|i| {
        let e = sources_of[(i * m / 64) as usize];
        MutationOp::RemoveEdge {
            u: e.src.raw(),
            v: e.dst.raw(),
        }
    }));
    ops
}

/// The case the frozen benchmark workload steers around (removing edges
/// already folded into the base): once a snapshot's delta hides base
/// edges, a dirty `sssp` must still cost about what the same query costs
/// on the materialized merged CSR — the patched rows are frozen slices,
/// not a hash probe per base edge. `scripts/verify.sh` runs this under
/// `--release` too, so the ratio also holds on optimized code.
#[test]
fn dirty_sssp_with_removed_base_edges_costs_what_the_merged_csr_costs() {
    let mutable = mutable_fixture("rmat:15:16", 3);
    let base = Arc::clone(mutable.snapshot().base());
    let g = base.graph();
    let m = g.num_edges() as u64;
    let summary = mutable.apply(&delta_2k_ops(g)).unwrap();
    assert!(summary.applied >= 2048, "{summary:?}");

    let snapshot = mutable.snapshot();
    let view = snapshot.view().expect("dirty snapshot has a view");
    let merged = snapshot.merged().unwrap();
    // The highest-degree node reaches the giant component.
    let source = g.nodes().max_by_key(|&u| g.out_degree(u)).map(NodeId::raw);

    // The other tests of this binary run beside the timed loop on the
    // same cores, and whatever they add to a sample they only add; with a
    // run down to ≈ 5 ms, the median of five let one burst through in
    // twenty (a ratio of 1.89 where the undisturbed one is 1.00–1.05),
    // hence the fastest of fifteen pairs.
    let (dirty, clean) = common::fastest_pairs(
        15,
        || lane_runs(&view, MonotoneProgram::SSSP, [source]).remove(0),
        || lane_runs(merged.graph(), MonotoneProgram::SSSP, [source]).remove(0),
        |on_view, on_merged| {
            assert_eq!(on_view.values, on_merged.values);
            assert_eq!(on_view.directions.len(), on_merged.directions.len());
            assert_eq!(on_view.edges_touched, on_merged.edges_touched);
            assert!(on_view.edges_touched > m / 2, "source reaches too little");
        },
    );
    let ratio = dirty / clean;
    println!("dirty sssp {dirty:.2} ms / merged CSR {clean:.2} ms = {ratio:.2}");
    assert!(
        ratio <= 2.0,
        "dirty sssp took {ratio:.2}x the merged-CSR run (bound 2.0)"
    );
}

/// A compaction's merge is a walk over rows that are already sorted, not
/// an edge list sorted from scratch: on the same graph and delta the
/// streamed `merged_csr` (freeze included) must cost under half of
/// `CsrBuilder` over the merged edge list, and produce its bytes.
/// `scripts/verify.sh` runs this under `--release` too.
#[test]
fn streamed_merge_costs_under_half_the_builder_merge() {
    let spec = PrepareSpec::generated("rmat:15:16", 3).with_uniform_weights(1, 32, 4);
    let g = GraphStore::disabled().prepare(&spec).unwrap().into_graph();
    let mut overlay = DeltaOverlay::new(&g);
    for op in delta_2k_ops(&g) {
        overlay.apply(&g, op).unwrap();
    }
    assert!(overlay.delta_edges() >= 2048);

    let (streamed, built) = common::fastest_pairs(
        7,
        || overlay.merged_csr(&g),
        || {
            let mut builder = CsrBuilder::from_edges(overlay.num_nodes(), overlay.merged_edges(&g));
            builder.force_weighted(true);
            builder.build()
        },
        |by_rows, by_builder| assert_eq!(by_rows, by_builder),
    );
    let ratio = streamed / built;
    println!("streamed merge {streamed:.2} ms / builder merge {built:.2} ms = {ratio:.2}");
    assert!(
        ratio <= 0.5,
        "streamed merge took {ratio:.2}x the builder merge (bound 0.5)"
    );
}

/// The small weighted graph the artifact life-cycle tests mutate, with
/// every derived view a compaction has to rebuild.
fn lifecycle_spec() -> PrepareSpec {
    PrepareSpec::generated("ba:64:3", 11)
        .with_uniform_weights(1, 16, 5)
        .with_virtual(4, true)
        .with_transpose(true)
}

/// A restart: prepare `spec` over `dir` (a cache hit on the original
/// artifact once it exists) and open it for mutation.
fn restart(dir: &Path, spec: &PrepareSpec) -> MutableGraph {
    let store = GraphStore::new(Some(dir.to_path_buf()));
    let prepared = store.prepare(spec).unwrap();
    MutableGraph::open(store, prepared).unwrap()
}

/// The graph `mutable` serves right now, as one CSR.
fn served(mutable: &MutableGraph) -> Csr {
    mutable.snapshot().merged().unwrap().graph().clone()
}

/// Names of the `*.tigr` files in a cache dir, sorted.
fn artifacts(dir: &Path) -> Vec<String> {
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".tigr"))
        .collect();
    found.sort();
    found
}

/// Copies a cache dir, WAL dirs included.
fn copy_cache(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let target = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_cache(&path, &target);
        } else {
            std::fs::copy(&path, &target).unwrap();
        }
    }
}

/// A batch that changes `g` whatever `g` is: one of its edges removed,
/// one re-weighted, a node grown with an edge each way.
fn round_ops(g: &Csr, round: u32) -> Vec<MutationOp> {
    let edges: Vec<Edge> = g.edges().collect();
    let gone = edges[(round as usize * 7) % edges.len()];
    let heavier = edges[(round as usize * 11 + 3) % edges.len()];
    let fresh = g.num_nodes() as u32;
    vec![
        MutationOp::RemoveEdge {
            u: gone.src.raw(),
            v: gone.dst.raw(),
        },
        MutationOp::SetWeight {
            u: heavier.src.raw(),
            v: heavier.dst.raw(),
            w: heavier.weight + 1 + round,
        },
        MutationOp::AddNode { nodes: fresh + 1 },
        MutationOp::AddEdge {
            u: fresh,
            v: round % fresh,
            w: 3,
        },
        MutationOp::AddEdge {
            u: round % fresh,
            v: fresh,
            w: 4,
        },
    ]
}

/// However many compactions ran, the cache dir holds the original
/// artifact and exactly one compacted one — the superseded file is
/// unlinked, nothing else is left behind — and a restart after each
/// serves the graph the compaction sealed.
#[test]
fn compactions_leave_the_original_and_one_compacted_artifact() {
    let dir = scratch_dir("lifecycle");
    let spec = lifecycle_spec();
    let mut mutable = restart(&dir, &spec);
    let original = artifacts(&dir);
    assert_eq!(original.len(), 1);

    for round in 0..4 {
        let before = served(&mutable);
        let ops = if round < 3 {
            round_ops(&before, round)
        } else {
            // A delta that nets out to nothing: the compaction re-seals
            // the very file the base came from and must not unlink it.
            let e = before.edges().next().unwrap();
            let (u, v) = (e.src.raw(), e.dst.raw());
            vec![
                MutationOp::RemoveEdge { u, v },
                MutationOp::AddEdge { u, v, w: e.weight },
            ]
        };
        assert!(mutable.apply(&ops).unwrap().applied >= 2);
        let expected = served(&mutable);
        assert_eq!(expected == before, round == 3);

        let stats = mutable.compact().unwrap();
        assert!(stats.delta_edges_before > 0);
        assert_eq!(stats.delta_edges_after, 0);
        let on_disk = artifacts(&dir);
        assert_eq!(on_disk.len(), 2, "round {round}: {on_disk:?}");
        assert!(on_disk.contains(&original[0]));
        // Original artifact, its WAL dir, the compacted artifact: no
        // temp file, no WAL dir for a compaction product.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);

        drop(mutable);
        mutable = restart(&dir, &spec);
        assert!(mutable.snapshot().is_clean());
        assert_eq!(mutable.wal_len(), 0);
        assert_eq!(served(&mutable), expected, "round {round}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The durable order is artifact → `MANIFEST` → WAL reset → unlink. The
/// on-disk state after each step — built by layering the files a
/// finished compaction left over a copy of the directory taken before
/// it — recovers the identical graph.
#[test]
fn every_crash_point_of_a_compaction_recovers_the_same_graph() {
    let live = scratch_dir("crash-live");
    let spec = lifecycle_spec();
    let mutable = restart(&live, &spec);
    // One compaction first, so the one under test has a MANIFEST to
    // repoint and a compacted artifact to supersede.
    mutable.apply(&round_ops(&served(&mutable), 0)).unwrap();
    mutable.compact().unwrap();
    mutable.apply(&round_ops(&served(&mutable), 1)).unwrap();
    let expected = served(&mutable);

    let crashed = scratch_dir("crash-state");
    copy_cache(&live, &crashed);
    mutable.compact().unwrap();
    drop(mutable);

    let (before, after) = (artifacts(&crashed), artifacts(&live));
    let only_in = |a: &[String], b: &[String]| {
        let mut names = a.iter().filter(|name| !b.contains(name));
        let name = names.next().expect("one artifact differs").clone();
        assert!(names.next().is_none(), "{before:?} -> {after:?}");
        name
    };
    let (fresh, superseded) = (only_in(&after, &before), only_in(&before, &after));
    let wal_dir = std::fs::read_dir(&live)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .unwrap();
    let wal_dir = Path::new(wal_dir.file_name().unwrap());

    let recovers = |step: &str| {
        let recovered = restart(&crashed, &spec);
        assert_eq!(served(&recovered), expected, "crash after: {step}");
    };
    let step = |file: &Path| {
        std::fs::copy(live.join(file), crashed.join(file)).unwrap();
    };
    recovers("nothing");
    step(Path::new(&fresh));
    recovers("fresh artifact written");
    step(&wal_dir.join("MANIFEST"));
    recovers("MANIFEST repointed");
    step(&wal_dir.join("delta.log"));
    recovers("WAL reset");
    std::fs::remove_file(crashed.join(&superseded)).unwrap();
    recovers("superseded artifact unlinked");
    // ... which is the state the live run ended in.
    assert_eq!(artifacts(&crashed), after);
    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

/// A failed artifact write fails the compaction and costs nothing that
/// was acknowledged: the WAL is kept, the serving state is unchanged, a
/// restart replays every op, and the next compaction succeeds.
#[test]
fn a_failed_artifact_write_keeps_every_acknowledged_mutation() {
    let spec = lifecycle_spec();
    let adds =
        [(1, 60, 2), (2, 61, 3), (3, 62, 4)].map(|(u, v, w)| MutationOp::AddEdge { u, v, w });

    // Keys are deterministic: a twin directory run tells which file the
    // compaction is about to write.
    let twin_dir = scratch_dir("failed-write-twin");
    let twin = restart(&twin_dir, &spec);
    let original = artifacts(&twin_dir);
    assert_eq!(twin.apply(&adds).unwrap().applied, 3);
    twin.compact().unwrap();
    let fresh = artifacts(&twin_dir)
        .into_iter()
        .find(|a| !original.contains(a))
        .unwrap();

    let dir = scratch_dir("failed-write");
    let mutable = restart(&dir, &spec);
    let base_edges = mutable.snapshot().num_edges();
    assert_eq!(mutable.apply(&adds).unwrap().applied, 3);
    // A non-empty directory where the artifact goes: the rename fails.
    let blocker = dir.join(&fresh);
    std::fs::create_dir_all(blocker.join("occupied")).unwrap();

    let err = mutable.compact().unwrap_err();
    assert!(matches!(err, MutationError::Graph(_)), "{err}");
    assert_eq!(mutable.wal_len(), 3);
    assert_eq!(mutable.delta_edges(), 3);
    assert_eq!(mutable.compactions(), 0);
    assert_eq!(mutable.snapshot().num_edges(), base_edges + 3);
    drop(mutable);

    let reopened = restart(&dir, &spec);
    assert_eq!(reopened.wal_len(), 3);
    assert_eq!(reopened.snapshot().num_edges(), base_edges + 3);
    assert_eq!(served(&reopened), served(&twin));

    std::fs::remove_dir_all(&blocker).unwrap();
    reopened.compact().unwrap();
    assert_eq!(artifacts(&dir), artifacts(&twin_dir));
    drop(reopened);
    assert_eq!(served(&restart(&dir, &spec)), served(&twin));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}

/// Unlinking the superseded artifact takes nothing from a reader that
/// pinned it: a snapshot taken before the compaction — here with its
/// base *mapped from the file that gets unlinked* — answers the same
/// afterwards.
#[test]
fn a_pinned_snapshot_outlives_the_unlink_of_the_artifact_under_it() {
    let dir = scratch_dir("pinned");
    let spec = lifecycle_spec();
    let mutable = restart(&dir, &spec);
    mutable.apply(&round_ops(&served(&mutable), 0)).unwrap();
    mutable.compact().unwrap();
    drop(mutable);

    // After a restart the base is mapped from the compacted artifact.
    let mutable = restart(&dir, &spec);
    let clean = mutable.snapshot();
    let compacted = clean.base().report().artifact.clone().unwrap();
    assert_eq!(artifacts(&dir).len(), 2);
    if cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        assert!(clean.base().is_mapped());
    }
    let clean_edges: Vec<Edge> = clean.base().graph().edges().collect();
    mutable.apply(&round_ops(clean.base().graph(), 1)).unwrap();
    let dirty = mutable.snapshot();
    let source = Some(clean_edges[0].src.raw());
    let dirty_answer = lane_runs(&dirty.view().unwrap(), MonotoneProgram::SSSP, [source]).remove(0);

    mutable.compact().unwrap();
    assert!(!compacted.exists(), "superseded artifact still on disk");
    assert_eq!(artifacts(&dir).len(), 2);

    // Both pinned snapshots still read the unlinked file's pages.
    assert_eq!(
        clean.base().graph().edges().collect::<Vec<_>>(),
        clean_edges
    );
    let after = lane_runs(&dirty.view().unwrap(), MonotoneProgram::SSSP, [source]).remove(0);
    assert_eq!(after.values, dirty_answer.values);
    assert_eq!(after.edges_touched, dirty_answer.edges_touched);
    // ... and the dirty one is the graph the compaction sealed.
    assert_eq!(
        dirty.merged().unwrap().graph(),
        mutable.snapshot().base().graph()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two mutable graphs whose compactions produce byte-identical CSRs
/// under one plan (one edge list prepared from two source files) never
/// share an artifact, so neither can delete the other's.
#[test]
fn lineages_with_identical_compactions_keep_their_own_artifacts() {
    let dir = scratch_dir("lineages");
    let (file_a, file_b) = (dir.join("a.el"), dir.join("b.el"));
    std::fs::write(&file_a, "0 1\n0 2\n1 2\n2 3\n3 0\n").unwrap();
    std::fs::write(&file_b, "# the same edges\n3 0\n2 3\n1 2\n0 2\n0 1\n").unwrap();
    let spec = |file: &Path| {
        PrepareSpec::from_file(file)
            .with_virtual(2, true)
            .with_transpose(true)
    };
    let a = restart(&dir, &spec(&file_a));
    let b = restart(&dir, &spec(&file_b));
    assert_eq!(served(&a), served(&b));
    assert_eq!(artifacts(&dir).len(), 2);

    let ops = [
        MutationOp::AddEdge { u: 1, v: 3, w: 1 },
        MutationOp::RemoveEdge { u: 0, v: 2 },
    ];
    for lineage in [&a, &b] {
        lineage.apply(&ops).unwrap();
        lineage.compact().unwrap();
    }
    let artifact_of = |m: &MutableGraph| m.snapshot().base().report().artifact.clone().unwrap();
    let (compacted_a, compacted_b) = (artifact_of(&a), artifact_of(&b));
    assert_eq!(a.snapshot().base().graph(), b.snapshot().base().graph());
    assert_ne!(compacted_a, compacted_b);
    assert_eq!(artifacts(&dir).len(), 4);

    // A's next compaction unlinks A's own compacted artifact only.
    a.apply(&[MutationOp::AddEdge { u: 3, v: 1, w: 1 }])
        .unwrap();
    a.compact().unwrap();
    assert!(!compacted_a.exists());
    assert!(compacted_b.exists());
    assert_eq!(artifacts(&dir).len(), 4);

    let expected_b = served(&b);
    drop(b);
    let b = restart(&dir, &spec(&file_b));
    assert!(b.snapshot().is_clean());
    assert_eq!(artifact_of(&b), compacted_b);
    assert_eq!(served(&b), expected_b);
    std::fs::remove_dir_all(&dir).ok();
}
