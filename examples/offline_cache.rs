//! Offline transformation caching — the §6.4 amortization claim:
//! "physical transformation can be performed offline, its cost can be
//! amortized across different runs. For virtual transformation, it can
//! be easily integrated into the graph loading phase."
//!
//! This example resolves a UDT-transformed graph through the
//! [`GraphStore`] artifact layer once — a cache miss that builds the
//! transform and writes a checksummed `TIGRCSR2` artifact — and shows
//! that later runs are a pure load: a cache hit reporting zero
//! transform/transpose/overlay work. The virtual overlay, by contrast,
//! is cheap enough to build at load time even with no cache at all.
//!
//! ```sh
//! cargo run --release --example offline_cache
//! ```

use std::time::Instant;

use tigr::core::{CacheStatus, GraphStore, PrepareSpec, TransformKind};
use tigr::engine::Pipeline;
use tigr::graph::properties;
use tigr::{DumbWeight, Engine, NodeId, Representation, VirtualGraph};

fn main() {
    // A directory of this process's own, so the first prepare is a miss
    // even if an earlier run died before cleaning up.
    let dir =
        std::env::temp_dir().join(format!("tigr_offline_cache_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store = GraphStore::new(Some(dir.clone()));

    // One spec describes everything this workload derives from the
    // input: a LiveJournal analog plus its offline UDT transform.
    let spec = PrepareSpec::generated("dataset:livejournal:512:weighted", 2018).with_transform(
        TransformKind::Udt,
        Some(64),
        DumbWeight::Zero,
    );

    // --- One-time offline step: generate + transform + write artifact. ---
    let t0 = Instant::now();
    let cold = store.prepare(&spec).expect("prepare");
    let offline_time = t0.elapsed();
    let graph = cold.graph();
    let transformed = cold.transformed().expect("spec requested a transform");
    assert_eq!(cold.report().cache, CacheStatus::Miss);
    println!(
        "input: {} nodes, {} edges (LiveJournal analog)",
        graph.num_nodes(),
        graph.num_edges()
    );
    println!(
        "offline: generate + UDT transform took {offline_time:.2?}; cached {} nodes to {}",
        transformed.graph().num_nodes(),
        cold.report()
            .artifact
            .as_ref()
            .expect("store has a cache dir")
            .display()
    );

    // --- Every subsequent run: load the artifact instead of transforming. ---
    let t1 = Instant::now();
    let warm = store.prepare(&spec).expect("prepare");
    let load_time = t1.elapsed();
    assert_eq!(warm.report().cache, CacheStatus::Hit);
    assert_eq!(warm.report().work_items(), 0, "warm run derives nothing");
    assert_eq!(
        warm.transformed().expect("loaded from artifact").graph(),
        transformed.graph()
    );
    println!(
        "online: artifact load took {load_time:.2?} ({}x faster than transforming)",
        (offline_time.as_nanos() / load_time.as_nanos().max(1))
    );

    // --- The virtual overlay needs no cache at all. ---
    let t2 = Instant::now();
    let overlay = VirtualGraph::coalesced(graph, 10);
    println!(
        "online: virtual overlay built in {:.2?} — no cache needed",
        t2.elapsed()
    );

    // Both paths produce correct SSSP results.
    let engine = Engine::default();
    let src = NodeId::new(0);
    let expect = properties::dijkstra(graph, src);
    let phys = engine
        .run_pipeline(
            &Representation::Original(warm.transformed().expect("transform").graph()),
            &Pipeline::sssp(),
            Some(src),
        )
        .expect("runs");
    assert_eq!(&phys.values[..graph.num_nodes()], &expect[..]);
    let virt = engine
        .run_pipeline(
            &Representation::Virtual {
                graph,
                overlay: &overlay,
            },
            &Pipeline::sssp(),
            Some(src),
        )
        .expect("runs");
    assert_eq!(virt.values, expect);
    println!("\nboth cached-physical and virtual runs match Dijkstra ✓");

    std::fs::remove_dir_all(&dir).ok();
}
