//! Integration tests of the device-memory model: footprints, budgets,
//! the Table 4 OOM pattern, and the zero-copy guarantee of mapped
//! artifact opens.

use tigr::baselines::{Baseline, CushaMode};
use tigr::core::{GraphStore, OpenMode, PrepareSpec};
use tigr::engine::MonotoneProgram;
use tigr::graph::datasets;
use tigr::{Engine, NodeId, Representation, VirtualGraph};
use tigr_sim::GpuSimulator;

#[test]
fn oom_pattern_matches_table_4() {
    // At the paper's 8GB-to-graph ratio, the largest graphs break CuSha
    // and Gunrock but not MW or Tigr.
    let denom = 1024;
    let budget = 8 * 1024 * 1024 * 1024 / denom;
    let spec = datasets::by_name("sinaweibo").unwrap();
    let g = spec.generate_weighted(denom, 1);

    let cusha = Baseline::CuSha {
        mode: CushaMode::GShards,
    };
    assert!(
        cusha.check_budget(&g, Some(budget)).is_err(),
        "CuSha must OOM on the sinaweibo analog (footprint {} vs budget {budget})",
        cusha.footprint_bytes(&g)
    );
    assert!(Baseline::Gunrock.check_budget(&g, Some(budget)).is_err());
    assert!(Baseline::MaximumWarp { width: Some(8) }
        .check_budget(&g, Some(budget))
        .is_ok());

    // Tigr-V+ fits: the virtual node array is a bounded overhead.
    let overlay = VirtualGraph::coalesced(&g, 10);
    let engine = Engine::new(tigr::GpuConfig::default()).with_device_memory(budget);
    assert!(engine
        .check_footprint(&Representation::Virtual {
            graph: &g,
            overlay: &overlay
        })
        .is_ok());
}

#[test]
fn small_graphs_fit_everywhere() {
    let spec = datasets::by_name("pokec").unwrap();
    let g = spec.generate(4096, 1);
    let budget = 8 * 1024 * 1024 * 1024 / 1024;
    for b in Baseline::ALL {
        assert!(b.check_budget(&g, Some(budget)).is_ok(), "{}", b.name());
    }
}

#[test]
fn oom_error_is_reported_not_panicked() {
    let spec = datasets::by_name("pokec").unwrap();
    let g = spec.generate(4096, 1);
    let sim = GpuSimulator::new(tigr::GpuConfig::default());
    let err = Baseline::Gunrock
        .run_monotone(
            &sim,
            &g,
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            Some(1024),
        )
        .unwrap_err();
    assert!(err.to_string().contains("out of device memory"));
}

/// A mapped artifact open must not copy payload bytes: every CSR and
/// overlay table borrows the file mapping in place, so the views report
/// zero heap bytes and their slices point into the segment's address
/// range.
#[test]
fn mapped_open_does_not_copy_payload_bytes() {
    if !cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        return; // owned-decode fallback targets copy by design
    }
    let dir = std::env::temp_dir().join("tigr_it_mapped_zero_copy");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = GraphStore::new(Some(dir)); // default policy: map on hit
    let spec = PrepareSpec::generated("rmat:8:8", 11)
        .with_uniform_weights(1, 9, 5)
        .with_virtual(8, true)
        .with_transpose(true);
    store.prepare(&spec).unwrap();
    let warm = store.prepare(&spec).unwrap();

    assert_eq!(warm.open_info().mode, OpenMode::Mapped);
    assert!(warm.open_info().mapped_bytes > 0);
    assert_eq!(warm.graph().heap_bytes(), 0, "CSR payload was copied");
    assert_eq!(warm.transpose().unwrap().heap_bytes(), 0);
    assert_eq!(warm.overlay().unwrap().heap_bytes(), 0);
    assert_eq!(warm.rev_overlay().unwrap().heap_bytes(), 0);

    // The borrowed slices must point inside the mapped file bytes.
    let seg = warm.segment().expect("mapped open keeps its segment");
    let bytes = seg.as_bytes();
    let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
    for (label, ptr) in [
        ("row_ptr", warm.graph().row_ptr().as_ptr() as usize),
        ("col_idx", warm.graph().col_idx().as_ptr() as usize),
        ("weights", warm.graph().weights().unwrap().as_ptr() as usize),
        (
            "transpose col_idx",
            warm.transpose().unwrap().col_idx().as_ptr() as usize,
        ),
    ] {
        assert!(range.contains(&ptr), "{label} escaped the mapping");
    }
}

#[test]
fn virtual_overlay_footprint_shrinks_with_k() {
    let spec = datasets::by_name("livejournal").unwrap();
    let g = spec.generate(2048, 1);
    let f = |k: u32| {
        let ov = VirtualGraph::new(&g, k);
        Representation::Virtual {
            graph: &g,
            overlay: &ov,
        }
        .device_footprint_bytes()
    };
    assert!(f(4) > f(8));
    assert!(f(8) > f(32));
}
