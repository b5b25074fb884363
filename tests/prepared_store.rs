//! Cache-coherence integration tests of the prepared-graph artifact
//! layer: miss → hit with zero derivation work, byte-identical artifact
//! writes, spec mutations changing the key, corruption detection via
//! section checksums, and identical analytic results across every
//! backend whether the views were built or loaded.

use std::fs;
use std::time::{Duration, Instant};

use tigr::core::{CacheStatus, GraphStore, MmapMode, OpenMode, PrepareSpec, TransformKind};
use tigr::engine::{BackendKind, MonotoneProgram};
use tigr::graph::io::VerifyMode;
use tigr::{DumbWeight, Engine, GpuConfig, NodeId};

fn temp_store(name: &str) -> GraphStore {
    let dir = std::env::temp_dir().join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    GraphStore::new(Some(dir))
}

/// `true` where artifact opens can borrow the file mapping in place
/// (64-bit little-endian Unix); elsewhere the store falls back to owned
/// decodes and the mapped-mode assertions are skipped.
fn zero_copy_target() -> bool {
    cfg!(all(
        unix,
        target_pointer_width = "64",
        target_endian = "little"
    ))
}

/// A spec exercising every optional view: weights, coalesced virtual
/// overlay, transpose (and thus the mirrored reverse overlay).
fn base_spec() -> PrepareSpec {
    PrepareSpec::generated("rmat:8:8", 7)
        .with_uniform_weights(1, 9, 3)
        .with_virtual(8, true)
        .with_transpose(true)
}

#[test]
fn miss_then_hit_is_coherent_and_byte_identical() {
    let store = temp_store("tigr_it_prepared_store");
    let spec = base_spec();

    let cold = store.prepare(&spec).unwrap();
    assert_eq!(cold.report().cache, CacheStatus::Miss);
    assert!(cold.report().work_items() > 0);
    let bytes = fs::read(cold.report().artifact.as_ref().unwrap()).unwrap();

    let warm = store.prepare(&spec).unwrap();
    assert_eq!(warm.report().cache, CacheStatus::Hit);
    assert_eq!(
        warm.report().work_items(),
        0,
        "warm run must derive nothing"
    );
    assert_eq!(warm.graph(), cold.graph());
    assert_eq!(warm.transpose(), cold.transpose());
    assert!(warm.overlay().is_some());
    assert!(warm.rev_overlay().is_some());

    // An independent store resolving the same spec writes a
    // byte-identical artifact (deterministic container encoding).
    let other = temp_store("tigr_it_prepared_store_other");
    let again = other.prepare(&spec).unwrap();
    assert_eq!(again.report().cache, CacheStatus::Miss);
    assert_eq!(again.report().key, cold.report().key);
    let bytes2 = fs::read(again.report().artifact.as_ref().unwrap()).unwrap();
    assert_eq!(bytes, bytes2);
}

#[test]
fn built_and_loaded_views_agree_on_every_backend() {
    let store = temp_store("tigr_it_prepared_backends");
    let spec = base_spec();
    let cold = store.prepare(&spec).unwrap();
    let warm = store.prepare(&spec).unwrap();
    assert_eq!(warm.report().cache, CacheStatus::Hit);

    let src = Some(NodeId::new(0));
    let mut reference: Option<Vec<u32>> = None;
    for (label, prepared) in [("cold", &cold), ("warm", &warm)] {
        for backend in [
            BackendKind::WarpSim,
            BackendKind::CpuPool,
            BackendKind::Sequential,
        ] {
            let engine = Engine::parallel(GpuConfig::default()).with_backend(backend);
            let out = engine
                .run_prepared(prepared, MonotoneProgram::SSSP, src)
                .unwrap();
            match &reference {
                None => reference = Some(out.values.clone()),
                Some(expect) => {
                    assert_eq!(&out.values, expect, "{label}/{backend:?} diverged")
                }
            }
        }
    }
}

/// The mapped×decoded equivalence matrix: the same artifact opened as
/// built views, owned decode, eager map, and lazy map must return
/// byte-identical values for every algorithm on every backend.
#[test]
fn mapped_and_decoded_opens_agree_on_every_algorithm_and_backend() {
    let store = temp_store("tigr_it_prepared_mmap_matrix");
    let spec = base_spec();
    let built = store.prepare(&spec).unwrap();
    assert_eq!(built.open_info().mode, OpenMode::Built);

    let decoded = store
        .clone()
        .with_mmap(MmapMode::Off)
        .prepare(&spec)
        .unwrap();
    let eager = store.prepare(&spec).unwrap();
    let lazy = store
        .clone()
        .with_verify(VerifyMode::Lazy)
        .prepare(&spec)
        .unwrap();
    for (label, p) in [("decoded", &decoded), ("eager", &eager), ("lazy", &lazy)] {
        assert_eq!(p.report().cache, CacheStatus::Hit, "{label}");
        assert_eq!(p.report().work_items(), 0, "{label}");
    }
    assert_eq!(decoded.open_info().mode, OpenMode::Decoded);
    assert_eq!(decoded.open_info().mapped_bytes, 0);
    if zero_copy_target() {
        assert_eq!(eager.open_info().mode, OpenMode::Mapped);
        assert_eq!(lazy.open_info().mode, OpenMode::Mapped);
        assert_eq!(eager.open_info().verify, VerifyMode::Eager);
        assert_eq!(lazy.open_info().verify, VerifyMode::Lazy);
        assert!(lazy.open_info().mapped_bytes > 0);
    }

    let programs = [
        ("bfs", MonotoneProgram::BFS),
        ("sssp", MonotoneProgram::SSSP),
        ("sswp", MonotoneProgram::SSWP),
        ("cc", MonotoneProgram::CC),
    ];
    let backends = [
        BackendKind::WarpSim,
        BackendKind::CpuPool,
        BackendKind::Sequential,
    ];
    for (prog_label, prog) in programs {
        let src = (prog_label != "cc").then(|| NodeId::new(0));
        let mut reference: Option<Vec<u32>> = None;
        for (label, prepared) in [
            ("built", &built),
            ("decoded", &decoded),
            ("eager", &eager),
            ("lazy", &lazy),
        ] {
            for backend in backends {
                let engine = Engine::parallel(GpuConfig::default()).with_backend(backend);
                let out = engine.run_prepared(prepared, prog, src).unwrap();
                match &reference {
                    None => reference = Some(out.values.clone()),
                    Some(expect) => assert_eq!(
                        &out.values, expect,
                        "{prog_label}: {label}/{backend:?} diverged"
                    ),
                }
            }
        }
    }
}

/// A lazy mapped open validates only the header and section table, so
/// on a full artifact (rmat scale 16 with weights, coalesced overlay and
/// transpose; 24 MB) the median of 7 opens is at least 5× faster than
/// the median decoded open, which reads, hashes and copies every section.
#[test]
fn lazy_mapped_open_is_five_times_faster_than_a_decoded_open() {
    if !zero_copy_target() {
        return;
    }
    let name = "tigr_it_prepared_coldstart";
    let store = temp_store(name);
    let spec = PrepareSpec::generated("rmat:16:16", 2018)
        .with_uniform_weights(1, 64, 2018)
        .with_virtual(8, true)
        .with_transpose(true);
    store.prepare(&spec).unwrap();
    let median_open = |store: GraphStore| {
        let mut opens: Vec<Duration> = (0..7)
            .map(|_| {
                let t = Instant::now();
                let p = store.prepare(&spec).unwrap();
                let open = t.elapsed();
                assert_eq!(p.report().cache, CacheStatus::Hit);
                open
            })
            .collect();
        opens.sort_unstable();
        opens[3]
    };
    let decoded = median_open(store.clone().with_mmap(MmapMode::Off));
    let lazy = median_open(store.with_verify(VerifyMode::Lazy));
    fs::remove_dir_all(std::env::temp_dir().join(name)).ok();
    eprintln!("median open: decoded {decoded:?}, lazy mapped {lazy:?}");
    assert!(decoded >= 5 * lazy, "decoded {decoded:?} vs lazy {lazy:?}");
}

/// With `--mmap on` a miss builds, writes, and re-opens mapped; payload
/// corruption is still a typed miss that rebuilds back to a mapped
/// artifact.
#[test]
fn mmap_on_corruption_is_a_miss_that_rebuilds_to_mapped() {
    let store = temp_store("tigr_it_prepared_mmap_corrupt").with_mmap(MmapMode::On);
    let spec = base_spec();
    let cold = store.prepare(&spec).unwrap();
    assert_eq!(cold.report().cache, CacheStatus::Miss);
    assert!(cold.report().work_items() > 0, "miss must report its work");
    if zero_copy_target() {
        assert_eq!(cold.open_info().mode, OpenMode::Mapped);
        assert!(cold.is_mapped());
    }

    let artifact = cold.report().artifact.clone().unwrap();
    let mut bytes = fs::read(&artifact).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&artifact, &bytes).unwrap();

    let rebuilt = store.prepare(&spec).unwrap();
    assert_eq!(rebuilt.report().cache, CacheStatus::Miss);
    assert!(rebuilt.report().work_items() > 0);
    if zero_copy_target() {
        assert_eq!(rebuilt.open_info().mode, OpenMode::Mapped);
    }
    assert_eq!(rebuilt.graph(), cold.graph());
    let again = store.prepare(&spec).unwrap();
    assert_eq!(again.report().cache, CacheStatus::Hit);
    assert_eq!(again.graph(), cold.graph());
}

#[test]
fn spec_mutations_change_the_key() {
    let store = temp_store("tigr_it_prepared_mutations");
    let cold = store.prepare(&base_spec()).unwrap();
    let key = cold.report().key.clone();

    let mutations: [(&str, PrepareSpec); 6] = [
        ("virtual k", base_spec().with_virtual(9, true)),
        ("overlay layout", base_spec().with_virtual(8, false)),
        ("transpose", base_spec().with_transpose(false)),
        ("weight range", base_spec().with_uniform_weights(1, 10, 3)),
        ("generator seed", {
            let mut s = base_spec();
            s.source = tigr::core::GraphSource::Generated {
                tag: "rmat:8:8".into(),
                seed: 8,
            };
            s
        }),
        (
            "physical transform",
            base_spec().with_transform(TransformKind::Udt, Some(8), DumbWeight::Zero),
        ),
    ];
    for (label, spec) in mutations {
        let p = store.prepare(&spec).unwrap();
        assert_eq!(p.report().cache, CacheStatus::Miss, "{label}");
        assert_ne!(p.report().key, key, "{label} must change the cache key");
    }

    // And the original spec still hits afterwards.
    let again = store.prepare(&base_spec()).unwrap();
    assert_eq!(again.report().cache, CacheStatus::Hit);
}

#[test]
fn corrupt_artifact_is_detected_and_rebuilt() {
    let store = temp_store("tigr_it_prepared_corrupt");
    let spec = base_spec();
    let cold = store.prepare(&spec).unwrap();
    let artifact = cold.report().artifact.clone().unwrap();

    let mut bytes = fs::read(&artifact).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&artifact, &bytes).unwrap();

    // The checksum mismatch downgrades to a miss and rewrites the
    // artifact; the next prepare hits again with identical content.
    let rebuilt = store.prepare(&spec).unwrap();
    assert_eq!(rebuilt.report().cache, CacheStatus::Miss);
    assert!(rebuilt.report().work_items() > 0);
    assert_eq!(rebuilt.graph(), cold.graph());
    let again = store.prepare(&spec).unwrap();
    assert_eq!(again.report().cache, CacheStatus::Hit);
    assert_eq!(again.graph(), cold.graph());
}

#[test]
fn a_failed_artifact_write_keeps_the_built_views_and_no_temp_file() {
    let dir = std::env::temp_dir().join("tigr_it_failed_artifact_write");
    fs::remove_dir_all(&dir).ok();
    let spec = base_spec();
    let reference = GraphStore::disabled().prepare(&spec).unwrap();
    // A directory where the artifact belongs: renaming the written temp
    // file over it fails.
    let artifact = dir.join(format!("{}.tigr", reference.report().key));
    fs::create_dir_all(artifact.join("occupied")).unwrap();

    let built = GraphStore::new(Some(dir.clone())).prepare(&spec).unwrap();
    assert_eq!(built.report().cache, CacheStatus::Miss);
    assert_eq!(built.graph(), reference.graph());
    assert_eq!(built.transpose(), reference.transpose());
    assert_eq!(built.overlay(), reference.overlay());
    assert_eq!(built.rev_overlay(), reference.rev_overlay());
    assert!(artifact.join("occupied").is_dir());
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains("tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    fs::remove_dir_all(&dir).ok();
}
