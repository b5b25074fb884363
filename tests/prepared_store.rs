//! Cache-coherence integration tests of the prepared-graph artifact
//! layer: miss → hit with zero derivation work, byte-identical artifact
//! writes, spec mutations changing the key, corruption detection via
//! section checksums, and identical analytic results across every
//! backend whether the views were built or loaded.

mod common;

use std::fs;
use std::time::{Duration, Instant};

use common::reference_decode;
use tigr::core::{CacheStatus, GraphStore, OpenMode, PrepareSpec, TransformKind};
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
            let engine = Engine::new(GpuConfig::default()).with_backend(backend);
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

/// The built×mapped equivalence matrix: the same artifact as the views
/// a miss built, an eager map, and a lazy map must return byte-identical
/// values for every algorithm on every backend.
#[test]
fn built_and_mapped_opens_agree_on_every_algorithm_and_backend() {
    let store = temp_store("tigr_it_prepared_mmap_matrix");
    let spec = base_spec();
    let built = store.prepare(&spec).unwrap();
    assert_eq!(built.open_info().mode, OpenMode::Built);

    let eager = store.prepare(&spec).unwrap();
    let lazy = store
        .clone()
        .with_verify(VerifyMode::Lazy)
        .prepare(&spec)
        .unwrap();
    for (label, p) in [("eager", &eager), ("lazy", &lazy)] {
        assert_eq!(p.report().cache, CacheStatus::Hit, "{label}");
        assert_eq!(p.report().work_items(), 0, "{label}");
    }
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
        for (label, prepared) in [("built", &built), ("eager", &eager), ("lazy", &lazy)] {
            for backend in backends {
                let engine = Engine::new(GpuConfig::default()).with_backend(backend);
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
/// the median of 7 reference decodes (`common::reference_decode`), which
/// read, hash and copy every section.
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
    let cold = store.prepare(&spec).unwrap();
    let artifact = cold.report().artifact.clone().unwrap();
    drop(cold);
    let median = |open: &dyn Fn()| {
        let mut opens: Vec<Duration> = (0..7)
            .map(|_| {
                let t = Instant::now();
                open();
                t.elapsed()
            })
            .collect();
        opens.sort_unstable();
        opens[3]
    };
    let decoded = median(&|| drop(reference_decode(&artifact)));
    let lazy_store = store.with_verify(VerifyMode::Lazy);
    let lazy = median(&|| {
        let p = lazy_store.prepare(&spec).unwrap();
        assert_eq!(p.report().cache, CacheStatus::Hit);
    });
    // The reference decodes the views the lazy open maps.
    let (graph, transpose, overlay, rev_overlay) = reference_decode(&artifact);
    let mapped = lazy_store.prepare(&spec).unwrap();
    assert_eq!(mapped.graph(), &graph);
    assert_eq!(mapped.transpose(), transpose.as_ref());
    assert_eq!(mapped.overlay(), overlay.as_ref());
    assert_eq!(mapped.rev_overlay(), rev_overlay.as_ref());
    fs::remove_dir_all(std::env::temp_dir().join(name)).ok();
    eprintln!("median open: reference decode {decoded:?}, lazy mapped {lazy:?}");
    assert!(decoded >= 5 * lazy, "decoded {decoded:?} vs lazy {lazy:?}");
}

/// A miss keeps the views it built; payload corruption is a typed miss
/// that rebuilds, and the rebuilt artifact is mapped by the next hit.
#[test]
fn corruption_is_a_miss_that_rebuilds_to_a_mapped_hit() {
    let store = temp_store("tigr_it_prepared_mmap_corrupt");
    let spec = base_spec();
    let cold = store.prepare(&spec).unwrap();
    assert_eq!(cold.report().cache, CacheStatus::Miss);
    assert!(cold.report().work_items() > 0, "miss must report its work");
    assert_eq!(cold.open_info().mode, OpenMode::Built);
    assert!(!cold.is_mapped());

    let artifact = cold.report().artifact.clone().unwrap();
    let mut bytes = fs::read(&artifact).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&artifact, &bytes).unwrap();

    let rebuilt = store.prepare(&spec).unwrap();
    assert_eq!(rebuilt.report().cache, CacheStatus::Miss);
    assert!(rebuilt.report().work_items() > 0);
    assert_eq!(rebuilt.open_info().mode, OpenMode::Built);
    assert_eq!(rebuilt.graph(), cold.graph());
    let again = store.prepare(&spec).unwrap();
    assert_eq!(again.report().cache, CacheStatus::Hit);
    if zero_copy_target() {
        assert_eq!(again.open_info().mode, OpenMode::Mapped);
        assert!(again.is_mapped());
    }
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

/// Offset in a `TIGRCSR2` file of the CSR section's weight for edge
/// `edge`, read off the section table (16-byte header, 32-byte entries:
/// id, reserved, offset, length, checksum) and the CSR payload layout
/// (24-byte header, `n + 1` row offsets as `u64`, `m` targets and then
/// `m` weights as `u32`).
fn csr_weight_offset(file: &[u8], nodes: usize, edges: usize, edge: usize) -> usize {
    let word = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| 16 + 32 * i)
        .find(|&at| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) == 1)
        .expect("the artifact has a CSR section");
    let payload = word(entry + 8);
    assert_eq!(word(entry + 16), 24 + 8 * (nodes + 1) + 8 * edges);
    payload + 24 + 8 * (nodes + 1) + 4 * edges + 4 * edge
}

/// One flipped byte of an edge weight is a valid graph to every
/// structural check, so only the section checksum can see it. An eager
/// open (the default) hashes every section: the prepare is a miss that
/// rebuilds views, and an artifact, byte-equal to the cold build's. A
/// lazy open trusts the section table, as `VerifyMode::Lazy` documents:
/// the prepare is a hit that serves the flipped weight.
#[test]
fn a_flipped_weight_byte_is_caught_by_the_eager_checksum_alone() {
    let store = temp_store("tigr_it_prepared_weight_flip");
    let spec = base_spec();
    let cold = store.prepare(&spec).unwrap();
    let artifact = cold.report().artifact.clone().unwrap();
    let original = fs::read(&artifact).unwrap();
    let graph = cold.graph();
    let weights = graph.weights().expect("the spec is weighted");
    let edge = graph.num_edges() / 2;
    let at = csr_weight_offset(&original, graph.num_nodes(), graph.num_edges(), edge);
    assert_eq!(original[at..at + 4], weights[edge].to_le_bytes());
    let mut bytes = original.clone();
    bytes[at] ^= 0x10;
    fs::write(&artifact, &bytes).unwrap();

    let lazy = store
        .clone()
        .with_verify(VerifyMode::Lazy)
        .prepare(&spec)
        .unwrap();
    assert_eq!(lazy.report().cache, CacheStatus::Hit);
    let served = lazy.graph().weights().unwrap();
    assert_eq!(served[edge], weights[edge] ^ 0x10);
    assert_eq!(served[..edge], weights[..edge]);
    assert_eq!(served[edge + 1..], weights[edge + 1..]);
    drop(lazy);

    let eager = store.with_verify(VerifyMode::Eager).prepare(&spec).unwrap();
    assert_eq!(eager.report().cache, CacheStatus::Miss);
    assert!(eager.report().work_items() > 0);
    assert_eq!(eager.graph(), cold.graph());
    assert_eq!(eager.transpose(), cold.transpose());
    assert_eq!(eager.overlay(), cold.overlay());
    assert_eq!(eager.rev_overlay(), cold.rev_overlay());
    assert_eq!(fs::read(&artifact).unwrap(), original);
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

/// The bare graph `base_spec()`'s views are derived from.
fn bare_spec() -> PrepareSpec {
    PrepareSpec::generated("rmat:8:8", 7).with_uniform_weights(1, 9, 3)
}

/// The derived specs a cached bare graph serves: V, V+, V+ with the
/// transpose, UDT and star.
fn derived_specs() -> [(&'static str, PrepareSpec); 5] {
    [
        ("V", bare_spec().with_virtual(8, false)),
        ("V+", bare_spec().with_virtual(8, true)),
        ("V+ transpose", base_spec()),
        (
            "udt",
            bare_spec().with_transform(TransformKind::Udt, Some(4), DumbWeight::Zero),
        ),
        (
            "star",
            bare_spec().with_transform(TransformKind::Star, None, DumbWeight::Infinity),
        ),
    ]
}

/// The artifact bytes a cold prepare of `spec` writes in a fresh store.
fn cold_bytes(name: &str, spec: &PrepareSpec) -> Vec<u8> {
    let cold = temp_store(name).prepare(spec).unwrap();
    assert!(!cold.report().base_reused);
    let bytes = fs::read(cold.report().artifact.as_ref().unwrap()).unwrap();
    fs::remove_dir_all(std::env::temp_dir().join(name)).ok();
    bytes
}

/// Once the bare graph is cached, a prepare with views derives them from
/// its artifact instead of regenerating the source, and writes the bytes
/// a cold prepare in an empty store writes. No second base is written.
#[test]
fn derived_prepares_reuse_the_cached_base_and_write_the_cold_bytes() {
    let name = "tigr_it_prepared_base_reuse";
    let store = temp_store(name);
    let base = store.prepare(&bare_spec()).unwrap();
    assert_eq!(base.report().cache, CacheStatus::Miss);
    assert!(!base.report().base_reused, "a bare spec is its own base");
    let base_bytes = fs::read(base.report().artifact.as_ref().unwrap()).unwrap();

    for (label, spec) in derived_specs() {
        let derived = store.prepare(&spec).unwrap();
        assert_eq!(derived.report().cache, CacheStatus::Miss, "{label}");
        assert!(derived.report().base_reused, "{label}");
        assert!(derived.report().work_items() > 0, "{label}");
        assert_eq!(derived.graph(), base.graph(), "{label}");
        let bytes = fs::read(derived.report().artifact.as_ref().unwrap()).unwrap();
        assert!(
            bytes == cold_bytes(&format!("{name}_cold"), &spec),
            "{label}: derived artifact differs from the cold build's"
        );
        let hit = store.prepare(&spec).unwrap();
        assert_eq!(hit.report().cache, CacheStatus::Hit, "{label}");
        assert!(!hit.report().base_reused, "{label}");
    }
    let artifacts = fs::read_dir(std::env::temp_dir().join(name))
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("tigr".as_ref()))
        .count();
    assert_eq!(artifacts, 1 + derived_specs().len());
    let base_path = base.report().artifact.clone().unwrap();
    assert_eq!(fs::read(base_path).unwrap(), base_bytes);
    fs::remove_dir_all(std::env::temp_dir().join(name)).ok();
}

/// A base whose CSR carries a flipped weight byte passes every
/// structural check; a store that trusts its own hits lazily still
/// verifies a base before deriving from it. The derived prepare falls
/// back to the source, reports no reuse and writes the cold build's
/// bytes instead of stamping fresh checksums over the flipped weight.
#[test]
fn a_corrupt_base_is_verified_eagerly_and_skipped_even_by_a_lazy_store() {
    let name = "tigr_it_prepared_base_corrupt";
    let store = temp_store(name).with_verify(VerifyMode::Lazy);
    let base = store.prepare(&bare_spec()).unwrap();
    let path = base.report().artifact.clone().unwrap();
    let graph = base.graph().clone();
    drop(base);
    let mut bytes = fs::read(&path).unwrap();
    let edge = graph.num_edges() / 3;
    let at = csr_weight_offset(&bytes, graph.num_nodes(), graph.num_edges(), edge);
    bytes[at] ^= 0x08;
    fs::write(&path, &bytes).unwrap();

    let spec = bare_spec().with_virtual(8, true);
    let derived = store.prepare(&spec).unwrap();
    assert_eq!(derived.report().cache, CacheStatus::Miss);
    assert!(!derived.report().base_reused);
    assert_eq!(derived.graph(), &graph);
    let written = fs::read(derived.report().artifact.as_ref().unwrap()).unwrap();
    assert!(written == cold_bytes(&format!("{name}_cold"), &spec));
    // The flipped base itself is left alone: nothing rewrites a base.
    assert_eq!(fs::read(&path).unwrap(), bytes);
    fs::remove_dir_all(std::env::temp_dir().join(name)).ok();
}
