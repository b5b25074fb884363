//! The streaming artifact writer against the buffer-building encoder it
//! replaced (`common::encode_csr`, `common::overlay_section_bytes`,
//! `common::transform_section_bytes`, `common::write_container`): every
//! section kind, weighted and unweighted graphs and a zero-node CSR give
//! the same payload bytes, the same checksums and the same container,
//! and a store's cold prepare writes that container.

mod common;

use std::fs;

use tigr::core::{udt_transform, GraphStore, PrepareSpec, TransformKind};
use tigr::graph::generators::{rmat, star_graph, with_uniform_weights, RmatConfig};
use tigr::graph::io::{
    checksums, find_section, fnv1a64, read_container, write_sections, Section, SectionParts,
    SECTION_CSR, SECTION_OVERLAY, SECTION_REV_OVERLAY, SECTION_SPEC, SECTION_TRANSFORM,
    SECTION_TRANSPOSE,
};
use tigr::graph::reverse::transpose;
use tigr::{Csr, CsrBuilder, DumbWeight, VirtualGraph};

/// Writes `parts` through the streaming writer and the same payloads,
/// as the reference encoder built them, through the reference container
/// writer; asserts payloads, checksums and containers agree.
fn assert_streams_the_reference(parts: &[SectionParts], reference: Vec<(u32, Vec<u8>)>) {
    let sums = checksums(parts);
    for ((part, (id, bytes)), sum) in parts.iter().zip(&reference).zip(&sums) {
        assert_eq!(part.id, *id);
        assert_eq!(part.len(), bytes.len(), "section {id} length");
        assert!(part.to_vec() == *bytes, "section {id} payload differs");
        assert_eq!(*sum, fnv1a64(bytes), "section {id} checksum");
        assert_eq!(part.checksum(), *sum, "section {id} sequential checksum");
    }
    let sections: Vec<Section> = reference
        .into_iter()
        .map(|(id, bytes)| Section::new(id, bytes))
        .collect();
    let mut want = Vec::new();
    common::write_container(&sections, &mut want).unwrap();
    let mut got = Vec::new();
    write_sections(parts, &sums, &mut got).unwrap();
    assert!(got == want, "containers differ");
}

/// Every view section of `g`, streamed and encoded the reference way.
fn assert_views_match(g: &Csr, k: u32) {
    let t = transpose(g);
    let forward = VirtualGraph::new(g, k);
    let coalesced = VirtualGraph::coalesced(g, k);
    let reverse = VirtualGraph::coalesced(&t, k);
    let spec = "tigr-prepare-v2|echo";
    let parts = [
        SectionParts::new(SECTION_SPEC).bytes(spec.as_bytes()),
        SectionParts::csr(SECTION_CSR, g),
        SectionParts::csr(SECTION_TRANSPOSE, &t),
        forward.section(SECTION_OVERLAY),
        coalesced.section(SECTION_OVERLAY),
        reverse.section(SECTION_REV_OVERLAY),
    ];
    let reference = vec![
        (SECTION_SPEC, spec.as_bytes().to_vec()),
        (SECTION_CSR, common::encode_csr(g)),
        (SECTION_TRANSPOSE, common::encode_csr(&t)),
        (SECTION_OVERLAY, common::overlay_section_bytes(&forward)),
        (SECTION_OVERLAY, common::overlay_section_bytes(&coalesced)),
        (SECTION_REV_OVERLAY, common::overlay_section_bytes(&reverse)),
    ];
    assert_streams_the_reference(&parts, reference);
}

#[test]
fn csr_and_overlay_sections_stream_the_reference_bytes() {
    let unweighted = rmat(&RmatConfig::graph500(12, 8), 9);
    let weighted = with_uniform_weights(&unweighted, 1, 64, 3);
    let zero_nodes = CsrBuilder::new(0).build();
    let isolated = CsrBuilder::new(5).weighted_edge(3, 1, 7).build();
    for g in [
        &unweighted,
        &weighted,
        &star_graph(300),
        &zero_nodes,
        &isolated,
    ] {
        assert_views_match(g, 10);
    }
}

#[test]
fn transform_sections_stream_the_reference_bytes() {
    let unweighted = star_graph(40);
    let weighted = with_uniform_weights(&rmat(&RmatConfig::graph500(9, 8), 4), 1, 9, 2);
    for (g, dumb) in [
        (&unweighted, DumbWeight::Unweighted),
        (&weighted, DumbWeight::Zero),
        (&weighted, DumbWeight::Infinity),
    ] {
        let t = udt_transform(g, 4, dumb);
        assert!(t.num_new_edges() > 0);
        assert_streams_the_reference(
            &[t.section()],
            vec![(SECTION_TRANSFORM, common::transform_section_bytes(&t))],
        );
    }
}

#[test]
fn a_cold_prepare_writes_the_reference_container() {
    let dir = std::env::temp_dir().join(format!("tigr_it_artifact_bytes_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let store = GraphStore::new(Some(dir.clone()));
    let serving = PrepareSpec::generated("rmat:10:16", 1)
        .with_uniform_weights(1, 64, 7)
        .with_virtual(10, true)
        .with_transpose(true);
    let transformed = PrepareSpec::generated("ba:300:4", 2)
        .with_uniform_weights(1, 9, 3)
        .with_transform(TransformKind::Udt, Some(8), DumbWeight::Zero);
    for spec in [serving, transformed] {
        let p = store.prepare(&spec).unwrap();
        let bytes = fs::read(p.report().artifact.as_ref().unwrap()).unwrap();
        let echo = read_container(bytes.as_slice()).unwrap();
        let echo = find_section(&echo, SECTION_SPEC).unwrap().payload.clone();
        let mut sections = vec![
            Section::new(SECTION_SPEC, echo),
            Section::new(SECTION_CSR, common::encode_csr(p.graph())),
        ];
        let views = [
            (SECTION_OVERLAY, p.overlay()),
            (SECTION_REV_OVERLAY, p.rev_overlay()),
        ];
        if let Some(t) = p.transpose() {
            sections.push(Section::new(SECTION_TRANSPOSE, common::encode_csr(t)));
        }
        for (id, vg) in views {
            if let Some(vg) = vg {
                sections.push(Section::new(id, common::overlay_section_bytes(vg)));
            }
        }
        if let Some(t) = p.transformed() {
            sections.push(Section::new(
                SECTION_TRANSFORM,
                common::transform_section_bytes(t),
            ));
        }
        let mut want = Vec::new();
        common::write_container(&sections, &mut want).unwrap();
        assert!(bytes == want, "artifact of {spec:?} differs");
    }
    fs::remove_dir_all(&dir).ok();
}
