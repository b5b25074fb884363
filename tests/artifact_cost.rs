//! The streaming artifact writer against the buffer-building encoder it
//! replaced (`common::encode_csr` and friends, then one hash per
//! section on one thread, then `common::write_container`): the same
//! bytes, at a fraction of the cost. The guard is the only test in this
//! binary, so no other test competes with its threads for the cores it
//! times.

mod common;

use std::time::Instant;

use tigr::core::{GraphStore, PrepareSpec};
use tigr::graph::io::{
    checksums, write_sections, Section, SectionParts, SECTION_CSR, SECTION_OVERLAY,
    SECTION_REV_OVERLAY, SECTION_SPEC, SECTION_TRANSPOSE,
};

/// Encode + hash + write of the serving views (`rmat:15:16`, weights
/// 1–64, coalesced K = 10 overlay, transpose and reverse overlay) into
/// memory, streamed, at no more than 0.75x the buffered reference's
/// cost: fastest of five interleaved runs each. One core reads ≈ 0.55,
/// two ≈ 0.35.
#[test]
fn streaming_the_artifact_costs_under_0_75x_the_buffered_reference() {
    let spec = PrepareSpec::generated("rmat:15:16", 1)
        .with_uniform_weights(1, 64, 7)
        .with_virtual(10, true)
        .with_transpose(true);
    let p = GraphStore::disabled().prepare(&spec).unwrap();
    let (t, overlay, reverse) = (
        p.transpose().unwrap(),
        p.overlay().unwrap(),
        p.rev_overlay().unwrap(),
    );
    let echo = b"tigr-prepare-v2|serving views";
    let (mut streamed_ms, mut reference_ms) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let started = Instant::now();
        let parts = [
            SectionParts::new(SECTION_SPEC).bytes(&echo[..]),
            SectionParts::csr(SECTION_CSR, p.graph()),
            SectionParts::csr(SECTION_TRANSPOSE, t),
            overlay.section(SECTION_OVERLAY),
            reverse.section(SECTION_REV_OVERLAY),
        ];
        let mut streamed = Vec::new();
        write_sections(&parts, &checksums(&parts), &mut streamed).unwrap();
        streamed_ms = streamed_ms.min(started.elapsed().as_secs_f64() * 1e3);

        let started = Instant::now();
        let sections = [
            Section::new(SECTION_SPEC, echo.to_vec()),
            Section::new(SECTION_CSR, common::encode_csr(p.graph())),
            Section::new(SECTION_TRANSPOSE, common::encode_csr(t)),
            Section::new(SECTION_OVERLAY, common::overlay_section_bytes(overlay)),
            Section::new(SECTION_REV_OVERLAY, common::overlay_section_bytes(reverse)),
        ];
        let mut reference = Vec::new();
        common::write_container(&sections, &mut reference).unwrap();
        reference_ms = reference_ms.min(started.elapsed().as_secs_f64() * 1e3);
        assert!(streamed == reference, "streamed artifact differs");
    }
    let ratio = streamed_ms / reference_ms;
    let bound = 0.75;
    println!("streamed {streamed_ms:.2} ms / buffered reference {reference_ms:.2} ms = {ratio:.2}");
    assert!(
        ratio <= bound,
        "streaming took {ratio:.2}x the buffered reference (bound {bound})"
    );
}
