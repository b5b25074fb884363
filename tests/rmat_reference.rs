//! The chunked R-MAT generator against the sequential one it replaced
//! (`common::reference_rmat`): the same bytes, at a fraction of the cost.
//! The guard is the only test in this binary, so no other test competes
//! with its threads for the cores it times.

mod common;

use tigr::graph::generators::{rmat, RmatConfig};

/// The chunked generator is the sequential one, byte for byte, at no
/// more than 0.6x its cost optimised: fastest of five order-flipped
/// pairs of runs, `rmat:15:16`. Drawing one lane at a time (a CPU
/// without AVX-512DQ/VL), one core reads ≈ 0.42–0.45 and two
/// ≈ 0.23–0.28; on eight AVX-512 lanes one core reads ≈ 0.12 and two
/// ≈ 0.07–0.09 (`rmat_lanes_cost.rs` guards that case). The test
/// profile's bound is 0.75, for its overflow checks in the chunked
/// inner loop; two cores read ≈ 0.20–0.25 there on one lane and
/// ≈ 0.11–0.15 on eight.
#[test]
fn rmat_costs_under_0_6x_the_sequential_reference() {
    let config = RmatConfig::graph500(15, 16);
    let (chunked_ms, reference_ms) = common::fastest_pairs(
        5,
        || rmat(&config, 1),
        || common::reference_rmat(&config, 1),
        |chunked, reference| assert_eq!(chunked, reference),
    );
    let ratio = chunked_ms / reference_ms;
    let bound = if cfg!(debug_assertions) { 0.75 } else { 0.6 };
    println!("rmat {chunked_ms:.2} ms / sequential reference {reference_ms:.2} ms = {ratio:.2}");
    assert!(
        ratio <= bound,
        "rmat took {ratio:.2}x the sequential reference (bound {bound})"
    );
}
