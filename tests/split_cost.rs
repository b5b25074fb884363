//! The sort-free split assembly against the sorting one it replaced
//! (`common::reference_split`): the same CSR, at a fraction of the cost.
//! The guard is the only test in this binary, so no other test competes
//! for the core it times.

mod common;

use common::reference_split;
use tigr::core::k_select::physical_k;
use tigr::core::split::{apply_split, UdtTopology};
use tigr::graph::generators::{rmat, RmatConfig};
use tigr::DumbWeight;

/// A UDT split of `rmat:15:16` (zero dumb weights, the store's physical
/// `K`) at no more than 0.35x the reference's cost optimised, 0.5x under
/// the test profile's overflow checks: fastest of 21 order-flipped
/// pairs of runs. Both sides run the topology over the same graph; only
/// the assembly differs. Optimised it reads ≈ 0.06, under the test
/// profile ≈ 0.07.
#[test]
fn udt_split_costs_under_0_35x_the_sorting_reference() {
    let g = rmat(&RmatConfig::graph500(15, 16), 1);
    let k = physical_k(&g);
    let (split_ms, reference_ms) = common::fastest_pairs(
        21,
        || apply_split(&UdtTopology, &g, k, DumbWeight::Zero),
        || reference_split(&UdtTopology, &g, k, DumbWeight::Zero),
        |t, (graph, flags, _)| {
            assert!(t.num_split_nodes() > 0, "K = {k} must split rmat:15:16");
            assert_eq!(t.graph(), &graph);
            assert!((0..graph.num_edges()).all(|e| t.is_new_edge(e) == flags[e]));
        },
    );
    let ratio = split_ms / reference_ms;
    let bound = if cfg!(debug_assertions) { 0.5 } else { 0.35 };
    println!("udt split {split_ms:.2} ms / sorting reference {reference_ms:.2} ms = {ratio:.2}");
    assert!(
        ratio <= bound,
        "the split took {ratio:.2}x the sorting reference (bound {bound})"
    );
}
