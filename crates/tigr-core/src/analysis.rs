//! Irregularity-reduction analysis: quantifies what each transformation
//! does to a graph's degree distribution (the quantity Figure 1
//! illustrates).

use tigr_graph::stats::degree_stats;
use tigr_graph::Csr;

use crate::dumb_weights::DumbWeight;
use crate::split::{
    circular_transform, clique_transform, recursive_star_transform, star_transform, udt_transform,
};
use crate::virtual_graph::VirtualGraph;

/// The irregularity effect of one transformation.
#[derive(Clone, Debug, PartialEq)]
pub struct IrregularityReduction {
    /// Transformation name.
    pub name: &'static str,
    /// Maximum out-degree after (before = the input's).
    pub max_degree_after: usize,
    /// Degree coefficient of variation after.
    pub cv_after: f64,
    /// Node-count growth factor (`1.0` = unchanged; virtual overlays
    /// report virtual nodes over physical nodes).
    pub node_growth: f64,
    /// Edge-count growth factor (`1.0` for virtual overlays — the edge
    /// array is shared).
    pub edge_growth: f64,
}

/// Compares every split topology plus the virtual overlay at degree
/// bound `k`, returning one row per design (UDT, star, recursive star,
/// circular, clique, virtual).
///
/// This is the quantitative version of the paper's Figure 1: how much
/// does each design flatten the degree distribution, and at what size
/// cost?
///
/// # Panics
///
/// Panics if `k < 2` (UDT's requirement).
pub fn compare_irregularity_reduction(g: &Csr, k: u32) -> Vec<IrregularityReduction> {
    assert!(k >= 2, "UDT requires K >= 2");
    let n0 = g.num_nodes() as f64;
    let m0 = g.num_edges() as f64;

    let mut rows = Vec::new();
    let physical: [(&'static str, crate::split::TransformedGraph); 5] = [
        ("udt", udt_transform(g, k, DumbWeight::Unweighted)),
        ("star", star_transform(g, k, DumbWeight::Unweighted)),
        (
            "recursive-star",
            recursive_star_transform(g, k, DumbWeight::Unweighted),
        ),
        ("circular", circular_transform(g, k, DumbWeight::Unweighted)),
        ("clique", clique_transform(g, k, DumbWeight::Unweighted)),
    ];
    for (name, t) in physical {
        let s = degree_stats(t.graph());
        rows.push(IrregularityReduction {
            name,
            max_degree_after: s.max_degree,
            cv_after: s.coefficient_of_variation,
            node_growth: t.graph().num_nodes() as f64 / n0.max(1.0),
            edge_growth: t.graph().num_edges() as f64 / m0.max(1.0),
        });
    }

    // Virtual overlay: the "degree" seen by the scheduler is the virtual
    // node's edge count.
    let overlay = VirtualGraph::new(g, k);
    let counts: Vec<usize> = overlay.vnodes().iter().map(|v| v.count as usize).collect();
    let vn = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / vn.max(1.0);
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / vn.max(1.0);
    rows.push(IrregularityReduction {
        name: "virtual",
        max_degree_after: overlay.max_virtual_degree(),
        cv_after: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        node_growth: vn / n0.max(1.0),
        edge_growth: 1.0,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, RmatConfig};

    #[test]
    fn every_design_reduces_max_degree() {
        let g = rmat(&RmatConfig::graph500(10, 8), 19);
        let before = g.max_out_degree();
        let rows = compare_irregularity_reduction(&g, 8);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.max_degree_after < before,
                "{}: {} !< {before}",
                r.name,
                r.max_degree_after
            );
        }
    }

    #[test]
    fn udt_and_virtual_hit_the_bound_exactly() {
        let g = rmat(&RmatConfig::graph500(10, 8), 20);
        let rows = compare_irregularity_reduction(&g, 8);
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert!(get("udt").max_degree_after <= 8);
        assert!(get("virtual").max_degree_after <= 8);
        // Star's hub can exceed the bound.
        assert!(get("star").max_degree_after >= get("udt").max_degree_after);
    }

    #[test]
    fn clique_has_the_worst_edge_growth() {
        let g = tigr_graph::generators::star_graph(2001);
        let rows = compare_irregularity_reduction(&g, 8);
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert!(get("clique").edge_growth > get("udt").edge_growth);
        assert!(get("clique").edge_growth > get("circular").edge_growth);
        assert_eq!(
            get("virtual").edge_growth,
            1.0,
            "overlay shares the edge array"
        );
    }

    #[test]
    fn reduces_cv_on_power_law_input() {
        let g = rmat(&RmatConfig::heavy_tail(11, 8), 21);
        let before = tigr_graph::stats::degree_stats(&g).coefficient_of_variation;
        let rows = compare_irregularity_reduction(&g, 8);
        for r in rows
            .iter()
            .filter(|r| r.name == "udt" || r.name == "virtual")
        {
            assert!(
                r.cv_after < before / 2.0,
                "{}: CV {} vs input {before}",
                r.name,
                r.cv_after
            );
        }
    }

    #[test]
    #[should_panic(expected = "UDT requires K >= 2")]
    fn k_below_two_rejected() {
        let g = tigr_graph::generators::star_graph(10);
        let _ = compare_irregularity_reduction(&g, 1);
    }
}
