//! Degree-distribution statistics and irregularity profiling.
//!
//! These routines back the paper's motivation numbers (§2.3: "over 90% of
//! nodes have degrees less than 20 while less than 2% of nodes have degrees
//! around 1000") and the dataset characteristics of Table 3.

use std::collections::VecDeque;

use crate::csr::Csr;
use crate::edge::NodeId;

/// Summary statistics of a graph's out-degree distribution.
///
/// Produced by [`degree_stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Maximum out-degree (`d_max` in Table 3).
    pub max_degree: usize,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Median out-degree.
    pub median_degree: usize,
    /// 99th-percentile out-degree.
    pub p99_degree: usize,
    /// Sample standard deviation of the out-degree.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / avg`): the irregularity proxy
    /// Tigr reduces. Regular graphs have CV ≈ 0; power-law graphs ≫ 1.
    pub coefficient_of_variation: f64,
    /// Fraction of nodes with out-degree below 20 (the §2.3 "90%" figure).
    pub frac_below_20: f64,
    /// Fraction of nodes with out-degree of 1000 or more (the §2.3 "<2%" figure).
    pub frac_at_least_1000: f64,
}

/// Computes [`DegreeStats`] for `g`.
///
/// # Example
///
/// ```
/// use tigr_graph::{CsrBuilder, stats::degree_stats};
///
/// let g = CsrBuilder::new(3).edge(0, 1).edge(0, 2).edge(1, 2).build();
/// let s = degree_stats(&g);
/// assert_eq!(s.max_degree, 2);
/// assert_eq!(s.num_edges, 3);
/// ```
pub fn degree_stats(g: &Csr) -> DegreeStats {
    let n = g.num_nodes();
    let mut degrees: Vec<usize> = g.nodes().map(|v| g.out_degree(v)).collect();
    degrees.sort_unstable();

    let num_edges = g.num_edges();
    let avg = if n == 0 {
        0.0
    } else {
        num_edges as f64 / n as f64
    };
    let var = if n == 0 {
        0.0
    } else {
        degrees
            .iter()
            .map(|&d| {
                let diff = d as f64 - avg;
                diff * diff
            })
            .sum::<f64>()
            / n as f64
    };
    let std_dev = var.sqrt();
    let pct = |p: f64| -> usize {
        if degrees.is_empty() {
            0
        } else {
            let idx = ((degrees.len() as f64 - 1.0) * p).round() as usize;
            degrees[idx]
        }
    };
    let below_20 = degrees.iter().filter(|&&d| d < 20).count();
    let at_least_1000 = degrees.iter().filter(|&&d| d >= 1000).count();

    DegreeStats {
        num_nodes: n,
        num_edges,
        max_degree: degrees.last().copied().unwrap_or(0),
        avg_degree: avg,
        median_degree: pct(0.5),
        p99_degree: pct(0.99),
        std_dev,
        coefficient_of_variation: if avg > 0.0 { std_dev / avg } else { 0.0 },
        frac_below_20: if n == 0 {
            0.0
        } else {
            below_20 as f64 / n as f64
        },
        frac_at_least_1000: if n == 0 {
            0.0
        } else {
            at_least_1000 as f64 / n as f64
        },
    }
}

/// Histogram of out-degrees: `histogram[d]` = number of nodes with degree
/// `d`, up to the maximum degree.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_out_degree() + 1];
    for v in g.nodes() {
        hist[g.out_degree(v)] += 1;
    }
    hist
}

/// Maximum-likelihood estimate of the power-law exponent `α` for degrees
/// `≥ d_min` (Clauset–Shalizi–Newman): `α = 1 + n / Σ ln(d_i / (d_min - ½))`.
///
/// Returns `None` if fewer than two nodes meet the threshold.
pub fn power_law_alpha(g: &Csr, d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1);
    let tail: Vec<f64> = g
        .nodes()
        .map(|v| g.out_degree(v))
        .filter(|&d| d >= d_min)
        .map(|d| d as f64)
        .collect();
    if tail.len() < 2 {
        return None;
    }
    let denom: f64 = tail.iter().map(|&d| (d / (d_min as f64 - 0.5)).ln()).sum();
    if denom <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / denom)
}

/// Estimates the graph's diameter (`d` in Table 3) by running BFS from
/// `samples` pseudo-random start nodes and taking the largest finite
/// eccentricity observed. Exact for `samples >= num_nodes`.
///
/// The estimate is a lower bound on the true diameter — the standard
/// technique for large graphs where exact all-pairs BFS is infeasible.
pub fn estimate_diameter(g: &Csr, samples: usize, seed: u64) -> usize {
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    let mut state = seed | 1;
    let mut next = || {
        // xorshift64* — deterministic, dependency-free sampling.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let samples = samples.min(n);
    for i in 0..samples {
        let start = if samples >= n {
            NodeId::from_index(i)
        } else {
            NodeId::from_index((next() % n as u64) as usize)
        };
        best = best.max(eccentricity(g, start));
    }
    best
}

/// Average local clustering coefficient over up to `samples` nodes with
/// degree ≥ 2 (treating edges as undirected neighbor sets), sampled
/// deterministically from `seed`.
///
/// Social graphs cluster strongly (friends of friends are friends);
/// RMAT analogs cluster weakly — one of the known gaps between RMAT and
/// real social networks, reported here so EXPERIMENTS.md can note it.
pub fn clustering_coefficient(g: &Csr, samples: usize, seed: u64) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut total = 0.0f64;
    let mut counted = 0usize;
    let mut attempts = 0usize;
    while counted < samples && attempts < samples * 20 {
        attempts += 1;
        let v = NodeId::from_index((next() % n as u64) as usize);
        let nbrs = g.neighbors(v);
        if nbrs.len() < 2 {
            continue;
        }
        // Count links among the (deduped) neighbor set.
        let mut set: Vec<NodeId> = nbrs.to_vec();
        set.sort_unstable();
        set.dedup();
        if set.len() < 2 {
            continue;
        }
        let mut links = 0usize;
        for &u in &set {
            for &w in g.neighbors(u) {
                if w != u && set.binary_search(&w).is_ok() {
                    links += 1;
                }
            }
        }
        let possible = set.len() * (set.len() - 1);
        total += links as f64 / possible as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Largest finite BFS distance from `start` (0 if nothing is reachable).
pub fn eccentricity(g: &Csr, start: NodeId) -> usize {
    let n = g.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[start.index()] = 0;
    queue.push_back(start);
    let mut max_d = 0;
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for &u in g.neighbors(v) {
            if dist[u.index()] == usize::MAX {
                dist[u.index()] = dv + 1;
                max_d = max_d.max(dv + 1);
                queue.push_back(u);
            }
        }
    }
    max_d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    fn star(n: u32) -> Csr {
        let mut b = CsrBuilder::new(n as usize);
        for i in 1..n {
            b.edge(0, i);
        }
        b.build()
    }

    #[test]
    fn stats_on_star_graph() {
        let g = star(11);
        let s = degree_stats(&g);
        assert_eq!(s.num_nodes, 11);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.median_degree, 0);
        assert!((s.avg_degree - 10.0 / 11.0).abs() < 1e-12);
        assert!(
            s.coefficient_of_variation > 2.0,
            "star graphs are irregular"
        );
        assert!((s.frac_below_20 - 1.0).abs() < 1e-12);
        assert_eq!(s.frac_at_least_1000, 0.0);
    }

    #[test]
    fn stats_on_regular_cycle_have_zero_cv() {
        let mut b = CsrBuilder::new(8);
        for i in 0..8u32 {
            b.edge(i, (i + 1) % 8);
        }
        let s = degree_stats(&b.build());
        assert_eq!(s.max_degree, 1);
        assert_eq!(s.coefficient_of_variation, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let g = star(6);
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 6);
        assert_eq!(h[0], 5);
        assert_eq!(h[5], 1);
    }

    #[test]
    fn frac_at_least_1000_detects_hubs() {
        let g = star(1500);
        let s = degree_stats(&g);
        assert!(s.frac_at_least_1000 > 0.0);
    }

    #[test]
    fn power_law_alpha_on_synthetic_tail() {
        // Construct nodes with degrees 1,1,1,1,2,2,4,8: roughly geometric.
        let mut b = CsrBuilder::new(30);
        let mut next = 10u32;
        let degs = [1u32, 1, 1, 1, 2, 2, 4, 8];
        for (i, &d) in degs.iter().enumerate() {
            for _ in 0..d {
                b.edge(i as u32, next % 30);
                next += 1;
            }
        }
        let alpha = power_law_alpha(&b.build(), 1).unwrap();
        assert!(alpha > 1.0 && alpha < 5.0, "alpha = {alpha}");
    }

    #[test]
    fn power_law_alpha_requires_tail() {
        let g = CsrBuilder::new(2).edge(0, 1).build();
        assert!(power_law_alpha(&g, 50).is_none());
    }

    #[test]
    fn clustering_of_complete_graph_is_one() {
        let g = crate::generators::complete_graph(6);
        let c = clustering_coefficient(&g, 6, 1);
        assert!((c - 1.0).abs() < 1e-12, "c = {c}");
    }

    #[test]
    fn clustering_of_star_is_zero() {
        // Leaves have degree < 2; the hub's neighbors share no edges.
        let g = star(12);
        assert_eq!(clustering_coefficient(&g, 12, 1), 0.0);
    }

    #[test]
    fn clustering_of_triangle_rich_graph_is_high() {
        // Two triangles sharing a node.
        let mut b = CsrBuilder::new(5);
        b.symmetric(true);
        b.edge(0, 1)
            .edge(1, 2)
            .edge(2, 0)
            .edge(2, 3)
            .edge(3, 4)
            .edge(4, 2);
        let c = clustering_coefficient(&b.build(), 5, 3);
        assert!(c > 0.5, "c = {c}");
    }

    #[test]
    fn clustering_of_empty_graph_is_zero() {
        let g = CsrBuilder::new(0).build();
        assert_eq!(clustering_coefficient(&g, 4, 1), 0.0);
    }

    #[test]
    fn diameter_of_path_graph() {
        let mut b = CsrBuilder::new(6);
        for i in 0..5u32 {
            b.edge(i, i + 1);
        }
        let g = b.build();
        // Exhaustive sampling gives the exact diameter of the path: 5.
        assert_eq!(estimate_diameter(&g, 6, 1), 5);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 5);
        assert_eq!(eccentricity(&g, NodeId::new(5)), 0);
    }

    #[test]
    fn diameter_of_empty_graph_is_zero() {
        let g = CsrBuilder::new(0).build();
        assert_eq!(estimate_diameter(&g, 4, 7), 0);
    }

    #[test]
    fn sampled_diameter_is_lower_bound() {
        let mut b = CsrBuilder::new(10);
        for i in 0..9u32 {
            b.edge(i, i + 1);
        }
        let g = b.build();
        let sampled = estimate_diameter(&g, 3, 42);
        let exact = estimate_diameter(&g, 10, 42);
        assert!(sampled <= exact);
    }
}
