//! Scaled-down analogs of the paper's evaluation datasets (Table 3).
//!
//! The original experiments use six real-world power-law graphs from SNAP
//! and network-repository. Those multi-hundred-million-edge files are not
//! available offline, so this module generates *shape-matched analogs*:
//! RMAT graphs whose skew parameters and edge factors are chosen per
//! dataset so that the properties Tigr's mechanisms depend on — average
//! degree, degree-distribution skew, and the maximum-degree-to-size ratio —
//! track the originals at a configurable fraction of the size.
//!
//! Real data can still be used: load any of the graphs with [`crate::io`]
//! and hand it to the same APIs.

use crate::csr::Csr;
use crate::generators::{rmat, with_uniform_weights, RmatConfig};
use crate::stats::degree_stats;

/// Degree-skew family used to pick RMAT quadrant probabilities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkewClass {
    /// Social friendship graphs (Pokec, LiveJournal, Orkut): Graph500 skew.
    Social,
    /// Collaboration graphs (Hollywood): dense, moderately skewed.
    Collaboration,
    /// Follower graphs (Sina Weibo, Twitter): extremely heavy tails with
    /// hubs holding a few percent of all edges.
    Follower,
}

/// Static description of one paper dataset plus the recipe for its analog.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's tables.
    pub name: &'static str,
    /// Node count reported in Table 3.
    pub paper_nodes: u64,
    /// Edge count reported in Table 3.
    pub paper_edges: u64,
    /// Maximum out-degree reported in Table 3.
    pub paper_max_degree: u64,
    /// Diameter reported in Table 3.
    pub paper_diameter: u32,
    /// Physical-transformation degree bound used by the paper (Table 3).
    pub paper_k_udt: u32,
    /// Virtual-transformation degree bound used by the paper (Table 3).
    pub paper_k_virtual: u32,
    /// Skew family of the analog generator.
    pub skew: SkewClass,
}

impl DatasetSpec {
    /// Average degree implied by Table 3.
    pub fn paper_avg_degree(&self) -> f64 {
        self.paper_edges as f64 / self.paper_nodes as f64
    }

    /// RMAT configuration for an analog at `1/denominator` of the paper's
    /// node count (rounded to the nearest power of two).
    ///
    /// # Panics
    ///
    /// Panics if `denominator == 0`.
    pub fn rmat_config(&self, denominator: u64) -> RmatConfig {
        assert!(denominator > 0, "scale denominator must be positive");
        let target_nodes = (self.paper_nodes / denominator).max(1024);
        let scale = (target_nodes as f64).log2().round() as u32;
        let edge_factor = self.paper_avg_degree().round().max(1.0) as usize;
        match self.skew {
            SkewClass::Social => RmatConfig::graph500(scale, edge_factor),
            SkewClass::Collaboration => RmatConfig {
                a: 0.55,
                b: 0.2,
                c: 0.2,
                ..RmatConfig::graph500(scale, edge_factor)
            },
            SkewClass::Follower => RmatConfig::heavy_tail(scale, edge_factor),
        }
    }

    /// Generates the unweighted analog graph.
    pub fn generate(&self, denominator: u64, seed: u64) -> Csr {
        rmat(&self.rmat_config(denominator), seed ^ fxhash(self.name))
    }

    /// Generates the analog with uniform integer weights in `[1, 64]`
    /// (for SSSP/SSWP workloads).
    pub fn generate_weighted(&self, denominator: u64, seed: u64) -> Csr {
        let g = self.generate(denominator, seed);
        with_uniform_weights(&g, 1, 64, seed ^ fxhash(self.name) ^ 0x9E37_79B9)
    }

    /// Suggested degree bound for the *physical* (UDT) transformation on
    /// graph `g`, following the paper's §5 heuristic: the bound grows with
    /// the maximum degree (Table 3 uses 500 for d_max ≈ 8.8K, 1K for
    /// 11K–33K, 10K for ≥ 278K — roughly `d_max / 20`, floored at 16).
    pub fn suggested_udt_k(g: &Csr) -> u32 {
        ((g.max_out_degree() / 20).max(16)) as u32
    }

    /// The paper's virtual degree bound: `K = 10` across the board (§5).
    pub const VIRTUAL_K: u32 = 10;
}

/// Deterministic string hash used to decorrelate per-dataset seeds.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The six datasets of Table 3, in the paper's order.
pub const PAPER_DATASETS: [DatasetSpec; 6] = [
    DatasetSpec {
        name: "pokec",
        paper_nodes: 1_600_000,
        paper_edges: 31_000_000,
        paper_max_degree: 8_800,
        paper_diameter: 11,
        paper_k_udt: 500,
        paper_k_virtual: 10,
        skew: SkewClass::Social,
    },
    DatasetSpec {
        name: "livejournal",
        paper_nodes: 4_000_000,
        paper_edges: 69_000_000,
        paper_max_degree: 15_000,
        paper_diameter: 13,
        paper_k_udt: 1_000,
        paper_k_virtual: 10,
        skew: SkewClass::Social,
    },
    DatasetSpec {
        name: "hollywood",
        paper_nodes: 1_100_000,
        paper_edges: 114_000_000,
        paper_max_degree: 11_000,
        paper_diameter: 8,
        paper_k_udt: 1_000,
        paper_k_virtual: 10,
        skew: SkewClass::Collaboration,
    },
    DatasetSpec {
        name: "orkut",
        paper_nodes: 3_100_000,
        paper_edges: 234_000_000,
        paper_max_degree: 33_000,
        paper_diameter: 7,
        paper_k_udt: 1_000,
        paper_k_virtual: 10,
        skew: SkewClass::Social,
    },
    DatasetSpec {
        name: "sinaweibo",
        paper_nodes: 59_000_000,
        paper_edges: 523_000_000,
        paper_max_degree: 278_000,
        paper_diameter: 5,
        paper_k_udt: 10_000,
        paper_k_virtual: 10,
        skew: SkewClass::Follower,
    },
    DatasetSpec {
        name: "twitter2010",
        paper_nodes: 21_000_000,
        paper_edges: 530_000_000,
        paper_max_degree: 698_000,
        paper_diameter: 15,
        paper_k_udt: 10_000,
        paper_k_virtual: 10,
        skew: SkewClass::Follower,
    },
];

/// Looks up a dataset spec by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<&'static DatasetSpec> {
    PAPER_DATASETS
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

/// Default scale denominator used by the benchmark harness: analogs are
/// 1/256 of the paper's node counts, which keeps the largest analog
/// under three million edges. Use `TIGR_SCALE=64` for closer-to-paper
/// runs.
pub const DEFAULT_SCALE_DENOMINATOR: u64 = 256;

/// Verifies that an analog reproduces the qualitative §2.3 irregularity
/// profile: most nodes low-degree, a tiny fraction of hubs holding large
/// neighbor sets. Returns the measured profile for reporting.
pub fn irregularity_profile(g: &Csr) -> (f64, f64, usize) {
    let s = degree_stats(g);
    (s.frac_below_20, s.frac_at_least_1000, s.max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_datasets_in_paper_order() {
        assert_eq!(PAPER_DATASETS.len(), 6);
        assert_eq!(PAPER_DATASETS[0].name, "pokec");
        assert_eq!(PAPER_DATASETS[5].name, "twitter2010");
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(by_name("LiveJournal").is_some());
        assert!(by_name("nosuch").is_none());
    }

    #[test]
    fn avg_degrees_match_table3() {
        let lj = by_name("livejournal").unwrap();
        assert!((lj.paper_avg_degree() - 17.25).abs() < 0.01);
        let holly = by_name("hollywood").unwrap();
        assert!(holly.paper_avg_degree() > 100.0, "hollywood is dense");
    }

    #[test]
    fn analog_tracks_paper_shape() {
        let spec = by_name("pokec").unwrap();
        let g = spec.generate(256, 1);
        let s = degree_stats(&g);
        // Edge factor ≈ paper average degree.
        assert!(
            (s.avg_degree - spec.paper_avg_degree()).abs() < 3.0,
            "avg degree {} vs paper {}",
            s.avg_degree,
            spec.paper_avg_degree()
        );
        // Analog is irregular: hubs well above the average.
        assert!(s.max_degree as f64 > 20.0 * s.avg_degree);
    }

    #[test]
    fn follower_analogs_are_more_skewed_than_social() {
        let social = by_name("pokec").unwrap().generate(256, 3);
        let follower = by_name("twitter2010").unwrap().generate(4096, 3);
        let cv_social = degree_stats(&social).coefficient_of_variation;
        let cv_follower = degree_stats(&follower).coefficient_of_variation;
        assert!(
            cv_follower > cv_social,
            "follower CV {cv_follower} should exceed social CV {cv_social}"
        );
    }

    #[test]
    fn generation_is_deterministic_and_name_decorrelated() {
        let a = by_name("pokec").unwrap().generate(512, 7);
        let b = by_name("pokec").unwrap().generate(512, 7);
        assert_eq!(a, b);
        // Same seed, different dataset -> different graph.
        let c = by_name("livejournal").unwrap().generate(512, 7);
        assert!(a.num_nodes() != c.num_nodes() || a != c);
    }

    #[test]
    fn weighted_analog_has_weights() {
        let g = by_name("pokec").unwrap().generate_weighted(1024, 5);
        assert!(g.is_weighted());
        for e in 0..g.num_edges().min(100) {
            assert!((1..=64).contains(&g.weight(e)));
        }
    }

    #[test]
    fn irregularity_profile_reports_section_2_3_shape() {
        let g = by_name("livejournal").unwrap().generate(256, 11);
        let (below20, hubs, dmax) = irregularity_profile(&g);
        assert!(below20 > 0.6, "most nodes are low-degree: {below20}");
        assert!(hubs < 0.02, "hubs are rare: {hubs}");
        assert!(dmax > 100);
    }

    #[test]
    fn suggested_udt_k_scales_with_max_degree() {
        let small = crate::generators::star_graph(100);
        let large = crate::generators::star_graph(100_000);
        assert!(DatasetSpec::suggested_udt_k(&large) > DatasetSpec::suggested_udt_k(&small));
        assert!(DatasetSpec::suggested_udt_k(&small) >= 16);
    }
}
