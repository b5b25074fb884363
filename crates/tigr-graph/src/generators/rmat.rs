//! Recursive-matrix (RMAT) power-law graph generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::CsrBuilder;
use crate::csr::Csr;
use crate::edge::{Edge, NodeId};

/// Parameters for the RMAT generator (Chakrabarti, Zhan & Faloutsos 2004).
///
/// RMAT recursively drops each edge into one quadrant of the adjacency
/// matrix with probabilities `(a, b, c, d)`. Skewed quadrant probabilities
/// (`a ≫ d`) produce the heavy-tailed degree distributions of real social
/// networks — the irregularity Tigr targets.
///
/// # Example
///
/// ```
/// use tigr_graph::generators::{rmat, RmatConfig};
///
/// let cfg = RmatConfig::graph500(10, 8); // 2^10 nodes, 8 edges per node
/// let g = rmat(&cfg, 42);
/// assert_eq!(g.num_nodes(), 1024);
/// assert!(g.max_out_degree() > 3 * 8, "RMAT produces hubs");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of nodes.
    pub scale: u32,
    /// Average number of directed edges per node.
    pub edge_factor: usize,
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Per-level multiplicative noise applied to the quadrant
    /// probabilities, which avoids the degree "staircase" artifact of pure
    /// RMAT. `0.0` disables noise.
    pub noise: f64,
    /// Collapse parallel edges after generation.
    pub dedup: bool,
}

impl RmatConfig {
    /// The Graph500 reference parameters: `a=0.57, b=0.19, c=0.19, d=0.05`.
    pub fn graph500(scale: u32, edge_factor: usize) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
            dedup: false,
        }
    }

    /// A more skewed parameterization (`a=0.65`) approximating follower
    /// graphs like Twitter or Sina Weibo, whose maximum degrees reach a
    /// few percent of the node count (Table 3).
    pub fn heavy_tail(scale: u32, edge_factor: usize) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.65,
            b: 0.18,
            c: 0.12,
            noise: 0.1,
            dedup: false,
        }
    }

    /// Probability of the bottom-right quadrant (`1 - a - b - c`).
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Number of nodes, `2^scale`.
    pub fn num_nodes(&self) -> usize {
        1usize << self.scale
    }

    /// Number of generated edges before deduplication.
    pub fn num_edges(&self) -> usize {
        self.num_nodes() * self.edge_factor
    }

    /// Validates the probability simplex.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative or if `a+b+c > 1`.
    fn validate(&self) {
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0,
            "negative quadrant probability"
        );
        assert!(
            self.a + self.b + self.c <= 1.0 + 1e-9,
            "quadrant probabilities exceed 1"
        );
        assert!(self.scale <= 31, "scale too large for u32 node ids");
    }
}

/// Generates an RMAT graph. Deterministic for a given `(config, seed)`.
///
/// # Panics
///
/// Panics if `config` holds an invalid probability simplex or a scale
/// larger than 31.
pub fn rmat(config: &RmatConfig, seed: u64) -> Csr {
    config.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = config.num_nodes();
    let m = config.num_edges();

    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (src, dst) = rmat_edge(config, &mut rng);
        edges.push(Edge::unweighted(NodeId::new(src), NodeId::new(dst)));
    }

    let mut b = CsrBuilder::from_edges(n, edges);
    b.dedup(config.dedup);
    b.build()
}

fn rmat_edge(config: &RmatConfig, rng: &mut StdRng) -> (u32, u32) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for level in (0..config.scale).rev() {
        // Multiplicative noise keeps the expected simplex but perturbs each
        // level, smoothing the synthetic degree distribution.
        let mut jitter = |p: f64| {
            if config.noise > 0.0 {
                p * (1.0 - config.noise + 2.0 * config.noise * rng.gen::<f64>())
            } else {
                p
            }
        };
        let (a, b, c, d) = (
            jitter(config.a),
            jitter(config.b),
            jitter(config.c),
            jitter(config.d()),
        );
        let total = a + b + c + d;
        let r = rng.gen::<f64>() * total;
        let bit = 1u32 << level;
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            dst |= bit;
        } else if r < a + b + c {
            src |= bit;
        } else {
            src |= bit;
            dst |= bit;
        }
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    #[test]
    fn produces_declared_sizes() {
        let cfg = RmatConfig::graph500(8, 4);
        let g = rmat(&cfg, 1);
        assert_eq!(g.num_nodes(), 256);
        assert_eq!(g.num_edges(), 1024);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RmatConfig::graph500(8, 4);
        assert_eq!(rmat(&cfg, 5), rmat(&cfg, 5));
        assert_ne!(rmat(&cfg, 5), rmat(&cfg, 6));
    }

    #[test]
    fn skewed_parameters_make_irregular_graphs() {
        let skewed = degree_stats(&rmat(&RmatConfig::heavy_tail(12, 8), 3));
        let cfg_flat = RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            noise: 0.0,
            ..RmatConfig::graph500(12, 8)
        };
        let flat = degree_stats(&rmat(&cfg_flat, 3));
        assert!(
            skewed.coefficient_of_variation > 2.0 * flat.coefficient_of_variation,
            "skewed CV {} should dwarf flat CV {}",
            skewed.coefficient_of_variation,
            flat.coefficient_of_variation
        );
        assert!(skewed.max_degree > 4 * flat.max_degree);
    }

    #[test]
    fn dedup_reduces_edge_count() {
        let mut cfg = RmatConfig::graph500(6, 16);
        cfg.dedup = true;
        let g = rmat(&cfg, 9);
        assert!(g.num_edges() < cfg.num_edges());
    }

    #[test]
    fn d_complements_simplex() {
        let cfg = RmatConfig::graph500(4, 1);
        assert!((cfg.a + cfg.b + cfg.c + cfg.d() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities exceed 1")]
    fn invalid_simplex_panics() {
        let cfg = RmatConfig {
            a: 0.9,
            b: 0.9,
            c: 0.9,
            ..RmatConfig::graph500(4, 1)
        };
        let _ = rmat(&cfg, 0);
    }
}
