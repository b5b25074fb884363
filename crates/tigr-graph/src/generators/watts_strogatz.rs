//! Watts–Strogatz small-world generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::CsrBuilder;
use crate::csr::Csr;

/// Parameters of the Watts–Strogatz small-world model.
///
/// Starts from a ring lattice where each node connects to its
/// `neighbors_each_side` successors and predecessors, then rewires each
/// edge's far endpoint with probability `rewire_probability`. Produces
/// graphs with near-regular degrees but small diameters — a contrast
/// point between the lattice and RMAT extremes: Tigr's transformations
/// are near no-ops here despite the social-like diameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WattsStrogatzConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Ring connections on each side (`k/2` in the usual notation).
    pub neighbors_each_side: usize,
    /// Probability of rewiring each edge.
    pub rewire_probability: f64,
}

/// Generates a Watts–Strogatz graph (directed arcs in both directions).
/// Deterministic per `(config, seed)`.
///
/// # Panics
///
/// Panics if `num_nodes < 2 * neighbors_each_side + 2` or the rewire
/// probability is outside `[0, 1]`.
pub fn watts_strogatz(config: &WattsStrogatzConfig, seed: u64) -> Csr {
    let n = config.num_nodes;
    let k = config.neighbors_each_side;
    assert!(
        n >= 2 * k + 2,
        "need at least 2k+2 nodes for a k-neighbor ring"
    );
    assert!(
        (0.0..=1.0).contains(&config.rewire_probability),
        "rewire probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    let mut b = CsrBuilder::new(n).with_edge_capacity(2 * n * k);
    b.symmetric(true);
    b.dedup(true);
    for v in 0..n as u32 {
        for j in 1..=k as u32 {
            let mut target = (v + j) % n as u32;
            if rng.gen::<f64>() < config.rewire_probability {
                // Rewire to a uniform random non-self target.
                loop {
                    target = rng.gen_range(0..n as u32);
                    if target != v {
                        break;
                    }
                }
            }
            b.edge(v, target);
        }
    }
    b.build()
}

/// Convenience: the classic "six degrees" configuration — `k = 3`
/// neighbors each side, 5% rewiring.
pub fn small_world(num_nodes: usize, seed: u64) -> Csr {
    watts_strogatz(
        &WattsStrogatzConfig {
            num_nodes,
            neighbors_each_side: 3,
            rewire_probability: 0.05,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_stats, estimate_diameter};

    fn cfg(p: f64) -> WattsStrogatzConfig {
        WattsStrogatzConfig {
            num_nodes: 500,
            neighbors_each_side: 3,
            rewire_probability: p,
        }
    }

    #[test]
    fn zero_rewiring_is_a_ring_lattice() {
        let g = watts_strogatz(&cfg(0.0), 1);
        let s = degree_stats(&g);
        assert_eq!(s.max_degree, 6);
        assert_eq!(s.coefficient_of_variation, 0.0);
    }

    #[test]
    fn rewiring_shrinks_diameter() {
        let lattice = watts_strogatz(&cfg(0.0), 2);
        let world = watts_strogatz(&cfg(0.1), 2);
        let d_lattice = estimate_diameter(&lattice, 8, 3);
        let d_world = estimate_diameter(&world, 8, 3);
        assert!(
            d_world < d_lattice / 2,
            "small world {d_world} vs lattice {d_lattice}"
        );
    }

    #[test]
    fn degrees_stay_nearly_regular() {
        let g = watts_strogatz(&cfg(0.1), 4);
        let s = degree_stats(&g);
        assert!(
            s.coefficient_of_variation < 0.3,
            "CV {}",
            s.coefficient_of_variation
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(watts_strogatz(&cfg(0.2), 9), watts_strogatz(&cfg(0.2), 9));
        assert_ne!(watts_strogatz(&cfg(0.2), 9), watts_strogatz(&cfg(0.2), 10));
    }

    #[test]
    fn small_world_helper() {
        let g = small_world(100, 5);
        assert_eq!(g.num_nodes(), 100);
        assert!(g.num_edges() > 0);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn tiny_ring_rejected() {
        let _ = watts_strogatz(
            &WattsStrogatzConfig {
                num_nodes: 4,
                neighbors_each_side: 2,
                rewire_probability: 0.0,
            },
            0,
        );
    }
}
