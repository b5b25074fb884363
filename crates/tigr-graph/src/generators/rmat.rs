//! Recursive-matrix (RMAT) power-law graph generator.

use rand::rngs::{StdRng, StdRngLanes};
use rand::SeedableRng;

use crate::chunked;
use crate::csr::Csr;
use crate::edge::NodeId;

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
/// Edge `i` is drawn from the `i`-th stretch of one seeded stream, so the
/// edges can be cut into contiguous chunks and generated in parallel,
/// each chunk's generator jumped ahead to where the sequential stream
/// would be ([`StdRng::advance`]). Within a chunk, eight lanes draw eight
/// runs of it at once where the CPU has AVX-512DQ and VL. The output is
/// the same bytes at any thread count and on any CPU. A chunk gets at
/// least 32 768 edges, so a small graph, or a one-core host, generates
/// on the calling thread alone.
///
/// # Panics
///
/// Panics if `config` holds an invalid probability simplex or a scale
/// larger than 31.
pub fn rmat(config: &RmatConfig, seed: u64) -> Csr {
    rmat_chunked(config, seed, chunked::edge_chunks(config.num_edges()))
}

/// [`rmat`] over at most `chunks` contiguous chunks of edges (one edge
/// each when there are more chunks than edges), assembled over at most
/// `chunks` source ranges. The first chunk runs on the calling thread.
pub(crate) fn rmat_chunked(config: &RmatConfig, seed: u64, chunks: usize) -> Csr {
    config.validate();
    let m = config.num_edges();
    let len = m.div_ceil(chunks.max(1)).max(1);
    let mut pairs = vec![(0u32, 0u32); m];
    let parts: Vec<_> = pairs.chunks_mut(len).enumerate().collect();
    chunked::run(parts, |(i, out)| draw_edges(config, seed, i * len, out));
    assemble(config, &pairs, chunks)
}

/// Fills `out` with edges `start..start + out.len()` of the stream
/// seeded by `seed`: eight lanes at a time where the CPU has AVX-512DQ
/// and VL, one at a time for the rest of `out` and on every other CPU.
fn draw_edges(config: &RmatConfig, seed: u64, start: usize, out: &mut [(u32, u32)]) {
    let done = draw_wide(config, seed, start, out);
    draw_lanes(
        config,
        seed,
        start + done,
        &mut out[done..],
        StdRngLanes::<1>::gen_f64s,
    );
}

/// Draws the longest prefix of `out` that eight AVX-512 lanes divide
/// when the CPU has the features, and returns its length (`0` when it
/// has not).
#[cfg(target_arch = "x86_64")]
fn draw_wide(config: &RmatConfig, seed: u64, start: usize, out: &mut [(u32, u32)]) -> usize {
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: `draw_lanes_avx512` is compiled for exactly the three
        // features detected on this CPU just above.
        unsafe { draw_lanes_avx512(config, seed, start, out) }
    } else {
        0
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn draw_wide(_: &RmatConfig, _: u64, _: usize, _: &mut [(u32, u32)]) -> usize {
    0
}

/// [`draw_lanes`] at eight lanes compiled for AVX-512: one `zmm`
/// register holds a state word, an `f64` or a comparison of all eight
/// lanes, and `vpmullq`/`vcvtqq2pd` do the 64-bit multiplies and the
/// `u64 → f64` conversions that SSE2 and AVX2 lack.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn draw_lanes_avx512(
    config: &RmatConfig,
    seed: u64,
    start: usize,
    out: &mut [(u32, u32)],
) -> usize {
    draw_lanes(config, seed, start, out, |rng: &mut StdRngLanes<8>| {
        rng.gen_f64s_avx512()
    })
}

/// Fills the first `W · ⌊out.len() / W⌋` edges of `out` — edges `start`
/// onwards of the stream seeded by `seed` — and returns how many.
/// Lane `l` draws the `l`-th of `W` contiguous runs of them, its
/// generator jumped to where the sequential stream starts that run
/// ([`StdRng::advance`]); the lanes step in lockstep, each draw taken
/// by `gen_f64s` ([`StdRngLanes::gen_f64s`] or a form of it compiled
/// for the CPU). `W = 1` is the sequential generator itself. Always
/// inlined, so the eight-lane instance is compiled for the features of
/// [`draw_lanes_avx512`], its one caller outside the tests.
///
/// Each recursion level draws four noise factors (when `noise > 0`),
/// then one uniform `r` that picks the quadrant: `q` counts the
/// cumulative thresholds `r` has passed, and its two bits are the
/// level's source and destination bits — the same `f64` expressions,
/// so the same choices, as walking the thresholds with branches.
#[inline(always)]
fn draw_lanes<const W: usize>(
    config: &RmatConfig,
    seed: u64,
    start: usize,
    out: &mut [(u32, u32)],
    gen_f64s: impl FnMut(&mut StdRngLanes<W>) -> [f64; W],
) -> usize {
    // One loop per noise setting: a run-time test inside the level loop
    // merges the noisy and the plain probabilities lane by lane, which
    // keeps the floats of eight lanes out of vector registers.
    if config.noise > 0.0 {
        draw_runs::<W, true>(config, seed, start, out, gen_f64s)
    } else {
        draw_runs::<W, false>(config, seed, start, out, gen_f64s)
    }
}

/// [`draw_lanes`] for `config.noise > 0.0 == NOISY`.
#[inline(always)]
fn draw_runs<const W: usize, const NOISY: bool>(
    config: &RmatConfig,
    seed: u64,
    start: usize,
    out: &mut [(u32, u32)],
    mut gen_f64s: impl FnMut(&mut StdRngLanes<W>) -> [f64; W],
) -> usize {
    let run = out.len() / W;
    let draws_per_edge = u128::from(config.scale) * if NOISY { 5 } else { 1 };
    let mut rng = StdRngLanes::<W>::new(std::array::from_fn(|l| {
        let mut rng = StdRng::seed_from_u64(seed);
        rng.advance((start + l * run) as u128 * draws_per_edge);
        rng
    }));
    let (lo, span) = (1.0 - config.noise, 2.0 * config.noise);
    let d = config.d();
    for edge in 0..run {
        let (mut src, mut dst) = ([0u32; W], [0u32; W]);
        for level in (0..config.scale).rev() {
            let mut p = [[config.a; W], [config.b; W], [config.c; W], [d; W]];
            if NOISY {
                // Multiplicative noise keeps the expected simplex but
                // perturbs each level, smoothing the synthetic degree
                // distribution.
                for p in &mut p {
                    let u = gen_f64s(&mut rng);
                    for l in 0..W {
                        p[l] *= lo + span * u[l];
                    }
                }
            }
            let [a, b, c, d] = p;
            let u = gen_f64s(&mut rng);
            for l in 0..W {
                let total = a[l] + b[l] + c[l] + d[l];
                let r = u[l] * total;
                let q = u32::from(r >= a[l])
                    + u32::from(r >= a[l] + b[l])
                    + u32::from(r >= a[l] + b[l] + c[l]);
                src[l] |= (q >> 1) << level;
                dst[l] |= (q & 1) << level;
            }
        }
        for l in 0..W {
            out[l * run + edge] = (src[l], dst[l]);
        }
    }
    W * run
}

/// The CSR of `pairs`: count per source, prefix sum, then per source
/// range (at most `chunks`, balanced on out-degree) a scatter of that
/// range's pairs in order and a sort — with `config.dedup`, a
/// deduplication — of each of its rows in place. Deduplicated ranges
/// are closed up afterwards on the calling thread.
fn assemble(config: &RmatConfig, pairs: &[(u32, u32)], chunks: usize) -> Csr {
    let n = config.num_nodes();
    let mut row_ptr = vec![0usize; n + 1];
    for &(src, _) in pairs {
        row_ptr[src as usize + 1] += 1;
    }
    for v in 0..n {
        row_ptr[v + 1] += row_ptr[v];
    }
    let mut cursor = row_ptr[..n].to_vec();
    let mut col_idx = vec![NodeId::new(0); pairs.len()];

    let rows = chunked::row_bounds(&row_ptr, chunks);
    let edges: Vec<usize> = rows.iter().map(|&v| row_ptr[v]).collect();
    // What each range keeps after deduplication.
    let mut kept = vec![0; rows.len() - 1];
    let jobs: Vec<_> = rows
        .iter()
        .zip(&edges)
        .zip(chunked::split_at_bounds(&mut row_ptr[..n], &rows))
        .zip(chunked::split_at_bounds(&mut cursor, &rows))
        .zip(chunked::split_at_bounds(&mut col_idx, &edges))
        .zip(kept.iter_mut())
        .map(|(((((&lo, &base), starts), cursor), cols), kept)| {
            (lo, base, starts, cursor, cols, kept)
        })
        .collect();
    chunked::run(jobs, |(lo, base, starts, cursor, cols, kept)| {
        for &(src, dst) in pairs {
            let s = (src as usize).wrapping_sub(lo);
            if s < cursor.len() {
                cols[cursor[s] - base] = NodeId::new(dst);
                cursor[s] += 1;
            }
        }
        let mut k = 0;
        for (start, &end) in starts.iter_mut().zip(cursor.iter()) {
            let (from, to) = (*start - base, end - base);
            cols[from..to].sort_unstable();
            if config.dedup {
                // `k <= from`: the compacted rows never overtake the reads.
                *start = base + k;
                let first = k;
                for i in from..to {
                    if k == first || cols[k - 1] != cols[i] {
                        cols[k] = cols[i];
                        k += 1;
                    }
                }
            }
        }
        *kept = k;
    });
    if config.dedup {
        let mut total = 0;
        for ((range, &base), &kept) in rows.windows(2).zip(&edges).zip(&kept) {
            col_idx.copy_within(base..base + kept, total);
            for start in &mut row_ptr[range[0]..range[1]] {
                *start = *start - base + total;
            }
            total += kept;
        }
        row_ptr[n] = total;
        col_idx.truncate(total);
    }
    Csr::from_parts(row_ptr, col_idx, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    /// FNV-1a over the CSR's bytes: `row_ptr` as little-endian `u64`s,
    /// then `col_idx` as little-endian `u32`s.
    fn digest(g: &Csr) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for &p in g.row_ptr() {
            eat(&(p as u64).to_le_bytes());
        }
        for t in g.col_idx() {
            eat(&t.raw().to_le_bytes());
        }
        h
    }

    /// The configurations whose generated bytes are pinned: every preset,
    /// noise off and dedup on, at every scale from 6 to 17 —
    /// `graph500(17, 16)` seed 1 is the `rmat:17:16` serving graph.
    fn pinned_cases() -> Vec<(RmatConfig, u64, u64)> {
        let quiet = |scale, ef| RmatConfig {
            noise: 0.0,
            ..RmatConfig::graph500(scale, ef)
        };
        let dedup = |cfg: RmatConfig| RmatConfig { dedup: true, ..cfg };
        vec![
            (RmatConfig::graph500(6, 16), 1, 0x0ecc_fe53_9d27_88b4),
            (RmatConfig::graph500(9, 16), 2, 0x125e_05b1_40db_77cb),
            (RmatConfig::graph500(12, 16), 3, 0xe68a_a788_4bcf_98bf),
            (RmatConfig::graph500(15, 16), 4, 0xc1c5_ad04_87d3_9313),
            (RmatConfig::graph500(17, 16), 1, 0x7a61_661a_bc19_7f76),
            (RmatConfig::heavy_tail(7, 8), 5, 0x4737_05d6_1f1a_c269),
            (RmatConfig::heavy_tail(10, 8), 6, 0xaae5_87a2_db70_de0b),
            (RmatConfig::heavy_tail(13, 8), 7, 0x53e4_cbbf_d288_573f),
            (RmatConfig::heavy_tail(16, 8), 8, 0xa3b9_8cf1_41f3_c873),
            (quiet(8, 4), 9, 0x48c0_0590_7b44_68e7),
            (quiet(11, 4), 10, 0x0c6c_daba_ee07_1835),
            (quiet(14, 4), 11, 0xb6db_8b22_7877_4dbe),
            (
                dedup(RmatConfig::graph500(6, 16)),
                12,
                0x55de_9116_1c7c_b0b0,
            ),
            (
                dedup(RmatConfig::graph500(12, 16)),
                13,
                0x0ad4_c823_43d7_db65,
            ),
            (
                dedup(RmatConfig::heavy_tail(14, 8)),
                14,
                0x024c_5d29_9a48_69c4,
            ),
        ]
    }

    #[test]
    fn generated_bytes_are_pinned() {
        for (cfg, seed, want) in pinned_cases() {
            let got = digest(&rmat(&cfg, seed));
            assert_eq!(got, want, "{cfg:?} seed {seed}: {got:#018x}");
        }
    }

    #[test]
    fn chunk_count_never_changes_the_bytes() {
        for (cfg, seed, want) in pinned_cases().into_iter().filter(|c| c.0.scale <= 15) {
            for chunks in [1, 2, 3, 7] {
                let got = digest(&rmat_chunked(&cfg, seed, chunks));
                assert_eq!(got, want, "{cfg:?} seed {seed} at {chunks} chunks");
            }
        }
        let tiny = RmatConfig::graph500(2, 1);
        let one = rmat_chunked(&tiny, 4, 1);
        assert_eq!(rmat_chunked(&tiny, 4, 2 * tiny.num_edges() + 1), one);
        assert_eq!(rmat(&tiny, 4), one);
    }

    /// The lane loop called directly at `W` lanes, in chunks of `len`
    /// edges, the rest of each chunk drawn by one lane as `draw_edges`
    /// draws it, on the portable lanes: what any CPU draws.
    fn draw_in_lanes<const W: usize>(cfg: &RmatConfig, seed: u64, len: usize) -> Vec<(u32, u32)> {
        let mut pairs = vec![(0, 0); cfg.num_edges()];
        for (i, chunk) in pairs.chunks_mut(len).enumerate() {
            let start = i * len;
            let done = draw_lanes::<W>(cfg, seed, start, chunk, StdRngLanes::gen_f64s);
            let rest = &mut chunk[done..];
            assert!(rest.len() < W, "{W} lanes left {} edges", rest.len());
            draw_lanes::<1>(cfg, seed, start + done, rest, StdRngLanes::gen_f64s);
        }
        pairs
    }

    #[test]
    fn one_and_eight_lanes_draw_the_pinned_bytes() {
        for (cfg, seed, want) in pinned_cases().into_iter().filter(|c| c.0.scale <= 15) {
            let m = cfg.num_edges();
            // Odd chunk lengths, which eight does not divide: every chunk
            // has a tail.
            for len in [(m / 3) | 1, 1003] {
                for (w, pairs) in [
                    (1, draw_in_lanes::<1>(&cfg, seed, len)),
                    (8, draw_in_lanes::<8>(&cfg, seed, len)),
                ] {
                    let got = digest(&assemble(&cfg, &pairs, 1));
                    assert_eq!(got, want, "{cfg:?} seed {seed}, {w} lanes, chunks of {len}");
                }
            }
        }
    }

    #[test]
    fn assemble_chunk_count_never_changes_the_csr() {
        for dedup in [false, true] {
            let config = RmatConfig {
                dedup,
                ..RmatConfig::heavy_tail(9, 8)
            };
            let mut pairs = vec![(0, 0); config.num_edges()];
            draw_edges(&config, 17, 0, &mut pairs);
            // The plain way: an edge list through the builder.
            let mut b = crate::CsrBuilder::from_edges(
                config.num_nodes(),
                pairs
                    .iter()
                    .map(|&(s, d)| crate::Edge::unweighted(NodeId::new(s), NodeId::new(d))),
            );
            b.dedup(dedup);
            let want = b.build();
            for chunks in [1, 2, 3, 7] {
                assert_eq!(
                    assemble(&config, &pairs, chunks),
                    want,
                    "dedup {dedup}, {chunks} chunks"
                );
            }
        }
    }

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
