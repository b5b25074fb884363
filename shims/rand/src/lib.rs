//! Offline stand-in for `rand` 0.8.
//!
//! Implements the exact API surface the workspace uses —
//! `StdRng::seed_from_u64`, `Rng::gen::<f64>()`, and
//! `Rng::gen_range(..)` over integer ranges — on top of a xoshiro256**
//! generator seeded through SplitMix64. Streams are deterministic per
//! seed but intentionally differ from upstream `rand`'s ChaCha12 streams.
//!
//! The stream itself is pinned in-tree: the R-MAT generator's byte
//! digests (`tigr-graph`'s `generators::rmat` tests), the simulator's
//! golden digests (`tests/simulator_golden.rs`) and the workload
//! checksums (`tests/workload_checksums.rs`) all move if a single draw
//! does. Changing the generator, its seeding or a sampling formula here
//! is a change to every generated graph.
//!
//! Two extensions go beyond `rand` 0.8. [`rngs::StdRng::advance`] is an
//! exact jump ahead by any number of draws. xoshiro256** is linear over
//! GF(2), so skipping `k` draws costs a polynomial power modulo its
//! characteristic polynomial instead of `k` steps. [`rngs::StdRngLanes`]
//! steps `W` such generators in lockstep, one state word per array, so a
//! caller compiled for wide vectors draws `W` numbers per instruction.
//! The R-MAT generator uses both: each parallel chunk, and each lane
//! within it, starts where the sequential stream would be, which keeps
//! its output byte-identical at any thread count and on any CPU.

use std::ops::{Range, RangeInclusive};

/// Core trait: a source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding entry points (only `seed_from_u64` is used in-tree).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of a [`Standard`]-distributed type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from an integer range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable from the "standard" distribution.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// The `f64` in `[0, 1)` a draw of `bits` samples: its 53 high bits as
/// the mantissa.
#[inline(always)]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

fn uniform_below<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Multiply-shift (Lemire) without the rejection step: the bias is
    // below 2^-64 · span, irrelevant for test-data generation.
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}
range_impls!(u8, u16, u32, u64, usize);

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{unit_f64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256** seeded via
    /// SplitMix64. Deterministic per seed; not cryptographic.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// The characteristic polynomial of the xoshiro256 state transition,
    /// `x^256 + Σ CHAR_POLY[i / 64] bit (i % 64) · x^i`: the `x^256` term
    /// is implicit. Re-derived in the tests by Berlekamp–Massey.
    const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// A polynomial over GF(2) of degree below 256, coefficient `i` in
    /// bit `i % 64` of word `i / 64`.
    type Poly = [u64; 4];

    /// `p · x mod CHAR_POLY`.
    fn times_x(p: Poly) -> Poly {
        let carry = p[3] >> 63;
        let mut out = [
            p[0] << 1,
            p[1] << 1 | p[0] >> 63,
            p[2] << 1 | p[1] >> 63,
            p[3] << 1 | p[2] >> 63,
        ];
        if carry == 1 {
            for (o, c) in out.iter_mut().zip(CHAR_POLY) {
                *o ^= c;
            }
        }
        out
    }

    /// `a · b mod CHAR_POLY`.
    fn mul_mod(a: Poly, mut b: Poly) -> Poly {
        let mut acc = [0u64; 4];
        for i in 0..256 {
            if a[i / 64] >> (i % 64) & 1 == 1 {
                for (x, y) in acc.iter_mut().zip(b) {
                    *x ^= y;
                }
            }
            b = times_x(b);
        }
        acc
    }

    /// `x^k mod CHAR_POLY`, by left-to-right square-and-multiply.
    fn x_pow_mod(k: u128) -> Poly {
        let mut r: Poly = [1, 0, 0, 0];
        for bit in (0..128 - k.leading_zeros()).rev() {
            r = mul_mod(r, r);
            if k >> bit & 1 == 1 {
                r = times_x(r);
            }
        }
        r
    }

    impl StdRng {
        /// Moves the generator `draws` steps ahead: afterwards it is in
        /// the state `draws` calls of [`RngCore::next_u64`] would have
        /// left it in. Costs a fraction of a millisecond for any
        /// `draws`.
        ///
        /// Not part of `rand` 0.8. The state transition `T` is linear
        /// over GF(2), so `T^k = q(T)` for `q = x^k mod` its
        /// characteristic polynomial (Cayley–Hamilton); `q(T)·s` is the
        /// standard jump loop, which XORs together the states `T^i·s`
        /// of the set coefficients of `q` (Haramoto et al., "Efficient
        /// jump ahead for F2-linear random number generators", 2008).
        pub fn advance(&mut self, draws: u128) {
            let jump = x_pow_mod(draws);
            let mut acc = [0u64; 4];
            for word in jump {
                for bit in 0..64 {
                    if word >> bit & 1 == 1 {
                        for (a, s) in acc.iter_mut().zip(self.s) {
                            *a ^= s;
                        }
                    }
                    self.next_u64();
                }
            }
            self.s = acc;
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    /// One xoshiro256** step of `W` generators, the state held as one
    /// array of lanes per state word: returns each lane's output and
    /// leaves its next state in place. [`StdRng`] steps through it at
    /// `W = 1`, so a lane of [`StdRngLanes`] is the same stream.
    #[inline(always)]
    fn step<const W: usize>(s: &mut [[u64; W]; 4]) -> [u64; W] {
        let [s0, s1, s2, s3] = s;
        let mut result = [0; W];
        let mut t = [0; W];
        for l in 0..W {
            result[l] = s1[l].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            t[l] = s1[l] << 17;
        }
        for l in 0..W {
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t[l];
            s3[l] = s3[l].rotate_left(45);
        }
        result
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let mut s = self.s.map(|word| [word]);
            let [result] = step(&mut s);
            self.s = s.map(|[word]| word);
            result
        }
    }

    /// `W` [`StdRng`] streams stepped in lockstep: lane `l` of every draw
    /// is the next draw of the stream it was built from. The state is
    /// held as structure of arrays, one `[u64; W]` per xoshiro word, the
    /// layout of a vector register per word at `W = 8` under AVX-512
    /// ([`gen_f64s_avx512`](StdRngLanes::gen_f64s_avx512)).
    ///
    /// Not part of `rand` 0.8.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRngLanes<const W: usize> {
        s: [[u64; W]; 4],
    }

    impl<const W: usize> StdRngLanes<W> {
        /// The lanes of `streams`, lane `l` continuing `streams[l]`.
        pub fn new(streams: [StdRng; W]) -> Self {
            let mut s = [[0; W]; 4];
            for (l, rng) in streams.iter().enumerate() {
                for (word, &v) in s.iter_mut().zip(&rng.s) {
                    word[l] = v;
                }
            }
            StdRngLanes { s }
        }

        /// The next `f64` in `[0, 1)` of every lane: `gen::<f64>()` of
        /// each lane's stream.
        #[inline(always)]
        pub fn gen_f64s(&mut self) -> [f64; W] {
            let bits = step(&mut self.s);
            let mut out = [0.0; W];
            for l in 0..W {
                out[l] = unit_f64(bits[l]);
            }
            out
        }
    }

    #[cfg(target_arch = "x86_64")]
    impl StdRngLanes<8> {
        /// [`gen_f64s`](Self::gen_f64s) in AVX-512 intrinsics, for a
        /// caller compiled for AVX-512F and DQ: the same draws, but once
        /// a loop of calls is inlined the state stays in four `zmm`
        /// registers whatever the optimiser's pipeline. The portable form
        /// leaves that to the auto-vectoriser, which under fat LTO moves
        /// the state through scalar registers on every step.
        ///
        /// # Safety
        ///
        /// The CPU must have AVX-512F and DQ. A caller compiled for
        /// both calls it as a safe function; any other caller must
        /// detect them first (`is_x86_feature_detected!`).
        #[target_feature(enable = "avx512f,avx512dq")]
        #[inline]
        pub fn gen_f64s_avx512(&mut self) -> [f64; 8] {
            use std::arch::x86_64::{
                __m512d, __m512i, _mm512_cvtepu64_pd, _mm512_mul_pd, _mm512_mullo_epi64,
                _mm512_rol_epi64, _mm512_set1_epi64, _mm512_set1_pd, _mm512_slli_epi64,
                _mm512_srli_epi64, _mm512_xor_si512,
            };
            // SAFETY: both are 256 bytes of plain integers, every bit
            // pattern a valid value of either.
            let [mut s0, mut s1, mut s2, mut s3] =
                unsafe { std::mem::transmute::<[[u64; 8]; 4], [__m512i; 4]>(self.s) };
            let times5 = _mm512_mullo_epi64(s1, _mm512_set1_epi64(5));
            let result = _mm512_mullo_epi64(_mm512_rol_epi64::<7>(times5), _mm512_set1_epi64(9));
            let t = _mm512_slli_epi64::<17>(s1);
            s2 = _mm512_xor_si512(s2, s0);
            s3 = _mm512_xor_si512(s3, s1);
            s1 = _mm512_xor_si512(s1, s2);
            s0 = _mm512_xor_si512(s0, s3);
            s2 = _mm512_xor_si512(s2, t);
            s3 = _mm512_rol_epi64::<45>(s3);
            // SAFETY: as above.
            self.s =
                unsafe { std::mem::transmute::<[__m512i; 4], [[u64; 8]; 4]>([s0, s1, s2, s3]) };
            let unit = _mm512_mul_pd(
                _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(result)),
                _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
            );
            // SAFETY: 64 bytes either way, every bit pattern a valid
            // value of either.
            unsafe { std::mem::transmute::<__m512d, [f64; 8]>(unit) }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{StdRng, StdRngLanes, CHAR_POLY};
        use crate::{Rng, RngCore, SeedableRng};

        #[test]
        fn advance_is_that_many_draws() {
            for k in [0u64, 1, 63, 64, 85, 1_000_003] {
                let mut stepped = StdRng::seed_from_u64(k ^ 0xA5);
                let mut jumped = stepped.clone();
                for _ in 0..k {
                    stepped.next_u64();
                }
                jumped.advance(u128::from(k));
                assert_eq!(jumped, stepped, "k = {k}");
            }
        }

        #[test]
        fn lanes_are_streams_jumped_to_the_same_offsets() {
            fn check<const W: usize>() {
                let mut streams: [StdRng; W] = std::array::from_fn(|l| {
                    let mut rng = StdRng::seed_from_u64(5);
                    rng.advance(1_000 * l as u128 + 7);
                    rng
                });
                let mut lanes = StdRngLanes::new(streams.clone());
                for draw in 0..300 {
                    let got = lanes.gen_f64s();
                    for (l, rng) in streams.iter_mut().enumerate() {
                        let want = rng.gen::<f64>();
                        assert_eq!(
                            got[l].to_bits(),
                            want.to_bits(),
                            "W {W} lane {l} draw {draw}"
                        );
                    }
                }
                assert_eq!(lanes, StdRngLanes::new(streams), "W {W}: the whole state");
            }
            check::<1>();
            check::<3>();
            check::<8>();
        }

        #[cfg(target_arch = "x86_64")]
        #[test]
        fn avx512_lanes_draw_what_the_portable_lanes_draw() {
            if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")) {
                println!("unverified: this CPU lacks AVX-512F/DQ");
                return;
            }
            let streams: [StdRng; 8] = std::array::from_fn(|l| {
                let mut rng = StdRng::seed_from_u64(6);
                rng.advance(1 << (3 * l));
                rng
            });
            let mut portable = StdRngLanes::new(streams.clone());
            let mut wide = StdRngLanes::new(streams);
            for draw in 0..300 {
                // SAFETY: the CPU has the features, checked above.
                let got = unsafe { wide.gen_f64s_avx512() };
                let want = portable.gen_f64s();
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "draw {draw}");
            }
            assert_eq!(wide, portable);
        }

        #[test]
        fn advances_compose() {
            let (a, b) = ((1u128 << 40) + 12_345, (1u128 << 40) - 777);
            let mut split = StdRng::seed_from_u64(3);
            let mut whole = split.clone();
            split.advance(a);
            split.advance(b);
            whole.advance(a + b);
            assert_eq!(split, whole);
            assert_ne!(split, StdRng::seed_from_u64(3));
        }

        /// The embedded polynomial is the minimal polynomial of one state
        /// bit's sequence, found by Berlekamp–Massey over 512 steps: the
        /// linear complexity of a full-period xoshiro256 bit is 256, so
        /// 2 · 256 terms determine it.
        #[test]
        fn char_poly_is_the_berlekamp_massey_polynomial() {
            let mut rng = StdRng::seed_from_u64(11);
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let bit = rng.s[0] as u8 & 1;
                    rng.next_u64();
                    bit
                })
                .collect();
            // Connection polynomial C(x) = 1 + c_1 x + … + c_L x^L.
            let (mut c, mut b) = (vec![1u8], vec![1u8]);
            let (mut len, mut gap) = (0usize, 1usize);
            for n in 0..bits.len() {
                let discrepancy = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
                if discrepancy == 0 {
                    gap += 1;
                    continue;
                }
                let before = c.clone();
                c.resize(c.len().max(b.len() + gap), 0);
                for (i, &bi) in b.iter().enumerate() {
                    c[i + gap] ^= bi;
                }
                if 2 * len <= n {
                    len = n + 1 - len;
                    b = before;
                    gap = 1;
                } else {
                    gap += 1;
                }
            }
            assert_eq!(len, 256, "linear complexity");
            // The characteristic polynomial is C reversed: x^256 · C(1/x).
            let mut low = [0u64; 4];
            for (i, &ci) in c.iter().enumerate().take(len + 1).skip(1) {
                let power = len - i;
                low[power / 64] |= u64::from(ci) << (power % 64);
            }
            assert_eq!(low, CHAR_POLY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(1u32..=9);
            assert!((1..=9).contains(&w));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
    }

    #[test]
    fn f64_is_a_unit_fraction() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut acc = 0.0;
        for _ in 0..1000 {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            acc += x;
        }
        assert!((acc / 1000.0 - 0.5).abs() < 0.05, "mean {}", acc / 1000.0);
    }
}
