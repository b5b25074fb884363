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
//! golden digests (`tests/simulator_golden.rs`) and the checksums
//! `scripts/verify.sh` compares all move if a single draw does. Changing
//! the generator, its seeding or a sampling formula here is a change to
//! every generated graph.
//!
//! The one extension beyond `rand` 0.8 is [`rngs::StdRng::advance`], an
//! exact jump ahead by any number of draws. xoshiro256** is linear over
//! GF(2), so skipping `k` draws costs a polynomial power modulo its
//! characteristic polynomial instead of `k` steps. The R-MAT generator
//! uses it to start each parallel chunk where the sequential stream
//! would be, which keeps its output byte-identical at any thread count.

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
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
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
    use super::{RngCore, SeedableRng};

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

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{StdRng, CHAR_POLY};
        use crate::{RngCore, SeedableRng};

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
