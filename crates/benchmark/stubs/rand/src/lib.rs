//! Offline stand-in for `rand` 0.8.
//!
//! The container has no crates.io registry, so the benchmark patches the
//! workspace's `rand` dependency to this crate. It covers exactly the API
//! the workspace calls — `StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::{gen, gen_range, gen_bool}` — over a xoshiro256** stream seeded
//! through splitmix64. The stream differs from the published `StdRng`
//! (ChaCha12), so generated workloads differ from a crates.io build; they
//! are still a pure function of the seed, which is all the benchmark needs.

use std::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (the high half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)` (`[lo, hi]` when `inclusive`).
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

/// Range shapes `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(rng, lo, hi, true)
    }
}

/// `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = (hi as i128 - lo as i128) + i128::from(inclusive);
                assert!(span > 0, "gen_range: empty range");
                // 128-bit multiply-shift: bias below 2^-64 for every span
                // the workspace uses.
                let off = ((u128::from(rng.next_u64()) * span as u128) >> 64) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                unit_f64(rng) as $t
            }
        }
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "gen_range: empty range");
                let v = lo + (hi - lo) * unit_f64(rng) as $t;
                if !inclusive && v >= hi { lo } else { v }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// The user-facing sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// One value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from `range`.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Expand a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
