//! The workspace's only random-number generator, imported as `rand`.
//!
//! The paper's evaluation replays one frozen trace; ours replays a seeded
//! generator, so the generator's stream is part of the experiment
//! definition. This crate is that stream — xoshiro256** (Blackman & Vigna)
//! seeded through splitmix64 — behind exactly the names the workspace
//! imports. Every committed golden, result and benchmark document was drawn
//! from it, and `tests.rs` pins it against the published reference vectors,
//! so it cannot drift with a lockfile. There is deliberately no entropy- or
//! thread-seeded constructor: a generator exists only where a caller passed
//! a seed. Every sampler consumes exactly one 64-bit word.

use std::ops::{Range, RangeInclusive};

#[cfg(test)]
mod tests;

/// splitmix64's increment (2^64 / φ, odd).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: advance `state` by [`GOLDEN_GAMMA`] and return the
/// mixed word. Seeds [`rngs::StdRng`]; also the workspace's seed-derivation
/// hash (`dsp_core::matrix::mix_seed`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source of random words and the samplers over it.
pub trait Rng {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// One value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::from_word(self.next_u64())
    }

    /// Uniform draw from `range` (`lo..hi` or `lo..=hi`); panics if it is empty.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        let (lo, hi, closed) = range.bounds();
        T::between(self.next_u64(), lo, hi, closed)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types [`Rng::gen`] can produce.
pub trait Standard {
    /// The value one random word maps to.
    fn from_word(word: u64) -> Self;
}

/// Types [`Rng::gen_range`] can produce.
pub trait SampleUniform: Sized {
    /// Where `word` lands in `[lo, hi)` (`[lo, hi]` when `closed`).
    fn between(word: u64, lo: Self, hi: Self, closed: bool) -> Self;
}

/// Range shapes [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// `(lo, hi, hi is included)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (lo, hi) = self.into_inner();
        (lo, hi, true)
    }
}

/// `[0, 1)` from the top 53 bits.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_word(word: u64) -> Self {
                word as $t
            }
        }
        impl SampleUniform for $t {
            fn between(word: u64, lo: Self, hi: Self, closed: bool) -> Self {
                let span = (hi as i128 - lo as i128) + i128::from(closed);
                assert!(span > 0, "gen_range: empty range");
                // 128-bit multiply-shift: bias below 2^-64 × span.
                (lo as i128 + ((u128::from(word) * span as u128) >> 64) as i128) as $t
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn from_word(word: u64) -> Self {
        unit_f64(word)
    }
}

impl SampleUniform for f64 {
    fn between(word: u64, lo: Self, hi: Self, closed: bool) -> Self {
        assert!(if closed { lo <= hi } else { lo < hi }, "gen_range: empty range");
        let v = lo + (hi - lo) * unit_f64(word);
        // The sum can round up to `hi` for a word just below 2^64.
        if !closed && v >= hi {
            lo
        } else {
            v
        }
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng {
    /// Expand a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// xoshiro256**, its four state words drawn from splitmix64 (the seeding
    /// its authors recommend: never all-zero, decorrelated across
    /// neighbouring seeds).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            StdRng { s: std::array::from_fn(|_| splitmix64(&mut x)) }
        }
    }

    impl Rng for StdRng {
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
