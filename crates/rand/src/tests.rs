//! Known-answer tests: the stream is part of the experiment definition, so
//! it is pinned against the algorithms' published reference vectors and
//! against the draws every committed result was generated from.

use super::rngs::StdRng;
use super::{splitmix64, Rng, SampleUniform, SeedableRng};
use std::panic::{catch_unwind, UnwindSafe};

/// A source stuck on one word, to drive the samplers to their edges.
struct Fixed(u64);

impl Rng for Fixed {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

#[rustfmt::skip]
const XOSHIRO256STARSTAR_FROM_1_2_3_4: [u64; 10] = [
    11520, 0, 1509978240, 1215971899390074240, 1216172134540287360, 607988272756665600,
    16172922978634559625, 8476171486693032832, 10595114339597558777, 2904607092377533576,
];

#[rustfmt::skip]
const SPLITMIX64_FROM_1477776061723855037: [u64; 5] = [
    1985237415132408290, 2979275885539914483, 13511426838097143398, 8488337342461049707,
    15141737807933549159,
];

/// The reference vectors of xoshiro256starstar.c and splitmix64.c.
#[test]
fn published_reference_vectors() {
    let mut rng = StdRng { s: [1, 2, 3, 4] };
    let drawn = XOSHIRO256STARSTAR_FROM_1_2_3_4.map(|_| rng.next_u64());
    assert_eq!(drawn, XOSHIRO256STARSTAR_FROM_1_2_3_4);
    let mut state = 1477776061723855037;
    let drawn = SPLITMIX64_FROM_1477776061723855037.map(|_| splitmix64(&mut state));
    assert_eq!(drawn, SPLITMIX64_FROM_1477776061723855037);
}

/// The stream in use since the benchmark was defined (measured from its
/// stand-in `rand` at the commit before this crate): seeding and raw words,
/// then the four samplers in sequence from a fresh generator.
#[test]
fn seed_2018_draws() {
    let mut rng = StdRng::seed_from_u64(2018);
    let words = [15249153033058981490, 17198310485526766897, 978589174733028509];
    assert_eq!(words.map(|_| rng.next_u64()), words);
    let mut rng = StdRng::seed_from_u64(2018);
    assert_eq!(rng.gen::<f64>(), 0.8266582423503233);
    assert_eq!(rng.gen_range(0u32..10), 9);
    assert_eq!(rng.gen_range(1.0f64..=2.0), 1.0530494254608174);
    assert!(rng.gen_bool(0.5));
}

#[test]
fn integer_ranges_reach_both_ends_and_nothing_else() {
    assert_eq!(Fixed(0).gen_range(3u32..7), 3);
    assert_eq!(Fixed(u64::MAX).gen_range(3u32..7), 6);
    assert_eq!(Fixed(u64::MAX).gen_range(3u32..=7), 7);
    assert_eq!(Fixed(0).gen_range(-5i64..=-5), -5);
    assert_eq!(Fixed(u64::MAX).gen_range(i64::MIN..=i64::MAX), i64::MAX);
    assert!(!Fixed(0).gen_bool(0.0) && Fixed(u64::MAX).gen_bool(1.0));
}

/// `lo + (hi - lo) * u` rounds up to `hi` for the largest `u` when the
/// range is one ulp wide; a half-open range must still exclude `hi`.
#[test]
fn half_open_float_range_excludes_hi_at_the_rounding_edge() {
    let (lo, hi) = (1.0f64, 1.0 + f64::EPSILON);
    assert_eq!(lo + (hi - lo) * ((u64::MAX >> 11) as f64 / (1u64 << 53) as f64), hi, "edge exists");
    assert_eq!(Fixed(u64::MAX).gen_range(lo..hi), lo);
    assert_eq!(Fixed(u64::MAX).gen_range(lo..=hi), hi);
    let mut rng = StdRng::seed_from_u64(1);
    assert!((0..10_000).all(|_| (0.4..2.0).contains(&rng.gen_range(0.4..2.0))));
}

/// What `gen_range(lo..hi)` / `gen_range(lo..=hi)` does with an empty range.
#[test]
fn empty_ranges_panic() {
    fn panics<T: SampleUniform + UnwindSafe>(lo: T, hi: T, closed: bool) -> bool {
        catch_unwind(|| T::between(0, lo, hi, closed)).is_err()
    }
    assert!(panics(5u32, 5, false) && panics(6i32, 5, true));
    assert!(panics(2.0, 2.0, false) && panics(2.5, 2.0, true) && panics(0.0, f64::NAN, false));
    assert!(!panics(5u32, 5, true) && !panics(2.0, 2.0, true));
}
