//! The workspace's property-test harness, imported as `proptest` by test
//! targets only. It implements what the suites use and nothing else.
//!
//! Runs are reproducible by construction: a test's cases are drawn from
//! seeds derived from its name through the workspace generator — no
//! environment variable, clock or regression file takes part — so a
//! failure report names the case seed and repeats exactly on every rerun.
//!
//! Shrinking is by halving, in one place for every strategy: a case is the
//! sequence of random words its draws consumed, and a failing case is
//! re-drawn with one word at a time set to zero, else halved, for as long
//! as it still fails. The samplers are monotone in the word, so that moves
//! a number towards the low end of its range and a vector towards its
//! minimum length (keeping its prefix). Words are visited once, in order:
//! the result is a small counterexample, not the smallest.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What `use proptest::prelude::*` brings into a suite.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// How one `proptest!` block runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases drawn per test.
    pub cases: u32,
    /// Upper bound on re-runs spent shrinking one failure.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 256 }
    }
}

/// The random words of one case: replayed from `words` while they last,
/// then drawn fresh and recorded.
pub struct Source {
    words: Vec<u64>,
    used: usize,
    fresh: StdRng,
}

impl Rng for Source {
    fn next_u64(&mut self) -> u64 {
        if self.used == self.words.len() {
            self.words.push(self.fresh.next_u64());
        }
        self.used += 1;
        self.words[self.used - 1]
    }
}

/// A recipe for drawing one test input.
pub trait Strategy {
    /// What the test body receives.
    type Value: Debug;
    /// Draw one input; smaller words must give simpler values.
    fn draw(&self, source: &mut Source) -> Self::Value;
}

impl<T: SampleUniform + Clone + Debug> Strategy for Range<T> {
    type Value = T;
    fn draw(&self, source: &mut Source) -> T {
        source.gen_range(self.clone())
    }
}

/// A pair draws left, then right.
impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn draw(&self, source: &mut Source) -> Self::Value {
        let left = self.0.draw(source);
        (left, self.1.draw(source))
    }
}

/// Boolean strategies.
pub mod bool {
    /// Either value; shrinks to `false`.
    pub const ANY: Any = Any;
    /// The type of [`ANY`].
    pub struct Any;
}

impl Strategy for bool::Any {
    type Value = std::primitive::bool;
    fn draw(&self, source: &mut Source) -> Self::Value {
        !source.gen_bool(0.5)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Rng, Source, Strategy};
    use std::ops::Range;

    /// See [`vec()`].
    pub struct VecStrategy<S>(S, Range<usize>);

    /// Vectors of `element` draws whose length lies in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy(element, len)
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn draw(&self, source: &mut Source) -> Self::Value {
            let len = source.gen_range(self.1.clone());
            (0..len).map(|_| self.0.draw(source)).collect()
        }
    }
}

/// Run a test body; `Some(why)` if it returned an error or panicked.
pub fn failure(body: impl FnOnce() -> Result<(), String>) -> Option<String> {
    // The panic hook has already printed a panicking body's message.
    let caught = catch_unwind(AssertUnwindSafe(body));
    caught.unwrap_or_else(|_| Err("the body panicked (its last message above)".into())).err()
}

/// Run `case` on `config.cases` word sources seeded from the test's `name`.
/// A case draws its inputs from the source and returns them rendered, with
/// the [`failure`] of the body on them. The first failing case is shrunk and
/// reported with its case seed.
pub fn check(
    config: &ProptestConfig,
    name: &str,
    case: impl Fn(&mut Source) -> (String, Option<String>),
) -> Result<(), String> {
    let mut seeds = name.bytes().fold(0, |h, b| rand::splitmix64(&mut (h ^ u64::from(b))));
    for index in 0..config.cases {
        let case_seed = rand::splitmix64(&mut seeds);
        let run = |words: Vec<u64>| {
            let mut source = Source { words, used: 0, fresh: StdRng::seed_from_u64(case_seed) };
            let (inputs, failed) = case(&mut source);
            source.words.truncate(source.used);
            failed.map(|why| (source.words, inputs, why))
        };
        let Some((mut words, mut inputs, mut why)) = run(Vec::new()) else { continue };
        let (mut at, mut reruns, budget) = (0, 0, config.max_shrink_iters);
        while at < words.len() {
            let mut still_failing = None;
            for smaller in [0, words[at] / 2] {
                if smaller < words[at] && still_failing.is_none() && reruns < budget {
                    reruns += 1;
                    let mut simpler = words.clone();
                    simpler[at] = smaller;
                    still_failing = run(simpler);
                }
            }
            match still_failing {
                Some(simpler) => (words, inputs, why) = simpler,
                None => at += 1,
            }
        }
        return Err(format!(
            "{name}: case {index} of {} failed, case seed {case_seed:#018x}\n\
             inputs after {reruns} shrink re-runs: {inputs}\n{why}",
            config.cases
        ));
    }
    Ok(())
}

/// A block of property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `fn name()` that draws the arguments, runs the body once per
/// case and panics with [`check`]'s report if one fails.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let name = concat!(module_path!(), "::", stringify!($name));
            $crate::check(&$config, name, |source| {
                $(let $arg = $crate::Strategy::draw(&$strategy, source);)+
                let inputs = format!(concat!($(stringify!($arg), " = {:?}; "),+), $(&$arg),+);
                (inputs, $crate::failure(move || {
                    $body;
                    Ok(())
                }))
            })
            .unwrap_or_else(|report| panic!("{report}"));
        }
    )*};
}

/// Fail the case unless `cond` holds; an optional format message follows.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!("{}\n  at {}:{}", format_args!($($fmt)+), file!(), line!()));
        }
    };
}

/// Fail the case unless the two sides are equal, showing both.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "assertion failed: left == right")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}\n  left: {left:?}\n right: {right:?}",
            format_args!($($fmt)+)
        )
    }};
}
