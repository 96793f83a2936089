//! The harness held to its own contract: a deliberately false property
//! fails with its case seed and shrunk inputs, a panicking body counts as a
//! failure, and the report is the same on every run.

use dsp_proptest::prelude::*;
use dsp_proptest::{check, failure};

/// "Every drawn number is below 100" over `0..1000`: false, on purpose.
fn false_property(name: &str) -> String {
    let config = ProptestConfig { cases: 64, ..ProptestConfig::default() };
    let case = |source: &mut _| {
        let x = (0u32..1000).draw(source);
        let body = || {
            prop_assert!(x < 100, "{} is not below 100", x);
            Ok(())
        };
        (format!("x = {x}"), failure(body))
    };
    check(&config, name, case).expect_err("the property is false")
}

#[test]
fn a_false_property_fails_with_seed_and_shrunk_input_reproducibly() {
    let report = false_property("harness::false");
    assert!(report.starts_with("harness::false: case "), "{report}");
    assert!(report.contains("case seed 0x"), "{report}");
    // Halving stops in [100, 200): one more halving would pass.
    let shrunk = report.split("re-runs: x = ").nth(1).and_then(|rest| rest.lines().next());
    let shrunk: u32 = shrunk.and_then(|x| x.parse().ok()).expect("`… re-runs: x = N`");
    assert!((100..200).contains(&shrunk), "not shrunk by halving: {report}");
    assert!(
        report.contains(&format!("\n{shrunk} is not below 100\n  at {}:", file!())),
        "{report}"
    );
    assert_eq!(false_property("harness::false"), report, "the report must not vary by run");
    assert_ne!(
        false_property("harness::other"),
        report.replace("false", "other"),
        "seeds follow names"
    );
}

#[test]
fn a_panicking_body_is_shrunk_like_a_failed_assertion_within_the_budget() {
    let runs = std::cell::Cell::new(0);
    let case = |source: &mut _| {
        let v = prop::collection::vec(0i32..50, 3..20).draw(source);
        runs.set(runs.get() + 1);
        (format!("{v:?}"), failure(|| panic!("library code panicked on {} items", v.len())))
    };
    let config = ProptestConfig { cases: 16, ..ProptestConfig::default() };
    let report = check(&config, "harness::panics", case).expect_err("always panics");
    assert!(report.contains("case 0 of 16") && report.contains("the body panicked"), "{report}");
    assert!(report.contains("re-runs: [0, 0, 0]\n"), "minimum length, lowest elements: {report}");
    runs.set(0);
    let config = ProptestConfig { cases: 16, max_shrink_iters: 3 };
    let report = check(&config, "harness::panics", case).expect_err("always panics");
    assert!(report.contains("after 3 shrink re-runs") && runs.get() == 1 + 3, "{report}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The block form the suites use, failing: arguments are reported by
    /// name, each shrunk to the low end of its strategy.
    #[test]
    #[should_panic(expected = "re-runs: n = 1; pairs = [(0, 10.0)]; flag = false; \n")]
    fn a_failing_macro_test_panics_with_its_shrunk_inputs(
        n in 1usize..5,
        pairs in prop::collection::vec((0u64..10, 10.0f64..20.0), 1..5),
        flag in prop::bool::ANY,
    ) {
        prop_assert_eq!(n + pairs.len() + usize::from(flag), 0, "context {}", n);
    }
}
