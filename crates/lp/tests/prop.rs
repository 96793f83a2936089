//! Property tests for the LP/MILP solver: on randomly generated
//! feasible-by-construction programs, the simplex must return a feasible
//! point at least as good as the construction witness, and branch-and-bound
//! must respect integrality, never beat the relaxation, and match the
//! optimum found by enumerating every integer point of the box.

use dsp_lp::{solve_lp, solve_milp, Cmp, MilpOptions, Problem, Sense, Status};
use proptest::prelude::*;

/// Build `min c·x  s.t.  A x ≤ b, 0 ≤ x ≤ 10` where `b = A·x0 + slack` for
/// a known witness `x0` — feasible by construction. `integer` marks every
/// variable integral (the witness is, and the box keeps the search finite).
fn feasible_lp(
    integer: bool,
    n: usize,
    m: usize,
    a_vals: &[i32],
    x0_vals: &[i32],
    c_vals: &[i32],
    slack: &[i32],
) -> (Problem, Vec<f64>, f64) {
    let mut p = Problem::new(Sense::Min);
    let x0: Vec<f64> = (0..n).map(|i| (x0_vals[i % x0_vals.len()].rem_euclid(11)) as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| (c_vals[i % c_vals.len()] % 7) as f64).collect();
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let name = format!("x{i}");
            if integer {
                p.add_int_var(name, 0.0, 10.0, c[i])
            } else {
                p.add_var(name, 0.0, 10.0, c[i])
            }
        })
        .collect();
    for r in 0..m {
        let coeffs: Vec<f64> =
            (0..n).map(|i| (a_vals[(r * n + i) % a_vals.len()] % 5) as f64).collect();
        let lhs0: f64 = coeffs.iter().zip(&x0).map(|(a, x)| a * x).sum();
        let b = lhs0 + (slack[r % slack.len()].rem_euclid(4)) as f64;
        p.add_constraint(format!("c{r}"), vars.iter().copied().zip(coeffs).collect(), Cmp::Le, b);
    }
    let witness_obj = c.iter().zip(&x0).map(|(ci, xi)| ci * xi).sum();
    (p, x0, witness_obj)
}

/// Solve the integer `feasible_lp` and hold its answer to exhaustive
/// enumeration: all 11ⁿ integer points of the box `[0, 10]ⁿ`. The MILP must
/// prove optimality and land within 1e-6 of the least feasible objective.
fn milp_matches_enumeration(
    n: usize,
    m: usize,
    a_vals: &[i32],
    x0_vals: &[i32],
    c_vals: &[i32],
    slack: &[i32],
) -> Result<(), String> {
    let (p, _x0, _w) = feasible_lp(true, n, m, a_vals, x0_vals, c_vals, slack);
    let milp = solve_milp(&p, MilpOptions::default()).map_err(|e| format!("solve_milp: {e}"))?;
    prop_assert_eq!(milp.status, Status::Optimal);
    let mut x = vec![0.0; n];
    let mut least = f64::INFINITY;
    for code in 0..11usize.pow(n as u32) {
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = (code / 11usize.pow(i as u32) % 11) as f64;
        }
        if p.is_feasible(&x, 1e-6) {
            least = least.min(p.objective_value(&x));
        }
    }
    prop_assert!(
        (milp.objective - least).abs() <= 1e-6,
        "MILP {} at {:?}, enumeration {least}",
        milp.objective,
        milp.x
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn simplex_beats_witness_and_stays_feasible(
        n in 1usize..6,
        m in 1usize..6,
        a_vals in prop::collection::vec(-10i32..10, 1..36),
        x0_vals in prop::collection::vec(0i32..11, 1..6),
        c_vals in prop::collection::vec(-10i32..10, 1..6),
        slack in prop::collection::vec(0i32..4, 1..6),
    ) {
        let (p, x0, witness_obj) = feasible_lp(false, n, m, &a_vals, &x0_vals, &c_vals, &slack);
        let sol = solve_lp(&p).expect("constructed LP is feasible and bounded (box vars)");
        prop_assert!(p.is_feasible(&sol.x, 1e-6), "infeasible answer {:?}", sol.x);
        prop_assert!(
            sol.objective <= witness_obj + 1e-6,
            "optimum {} worse than witness {} at {:?}",
            sol.objective, witness_obj, x0
        );
    }

    #[test]
    fn milp_is_integral_feasible_and_bounded_by_relaxation(
        n in 1usize..5,
        m in 1usize..5,
        a_vals in prop::collection::vec(0i32..5, 1..25),
        x0_vals in prop::collection::vec(0i32..4, 1..5),
        c_vals in prop::collection::vec(-5i32..5, 1..5),
        slack in prop::collection::vec(0i32..4, 1..5),
    ) {
        let (p, _x0, _w) = feasible_lp(true, n, m, &a_vals, &x0_vals, &c_vals, &slack);
        let relax = solve_lp(&p).expect("relaxation feasible");
        let milp = solve_milp(&p, MilpOptions::default()).expect("integral point exists (x0 integral)");
        prop_assert!(p.is_feasible(&milp.x, 1e-6));
        for &xi in &milp.x {
            prop_assert!((xi - xi.round()).abs() < 1e-6, "non-integral {xi}");
        }
        // Minimization: the MILP optimum can never beat its relaxation.
        prop_assert!(milp.objective >= relax.objective - 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn milp_optimum_matches_enumeration(
        n in 1usize..5,
        m in 1usize..5,
        a_vals in prop::collection::vec(0i32..5, 1..25),
        x0_vals in prop::collection::vec(0i32..4, 1..5),
        c_vals in prop::collection::vec(-5i32..5, 1..5),
        slack in prop::collection::vec(0i32..4, 1..5),
    ) {
        milp_matches_enumeration(n, m, &a_vals, &x0_vals, &c_vals, &slack)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// The same oracle, 16× wider (≈ 1 s optimized):
    /// `cargo test --release -p dsp-lp --test prop -- --ignored`.
    #[test]
    #[ignore = "4 096 enumerated optima; nightly runs it"]
    fn milp_optimum_matches_enumeration_wide(
        n in 1usize..5,
        m in 1usize..5,
        a_vals in prop::collection::vec(0i32..5, 1..25),
        x0_vals in prop::collection::vec(0i32..4, 1..5),
        c_vals in prop::collection::vec(-5i32..5, 1..5),
        slack in prop::collection::vec(0i32..4, 1..5),
    ) {
        milp_matches_enumeration(n, m, &a_vals, &x0_vals, &c_vals, &slack)?;
    }
}
