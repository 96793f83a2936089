//! Property tests for the DAG substrate: structural invariants over
//! randomly generated graphs, cross-checked against brute-force oracles.

use dsp_dag::{critical_path_len, generate::gen_dag, upward_ranks, Dag, DagShape, Levels};
use dsp_units::Dur;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_dag(n: usize, shape_sel: u8, seed: u64) -> Dag {
    let shape = match shape_sel % 5 {
        0 => DagShape::Independent,
        1 => DagShape::Chain,
        2 => DagShape::FanOut,
        3 => DagShape::ForkJoin,
        _ => DagShape::Layered { depth: 5 },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    gen_dag(&mut rng, n, shape, 15)
}

/// Brute-force reachability oracle.
fn reachable_oracle(dag: &Dag, from: u32, to: u32) -> bool {
    let mut seen = vec![false; dag.len()];
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        if !seen[v as usize] {
            seen[v as usize] = true;
            stack.extend(dag.children(v));
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn topo_order_is_a_valid_linearization(
        n in 1usize..40, shape in 0u8..5, seed in 0u64..500,
    ) {
        let dag = random_dag(n, shape, seed);
        let order = dag.topo_order();
        prop_assert_eq!(order.len(), n);
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for (u, v) in dag.edges() {
            prop_assert!(pos[u as usize] < pos[v as usize]);
        }
    }

    #[test]
    fn reaches_agrees_with_oracle(
        n in 1usize..25, shape in 0u8..5, seed in 0u64..500, a in 0u32..25, b in 0u32..25,
    ) {
        let dag = random_dag(n, shape, seed);
        let a = a % n as u32;
        let b = b % n as u32;
        prop_assert_eq!(dag.reaches(a, b), reachable_oracle(&dag, a, b));
        // depends_on(x, y) ⟺ y is a strict ancestor of x.
        prop_assert_eq!(dag.depends_on(a, b), a != b && reachable_oracle(&dag, b, a));
    }

    #[test]
    fn levels_increase_along_edges_and_partition_tasks(
        n in 1usize..40, shape in 0u8..5, seed in 0u64..500,
    ) {
        let dag = random_dag(n, shape, seed);
        let levels = Levels::compute(&dag);
        for (u, v) in dag.edges() {
            prop_assert!(levels.level_of(v) > levels.level_of(u));
        }
        let total: usize = levels.iter().map(|(_, m)| m.len()).sum();
        prop_assert_eq!(total, n);
        // Roots are exactly level 0.
        for v in dag.roots() {
            prop_assert_eq!(levels.level_of(v), 0);
        }
    }

    #[test]
    fn descendant_counts_match_reachability(
        n in 1usize..20, shape in 0u8..5, seed in 0u64..500,
    ) {
        let dag = random_dag(n, shape, seed);
        let counts = dag.descendant_counts();
        for v in 0..n as u32 {
            let brute = (0..n as u32)
                .filter(|&u| u != v && reachable_oracle(&dag, v, u))
                .count();
            prop_assert_eq!(counts[v as usize], brute, "task {}", v);
        }
    }

    #[test]
    fn critical_path_bounds_ranks(
        n in 1usize..30, shape in 0u8..5, seed in 0u64..500,
        secs in prop::collection::vec(1u64..100, 1..30),
    ) {
        let dag = random_dag(n, shape, seed);
        let exec: Vec<Dur> = (0..n).map(|i| Dur::from_secs(secs[i % secs.len()])).collect();
        let ranks = upward_ranks(&dag, &exec);
        let cp = critical_path_len(&dag, &exec);
        for v in 0..n {
            // Every rank includes the task's own time and never exceeds CP.
            prop_assert!(ranks[v] >= exec[v]);
            prop_assert!(ranks[v] <= cp);
        }
        // A parent's rank strictly exceeds each child's (its own time > 0).
        for (u, v) in dag.edges() {
            prop_assert!(ranks[u as usize] > ranks[v as usize]);
        }
    }
}
