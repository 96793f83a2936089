//! Property tests for the trace substrate: the window-rule DAG builder and
//! the workload generator must uphold the paper's structural caps on any
//! input.

use dsp_dag::{validate_job, Levels};
use dsp_trace::{
    build_dag_from_windows, generate_workload, TraceParams, MAX_IN_DEGREE, MAX_LEVELS,
    MAX_OUT_DEGREE,
};
use dsp_units::Time;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn window_rule_edges_never_overlap(
        raw in prop::collection::vec((0u64..1_000, 1u64..500), 0..40),
    ) {
        let windows: Vec<(Time, Time)> = raw
            .iter()
            .map(|&(s, d)| (Time::from_secs(s), Time::from_secs(s + d)))
            .collect();
        let dag = build_dag_from_windows(&windows);
        for (u, v) in dag.edges() {
            // An edge exists only between non-overlapping windows, u first.
            prop_assert!(windows[u as usize].1 <= windows[v as usize].0);
        }
        // Structural caps hold.
        let levels = Levels::compute(&dag);
        prop_assert!(levels.num_levels() <= MAX_LEVELS as usize || windows.is_empty());
        for v in 0..windows.len() as u32 {
            prop_assert!(dag.out_degree(v) <= MAX_OUT_DEGREE);
            prop_assert!(dag.in_degree(v) <= MAX_IN_DEGREE);
        }
    }

    #[test]
    fn generated_workloads_always_validate(
        num_jobs in 1usize..8, seed in 0u64..2_000, scale in 1u32..8,
    ) {
        let p = TraceParams { task_scale: scale as f64 / 100.0, ..TraceParams::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = generate_workload(&mut rng, num_jobs, &p);
        prop_assert_eq!(jobs.len(), num_jobs);
        let mut last_arrival = Time::ZERO;
        for (i, job) in jobs.iter().enumerate() {
            prop_assert!(validate_job(job).is_ok());
            prop_assert_eq!(job.id.idx(), i);
            prop_assert!(job.arrival >= last_arrival);
            last_arrival = job.arrival;
            prop_assert!(job.levels().num_levels() <= 5);
            // Estimates are within the generator's clip band of actuals.
            for (_, t) in job.iter_tasks() {
                let ratio = t.est_size.get() / t.size.get();
                prop_assert!((0.25..=4.0).contains(&ratio), "ratio {}", ratio);
            }
        }
    }
}
