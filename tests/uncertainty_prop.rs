//! Property tests for execution-time uncertainty (DESIGN.md §13).
//!
//! The scenario matrix lets the engine execute *sampled truth* while every
//! scheduler and preemption policy plans on the a-priori WCET estimate.
//! These tests drive many random truth-sampling seeds through the full
//! pipeline and hold two lines:
//!
//! * no seed, execution model, or arm combination may violate the
//!   R1–R6 verification rules — uncertainty shifts metrics, never
//!   correctness;
//! * `ExecModel::Wcet` is a bit-for-bit regression anchor: with estimate
//!   noise pinned to zero it draws nothing from the RNG, so a matrix cell
//!   equals the pre-matrix `run_experiment` path exactly.
//!
//! Written as seeded-RNG sweeps rather than `proptest!` cases so the suite
//! is deterministic and self-contained.

use dsp_core::ClusterProfile;
use dsp_core::{
    run_experiment, run_matrix, DeadlineTier, ExperimentConfig, MatrixConfig, Params,
    PreemptMethod, SchedMethod, Storm,
};
use dsp_trace::{generate_workload, ArrivalModel, ExecModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A one-scenario grid around a single execution model: 2 scheduler arms ×
/// 2 preemption arms, tiny trace.
fn tiny_grid(seed: u64, exec: ExecModel) -> MatrixConfig {
    MatrixConfig {
        schedulers: vec![SchedMethod::Dsp, SchedMethod::TetrisSimDep],
        preempts: vec![PreemptMethod::Dsp, PreemptMethod::Srpt],
        exec_models: vec![exec],
        arrivals: vec![ArrivalModel::Poisson],
        deadlines: vec![DeadlineTier::Paper],
        node_mixes: vec![ClusterProfile::Ec2],
        storms: vec![Storm::Calm],
        num_jobs: 4,
        seed,
        task_scale: 0.02,
        params: Params::default(),
    }
}

const MODELS: [ExecModel; 3] =
    [ExecModel::FullRandom, ExecModel::HalfRandom, ExecModel::Normal { sigma_frac: 0.25 }];

/// Random truth-sampling seeds never violate R1–R6: whatever execution
/// times the engine samples, planned schedules stay well-formed and the
/// execution history stays consistent with dependencies and node capacity.
#[test]
fn truth_sampling_never_violates_verification_rules() {
    for exec in MODELS {
        for seed in 0..8u64 {
            let cfg = tiny_grid(seed, exec);
            let mut cells = 0usize;
            run_matrix(&cfg, |cell| {
                cells += 1;
                assert!(
                    cell.report.passes(),
                    "seed {seed} under {} broke R1-R6 in cell {}:\n{}",
                    exec.label(),
                    cell.cell_id(),
                    cell.report
                );
                assert_eq!(
                    cell.metrics.jobs_completed(),
                    cfg.num_jobs,
                    "cell {} lost jobs",
                    cell.cell_id()
                );
            });
            assert_eq!(cells, cfg.num_cells());
        }
    }
}

/// Sampled truth stays inside each model's declared support, measured
/// against the estimate (== declared WCET, since the matrix pins estimate
/// noise to zero). Under `Wcet` the truth *is* the estimate, bit for bit.
#[test]
fn sampled_truth_respects_declared_support() {
    for seed in 0..16u64 {
        for exec in [ExecModel::Wcet, MODELS[0], MODELS[1], MODELS[2]] {
            let cfg = tiny_grid(seed, exec);
            let (scenario_seed, scenario) = cfg.scenarios()[0];
            let mut rng = StdRng::seed_from_u64(scenario_seed);
            let jobs = generate_workload(&mut rng, cfg.num_jobs, &cfg.trace_for(&scenario));
            for job in &jobs {
                for (_, t) in job.iter_tasks() {
                    let (lo, hi) = exec.support(t.est_size);
                    assert!(
                        t.size.get() >= lo && t.size.get() <= hi,
                        "{}: truth {} outside [{lo}, {hi}] of estimate {}",
                        exec.label(),
                        t.size.get(),
                        t.est_size.get()
                    );
                    if exec == ExecModel::Wcet {
                        assert_eq!(
                            t.size.get().to_bits(),
                            t.est_size.get().to_bits(),
                            "Wcet must not perturb task sizes"
                        );
                    }
                }
            }
        }
    }
}

/// The regression anchor: a `Wcet` matrix cell reproduces the pre-matrix
/// experiment path bit for bit — identical workload, schedule, and metrics
/// as `run_experiment` on the same derived seed and trace parameters.
#[test]
fn wcet_cells_match_the_exact_experiment_path() {
    let cfg = MatrixConfig::smoke(42);
    let scenarios = cfg.scenarios();
    let mut checked = 0usize;
    run_matrix(&cfg, |cell| {
        if cell.scenario.exec_model != ExecModel::Wcet {
            return;
        }
        let (scenario_seed, scenario) = scenarios[cell.scenario_idx];
        assert_eq!(scenario, cell.scenario);
        let (exact, report) = run_experiment(&ExperimentConfig {
            cluster: scenario.node_mix,
            num_jobs: cfg.num_jobs,
            seed: scenario_seed,
            sched: cell.sched,
            preempt: cell.preempt,
            trace: cfg.trace_for(&scenario),
            params: cfg.params,
        });
        assert_eq!(
            cell.metrics,
            exact.metrics,
            "Wcet cell {} diverged from the exact path",
            cell.cell_id()
        );
        assert_eq!(cell.report, report, "Wcet cell {} audits differently", cell.cell_id());
        checked += 1;
    });
    assert!(checked >= 4, "expected at least one full Wcet arm set, got {checked}");
}

/// Identical master seeds reproduce the whole grid — CSV rows included —
/// and uncertainty models actually change the sampled truth (different
/// models at one seed must not collapse onto the same workload).
#[test]
fn uncertainty_is_seeded_and_effective() {
    for exec in MODELS {
        let a = run_matrix(&tiny_grid(9, exec), |_| {});
        let b = run_matrix(&tiny_grid(9, exec), |_| {});
        assert_eq!(a, b, "{} grid must be deterministic per seed", exec.label());
    }
    // At one seed, sampled truth differs from the WCET path.
    let cfg_wcet = tiny_grid(5, ExecModel::Wcet);
    let cfg_rand = tiny_grid(5, ExecModel::HalfRandom);
    let (seed_w, sc_w) = cfg_wcet.scenarios()[0];
    let (seed_r, sc_r) = cfg_rand.scenarios()[0];
    assert_eq!(seed_w, seed_r, "scenario seed depends only on the master seed and index");
    let mut rng = StdRng::seed_from_u64(seed_w);
    let wcet_jobs = generate_workload(&mut rng, 4, &cfg_wcet.trace_for(&sc_w));
    let mut rng = StdRng::seed_from_u64(seed_r);
    let rand_jobs = generate_workload(&mut rng, 4, &cfg_rand.trace_for(&sc_r));
    let truth = |jobs: &[dsp_dag::Job]| -> Vec<u64> {
        jobs.iter()
            .flat_map(|j| j.iter_tasks().map(|(_, t)| t.size.get().to_bits()).collect::<Vec<_>>())
            .collect()
    };
    assert_ne!(truth(&wcet_jobs), truth(&rand_jobs), "HalfRandom must perturb execution times");
}
