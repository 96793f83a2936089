//! Determinism of the scenario-matrix harness (DESIGN.md §13): the grid
//! consults no wall clock and no ambient entropy, so one seed must
//! reproduce the entire CSV byte for byte — and the committed golden file
//! must match what the current tree produces.

use dsp_core::matrix::to_csv;
use dsp_core::{
    run_audited, run_matrix, CellOutput, ClusterProfile, MatrixConfig, PreemptMethod, SchedMethod,
    Storm,
};
use dsp_trace::{generate_workload, ArrivalModel, ExecModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two full `--quick` grids at one seed emit byte-identical CSV documents,
/// with every cell passing its R1–R6 audit both times.
#[test]
fn quick_grid_is_byte_identical_per_seed() {
    let cfg = MatrixConfig::quick(42);
    let mut failures = Vec::new();
    let a = run_matrix(&cfg, |cell| {
        if !cell.report.passes() {
            failures.push(cell.cell_id());
        }
    });
    let b = run_matrix(&cfg, |_| {});
    assert!(failures.is_empty(), "cells failed verification: {failures:?}");
    assert_eq!(a.len(), cfg.num_cells());
    assert_eq!(to_csv(&a), to_csv(&b), "repeated --quick runs must be byte-identical");
    // A different seed must not reproduce the same document.
    let c = run_matrix(&MatrixConfig::quick(43), |_| {});
    assert_ne!(to_csv(&a), to_csv(&c));
}

/// The committed CI golden (tests/golden/matrix_smoke.csv) matches what
/// the current tree computes for the same grid and seed. When a PR
/// deliberately changes workload generation or engine accounting, it must
/// regenerate the golden in the same commit — this test is the local
/// mirror of the CI `matrix-smoke` diff.
#[test]
fn smoke_grid_matches_committed_golden() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/matrix_smoke.csv");
    let golden = std::fs::read_to_string(golden_path).expect("committed golden CSV");
    let rows = run_matrix(&MatrixConfig::smoke(2018), |_| {});
    assert_eq!(
        to_csv(&rows),
        golden,
        "smoke grid diverged from tests/golden/matrix_smoke.csv; \
         if intended, regenerate it: dsp matrix --smoke --seed 2018 --out <dir>"
    );
}

/// A matrix cell is nothing but one audited run of its scenario's workload:
/// every cell of a grid equals an independent `run_audited` of the same
/// arm, in its CSV row, its R1–R6 report (findings in order), its plan and
/// its history. The grid spans every preemption arm, a seeded scheduler
/// (Random), a dependency-oblivious one whose plans draw R2 warnings
/// (TetrisW/oDep), the exact arm, two node mixes, two fault storms and two
/// uncertain execution models.
#[test]
fn every_cell_is_an_independent_audited_run() {
    let cfg = MatrixConfig {
        schedulers: vec![
            SchedMethod::Random,
            SchedMethod::Fifo,
            SchedMethod::TetrisWoDep,
            SchedMethod::Dsp,
            SchedMethod::DspIlp,
        ],
        preempts: PreemptMethod::ALL.to_vec(),
        exec_models: vec![ExecModel::HalfRandom, ExecModel::Normal],
        arrivals: vec![ArrivalModel::Poisson],
        node_mixes: vec![ClusterProfile::Palmetto, ClusterProfile::Blend],
        storms: vec![Storm::Mild, Storm::Severe],
        num_jobs: 4,
        ..MatrixConfig::smoke(2018)
    };
    let scenarios = cfg.scenarios();
    let mut cells = 0usize;
    let mut r2_warned = false;
    let rows = run_matrix(&cfg, |cell| {
        let (seed, scenario) = scenarios[cell.scenario_idx];
        let jobs = generate_workload(
            &mut StdRng::seed_from_u64(seed),
            cfg.num_jobs,
            &cfg.trace_for(&scenario),
        );
        let cluster = scenario.node_mix.build();
        let mut policy = cell.preempt.build(&cfg.params);
        let faults = scenario.storm.plan(seed, &cluster);
        let (run, report) =
            run_audited(&jobs, &cluster, &cfg.params, cell.sched, seed, policy.as_mut(), faults);
        let id = cell.cell_id();
        assert_eq!(cell.report, report, "{id}: report");
        assert_eq!(cell.schedule, run.schedule, "{id}: schedule");
        assert_eq!(cell.history, run.history, "{id}: history");
        assert_eq!(cell.metrics, run.metrics, "{id}: metrics");
        let alone = CellOutput {
            jobs,
            cluster,
            schedule: run.schedule,
            history: run.history,
            metrics: run.metrics,
            report,
            ..cell.clone()
        };
        assert_eq!(cell.csv_row(), alone.csv_row(), "{id}: row");
        r2_warned |= cell.report.diagnostics.iter().any(|d| d.rule.id() == "R2");
        cells += 1;
    });
    assert_eq!(cells, cfg.num_cells());
    assert_eq!(rows.len(), cfg.num_cells());
    assert!(r2_warned, "the grid must exercise a plan with R2 findings");
}
