//! `matrix_grid` — `run_matrix` over a benchmark-built scenario grid.
//!
//! The quick grid's axes × storms {calm, severe} × node mixes {ec2,
//! blend}: many short cells through the baseline schedulers and policies
//! (Tetris, Aalo, SRPT restart-from-scratch, Natjam), execution-time
//! uncertainty and the fault paths. The same engine as `sim_paper`, used
//! differently — a `sim_paper` gain that costs the other arms shows here.
//!
//! `run_matrix` is one opaque call, so a cell's time is the gap between
//! two calls of its sink, and the audit is timed by repeating it from
//! outside on each finished cell (which also checks the cell's own report).

use crate::harness::{Rep, Workload};
use crate::layers::{self, Replay};
use crate::span::Tracer;
use crate::stats::Fnv;
use crate::workloads::svc::MixedOpen;
use dsp_core::verify::{check_execution, check_schedule, Severity, VerifyOptions};
use dsp_core::{run_matrix, ClusterProfile, MatrixConfig, Storm};
use std::sync::Arc;
use std::time::Instant;

pub struct MatrixGrid {
    pub jobs_per_cell: usize,
    quick: bool,
}

impl MatrixGrid {
    pub fn new(quick: bool) -> MatrixGrid {
        MatrixGrid { jobs_per_cell: if quick { 4 } else { 24 }, quick }
    }
}

impl Workload for MatrixGrid {
    type Input = MatrixConfig;
    const VARIANTS: usize = 1;

    fn generate(&self, seed: u64, _tracer: &Arc<Tracer>) -> MatrixConfig {
        // Workloads are generated inside `run_matrix`, per scenario, from
        // seeds it derives from this one.
        let base = if self.quick { MatrixConfig::smoke(seed) } else { MatrixConfig::quick(seed) };
        MatrixConfig {
            num_jobs: self.jobs_per_cell,
            storms: vec![Storm::Calm, Storm::Severe],
            node_mixes: vec![ClusterProfile::Ec2, ClusterProfile::Blend],
            ..base
        }
    }

    fn rep(&self, cfg: &MatrixConfig, tracer: &Arc<Tracer>, _warm_up: bool) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Fnv::default();
        let t = Instant::now();
        let mut last = Instant::now();
        let mut cell_start_ns = tracer.now_ns();
        let rows = tracer.scope("rep", 0, || {
            run_matrix(cfg, |cell| {
                let cell_end = Instant::now();
                rep.op_ms.push(cell_end.duration_since(last).as_secs_f64() * 1e3);
                let req = rep.attempted;
                tracer.record("core.matrix_cell", cell_start_ns, tracer.now_ns(), req);

                let opts = VerifyOptions {
                    dependency_aware: cell.sched.dependency_aware(),
                    check_deadlines: true,
                };
                let mut report = tracer.scope("verify.schedule", req, || {
                    check_schedule(&cell.schedule, &cell.jobs, &cell.cluster, &opts)
                });
                report.merge(tracer.scope("verify.execution", req, || {
                    check_execution(&cell.history, Some(&cell.metrics))
                }));
                layers::count_errors(tracer, &report);
                let errors = |r: &dsp_core::verify::Report| {
                    r.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
                };
                let tasks: usize = cell.jobs.iter().map(|j| j.num_tasks()).sum();
                let ok = cell.report.passes()
                    && report.passes()
                    && report.len() == cell.report.len()
                    && cell.metrics.tasks_completed == tasks as u64;
                rep.check(ok, || {
                    format!(
                        "cell {}: {} own / {} re-audit errors, {} of {tasks} tasks completed",
                        cell.cell_id(),
                        errors(&cell.report),
                        errors(&report),
                        cell.metrics.tasks_completed
                    )
                });
                rep.attempted += 1;
                rep.failed += u64::from(!ok);
                last = Instant::now();
                cell_start_ns = tracer.now_ns();
                rep.finish_s += last.duration_since(cell_end).as_secs_f64();
            })
        });
        rep.wall_s = t.elapsed().as_secs_f64();
        rep.work = rows.len() as u64;
        rep.check(rows.len() == cfg.num_cells(), || {
            format!("{} rows for {} cells", rows.len(), cfg.num_cells())
        });
        // The CSV rows carry every simulated statistic of every cell.
        rows.iter().for_each(|r| digest.bytes(r.as_bytes()));
        rep.digest = digest.0;
        rep
    }

    fn replay(&self, cfg: &MatrixConfig, tracer: &Arc<Tracer>, seed: u64) {
        // `run_matrix` generates its workloads itself; the replay takes the
        // first scenario's, generated the same way.
        let (scenario_seed, scenario) = cfg.scenarios()[0];
        let jobs = layers::generate(tracer, scenario_seed, cfg.num_jobs, &cfg.trace_for(&scenario));
        layers::replay_all(
            tracer,
            &Replay {
                batch: &jobs,
                run_pipeline: true,
                svc_jobs: &jobs,
                svc: &MixedOpen::SERVICE,
                jobs_per_line: 1,
                probe_submits: true,
                params: &cfg.params,
                seed,
            },
        );
    }
}
