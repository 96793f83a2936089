//! `sim_paper` — Fig. 6's DSP arm at paper scale.
//!
//! EC2 profile, `DspListScheduler` offline and `DspPolicy` (PP on) online,
//! built the way `run_experiment` builds it but from the public pieces so
//! each call can be timed: `periodic_schedules` → `Engine::new` /
//! `add_batch` / `run` → `history` → `check_schedule` / `check_execution`.
//! The engine and the Eq. 12/13 + Algorithm 1 pass do almost all the work;
//! the LP and the service do none.

use crate::harness::{digest_of, Rep, Workload};
use crate::layers::{self, Replay};
use crate::span::Tracer;
use crate::workloads::svc::MixedOpen;
use dsp_core::cluster::ClusterSpec;
use dsp_core::dag::Job;
use dsp_core::trace::TraceParams;
use dsp_core::Params;
use std::sync::Arc;
use std::time::Instant;

pub struct SimPaper {
    pub jobs: usize,
    pub task_scale: f64,
}

impl SimPaper {
    pub fn new(quick: bool) -> SimPaper {
        if quick {
            SimPaper { jobs: 12, task_scale: 0.02 }
        } else {
            SimPaper { jobs: 200, task_scale: 0.06 }
        }
    }
}

pub struct Input {
    pub jobs: Vec<Job>,
    pub cluster: ClusterSpec,
    pub params: Params,
}

impl Workload for SimPaper {
    type Input = Input;
    const VARIANTS: usize = 8;

    fn generate(&self, seed: u64, tracer: &Arc<Tracer>) -> Input {
        let trace = TraceParams {
            task_scale: self.task_scale,
            arrival_rate_per_min: (5.0, 5.0),
            ..TraceParams::default()
        };
        Input {
            jobs: layers::generate(tracer, seed, self.jobs, &trace),
            cluster: dsp_core::cluster::ec2(),
            params: Params::default(),
        }
    }

    fn rep(&self, input: &Input, tracer: &Arc<Tracer>, _warm_up: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        let run = layers::pipeline(tracer, &input.jobs, &input.cluster, &input.params);
        rep.wall_s = t.elapsed().as_secs_f64();
        rep.finish_s = run.audit_s;
        rep.op_ms = vec![(rep.wall_s - run.audit_s) * 1e3];
        rep.work = run.metrics.tasks_completed;

        let tasks: usize = input.jobs.iter().map(Job::num_tasks).sum();
        rep.attempted = input.jobs.len() as u64;
        rep.failed = (input.jobs.len() - run.metrics.jobs_completed()) as u64;
        rep.check(run.metrics.tasks_completed == tasks as u64, || {
            format!("tasks_completed {} != trace.tasks {tasks}", run.metrics.tasks_completed)
        });
        rep.check(run.report.passes(), || format!("R1–R6 audit failed:\n{}", run.report));
        if !run.report.passes() {
            rep.failed += 1;
        }
        let m = &run.metrics;
        rep.digest = digest_of([
            m.tasks_completed,
            m.preemptions,
            m.disorders,
            m.refusals,
            m.makespan().as_micros(),
            m.switch_overhead.as_micros(),
            m.avg_job_waiting().as_micros(),
            m.end_time.as_micros(),
        ]);
        rep
    }

    fn replay(&self, input: &Input, tracer: &Arc<Tracer>, seed: u64) {
        // The traced repetition was the pipeline over every job; the replay
        // adds the legs it lacks.
        layers::replay_all(
            tracer,
            &Replay {
                batch: &input.jobs,
                run_pipeline: false,
                svc_jobs: layers::sample(&input.jobs, 60),
                svc: &MixedOpen::SERVICE,
                jobs_per_line: 1,
                probe_submits: true,
                params: &input.params,
                seed,
            },
        );
    }
}
