//! `ilp_exact` — seeded small instances through the exact MILP scheduler.
//!
//! Every instance fits `IlpLimits::default()` (≤ 10 tasks, ≤ 4 slots), so
//! `DspIlpScheduler` takes the exact path: the `lp` crate (simplex + B&B)
//! does almost all the work and the engine, the preemption layer and the
//! service are idle. This is the only workload where an LP change shows.

use crate::harness::{Rep, Workload};
use crate::layers::{self, Replay};
use crate::span::Tracer;
use crate::stats::Fnv;
use crate::workloads::svc::MixedOpen;
use dsp_core::cluster::{uniform, ClusterSpec};
use dsp_core::dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_core::sched::dsp_ilp::IlpOutcome;
use dsp_core::sched::{DspIlpScheduler, IlpLimits};
use dsp_core::units::Time;
use dsp_core::verify::{check_schedule, VerifyOptions};
use dsp_core::Params;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

pub struct IlpExact {
    pub instances: usize,
}

impl IlpExact {
    pub fn new(quick: bool) -> IlpExact {
        IlpExact { instances: if quick { 12 } else { 256 } }
    }
}

/// One scheduling problem: a batch of jobs and the cluster to place it on.
pub struct Instance {
    pub jobs: Vec<Job>,
    pub cluster: ClusterSpec,
}

/// A DAG of `n` tasks in one of the four shapes the paper's small examples
/// use: chain, diamond (one root, one sink, a parallel middle), fork
/// (one root, independent children), or random forward edges.
fn dag(rng: &mut StdRng, shape: usize, n: usize) -> Dag {
    let mut d = Dag::new(n);
    let mut edge = |u: usize, v: usize| d.add_edge(u as u32, v as u32).expect("forward edge");
    match shape {
        0 => (1..n).for_each(|v| edge(v - 1, v)),
        1 if n >= 3 => (1..n - 1).for_each(|v| {
            edge(0, v);
            edge(v, n - 1);
        }),
        2 => (1..n).for_each(|v| edge(0, v)),
        _ => {
            for v in 1..n {
                for u in 0..v {
                    if rng.gen_bool(0.3) {
                        edge(u, v);
                    }
                }
            }
        }
    }
    d
}

/// Instance `i` of a set. Its *structure* is a fixed grid over the index —
/// 3–5 tasks, DAG shape, one or two jobs, 2 nodes × 1–2 slots — and the
/// seed draws the task sizes, the random-shape edges and the job split.
///
/// Calibration (reference box): B&B effort grows by an order of magnitude
/// per added task and its tail grows faster — 5 tasks on 4 slots and 6 on
/// 2 both average ~14 ms but reach 0.3 s to seconds on one instance in a
/// few hundred, which then decides the whole repetition. The grid stops
/// where the tail is still thin (worst seen 10 ms): 3 and 4 tasks on
/// either cluster, 5 tasks on the 2-slot one.
fn instance(rng: &mut StdRng, i: usize) -> Instance {
    let total = 3 + i % 3;
    let slots = if total == 5 { 1 } else { 1 + (i / 3) % 2 };
    let shape = (i / 6) % 4;
    let split = if total >= 4 && (i / 24) % 2 == 1 { rng.gen_range(2..=total - 2) } else { total };
    let jobs = [split, total - split]
        .into_iter()
        .filter(|n| *n > 0)
        .enumerate()
        .map(|(j, n)| {
            let tasks = (0..n).map(|_| TaskSpec::sized(rng.gen_range(400.0..2000.0))).collect();
            let dag = dag(rng, shape, n);
            // An hour for seconds of work: R4 never binds.
            let deadline = Time::from_secs(3600);
            Job::new(JobId((2 * i + j) as u32), JobClass::Small, Time::ZERO, deadline, tasks, dag)
        })
        .collect();
    Instance { jobs, cluster: uniform(2, 1000.0, slots) }
}

impl Workload for IlpExact {
    type Input = Vec<Instance>;
    const VARIANTS: usize = 4;

    fn generate(&self, seed: u64, _tracer: &Arc<Tracer>) -> Vec<Instance> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.instances).map(|i| instance(&mut rng, i)).collect()
    }

    fn rep(&self, input: &Vec<Instance>, tracer: &Arc<Tracer>, _warm_up: bool) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Fnv::default();
        // B&B on the calling thread. With `threads: 0` (auto) every frontier
        // round waits for the slower of two workers: on the 2-core
        // reference box these solves then take 1.1× (quiet host) to 1.8×
        // (busy host) as long and repeat three times worse (37 % against
        // 10 % between runs on fixed inputs); the results are bit-identical
        // either way. What the pool costs is a per-layer number: `lp.milp_s`
        // against `lp.milp_inline_s`.
        let limits = IlpLimits { threads: 1, ..IlpLimits::default() };
        let scheduler = DspIlpScheduler { limits };
        let t = Instant::now();
        tracer.scope("rep", 0, || {
            for (i, inst) in input.iter().enumerate() {
                let t_op = Instant::now();
                let (schedule, outcome) =
                    layers::ilp_solve(tracer, &scheduler, &inst.jobs, &inst.cluster, i as u64);
                rep.op_ms.push(t_op.elapsed().as_secs_f64() * 1e3);

                let t_audit = Instant::now();
                let report = tracer.scope("verify.schedule", i as u64, || {
                    check_schedule(&schedule, &inst.jobs, &inst.cluster, &VerifyOptions::default())
                });
                rep.finish_s += t_audit.elapsed().as_secs_f64();
                layers::count_errors(tracer, &report);

                let ok = outcome != IlpOutcome::Fallback && report.passes();
                rep.check(ok, || format!("instance {i}: outcome {outcome:?}, audit:\n{report}"));
                rep.attempted += 1;
                rep.failed += u64::from(!ok);
                for a in &schedule.assignments {
                    digest.u64(u64::from(a.task.job.0) << 32 | u64::from(a.task.index));
                    digest.u64(u64::from(a.node.0));
                    digest.u64(a.start.as_micros());
                }
                digest.u64(outcome as u64);
            }
        });
        rep.wall_s = t.elapsed().as_secs_f64();
        rep.work = input.len() as u64;
        rep.digest = digest.0;
        rep
    }

    fn replay(&self, input: &Vec<Instance>, tracer: &Arc<Tracer>, seed: u64) {
        // The instances' jobs (ids ascend across instances) as one batch.
        let jobs: Vec<Job> = input.iter().flat_map(|i| i.jobs.iter().cloned()).collect();
        let batch = layers::sample(&jobs, 100);
        layers::replay_all(
            tracer,
            &Replay {
                batch,
                run_pipeline: true,
                svc_jobs: batch,
                svc: &MixedOpen::SERVICE,
                jobs_per_line: 1,
                probe_submits: true,
                params: &Params::default(),
                seed,
            },
        );
    }
}
