//! Workload synthesis: the end-to-end replacement for sampling the Google
//! trace.

use crate::dag_builder::build_dag_from_windows;
use crate::distributions::{log_normal, LogNormalParams};
use crate::models::{ArrivalModel, ExecModel};
use dsp_dag::{critical_path_len, Dag, Job, JobClass, JobId, TaskSpec};
use dsp_units::{Dur, Mi, Mips, ResourceVec, Time};
use rand::Rng;

/// Section V's calibration of the synthetic trace: task execution time at
/// [`REFERENCE_MIPS`], a log-normal in seconds.
pub const DURATION_SECS: LogNormalParams = LogNormalParams { median: 15.0, sigma: 1.0 };
/// Normalized CPU consumption, a log-normal clipped to (0.02, 1].
pub const CPU: LogNormalParams = LogNormalParams { median: 0.25, sigma: 0.6 };
/// Normalized memory consumption, a log-normal clipped to (0.02, 1].
pub const MEM: LogNormalParams = LogNormalParams { median: 0.3, sigma: 0.6 };
/// Disk MB per task (paper: 0.02).
pub const DISK_MB: f64 = 0.02;
/// Bandwidth MB/s per task (paper: 0.02).
pub const BW_MBPS: f64 = 0.02;
/// Reference node rate converting sampled durations into MI sizes.
pub const REFERENCE_MIPS: f64 = 2660.0;
/// Number of execution waves used to synthesize windows (≤ the DAG's
/// level cap, [`crate::MAX_LEVELS`]).
pub const STAGES: usize = 5;

/// The knobs of the synthetic trace that runs vary, defaulting to the
/// Section V setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Job arrival rate range in jobs/minute; the realized rate is drawn
    /// uniformly once per workload (paper: [2, 5]).
    pub arrival_rate_per_min: (f64, f64),
    /// Scale factor on the per-class task counts (1.0 = the paper's
    /// 300/1000/2000; experiments use a smaller scale so a laptop sweep
    /// finishes — the *shape* of every figure is scale-invariant).
    pub task_scale: f64,
    /// Deadline = arrival + slack × critical path at the reference rate.
    pub deadline_slack: f64,
    /// Log-normal σ of the a-priori size-estimation error: the scheduler
    /// sees `size · exp(σ·N(0,1))` (clipped to [1/4, 4]×). Zero gives the
    /// paper's idealized perfectly-predictable setting; the default 0.4
    /// reflects realistic trace-based predictors and is what makes the
    /// online preemption phase earn its keep.
    pub estimate_noise_sigma: f64,
    /// Execution-time model: how the sampled *truth* (`TaskSpec::size`)
    /// relates to the declared WCET. The WCET stays the basis of the
    /// scheduler-visible estimate. `Wcet` (default) draws no RNG values,
    /// keeping default workloads byte-identical to the pre-matrix
    /// generator.
    pub exec_model: ExecModel,
    /// Job arrival pattern (default: homogeneous Poisson, as the paper).
    pub arrival: ArrivalModel,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            arrival_rate_per_min: (2.0, 5.0),
            task_scale: 0.1,
            deadline_slack: 8.0,
            estimate_noise_sigma: 0.4,
            exec_model: ExecModel::Wcet,
            arrival: ArrivalModel::Poisson,
        }
    }
}

impl TraceParams {
    /// Task count for a class under the configured scale (≥ 4).
    pub fn tasks_for(&self, class: JobClass) -> usize {
        ((class.typical_tasks() as f64 * self.task_scale).round() as usize).max(4)
    }
}

fn clip01(x: f64) -> f64 {
    x.clamp(0.02, 1.0)
}

/// Synthesize one job's execution windows in [`STAGES`] waves: every task
/// of wave `s` starts after all of wave `s−1` ends, so the paper's
/// non-overlap rule recovers the wave structure as DAG levels.
fn synth_windows<R: Rng>(rng: &mut R, m: usize) -> (Vec<(Time, Time)>, Vec<Dur>) {
    let mut stage_of = Vec::with_capacity(m);
    let mut durations = Vec::with_capacity(m);
    let mut stage_max = [Dur::ZERO; STAGES];
    for _ in 0..m {
        let s = rng.gen_range(0..STAGES);
        let d = Dur::from_secs_f64(log_normal(rng, DURATION_SECS).clamp(0.5, 7200.0));
        stage_of.push(s);
        durations.push(d);
        stage_max[s] = stage_max[s].max(d);
    }
    // Stage start offsets: cumulative maxima.
    let mut stage_start = [Dur::ZERO; STAGES];
    for s in 1..STAGES {
        stage_start[s] = stage_start[s - 1] + stage_max[s - 1];
    }
    let windows = (0..m)
        .map(|i| {
            let s = stage_of[i];
            // Jitter within the stage keeps windows overlapping inside a
            // wave (no intra-wave edges) but never crossing the boundary.
            let slack = stage_max[s].saturating_sub(durations[i]);
            let jitter = slack.mul_f64(rng.gen::<f64>());
            let start = Time::ZERO + stage_start[s] + jitter;
            (start, start + durations[i])
        })
        .collect();
    (windows, durations)
}

/// Generate `num_jobs` jobs with the configured arrival pattern,
/// trace-like marginals and window-rule DAGs. Jobs are indexed
/// `0..num_jobs` (their `JobId` equals their position), classes cycle
/// small/medium/large.
///
/// Each task's declared WCET comes from the sampled duration; the
/// *executed* size is `exec_model.sample(rng, wcet)` (truth) while the
/// scheduler-visible estimate stays `wcet · noise`. Deadlines are computed
/// from the declared WCETs — the negotiated contract — never the sampled
/// truth, so a job's deadline carries no information about its realized
/// execution times.
pub fn generate_workload<R: Rng>(rng: &mut R, num_jobs: usize, p: &TraceParams) -> Vec<Job> {
    let rate = rng.gen_range(p.arrival_rate_per_min.0..=p.arrival_rate_per_min.1);
    let arrivals = p.arrival.arrivals(rng, num_jobs, Time::ZERO, rate);
    let reference = Mips::new(REFERENCE_MIPS);
    let jobs: Vec<Job> = (0..num_jobs)
        .map(|i| {
            let class = JobClass::round_robin(i);
            let m = p.tasks_for(class);
            let (windows, durations) = synth_windows(rng, m);
            let dag: Dag = build_dag_from_windows(&windows);
            let mut wcets: Vec<Mi> = Vec::with_capacity(m);
            let tasks: Vec<TaskSpec> = (0..m)
                .map(|t| {
                    let wcet = Mi::new(durations[t].as_secs_f64() * REFERENCE_MIPS);
                    wcets.push(wcet);
                    let demand = ResourceVec::new(
                        clip01(log_normal(rng, CPU)),
                        clip01(log_normal(rng, MEM)),
                        DISK_MB,
                        BW_MBPS,
                    );
                    let noise = if p.estimate_noise_sigma > 0.0 {
                        log_normal(
                            rng,
                            LogNormalParams { median: 1.0, sigma: p.estimate_noise_sigma },
                        )
                        .clamp(0.25, 4.0)
                    } else {
                        1.0
                    };
                    // Truth last, and `Wcet` draws nothing: the RNG stream
                    // stays byte-identical to the pre-matrix generator for
                    // default parameters.
                    let truth = p.exec_model.sample(rng, wcet);
                    TaskSpec::new(truth, demand).with_estimate(wcet * noise)
                })
                .collect();
            let exec: Vec<Dur> = wcets.iter().map(|w| w.exec_time(reference)).collect();
            let cp = critical_path_len(&dag, &exec);
            let arrival = arrivals[i];
            let deadline = arrival + cp.mul_f64(p.deadline_slack);
            Job::new(JobId(i as u32), class, arrival, deadline, tasks, dag)
        })
        .collect();
    debug_assert!(
        dsp_dag::validate_jobs(&jobs).is_ok(),
        "generated workload violates job invariants: {:?}",
        dsp_dag::validate_jobs(&jobs)
    );
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_dag::validate_job;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2018)
    }

    fn small_params() -> TraceParams {
        TraceParams { task_scale: 0.05, ..TraceParams::default() }
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let p = small_params();
        let a = generate_workload(&mut rng(), 6, &p);
        let b = generate_workload(&mut rng(), 6, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_validate_and_classes_cycle() {
        let p = small_params();
        let jobs = generate_workload(&mut rng(), 9, &p);
        assert_eq!(jobs.len(), 9);
        for (i, j) in jobs.iter().enumerate() {
            validate_job(j).unwrap();
            assert_eq!(j.class, JobClass::round_robin(i));
            assert_eq!(j.id.idx(), i);
            assert!(j.deadline > j.arrival);
        }
        // Class sizes are ordered small < medium < large.
        assert!(jobs[0].num_tasks() < jobs[1].num_tasks());
        assert!(jobs[1].num_tasks() < jobs[2].num_tasks());
    }

    #[test]
    fn dag_caps_hold() {
        let p = small_params();
        let jobs = generate_workload(&mut rng(), 6, &p);
        for j in &jobs {
            assert!(j.levels().num_levels() <= 5);
            for v in 0..j.num_tasks() as u32 {
                assert!(j.dag.out_degree(v) <= 15);
            }
        }
    }

    #[test]
    fn generated_dags_have_real_structure() {
        // With 5 stages and tens of tasks the window rule must produce
        // edges and multiple levels — a degenerate empty DAG would quietly
        // disable everything dependency-aware.
        let p = small_params();
        let jobs = generate_workload(&mut rng(), 6, &p);
        let with_edges = jobs.iter().filter(|j| j.dag.edge_count() > 0).count();
        assert_eq!(with_edges, jobs.len());
        assert!(jobs.iter().any(|j| j.levels().num_levels() >= 3));
    }

    #[test]
    fn arrivals_are_monotone() {
        let p = small_params();
        let jobs = generate_workload(&mut rng(), 12, &p);
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn task_scale_changes_size() {
        let small = TraceParams { task_scale: 0.05, ..TraceParams::default() };
        let big = TraceParams { task_scale: 0.2, ..TraceParams::default() };
        assert!(big.tasks_for(JobClass::Large) > small.tasks_for(JobClass::Large));
        assert_eq!(small.tasks_for(JobClass::Large), 100);
    }

    #[test]
    fn demands_are_clipped_to_unit() {
        let p = small_params();
        let jobs = generate_workload(&mut rng(), 6, &p);
        for j in &jobs {
            for (_, t) in j.iter_tasks() {
                assert!(t.demand.cpu >= 0.02 && t.demand.cpu <= 1.0);
                assert!(t.demand.mem >= 0.02 && t.demand.mem <= 1.0);
                assert_eq!(t.demand.disk, 0.02);
                assert_eq!(t.demand.bw, 0.02);
            }
        }
    }
}
