//! Byte-level pins of whole Fig. 6-style runs: the DSP arm on three seeded
//! EC2 workloads (60 jobs, `task_scale` 0.06), and the SRPT, Natjam and
//! Amoeba arms on the first of them. Every headline field of `RunMetrics`
//! is recorded, plus an FNV-1a digest of the per-job outcomes in finishing
//! order, so any change to what the engine shows a policy, or to the
//! priorities and decisions a policy derives from it, moves a literal here.

use dsp_core::{
    run_experiment, ClusterProfile, ExperimentConfig, Params, PreemptMethod, SchedMethod,
};
use dsp_metrics::RunMetrics;
use dsp_trace::TraceParams;

/// The arm's run, held to its audit: no error-severity R1–R6 finding.
fn run(preempt: PreemptMethod, seed: u64) -> RunMetrics {
    let (run, report) = run_experiment(&ExperimentConfig {
        cluster: ClusterProfile::Ec2,
        num_jobs: 60,
        seed,
        sched: SchedMethod::Dsp,
        preempt,
        trace: TraceParams { task_scale: 0.06, ..TraceParams::default() },
        params: Params::default(),
    });
    assert!(report.passes(), "{} at seed {seed}:\n{report}", preempt.label());
    run.metrics
}

/// FNV-1a 64 over every job outcome, in the order jobs finished.
fn outcomes_fnv(m: &RunMetrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for j in &m.jobs {
        for word in [
            j.arrival.as_micros(),
            j.finish.as_micros(),
            j.deadline.as_micros(),
            j.mean_task_wait.as_micros(),
            j.tasks as u64,
        ] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One line holding every headline field of a run.
fn headline(m: &RunMetrics) -> String {
    format!(
        "tasks={} jobs={} met={} preempt={} disorder={} refusal={} overhead_us={} \
         first_us={} end_us={} makespan_us={} wait_us={} faults={}/{} outcomes={:016x}",
        m.tasks_completed,
        m.jobs_completed(),
        m.jobs.iter().filter(|j| j.met_deadline()).count(),
        m.preemptions,
        m.disorders,
        m.refusals,
        m.switch_overhead.as_micros(),
        m.first_start.map_or(0, |t| t.as_micros()),
        m.end_time.as_micros(),
        m.makespan().as_micros(),
        m.avg_job_waiting().as_micros(),
        m.node_failures,
        m.fault_rescheduled,
        outcomes_fnv(m),
    )
}

fn assert_pinned(preempt: PreemptMethod, seed: u64, want: &str) {
    let got = headline(&run(preempt, seed));
    assert_eq!(got, want, "{} at seed {seed} moved", preempt.label());
}

#[test]
fn dsp_arm_holds_its_headline_on_three_seeds() {
    assert_pinned(
        PreemptMethod::Dsp,
        2018,
        concat!(
            "tasks=3960 jobs=60 met=52 preempt=1372 disorder=0 refusal=0 overhead_us=1440600000 ",
            "first_us=300000000 end_us=2353635828 makespan_us=2053635828 wait_us=666124354 faults=0/0 outcomes=266bee39814ae2ea",
        ),
    );
    assert_pinned(
        PreemptMethod::Dsp,
        7,
        concat!(
            "tasks=3960 jobs=60 met=54 preempt=1399 disorder=0 refusal=0 overhead_us=1468950000 ",
            "first_us=300000000 end_us=2190738725 makespan_us=1890738725 wait_us=501253844 faults=0/0 outcomes=c31c7768f46e820f",
        ),
    );
    assert_pinned(
        PreemptMethod::Dsp,
        99,
        concat!(
            "tasks=3960 jobs=60 met=60 preempt=1232 disorder=0 refusal=0 overhead_us=1293600000 ",
            "first_us=300000000 end_us=2291657371 makespan_us=1991657371 wait_us=401837047 faults=0/0 outcomes=5ecf05abf91758c1",
        ),
    );
}

#[test]
fn baseline_arms_hold_their_headline() {
    assert_pinned(
        PreemptMethod::Srpt,
        2018,
        concat!(
            "tasks=3960 jobs=60 met=44 preempt=960 disorder=13385 refusal=13385 overhead_us=1008000000 ",
            "first_us=300000000 end_us=3023806873 makespan_us=2723806873 wait_us=816358401 faults=0/0 outcomes=093826628966b582",
        ),
    );
    assert_pinned(
        PreemptMethod::Natjam,
        2018,
        concat!(
            "tasks=3960 jobs=60 met=59 preempt=4277 disorder=3936 refusal=0 overhead_us=4490850000 ",
            "first_us=300000000 end_us=2430897326 makespan_us=2130897326 wait_us=596305667 faults=0/0 outcomes=699f78a065be2569",
        ),
    );
    assert_pinned(
        PreemptMethod::Amoeba,
        2018,
        concat!(
            "tasks=3960 jobs=60 met=50 preempt=16938 disorder=16534 refusal=0 overhead_us=17784900000 ",
            "first_us=300000000 end_us=2672944546 makespan_us=2372944546 wait_us=817266253 faults=0/0 outcomes=c9affa5e8c529aad",
        ),
    );
}
