//! Cross-cutting metric invariants: whatever the method combination, the
//! accounting must balance.

use dsp_core::{
    run_experiment, ClusterProfile, ExperimentConfig, Params, PreemptMethod, SchedMethod,
};
use dsp_metrics::{render_csv, render_markdown, RunMetrics, SweepSeries};
use dsp_trace::TraceParams;

fn cfg(preempt: PreemptMethod, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        cluster: ClusterProfile::Ec2,
        num_jobs: 9,
        seed,
        sched: SchedMethod::Dsp,
        preempt,
        trace: TraceParams { task_scale: 0.06, ..TraceParams::default() },
        params: Params::default(),
    }
}

/// Run `c` and hold it to its audit: no error-severity R1–R6 finding.
fn run(c: &ExperimentConfig) -> RunMetrics {
    let (run, report) = run_experiment(c);
    assert!(report.passes(), "{}:\n{report}", c.preempt.label());
    run.metrics
}

#[test]
fn task_accounting_balances() {
    for p in [PreemptMethod::None, PreemptMethod::Dsp, PreemptMethod::Amoeba, PreemptMethod::Srpt] {
        let m = run(&cfg(p, 11));
        // Every job's recorded task count sums to the completed total.
        let sum: usize = m.jobs.iter().map(|j| j.tasks).sum();
        assert_eq!(sum as u64, m.tasks_completed, "{}", p.label());
        // Throughput × makespan re-derives the task count.
        let derived = m.throughput_tasks_per_ms() * m.makespan().as_millis_f64();
        assert!((derived - m.tasks_completed as f64).abs() < 1.0, "{}", p.label());
        // Attempts can never undercount successful evictions.
        assert!(m.preemption_attempts() >= m.preemptions);
        // Refusals are a subset of disorders.
        assert!(m.refusals <= m.disorders);
        // Overhead only exists alongside preemptions.
        if m.preemptions == 0 {
            assert!(m.switch_overhead.is_zero());
        }
    }
}

#[test]
fn job_outcomes_are_causally_ordered() {
    let m = run(&cfg(PreemptMethod::Dsp, 13));
    for j in &m.jobs {
        assert!(j.finish >= j.arrival, "job finished before arriving");
        assert!(j.finish <= m.end_time);
    }
    assert!(m.deadline_hit_rate() >= 0.0 && m.deadline_hit_rate() <= 1.0);
}

#[test]
fn renderers_are_deterministic_and_parse_back() {
    let mut s = SweepSeries::new("inv", "invariant check", "jobs", "y", vec![1.0, 2.0]);
    s.push("A", vec![0.5, 1.5]);
    s.push("B", vec![2.5, 3.5]);
    assert_eq!(render_markdown(&s), render_markdown(&s));
    let csv = render_csv(&s);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("x,A,B"));
    // Every data row parses back to the stored values.
    for (i, line) in lines.enumerate() {
        let cells: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
        assert_eq!(cells[0], s.x[i]);
        assert_eq!(cells[1], s.series[0].values[i]);
        assert_eq!(cells[2], s.series[1].values[i]);
    }
}

#[test]
fn idle_cluster_waits_are_dependency_only() {
    // A single job on the otherwise idle cluster: no resource contention,
    // so all waiting is dependency waiting (a task sits in its queue until
    // its precedents finish — the paper's queues hold whole scheduled
    // jobs). Mean task wait is therefore bounded by the job's own span.
    let mut c = cfg(PreemptMethod::None, 17);
    c.num_jobs = 1;
    let m = run(&c);
    assert_eq!(m.jobs_completed(), 1);
    let span = m.jobs[0].finish.since(m.jobs[0].arrival);
    assert!(
        m.avg_job_waiting() < span,
        "wait {} must sit inside the job's own span {}",
        m.avg_job_waiting(),
        span
    );
    assert_eq!(m.preemptions, 0);
    assert!(m.jobs[0].met_deadline());
}
