//! Trace-record rows and the paper's DAG-from-windows pipeline over them.
//!
//! (Persisting a job set so an experiment reruns on it — the role the
//! frozen May-2011 trace plays in the paper — is the `jobs` of a run's
//! snapshot, `dsp_service::codec::Snapshot`, which `dsp --out` writes.)

use crate::dag_builder::{build_dag_from_windows, DagCaps};
use dsp_dag::{critical_path_len, Job, JobClass, JobId, TaskSpec};
use dsp_units::{Dur, Mi, Mips, ResourceVec, Time};

/// One synthesized trace row, the shape of the Google-trace task-events
/// data the paper samples from: execution window plus normalized resource
/// consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// Job index within the trace.
    pub job: u32,
    /// Task index within the job.
    pub task: u32,
    /// Observed start of execution.
    pub start: Time,
    /// Observed end of execution.
    pub end: Time,
    /// Normalized CPU consumption (0, 1].
    pub cpu: f64,
    /// Normalized memory consumption (0, 1].
    pub mem: f64,
}

/// Reconstruct jobs from raw trace records — the paper's own pipeline:
/// group rows by job, take each task's `(start, end)` execution window,
/// apply the non-overlap dependency rule (capped at five levels and
/// fifteen dependents), and size each task as `duration × reference_mips`.
///
/// Rows may arrive in any order; job ids are renumbered densely in
/// first-appearance order (the engine indexes jobs by `JobId`). Each job's
/// arrival is its earliest observed start; its deadline is
/// `arrival + deadline_slack × critical path`.
pub fn jobs_from_records(
    records: &[TaskRecord],
    reference_mips: f64,
    deadline_slack: f64,
    caps: DagCaps,
) -> Vec<Job> {
    use std::collections::BTreeMap;
    // Group by original job id, tasks sorted by their task index.
    let mut by_job: BTreeMap<u32, Vec<&TaskRecord>> = BTreeMap::new();
    for r in records {
        by_job.entry(r.job).or_default().push(r);
    }
    let reference = Mips::new(reference_mips);
    by_job
        .into_values()
        .enumerate()
        .map(|(dense, mut rows)| {
            rows.sort_by_key(|r| r.task);
            let windows: Vec<(Time, Time)> = rows.iter().map(|r| (r.start, r.end)).collect();
            let dag = build_dag_from_windows(&windows, caps);
            let tasks: Vec<TaskSpec> = rows
                .iter()
                .map(|r| {
                    let dur = r.end.since(r.start);
                    TaskSpec::new(
                        Mi::new(dur.as_secs_f64() * reference_mips),
                        ResourceVec::new(r.cpu, r.mem, 0.02, 0.02),
                    )
                })
                .collect();
            let exec: Vec<Dur> = tasks.iter().map(|t| t.exec_time(reference)).collect();
            let cp = critical_path_len(&dag, &exec);
            let arrival = rows.iter().map(|r| r.start).min().unwrap_or(Time::ZERO);
            let deadline = arrival + cp.mul_f64(deadline_slack);
            Job::new(
                JobId(dense as u32),
                JobClass::round_robin(dense),
                arrival,
                deadline,
                tasks,
                dag,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_from_records_rebuilds_dags() {
        // Two jobs, interleaved rows, out-of-order task ids. Job 7 is a
        // two-stage pipeline (windows don't overlap); job 3 is parallel.
        let rec = |job, task, s, e| TaskRecord {
            job,
            task,
            start: Time::from_secs(s),
            end: Time::from_secs(e),
            cpu: 0.5,
            mem: 0.5,
        };
        let records = vec![rec(7, 1, 10, 20), rec(3, 0, 0, 5), rec(7, 0, 0, 8), rec(3, 1, 2, 6)];
        let jobs = jobs_from_records(&records, 1000.0, 8.0, DagCaps::default());
        assert_eq!(jobs.len(), 2);
        // Dense renumbering in BTreeMap (original id) order: 3 → 0, 7 → 1.
        assert_eq!(jobs[0].id, JobId(0));
        assert_eq!(jobs[1].id, JobId(1));
        // Job 3's windows overlap → independent.
        assert_eq!(jobs[0].dag.edge_count(), 0);
        // Job 7: task 0 ends (8) before task 1 starts (10) → an edge.
        assert!(jobs[1].dag.has_edge(0, 1));
        // Sizes follow duration × reference rate.
        assert_eq!(jobs[1].task(0).size.get(), 8.0 * 1000.0);
        // Arrival is the earliest start; deadline is slack × CP later.
        assert_eq!(jobs[1].arrival, Time::ZERO);
        assert_eq!(jobs[1].deadline, Time::from_secs(8 * (8 + 10)));
        for j in &jobs {
            dsp_dag::validate_job(j).unwrap();
        }
    }
}
