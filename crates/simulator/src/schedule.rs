//! The offline scheduling output: `[t^s_ij, k|x_ijk=1]` per task.

use dsp_cluster::{ClusterSpec, NodeId};
use dsp_dag::{Job, TaskId};
use dsp_units::Time;

/// One task's placement: its target node and planned starting time, exactly
/// the pair the Section III ILP outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The task.
    pub task: TaskId,
    /// Target node `k` with `x_ij,k = 1`.
    pub node: NodeId,
    /// Planned starting time `t^s_ij`. Queues order by this.
    pub start: Time,
}

impl Assignment {
    /// Planned finish `t^s + l̂/g(k)`: the estimate the scheduler planned
    /// on, at the assigned node's Eq. 1 rate. `job` is the job the task
    /// belongs to.
    pub fn planned_finish(&self, job: &Job, cluster: &ClusterSpec) -> Time {
        self.start + job.task(self.task.index).est_exec_time(cluster.node(self.node).rate())
    }
}

/// A complete offline schedule for a batch of jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// All assignments; any order (the engine sorts per node).
    pub assignments: Vec<Assignment>,
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Add one assignment.
    pub fn assign(&mut self, task: TaskId, node: NodeId, start: Time) {
        self.assignments.push(Assignment { task, node, start });
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no task is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Merge another schedule into this one.
    pub fn extend(&mut self, other: Schedule) {
        self.assignments.extend(other.assignments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    #[test]
    fn builder() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        s.assign(TaskId::new(0, 0), NodeId(1), Time::from_secs(3));
        s.assign(TaskId::new(0, 1), NodeId(0), Time::from_secs(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn planned_finish_adds_the_estimate_at_the_node_rate() {
        let job = Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 2],
            Dag::new(2),
        );
        let mut cluster = dsp_cluster::uniform(2, 1000.0, 1);
        cluster.nodes[1].s_cpu = 4000.0;
        cluster.nodes[1].s_mem = 4000.0;
        let on = |node| Assignment { task: job.task_id(1), node, start: Time::from_secs(3) };
        assert_eq!(on(NodeId(0)).planned_finish(&job, &cluster), Time::from_secs(4));
        assert_eq!(
            on(NodeId(1)).planned_finish(&job, &cluster),
            Time::from_secs(3) + dsp_units::Dur::from_millis(250)
        );
    }

    #[test]
    fn extend_merges() {
        let mut a = Schedule::new();
        a.assign(TaskId::new(0, 0), NodeId(0), Time::ZERO);
        let mut b = Schedule::new();
        b.assign(TaskId::new(1, 0), NodeId(1), Time::from_secs(1));
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
