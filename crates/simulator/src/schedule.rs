//! The offline scheduling output: `[t^s_ij, k|x_ijk=1]` per task.

use dsp_cluster::NodeId;
use dsp_dag::TaskId;
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

    /// The planned makespan: latest planned start (a lower-bound proxy used
    /// by tests; the true makespan comes out of the simulation).
    pub fn latest_start(&self) -> Time {
        self.assignments.iter().map(|a| a.start).max().unwrap_or(Time::ZERO)
    }

    /// Merge another schedule into this one.
    pub fn extend(&mut self, other: Schedule) {
        self.assignments.extend(other.assignments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        s.assign(TaskId::new(0, 0), NodeId(1), Time::from_secs(3));
        s.assign(TaskId::new(0, 1), NodeId(0), Time::from_secs(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.latest_start(), Time::from_secs(3));
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
