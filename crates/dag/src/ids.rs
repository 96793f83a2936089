//! Stable identifiers for jobs and tasks.

use std::fmt;

/// Identifier of a job within one experiment run (`J_i` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// Raw index.
    #[inline]
    pub fn get(self) -> u32 {
        self.0
    }

    /// Usize index for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// Identifier of a task: its job plus the task's index within that job's
/// DAG (`T_ij` in the paper — job `i`, task `j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    /// Owning job.
    pub job: JobId,
    /// Index within the job's DAG, `0..m`.
    pub index: u32,
}

impl TaskId {
    /// Construct from raw indices.
    #[inline]
    pub fn new(job: u32, index: u32) -> Self {
        TaskId { job: JobId(job), index }
    }

    /// Usize task index for vector addressing within the job.
    #[inline]
    pub fn idx(self) -> usize {
        self.index as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.job.0, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_by_job_then_index() {
        let a = TaskId::new(0, 5);
        let b = TaskId::new(1, 0);
        let c = TaskId::new(1, 3);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobId(7).to_string(), "J7");
        assert_eq!(TaskId::new(2, 9).to_string(), "T2.9");
    }
}
