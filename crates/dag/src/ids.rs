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

    /// Position of this id in `sorted`, whose `key`s are ascending job
    /// ids: one probe when the ids are dense (`key(sorted[i]) == i`, every
    /// batch run), a binary search otherwise (the service's strided lanes).
    #[inline]
    pub fn position_in<T>(self, sorted: &[T], key: impl Fn(&T) -> JobId) -> Option<usize> {
        match sorted.get(self.idx()) {
            Some(x) if key(x) == self => Some(self.idx()),
            _ => sorted.binary_search_by(|x| key(x).cmp(&self)).ok(),
        }
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
    fn job_probe_agrees_with_a_binary_search() {
        // Dense ids (every batch run), the strided lanes of a sharded
        // service (shard 1 of 2 and 3 of 4), a dense prefix that turns
        // sparse, and a run whose ids sit past their positions.
        let cases: [&[u32]; 5] =
            [&[0, 1, 2, 3, 4], &[1, 3, 5, 7, 9], &[3, 7, 11, 15], &[0, 1, 2, 9, 40], &[5, 6, 7]];
        for ids in cases {
            let ids: Vec<JobId> = ids.iter().copied().map(JobId).collect();
            for probe in 0..45u32 {
                let id = JobId(probe);
                assert_eq!(
                    id.position_in(&ids, |&j| j),
                    ids.binary_search(&id).ok(),
                    "{id} in {ids:?}"
                );
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobId(7).to_string(), "J7");
        assert_eq!(TaskId::new(2, 9).to_string(), "T2.9");
    }
}
