//! Post-run execution history: the per-task accounting record the engine
//! keeps so external checkers (`dsp-verify`) can audit a finished run.
//!
//! The paper's preemption-overhead model charges every preempted task
//! `N^p (t^r + σ)` of recovery time; work conservation demands that the MI
//! a task actually processed, minus the MI discarded by restart-from-scratch
//! evictions, equals its size `l_ij`. Both identities are only checkable
//! with per-task stint accounting, which [`TaskHistory`] carries. The record
//! is self-contained (sizes and recovery costs are embedded) so a serialized
//! history can be verified without the original job set.

use dsp_cluster::NodeId;
use dsp_dag::TaskId;
use dsp_units::{Dur, Mi, Time};

/// One task's execution accounting over a whole simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskHistory {
    /// The task.
    pub task: TaskId,
    /// Node the task last ran (or waited) on — faults may migrate it away
    /// from its planned node.
    pub node: NodeId,
    /// Planned starting time from the offline schedule.
    pub planned_start: Time,
    /// Completion instant; meaningful only when `completed`.
    pub finish: Time,
    /// Did the task run to completion?
    pub completed: bool,
    /// `N^p`: policy preemptions suffered.
    pub preemptions: u32,
    /// Recovery charges levied: policy preemptions plus fault evictions
    /// that charged recovery (transient node crashes).
    pub recovery_charges: u32,
    /// Recovery overhead actually paid at re-dispatch, summed over stints.
    pub overhead_paid: Dur,
    /// MI processed across all stints, including work later discarded by
    /// restart-from-scratch evictions.
    pub executed: Mi,
    /// MI discarded by restart-from-scratch evictions.
    pub lost: Mi,
    /// The task's size `l_ij`.
    pub size: Mi,
    /// The task's per-preemption recovery time `t^r_ij` (without σ).
    pub recovery: Dur,
}

/// Execution history of one simulation run: every injected task's
/// accounting record plus the dispatch latency σ in force.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecHistory {
    /// σ: dispatch latency added to every recovery charge.
    pub sigma: Dur,
    /// One record per injected task.
    pub tasks: Vec<TaskHistory>,
}

/// Relative tolerance for MI comparisons: sizes are `f64` and stint yields
/// go through rate × duration round-trips.
pub const MI_REL_TOL: f64 = 1e-6;

impl TaskHistory {
    /// R5: `recovery_charges × (t^r + σ)`, what a completed task paid.
    pub fn overhead_owed(&self, sigma: Dur) -> Dur {
        (self.recovery + sigma) * self.recovery_charges as u64
    }

    /// R6: `executed − lost = l_ij`, within [`MI_REL_TOL`].
    pub fn conserves_work(&self) -> bool {
        let size = self.size.get();
        (self.executed.get() - self.lost.get() - size).abs() <= size.abs().max(1.0) * MI_REL_TOL
    }
}

impl ExecHistory {
    /// Records of tasks that ran to completion.
    pub fn completed(&self) -> impl Iterator<Item = &TaskHistory> {
        self.tasks.iter().filter(|t| t.completed)
    }

    /// R5: `Σ N^p (t^r + σ)`, the switch overhead the metrics report.
    pub fn policy_overhead(&self) -> Dur {
        self.tasks.iter().map(|t| (t.recovery + self.sigma) * t.preemptions as u64).sum()
    }
}
