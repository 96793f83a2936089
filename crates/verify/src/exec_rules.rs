//! Dynamic rules over a finished run's [`ExecHistory`]: R5 preemption-
//! overhead conservation and R6 work conservation.
//!
//! Both are exact accounting identities of the engine's execution model:
//!
//! * **R5** — every recovery charge costs `t^r + σ` (the paper's
//!   per-preemption overhead), so a completed task's total paid overhead
//!   must be `charges × (t^r + σ)`, and the run's total switch overhead
//!   must equal the sum of `N^p (t^r + σ)` over tasks.
//! * **R6** — a completed task processed exactly its size: the MI executed
//!   across all stints minus the MI discarded by restart-from-scratch
//!   evictions equals `l_ij`.
//!
//! The identities are methods of the record itself
//! ([`TaskHistory::overhead_owed`](dsp_sim::TaskHistory::overhead_owed),
//! [`TaskHistory::conserves_work`](dsp_sim::TaskHistory::conserves_work),
//! [`ExecHistory::policy_overhead`]), which the engine's debug check
//! asserts as well; this module turns their breaks into diagnostics.

use crate::diag::{Diagnostic, Finding, Report, Rule, Severity};
use dsp_metrics::RunMetrics;
use dsp_sim::ExecHistory;

/// Run R5–R6 over an execution history, plus the history-vs-metrics
/// overhead cross-check when the run's [`RunMetrics`] are available.
pub fn check_execution(history: &ExecHistory, metrics: Option<&RunMetrics>) -> Report {
    let mut report = Report::default();
    for t in history.completed() {
        let owed = t.overhead_owed(history.sigma);
        if t.overhead_paid != owed {
            report.push(Diagnostic {
                rule: Rule::Overhead,
                severity: Severity::Error,
                task: Some(t.task),
                node: Some(t.node),
                at: Some(t.finish),
                finding: Finding::OverheadOwed {
                    paid: t.overhead_paid,
                    charges: t.recovery_charges,
                    per_charge: t.recovery + history.sigma,
                    owed,
                },
            });
        }
        if !t.conserves_work() {
            report.push(Diagnostic {
                rule: Rule::WorkConservation,
                severity: Severity::Error,
                task: Some(t.task),
                node: Some(t.node),
                at: Some(t.finish),
                finding: Finding::WorkLost { executed: t.executed, lost: t.lost, size: t.size },
            });
        }
    }
    if let Some(m) = metrics {
        let policy_overhead = history.policy_overhead();
        if m.switch_overhead != policy_overhead {
            report.push(Diagnostic {
                rule: Rule::Overhead,
                severity: Severity::Error,
                task: None,
                node: None,
                at: None,
                finding: Finding::SwitchOverhead {
                    reported: m.switch_overhead,
                    owed: policy_overhead,
                },
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::NodeId;
    use dsp_dag::TaskId;
    use dsp_sim::TaskHistory;
    use dsp_units::{Dur, Mi, Time};

    fn record(preemptions: u32) -> TaskHistory {
        let recovery = Dur::from_secs(1);
        let sigma = Dur::from_millis(50);
        TaskHistory {
            task: TaskId::new(0, 0),
            node: NodeId(0),
            planned_start: Time::ZERO,
            finish: Time::from_secs(10),
            completed: true,
            preemptions,
            recovery_charges: preemptions,
            overhead_paid: (recovery + sigma) * preemptions as u64,
            executed: Mi::new(1000.0),
            lost: Mi::ZERO,
            size: Mi::new(1000.0),
            recovery,
        }
    }

    fn history(tasks: Vec<TaskHistory>) -> ExecHistory {
        ExecHistory { sigma: Dur::from_millis(50), tasks }
    }

    #[test]
    fn consistent_history_is_clean() {
        let h = history(vec![record(0), record(3)]);
        assert!(check_execution(&h, None).is_empty());
    }

    #[test]
    fn unpaid_overhead_fires_r5() {
        let mut r = record(2);
        r.overhead_paid = Dur::from_millis(1);
        let h = history(vec![r]);
        let report = check_execution(&h, None);
        assert!(report.fired(Rule::Overhead));
        assert!(!report.passes());
    }

    #[test]
    fn lost_work_must_be_re_executed_or_r6_fires() {
        let mut r = record(1);
        // Claims 300 MI evaporated without being re-run.
        r.lost = Mi::new(300.0);
        let h = history(vec![r]);
        assert!(check_execution(&h, None).fired(Rule::WorkConservation));
        // Re-executing the lost work restores the invariant.
        let mut ok = record(1);
        ok.lost = Mi::new(300.0);
        ok.executed = Mi::new(1300.0);
        assert!(check_execution(&history(vec![ok]), None).is_empty());
    }

    #[test]
    fn incomplete_tasks_are_exempt() {
        let mut r = record(1);
        r.completed = false;
        r.executed = Mi::new(10.0);
        r.overhead_paid = Dur::ZERO;
        let h = history(vec![r]);
        assert!(check_execution(&h, None).is_empty());
    }

    #[test]
    fn metrics_mismatch_fires_r5() {
        let h = history(vec![record(2)]);
        // Correct total: 2 × (1s + 50ms).
        let mut m = RunMetrics { switch_overhead: Dur::from_millis(2100), ..RunMetrics::default() };
        assert!(check_execution(&h, Some(&m)).is_empty());
        m.switch_overhead = Dur::from_millis(2000);
        let report = check_execution(&h, Some(&m));
        assert!(report.fired(Rule::Overhead));
    }
}
