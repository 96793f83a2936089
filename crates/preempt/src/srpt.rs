//! SRPT \[22\]: decentralized preemptive scheduling by a linear combination
//! of waiting time and remaining time.
//!
//! "It uses the linear combination of waiting time and the remaining time
//! for a task … to determine the priority of a task. SRPT does not use a
//! checkpoint mechanism, so a preempted task must be restarted from
//! scratch. As in \[22\], we set the weight of waiting time α to 0.5 and the
//! weight of remaining time β to 1."
//!
//! Priority here is `α·t_w − β·t_rem` (waiting raises urgency, remaining
//! work lowers it — shortest-remaining-processing-time with an anti-
//! starvation term). The whole waiting queue is considered, dependencies
//! are ignored, and restarts make preempted work repeat — the combination
//! the paper blames for SRPT's last-place throughput and first-place
//! preemption count.

use dsp_sim::{NodeView, PreemptAction, PreemptPolicy, TaskSnapshot, WorldCtx};
use dsp_units::{Dur, Time};

/// α: SRPT's weight of waiting time (paper: 0.5).
pub const ALPHA: f64 = 0.5;

/// β: SRPT's weight of remaining time (paper: 1).
pub const BETA: f64 = 1.0;

/// Minimum remaining-time advantage a waiter must hold over its victim.
/// Without checkpointing every eviction erases the victim's progress, so
/// allowing arbitrarily small advantages lets the waiting-time term drive a
/// Zeno cycle in which long tasks preempt each other forever and nothing
/// past one epoch of work ever completes. Requiring the waiter to be
/// shorter by a fixed margin makes every preemption chain strictly
/// decreasing in remaining time, which guarantees termination; 100 ms is
/// the scale of one context switch, i.e. "the gain must at least pay for
/// the switch". (The cited system \[22\] makes preemption decisions per job
/// arrival, not per second, so it never hits this.)
pub const MIN_GAIN: Dur = Dur::from_millis(100);

/// The SRPT policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SrptPolicy;

impl SrptPolicy {
    /// The linear-combination priority at instant `now`.
    pub fn priority(&self, s: &TaskSnapshot, now: Time) -> f64 {
        ALPHA * s.waiting(now).as_secs_f64() - BETA * s.remaining_time.as_secs_f64()
    }
}

impl PreemptPolicy for SrptPolicy {
    fn name(&self) -> &str {
        "SRPT"
    }

    fn decide(&mut self, now: Time, view: &NodeView, _world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        let mut actions = Vec::new();
        if view.running.is_empty() || view.waiting.is_empty() {
            return actions;
        }
        // Running tasks ascending by priority; waiting descending. Each
        // task's priority is computed once; the id breaks ties, so equal
        // priorities never let the input permutation pick.
        let keyed = |s| (self.priority(s, now), s);
        let mut victims: Vec<(f64, &TaskSnapshot)> = view.running.iter().map(keyed).collect();
        victims.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.id.cmp(&b.1.id)));
        let mut waiters: Vec<(f64, &TaskSnapshot)> = view.waiting.iter().map(keyed).collect();
        waiters.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.id.cmp(&b.1.id)));
        let mut vi = 0usize;
        for (pw, w) in waiters {
            let Some(&(pv, v)) = victims.get(vi) else { break };
            // Combined-priority win plus the MIN_GAIN remaining-time
            // advantage (see its docs for why both are required).
            if pw > pv && w.remaining_time + MIN_GAIN <= v.remaining_time {
                actions.push(PreemptAction { evict: v.id, admit: w.id });
                vi += 1;
            } else {
                break;
            }
        }
        actions
    }

    /// SRPT has no checkpoint mechanism.
    fn checkpointing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::NodeId;
    use dsp_dag::{Dag, Job, JobClass, JobId, TaskId, TaskSpec};
    use dsp_units::{Dur, Mi, ResourceVec};

    /// A task that, at time zero, has waited `wait_ms`.
    fn snap(id: TaskId, running: bool, rem_ms: u64, wait_ms: u64) -> TaskSnapshot {
        TaskSnapshot {
            id,
            remaining_work: Mi::new(1.0),
            remaining_time: Dur::from_millis(rem_ms),
            waited: Dur::from_millis(wait_ms),
            wait_since: if running { None } else { Some(Time::ZERO) },
            deadline: Time::MAX,
            running,
            ready: true,
            demand: ResourceVec::cpu_mem(0.1, 0.1),
            size: Mi::new(1.0),
            preemptions: 0,
        }
    }

    fn jobs() -> Vec<Job> {
        vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 4],
            Dag::new(4),
        )]
    }

    #[test]
    fn priority_combines_waiting_and_remaining() {
        let p = SrptPolicy;
        let short = snap(TaskId::new(0, 0), false, 1_000, 0);
        let long = snap(TaskId::new(0, 1), false, 10_000, 0);
        assert!(p.priority(&short, Time::ZERO) > p.priority(&long, Time::ZERO));
        // Enough waiting flips the order: 0.5·t_w − 10 > −1 needs t_w > 18.
        let long_waited = snap(TaskId::new(0, 1), false, 10_000, 20_000);
        assert!(p.priority(&long_waited, Time::ZERO) > p.priority(&short, Time::ZERO));
    }

    #[test]
    fn shorter_task_preempts() {
        let jobs = jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 30_000, 0)],
            waiting: vec![snap(TaskId::new(0, 1), false, 500, 0)],
            slots: 1,
        };
        let acts = SrptPolicy.decide(Time::ZERO, &view, &world);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].admit, TaskId::new(0, 1));
        assert!(!SrptPolicy.checkpointing());
    }

    #[test]
    fn equal_priorities_do_not_thrash() {
        let jobs = jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 5_000, 0)],
            waiting: vec![snap(TaskId::new(0, 1), false, 5_000, 0)],
            slots: 1,
        };
        assert!(SrptPolicy.decide(Time::ZERO, &view, &world).is_empty());
    }

    #[test]
    fn pairs_best_waiter_with_worst_runner() {
        let jobs = jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![
                snap(TaskId::new(0, 0), true, 9_000, 0),
                snap(TaskId::new(0, 1), true, 50_000, 0),
            ],
            waiting: vec![snap(TaskId::new(0, 2), false, 100, 0)],
            slots: 2,
        };
        let acts = SrptPolicy.decide(Time::ZERO, &view, &world);
        assert_eq!(
            acts,
            vec![PreemptAction { evict: TaskId::new(0, 1), admit: TaskId::new(0, 2) }]
        );
    }

    #[test]
    fn equal_priority_victims_are_ordered_by_id_not_input_order() {
        // Regression: the victim sort collapsed ties (and NaN) with
        // `unwrap_or(Equal)`, so which of two equal-priority runners was
        // evicted depended on the order `view.running` arrived in. The
        // tie-break on TaskId makes the decision a pure function of the
        // snapshot *set*.
        let jobs = jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let a = snap(TaskId::new(0, 0), true, 30_000, 0);
        let b = snap(TaskId::new(0, 1), true, 30_000, 0);
        let waiter = snap(TaskId::new(0, 2), false, 500, 0);
        let decide = |running: Vec<TaskSnapshot>| {
            let view = NodeView { node: NodeId(0), running, waiting: vec![waiter], slots: 2 };
            SrptPolicy.decide(Time::ZERO, &view, &world)
        };
        let fwd = decide(vec![a, b]);
        let rev = decide(vec![b, a]);
        assert_eq!(fwd, rev, "eviction must not depend on input permutation");
        assert_eq!(fwd[0].evict, TaskId::new(0, 0), "lowest id wins the tie");
    }
}
