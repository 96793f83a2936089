//! Amoeba \[20\]: elasticity through preempting the biggest tasks.
//!
//! "The task that needs the most resources (i.e., longest remaining time
//! \[21\]) has the lowest priority and vice versa in preemption, to increase
//! the overall throughput. Amoeba uses a checkpointing mechanism … tasks
//! are restarted from their most recent checkpoints."
//!
//! No dependency awareness, no waiting-time factor, no deadline
//! constraints — exactly the gaps Fig. 6 charges it for.

use dsp_sim::{NodeView, PreemptAction, PreemptPolicy, TaskSnapshot, WorldCtx};
use dsp_units::Time;

/// The Amoeba policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct AmoebaPolicy;

fn resources_rank(s: &TaskSnapshot) -> (u64, u64) {
    // "Most resources" proxied by remaining time (the paper's own gloss),
    // tie-broken by demand mass.
    (s.remaining_time.as_micros(), (s.demand.l1() * 1e6) as u64)
}

impl PreemptPolicy for AmoebaPolicy {
    fn name(&self) -> &str {
        "Amoeba"
    }

    fn decide(&mut self, _now: Time, view: &NodeView, _world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        let mut actions = Vec::new();
        if view.running.is_empty() || view.waiting.is_empty() {
            return actions;
        }
        // Victims: running tasks by descending resource use (biggest
        // first). Candidates: the whole waiting queue (no δ window), by
        // ascending remaining time (shortest = highest priority).
        let mut victims: Vec<&TaskSnapshot> = view.running.iter().collect();
        victims.sort_by_key(|s| std::cmp::Reverse(resources_rank(s)));
        let mut waiters: Vec<&TaskSnapshot> = view.waiting.iter().collect();
        waiters.sort_by_key(|s| s.remaining_time.as_micros());
        let mut vi = 0usize;
        for w in waiters {
            if vi >= victims.len() {
                break;
            }
            let v = victims[vi];
            // A shorter waiter replaces the biggest running task.
            if w.remaining_time < v.remaining_time {
                actions.push(PreemptAction { evict: v.id, admit: w.id });
                vi += 1;
            } else {
                break; // waiters are sorted: nobody further is shorter
            }
        }
        actions
    }

    fn checkpointing(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::NodeId;
    use dsp_dag::{Dag, Job, JobClass, JobId, TaskId, TaskSpec};
    use dsp_units::{Dur, Mi, ResourceVec};

    fn snap(id: TaskId, running: bool, rem_ms: u64) -> TaskSnapshot {
        TaskSnapshot {
            id,
            remaining_work: Mi::new(1.0),
            remaining_time: Dur::from_millis(rem_ms),
            waited: Dur::ZERO,
            wait_since: if running { None } else { Some(Time::ZERO) },
            deadline: Time::MAX,
            running,
            ready: true,
            demand: ResourceVec::cpu_mem(0.1, 0.1),
            size: Mi::new(1.0),
            preemptions: 0,
        }
    }

    fn world_jobs() -> Vec<Job> {
        vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 6],
            Dag::new(6),
        )]
    }

    #[test]
    fn shortest_waiter_evicts_biggest_runner() {
        let jobs = world_jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![
                snap(TaskId::new(0, 0), true, 5_000),
                snap(TaskId::new(0, 1), true, 50_000),
            ],
            waiting: vec![snap(TaskId::new(0, 2), false, 1_000)],
            slots: 2,
        };
        let acts = AmoebaPolicy.decide(Time::ZERO, &view, &world);
        assert_eq!(
            acts,
            vec![PreemptAction { evict: TaskId::new(0, 1), admit: TaskId::new(0, 2) }]
        );
    }

    #[test]
    fn longer_waiter_does_not_preempt() {
        let jobs = world_jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 5_000)],
            waiting: vec![snap(TaskId::new(0, 2), false, 50_000)],
            slots: 1,
        };
        assert!(AmoebaPolicy.decide(Time::ZERO, &view, &world).is_empty());
    }

    #[test]
    fn multiple_waiters_take_multiple_victims() {
        let jobs = world_jobs();
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![
                snap(TaskId::new(0, 0), true, 40_000),
                snap(TaskId::new(0, 1), true, 50_000),
            ],
            waiting: vec![
                snap(TaskId::new(0, 2), false, 1_000),
                snap(TaskId::new(0, 3), false, 2_000),
            ],
            slots: 2,
        };
        let acts = AmoebaPolicy.decide(Time::ZERO, &view, &world);
        assert_eq!(acts.len(), 2);
        // Biggest victim paired with shortest waiter first.
        assert_eq!(acts[0].evict, TaskId::new(0, 1));
        assert_eq!(acts[0].admit, TaskId::new(0, 2));
        assert!(AmoebaPolicy.checkpointing());
    }
}
