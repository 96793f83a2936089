//! Natjam \[21\]: production jobs preempt research jobs.
//!
//! "Natjam assigns higher priority to production jobs and lower priority to
//! research jobs … For an arrival production job, Natjam selects a research
//! job for eviction that uses the most resources firstly, that has the
//! maximum deadline secondly, and that has the shortest remaining time
//! thirdly. Also, it uses a checkpointing mechanism."
//!
//! The Google-trace-like workload has no explicit production/research
//! label; following Natjam's own deployment story (latency-sensitive
//! production vs batch research), we map the paper's *small* job class to
//! production and medium/large to research. Only research tasks are ever
//! evicted, which is why Natjam shows fewer preemptions than Amoeba/SRPT in
//! Fig. 6(d).

use dsp_dag::JobClass;
use dsp_sim::{NodeView, PreemptAction, PreemptPolicy, TaskSnapshot, WorldCtx};
use dsp_units::Time;

/// The Natjam policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct NatjamPolicy;

fn is_production(world: &WorldCtx<'_>, s: &TaskSnapshot) -> bool {
    world.job_of(s.id).class == JobClass::Small
}

impl PreemptPolicy for NatjamPolicy {
    fn name(&self) -> &str {
        "Natjam"
    }

    fn decide(&mut self, _now: Time, view: &NodeView, world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        let mut actions = Vec::new();
        if view.running.is_empty() || view.waiting.is_empty() {
            return actions;
        }
        // Victims: running *research* tasks, ordered by Natjam's eviction
        // key — most resources, then max deadline, then shortest remaining.
        let mut victims: Vec<&TaskSnapshot> =
            view.running.iter().filter(|r| !is_production(world, r)).collect();
        victims.sort_by(|a, b| {
            b.demand
                .l1()
                .total_cmp(&a.demand.l1())
                .then(b.deadline.cmp(&a.deadline))
                .then(a.remaining_time.cmp(&b.remaining_time))
                .then(a.id.cmp(&b.id))
        });
        // Every waiting production task may evict one research task (whole
        // queue considered; no dependency check — Natjam predates DAG
        // awareness).
        for (victim, w) in
            victims.iter().zip(view.waiting.iter().filter(|w| is_production(world, w)))
        {
            actions.push(PreemptAction { evict: victim.id, admit: w.id });
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

    fn job(id: u32, class: JobClass) -> Job {
        Job::new(
            JobId(id),
            class,
            Time::ZERO,
            Time::from_secs(1000),
            vec![TaskSpec::sized(1000.0); 3],
            Dag::new(3),
        )
    }

    fn snap(id: TaskId, running: bool, demand: f64, deadline_s: u64, rem_ms: u64) -> TaskSnapshot {
        TaskSnapshot {
            id,
            remaining_work: Mi::new(1.0),
            remaining_time: Dur::from_millis(rem_ms),
            waited: Dur::ZERO,
            wait_since: if running { None } else { Some(Time::ZERO) },
            deadline: Time::from_secs(deadline_s),
            running,
            ready: true,
            demand: ResourceVec::cpu_mem(demand, demand),
            size: Mi::new(1.0),
            preemptions: 0,
        }
    }

    #[test]
    fn production_evicts_research_by_key() {
        let jobs = vec![job(0, JobClass::Small), job(1, JobClass::Medium), job(2, JobClass::Large)];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![
                snap(TaskId::new(1, 0), true, 0.2, 100, 5_000), // research, small demand
                snap(TaskId::new(2, 0), true, 0.9, 100, 5_000), // research, big demand
            ],
            waiting: vec![snap(TaskId::new(0, 0), false, 0.1, 50, 1_000)], // production
            slots: 2,
        };
        let acts = NatjamPolicy.decide(Time::ZERO, &view, &world);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].evict, TaskId::new(2, 0), "most-resources research evicted first");
        assert_eq!(acts[0].admit, TaskId::new(0, 0));
    }

    #[test]
    fn production_running_tasks_are_never_evicted() {
        let jobs = vec![job(0, JobClass::Small), job(1, JobClass::Small)];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 0.9, 100, 60_000)],
            waiting: vec![snap(TaskId::new(1, 0), false, 0.1, 50, 100)],
            slots: 1,
        };
        assert!(NatjamPolicy.decide(Time::ZERO, &view, &world).is_empty());
    }

    #[test]
    fn research_waiters_do_not_preempt() {
        let jobs = vec![job(0, JobClass::Medium), job(1, JobClass::Large)];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![snap(TaskId::new(0, 0), true, 0.5, 100, 60_000)],
            waiting: vec![snap(TaskId::new(1, 0), false, 0.5, 50, 100)],
            slots: 1,
        };
        assert!(NatjamPolicy.decide(Time::ZERO, &view, &world).is_empty());
    }

    #[test]
    fn deadline_breaks_demand_ties() {
        let jobs = vec![job(0, JobClass::Small), job(1, JobClass::Medium), job(2, JobClass::Large)];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let view = NodeView {
            node: NodeId(0),
            running: vec![
                snap(TaskId::new(1, 0), true, 0.5, 10, 5_000),
                snap(TaskId::new(2, 0), true, 0.5, 900, 5_000),
            ],
            waiting: vec![snap(TaskId::new(0, 0), false, 0.1, 50, 1_000)],
            slots: 2,
        };
        let acts = NatjamPolicy.decide(Time::ZERO, &view, &world);
        // Equal demand: the max-deadline research task goes first.
        assert_eq!(acts[0].evict, TaskId::new(2, 0));
    }

    #[test]
    fn nan_demand_does_not_make_eviction_input_order_dependent() {
        // Regression: the eviction sort used
        // `partial_cmp(..).unwrap_or(Equal)`, so a NaN demand compared
        // "equal" to everything and the victim depended on the order
        // `view.running` happened to arrive in. With `total_cmp` the NaN
        // sorts to a fixed position and both permutations must agree.
        let jobs = vec![job(0, JobClass::Small), job(1, JobClass::Medium), job(2, JobClass::Large)];
        let world = WorldCtx { jobs: &jobs, now: Time::ZERO, epoch: Dur::from_secs(5) };
        let nan = snap(TaskId::new(1, 0), true, f64::NAN, 100, 5_000);
        let big = snap(TaskId::new(2, 0), true, 0.9, 100, 5_000);
        let waiter = snap(TaskId::new(0, 0), false, 0.1, 50, 1_000);
        let decide = |running: Vec<TaskSnapshot>| {
            let view = NodeView { node: NodeId(0), running, waiting: vec![waiter], slots: 2 };
            NatjamPolicy.decide(Time::ZERO, &view, &world)
        };
        let fwd = decide(vec![nan, big]);
        let rev = decide(vec![big, nan]);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].evict, rev[0].evict, "victim must not depend on input permutation");
        assert_eq!(fwd[0].admit, rev[0].admit);
    }
}
