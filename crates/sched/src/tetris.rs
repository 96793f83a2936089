//! Tetris \[7\]: multi-resource alignment packing, in the paper's two
//! dependency flavours.
//!
//! "When resources on a machine become available, it first selects the set
//! of tasks whose peak usage of each resource can be accommodated on that
//! machine. It then computes an alignment score (a weighted dot product
//! between the vector of the machine's available resources and the task's
//! peak usage of resources) … The task with the highest alignment score is
//! scheduled to the machine."
//!
//! * `TetrisDep::None` — **TetrisW/oDep**: dependency is ignored entirely;
//!   any unscheduled task is a packing candidate, so dependents are placed
//!   early and idle in queues at run time.
//! * `TetrisDep::Simple` — **TetrisW/SimDep**: "precedent tasks complete
//!   before their dependent tasks start to run" — only tasks whose
//!   precedents have finished (in the estimated timeline) are candidates.
//!
//! Both plan through the crate's one packing loop (`pack`), so slots free
//! at the same instant are filled fastest node first, as in every other
//! list arm.

use crate::api::Scheduler;
use crate::pack::{pack, Order};
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::{ResourceVec, Time};

/// Dependency handling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TetrisDep {
    /// TetrisW/oDep: no dependency awareness.
    None,
    /// TetrisW/SimDep: simple precedent-first ordering.
    Simple,
}

/// The Tetris packer.
#[derive(Debug, Clone, Copy)]
pub struct TetrisScheduler {
    /// Dependency flavour (fig. 5 compares both).
    pub dep: TetrisDep,
}

impl TetrisScheduler {
    /// TetrisW/oDep.
    pub fn without_dep() -> Self {
        TetrisScheduler { dep: TetrisDep::None }
    }

    /// TetrisW/SimDep.
    pub fn with_simple_dep() -> Self {
        TetrisScheduler { dep: TetrisDep::Simple }
    }
}

/// Ready tasks scanned per decision. Tetris itself only scores the tasks
/// whose peak demands fit; a bounded window keeps each decision O(cap) at
/// cluster scale.
const SCAN_CAP: usize = 4096;

/// W/SimDep: among the ready tasks that fit the node's capacity, the one
/// whose demand best aligns (dot product) with the node's free resources.
struct Aligned<'a> {
    jobs: &'a [Job],
    cluster: &'a ClusterSpec,
    ready: Vec<(usize, u32)>,
}

impl Order for Aligned<'_> {
    fn ready(&mut self, j: usize, v: u32) {
        self.ready.push((j, v));
    }

    fn next(&mut self, n: usize, free: &ResourceVec) -> Option<(usize, u32)> {
        let cap = self.cluster.nodes[n].capacity;
        let mut best: Option<(f64, usize)> = None;
        for (ri, &(j, v)) in self.ready.iter().enumerate().take(SCAN_CAP) {
            let demand = self.jobs[j].task(v).demand;
            if !demand.fits_in(&cap) {
                continue;
            }
            let score = demand.dot(free);
            if best.is_none_or(|(b, _)| score > b + 1e-12) {
                best = Some((score, ri));
            }
        }
        best.map(|(_, ri)| self.ready.swap_remove(ri))
    }
}

/// W/oDep: every task, heaviest demand mass first, into whichever slot
/// frees next. Readiness is ignored: dependent tasks get early planned
/// starts and then idle in the run-time queue until their precedents
/// finish, which is how the paper's W/oDep wastes resources.
struct Oblivious(std::vec::IntoIter<(usize, u32)>);

impl Oblivious {
    fn new(jobs: &[Job]) -> Self {
        let mut all: Vec<(usize, u32)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(j, job)| (0..job.num_tasks() as u32).map(move |v| (j, v)))
            .collect();
        all.sort_by(|&(aj, av), &(bj, bv)| {
            let da = jobs[aj].task(av).demand.l1();
            let db = jobs[bj].task(bv).demand.l1();
            db.total_cmp(&da).then((aj, av).cmp(&(bj, bv)))
        });
        Oblivious(all.into_iter())
    }
}

impl Order for Oblivious {
    fn ready(&mut self, _: usize, _: u32) {}

    fn next(&mut self, _: usize, _: &ResourceVec) -> Option<(usize, u32)> {
        self.0.next()
    }
}

impl Scheduler for TetrisScheduler {
    fn name(&self) -> &str {
        match self.dep {
            TetrisDep::None => "TetrisW/oDep",
            TetrisDep::Simple => "TetrisW/SimDep",
        }
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        match self.dep {
            TetrisDep::Simple => {
                let mut order = Aligned { jobs, cluster, ready: Vec::new() };
                pack(jobs, cluster, at, node_avail, &mut order)
            }
            TetrisDep::None => pack(jobs, cluster, at, node_avail, &mut Oblivious::new(jobs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};
    use dsp_units::{Mi, ResourceVec};

    fn chain_job(id: u32, n: usize) -> Job {
        let mut dag = Dag::new(n);
        for v in 0..n as u32 - 1 {
            dag.add_edge(v, v + 1).unwrap();
        }
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); n],
            dag,
        )
    }

    #[test]
    fn both_flavours_cover_all_tasks() {
        let jobs = vec![chain_job(0, 4), chain_job(1, 3)];
        let cluster = uniform(2, 1000.0, 2);
        for mut sched in [TetrisScheduler::without_dep(), TetrisScheduler::with_simple_dep()] {
            let s = sched.schedule(&jobs, &cluster, Time::ZERO);
            assert!(schedule_covers_jobs(&s, &jobs, &cluster), "{}", sched.name());
        }
    }

    #[test]
    fn simdep_orders_chains_wo_dep_does_not() {
        let jobs = vec![chain_job(0, 3)];
        let cluster = uniform(3, 1000.0, 1);
        fn exec_1s() -> dsp_units::Dur {
            dsp_units::Dur::from_secs(1) // 1000 MI at 1000 MIPS
        }
        let starts_in_order = |s: &Schedule| {
            let mut v: Vec<_> = s.assignments.clone();
            v.sort_by_key(|a| a.task.index);
            v.windows(2).all(|w| w[0].start + exec_1s() <= w[1].start)
        };
        let s_dep = TetrisScheduler::with_simple_dep().schedule(&jobs, &cluster, Time::ZERO);
        assert!(starts_in_order(&s_dep));
        // W/oDep places all three tasks immediately (3 free nodes) even
        // though they form a chain.
        let s_nodep = TetrisScheduler::without_dep().schedule(&jobs, &cluster, Time::ZERO);
        assert!(s_nodep.assignments.iter().all(|a| a.start == Time::ZERO));
    }

    #[test]
    fn alignment_prefers_fuller_fit() {
        // Two tasks: a big-demand and a small-demand one; one node. Tetris
        // picks the higher dot-product (the big task) first.
        let mut big = TaskSpec::sized(1000.0);
        big.demand = ResourceVec::cpu_mem(1.8, 1.8);
        let mut small = TaskSpec::sized(1000.0);
        small.demand = ResourceVec::cpu_mem(0.2, 0.2);
        let job = Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![small.clone(), big.clone()],
            Dag::new(2),
        );
        let mut cluster = uniform(1, 1000.0, 1);
        cluster.nodes[0].capacity = ResourceVec::cpu_mem(2.0, 2.0);
        let s = TetrisScheduler::without_dep().schedule(&[job], &cluster, Time::ZERO);
        let first = s.assignments.iter().min_by_key(|a| a.start).unwrap();
        assert_eq!(first.task.index, 1, "big task should pack first");
        let _ = Mi::ZERO;
    }

    #[test]
    fn oversized_demand_still_gets_force_placed() {
        // A task whose demand exceeds every node capacity can never pack:
        // W/SimDep refuses it on every node, so only the force-place emits
        // its assignment. W/oDep never consults capacity.
        let mut huge = TaskSpec::sized(1000.0);
        huge.demand = ResourceVec::cpu_mem(1e6, 1e6);
        let job =
            Job::new(JobId(0), JobClass::Small, Time::ZERO, Time::MAX, vec![huge], Dag::new(1));
        let cluster = uniform(1, 1000.0, 1);
        let jobs = [job];
        for mut sched in [TetrisScheduler::without_dep(), TetrisScheduler::with_simple_dep()] {
            let s = sched.schedule(&jobs, &cluster, Time::ZERO);
            assert!(schedule_covers_jobs(&s, &jobs, &cluster), "{}", sched.name());
        }
    }

    #[test]
    fn wo_dep_fills_the_fastest_free_slot_first() {
        // Slow node 0, fast node 1, one slot each, both free at the start:
        // the heaviest task takes the fast node, as in every other arm.
        let mut heavy = TaskSpec::sized(1000.0);
        heavy.demand = ResourceVec::cpu_mem(0.9, 0.9);
        let mut light = TaskSpec::sized(1000.0);
        light.demand = ResourceVec::cpu_mem(0.1, 0.1);
        let jobs = [Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![light, heavy],
            Dag::new(2),
        )];
        let mut cluster = uniform(2, 1000.0, 1);
        cluster.nodes[1].s_cpu = 4000.0;
        cluster.nodes[1].s_mem = 4000.0;
        let s = TetrisScheduler::without_dep().schedule(&jobs, &cluster, Time::ZERO);
        let on = |v: u32| s.assignments.iter().find(|a| a.task.index == v).unwrap();
        assert_eq!((on(1).node.idx(), on(1).start), (1, Time::ZERO));
        assert_eq!((on(0).node.idx(), on(0).start), (0, Time::ZERO));
    }
}
