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

use crate::api::Scheduler;
use crate::pack::simulate_packing;
use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::Time;

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
        let dep = self.dep;
        // Tetris's alignment score depends on the node's current free
        // resources, so each decision is a scan. The candidate set is the
        // ready list for W/SimDep; W/oDep additionally treats dependent
        // tasks as candidates (its defining flaw), which we realize by
        // ignoring readiness when ordering candidates is irrelevant —
        // every unscheduled task is eventually offered because the ready
        // list grows as the estimated timeline progresses, and W/oDep
        // additionally pulls in not-yet-ready tasks from a lookahead pool.
        // Scans are capped: Tetris itself only scores the tasks whose peak
        // demands fit, and a bounded candidate window keeps the packer
        // O(cap) per decision at cluster scale.
        const SCAN_CAP: usize = 4096;
        match dep {
            TetrisDep::Simple => simulate_packing(jobs, cluster, at, node_avail, |st, node| {
                let n = node.idx();
                let avail = st.avail[n];
                let cap = cluster.nodes[n].capacity;
                let mut best: Option<(f64, usize)> = None;
                for (ri, &(j, v)) in st.ready.iter().enumerate().take(SCAN_CAP) {
                    let demand = st.jobs[j].task(v).demand;
                    if !demand.fits_in(&cap) {
                        continue;
                    }
                    let score = demand.dot(&avail);
                    if best.is_none_or(|(b, _)| score > b + 1e-12) {
                        best = Some((score, ri));
                    }
                }
                best.map(|(_, ri)| ri)
            }),
            TetrisDep::None => {
                // Dependency-oblivious packing: order ALL tasks purely by
                // alignment (demand mass), ignoring DAG structure entirely,
                // and lay them onto slot timelines. Dependent tasks receive
                // early planned starts and then idle in the run-time queue
                // until their precedents finish — exactly how the paper's
                // W/oDep wastes resources.
                let mut order: Vec<(usize, u32)> = jobs
                    .iter()
                    .enumerate()
                    .flat_map(|(j, job)| (0..job.num_tasks() as u32).map(move |v| (j, v)))
                    .collect();
                order.sort_by(|&(aj, av), &(bj, bv)| {
                    let da = jobs[aj].task(av).demand.l1();
                    let db = jobs[bj].task(bv).demand.l1();
                    db.total_cmp(&da).then((aj, av).cmp(&(bj, bv)))
                });
                // One heap entry per slot: (free-at, node).
                let mut slots: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
                    cluster
                        .nodes
                        .iter()
                        .enumerate()
                        .flat_map(|(n, node)| {
                            let free = node_avail.get(n).copied().unwrap_or(at).max(at).as_micros();
                            (0..node.slots).map(move |_| std::cmp::Reverse((free, n)))
                        })
                        .collect();
                let mut schedule = Schedule::new();
                for (j, v) in order {
                    let std::cmp::Reverse((free, n)) = slots.pop().expect("≥1 slot");
                    let start = Time::from_micros(free);
                    let exec = jobs[j].task(v).est_exec_time(cluster.nodes[n].rate());
                    schedule.assign(jobs[j].task_id(v), cluster.nodes[n].id, start);
                    slots.push(std::cmp::Reverse(((start + exec).as_micros(), n)));
                }
                schedule
            }
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
        // A task whose demand exceeds every node capacity can never pack;
        // the fallback must still emit an assignment for it.
        let mut huge = TaskSpec::sized(1000.0);
        huge.demand = ResourceVec::cpu_mem(1e6, 1e6);
        let job =
            Job::new(JobId(0), JobClass::Small, Time::ZERO, Time::MAX, vec![huge], Dag::new(1));
        let cluster = uniform(1, 1000.0, 1);
        let jobs = [job];
        let s = TetrisScheduler::without_dep().schedule(&jobs, &cluster, Time::ZERO);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
    }
}
