//! The offline packing loop every list scheduler in this crate plans with.
//!
//! [`pack`] walks estimated time forward: whenever a node frees a slot, the
//! scheduler's [`Order`] names the task to start there. The schedulers
//! differ only in the order: [`Keyed`] serves ready tasks by ascending key
//! (DSP-list, Aalo, FIFO, Random); Tetris scans its ready tasks for the
//! best alignment (W/SimDep) or walks every task by demand (W/oDep).

use dsp_cluster::ClusterSpec;
use dsp_dag::Job;
use dsp_sim::{Assignment, Schedule};
use dsp_units::{ResourceVec, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Task index marking a pure slot-release event in the event heap.
const RELEASE: u32 = u32::MAX;

/// Which task gets a freed slot. Tasks are `(job position in the batch,
/// task index)` pairs.
pub(crate) trait Order {
    /// `(j, v)` turned ready: every parent's planned finish has passed (a
    /// root is ready at the start).
    fn ready(&mut self, j: usize, v: u32);

    /// The task to start now on node index `n`, whose unused resources are
    /// `free`, or `None` to leave the slot idle until the next planned
    /// finish. Each task may be named once.
    fn next(&mut self, n: usize, free: &ResourceVec) -> Option<(usize, u32)>;
}

/// Plan `jobs` onto `cluster` from `at` in the order `order` names. A task
/// turns ready when its last parent's planned finish `t^s + l̂/g(k)` pops.
/// Free slots are filled fastest node first, so a greedy order hands its
/// best machine to its best candidate. A node's slots open only once its
/// backlog `node_avail` has estimatedly drained (the paper's constraint
/// (5)). If `order` leaves every slot idle with no finish pending, the
/// remaining tasks are force-placed round-robin at the instant reached.
pub(crate) fn pack(
    jobs: &[Job],
    cluster: &ClusterSpec,
    at: Time,
    node_avail: &[Time],
    order: &mut impl Order,
) -> Schedule {
    let mut schedule = Schedule::new();
    let total: usize = jobs.iter().map(|j| j.num_tasks()).sum();
    if total == 0 || cluster.is_empty() {
        return schedule;
    }
    let mut pending_parents: Vec<Vec<u32>> = jobs
        .iter()
        .map(|j| (0..j.num_tasks() as u32).map(|v| j.dag.in_degree(v) as u32).collect())
        .collect();
    let mut placed: Vec<Vec<bool>> = jobs.iter().map(|j| vec![false; j.num_tasks()]).collect();
    for (j, job) in jobs.iter().enumerate() {
        job.dag.roots().into_iter().for_each(|v| order.ready(j, v));
    }
    // (time, node, job, task) events; task == RELEASE frees a slot only.
    let mut events = BinaryHeap::new();
    let mut free_slots = vec![0usize; cluster.len()];
    for (n, node) in cluster.nodes.iter().enumerate() {
        let avail = node_avail.get(n).copied().unwrap_or(at).max(at);
        if avail <= at {
            free_slots[n] = node.slots;
        } else {
            let release = Reverse((avail.as_micros(), n as u32, 0, RELEASE));
            events.extend(std::iter::repeat_n(release, node.slots));
        }
    }
    let mut free: Vec<ResourceVec> = cluster.nodes.iter().map(|n| n.capacity).collect();
    let mut fastest_first: Vec<usize> = (0..cluster.len()).collect();
    fastest_first.sort_by(|&a, &b| {
        cluster.nodes[b].rate().get().total_cmp(&cluster.nodes[a].rate().get()).then(a.cmp(&b))
    });
    let mut now = at;
    let mut count = 0usize;

    loop {
        while let Some(n) = fastest_first.iter().copied().find(|&n| free_slots[n] > 0) {
            let Some((j, v)) = order.next(n, &free[n]) else { break };
            debug_assert!(!placed[j][v as usize], "the order named a task twice");
            placed[j][v as usize] = true;
            let a = Assignment { task: jobs[j].task_id(v), node: cluster.nodes[n].id, start: now };
            let finish = a.planned_finish(&jobs[j], cluster);
            schedule.assignments.push(a);
            events.push(Reverse((finish.as_micros(), n as u32, j as u32, v)));
            free[n] -= jobs[j].task(v).demand;
            free_slots[n] -= 1;
            count += 1;
        }
        if count == total && events.is_empty() {
            return schedule;
        }
        let Some(Reverse((t_us, n, j, v))) = events.pop() else {
            let leftovers = placed.iter().enumerate().flat_map(|(j, row)| {
                row.iter().enumerate().filter(|&(_, &p)| !p).map(move |(v, _)| (j, v as u32))
            });
            for (i, (j, v)) in leftovers.enumerate() {
                let node = cluster.nodes[i % cluster.len()].id;
                schedule.assign(jobs[j].task_id(v), node, now);
            }
            return schedule;
        };
        now = Time::from_micros(t_us);
        let n = n as usize;
        free_slots[n] += 1;
        if v != RELEASE {
            let j = j as usize;
            free[n] += jobs[j].task(v).demand;
            for &c in jobs[j].dag.children(v) {
                pending_parents[j][c as usize] -= 1;
                if pending_parents[j][c as usize] == 0 {
                    order.ready(j, c);
                }
            }
        }
    }
}

/// Ready tasks served by ascending `key(j, v)`, with lazy revalidation: a
/// key may *grow* between enqueue and service (Aalo's queue demotion), so
/// it is recomputed at pop time and a stale entry requeued. `picked` fires
/// for each task served, so the caller can update what its key reads.
pub(crate) struct Keyed<K, F, P> {
    heap: BinaryHeap<Reverse<(K, usize, u32)>>,
    key: F,
    picked: P,
}

impl<K: Ord + Copy, F: FnMut(usize, u32) -> K, P: FnMut(usize, u32)> Keyed<K, F, P> {
    pub(crate) fn new(key: F, picked: P) -> Self {
        Keyed { heap: BinaryHeap::new(), key, picked }
    }
}

impl<K: Ord + Copy, F: FnMut(usize, u32) -> K, P: FnMut(usize, u32)> Order for Keyed<K, F, P> {
    fn ready(&mut self, j: usize, v: u32) {
        self.heap.push(Reverse(((self.key)(j, v), j, v)));
    }

    fn next(&mut self, _: usize, _: &ResourceVec) -> Option<(usize, u32)> {
        loop {
            let Reverse((k, j, v)) = self.heap.pop()?;
            let cur = (self.key)(j, v);
            if cur == k {
                (self.picked)(j, v);
                return Some((j, v));
            }
            // Keys only decay in priority, so requeueing terminates.
            self.heap.push(Reverse((cur, j, v)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::schedule_covers_jobs;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

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

    fn independent(id: u32, n: usize) -> Job {
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); n],
            Dag::new(n),
        )
    }

    /// First-ready order that records the most tasks ever ready at once.
    #[derive(Default)]
    struct FirstReady {
        ready: Vec<(usize, u32)>,
        max_ready: usize,
    }

    impl Order for FirstReady {
        fn ready(&mut self, j: usize, v: u32) {
            self.ready.push((j, v));
            self.max_ready = self.max_ready.max(self.ready.len());
        }
        fn next(&mut self, _: usize, _: &ResourceVec) -> Option<(usize, u32)> {
            (!self.ready.is_empty()).then(|| self.ready.remove(0))
        }
    }

    /// Leaves every slot idle.
    struct Refuse;

    impl Order for Refuse {
        fn ready(&mut self, _: usize, _: u32) {}
        fn next(&mut self, _: usize, _: &ResourceVec) -> Option<(usize, u32)> {
            None
        }
    }

    fn by_start(s: &Schedule) -> Vec<Assignment> {
        let mut v = s.assignments.clone();
        v.sort_by_key(|a| a.start);
        v
    }

    #[test]
    fn first_ready_order_covers_everything() {
        let jobs = vec![chain_job(0, 3), chain_job(1, 2)];
        let cluster = uniform(2, 1000.0, 1);
        let s = pack(&jobs, &cluster, Time::ZERO, &[], &mut FirstReady::default());
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        // Chain starts are strictly increasing within each job.
        let starts: Vec<Time> =
            by_start(&s).iter().filter(|a| a.task.job == JobId(0)).map(|a| a.start).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_chain_has_one_ready_task_at_a_time() {
        let jobs = vec![chain_job(0, 3)];
        let cluster = uniform(1, 1000.0, 1);
        let mut order = FirstReady::default();
        pack(&jobs, &cluster, Time::ZERO, &[], &mut order);
        assert_eq!(order.max_ready, 1);
    }

    #[test]
    fn a_refusing_order_is_force_placed() {
        let jobs = vec![chain_job(0, 4)];
        let cluster = uniform(2, 1000.0, 1);
        let s = pack(&jobs, &cluster, Time::ZERO, &[], &mut Refuse);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        // Round-robin over the nodes, at the instant reached.
        let nodes: Vec<usize> = s.assignments.iter().map(|a| a.node.idx()).collect();
        assert_eq!(nodes, [0, 1, 0, 1]);
        assert!(s.assignments.iter().all(|a| a.start == Time::ZERO));
    }

    #[test]
    fn keyed_serves_in_key_order() {
        // Three independent tasks with keys 2, 0, 1 on one slot: service
        // order must be task 1, task 2, task 0.
        let jobs = vec![independent(0, 3)];
        let cluster = uniform(1, 1000.0, 1);
        let keys = [2u64, 0, 1];
        let mut order = Keyed::new(|_, v: u32| keys[v as usize], |_, _| {});
        let s = pack(&jobs, &cluster, Time::ZERO, &[], &mut order);
        let served: Vec<u32> = by_start(&s).iter().map(|a| a.task.index).collect();
        assert_eq!(served, [1, 2, 0]);
    }

    #[test]
    fn keyed_revalidates_keys_that_grew() {
        // Job 0's key grows with each task served (Aalo-style demotion):
        // job 1's task must overtake job 0's tail.
        let jobs = vec![independent(0, 3), independent(1, 1)];
        let cluster = uniform(1, 1000.0, 1);
        let served = std::cell::RefCell::new([0u64, 0]);
        let mut order =
            Keyed::new(|j, _| (served.borrow()[j], j), |j, _| served.borrow_mut()[j] += 1);
        let s = pack(&jobs, &cluster, Time::ZERO, &[], &mut order);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        assert_eq!(by_start(&s)[1].task.job, JobId(1));
    }

    #[test]
    fn backlog_release_delays_starts() {
        let jobs = vec![chain_job(0, 2)];
        let cluster = uniform(2, 1000.0, 1);
        // Node 0 busy until t=10, node 1 until t=3: the first task must
        // start at t=3 on node 1.
        let avail = [Time::from_secs(10), Time::from_secs(3)];
        let mut order = Keyed::new(|_, v| v, |_, _| {});
        let s = pack(&jobs, &cluster, Time::ZERO, &avail, &mut order);
        let first = by_start(&s)[0];
        assert_eq!(first.start, Time::from_secs(3));
        assert_eq!(first.node.idx(), 1);
    }

    #[test]
    fn empty_inputs_plan_nothing() {
        let cluster = uniform(1, 1000.0, 1);
        assert!(pack(&[], &cluster, Time::ZERO, &[], &mut Refuse).is_empty());
        let mut order = Keyed::new(|_, v| v, |_, _| {});
        assert!(pack(&[], &cluster, Time::ZERO, &[], &mut order).is_empty());
        let no_nodes = dsp_cluster::ClusterSpec { name: "empty".into(), nodes: Vec::new() };
        assert!(pack(&[chain_job(0, 2)], &no_nodes, Time::ZERO, &[], &mut Refuse).is_empty());
    }
}
