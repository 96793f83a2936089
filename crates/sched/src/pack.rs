//! Shared offline packing simulation.
//!
//! Offline schedulers construct their schedules by walking estimated time
//! forward: whenever a node frees a slot, the next task is chosen and its
//! estimated completion queued. Two entry points share the same core
//! semantics:
//!
//! * [`simulate_packing`] — a closure picks from the maintained **ready
//!   list** (tasks whose precedents have estimatedly finished). Used by
//!   Tetris, whose alignment score depends on the node's current free
//!   resources and therefore needs a per-decision scan.
//! * [`simulate_packing_keyed`] — tasks are served from a priority heap by
//!   a caller-supplied key with lazy revalidation. O(log n) per decision;
//!   used by DSP, Aalo, FIFO and Random, whose orderings don't depend on
//!   the node.
//!
//! Both accept per-node *backlog release times* (`node_avail`): slots on a
//! node only open once the node's earlier queue has estimatedly drained,
//! mirroring the paper's constraint (5).

use dsp_cluster::{ClusterSpec, NodeId};
use dsp_dag::Job;
use dsp_sim::Schedule;
use dsp_units::{ResourceVec, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Task index marking a pure slot-release event in the event heap.
const RELEASE: u32 = u32::MAX;

/// Read-only packing state handed to picker closures.
pub struct PackState<'a> {
    /// The batch being scheduled, indexed by position (not `JobId`).
    pub jobs: &'a [Job],
    /// `scheduled[j][v]`: task already placed.
    pub scheduled: Vec<Vec<bool>>,
    /// Available resources per node (capacity − running demands).
    pub avail: Vec<ResourceVec>,
    /// Current simulated instant.
    pub now: Time,
    /// Tasks whose precedents have all finished and that are not yet
    /// scheduled — the only valid picks.
    pub ready: Vec<(usize, u32)>,
}

impl PackState<'_> {
    /// Iterate all unscheduled `(job position, task index)` pairs
    /// (O(total); used only by the defensive force-place path and tests).
    pub fn unscheduled(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.scheduled.iter().enumerate().flat_map(|(j, row)| {
            row.iter().enumerate().filter(|&(_, &s)| !s).map(move |(v, _)| (j, v as u32))
        })
    }
}

/// Slot bookkeeping shared by both simulation variants.
struct SlotSim {
    /// (time, node, job, task) events; task == RELEASE frees a slot only.
    events: BinaryHeap<Reverse<(u64, u32, u32, u32)>>,
    free_slots: Vec<usize>,
    /// Node indices, fastest first — a greedy packer hands its best machine
    /// to its best candidate.
    node_order: Vec<usize>,
}

impl SlotSim {
    fn new(cluster: &ClusterSpec, at: Time, node_avail: &[Time]) -> Self {
        let mut events = BinaryHeap::new();
        let mut free_slots = vec![0usize; cluster.len()];
        for (n, node) in cluster.nodes.iter().enumerate() {
            let avail = node_avail.get(n).copied().unwrap_or(at).max(at);
            if avail <= at {
                free_slots[n] = node.slots;
            } else {
                for _ in 0..node.slots {
                    events.push(Reverse((avail.as_micros(), n as u32, 0, RELEASE)));
                }
            }
        }
        let mut node_order: Vec<usize> = (0..cluster.len()).collect();
        node_order.sort_by(|&a, &b| {
            cluster.nodes[b].rate().get().total_cmp(&cluster.nodes[a].rate().get()).then(a.cmp(&b))
        });
        SlotSim { events, free_slots, node_order }
    }

    /// The fastest node with a free slot.
    fn free_node(&self) -> Option<usize> {
        self.node_order.iter().copied().find(|&n| self.free_slots[n] > 0)
    }
}

/// Run the packing simulation with a per-decision picker over the ready
/// list. `pick(state, node)` returns an index into `state.ready`, or `None`
/// to leave the slot idle until the next completion event.
///
/// Termination is guaranteed even if `pick` refuses everything forever:
/// when no slot accepts a task and no completion is pending, remaining
/// tasks are force-placed round-robin at the horizon (pickers in this crate
/// never trigger that; it guards against buggy closures).
pub fn simulate_packing<F>(
    jobs: &[Job],
    cluster: &ClusterSpec,
    at: Time,
    node_avail: &[Time],
    mut pick: F,
) -> Schedule
where
    F: FnMut(&PackState<'_>, NodeId) -> Option<usize>,
{
    let mut schedule = Schedule::new();
    let total: usize = jobs.iter().map(|j| j.num_tasks()).sum();
    if total == 0 || cluster.is_empty() {
        return schedule;
    }
    let mut pending_parents: Vec<Vec<u32>> = jobs
        .iter()
        .map(|j| (0..j.num_tasks() as u32).map(|v| j.dag.in_degree(v) as u32).collect())
        .collect();
    let ready: Vec<(usize, u32)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| job.dag.roots().into_iter().map(move |v| (j, v)))
        .collect();
    let mut state = PackState {
        jobs,
        scheduled: jobs.iter().map(|j| vec![false; j.num_tasks()]).collect(),
        avail: cluster.nodes.iter().map(|n| n.capacity).collect(),
        now: at,
        ready,
    };
    let mut sim = SlotSim::new(cluster, at, node_avail);
    let mut placed = 0usize;

    loop {
        // Greedily fill free slots at the current instant, fastest first.
        while let Some(n) = sim.free_node() {
            let Some(ri) = pick(&state, cluster.nodes[n].id) else { break };
            let (j, v) = state.ready.swap_remove(ri);
            debug_assert!(!state.scheduled[j][v as usize], "picker repeated a task");
            state.scheduled[j][v as usize] = true;
            let exec = state.jobs[j].task(v).est_exec_time(cluster.nodes[n].rate());
            let finish = state.now + exec;
            schedule.assign(state.jobs[j].task_id(v), cluster.nodes[n].id, state.now);
            state.avail[n] -= state.jobs[j].task(v).demand;
            sim.free_slots[n] -= 1;
            sim.events.push(Reverse((finish.as_micros(), n as u32, j as u32, v)));
            placed += 1;
        }
        if placed == total && sim.events.is_empty() {
            return schedule;
        }
        match sim.events.pop() {
            Some(Reverse((t_us, n, j, v))) => {
                state.now = Time::from_micros(t_us);
                let n = n as usize;
                if v == RELEASE {
                    sim.free_slots[n] += 1;
                } else {
                    let j = j as usize;
                    state.avail[n] += state.jobs[j].task(v).demand;
                    sim.free_slots[n] += 1;
                    for &c in state.jobs[j].dag.children(v) {
                        pending_parents[j][c as usize] -= 1;
                        if pending_parents[j][c as usize] == 0 {
                            state.ready.push((j, c));
                        }
                    }
                }
            }
            None => {
                // No events and the picker placed nothing: force-place the
                // remainder so the schedule still covers every task.
                let leftovers: Vec<(usize, u32)> = state.unscheduled().collect();
                for (i, (j, v)) in leftovers.into_iter().enumerate() {
                    let n = i % cluster.len();
                    schedule.assign(state.jobs[j].task_id(v), cluster.nodes[n].id, state.now);
                    state.scheduled[j][v as usize] = true;
                }
                return schedule;
            }
        }
    }
}

/// Heap-driven variant: tasks are served in ascending `key_of(j, v)` order
/// among ready tasks, with lazy revalidation (keys may *grow* between
/// enqueue and service — Aalo's queue demotion — and are recomputed at pop
/// time). `on_assign` fires after each placement so the caller can update
/// whatever state its key depends on.
pub fn simulate_packing_keyed<K, KF, AF>(
    jobs: &[Job],
    cluster: &ClusterSpec,
    at: Time,
    node_avail: &[Time],
    mut key_of: KF,
    mut on_assign: AF,
) -> Schedule
where
    K: Ord + Copy,
    KF: FnMut(usize, u32) -> K,
    AF: FnMut(usize, u32),
{
    let mut schedule = Schedule::new();
    let total: usize = jobs.iter().map(|j| j.num_tasks()).sum();
    if total == 0 || cluster.is_empty() {
        return schedule;
    }
    let mut pending_parents: Vec<Vec<u32>> = jobs
        .iter()
        .map(|j| (0..j.num_tasks() as u32).map(|v| j.dag.in_degree(v) as u32).collect())
        .collect();
    let mut ready: BinaryHeap<Reverse<(K, usize, u32)>> = BinaryHeap::new();
    for (j, job) in jobs.iter().enumerate() {
        for v in job.dag.roots() {
            ready.push(Reverse((key_of(j, v), j, v)));
        }
    }
    let mut sim = SlotSim::new(cluster, at, node_avail);
    let mut now = at;
    let mut placed = 0usize;

    loop {
        while let Some(n) = sim.free_node() {
            let Some(Reverse((k, j, v))) = ready.pop() else { break };
            let cur = key_of(j, v);
            if cur != k {
                // Stale entry (the key grew since enqueue): requeue under
                // the fresh key and retry. Keys can only decay in priority,
                // so this terminates.
                ready.push(Reverse((cur, j, v)));
                continue;
            }
            let exec = jobs[j].task(v).est_exec_time(cluster.nodes[n].rate());
            schedule.assign(jobs[j].task_id(v), cluster.nodes[n].id, now);
            on_assign(j, v);
            sim.free_slots[n] -= 1;
            sim.events.push(Reverse(((now + exec).as_micros(), n as u32, j as u32, v)));
            placed += 1;
        }
        if placed == total && sim.events.is_empty() {
            return schedule;
        }
        match sim.events.pop() {
            Some(Reverse((t_us, n, j, v))) => {
                now = Time::from_micros(t_us);
                let n = n as usize;
                sim.free_slots[n] += 1;
                if v != RELEASE {
                    let j = j as usize;
                    for &c in jobs[j].dag.children(v) {
                        pending_parents[j][c as usize] -= 1;
                        if pending_parents[j][c as usize] == 0 {
                            ready.push(Reverse((key_of(j, c), j, c)));
                        }
                    }
                }
            }
            None => {
                debug_assert!(placed == total, "acyclic DAGs always drain");
                return schedule;
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
    fn first_ready_picker_covers_everything() {
        let jobs = vec![chain_job(0, 3), chain_job(1, 2)];
        let cluster = uniform(2, 1000.0, 1);
        let s = simulate_packing(&jobs, &cluster, Time::ZERO, &[], |st, _| {
            if st.ready.is_empty() {
                None
            } else {
                Some(0)
            }
        });
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        // Chain starts are strictly increasing within each job.
        let mut starts: Vec<Time> =
            s.assignments.iter().filter(|a| a.task.job == JobId(0)).map(|a| a.start).collect();
        starts.sort();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn refusing_picker_force_places() {
        let jobs = vec![chain_job(0, 4)];
        let cluster = uniform(2, 1000.0, 1);
        let s = simulate_packing(&jobs, &cluster, Time::ZERO, &[], |_, _| None);
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
    }

    #[test]
    fn ready_list_tracks_dependencies() {
        let jobs = vec![chain_job(0, 3)];
        let cluster = uniform(1, 1000.0, 1);
        let mut max_ready = 0usize;
        simulate_packing(&jobs, &cluster, Time::ZERO, &[], |st, _| {
            max_ready = max_ready.max(st.ready.len());
            if st.ready.is_empty() {
                None
            } else {
                Some(0)
            }
        });
        // A chain never has more than one ready task.
        assert_eq!(max_ready, 1);
    }

    #[test]
    fn keyed_serves_in_key_order() {
        // Three independent tasks with explicit priorities 2, 0, 1 on one
        // slot: service order must be task 1, task 2, task 0.
        let jobs = vec![Job::new(
            JobId(0),
            JobClass::Small,
            Time::ZERO,
            Time::MAX,
            vec![TaskSpec::sized(1000.0); 3],
            Dag::new(3),
        )];
        let cluster = uniform(1, 1000.0, 1);
        let keys = [2u64, 0, 1];
        let s = simulate_packing_keyed(
            &jobs,
            &cluster,
            Time::ZERO,
            &[],
            |_, v| keys[v as usize],
            |_, _| {},
        );
        let mut by_start: Vec<_> = s.assignments.clone();
        by_start.sort_by_key(|a| a.start);
        let order: Vec<u32> = by_start.iter().map(|a| a.task.index).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn keyed_lazy_revalidation_handles_growing_keys() {
        // Key grows for job 0 after its first assignment (Aalo-style
        // demotion): job 1's tasks must overtake job 0's tail.
        let jobs = vec![
            Job::new(
                JobId(0),
                JobClass::Small,
                Time::ZERO,
                Time::MAX,
                vec![TaskSpec::sized(1000.0); 3],
                Dag::new(3),
            ),
            Job::new(
                JobId(1),
                JobClass::Small,
                Time::ZERO,
                Time::MAX,
                vec![TaskSpec::sized(1000.0); 1],
                Dag::new(1),
            ),
        ];
        let cluster = uniform(1, 1000.0, 1);
        let served = std::cell::RefCell::new([0u64, 0]);
        let s = simulate_packing_keyed(
            &jobs,
            &cluster,
            Time::ZERO,
            &[],
            |j, _| (served.borrow()[j], j),
            |j, _| served.borrow_mut()[j] += 1,
        );
        assert!(schedule_covers_jobs(&s, &jobs, &cluster));
        // After job 0's first task, job 1 (served 0) outranks job 0
        // (served 1): job 1's task runs second.
        let mut by_start: Vec<_> = s.assignments.clone();
        by_start.sort_by_key(|a| a.start);
        assert_eq!(by_start[1].task.job, JobId(1));
    }

    #[test]
    fn backlog_release_delays_starts() {
        let jobs = vec![chain_job(0, 2)];
        let cluster = uniform(2, 1000.0, 1);
        // Node 0 busy until t=10; node 1 until t=3: the first task must
        // start at t=3 on node 1.
        let avail = [Time::from_secs(10), Time::from_secs(3)];
        let s = simulate_packing_keyed(&jobs, &cluster, Time::ZERO, &avail, |_, v| v, |_, _| {});
        let first = s.assignments.iter().min_by_key(|a| a.start).unwrap();
        assert_eq!(first.start, Time::from_secs(3));
        assert_eq!(first.node.idx(), 1);
    }

    #[test]
    fn empty_inputs() {
        let cluster = uniform(1, 1000.0, 1);
        let s = simulate_packing(&[], &cluster, Time::ZERO, &[], |_, _| None);
        assert!(s.is_empty());
        let s2 = simulate_packing_keyed(&[], &cluster, Time::ZERO, &[], |_, v| v, |_, _| {});
        assert!(s2.is_empty());
    }
}
