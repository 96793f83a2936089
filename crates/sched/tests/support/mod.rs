//! Test support shared by `crates/sched/tests/ilp_exact.rs` and the
//! workspace's `tests/ilp_cross_validation.rs`: the `ilp_exact` benchmark
//! workload's instance generator, and a brute-force optimum that shares no
//! code with the MILP arm it grades.

use dsp_cluster::{uniform, ClusterSpec};
use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_sim::Schedule;
use dsp_units::{Dur, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduling problem: a batch of jobs and the cluster to place it on.
pub struct Instance {
    pub jobs: Vec<Job>,
    pub cluster: ClusterSpec,
}

fn dag(rng: &mut StdRng, shape: usize, n: usize) -> Dag {
    let mut d = Dag::new(n);
    let mut edge = |u: usize, v: usize| d.add_edge(u as u32, v as u32).unwrap();
    match shape {
        0 => (1..n).for_each(|v| edge(v - 1, v)),
        1 if n >= 3 => (1..n - 1).for_each(|v| {
            edge(0, v);
            edge(v, n - 1);
        }),
        2 => (1..n).for_each(|v| edge(0, v)),
        _ => {
            for v in 1..n {
                for u in 0..v {
                    if rng.gen_bool(0.3) {
                        edge(u, v);
                    }
                }
            }
        }
    }
    d
}

/// The first `count` instances `dsp-benchmark`'s `ilp_exact` workload
/// generates from `seed` (draw for draw: its `instance()`): 3–5 tasks;
/// chain, diamond, fork or random edges; one or two jobs; 2 nodes × 1–2
/// slots; seeded sizes. The benchmark passes `mix_seed(run seed, variant)`.
pub fn instances(seed: u64, count: usize) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let total = 3 + i % 3;
            let slots = if total == 5 { 1 } else { 1 + (i / 3) % 2 };
            let shape = (i / 6) % 4;
            let split =
                if total >= 4 && (i / 24) % 2 == 1 { rng.gen_range(2..=total - 2) } else { total };
            let jobs = [split, total - split]
                .into_iter()
                .filter(|n| *n > 0)
                .enumerate()
                .map(|(j, n)| {
                    let tasks =
                        (0..n).map(|_| TaskSpec::sized(rng.gen_range(400.0..2000.0))).collect();
                    let dag = dag(&mut rng, shape, n);
                    Job::new(
                        JobId((2 * i + j) as u32),
                        JobClass::Small,
                        Time::ZERO,
                        Time::from_secs(3600),
                        tasks,
                        dag,
                    )
                })
                .collect();
            Instance { jobs, cluster: uniform(2, 1000.0, slots) }
        })
        .collect()
}

/// Two nodes of `slots` slots each, node 0 at `rates[0]` and node 1 at
/// `rates[1]` MI/s.
pub fn two_rates(rates: [f64; 2], slots: usize) -> ClusterSpec {
    let mut cluster = uniform(2, rates[0], slots);
    cluster.name = format!("rates{}/{}", rates[0], rates[1]);
    let fast = &mut cluster.nodes[1];
    (fast.s_cpu, fast.s_mem) = (rates[1], rates[1]);
    cluster
}

/// The MILP's objective read off a plan: the latest estimated finish,
/// measured from `at`.
pub fn planned_makespan(s: &Schedule, jobs: &[Job], cluster: &ClusterSpec, at: Time) -> Dur {
    s.assignments
        .iter()
        .map(|a| {
            let job = jobs.iter().find(|j| j.id == a.task.job).expect("job in batch");
            a.start + job.task(a.task.index).est_exec_time(cluster.node(a.node).rate())
        })
        .max()
        .map_or(Dur::ZERO, |finish| finish.since(at))
}

/// The optimal makespan by exhaustion, for batches of at most 6 tasks:
/// every slot assignment × every linear extension of the precedence order,
/// each placed by one forward pass (a task starts when its parents have
/// finished, its slot is free and its node's backlog has drained). Every
/// left-shifted schedule is the forward pass of its own start order, and
/// some optimal schedule is left-shifted, so the minimum over all of them
/// is the optimum.
pub fn brute_force_makespan(
    jobs: &[Job],
    cluster: &ClusterSpec,
    at: Time,
    node_avail: &[Time],
) -> Dur {
    // Flat tasks: (job, index); slots: the node each virtual slot is on.
    let tasks: Vec<(usize, u32)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| (0..job.num_tasks() as u32).map(move |v| (j, v)))
        .collect();
    assert!(tasks.len() <= 6, "brute force is for tiny batches");
    let slots: Vec<usize> =
        cluster.nodes.iter().enumerate().flat_map(|(k, n)| vec![k; n.slots]).collect();
    let flat = |j: usize, v: u32| tasks.iter().position(|&t| t == (j, v)).expect("flattened");

    struct Search<'a> {
        jobs: &'a [Job],
        cluster: &'a ClusterSpec,
        tasks: &'a [(usize, u32)],
        slots: &'a [usize],
        parents: Vec<Vec<usize>>,
        free_from: Vec<Time>,
        best: Time,
    }
    impl Search<'_> {
        /// Place every unplaced task next, on every slot, and recurse.
        fn go(&mut self, finish: &mut [Option<Time>], slot_free: &mut [Time], latest: Time) {
            if finish.iter().all(Option::is_some) {
                self.best = self.best.min(latest);
                return;
            }
            for t in 0..self.tasks.len() {
                if finish[t].is_some() || self.parents[t].iter().any(|&p| finish[p].is_none()) {
                    continue;
                }
                let ready = self.parents[t]
                    .iter()
                    .map(|&p| finish[p].expect("parent placed"))
                    .max()
                    .unwrap_or(Time::ZERO);
                let (j, v) = self.tasks[t];
                for s in 0..self.slots.len() {
                    let node = &self.cluster.nodes[self.slots[s]];
                    let start = ready.max(slot_free[s]).max(self.free_from[s]);
                    let end = start + self.jobs[j].task(v).est_exec_time(node.rate());
                    let was = slot_free[s];
                    finish[t] = Some(end);
                    slot_free[s] = end;
                    self.go(finish, slot_free, latest.max(end));
                    finish[t] = None;
                    slot_free[s] = was;
                }
            }
        }
    }

    let parents = tasks
        .iter()
        .map(|&(j, v)| jobs[j].dag.parents(v).iter().map(|&p| flat(j, p)).collect())
        .collect();
    let free_from =
        slots.iter().map(|&k| node_avail.get(k).copied().unwrap_or(at).max(at)).collect();
    let mut search =
        Search { jobs, cluster, tasks: &tasks, slots: &slots, parents, free_from, best: Time::MAX };
    search.go(&mut vec![None; tasks.len()], &mut vec![at; slots.len()], at);
    search.best.since(at)
}
