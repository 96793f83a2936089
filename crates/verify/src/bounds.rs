//! Lower bounds on a batch's makespan: what no plan can beat, computed
//! without a solver.
//!
//! A plan's makespan here is what the exact arm minimises and
//! [`check_schedule`](crate::check_schedule) times: the latest estimated
//! finish `t^s + l̂/g(k)` minus the planning instant, in integer
//! microseconds, with every node's slots busy until its backlog drains.
//! Tasks are priced at their *fastest* slot, so each term below holds
//! whichever slots a plan picks (Aggarwal et al.'s critical-path and load
//! bounds for related machines under precedence).

use dsp_cluster::ClusterSpec;
use dsp_dag::{critical_path_len, Job};
use dsp_units::{Dur, Mips, Time};

/// The least makespan any plan of `jobs` on `cluster` from `at` can have,
/// behind the per-node backlogs `node_avail` (as `Scheduler::schedule_onto`
/// takes them: node `k`'s slots are busy until `node_avail[k]`; a missing
/// or past entry is free at `at`). The larger of two terms:
///
/// * **critical path** — the longest dependency chain of any job at its
///   tasks' fastest slots, after the earliest slot drain;
/// * **load** — the slots together must supply `W = Σ_t min_k e_{t,k}`
///   after their drains: the least `C` with `Σ_k (C − rel_k)⁺ ≥ W`. When
///   every slot drains by then that is `⌈(W + Σ_k rel_k) / K⌉`; a slot still
///   draining at `C` can run nothing, so it adds neither capacity nor
///   backlog.
///
/// Zero for an empty batch or a cluster without slots.
pub fn makespan_lower_bound(
    jobs: &[Job],
    cluster: &ClusterSpec,
    at: Time,
    node_avail: &[Time],
) -> Dur {
    let Some(g) = fastest_slot_rate(cluster) else { return Dur::ZERO };
    let drains = slot_drains(cluster, at, node_avail);
    let cost: Vec<Vec<Dur>> = jobs.iter().map(|job| job.exec_estimates(g)).collect();
    critical_path(jobs, &cost, &drains).max(load(&cost, &drains))
}

/// The critical-path term for `job` alone on an idle `cluster`: its
/// longest dependency chain with every task at the fastest slot. No plan
/// finishes the job sooner after it starts. `None` when no node has a slot.
pub fn idle_critical_path(job: &Job, cluster: &ClusterSpec) -> Option<Dur> {
    let g = fastest_slot_rate(cluster)?;
    Some(critical_path_len(&job.dag, &job.exec_estimates(g)))
}

/// The rate of the fastest node with a slot: `Mi::exec_time` never grows
/// with the rate, so every task is cheapest there.
fn fastest_slot_rate(cluster: &ClusterSpec) -> Option<Mips> {
    let rates = cluster.nodes.iter().filter(|n| n.slots > 0).map(|n| n.rate());
    rates.max_by(|a, b| a.get().total_cmp(&b.get()))
}

/// Each slot's backlog, measured from `at`, smallest first.
fn slot_drains(cluster: &ClusterSpec, at: Time, node_avail: &[Time]) -> Vec<Dur> {
    let mut drains: Vec<Dur> = cluster
        .nodes
        .iter()
        .enumerate()
        .flat_map(|(k, node)| {
            let drain = node_avail.get(k).map_or(Dur::ZERO, |t| t.since(at));
            std::iter::repeat_n(drain, node.slots)
        })
        .collect();
    drains.sort_unstable();
    drains
}

/// The longest chain of any job at `cost`, after the first slot drains.
fn critical_path(jobs: &[Job], cost: &[Vec<Dur>], drains: &[Dur]) -> Dur {
    let Some(&first) = drains.first() else { return Dur::ZERO };
    jobs.iter()
        .zip(cost)
        .filter(|(_, c)| !c.is_empty())
        .map(|(job, c)| first + critical_path_len(&job.dag, c))
        .max()
        .unwrap_or(Dur::ZERO)
}

/// The least `C` with `Σ_k (C − rel_k)⁺ ≥ Σ cost`, over `drains` sorted
/// ascending: admit slots in drain order until the next one would still be
/// draining at the answer.
fn load(cost: &[Vec<Dur>], drains: &[Dur]) -> Dur {
    let work: u64 = cost.iter().flatten().map(|d| d.as_micros()).sum();
    if work == 0 {
        return Dur::ZERO;
    }
    let mut backlog = 0u64;
    for (j, drain) in drains.iter().enumerate() {
        backlog += drain.as_micros();
        let c = (work + backlog).div_ceil(j as u64 + 1);
        if drains.get(j + 1).is_none_or(|next| c <= next.as_micros()) {
            return Dur::from_micros(c);
        }
    }
    Dur::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_cluster::uniform;
    use dsp_dag::{Dag, JobClass, JobId, TaskSpec};

    fn job(id: u32, sizes: &[f64], edges: &[(u32, u32)]) -> Job {
        let mut dag = Dag::new(sizes.len());
        for &(u, v) in edges {
            dag.add_edge(u, v).expect("forward edge");
        }
        let tasks = sizes.iter().map(|&mi| TaskSpec::sized(mi)).collect();
        Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::from_secs(3600), tasks, dag)
    }

    /// A batch, its cluster and backlogs, and the bound it must get — each
    /// one an optimum some plan reaches, so the bound is tight there.
    struct Case {
        what: &'static str,
        jobs: Vec<Job>,
        cluster: ClusterSpec,
        node_avail: Vec<Time>,
        bound: Dur,
    }

    const AT: Time = Time::from_secs(5);

    fn cases() -> Vec<Case> {
        // Node 1 runs at 2 000 MIPS, node 0 at 1 000.
        let mut mixed = uniform(2, 1000.0, 1);
        mixed.nodes[1].s_cpu = 2000.0;
        mixed.nodes[1].s_mem = 2000.0;
        let after = |ms: &[u64]| ms.iter().map(|&m| AT + Dur::from_millis(m)).collect();
        vec![
            Case {
                what: "a chain: its length at the fast node, all of it run there",
                jobs: vec![job(0, &[1000.0, 2000.0, 1500.0], &[(0, 1), (1, 2)])],
                cluster: mixed,
                node_avail: vec![],
                bound: Dur::from_millis(2250),
            },
            Case {
                what: "K equal independent tasks on K slots: one task",
                jobs: vec![job(0, &[1000.0; 2], &[]), job(1, &[1000.0; 2], &[])],
                cluster: uniform(2, 1000.0, 2),
                node_avail: vec![],
                bound: Dur::from_secs(1),
            },
            Case {
                what: "a backlog counts: (3 s of work + 1 s of drain) / 2 slots",
                jobs: vec![job(0, &[1000.0; 3], &[])],
                cluster: uniform(2, 1000.0, 1),
                node_avail: after(&[1000, 0]),
                bound: Dur::from_secs(2),
            },
            Case {
                what: "a slot still draining at the optimum adds nothing",
                jobs: vec![job(0, &[1000.0; 2], &[])],
                cluster: uniform(2, 1000.0, 1),
                node_avail: after(&[10_000, 0]),
                bound: Dur::from_secs(2),
            },
        ]
    }

    fn costs(jobs: &[Job], g: Mips) -> Vec<Vec<Dur>> {
        jobs.iter().map(|job| job.exec_estimates(g)).collect()
    }

    fn first_miss(bound: impl Fn(&Case) -> Dur) -> Option<&'static str> {
        cases().into_iter().find(|c| bound(c) != c.bound).map(|c| c.what)
    }

    #[test]
    fn every_case_gets_its_bound() {
        for c in cases() {
            let got = makespan_lower_bound(&c.jobs, &c.cluster, AT, &c.node_avail);
            assert_eq!(got, c.bound, "{}", c.what);
        }
    }

    #[test]
    fn nothing_to_place_bounds_nothing() {
        assert_eq!(makespan_lower_bound(&[], &uniform(2, 1000.0, 1), AT, &[]), Dur::ZERO);
        let jobs = [job(0, &[1000.0], &[])];
        assert_eq!(makespan_lower_bound(&jobs, &uniform(0, 1000.0, 1), AT, &[]), Dur::ZERO);
    }

    /// Each term is load-bearing and priced right: a bound without the load
    /// term, or with tasks at their slowest slot, misses a case.
    #[test]
    fn mutants_miss_a_case() {
        let no_load = |c: &Case| {
            let drains = slot_drains(&c.cluster, AT, &c.node_avail);
            let fastest = fastest_slot_rate(&c.cluster).expect("a slot");
            critical_path(&c.jobs, &costs(&c.jobs, fastest), &drains)
        };
        let slowest = |c: &Case| {
            let drains = slot_drains(&c.cluster, AT, &c.node_avail);
            let rates = c.cluster.nodes.iter().map(|n| n.rate());
            let rate = rates.min_by(|a, b| a.get().total_cmp(&b.get()));
            let cost = costs(&c.jobs, rate.expect("a slot"));
            critical_path(&c.jobs, &cost, &drains).max(load(&cost, &drains))
        };
        assert_eq!(first_miss(no_load), Some(cases()[2].what));
        assert_eq!(first_miss(slowest), Some(cases()[0].what));
    }
}
