//! Random DAG/job generators.
//!
//! The experiments constrain generated DAGs the way Section V does: the
//! number of levels is capped (five, following Graphene's observation that
//! the median production DAG has depth five \[6\]) and the number of dependent
//! tasks hanging off any task is capped (fifteen). Generators here produce
//! *structure*; realistic size/resource marginals come from `dsp-trace`.

use crate::graph::Dag;
use crate::ids::JobId;
use crate::job::{Job, JobClass};
use crate::task::TaskSpec;
use dsp_units::{Dur, Mi, ResourceVec, Time};
use rand::Rng;

/// Shape family for generated DAGs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagShape {
    /// No edges: embarrassingly parallel.
    Independent,
    /// One path through all tasks.
    Chain,
    /// One root fanning out to all other tasks.
    FanOut,
    /// Layered random DAG: tasks spread over `depth` levels, each task wired
    /// to parents in the previous level. This is the default and respects
    /// the paper's depth/out-degree caps.
    Layered {
        /// Number of levels (≤ 5 in the paper's setup).
        depth: usize,
    },
    /// Fork-join: a root, a parallel middle stage, and a sink.
    ForkJoin,
}

/// Parameters for job generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// DAG shape family.
    pub shape: DagShape,
    /// Cap on any task's number of direct dependents (paper: 15).
    pub max_out_degree: usize,
    /// Task size range in MI, sampled uniformly.
    pub size_range: (f64, f64),
    /// CPU demand range, sampled uniformly.
    pub cpu_range: (f64, f64),
    /// Memory demand range, sampled uniformly.
    pub mem_range: (f64, f64),
    /// Disk per task in MB (paper: 0.02).
    pub disk_mb: f64,
    /// Bandwidth per task in MB/s (paper: 0.02).
    pub bw_mbps: f64,
    /// Deadline slack factor: deadline = arrival + slack × (critical path at
    /// the reference rate). Values well above 1 keep deadlines feasible.
    pub deadline_slack: f64,
    /// Reference rate (MIPS) for the deadline computation.
    pub reference_mips: f64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            shape: DagShape::Layered { depth: 5 },
            max_out_degree: 15,
            size_range: (200.0, 4000.0),
            cpu_range: (0.1, 1.0),
            mem_range: (0.1, 1.0),
            disk_mb: 0.02,
            bw_mbps: 0.02,
            deadline_slack: 6.0,
            reference_mips: 2660.0,
        }
    }
}

/// Generate a random DAG of `n` tasks with the given shape and out-degree
/// cap.
pub fn gen_dag<R: Rng>(rng: &mut R, n: usize, shape: DagShape, max_out: usize) -> Dag {
    let mut dag = Dag::new(n);
    if n <= 1 {
        return dag;
    }
    match shape {
        DagShape::Independent => {}
        DagShape::Chain => {
            for v in 0..n as u32 - 1 {
                dag.add_edge(v, v + 1).expect("chain edges are acyclic");
            }
        }
        DagShape::FanOut => {
            for v in 1..n as u32 {
                if dag.out_degree(0) >= max_out {
                    break;
                }
                dag.add_edge(0, v).expect("fan edges are acyclic");
            }
        }
        DagShape::ForkJoin => {
            let sink = n as u32 - 1;
            for v in 1..sink {
                if dag.out_degree(0) < max_out {
                    dag.add_edge(0, v).expect("fork edge");
                }
                dag.add_edge(v, sink).expect("join edge");
            }
        }
        DagShape::Layered { depth } => {
            let depth = depth.max(1).min(n);
            // Partition tasks into `depth` contiguous levels of roughly
            // equal size (every level non-empty).
            let mut bounds = Vec::with_capacity(depth + 1);
            for l in 0..=depth {
                bounds.push(l * n / depth);
            }
            for l in 1..depth {
                let (ps, pe) = (bounds[l - 1], bounds[l]);
                let (cs, ce) = (bounds[l], bounds[l + 1]);
                for c in cs..ce {
                    // Each non-root task gets 1–3 parents from the previous
                    // level, respecting the out-degree cap.
                    let want = rng.gen_range(1..=3usize).min(pe - ps);
                    let mut placed = 0;
                    let mut attempts = 0;
                    while placed < want && attempts < 4 * want {
                        attempts += 1;
                        let p = rng.gen_range(ps..pe) as u32;
                        if dag.out_degree(p) < max_out && dag.add_edge(p, c as u32).is_ok() {
                            placed += 1;
                        }
                    }
                    // Guarantee at least one parent so the level structure
                    // is real; scan for any parent with spare out-degree.
                    if placed == 0 {
                        for p in ps..pe {
                            if dag.out_degree(p as u32) < max_out
                                && dag.add_edge(p as u32, c as u32).is_ok()
                            {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    dag
}

/// Generate a full job: DAG structure plus uniformly-sampled task sizes and
/// demands, with a deadline set from the critical path at the reference
/// rate times `deadline_slack`.
pub fn gen_job<R: Rng>(
    rng: &mut R,
    id: JobId,
    class: JobClass,
    num_tasks: usize,
    arrival: Time,
    p: &GenParams,
) -> Job {
    let dag = gen_dag(rng, num_tasks, p.shape, p.max_out_degree);
    let tasks: Vec<TaskSpec> = (0..num_tasks)
        .map(|_| {
            let size = Mi::new(rng.gen_range(p.size_range.0..=p.size_range.1));
            let demand = ResourceVec::new(
                rng.gen_range(p.cpu_range.0..=p.cpu_range.1),
                rng.gen_range(p.mem_range.0..=p.mem_range.1),
                p.disk_mb,
                p.bw_mbps,
            );
            TaskSpec::new(size, demand)
        })
        .collect();
    let g = dsp_units::Mips::new(p.reference_mips);
    let exec: Vec<Dur> = tasks.iter().map(|t| t.exec_time(g)).collect();
    let cp = crate::critical_path::critical_path_len(&dag, &exec);
    // Deadline must also leave room for queueing: scale the critical path
    // and never go below the total serial work divided by a nominal width.
    let deadline = arrival + cp.mul_f64(p.deadline_slack);
    Job::new(id, class, arrival, deadline, tasks, dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::Levels;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn layered_respects_depth_and_outdegree() {
        let mut r = rng();
        for n in [10usize, 50, 200] {
            let dag = gen_dag(&mut r, n, DagShape::Layered { depth: 5 }, 15);
            let levels = Levels::compute(&dag);
            assert!(levels.num_levels() <= 5, "depth {} > 5", levels.num_levels());
            for v in 0..n as u32 {
                assert!(dag.out_degree(v) <= 15);
            }
        }
    }

    #[test]
    fn layered_non_roots_have_parents() {
        let mut r = rng();
        let dag = gen_dag(&mut r, 60, DagShape::Layered { depth: 4 }, 15);
        let levels = Levels::compute(&dag);
        for v in 0..60u32 {
            if levels.level_of(v) > 0 {
                assert!(dag.in_degree(v) > 0, "task {v} at level >0 has no parent");
            }
        }
    }

    #[test]
    fn shapes_have_expected_edges() {
        let mut r = rng();
        assert_eq!(gen_dag(&mut r, 8, DagShape::Independent, 15).edge_count(), 0);
        assert_eq!(gen_dag(&mut r, 8, DagShape::Chain, 15).edge_count(), 7);
        let fan = gen_dag(&mut r, 8, DagShape::FanOut, 15);
        assert_eq!(fan.out_degree(0), 7);
        let fj = gen_dag(&mut r, 8, DagShape::ForkJoin, 15);
        assert_eq!(fj.in_degree(7), 6);
    }

    #[test]
    fn fanout_respects_cap() {
        let mut r = rng();
        let fan = gen_dag(&mut r, 40, DagShape::FanOut, 15);
        assert_eq!(fan.out_degree(0), 15);
    }

    #[test]
    fn generated_job_is_consistent() {
        let mut r = rng();
        let p = GenParams::default();
        let job = gen_job(&mut r, JobId(0), JobClass::Small, 30, Time::from_secs(10), &p);
        assert_eq!(job.num_tasks(), 30);
        assert!(job.deadline > job.arrival);
        for (_, t) in job.iter_tasks() {
            assert!(t.size.get() >= p.size_range.0 && t.size.get() <= p.size_range.1);
            assert!(t.demand.cpu > 0.0 && t.demand.mem > 0.0);
        }
        crate::validate::validate_job(&job).expect("generated job must validate");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = GenParams::default();
        let a = gen_job(&mut rng(), JobId(1), JobClass::Medium, 40, Time::ZERO, &p);
        let b = gen_job(&mut rng(), JobId(1), JobClass::Medium, 40, Time::ZERO, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_jobs_do_not_panic() {
        let mut r = rng();
        for n in 0..3 {
            for shape in [
                DagShape::Independent,
                DagShape::Chain,
                DagShape::FanOut,
                DagShape::ForkJoin,
                DagShape::Layered { depth: 5 },
            ] {
                let _ = gen_dag(&mut r, n, shape, 15);
            }
        }
    }
}
