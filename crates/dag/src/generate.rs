//! Random DAG/job generators.
//!
//! The experiments constrain generated DAGs the way Section V does: the
//! number of levels is capped (five, following Graphene's observation that
//! the median production DAG has depth five \[6\]) and the number of dependent
//! tasks hanging off any task is capped (fifteen). Generators here produce
//! *structure*; realistic size/resource marginals come from `dsp-trace`.

use crate::graph::Dag;
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
    fn generation_is_deterministic_per_seed() {
        let shape = DagShape::Layered { depth: 5 };
        assert_eq!(gen_dag(&mut rng(), 40, shape, 15), gen_dag(&mut rng(), 40, shape, 15));
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
