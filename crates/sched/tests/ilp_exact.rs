//! The exact arm on the `ilp_exact` benchmark workload's instances: the
//! pinned solver path, the instances that once came back `Exact` and
//! overlapping or above the optimum, a brute-force optimum, and the seed
//! sweep; the same instances moved onto backlogged and mixed-rate clusters;
//! and nine tasks on four interchangeable slots.

mod support;

use dsp_dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_sched::dsp_ilp::{DspIlpScheduler, IlpOutcome, IlpStats};
use dsp_units::{Dur, Time};
use dsp_verify::{bounds::makespan_lower_bound, check_schedule, VerifyOptions};
use support::{brute_force_makespan, instances, planned_makespan, two_rates, Instance};

/// Solve one instance and require a proven optimum whose plan passes
/// R1–R4 — what `dsp-benchmark run --workload ilp_exact` checks — and equals
/// the brute-force optimum, which the lower bound does not exceed.
fn assert_exact_and_clean(inst: &Instance, what: &str) {
    let (schedule, outcome) =
        DspIlpScheduler::default().schedule_with_outcome(&inst.jobs, &inst.cluster, Time::ZERO);
    assert_eq!(outcome, IlpOutcome::Exact, "{what}");
    let report = check_schedule(&schedule, &inst.jobs, &inst.cluster, &VerifyOptions::default());
    assert!(report.is_clean(), "{what}:\n{report}");
    let planned = planned_makespan(&schedule, &inst.jobs, &inst.cluster, Time::ZERO);
    let optimum = brute_force_makespan(&inst.jobs, &inst.cluster, Time::ZERO, &[]);
    assert_eq!(planned, optimum, "{what}");
    let bound = makespan_lower_bound(&inst.jobs, &inst.cluster, Time::ZERO, &[]);
    assert!(bound <= optimum, "{what}: bound {bound} above the optimum {optimum}");
}

/// `dsp-benchmark run --workload ilp_exact --seed 2030`, variant 3
/// (generator seed `mix_seed(2030, 3)`), instance 179: a 3-chain and two
/// free tasks on two 1-slot nodes, returned `Exact` with T359.0 starting
/// 1 µs before its slot's previous task ends at 3.025410 s (R3). Branch-
/// and-bound closes its gap on that point — `L` = the chain's length, the
/// root bound — and the plan re-derived from its slots and order is 2 µs
/// longer than the optimum. The list plan is that 4 811 884 µs optimum and
/// meets the lower bound, so it is the answer and the MILP never runs.
#[test]
fn seed_2030_instance_179_is_exact_and_clean() {
    let inst = instances(6_155_879_563_579_683_136, 180).pop().expect("180 instances");
    assert_exact_and_clean(&inst, "mix_seed(2030, 3) instance 179");
    let (_, _, stats) = DspIlpScheduler::default().schedule_with_stats_onto(
        &inst.jobs,
        &inst.cluster,
        Time::ZERO,
        &[],
    );
    assert_eq!(stats, IlpStats::default());
}

/// The one other overlapping `Exact` in generator seeds 1–1 000.
#[test]
fn seed_258_instance_212_is_exact_and_clean() {
    let inst = instances(258, 213).pop().expect("213 instances");
    assert_exact_and_clean(&inst, "seed 258 instance 212");
}

/// The rest of what generator seeds 1–5 000 turned up at the parent of
/// PR 24: three more overlapping `Exact`s (seeds 1111, 1250, 3482) and
/// seven solves that errored out to the list fallback.
#[test]
fn formerly_failing_sweep_instances_are_exact_and_clean() {
    for (seed, i) in [
        (611, 113),
        (623, 14),
        (1111, 152),
        (1250, 155),
        (1828, 65),
        (1950, 113),
        (2089, 161),
        (2604, 62),
        (2992, 65),
        (3482, 143),
    ] {
        let inst = instances(seed, i + 1).pop().expect("instances");
        assert_exact_and_clean(&inst, &format!("seed {seed} instance {i}"));
    }
}

/// Generator instances moved onto backlogged clusters that `dsp-lp` once
/// answered `Exact` above the brute-force optimum: a warm dual re-entry
/// reported `Infeasible` on a node whose LP a cold solve finds feasible,
/// and branch-and-bound pruned the live subtree under it. Each is (seed,
/// instance, cluster, backlog, optimum in µs).
#[test]
fn a_warm_infeasible_prunes_nothing_a_cold_solve_keeps() {
    let uniform = dsp_cluster::uniform(2, 1000.0, 2);
    let mixed = two_rates([1000.0, 1500.0], 2);
    let (ms, zero) = (Time::from_millis, Time::ZERO);
    for (seed, i, cluster, backlog, optimum) in [
        (7, 92, &uniform, [ms(300), zero], 2_167_745),
        (7, 95, &uniform, [ms(300), zero], 1_552_626),
        (1, 47, &mixed, [zero, ms(700)], 1_373_701),
    ] {
        let what = format!("seed {seed} instance {i} on {backlog:?}");
        let jobs = instances(seed, i + 1).pop().expect("instances").jobs;
        let (schedule, outcome) = DspIlpScheduler::default().schedule_with_outcome_onto(
            &jobs,
            cluster,
            Time::ZERO,
            &backlog,
        );
        assert_eq!(outcome, IlpOutcome::Exact, "{what}");
        assert!(check_schedule(&schedule, &jobs, cluster, &VerifyOptions::default()).is_clean());
        let brute = brute_force_makespan(&jobs, cluster, Time::ZERO, &backlog);
        assert_eq!(brute, Dur::from_micros(optimum), "{what}");
        assert_eq!(planned_makespan(&schedule, &jobs, cluster, Time::ZERO), brute, "{what}");
    }
}

/// The interchangeable-slot rule and the warm re-check beyond idle uniform
/// clusters: generator seeds 1–12 × 120 batches moved onto uniform 2 × 1,
/// 2 × 2 and 3 × 1 clusters and onto 1000/1500 MI/s nodes of 2 slots, each
/// idle and with one node backlogged. Every answer must be `Exact` and equal
/// the brute-force optimum.
/// `cargo test --release -p dsp-sched --test ilp_exact -- --ignored class_`.
#[test]
#[ignore = "11 520 brute-force optima; nightly runs it"]
fn class_sweep_matches_brute_force_off_the_generator_clusters() {
    let uniform = dsp_cluster::uniform;
    let (ms, zero) = (Time::from_millis, Time::ZERO);
    let shapes = [
        (uniform(2, 1000.0, 1), vec![ms(300), zero]),
        (uniform(2, 1000.0, 2), vec![ms(300), zero]),
        (uniform(3, 1000.0, 1), vec![ms(300), zero, zero]),
        (two_rates([1000.0, 1500.0], 2), vec![zero, ms(700)]),
    ];
    let ilp = DspIlpScheduler::default();
    let (mut failed, mut solved) = (Vec::new(), 0);
    for (cluster, backlog) in &shapes {
        for node_avail in [&[][..], backlog] {
            for seed in 1..=12 {
                for (i, inst) in instances(seed, 120).iter().enumerate() {
                    let (schedule, outcome, stats) =
                        ilp.schedule_with_stats_onto(&inst.jobs, cluster, Time::ZERO, node_avail);
                    solved += usize::from(stats.nodes > 0);
                    let planned = planned_makespan(&schedule, &inst.jobs, cluster, Time::ZERO);
                    let optimum = brute_force_makespan(&inst.jobs, cluster, Time::ZERO, node_avail);
                    if outcome != IlpOutcome::Exact || planned != optimum {
                        failed.push(format!(
                            "{} behind {node_avail:?}, seed {seed} instance {i}: \
                             {outcome:?} {planned}, optimum {optimum}",
                            cluster.name
                        ));
                    }
                }
            }
        }
    }
    eprintln!("{solved} of 11 520 batches went through the MILP");
    assert!(failed.is_empty(), "{} failed:\n{}", failed.len(), failed.join("\n"));
}

/// Nine independent tasks of 1000 + 137·t MI on 2 nodes × 2 slots: 24
/// labellings of every plan, once past the default node budget. It must
/// answer `Exact` within that budget, at the least max slot load over all
/// 4⁹ assignments — the optimum, as the tasks are independent and no slot
/// is backlogged. Nodes and pivots are pinned.
#[test]
#[ignore = "seconds of optimized solving; nightly runs it"]
fn nine_tasks_on_four_slots_is_exact() {
    let tasks = (0..9).map(|t| TaskSpec::sized(1000.0 + 137.0 * t as f64)).collect();
    let jobs = [Job::new(
        JobId(0),
        JobClass::Small,
        Time::ZERO,
        Time::from_secs(3600),
        tasks,
        Dag::new(9),
    )];
    let cluster = dsp_cluster::uniform(2, 1000.0, 2);
    let (schedule, outcome, stats) =
        DspIlpScheduler::default().schedule_with_stats_onto(&jobs, &cluster, Time::ZERO, &[]);
    assert_eq!(outcome, IlpOutcome::Exact, "{stats:?}");
    let exec: Vec<Dur> =
        (0..9).map(|t| jobs[0].task(t).est_exec_time(cluster.nodes[0].rate())).collect();
    let least_max_load = (0..4usize.pow(9))
        .map(|code| {
            let mut load = [Dur::ZERO; 4];
            for (t, &e) in exec.iter().enumerate() {
                load[code / 4usize.pow(t as u32) % 4] += e;
            }
            load.into_iter().max().expect("four slots")
        })
        .min()
        .expect("assignments");
    assert_eq!(planned_makespan(&schedule, &jobs, &cluster, Time::ZERO), least_max_load);
    assert_eq!((stats.nodes, stats.pivots), (13_577, 45_228), "{stats:?}");
}

/// `Exact` against an optimum the solver had no part in — every slot
/// assignment × every linear extension of the 48 pinned instances — and the
/// lower bound against that optimum.
#[test]
fn exact_makespan_is_the_brute_force_optimum() {
    for (i, inst) in instances(2018, 48).iter().enumerate() {
        assert_exact_and_clean(inst, &format!("seed 2018 instance {i}"));
    }
}

/// The exact arm's *path* on the first 48 instances of generator seed
/// 2018: every placement, start microsecond, outcome and effort counter
/// folded into one FNV-1a literal. A single changed pivot in `dsp-lp`
/// moves `pivots`; a changed vertex moves which of several equal-makespan
/// schedules comes back. Re-pinned four times: from `0xa148_80a8_10a9_96dc`
/// (the full pairwise model, starts read off the LP point), from
/// `0x8f94_fcd4_81f5_88ae` (every answer from branch-and-bound, `x ≤ 1` rows
/// in the tableau), from `0x4d49_9eae_286b_09b3` (every labelling of
/// interchangeable slots searched), then from `0x03fd_118b_ab34_e3a6`
/// (branch-and-bound popping nodes in rounds of eight against a cutoff
/// frozen per round). Per-instance nodes, pivots and makespans before and
/// after each re-pin are tabled under `results/benchmark/`.
#[test]
fn exact_arm_keeps_its_schedules_and_its_path() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let fold = |h: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, inst) in instances(2018, 48).iter().enumerate() {
        let (schedule, outcome, stats) = DspIlpScheduler::default().schedule_with_stats_onto(
            &inst.jobs,
            &inst.cluster,
            Time::ZERO,
            &[],
        );
        assert_eq!(outcome, IlpOutcome::Exact, "instance {i}");
        for a in &schedule.assignments {
            fold(&mut h, u64::from(a.task.job.0) << 32 | u64::from(a.task.index));
            fold(&mut h, u64::from(a.node.0));
            fold(&mut h, a.start.as_micros());
        }
        fold(&mut h, outcome as u64);
        for n in [stats.nodes, stats.pivots, stats.rounds, stats.warm_hits] {
            fold(&mut h, n as u64);
        }
    }
    assert_eq!(h, 0x2b7c_dbc2_a815_aa2a, "schedules or solver path moved: {h:#018x}");
}

/// Run `check` over generator seeds `default` × 256 instances, or the window
/// `ILP_SWEEP_SEEDS=FROM..TO` names (half-open), and fail with every
/// instance it finds fault with.
fn sweep(default: &str, check: impl Fn(&Instance) -> Option<String>) {
    let window = std::env::var("ILP_SWEEP_SEEDS").unwrap_or_else(|_| default.into());
    let (from, to) = window.split_once("..").expect("ILP_SWEEP_SEEDS=FROM..TO");
    let (from, to): (u64, u64) = (from.parse().expect("FROM"), to.parse().expect("TO"));
    let mut failed = Vec::new();
    for seed in from..to {
        for (i, inst) in instances(seed, 256).iter().enumerate() {
            if let Some(fault) = check(inst) {
                failed.push(format!("seed {seed} instance {i}: {fault}"));
            }
        }
    }
    assert!(failed.is_empty(), "{} of seeds {window} failed:\n{}", failed.len(), failed.join("\n"));
}

/// Generator seeds 1–5 000 (≈ 2 min optimized): every instance must come
/// back `Exact` — so no solver error, budget or failed audit sent it to the
/// list fallback — with a plan that passes R1–R4.
/// `cargo test --release -p dsp-sched --test ilp_exact -- --ignored seed_`.
#[test]
#[ignore = "minutes of optimized solving; nightly runs a dated window"]
fn seed_sweep_is_exact_and_clean() {
    let ilp = DspIlpScheduler::default();
    sweep("1..5001", |inst| {
        let (schedule, outcome) = ilp.schedule_with_outcome(&inst.jobs, &inst.cluster, Time::ZERO);
        let report =
            check_schedule(&schedule, &inst.jobs, &inst.cluster, &VerifyOptions::default());
        (outcome != IlpOutcome::Exact || !report.is_clean())
            .then(|| format!("{outcome:?}\n{report}"))
    });
}

/// The lower bound under the brute-force optimum, and `Exact` on it, over
/// generator seeds 1–300 (≈ 8 s optimized, minutes in a debug build).
/// `cargo test --release -p dsp-sched --test ilp_exact -- --ignored bound_`.
#[test]
#[ignore = "76 800 brute-force optima; nightly runs it"]
fn bound_sweep_stays_under_the_brute_force_optimum() {
    let ilp = DspIlpScheduler::default();
    sweep("1..301", |inst| {
        let optimum = brute_force_makespan(&inst.jobs, &inst.cluster, Time::ZERO, &[]);
        let bound = makespan_lower_bound(&inst.jobs, &inst.cluster, Time::ZERO, &[]);
        let (schedule, outcome) = ilp.schedule_with_outcome(&inst.jobs, &inst.cluster, Time::ZERO);
        let planned = planned_makespan(&schedule, &inst.jobs, &inst.cluster, Time::ZERO);
        (bound > optimum || outcome != IlpOutcome::Exact || planned != optimum)
            .then(|| format!("bound {bound}, optimum {optimum}, {outcome:?} {planned}"))
    });
}
