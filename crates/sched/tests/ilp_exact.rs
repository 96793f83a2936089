//! The exact arm on the `ilp_exact` benchmark workload's instances: the
//! pinned solver path, the instances that once came back `Exact` and
//! overlapping, a brute-force optimum, and the seed sweep.

mod support;

use dsp_sched::dsp_ilp::{DspIlpScheduler, IlpOutcome};
use dsp_units::Time;
use dsp_verify::{check_schedule, VerifyOptions};
use support::{instances, Instance};

/// Solve one instance and require a proven optimum whose plan passes
/// R1–R4 — what `dsp-benchmark run --workload ilp_exact` checks.
fn assert_exact_and_clean(inst: &Instance, what: &str) {
    let (schedule, outcome) =
        DspIlpScheduler::default().schedule_with_outcome(&inst.jobs, &inst.cluster, Time::ZERO);
    assert_eq!(outcome, IlpOutcome::Exact, "{what}");
    let report = check_schedule(&schedule, &inst.jobs, &inst.cluster, &VerifyOptions::default());
    assert!(report.is_clean(), "{what}:\n{report}");
}

/// `dsp-benchmark run --workload ilp_exact --seed 2030`, variant 3
/// (generator seed `mix_seed(2030, 3)`), instance 179: five tasks on two
/// 1-slot nodes, returned `Exact` with T359.0 overlapping its slot's
/// previous task at 3.025 s (R3).
#[test]
fn seed_2030_instance_179_is_exact_and_clean() {
    let inst = instances(6_155_879_563_579_683_136, 180).pop().expect("180 instances");
    assert_exact_and_clean(&inst, "mix_seed(2030, 3) instance 179");
}

/// The one other failure in generator seeds 1–1 000 (256 instances each).
#[test]
fn seed_258_instance_is_exact_and_clean() {
    let inst = instances(258, SEED_258_INSTANCE + 1).pop().expect("instances");
    assert_exact_and_clean(&inst, "seed 258");
}

const SEED_258_INSTANCE: usize = 212;

/// The exact arm's *path* on the first 48 instances of generator seed
/// 2018: every placement, start microsecond, outcome and effort counter
/// folded into one FNV-1a literal. A single changed pivot in `dsp-lp`
/// moves `pivots`; a changed vertex moves which of several equal-makespan
/// schedules comes back.
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
    assert_eq!(h, 0xa148_80a8_10a9_96dc, "schedules or solver path moved: {h:#018x}");
}

/// Generator seeds 1–5 000 × 256 instances (≈ 4 min optimized), or the
/// window `ILP_SWEEP_SEEDS=FROM..TO` names (half-open): every instance
/// must come back `Exact` — so no solver error, budget or failed audit sent
/// it to the list fallback — with a plan that passes R1–R4.
/// `cargo test --release -p dsp-sched --test ilp_exact -- --ignored`.
#[test]
#[ignore = "minutes of optimized solving; nightly runs a dated window"]
fn seed_sweep_is_exact_and_clean() {
    let window = std::env::var("ILP_SWEEP_SEEDS").unwrap_or_else(|_| "1..5001".into());
    let (from, to) = window.split_once("..").expect("ILP_SWEEP_SEEDS=FROM..TO");
    let (from, to): (u64, u64) = (from.parse().expect("FROM"), to.parse().expect("TO"));
    let ilp = DspIlpScheduler::default();
    let mut failed = Vec::new();
    for seed in from..to {
        for (i, inst) in instances(seed, 256).iter().enumerate() {
            let (schedule, outcome) =
                ilp.schedule_with_outcome(&inst.jobs, &inst.cluster, Time::ZERO);
            let report =
                check_schedule(&schedule, &inst.jobs, &inst.cluster, &VerifyOptions::default());
            if outcome != IlpOutcome::Exact || !report.is_clean() {
                failed.push(format!("seed {seed} instance {i}: {outcome:?}\n{report}"));
            }
        }
    }
    assert!(failed.is_empty(), "{} of seeds {window} failed:\n{}", failed.len(), failed.join("\n"));
}
