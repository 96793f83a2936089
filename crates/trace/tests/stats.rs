//! Statistical sanity for the scenario-axis models (DESIGN.md §13): draws
//! stay inside declared supports, arrival trains match their rate
//! envelopes, and identical seeds reproduce identical traces.
//!
//! Deterministic seeded sweeps, not `proptest!` cases: every assertion
//! below is exact at its fixed seed, with tolerances wide enough that the
//! checks hold for *any* seed (spot-verified over a seed sweep).

use dsp_trace::{
    generate_workload, ArrivalModel, ExecModel, TraceParams, BURST_SECS, DIURNAL_AMPLITUDE,
    DIURNAL_PERIOD_SECS, GAP_SECS, NORMAL_SIGMA_FRAC,
};
use dsp_units::{Mi, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MODELS: [ExecModel; 4] =
    [ExecModel::Wcet, ExecModel::FullRandom, ExecModel::HalfRandom, ExecModel::Normal];

#[test]
fn draws_stay_in_declared_support() {
    for (si, model) in MODELS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + si as u64);
        for wcet_mi in [1.0, 50.0, 5_000.0, 2.0e6] {
            let wcet = Mi::new(wcet_mi);
            let (lo, hi) = model.support(wcet);
            for _ in 0..5_000 {
                let draw = model.sample(&mut rng, wcet).get();
                assert!(
                    (lo..=hi).contains(&draw),
                    "{}: draw {draw} outside [{lo}, {hi}] for WCET {wcet_mi}",
                    model.label()
                );
            }
        }
    }
}

#[test]
fn uniform_models_cover_their_range_with_the_right_mean() {
    let wcet = Mi::new(10_000.0);
    for (model, expect_mean) in [
        (ExecModel::FullRandom, (1.0 + 10_000.0) / 2.0),
        (ExecModel::HalfRandom, (5_000.0 + 10_000.0) / 2.0),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| model.sample(&mut rng, wcet).get()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let (lo, hi) = model.support(wcet);
        let width = hi - lo;
        assert!(
            (mean - expect_mean).abs() < 0.02 * width,
            "{}: mean {mean} far from {expect_mean}",
            model.label()
        );
        // The tails are actually reached: min/max within 1% of the bounds.
        let min = draws.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = draws.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < lo + 0.01 * width, "{}: min {min} never near {lo}", model.label());
        assert!(max > hi - 0.01 * width, "{}: max {max} never near {hi}", model.label());
    }
}

#[test]
fn normal_model_centers_on_the_wcet() {
    let wcet = Mi::new(10_000.0);
    let model = ExecModel::Normal;
    let mut rng = StdRng::seed_from_u64(13);
    let n = 20_000;
    let draws: Vec<f64> = (0..n).map(|_| model.sample(&mut rng, wcet).get()).collect();
    let mean = draws.iter().sum::<f64>() / n as f64;
    assert!((mean - 10_000.0).abs() < 0.01 * 10_000.0, "mean {mean} drifted off the WCET");
    let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    // σ = 0.2·C = 2000, mildly shrunk by the [C/20, 2C] clamp.
    let sigma = NORMAL_SIGMA_FRAC * 10_000.0;
    assert!((0.85 * sigma..=1.05 * sigma).contains(&sd), "sd {sd} inconsistent with σ {sigma}");
}

#[test]
fn poisson_train_matches_its_rate() {
    let mut rng = StdRng::seed_from_u64(21);
    let base = 3.0; // jobs per minute
    let n = 4_000;
    let arrivals = ArrivalModel::Poisson.arrivals(&mut rng, n, Time::ZERO, base);
    assert_eq!(arrivals.len(), n);
    assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
    let span_min = (arrivals[n - 1] - arrivals[0]).as_secs_f64() / 60.0;
    let rate = (n - 1) as f64 / span_min;
    assert!(
        (rate - base).abs() < 0.1 * base,
        "realized rate {rate}/min far from the base {base}/min"
    );
}

#[test]
fn bursty_train_concentrates_arrivals_in_bursts() {
    let mut rng = StdRng::seed_from_u64(33);
    let model = ArrivalModel::Bursty;
    let n = 3_000;
    let arrivals = model.arrivals(&mut rng, n, Time::ZERO, 3.0);
    let cycle = BURST_SECS + GAP_SECS;
    let in_burst = arrivals
        .iter()
        .filter(|t| (t.as_micros() as f64 / 1e6).rem_euclid(cycle) < BURST_SECS)
        .count() as f64
        / n as f64;
    // Bursts hold rate 4r for 1/4 of the cycle vs r/4 in the gaps:
    // expected in-burst share = (4·60)/(4·60 + 0.25·180) ≈ 0.84. A burst
    // share near the 0.25 area fraction would mean thinning is broken.
    assert!(in_burst > 0.7, "only {in_burst:.2} of arrivals landed inside bursts");
}

#[test]
fn diurnal_train_follows_the_sinusoidal_envelope() {
    let mut rng = StdRng::seed_from_u64(44);
    let (amplitude, period) = (DIURNAL_AMPLITUDE, DIURNAL_PERIOD_SECS);
    let model = ArrivalModel::Diurnal;
    let n = 3_000;
    let arrivals = model.arrivals(&mut rng, n, Time::ZERO, 3.0);
    // First half of each period has rate ≥ base (sin ≥ 0), second half ≤;
    // the expected share of the first half is (1 + 2A/π)/2 ≈ 0.75 at A = 0.8.
    let rising = arrivals
        .iter()
        .filter(|t| (t.as_micros() as f64 / 1e6).rem_euclid(period) < period / 2.0)
        .count() as f64
        / n as f64;
    assert!(rising > 0.6, "only {rising:.2} of arrivals in the high-rate half-period");
    // The instantaneous rate honors its own declared envelope.
    for k in 0..12 {
        let r = model.rate_at(3.0, period * f64::from(k) / 12.0);
        assert!((3.0 * (1.0 - amplitude)..=3.0 * (1.0 + amplitude)).contains(&r));
    }
}

#[test]
fn identical_seeds_reproduce_identical_traces() {
    for (si, model) in MODELS.iter().enumerate() {
        for arrival in [ArrivalModel::Poisson, ArrivalModel::Diurnal, ArrivalModel::Bursty] {
            let p = TraceParams {
                task_scale: 0.02,
                estimate_noise_sigma: 0.0,
                exec_model: *model,
                arrival,
                ..TraceParams::default()
            };
            let seed = 500 + si as u64;
            let a = generate_workload(&mut StdRng::seed_from_u64(seed), 5, &p);
            let b = generate_workload(&mut StdRng::seed_from_u64(seed), 5, &p);
            assert_eq!(a, b, "{}/{} trace not reproducible", model.label(), arrival.label());
            let c = generate_workload(&mut StdRng::seed_from_u64(seed + 1), 5, &p);
            assert_ne!(a, c, "different seeds collapsed onto one workload");
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Known answers of the streams no golden covers: the `Diurnal` and
/// `Bursty` arrival instants and the `Normal` draws, at fixed seeds. A
/// moved literal means the model's arithmetic or draw order moved.
#[test]
fn model_streams_are_pinned() {
    let arrivals = |model: ArrivalModel, seed| {
        let ts = model.arrivals(&mut StdRng::seed_from_u64(seed), 400, Time::from_secs(7), 3.0);
        fnv(ts.into_iter().map(Time::as_micros))
    };
    let mut rng = StdRng::seed_from_u64(63);
    let wcets = [1.0, 50.0, 5_000.0, 2.0e6].into_iter().flat_map(|c| std::iter::repeat_n(c, 100));
    let normal = ExecModel::Normal;
    let normal = fnv(wcets.map(|c| normal.sample(&mut rng, Mi::new(c)).get().to_bits()));
    assert_eq!(
        [arrivals(ArrivalModel::Diurnal, 61), arrivals(ArrivalModel::Bursty, 62), normal],
        [10156349709940674746, 4056952176153391512, 11389927931689388296]
    );
}
