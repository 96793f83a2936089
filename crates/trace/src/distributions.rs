//! Small sampling toolkit: log-normal via Box–Muller, exponential
//! inter-arrivals, Poisson arrival processes — over the in-tree generator,
//! like everything else in a workspace that depends on `std` only
//! (DESIGN.md §6).

use dsp_units::{Dur, Time};
use rand::Rng;

/// Parameters of a log-normal distribution, expressed by its *median*
/// `exp(μ)` and shape `σ` — the parametrization trace studies usually
/// report (Google-trace task durations are roughly log-normal with a
/// long right tail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalParams {
    /// Median of the distribution (`exp(μ)`).
    pub median: f64,
    /// Shape parameter σ (larger = heavier right tail).
    pub sigma: f64,
}

impl LogNormalParams {
    /// μ = ln(median).
    pub fn mu(&self) -> f64 {
        self.median.max(f64::MIN_POSITIVE).ln()
    }
}

/// One standard-normal sample via Box–Muller.
pub fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to keep ln() finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One log-normal sample.
pub fn log_normal<R: Rng>(rng: &mut R, p: LogNormalParams) -> f64 {
    (p.mu() + p.sigma * std_normal(rng)).exp()
}

/// One exponential sample with the given rate (events per unit).
pub fn exponential<R: Rng>(rng: &mut R, rate: f64) -> f64 {
    let rate = rate.max(f64::MIN_POSITIVE);
    let u: f64 = 1.0 - rng.gen::<f64>();
    -u.ln() / rate
}

/// `n` arrival instants of a Poisson process starting at `start` with
/// `rate_per_min` events per minute (the paper draws the job arrival rate
/// uniformly from [2, 5] jobs/min).
pub fn poisson_arrivals<R: Rng>(
    rng: &mut R,
    n: usize,
    start: Time,
    rate_per_min: f64,
) -> Vec<Time> {
    let rate_per_sec = rate_per_min / 60.0;
    let mut t = start;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += Dur::from_secs_f64(exponential(rng, rate_per_sec));
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn log_normal_median_is_close() {
        let mut r = rng();
        let p = LogNormalParams { median: 10.0, sigma: 0.8 };
        let mut samples: Vec<f64> = (0..20_000).map(|_| log_normal(&mut r, p)).collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let med = samples[samples.len() / 2];
        assert!((med - 10.0).abs() / 10.0 < 0.1, "empirical median {med}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn log_normal_has_right_tail() {
        let mut r = rng();
        let p = LogNormalParams { median: 1.0, sigma: 1.0 };
        let samples: Vec<f64> = (0..20_000).map(|_| log_normal(&mut r, p)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Log-normal mean = exp(μ + σ²/2) = e^0.5 ≈ 1.65 > median 1.
        assert!(mean > 1.3, "mean {mean}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = rng();
        let mean = (0..20_000).map(|_| exponential(&mut r, 4.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn arrivals_are_increasing_and_match_rate() {
        let mut r = rng();
        let arr = poisson_arrivals(&mut r, 600, Time::ZERO, 3.0);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        // 600 arrivals at 3/min ≈ 200 minutes ≈ 12000 s (±20%).
        let span = arr.last().unwrap().as_secs_f64();
        assert!((span - 12_000.0).abs() < 2_400.0, "span {span}");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let mut r = rng();
        assert!(log_normal(&mut r, LogNormalParams { median: 0.0, sigma: 0.5 }).is_finite());
        assert!(exponential(&mut r, 0.0).is_finite());
    }
}
