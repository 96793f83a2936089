//! Scenario-axis plug-ins: execution-time models and arrival patterns.
//!
//! The exemplar DAG simulators treat the execution-time model as a plug-in
//! over the declared WCET `C`: exact WCET, full-random `[1, C]`, half-random
//! `[C/2, C]`, or a normal draw around `C`. The scheduler always plans on
//! the *estimate* (the WCET times the a-priori predictor noise); the engine
//! executes the sampled *truth*. `ExecModel::Wcet` draws nothing from the
//! RNG, so default-parameter workloads are byte-identical to the
//! pre-uncertainty generator (the regression anchor in
//! `tests/uncertainty_prop.rs`).
//!
//! Arrival patterns generalize the paper's homogeneous Poisson process to
//! diurnal (sinusoidal rate) and bursty (on/off) trains. Both are
//! non-homogeneous Poisson processes sampled by thinning against the peak
//! rate, which keeps one RNG draw sequence per accepted/rejected candidate
//! and therefore stays deterministic per seed.

use crate::distributions::poisson_arrivals;
use dsp_units::{Dur, Mi, Time};
use rand::Rng;

/// How a task's *true* execution size relates to its declared WCET.
///
/// The declared WCET remains the basis of the scheduler-visible estimate
/// (`TaskSpec::est_size`); the sampled truth becomes `TaskSpec::size`, the
/// work the engine actually executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecModel {
    /// Truth = declared WCET exactly (today's behavior; draws no RNG).
    Wcet,
    /// Truth uniform in `[1 MI, C]` — the exemplar's "full random".
    FullRandom,
    /// Truth uniform in `[C/2, C]` — the exemplar's "half random".
    HalfRandom,
    /// Truth normal around `C` with standard deviation `sigma_frac · C`,
    /// clamped to the declared support `[C/20, 2C]`.
    Normal {
        /// Standard deviation as a fraction of the WCET.
        sigma_frac: f64,
    },
}

impl ExecModel {
    /// Sample the true execution size for a task with declared WCET `wcet`.
    ///
    /// `Wcet` consumes no RNG draws — required for the bit-identity anchor.
    pub fn sample<R: Rng>(&self, rng: &mut R, wcet: Mi) -> Mi {
        let c = wcet.get();
        match *self {
            ExecModel::Wcet => wcet,
            ExecModel::FullRandom => {
                let lo = 1.0_f64.min(c);
                Mi::new(rng.gen_range(lo..=c))
            }
            ExecModel::HalfRandom => Mi::new(rng.gen_range(c / 2.0..=c)),
            ExecModel::Normal { sigma_frac } => {
                let draw = c + sigma_frac.abs() * c * crate::distributions::std_normal(rng);
                Mi::new(draw.clamp(c / 20.0, 2.0 * c))
            }
        }
    }

    /// Inclusive support `[lo, hi]` of the sampled truth for WCET `c`,
    /// asserted by the statistical sanity tests.
    pub fn support(&self, wcet: Mi) -> (f64, f64) {
        let c = wcet.get();
        match *self {
            ExecModel::Wcet => (c, c),
            ExecModel::FullRandom => (1.0_f64.min(c), c),
            ExecModel::HalfRandom => (c / 2.0, c),
            ExecModel::Normal { .. } => (c / 20.0, 2.0 * c),
        }
    }

    /// Stable label used in matrix CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            ExecModel::Wcet => "wcet",
            ExecModel::FullRandom => "full-random",
            ExecModel::HalfRandom => "half-random",
            ExecModel::Normal { .. } => "normal",
        }
    }
}

/// Job inter-arrival pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Homogeneous Poisson at the workload's base rate (today's behavior).
    Poisson,
    /// Sinusoidal rate `base · (1 + amplitude · sin(2πt/period))`; mean rate
    /// over a full period equals the base rate.
    Diurnal {
        /// Relative swing of the rate, in `[0, 1)`.
        amplitude: f64,
        /// Period of one "day" in seconds of simulation time.
        period_secs: f64,
    },
    /// On/off train: bursts at `base · burst_factor` for `burst_secs`,
    /// separated by quiet gaps at `base / burst_factor` for `gap_secs`.
    Bursty {
        /// Rate multiplier inside a burst (> 1).
        burst_factor: f64,
        /// Burst window length in seconds.
        burst_secs: f64,
        /// Quiet gap length in seconds.
        gap_secs: f64,
    },
}

impl ArrivalModel {
    /// Instantaneous rate (per minute) at offset `t_secs` from the start.
    pub fn rate_at(&self, base_per_min: f64, t_secs: f64) -> f64 {
        match *self {
            ArrivalModel::Poisson => base_per_min,
            ArrivalModel::Diurnal { amplitude, period_secs } => {
                let phase = 2.0 * std::f64::consts::PI * t_secs / period_secs.max(1.0);
                base_per_min * (1.0 + amplitude.clamp(0.0, 0.999) * phase.sin())
            }
            ArrivalModel::Bursty { burst_factor, burst_secs, gap_secs } => {
                let f = burst_factor.max(1.0);
                let cycle = (burst_secs + gap_secs).max(1e-9);
                let pos = t_secs.rem_euclid(cycle);
                if pos < burst_secs {
                    base_per_min * f
                } else {
                    base_per_min / f
                }
            }
        }
    }

    /// Peak rate (per minute) — the thinning envelope.
    fn rate_max(&self, base_per_min: f64) -> f64 {
        match *self {
            ArrivalModel::Poisson => base_per_min,
            ArrivalModel::Diurnal { amplitude, .. } => {
                base_per_min * (1.0 + amplitude.clamp(0.0, 0.999))
            }
            ArrivalModel::Bursty { burst_factor, .. } => base_per_min * burst_factor.max(1.0),
        }
    }

    /// `n` arrival instants starting at `start`. `Poisson` delegates to
    /// [`poisson_arrivals`] so the RNG draw sequence is unchanged from the
    /// pre-matrix generator; the other patterns sample the non-homogeneous
    /// process by thinning against [`rate_max`](Self::rate_max).
    pub fn arrivals<R: Rng>(
        &self,
        rng: &mut R,
        n: usize,
        start: Time,
        base_per_min: f64,
    ) -> Vec<Time> {
        if matches!(self, ArrivalModel::Poisson) {
            return poisson_arrivals(rng, n, start, base_per_min);
        }
        let rate_max = self.rate_max(base_per_min).max(f64::MIN_POSITIVE) / 60.0;
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0_f64; // seconds since `start`
        while out.len() < n {
            t += crate::distributions::exponential(rng, rate_max);
            let accept = self.rate_at(base_per_min, t) / 60.0 / rate_max;
            if rng.gen::<f64>() < accept {
                out.push(start + Dur::from_secs_f64(t));
            }
        }
        out
    }

    /// Stable label used in matrix CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalModel::Poisson => "poisson",
            ArrivalModel::Diurnal { .. } => "diurnal",
            ArrivalModel::Bursty { .. } => "bursty",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wcet_draws_nothing() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let _ = ExecModel::Wcet.sample(&mut a, Mi::new(5000.0));
        // The streams must stay aligned: WCET consumed zero draws.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn poisson_arm_matches_legacy_stream() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let legacy = poisson_arrivals(&mut a, 50, Time::ZERO, 3.0);
        let via_model = ArrivalModel::Poisson.arrivals(&mut b, 50, Time::ZERO, 3.0);
        assert_eq!(legacy, via_model);
    }
}
