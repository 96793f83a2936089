//! Table II — the paper's parameter settings — as one configuration struct.

use dsp_preempt::{DspParams, PriorityWeights};
use dsp_sim::EngineConfig;
use dsp_units::{Dur, Time};

/// The experiment parameters of Table II plus the simulator's timing knobs.
///
/// | Symbol | Meaning | Paper setting |
/// |---|---|---|
/// | δ | preempting-task window ratio | 0.35 |
/// | τ | waiting-time threshold | 0.05 s (see [`Params::tau`] note) |
/// | θ1, θ2 | CPU/memory weights in g(k) | 0.5, 0.5 |
/// | α, β | SRPT waiting/remaining weights | 0.5, 1 |
/// | γ | Eq. 12 level coefficient | 0.5 |
/// | ω1..ω3 | priority weights | 0.5, 0.3, 0.2 |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// δ: fraction of each queue considered for preemption.
    pub delta: f64,
    /// τ: starvation override. Table II prints 0.05 s; at simulation time
    /// scales that fires for every queued task, so the default here is one
    /// scheduling period (EXPERIMENTS.md records the deviation). Set it to
    /// 0.05 s to feel the paper's literal value.
    pub tau: Dur,
    /// ε: urgency threshold on allowable waiting time.
    pub epsilon: Dur,
    /// ρ: PP normalized-gap requirement (> 1).
    pub rho: f64,
    /// γ: Eq. 12 level coefficient.
    pub gamma: f64,
    /// ω1: weight of inverse remaining time in Eq. 13.
    pub omega1: f64,
    /// ω2: weight of waiting time.
    pub omega2: f64,
    /// ω3: weight of allowable waiting time.
    pub omega3: f64,
    /// α: SRPT waiting-time weight.
    pub alpha: f64,
    /// β: SRPT remaining-time weight.
    pub beta: f64,
    /// Epoch length (online preemption cadence).
    pub epoch: Dur,
    /// σ: dispatch latency per preemption recovery.
    pub sigma: Dur,
    /// Offline scheduling period (the paper reschedules every 5 minutes).
    pub sched_period: Dur,
    /// Engine queue lookahead (see `dsp_sim::EngineConfig::lookahead`).
    pub lookahead: usize,
    /// Hard simulation-time cap.
    pub max_time: Time,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            delta: 0.35,
            tau: Dur::from_secs(3600),
            epsilon: Dur::from_millis(100),
            rho: 1.5,
            gamma: 0.5,
            omega1: 0.5,
            omega2: 0.3,
            omega3: 0.2,
            alpha: 0.5,
            beta: 1.0,
            epoch: Dur::from_secs(5),
            sigma: Dur::from_millis(50),
            sched_period: Dur::from_secs(300),
            lookahead: 4,
            max_time: Time::from_secs(30 * 24 * 3600),
        }
    }
}

impl Params {
    /// The ω sum should be 1 (the paper's normalization); exposed so tests
    /// and ablations can assert it.
    pub fn omega_sum(&self) -> f64 {
        self.omega1 + self.omega2 + self.omega3
    }

    /// Eq. 12/13 weights in `dsp-preempt` form.
    pub fn priority_weights(&self) -> PriorityWeights {
        PriorityWeights { w1: self.omega1, w2: self.omega2, w3: self.omega3, gamma: self.gamma }
    }

    /// Algorithm 1 parameters (with the PP filter on/off).
    pub fn dsp_params(&self, use_pp: bool) -> DspParams {
        DspParams {
            delta: self.delta,
            tau: self.tau,
            epsilon: self.epsilon,
            rho: self.rho,
            epoch: self.epoch,
            weights: self.priority_weights(),
            use_pp,
        }
    }

    /// Engine configuration.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            epoch: self.epoch,
            sigma: self.sigma,
            max_time: self.max_time,
            lookahead: self.lookahead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let p = Params::default();
        assert_eq!(p.delta, 0.35);
        assert_eq!(p.gamma, 0.5);
        assert_eq!((p.omega1, p.omega2, p.omega3), (0.5, 0.3, 0.2));
        assert_eq!((p.alpha, p.beta), (0.5, 1.0));
        assert!((p.omega_sum() - 1.0).abs() < 1e-12);
        assert!(p.rho > 1.0);
    }

    #[test]
    fn conversions_carry_values() {
        let p = Params::default();
        let w = p.priority_weights();
        assert_eq!(w.gamma, p.gamma);
        let d = p.dsp_params(false);
        assert!(!d.use_pp);
        assert_eq!(d.delta, p.delta);
        let e = p.engine_config();
        assert_eq!(e.epoch, p.epoch);
        assert_eq!(e.sigma, p.sigma);
    }
}
