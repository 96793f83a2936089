//! Table II — the paper's parameter settings — as one configuration struct.

use dsp_preempt::DspParams;
use dsp_sim::EngineConfig;
use dsp_units::Dur;

/// The experiment parameters of Table II that the paper's experiments vary,
/// plus the simulator's timing knobs, each kept once, in the struct of the
/// crate that reads it. The settings no experiment varies are constants of
/// the crate that reads them.
///
/// | Symbol | Meaning | Paper setting | Home |
/// |---|---|---|---|
/// | δ | preempting-task window ratio | 0.35 | `dsp.delta` |
/// | τ | waiting-time threshold | 0.05 s (deviation: [`dsp_preempt::TAU`]) | `dsp_preempt::TAU` |
/// | ε | urgency threshold on allowable waiting | — | `dsp_preempt::EPSILON` |
/// | ρ | PP normalized-gap requirement | > 1 | `dsp.rho` |
/// | γ | Eq. 12 level coefficient | 0.5 | `dsp.gamma` |
/// | ω1..ω3 | priority weights | 0.5, 0.3, 0.2 | `dsp_preempt::OMEGA1..OMEGA3` |
/// | α, β | SRPT waiting/remaining weights | 0.5, 1 | `dsp_preempt::srpt::{ALPHA, BETA}` |
/// | σ | dispatch latency per recovery | 0.05 s | `dsp_sim::SIGMA` |
/// | θ1, θ2 | CPU/memory weights in g(k) | 0.5, 0.5 | `dsp_cluster::Node` |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Algorithm 1 and Eq. 12: δ, ρ, γ and the PP filter. Its `use_pp` is
    /// set per method by [`Params::dsp_params`].
    pub dsp: DspParams,
    /// The engine's epoch (the online phase's cadence, which is also
    /// Algorithm 1's preemptability horizon) and time wall.
    pub engine: EngineConfig,
    /// Offline scheduling period (the paper reschedules every 5 minutes).
    pub sched_period: Dur,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            dsp: DspParams::default(),
            engine: EngineConfig::default(),
            sched_period: Dur::from_secs(300),
        }
    }
}

impl Params {
    /// Algorithm 1 parameters with the PP filter on (DSP) or off
    /// (DSPW/oPP).
    pub fn dsp_params(&self, use_pp: bool) -> DspParams {
        DspParams { use_pp, ..self.dsp }
    }

    /// [`Params::engine`], for callers that read it through a method
    /// (`crates/benchmark`).
    pub fn engine_config(&self) -> EngineConfig {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        use dsp_preempt::{srpt, OMEGA1, OMEGA2, OMEGA3};
        let p = Params::default();
        assert_eq!(p.dsp.delta, 0.35);
        assert_eq!(p.dsp.gamma, 0.5);
        assert!(p.dsp.rho > 1.0);
        assert_eq!((OMEGA1, OMEGA2, OMEGA3), (0.5, 0.3, 0.2));
        assert!((OMEGA1 + OMEGA2 + OMEGA3 - 1.0).abs() < 1e-12);
        assert_eq!((srpt::ALPHA, srpt::BETA), (0.5, 1.0));
        assert_eq!(dsp_sim::SIGMA, Dur::from_millis(50));
    }

    #[test]
    fn list_and_policy_share_one_gamma() {
        // `DspListScheduler::default()` is the list plan callers build
        // without `Params`; its γ must be the one the policy defaults to.
        assert_eq!(dsp_sched::DspListScheduler::default().gamma, DspParams::default().gamma);
    }

    #[test]
    fn dsp_params_sets_only_the_pp_filter() {
        let p = Params::default();
        assert_eq!(p.dsp_params(true), p.dsp);
        assert_eq!(p.dsp_params(false), DspParams { use_pp: false, ..p.dsp });
    }
}
