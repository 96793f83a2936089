//! Table II — the paper's parameter settings — as one configuration struct.

use dsp_preempt::{DspParams, SrptPolicy};
use dsp_sim::EngineConfig;
use dsp_units::Dur;

/// The experiment parameters of Table II plus the simulator's timing knobs,
/// each kept once, in the struct of the crate that reads it.
///
/// | Symbol | Meaning | Paper setting | Home |
/// |---|---|---|---|
/// | δ | preempting-task window ratio | 0.35 | `dsp.delta` |
/// | τ | waiting-time threshold | 0.05 s (deviation: [`DspParams::tau`]) | `dsp.tau` |
/// | ε | urgency threshold on allowable waiting | — | `dsp.epsilon` |
/// | ρ | PP normalized-gap requirement | > 1 | `dsp.rho` |
/// | γ | Eq. 12 level coefficient | 0.5 | `dsp.weights.gamma` |
/// | ω1..ω3 | priority weights | 0.5, 0.3, 0.2 | `dsp.weights.w1..w3` |
/// | α, β | SRPT waiting/remaining weights | 0.5, 1 | `srpt.alpha`, `srpt.beta` |
/// | σ | dispatch latency per recovery | 0.05 s | `engine.sigma` |
/// | θ1, θ2 | CPU/memory weights in g(k) | 0.5, 0.5 | `dsp_cluster::Node` |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Algorithm 1 and Eq. 12/13: δ, τ, ε, ρ, γ and ω1–ω3. Its `use_pp` is
    /// set per method by [`Params::dsp_params`].
    pub dsp: DspParams,
    /// SRPT's α and β.
    pub srpt: SrptPolicy,
    /// The engine's epoch (the online phase's cadence, which is also
    /// Algorithm 1's preemptability horizon), σ, lookahead and time wall.
    pub engine: EngineConfig,
    /// Offline scheduling period (the paper reschedules every 5 minutes).
    pub sched_period: Dur,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            dsp: DspParams::default(),
            srpt: SrptPolicy::default(),
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
        let p = Params::default();
        let w = p.dsp.weights;
        assert_eq!(p.dsp.delta, 0.35);
        assert_eq!(w.gamma, 0.5);
        assert_eq!((w.w1, w.w2, w.w3), (0.5, 0.3, 0.2));
        assert_eq!((p.srpt.alpha, p.srpt.beta), (0.5, 1.0));
        assert!((w.w1 + w.w2 + w.w3 - 1.0).abs() < 1e-12);
        assert!(p.dsp.rho > 1.0);
        assert_eq!(p.engine.sigma, Dur::from_millis(50));
    }

    #[test]
    fn dsp_params_sets_only_the_pp_filter() {
        let p = Params::default();
        assert_eq!(p.dsp_params(true), p.dsp);
        assert_eq!(p.dsp_params(false), DspParams { use_pp: false, ..p.dsp });
    }
}
