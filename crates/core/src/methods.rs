//! The method table: every offline scheduler, online preemption policy and
//! cluster inventory the workspace can name, each with its canonical name,
//! its paper label and its constructor.
//!
//! The canonical name is the spelling frozen into matrix cell ids and CSV
//! rows. It is also what `dsp`, `dspd` and
//! `dsp_service::build_*` parse, and what their usage texts print — one
//! spelling per method, the same meaning everywhere. The single second
//! spelling is `dsp` for the list scheduler `dsp-list` (every default and
//! the benchmark's service configurations say `--sched dsp`); retired
//! spellings (`tetris-dep`, `tetris-wodep`, `dsp-wopp`, `real`) are refused
//! like any unknown name.

use crate::config::Params;
use dsp_cluster::ClusterSpec;
use dsp_preempt::{AmoebaPolicy, DspPolicy, NatjamPolicy, SrptPolicy};
use dsp_sched::{
    AaloScheduler, DspIlpScheduler, DspListScheduler, FifoScheduler, RandomScheduler, Scheduler,
    TetrisScheduler,
};
use dsp_sim::{NoPreempt, PreemptPolicy};
use dsp_verify::VerifyOptions;

/// One table per enum: `Variant => "canonical-name" | "second spelling",
/// "paper label";` rows, in usage-text order.
macro_rules! name_table {
    ($ty:ident { $($variant:ident => $name:literal $(| $alias:literal)*, $label:literal;)+ }) => {
        impl $ty {
            /// Every variant, in usage-text order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            /// Canonical name: the CLI value and the matrix cell-id spelling.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Paper-style label, as figure series print it.
            pub fn label(self) -> &'static str {
                match self {
                    $($ty::$variant => $label,)+
                }
            }

            /// The variant a name denotes.
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name $(| $alias)* => Some($ty::$variant),)+
                    _ => None,
                }
            }

            /// Every accepted name, `a|b|c`, for usage texts.
            pub fn usage() -> String {
                [$($name $(, $alias)*),+].join("|")
            }
        }
    };
}

/// Which cluster inventory to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterProfile {
    /// 50-node "real cluster" (Section V's Palmetto testbed).
    Palmetto,
    /// 30-instance EC2 deployment.
    Ec2,
    /// Heterogeneous blend: Palmetto- and EC2-class nodes interleaved
    /// (the scenario matrix's node-mix axis).
    Blend,
}

name_table!(ClusterProfile {
    Ec2 => "ec2", "EC2";
    Palmetto => "palmetto", "real cluster";
    Blend => "blend", "blend";
});

impl ClusterProfile {
    /// Materialize the node inventory.
    pub fn build(self) -> ClusterSpec {
        match self {
            ClusterProfile::Palmetto => dsp_cluster::palmetto(),
            ClusterProfile::Ec2 => dsp_cluster::ec2(),
            ClusterProfile::Blend => dsp_cluster::blend(),
        }
    }

    /// Per-class task-count scale of this profile's figures (1.0 = the
    /// paper's 300/1000/2000 tasks). The paper ran identical workloads on
    /// both testbeds; at reduced scale one scale cannot load both a
    /// 100-slot×6120 cluster and a 60-slot×2660 one, so each profile gets a
    /// scale calibrated to the same moderate overload (EXPERIMENTS.md,
    /// "calibration"). `dsp` run mode takes it as its default `--scale`.
    pub fn task_scale(self) -> f64 {
        match self {
            ClusterProfile::Palmetto => 0.2,
            ClusterProfile::Ec2 | ClusterProfile::Blend => 0.06,
        }
    }
}

/// Offline scheduling method (Fig. 5's comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMethod {
    /// DSP's practical list scheduler.
    Dsp,
    /// DSP's exact MILP with fallback (small instances only).
    DspIlp,
    /// Tetris without dependency handling.
    TetrisWoDep,
    /// Tetris with simple precedent-first dependency handling.
    TetrisSimDep,
    /// Aalo coflow-style queues.
    Aalo,
    /// FIFO baseline.
    Fifo,
    /// Random placement baseline.
    Random,
}

name_table!(SchedMethod {
    Dsp => "dsp-list" | "dsp", "DSP";
    DspIlp => "dsp-ilp", "DSP-ILP";
    TetrisSimDep => "tetris", "TetrisW/SimDep";
    TetrisWoDep => "tetris-wo-dep", "TetrisW/oDep";
    Aalo => "aalo", "Aalo";
    Fifo => "fifo", "FIFO";
    Random => "random", "Random";
});

impl SchedMethod {
    /// Does the arm keep precedence in its plans? Every arm but
    /// TetrisW/oDep does, whose defining flaw is ignoring dependencies.
    /// Decides whether R2 findings are errors (a broken promise) or
    /// warnings (a quantified design flaw) when a run's plan is audited.
    pub fn dependency_aware(self) -> bool {
        !matches!(self, SchedMethod::TetrisWoDep)
    }

    /// The audit a run of this arm is held to: R2 breaks are errors only if
    /// the arm claims dependency awareness, and R4's deadline misses always
    /// count, as warnings, so tight deadlines show their pressure.
    pub fn verify_options(self) -> VerifyOptions {
        VerifyOptions { dependency_aware: self.dependency_aware(), check_deadlines: true }
    }

    /// Construct the scheduler. `params` carries γ for the list ranking;
    /// `seed` feeds the random baseline only.
    pub fn build(self, params: &Params, seed: u64) -> Box<dyn Scheduler + Send> {
        match self {
            SchedMethod::Dsp => Box::new(DspListScheduler { gamma: params.dsp.gamma }),
            SchedMethod::DspIlp => Box::new(DspIlpScheduler::default()),
            SchedMethod::TetrisWoDep => Box::new(TetrisScheduler::without_dep()),
            SchedMethod::TetrisSimDep => Box::new(TetrisScheduler::with_simple_dep()),
            SchedMethod::Aalo => Box::new(AaloScheduler::default()),
            SchedMethod::Fifo => Box::new(FifoScheduler),
            SchedMethod::Random => Box::new(RandomScheduler::new(seed)),
        }
    }
}

/// Online preemption method (Fig. 6/7's comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptMethod {
    /// No online preemption.
    None,
    /// Full DSP (Algorithm 1 with PP).
    Dsp,
    /// DSP without the PP filter.
    DspWoPp,
    /// Amoeba.
    Amoeba,
    /// Natjam.
    Natjam,
    /// SRPT (no checkpointing).
    Srpt,
}

name_table!(PreemptMethod {
    Dsp => "dsp", "DSP";
    DspWoPp => "dsp-wo-pp", "DSPW/oPP";
    Amoeba => "amoeba", "Amoeba";
    Natjam => "natjam", "Natjam";
    Srpt => "srpt", "SRPT";
    None => "none", "none";
});

impl PreemptMethod {
    /// Construct the policy from Table II's parameters.
    pub fn build(self, params: &Params) -> Box<dyn PreemptPolicy + Send> {
        match self {
            PreemptMethod::None => Box::new(NoPreempt),
            PreemptMethod::Dsp => Box::new(DspPolicy::new(params.dsp_params(true))),
            PreemptMethod::DspWoPp => Box::new(DspPolicy::new(params.dsp_params(false))),
            PreemptMethod::Amoeba => Box::new(AmoebaPolicy),
            PreemptMethod::Natjam => Box::new(NatjamPolicy),
            PreemptMethod::Srpt => Box::new(SrptPolicy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for m in SchedMethod::ALL {
            assert_eq!(SchedMethod::from_name(m.name()), Some(m));
        }
        for m in PreemptMethod::ALL {
            assert_eq!(PreemptMethod::from_name(m.name()), Some(m));
        }
        for p in ClusterProfile::ALL {
            assert_eq!(ClusterProfile::from_name(p.name()), Some(p));
        }
        assert_eq!(SchedMethod::from_name("dsp"), Some(SchedMethod::Dsp));
    }

    #[test]
    fn retired_spellings_are_refused() {
        for name in ["tetris-dep", "tetris-wodep", "warp", ""] {
            assert_eq!(SchedMethod::from_name(name), None, "{name}");
        }
        assert_eq!(PreemptMethod::from_name("dsp-wopp"), None);
        assert_eq!(ClusterProfile::from_name("real"), None);
    }

    #[test]
    fn usage_lists_every_name() {
        assert_eq!(
            SchedMethod::usage(),
            "dsp-list|dsp|dsp-ilp|tetris|tetris-wo-dep|aalo|fifo|random"
        );
        assert_eq!(PreemptMethod::usage(), "dsp|dsp-wo-pp|amoeba|natjam|srpt|none");
        assert_eq!(ClusterProfile::usage(), "ec2|palmetto|blend");
    }

    #[test]
    fn labels_are_paper_spellings() {
        assert_eq!(SchedMethod::TetrisWoDep.label(), "TetrisW/oDep");
        assert_eq!(SchedMethod::TetrisSimDep.label(), "TetrisW/SimDep");
        assert_eq!(PreemptMethod::DspWoPp.label(), "DSPW/oPP");
        assert_eq!(ClusterProfile::Palmetto.label(), "real cluster");
    }
}
