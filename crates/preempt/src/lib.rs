//! Online preemption policies (Section IV) and the Section V baselines.
//!
//! * [`DspPolicy`] — the paper's Algorithm 1: dependency-aware priorities
//!   (Eqs. 12–13), urgent tasks (`t^a ≤ ε`), the τ waiting-time override,
//!   the δ preempting-task window, conditions C1/C2, and the normalized-
//!   priority (PP) filter that suppresses preemptions whose gain can't pay
//!   for the context switch. With `DspParams::use_pp` off it is the
//!   paper's DSPW/oPP ablation.
//! * [`AmoebaPolicy`] \[20\] — evicts the task consuming the most resources
//!   (longest remaining time); checkpointed.
//! * [`NatjamPolicy`] \[21\] — production jobs preempt research jobs;
//!   eviction by most-resources, then max-deadline, then shortest-remaining;
//!   checkpointed.
//! * [`SrptPolicy`] \[22\] — priority is a linear combination of waiting time
//!   and remaining time (α = [`srpt::ALPHA`] = 0.5, β = [`srpt::BETA`] = 1);
//!   **no checkpoint mechanism**, so victims restart from scratch.
//!
//! None of the baselines checks dependencies when preempting — that is
//! precisely the gap the paper measures as "disorders" in Fig. 6(a)/7(a).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod amoeba;
pub mod dsp;
pub mod natjam;
pub mod priority;
#[cfg(test)]
mod priority_equiv;
pub mod srpt;

pub use amoeba::AmoebaPolicy;
pub use dsp::{DspParams, DspPolicy, EPSILON, TAU};
pub use natjam::NatjamPolicy;
pub use priority::{PriorityEngine, PriorityEngineStats, OMEGA1, OMEGA2, OMEGA3};
pub use srpt::SrptPolicy;
