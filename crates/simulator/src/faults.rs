//! Failure and straggler injection.
//!
//! The paper's conclusion defers fault tolerance — "we will consider fault
//! tolerance … so that the system can handle node failures/crashes or
//! straggler" — to future work. This module implements that extension so
//! the reproduction can be stress-tested beyond the paper's evaluation:
//!
//! * **Node crashes** ([`Fault::NodeDown`]): a node drops out at an
//!   instant, killing its running tasks. Checkpoints live on shared
//!   storage (the \[29\] model), so victims keep their progress but pay the
//!   usual recovery cost when they next run. A *transient* crash keeps the
//!   node's queue in place (the node will return); a *permanent* one
//!   migrates the queue and the victims round-robin over the surviving
//!   nodes.
//! * **Stragglers** ([`Fault::SlowDown`]): a node's effective rate is
//!   multiplied by a factor < 1 from an instant on. Running tasks are
//!   re-dispatched at the new speed without a context-switch charge (the
//!   machine slowed down; nothing was evicted).
//!
//! Faults are injected deterministically from a [`FaultPlan`], so
//! experiments with failures remain seeded and reproducible.

use dsp_cluster::NodeId;
use dsp_units::Time;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The node crashes at `at`; `up_at = None` means it never returns
    /// (queue and victims migrate), `Some(t)` brings it back at `t`.
    NodeDown {
        /// Crashing node.
        node: NodeId,
        /// Crash instant.
        at: Time,
        /// Recovery instant, or `None` for a permanent failure.
        up_at: Option<Time>,
    },
    /// The node's processing rate is multiplied by `factor` from `at` on
    /// (values < 1 model stragglers; 1.0 restores full speed).
    SlowDown {
        /// Straggling node.
        node: NodeId,
        /// Onset instant.
        at: Time,
        /// Rate multiplier (clamped to (0, 1] by the engine; a zero rate
        /// would be a crash, use [`Fault::NodeDown`] for that).
        factor: f64,
    },
}

impl Fault {
    /// The instant the fault first fires.
    pub fn at(&self) -> Time {
        match self {
            Fault::NodeDown { at, .. } | Fault::SlowDown { at, .. } => *at,
        }
    }

    /// The node the fault hits.
    pub fn node(&self) -> NodeId {
        match self {
            Fault::NodeDown { node, .. } | Fault::SlowDown { node, .. } => *node,
        }
    }
}

/// A deterministic fault schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in any order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a transient crash: `node` is down during `[at, up_at)`.
    pub fn crash(mut self, node: NodeId, at: Time, up_at: Time) -> Self {
        self.faults.push(Fault::NodeDown { node, at, up_at: Some(up_at) });
        self
    }

    /// Add a permanent crash at `at`.
    pub fn kill(mut self, node: NodeId, at: Time) -> Self {
        self.faults.push(Fault::NodeDown { node, at, up_at: None });
        self
    }

    /// Add a straggler: `node` runs at `factor`× speed from `at` on.
    pub fn straggle(mut self, node: NodeId, at: Time, factor: f64) -> Self {
        self.faults.push(Fault::SlowDown { node, at, factor });
        self
    }

    /// True when the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_faults() {
        let p = FaultPlan::none()
            .crash(NodeId(1), Time::from_secs(10), Time::from_secs(20))
            .kill(NodeId(2), Time::from_secs(30))
            .straggle(NodeId(0), Time::from_secs(5), 0.5);
        assert_eq!(p.faults.len(), 3);
        assert_eq!(p.faults[0].node(), NodeId(1));
        assert_eq!(p.faults[2].at(), Time::from_secs(5));
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
