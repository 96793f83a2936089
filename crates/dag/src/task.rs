//! Static description of a single task.

use dsp_units::{Dur, Mi, Mips, ResourceVec};

/// The immutable specification of a task, known (or predicted) a priori —
/// the paper assumes task sizes, resource demands and dependencies are
/// predictable, as in Graphene \[6\] and Corral \[13\].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Task size `l_ij` in millions of instructions.
    pub size: Mi,
    /// Peak resource demand (CPU/mem from the trace distributions; disk and
    /// bandwidth fixed at 0.02 MB and 0.02 MB/s in Section V).
    pub demand: ResourceVec,
    /// Per-preemption recovery time `t^r_ij` — the context-switch cost paid
    /// when this task is resumed after a preemption.
    pub recovery: Dur,
    /// The size the *scheduler believes* the task has. The paper assumes
    /// execution times "can be predicted a priori" but imperfectly — the
    /// online preemption phase exists precisely "to adjust the schedule
    /// dynamically" when "the actual … task completion time may not be the
    /// same as the estimated". Offline schedulers and deadline propagation
    /// plan with this; the simulator executes [`TaskSpec::size`].
    pub est_size: Mi,
}

impl TaskSpec {
    /// A task with the given size and demand and the default 1 s recovery
    /// cost — the checkpoint-restart reload of a data-parallel task's
    /// state is not a thread context switch; seconds is the realistic
    /// scale \[29\], and it is what makes unnecessary preemption worth
    /// suppressing (the PP filter's whole purpose).
    pub fn new(size: Mi, demand: ResourceVec) -> Self {
        TaskSpec { size, demand, recovery: Dur::from_secs(1), est_size: size }
    }

    /// Set a (possibly wrong) a-priori size estimate.
    pub fn with_estimate(mut self, est: Mi) -> Self {
        self.est_size = if est.get() > 0.0 { est } else { self.size };
        self
    }

    /// Estimated execution time on a node of rate `g` — what offline
    /// planning uses.
    pub fn est_exec_time(&self, g: Mips) -> Dur {
        self.est_size.exec_time(g)
    }

    /// Convenience constructor for tests and examples: size in MI, unit
    /// CPU/mem demand.
    pub fn sized(mi: f64) -> Self {
        TaskSpec::new(Mi::new(mi), ResourceVec::cpu_mem(1.0, 1.0))
    }

    /// Execution time on a node of rate `g` (Eq. 2).
    pub fn exec_time(&self, g: Mips) -> Dur {
        self.size.exec_time(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_time_uses_eq2() {
        let t = TaskSpec::sized(500.0);
        assert_eq!(t.exec_time(Mips::new(1000.0)), Dur::from_millis(500));
    }

    #[test]
    fn estimate_defaults_to_actual_and_can_diverge() {
        let t = TaskSpec::sized(1000.0);
        assert_eq!(t.est_size, t.size);
        let t2 = TaskSpec::sized(1000.0).with_estimate(Mi::new(1500.0));
        assert_eq!(t2.est_exec_time(Mips::new(1000.0)), Dur::from_millis(1500));
        assert_eq!(t2.exec_time(Mips::new(1000.0)), Dur::from_secs(1));
        // A zero/invalid estimate falls back to the actual size.
        let t3 = TaskSpec::sized(1000.0).with_estimate(Mi::ZERO);
        assert_eq!(t3.est_size, t3.size);
    }

    #[test]
    fn default_recovery_is_nonzero() {
        // A zero recovery cost would make preemption free and hide the
        // entire point of the PP filter.
        assert!(TaskSpec::sized(1.0).recovery > Dur::ZERO);
    }
}
