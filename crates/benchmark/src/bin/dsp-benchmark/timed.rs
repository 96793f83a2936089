//! Benchmark-owned wrappers that time a scheduler or a preemption policy
//! from outside: each delegates to the wrapped implementation and records
//! one span per call. They are how the traced run sees `dsp_sched` and
//! `dsp_preempt` time inside a call it does not own (`periodic_schedules`,
//! `Engine::run`, `OnlineDriver::advance_to`).

use crate::span::Tracer;
use dsp_core::cluster::ClusterSpec;
use dsp_core::dag::Job;
use dsp_core::sched::Scheduler;
use dsp_core::sim::{NodeView, PreemptAction, PreemptPolicy, Schedule, WorldCtx};
use dsp_core::units::Time;
use std::sync::Arc;

/// Times every `schedule`/`schedule_onto` call under the span `span` and
/// counts the tasks it placed under `<span>.tasks`.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler + Send>,
    tracer: Arc<Tracer>,
    span: &'static str,
    tasks: &'static str,
}

impl TimedScheduler {
    /// Boxed because the service factories (`dsp_service::build_scheduler`)
    /// hand out boxes; one wrapper type serves them and the concrete
    /// schedulers alike.
    pub fn new(
        inner: Box<dyn Scheduler + Send>,
        tracer: &Arc<Tracer>,
        span: &'static str,
        tasks: &'static str,
    ) -> TimedScheduler {
        TimedScheduler { inner, tracer: Arc::clone(tracer), span, tasks }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, jobs: &[Job], cluster: &ClusterSpec, at: Time) -> Schedule {
        let s = self.tracer.scope(self.span, 0, || self.inner.schedule(jobs, cluster, at));
        self.tracer.count(self.tasks, s.len() as u64);
        s
    }

    fn schedule_onto(
        &mut self,
        jobs: &[Job],
        cluster: &ClusterSpec,
        at: Time,
        node_avail: &[Time],
    ) -> Schedule {
        let s = self
            .tracer
            .scope(self.span, 0, || self.inner.schedule_onto(jobs, cluster, at, node_avail));
        self.tracer.count(self.tasks, s.len() as u64);
        s
    }
}

/// Span and counter names a [`TimedPolicy`] records under.
#[derive(Clone, Copy)]
pub struct PolicySpans {
    pub begin_epoch: &'static str,
    pub decide: &'static str,
    pub actions: &'static str,
}

impl PolicySpans {
    /// A policy the benchmark hands to `Engine::run` itself.
    pub const ENGINE: PolicySpans = PolicySpans {
        begin_epoch: "preempt.begin_epoch",
        decide: "preempt.decide",
        actions: "preempt.actions",
    };
    /// A policy owned by an `OnlineDriver` in the in-process replay.
    pub const DRIVER: PolicySpans = PolicySpans {
        begin_epoch: "service.driver.policy_begin",
        decide: "service.driver.policy_decide",
        actions: "service.driver.policy_actions",
    };
}

/// Times `begin_epoch` and `decide` and counts the actions decided.
pub struct TimedPolicy<P> {
    pub inner: P,
    tracer: Arc<Tracer>,
    spans: PolicySpans,
}

impl<P: PreemptPolicy> TimedPolicy<P> {
    pub fn new(inner: P, tracer: &Arc<Tracer>, spans: PolicySpans) -> TimedPolicy<P> {
        TimedPolicy { inner, tracer: Arc::clone(tracer), spans }
    }
}

impl<P: PreemptPolicy> PreemptPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_epoch(&mut self, now: Time, views: &[NodeView], world: &WorldCtx<'_>) {
        self.tracer.scope(self.spans.begin_epoch, 0, || self.inner.begin_epoch(now, views, world));
    }

    fn decide(&mut self, now: Time, view: &NodeView, world: &WorldCtx<'_>) -> Vec<PreemptAction> {
        let actions =
            self.tracer.scope(self.spans.decide, 0, || self.inner.decide(now, view, world));
        self.tracer.count(self.spans.actions, actions.len() as u64);
        actions
    }

    fn checkpointing(&self) -> bool {
        self.inner.checkpointing()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
}
