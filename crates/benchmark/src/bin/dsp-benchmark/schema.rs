//! The names the benchmark prints: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names, units and bounds; a test keeps
//! the two equal.

/// The workloads, in the order a whole run takes them. Why each exists is
/// in `BENCHMARK.json` and the README's workload table.
pub const WORKLOADS: [&str; 5] =
    ["sim_paper", "ilp_exact", "matrix_grid", "svc_submit_sat", "svc_mixed_open"];

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every bound is the widest the driver accepts. Two sets of ten runs on
/// the reference box (README, "Steadiness") put the spreads of the timed
/// metrics at 4–17 % of their medians; a bound under three times that
/// would fail the same commit against itself on a noisy afternoon. Tail
/// percentiles repeat far worse (25–40 %) and are per-layer metrics
/// (`bench.op_tail_ms`, `service.server.*_tail_*`).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "finish_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric (no bound: it explains, it does not gate). Which
/// direction is better is in `BENCHMARK.json`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

pub const PER_LAYER: [PerLayer; 87] = [
    // trace: input generation (always set-up, never inside a timed region).
    layer("trace.generate_s", "s"),
    layer("trace.jobs", "count"),
    layer("trace.tasks", "count"),
    // sched: offline schedulers behind a timed wrapper.
    layer("sched.list_s", "s"),
    layer("sched.list_calls", "count"),
    layer("sched.list_us_per_task", "us"),
    layer("sched.baseline_s", "s"),
    layer("sched.ilp_s", "s"),
    layer("sched.ilp_exact", "count"),
    layer("sched.ilp_incumbent", "count"),
    layer("sched.ilp_fallback", "count"),
    // lp: solver effort (from the scheduler's stats and from direct calls).
    layer("lp.root_lp_s", "s"),
    layer("lp.milp_s", "s"),
    layer("lp.milp_inline_s", "s"),
    layer("lp.pivots", "count"),
    layer("lp.bb_nodes", "count"),
    layer("lp.bb_rounds", "count"),
    layer("lp.warm_hits", "count"),
    layer("lp.warm_hit_ratio", "ratio"),
    layer("lp.us_per_pivot", "us"),
    layer("lp.workers", "count"),
    // preempt: the online policy behind a timed wrapper.
    layer("preempt.begin_epoch_s", "s"),
    layer("preempt.decide_s", "s"),
    layer("preempt.epochs", "count"),
    layer("preempt.actions", "count"),
    layer("preempt.accept_ratio", "ratio"),
    layer("preempt.jobs_recomputed", "count"),
    layer("preempt.jobs_skipped", "count"),
    layer("preempt.skip_ratio", "ratio"),
    // simulator: the engine around the policy.
    layer("simulator.build_s", "s"),
    layer("simulator.run_self_s", "s"),
    layer("simulator.events", "count"),
    layer("simulator.ns_per_event", "ns"),
    layer("simulator.nopreempt_run_s", "s"),
    layer("simulator.history_s", "s"),
    // verify: the R1–R6 audit.
    layer("verify.schedule_s", "s"),
    layer("verify.execution_s", "s"),
    layer("verify.errors", "count"),
    // core: the glue.
    layer("core.periodic_schedules_s", "s"),
    layer("core.matrix_cell_us_p50", "us"),
    layer("core.matrix_cell_us_max", "us"),
    // service.json / wire / codec: the request's bytes.
    layer("service.json.parse_us_per_submit", "us"),
    layer("service.json.encode_us_per_reply", "us"),
    layer("service.json.bytes_per_submit", "B"),
    layer("service.wire.decode_us_per_submit", "us"),
    layer("service.wire.read_status_us", "us"),
    layer("service.wire.read_metrics_us", "us"),
    layer("service.wire.read_snapshot_us", "us"),
    layer("service.codec.frame_us_per_line", "us"),
    layer("service.codec.snapshot_encode_s", "s"),
    layer("service.codec.snapshot_decode_s", "s"),
    layer("service.codec.snapshot_bytes", "B"),
    // service.admission / state / driver: the write lane, in process.
    layer("service.admission.submit_us", "us"),
    layer("service.admission.precheck_us_per_job", "us"),
    layer("service.admission.refused_infeasible", "count"),
    layer("service.admission.refused_backpressure", "count"),
    layer("service.state.publish_us_empty", "us"),
    layer("service.state.publish_us_full", "us"),
    layer("service.state.publish_growth", "ratio"),
    layer("service.driver.advance_s", "s"),
    layer("service.driver.drain_s", "s"),
    layer("service.driver.sched_s", "s"),
    layer("service.driver.policy_s", "s"),
    layer("service.driver.periods", "count"),
    layer("service.driver.batches", "count"),
    // service.router / server: the front end, over the socket.
    layer("service.router.shard_skew", "ratio"),
    layer("service.server.boot_s", "s"),
    layer("service.server.drain_s", "s"),
    layer("service.server.conn_setup_us", "us"),
    layer("service.server.ping_rtt_us_p50", "us"),
    layer("service.server.ping_rtt_us_p99", "us"),
    layer("service.server.submit_p50_ms", "ms"),
    layer("service.server.submit_tail_ms", "ms"),
    layer("service.server.read_p50_us", "us"),
    layer("service.server.read_tail_us", "us"),
    layer("service.server.snapshot_read_ms_p50", "ms"),
    layer("service.server.submit_residual_us", "us"),
    layer("service.server.shed_busy", "count"),
    layer("service.server.shed_quiesced", "count"),
    // bench: the harness itself (validity, not performance).
    layer("bench.reps", "count"),
    layer("bench.spans", "count"),
    layer("bench.samples_submit", "count"),
    layer("bench.samples_read", "count"),
    layer("bench.op_tail_ms", "ms"),
    layer("bench.gen_lag_us_p99", "us"),
    layer("bench.trace_overhead_ratio", "ratio"),
    layer("bench.host_slowness", "ratio"),
];
