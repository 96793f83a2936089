//! The layers, driven from outside through their public functions, each
//! call inside a span. `generate` and `pipeline` serve both the untraced
//! and the traced run: with the tracer off a span is one predictable
//! branch and the timed wrappers only delegate. The `replay_*` legs are the
//! direct-call measurements that run only with `--trace 1`.

use crate::harness::{Metric, Metrics, Rep};
use crate::schema;
use crate::span::{self, Tracer};
use crate::stats::{self, Summary};
use crate::timed::{PolicySpans, TimedPolicy, TimedScheduler};
use crate::workloads::svc::{reply_ok, requests, submit_lines, LineClient, MixedOpen, Service};
use dsp_core::cluster::ClusterSpec;
use dsp_core::dag::{Job, JobId};
use dsp_core::experiment::periodic_schedules;
use dsp_core::lp::{solve_lp, solve_milp, Cmp, MilpOptions, Problem, Sense, VarId};
use dsp_core::metrics::RunMetrics;
use dsp_core::preempt::DspPolicy;
use dsp_core::sched::dsp_ilp::IlpOutcome;
use dsp_core::sched::{DspIlpScheduler, DspListScheduler, Scheduler, TetrisScheduler};
use dsp_core::sim::{Engine, NoPreempt, PreemptPolicy, Schedule};
use dsp_core::trace::{generate_workload, TraceParams};
use dsp_core::units::Time;
use dsp_core::verify::{check_execution, check_schedule, Report, Severity, VerifyOptions};
use dsp_core::Params;
use dsp_service::admission::check_feasible;
use dsp_service::codec::FrameBuffer;
use dsp_service::json::{self, Json};
use dsp_service::wire::{self, handle_read, parse_request, ReadRequest, Request};
use dsp_service::{AdmissionConfig, OnlineDriver, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// `generate_workload` from a seed, timed as the `trace` layer. Generation
/// is never inside a timed region: it is set-up.
pub fn generate(tracer: &Tracer, seed: u64, jobs: usize, trace: &TraceParams) -> Vec<Job> {
    let out = tracer.scope("trace.generate", 0, || {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_workload(&mut rng, jobs, trace)
    });
    tracer.count("trace.jobs", out.len() as u64);
    tracer.count("trace.tasks", out.iter().map(|j| j.num_tasks() as u64).sum());
    out
}

/// What one pass of the batch pipeline produced.
pub struct PipelineRun {
    pub metrics: RunMetrics,
    /// The R1–R6 audit.
    pub report: Report,
    /// Host seconds of `history` + `check_schedule` + `check_execution`.
    pub audit_s: f64,
}

/// The offline + online pipeline of `run_experiment`, from its public
/// pieces: `periodic_schedules` (DSP list scheduler) → `Engine::new` /
/// `add_batch` → `run` (DSP policy, PP on) → `history` → R1–R6.
pub fn pipeline(
    tracer: &Arc<Tracer>,
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
) -> PipelineRun {
    tracer.scope("rep", 0, || {
        let (mut engine, schedule) = build(tracer, jobs, cluster, params);
        let mut policy =
            TimedPolicy::new(DspPolicy::new(params.dsp_params(true)), tracer, PolicySpans::ENGINE);
        let metrics = tracer.scope("simulator.run", 0, || engine.run(&mut policy));
        let stats = policy.inner.priority_stats();
        tracer.count("preempt.epochs", stats.epochs);
        tracer.count("preempt.jobs_recomputed", stats.jobs_recomputed);
        tracer.count("preempt.jobs_skipped", stats.jobs_skipped);
        tracer.count("preempt.preemptions", metrics.preemptions);
        tracer.count("preempt.attempts", metrics.preemption_attempts());
        tracer.count("simulator.events", engine.events_processed());
        let t = Instant::now();
        let history = tracer.scope("simulator.history", 0, || engine.history());
        let mut report = tracer.scope("verify.schedule", 0, || {
            check_schedule(&schedule, jobs, cluster, &VerifyOptions::default())
        });
        report.merge(
            tracer.scope("verify.execution", 0, || check_execution(&history, Some(&metrics))),
        );
        count_errors(tracer, &report);
        PipelineRun { metrics, report, audit_s: t.elapsed().as_secs_f64() }
    })
}

/// Add a report's error-severity findings to `verify.errors`.
pub fn count_errors(tracer: &Tracer, report: &Report) {
    let errors = report.iter().filter(|d| d.severity == Severity::Error).count();
    tracer.count("verify.errors", errors as u64);
}

/// `periodic_schedules` with the DSP list scheduler, then an engine loaded
/// with every batch. Returns the merged plan beside it.
fn build(
    tracer: &Arc<Tracer>,
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
) -> (Engine, Schedule) {
    let batches = tracer.scope("core.periodic_schedules", 0, || {
        let list = Box::new(DspListScheduler::default());
        let mut scheduler = TimedScheduler::new(list, tracer, "sched.list", "sched.list.tasks");
        periodic_schedules(jobs, cluster, params.sched_period, &mut scheduler)
    });
    tracer.scope("simulator.build", 0, || {
        let mut engine = Engine::new(jobs.to_vec(), cluster.clone(), params.engine_config());
        let mut schedule = Schedule::default();
        for (at, batch) in batches {
            schedule.assignments.extend(batch.assignments.iter().copied());
            engine.add_batch(at, batch);
        }
        (engine, schedule)
    })
}

/// One batch through the exact MILP scheduler, timed as `sched.ilp`, with
/// the solver's effort counters recorded beside the span.
pub fn ilp_solve(
    tracer: &Tracer,
    scheduler: &DspIlpScheduler,
    jobs: &[Job],
    cluster: &ClusterSpec,
    req: u64,
) -> (Schedule, IlpOutcome) {
    let (schedule, outcome, stats) = tracer.scope("sched.ilp", req, || {
        scheduler.schedule_with_stats_onto(jobs, cluster, Time::ZERO, &[])
    });
    tracer.count(
        match outcome {
            IlpOutcome::Exact => "sched.ilp_exact",
            IlpOutcome::Incumbent => "sched.ilp_incumbent",
            IlpOutcome::Fallback => "sched.ilp_fallback",
        },
        1,
    );
    tracer.count("lp.pivots", stats.pivots as u64);
    tracer.count("lp.bb_nodes", stats.nodes as u64);
    tracer.count("lp.bb_rounds", stats.rounds as u64);
    tracer.count("lp.warm_hits", stats.warm_hits as u64);
    tracer.count_max("lp.workers", stats.per_worker.len() as u64);
    (schedule, outcome)
}

// ---------------------------------------------------------------- replay legs
//
// Direct calls into single layers over a workload's own inputs. They run
// only in the traced run; every leg records spans and counters, and
// `derive` turns those into the per-layer metrics.

/// Counter of replay-leg calls that went wrong (a solver error, a refused
/// replayed submit, a snapshot that does not round-trip, a dead socket);
/// any makes the traced run fail.
pub const REPLAY_ERRORS: &str = "bench.replay_errors";

/// Jobs a replay leg uses: a prefix of the workload's, so that the traced
/// run stays within its time limit whatever the workload's size.
pub fn sample(jobs: &[Job], max: usize) -> &[Job] {
    &jobs[..jobs.len().min(max)]
}

/// `simulator.nopreempt_run` (the same jobs and plan under `NoPreempt`:
/// what the engine costs when the epoch pass is bypassed) and
/// `sched.baseline` (Tetris with simple dependency handling on the same
/// batch the list scheduler gets).
pub fn replay_sim_extras(
    tracer: &Arc<Tracer>,
    jobs: &[Job],
    cluster: &ClusterSpec,
    params: &Params,
) {
    let off = Arc::new(Tracer::new(false));
    let (mut engine, _) = build(&off, jobs, cluster, params);
    tracer.scope("simulator.nopreempt_run", 0, || engine.run(&mut NoPreempt));
    let batch = sample(jobs, 30);
    let mut tetris = TimedScheduler::new(
        Box::new(TetrisScheduler::with_simple_dep()),
        tracer,
        "sched.baseline",
        "sched.baseline.tasks",
    );
    tetris.schedule(batch, cluster, Time::ZERO);
}

/// A disjunctive-makespan MILP shaped like the Section III model
/// (`dsp_sched::dsp_ilp` builds the same rows): `n` tasks in a chain-free
/// batch on `k` single-slot nodes, assignment binaries, big-M ordering.
fn disjunctive_problem(rng: &mut StdRng, n: usize, k: usize) -> Problem {
    let exec: Vec<f64> = (0..n).map(|_| rng.gen_range(0.4..2.0)).collect();
    let big_m = 2.0 * exec.iter().sum::<f64>();
    let mut p = Problem::new(Sense::Min);
    let makespan = p.add_var("L", 0.0, f64::INFINITY, 1.0);
    let start: Vec<VarId> =
        (0..n).map(|t| p.add_var(format!("s{t}"), 0.0, f64::INFINITY, 0.0)).collect();
    let on: Vec<Vec<VarId>> =
        (0..n).map(|t| (0..k).map(|s| p.add_bin_var(format!("x{t}_{s}"), 0.0)).collect()).collect();
    for t in 0..n {
        p.add_constraint(format!("a{t}"), on[t].iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
        p.add_constraint(
            format!("m{t}"),
            vec![(makespan, -1.0), (start[t], 1.0)],
            Cmp::Le,
            -exec[t],
        );
    }
    for u in 0..n {
        for v in u + 1..n {
            let before = p.add_bin_var(format!("y{u}_{v}"), 0.0);
            for (s, (&on_u, &on_v)) in on[u].iter().zip(&on[v]).enumerate() {
                let both = [(on_u, big_m), (on_v, big_m)];
                let mut row = vec![(start[u], 1.0), (start[v], -1.0), (before, big_m)];
                row.extend(both);
                p.add_constraint(format!("d{u}_{v}_{s}"), row, Cmp::Le, 3.0 * big_m - exec[u]);
                let mut row = vec![(start[v], 1.0), (start[u], -1.0), (before, -big_m)];
                row.extend(both);
                p.add_constraint(format!("e{u}_{v}_{s}"), row, Cmp::Le, 2.0 * big_m - exec[v]);
            }
        }
    }
    p
}

/// The `lp` crate called directly: root relaxation (`solve_lp`) and
/// branch-and-bound (`solve_milp`) on a small seeded set of problems.
pub fn replay_lp(tracer: &Tracer, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..12u64 {
        let p = disjunctive_problem(&mut rng, 3 + (i % 3) as usize, 2);
        let root = tracer.scope("lp.root_lp", i, || solve_lp(&p));
        let milp = tracer.scope("lp.milp", i, || solve_milp(&p, MilpOptions::default()));
        let inline = MilpOptions { threads: 1, ..MilpOptions::default() };
        let _ = tracer.scope("lp.milp_inline", i, || solve_milp(&p, inline));
        if let (Ok(_), Ok(milp)) = (root, milp) {
            tracer.count("lp.pivots", milp.pivots as u64);
            tracer.count("lp.bb_nodes", milp.nodes as u64);
            tracer.count("lp.bb_rounds", milp.rounds as u64);
            tracer.count("lp.warm_hits", milp.warm_hits as u64);
            tracer.count_max("lp.workers", milp.per_worker.len() as u64);
        } else {
            tracer.count(REPLAY_ERRORS, 1);
        }
    }
}

/// The service's layers called in process, no socket: JSON parse, wire
/// decode, frame codec, admission, state publish, the driver's advance and
/// drain (scheduler and policy inside timed wrappers), the read handlers,
/// and the snapshot codec — on the workload's own submit lines.
pub fn replay_service(
    tracer: &Arc<Tracer>,
    jobs: &[Job],
    params: &Params,
    svc: &Service,
    per_line: usize,
) {
    let cluster = dsp_core::cluster::ec2();
    let lines = submit_lines(&requests(jobs, params), per_line);
    tracer.count("service.json.submit_bytes", lines.iter().map(|l| l.len() as u64).sum());
    tracer.count("service.json.submits", lines.len() as u64);

    let mut frames = FrameBuffer::new(0);
    let mut decoded = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let i = i as u64;
        let _ = tracer.scope("service.json.parse", i, || json::parse(line.trim_end()));
        let _ = tracer.scope("service.codec.frame", i, || {
            frames.push(line.as_bytes());
            frames.next_frame()
        });
        if let Ok(Request::Write(w)) =
            tracer.scope("service.wire.decode", i, || parse_request(line))
        {
            decoded.push(w);
        }
    }
    tracer.scope("service.admission.precheck", 0, || {
        let _ = check_feasible(jobs, &cluster, Time::ZERO + params.sched_period);
    });
    tracer.count("service.admission.precheck_jobs", jobs.len() as u64);

    let scheduler =
        dsp_service::build_scheduler(svc.scheduler).expect("a scheduler name of the CLI");
    let policy: Box<dyn PreemptPolicy + Send> = match svc.policy {
        "none" => Box::new(TimedPolicy::new(NoPreempt, tracer, PolicySpans::DRIVER)),
        _ => Box::new(TimedPolicy::new(
            DspPolicy::new(params.dsp_params(true)),
            tracer,
            PolicySpans::DRIVER,
        )),
    };
    let mut driver = OnlineDriver::new(
        cluster,
        params.engine_config(),
        params.sched_period,
        Box::new(TimedScheduler::new(
            scheduler,
            tracer,
            "service.driver.sched",
            "service.driver.sched.tasks",
        )),
        policy,
        AdmissionConfig { max_pending_tasks: svc.admission_cap, check_feasibility: true },
    );
    let publish = |driver: &OnlineDriver, span: &'static str| {
        for i in 0..5 {
            tracer.scope(span, i, || driver.state_snapshot(i, Arc::new(driver.snapshot())));
        }
    };
    publish(&driver, "service.state.publish_empty");
    for (i, request) in decoded.into_iter().enumerate() {
        let response = tracer.scope("service.admission.submit", i as u64, || {
            wire::handle_write(&mut driver, request, &mut |_| {})
        });
        tracer.scope("service.json.encode", i as u64, || response.body.to_string());
        if response.body.get("ok").and_then(Json::as_bool) != Some(true) {
            tracer.count(REPLAY_ERRORS, 1);
        }
        if svc.time_scale > 0.0 {
            // What the server's ticker does between two submits of the
            // open-loop stream.
            let now = (i + 1) as f64 / MixedOpen::SUBMIT_HZ * svc.time_scale;
            tracer.scope("service.driver.advance", i as u64, || {
                driver.advance_to(Time::from_secs_f64(now))
            });
        }
    }
    publish(&driver, "service.state.publish_full");

    let state = driver.state_snapshot(1, Arc::new(driver.snapshot()));
    let last = state.jobs_known().saturating_sub(1) as u32;
    for i in 0..50u64 {
        tracer.scope("service.wire.read_status", i, || {
            handle_read(&state, ReadRequest::Status(JobId(last))).body.to_string()
        });
        tracer.scope("service.wire.read_metrics", i, || {
            handle_read(&state, ReadRequest::Metrics).body.to_string()
        });
    }
    for i in 0..3 {
        tracer.scope("service.wire.read_snapshot", i, || {
            handle_read(&state, ReadRequest::Snapshot).body.to_string()
        });
    }

    let snapshot = tracer.scope("service.driver.drain", 0, || driver.drain());
    tracer.count("service.driver.periods", driver.periods_elapsed());
    tracer.count("service.driver.batches", driver.batches_scheduled());
    let text = tracer.scope("service.codec.snapshot_encode", 0, || snapshot.to_json().to_string());
    tracer.count("service.codec.snapshot_bytes", text.len() as u64);
    let back = tracer.scope("service.codec.snapshot_decode", 0, || {
        json::parse(&text).ok().and_then(|v| Snapshot::from_json(&v).ok())
    });
    if back.is_none_or(|b| b.jobs.len() != snapshot.jobs.len()) {
        tracer.count(REPLAY_ERRORS, 1);
    }
}

/// The front end on an otherwise idle server: connection set-up, `ping`
/// round trips (the floor under every request), and — closed loop, one
/// connection — the workload's submit lines and a few `snapshot` reads.
pub fn replay_server(
    tracer: &Arc<Tracer>,
    jobs: &[Job],
    params: &Params,
    svc: &Service,
    submit: bool,
) {
    let handle = svc.boot(*params);
    let addr = handle.addr.to_string();
    let ping = "{\"op\":\"ping\"}\n";
    let fail = |what: &str| {
        tracer.count(REPLAY_ERRORS, 1);
        eprintln!("dsp-benchmark: idle-server leg: {what}");
    };
    for i in 0..8 {
        let ok = tracer.scope("service.server.conn_setup", i, || {
            LineClient::connect(&addr).and_then(|mut c| c.call(ping).map(drop))
        });
        if let Err(e) = ok {
            fail(&format!("connect: {e}"));
        }
    }
    if let Ok(mut client) = LineClient::connect(&addr) {
        for i in 0..1000 {
            if tracer.scope("service.server.ping", i, || client.call(ping).map(drop)).is_err() {
                fail("ping");
                break;
            }
        }
        // Only for a batch workload: a service workload's own repetition
        // already timed its submits (and an unpaced burst would overflow a
        // live-clock service's admission queue).
        let lines = if submit { submit_lines(&requests(jobs, params), 1) } else { Vec::new() };
        for (i, line) in lines.iter().enumerate() {
            let reply = tracer
                .scope("service.server.submit", i as u64, || client.call(line).map(str::to_owned));
            if reply_ok(tracer, reply.as_deref()).is_err() {
                fail("submit refused");
                break;
            }
        }
        for i in 0..3 {
            let line = "{\"op\":\"snapshot\"}\n";
            if tracer
                .scope("service.server.snapshot_read", i, || client.call(line).map(drop))
                .is_err()
            {
                fail("snapshot read");
            }
        }
        if client.call("{\"op\":\"drain\"}\n").is_err() {
            fail("drain");
        }
    } else {
        fail("connect");
    }
    handle.wait();
}

/// What the replay legs run over.
pub struct Replay<'a> {
    /// Jobs for the batch layers …
    pub batch: &'a [Job],
    /// … through `pipeline` too, unless the workload's own traced
    /// repetition already was one.
    pub run_pipeline: bool,
    /// Jobs that become submit lines for the service's layers.
    pub svc_jobs: &'a [Job],
    pub svc: &'a Service,
    pub jobs_per_line: usize,
    /// Whether the idle-server leg times submits too (a service workload's
    /// own repetition already did).
    pub probe_submits: bool,
    pub params: &'a Params,
    pub seed: u64,
}

/// Every replay leg, in order.
pub fn replay_all(tracer: &Arc<Tracer>, r: &Replay<'_>) {
    let cluster = dsp_core::cluster::ec2();
    if r.run_pipeline {
        pipeline(tracer, r.batch, &cluster, r.params);
    }
    replay_sim_extras(tracer, r.batch, &cluster, r.params);
    let scheduler = DspIlpScheduler::default();
    for (i, job) in sample(r.batch, 8).iter().enumerate() {
        // Past `IlpLimits::default()` on this cluster: the fallback arm.
        ilp_solve(tracer, &scheduler, std::slice::from_ref(job), &cluster, i as u64);
    }
    replay_lp(tracer, r.seed);
    replay_service(tracer, r.svc_jobs, r.params, r.svc, r.jobs_per_line);
    replay_server(tracer, r.svc_jobs, r.params, r.svc, r.probe_submits);
}

/// An open-loop result is a latency result only while the generator kept
/// its schedule: when its p99 lag exceeds the shortest send interval, the
/// run measured an overloaded service (or client), and says so. `None`
/// for a workload without a paced generator.
pub fn overloaded(rep: &Rep) -> Option<String> {
    let lag = stats::sorted(rep.samples.get("gen_lag_us")?.clone());
    let p99 = stats::percentile(&lag, 99.0)?;
    let interval_us = 1e6 / MixedOpen::READ_HZ;
    Some(if p99 > interval_us {
        format!("overloaded: generator lag p99 {p99:.0} us exceeds the {interval_us:.0} us send interval")
    } else {
        format!("on schedule: generator lag p99 {p99:.0} us within the {interval_us:.0} us send interval")
    })
}

// ------------------------------------------------------------------- derive

/// Everything the traced run recorded, and the two repetitions it compares.
pub struct Traced<'a> {
    pub spans: &'a [span::Span],
    pub counts: &'a BTreeMap<&'static str, u64>,
    /// The repetition that ran with spans on, and the one before it
    /// without (same inputs).
    pub traced: &'a Rep,
    pub untraced: &'a Rep,
}

/// Per-layer metrics from the traced run's spans, counters and samples.
/// `*_s` are sums of self time (a span minus what its children cover),
/// `*_us`/`*_ms` are medians per call; a layer the run never entered
/// reports zero.
pub fn derive(t: &Traced<'_>, out: &mut Metrics) {
    let layers = span::layers(t.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let count = |name: &str| t.counts.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut put = |name: &'static str, value: f64, samples: u64| {
        let spec = schema::PER_LAYER.iter().find(|p| p.name == name);
        let unit = spec.unwrap_or_else(|| panic!("{name} is not in the schema")).unit;
        out.insert(name, Metric::single(value, unit, samples as usize));
    };

    // Σ self time of a span name, in seconds.
    let mut self_s = |metric: &'static str, span: &str| {
        let l = layer(span);
        put(metric, l.self_ns as f64 / 1e9, l.calls);
    };
    self_s("trace.generate_s", "trace.generate");
    self_s("sched.list_s", "sched.list");
    self_s("sched.baseline_s", "sched.baseline");
    self_s("sched.ilp_s", "sched.ilp");
    self_s("lp.root_lp_s", "lp.root_lp");
    self_s("lp.milp_s", "lp.milp");
    self_s("lp.milp_inline_s", "lp.milp_inline");
    self_s("preempt.begin_epoch_s", "preempt.begin_epoch");
    self_s("preempt.decide_s", "preempt.decide");
    self_s("simulator.build_s", "simulator.build");
    self_s("simulator.run_self_s", "simulator.run");
    self_s("simulator.nopreempt_run_s", "simulator.nopreempt_run");
    self_s("simulator.history_s", "simulator.history");
    self_s("verify.schedule_s", "verify.schedule");
    self_s("verify.execution_s", "verify.execution");
    self_s("core.periodic_schedules_s", "core.periodic_schedules");
    self_s("service.codec.snapshot_encode_s", "service.codec.snapshot_encode");
    self_s("service.codec.snapshot_decode_s", "service.codec.snapshot_decode");
    self_s("service.driver.advance_s", "service.driver.advance");
    self_s("service.driver.drain_s", "service.driver.drain");
    self_s("service.driver.sched_s", "service.driver.sched");
    self_s("service.server.boot_s", "svc.boot");
    self_s("service.server.drain_s", "svc.drain");

    // Median duration of a span name, in microseconds.
    let med_us = |span: &str| -> (f64, u64) {
        let d = span::durations_us(t.spans, span);
        (Summary::of(&d).map_or(0.0, |s| s.median), d.len() as u64)
    };
    let mut med = |metric: &'static str, span: &str| {
        let (us, n) = med_us(span);
        put(metric, us, n);
    };
    med("service.json.parse_us_per_submit", "service.json.parse");
    med("service.json.encode_us_per_reply", "service.json.encode");
    med("service.wire.decode_us_per_submit", "service.wire.decode");
    med("service.wire.read_status_us", "service.wire.read_status");
    med("service.wire.read_metrics_us", "service.wire.read_metrics");
    med("service.wire.read_snapshot_us", "service.wire.read_snapshot");
    med("service.codec.frame_us_per_line", "service.codec.frame");
    med("service.admission.submit_us", "service.admission.submit");
    med("service.state.publish_us_empty", "service.state.publish_empty");
    med("service.state.publish_us_full", "service.state.publish_full");
    med("service.server.conn_setup_us", "service.server.conn_setup");
    med("service.server.ping_rtt_us_p50", "service.server.ping");
    med("core.matrix_cell_us_p50", "core.matrix_cell");

    // Plain counts and what follows from them.
    let policy = layer("service.driver.policy_begin").self_ns
        + layer("service.driver.policy_decide").self_ns;
    put(
        "service.driver.policy_s",
        policy as f64 / 1e9,
        layer("service.driver.policy_decide").calls,
    );
    // Counters that are metrics under their own name.
    for name in [
        "trace.jobs",
        "trace.tasks",
        "sched.ilp_exact",
        "sched.ilp_incumbent",
        "sched.ilp_fallback",
        "lp.pivots",
        "lp.bb_nodes",
        "lp.bb_rounds",
        "lp.warm_hits",
        "lp.workers",
        "preempt.epochs",
        "preempt.actions",
        "preempt.jobs_recomputed",
        "preempt.jobs_skipped",
        "simulator.events",
        "verify.errors",
        "service.codec.snapshot_bytes",
        "service.admission.refused_infeasible",
        "service.admission.refused_backpressure",
        "service.driver.periods",
        "service.driver.batches",
        "service.server.shed_busy",
        "service.server.shed_quiesced",
    ] {
        put(name, count(name), 1);
    }
    put("sched.list_calls", layer("sched.list").calls as f64, 1);
    put(
        "sched.list_us_per_task",
        ratio(layer("sched.list").total_ns as f64 / 1e3, count("sched.list.tasks")),
        count("sched.list.tasks") as u64,
    );
    put("lp.warm_hit_ratio", ratio(count("lp.warm_hits"), count("lp.bb_nodes")), 1);
    let solver_ns = layer("sched.ilp").total_ns + layer("lp.milp").total_ns;
    put(
        "lp.us_per_pivot",
        ratio(solver_ns as f64 / 1e3, count("lp.pivots")),
        count("lp.pivots") as u64,
    );
    put("preempt.accept_ratio", ratio(count("preempt.preemptions"), count("preempt.attempts")), 1);
    put(
        "preempt.skip_ratio",
        ratio(
            count("preempt.jobs_skipped"),
            count("preempt.jobs_skipped") + count("preempt.jobs_recomputed"),
        ),
        1,
    );
    put(
        "simulator.ns_per_event",
        ratio(layer("simulator.run").self_ns as f64, count("simulator.events")),
        count("simulator.events") as u64,
    );
    let cells = stats::sorted(span::durations_us(t.spans, "core.matrix_cell"));
    put("core.matrix_cell_us_max", cells.last().copied().unwrap_or(0.0), cells.len() as u64);
    put(
        "service.json.bytes_per_submit",
        ratio(count("service.json.submit_bytes"), count("service.json.submits")),
        count("service.json.submits") as u64,
    );
    put(
        "service.admission.precheck_us_per_job",
        ratio(
            layer("service.admission.precheck").total_ns as f64 / 1e3,
            count("service.admission.precheck_jobs"),
        ),
        count("service.admission.precheck_jobs") as u64,
    );
    let (empty, _) = med_us("service.state.publish_empty");
    let (full, _) = med_us("service.state.publish_full");
    put("service.state.publish_growth", ratio(full, empty), 1);
    put(
        "service.router.shard_skew",
        ratio(count("service.router.shard_max"), count("service.router.shard_min")),
        1,
    );
    let pings = stats::sorted(span::durations_us(t.spans, "service.server.ping"));
    put(
        "service.server.ping_rtt_us_p99",
        stats::tail(&pings).map_or(0.0, |(_, v)| v),
        pings.len() as u64,
    );

    // What the clients of the traced repetition saw, by request kind. A
    // batch workload has no clients; its submits are the idle-server ones.
    let samples =
        |name: &str| stats::sorted(t.traced.samples.get(name).cloned().unwrap_or_default());
    // A client-side sample set, or — for a batch workload — the idle-server
    // leg's spans of the same request.
    let samples_or_spans = |name: &str, span: &str| {
        let ms = samples(name);
        if !ms.is_empty() {
            return ms;
        }
        stats::sorted(span::durations_us(t.spans, span).iter().map(|us| us / 1e3).collect())
    };
    let submit_ms = samples_or_spans("submit_ms", "service.server.submit");
    let read_ms = samples("read_ms");
    let p50 = |v: &[f64]| stats::percentile(v, 50.0).unwrap_or(0.0);
    let tail = |v: &[f64]| stats::tail(v).map_or(0.0, |(_, value)| value);
    put("service.server.submit_p50_ms", p50(&submit_ms), submit_ms.len() as u64);
    put("service.server.submit_tail_ms", tail(&submit_ms), submit_ms.len() as u64);
    put("service.server.read_p50_us", p50(&read_ms) * 1e3, read_ms.len() as u64);
    put("service.server.read_tail_us", tail(&read_ms) * 1e3, read_ms.len() as u64);
    let snapshot_ms = samples_or_spans("snapshot_read_ms", "service.server.snapshot_read");
    put("service.server.snapshot_read_ms_p50", p50(&snapshot_ms), snapshot_ms.len() as u64);
    // The serial path of one submit, by subtraction: what is left after
    // the stages measured by direct calls is queue wait plus whatever no
    // leg explains. Publish runs before the reply is delivered; its cost
    // over a burst is taken as the mean of the empty and the full state.
    let explained = med_us("service.wire.decode").0
        + med_us("service.admission.submit").0
        + (empty + full) / 2.0
        + med_us("service.json.encode").0
        + med_us("service.server.ping").0;
    put(
        "service.server.submit_residual_us",
        p50(&submit_ms) * 1e3 - explained,
        submit_ms.len() as u64,
    );

    // The harness itself.
    let ops = stats::sorted(t.traced.op_ms.clone());
    put("bench.op_tail_ms", tail(&ops), ops.len() as u64);
    put("bench.samples_submit", submit_ms.len() as f64, 1);
    put("bench.samples_read", read_ms.len() as f64, 1);
    let lag = samples("gen_lag_us");
    put("bench.gen_lag_us_p99", stats::percentile(&lag, 99.0).unwrap_or(0.0), lag.len() as u64);
    let per_work = |r: &Rep| ratio(r.wall_s, r.work as f64);
    put("bench.trace_overhead_ratio", ratio(per_work(t.traced), per_work(t.untraced)), 1);
    put("bench.spans", t.spans.len() as f64, 1);
}
