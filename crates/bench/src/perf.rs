//! `dsp bench` — the pinned, seeded perf harness behind the committed
//! `BENCH_*.json` trajectory.
//!
//! Every bench runs a fixed workload from a fixed seed and reports the
//! **best-of-iters** wall time plus the logical effort counters the hot
//! paths expose (`unsafe` is forbidden workspace-wide, so there are no
//! allocator hooks — the counters are the honest substitute: Eq. 12
//! recomputes vs. skips, arena bytes, simplex pivots, B&B nodes, warm
//! hits). `--baseline` swaps in the retained reference implementations
//! (`compute_priorities_ref` each epoch, MILP with `warm_start: false`)
//! under the **same bench names**, so comparing a `--baseline` file
//! against an optimized file with `dsp bench --compare` measures exactly
//! the hot-path work of this trajectory:
//!
//! ```text
//! dsp bench --baseline --label baseline --out BENCH_baseline.json
//! dsp bench --label pr3 --out BENCH_pr3.json
//! dsp bench --compare BENCH_baseline.json BENCH_pr3.json
//! ```
//!
//! Compare exits 1 when any shared bench regressed by more than the
//! threshold (default 15%), making it usable as a CI tripwire; the
//! thin wrapper `scripts/bench_compare.sh` does exactly that.

use std::hint::black_box;
use std::time::Instant;

use dsp_core::cluster::{ec2, uniform, NodeId};
use dsp_core::dag::{Dag, Job, JobClass, JobId, TaskSpec};
use dsp_core::experiment::{run_experiment, ExperimentConfig};
use dsp_core::preempt::{compute_priorities_ref, PriorityEngine, PriorityWeights};
use dsp_core::sched::{DspIlpScheduler, DspListScheduler, IlpLimits, Scheduler};
use dsp_core::sim::{NodeView, TaskSnapshot, WorldCtx};
use dsp_core::trace::{generate_workload, TraceParams};
use dsp_core::units::{Dur, Mi, ResourceVec, Time};
use dsp_core::{ClusterProfile, Params, PreemptMethod, SchedMethod};
use dsp_service::json::Json;
use dsp_service::{AdmissionConfig, JobRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Version stamp written into every BENCH file; compare refuses files it
/// does not read.
pub const BENCH_FORMAT_VERSION: u64 = 1;

/// The pinned workload seed (the paper's year, like everywhere else in
/// the repo).
pub const BENCH_SEED: u64 = 2018;

/// How a harness invocation is shaped.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Reduced sizes for CI smoke runs.
    pub quick: bool,
    /// Run the retained reference implementations under the same names.
    pub baseline: bool,
    /// Free-form tag recorded in the output (`pr3`, `baseline`, ...).
    pub label: String,
    /// B&B frontier worker threads for the MILP bench (`0` = auto; results
    /// are bit-identical at every count — this only moves wall time).
    pub threads: usize,
    /// Also run the TCP service read-latency benches (`--service`): read
    /// p50/p99 under a concurrent drain, once against the snapshot cache
    /// and once with reads routed through the write queue.
    pub service: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            baseline: false,
            label: "dev".into(),
            threads: 0,
            service: false,
        }
    }
}

/// One bench's measurement: best wall time over `iters` runs plus its
/// logical effort counters.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub wall_ns: u64,
    pub iters: u64,
    pub counters: Vec<(String, u64)>,
}

fn time_best<F: FnMut()>(iters: u64, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

fn bench_workload(n: usize, task_scale: f64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    generate_workload(&mut rng, n, &TraceParams { task_scale, ..TraceParams::default() })
}

// ---------------------------------------------------------------------------
// Bench 1: the Eq. 12/13 epoch pass — reference rebuild vs. PriorityEngine.
// ---------------------------------------------------------------------------

/// Pre-built epoch sequence: the views for every epoch, materialized
/// outside the timed region so only the priority computation is measured.
struct EpochTrace {
    jobs: Vec<Job>,
    epochs: Vec<Vec<NodeView>>,
}

fn build_epoch_trace(n_jobs: usize, n_epochs: usize) -> EpochTrace {
    let jobs = bench_workload(n_jobs, 0.05);
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5bd1_e995);
    #[derive(Clone, Copy)]
    struct St {
        live: bool,
        rem: u64,
        wait: u64,
        allow: u64,
        running: bool,
    }
    let mut state: Vec<Vec<St>> = jobs
        .iter()
        .map(|j| {
            (0..j.num_tasks())
                .map(|_| St {
                    live: true,
                    rem: rng.gen_range(100..20_000),
                    wait: rng.gen_range(0..10_000),
                    allow: rng.gen_range(0..10_000),
                    running: rng.gen_range(0..2) == 0,
                })
                .collect()
        })
        .collect();
    const NODES: usize = 8;
    let mut epochs = Vec::with_capacity(n_epochs);
    for e in 0..n_epochs {
        // Every third epoch repeats its snapshots unchanged. A live engine
        // never produces one (clocks move every epoch) and the priority
        // engine no longer special-cases it; the trace keeps them so the
        // committed BENCH_* trajectory stays comparable.
        let quiet = e % 3 == 2;
        if !quiet && e > 0 {
            for job_state in state.iter_mut() {
                for t in job_state.iter_mut().filter(|t| t.live) {
                    match rng.gen_range(0..10) {
                        0 if e > n_epochs / 2 => t.live = false,
                        1..=4 => {
                            t.rem = rng.gen_range(100..20_000);
                            t.wait += rng.gen_range(0u64..500);
                            t.running = !t.running;
                        }
                        _ => {}
                    }
                }
            }
        }
        let mut views: Vec<NodeView> = (0..NODES)
            .map(|i| NodeView {
                node: NodeId(i as u32),
                running: vec![],
                waiting: vec![],
                slots: 4,
            })
            .collect();
        for (j, job) in jobs.iter().enumerate() {
            for v in 0..job.num_tasks() as u32 {
                let t = state[j][v as usize];
                if !t.live {
                    continue;
                }
                let s = TaskSnapshot {
                    id: job.task_id(v),
                    remaining_work: Mi::new(t.rem as f64),
                    remaining_time: Dur::from_millis(t.rem),
                    waiting: Dur::from_millis(t.wait),
                    deadline: job.deadline,
                    allowable_wait: Dur::from_millis(t.allow),
                    running: t.running,
                    ready: true,
                    demand: ResourceVec::cpu_mem(0.1, 0.1),
                    size: Mi::new(t.rem as f64),
                    preemptions: 0,
                };
                let view = &mut views[(j + v as usize) % NODES];
                if t.running {
                    view.running.push(s);
                } else {
                    view.waiting.push(s);
                }
            }
        }
        epochs.push(views);
    }
    EpochTrace { jobs, epochs }
}

fn bench_epoch_priority(opts: &BenchOptions) -> BenchResult {
    let (n_jobs, n_epochs, iters) = if opts.quick { (12, 30, 3) } else { (30, 90, 5) };
    let trace = build_epoch_trace(n_jobs, n_epochs);
    let w = PriorityWeights::default();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let wall_ns = if opts.baseline {
        time_best(iters, || {
            for (e, views) in trace.epochs.iter().enumerate() {
                let world = WorldCtx { jobs: &trace.jobs, now: Time::from_secs(e as u64) };
                black_box(compute_priorities_ref(views, &world, &w));
            }
        })
    } else {
        let mut last_stats = None;
        let mut arena = 0usize;
        let ns = time_best(iters, || {
            let mut engine = PriorityEngine::new();
            for (e, views) in trace.epochs.iter().enumerate() {
                let world = WorldCtx { jobs: &trace.jobs, now: Time::from_secs(e as u64) };
                engine.begin_epoch(views, &world, &w);
                black_box(engine.mean_gap());
            }
            last_stats = Some(engine.stats());
            arena = engine.arena_bytes();
        });
        let s = last_stats.expect("at least one iter ran");
        counters.push(("jobs_recomputed".into(), s.jobs_recomputed));
        counters.push(("jobs_skipped".into(), s.jobs_skipped));
        counters.push(("arena_bytes".into(), arena as u64));
        ns
    };
    counters.push(("epochs".into(), trace.epochs.len() as u64));
    let tasks: usize = trace.jobs.iter().map(|j| j.num_tasks()).sum();
    counters.push(("tasks".into(), tasks as u64));
    BenchResult { name: "epoch_priority_pass".into(), wall_ns, iters, counters }
}

// ---------------------------------------------------------------------------
// Bench 2: the DSP list scheduler (same path both modes — a drift canary).
// ---------------------------------------------------------------------------

fn bench_list_scheduler(opts: &BenchOptions) -> BenchResult {
    let (n_jobs, iters) = if opts.quick { (12, 3) } else { (30, 5) };
    let jobs = bench_workload(n_jobs, 0.05);
    let cluster = ec2();
    let wall_ns = time_best(iters, || {
        black_box(DspListScheduler::default().schedule(&jobs, &cluster, Time::ZERO));
    });
    let tasks: usize = jobs.iter().map(|j| j.num_tasks()).sum();
    BenchResult {
        name: "dsp_list_schedule".into(),
        wall_ns,
        iters,
        counters: vec![("tasks".into(), tasks as u64)],
    }
}

// ---------------------------------------------------------------------------
// Bench 3: exact MILP over the Fig. 5-style instance set — warm vs. cold.
// ---------------------------------------------------------------------------

fn milp_instances() -> Vec<Vec<Job>> {
    let chain = |n: usize| {
        let mut d = Dag::new(n);
        for v in 1..n as u32 {
            d.add_edge(v - 1, v).expect("chain edge");
        }
        d
    };
    let mut diamond = Dag::new(4);
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        diamond.add_edge(u, v).expect("diamond edge");
    }
    let mut fork = Dag::new(5);
    for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)] {
        fork.add_edge(u, v).expect("fork edge");
    }
    let job = |id: u32, sizes: &[f64], dag: Dag| {
        let tasks: Vec<TaskSpec> = sizes.iter().map(|&s| TaskSpec::sized(s)).collect();
        Job::new(JobId(id), JobClass::Small, Time::ZERO, Time::from_secs(3600), tasks, dag)
    };
    vec![
        vec![job(0, &[1000.0, 2000.0, 1500.0, 800.0], diamond)],
        vec![job(1, &[1200.0, 900.0, 1100.0], chain(3))],
        vec![job(2, &[700.0, 1300.0, 500.0, 900.0, 1100.0], fork)],
        vec![job(3, &[1000.0, 600.0], chain(2)), job(4, &[800.0, 800.0, 400.0], Dag::new(3))],
    ]
}

fn bench_milp(opts: &BenchOptions) -> BenchResult {
    let iters = if opts.quick { 2 } else { 5 };
    let cluster = uniform(2, 1000.0, 1);
    let sched = DspIlpScheduler {
        limits: IlpLimits {
            warm_start: !opts.baseline,
            threads: opts.threads,
            ..IlpLimits::default()
        },
    };
    let instances = milp_instances();
    let (mut pivots, mut nodes, mut warm_hits, mut rounds) = (0u64, 0u64, 0u64, 0u64);
    let mut workers = 0u64;
    let wall_ns = time_best(iters, || {
        pivots = 0;
        nodes = 0;
        warm_hits = 0;
        rounds = 0;
        for jobs in &instances {
            let (s, outcome, stats) =
                sched.schedule_with_stats_onto(jobs, &cluster, Time::ZERO, &[]);
            black_box((s, outcome));
            pivots += stats.pivots as u64;
            nodes += stats.nodes as u64;
            warm_hits += stats.warm_hits as u64;
            rounds += stats.rounds as u64;
            workers = workers.max(stats.per_worker.len() as u64);
        }
    });
    BenchResult {
        name: "exact_milp_fig5_set".into(),
        wall_ns,
        iters,
        counters: vec![
            ("pivots".into(), pivots),
            ("bb_nodes".into(), nodes),
            ("warm_hits".into(), warm_hits),
            ("bb_rounds".into(), rounds),
            ("workers".into(), workers),
            ("instances".into(), instances.len() as u64),
        ],
    }
}

// ---------------------------------------------------------------------------
// Bench 4: one end-to-end engine run (schedule + simulate + preempt).
// ---------------------------------------------------------------------------

fn bench_end_to_end(opts: &BenchOptions) -> BenchResult {
    // Best-of-8: the full run is only a few ms, and this bench is the
    // same code in both modes, so wall noise is all a compare would see.
    let (n_jobs, iters) = if opts.quick { (8, 3) } else { (20, 8) };
    let cfg = ExperimentConfig {
        cluster: ClusterProfile::Ec2,
        num_jobs: n_jobs,
        seed: BENCH_SEED,
        sched: SchedMethod::Dsp,
        preempt: PreemptMethod::Dsp,
        trace: TraceParams { task_scale: 0.03, ..TraceParams::default() },
        params: Params::default(),
    };
    let mut completed = 0u64;
    let mut preemptions = 0u64;
    let wall_ns = time_best(iters, || {
        let m = run_experiment(&cfg);
        completed = m.tasks_completed;
        preemptions = m.preemptions;
        black_box(m);
    });
    BenchResult {
        name: "end_to_end_engine_run".into(),
        wall_ns,
        iters,
        counters: vec![("tasks_completed".into(), completed), ("preemptions".into(), preemptions)],
    }
}

// ---------------------------------------------------------------------------
// Bench 5: online driver ingest — admission + periodic scheduling + sim.
// ---------------------------------------------------------------------------

fn bench_online_ingest(opts: &BenchOptions) -> BenchResult {
    let (n_jobs, iters) = if opts.quick { (10, 3) } else { (25, 8) };
    let jobs = bench_workload(n_jobs, 0.03);
    let requests: Vec<JobRequest> = jobs.iter().map(JobRequest::from_job).collect();
    let params = Params::default();
    let mut pending = 0u64;
    let mut finished = 0u64;
    let wall_ns = time_best(iters, || {
        let scheduler = dsp_service::build_scheduler("dsp").expect("known scheduler");
        let policy = dsp_service::build_policy("dsp", &params).expect("known policy");
        let mut driver = dsp_service::OnlineDriver::new(
            uniform(16, 1000.0, 2),
            params.engine_config(),
            params.sched_period,
            scheduler,
            policy,
            AdmissionConfig { max_pending_tasks: 1_000_000, check_feasibility: false },
        );
        driver.submit(requests.clone()).expect("admission disabled");
        driver.advance_to(Time::from_secs(4 * 3600));
        pending = driver.pending_tasks() as u64;
        finished = driver.metrics().jobs.len() as u64;
        black_box(driver.now());
    });
    BenchResult {
        name: "online_driver_ingest".into(),
        wall_ns,
        iters,
        counters: vec![("jobs_finished".into(), finished), ("tasks_pending".into(), pending)],
    }
}

// ---------------------------------------------------------------------------
// Bench 6 (--service): TCP read latency while a drain runs the simulation
// dry. Run twice in the same invocation — once served from the published
// snapshot cache, once with reads routed through the write-command queue
// (the serialize-everything baseline `--read-cache off` exposes) — so the
// p99 contrast is measured under identical load.
// ---------------------------------------------------------------------------

fn sorted_percentile(sorted: &[u64], pct: f64) -> u64 {
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

fn bench_service_read(opts: &BenchOptions, cached: bool) -> BenchResult {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let n_jobs = if opts.quick { 40 } else { 100 };
    let jobs = bench_workload(n_jobs, 0.02);
    let requests: Vec<JobRequest> = jobs.iter().map(JobRequest::from_job).collect();
    let params = Params::default();
    let driver = dsp_service::OnlineDriver::new(
        uniform(8, 1000.0, 2),
        params.engine_config(),
        params.sched_period,
        dsp_service::build_scheduler("dsp").expect("known scheduler"),
        dsp_service::build_policy("dsp", &params).expect("known policy"),
        AdmissionConfig { max_pending_tasks: 1_000_000, check_feasibility: false },
    );
    // Freeze the simulated clock: every bit of engine work happens inside
    // the drain command, which is exactly the window being measured.
    let handle = dsp_service::serve(
        driver,
        dsp_service::ServerConfig {
            addr: "127.0.0.1:0".into(),
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(5),
            read_cache: cached,
            // Pinned to the thread-per-connection frontend: this bench is
            // the PR 5 read-lane trajectory, and the committed numbers
            // stay comparable only if the accept path stays fixed. The
            // reactor frontend has its own C10K bench below.
            frontend: dsp_service::Frontend::Threads,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr.to_string();

    let mut submitter = dsp_service::Client::connect(&addr).expect("connect");
    for chunk in requests.chunks(10) {
        let resp = submitter.call(&dsp_service::wire::submit_request(chunk)).expect("submit");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    // A pool of pre-warmed reader connections. During the drain, one read
    // is dispatched every `interval` on the next idle connection — the
    // shape of a fleet of monitoring clients polling on a cadence. With
    // the snapshot cache each read returns from the latest boundary
    // publish and its connection is immediately reusable; with reads in
    // the write queue each read blocks until the drain completes, so the
    // pool saturates and every sample is a convoy wait.
    const POOL: usize = 16;
    let interval = std::time::Duration::from_millis(5);
    let metrics_req = Json::obj(vec![("op", Json::Str("metrics".into()))]);
    let mut pool: Vec<dsp_service::Client> = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let mut c = dsp_service::Client::connect(&addr).expect("connect");
        c.call(&metrics_req).expect("pre-drain read");
        pool.push(c);
    }

    let drained = Arc::new(AtomicBool::new(false));
    let drain_thread = {
        let drained = Arc::clone(&drained);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = dsp_service::Client::connect(&addr).expect("connect");
            let t0 = Instant::now();
            let resp =
                c.call(&Json::obj(vec![("op", Json::Str("drain".into()))])).expect("drain call");
            let wall = t0.elapsed();
            // ordering: SeqCst — standalone completion flag for the sampling
            // loop; measurement harness, not on any latency path.
            drained.store(true, Ordering::SeqCst);
            (resp, wall)
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(2));

    // Only reads answered while the drain was in flight (`draining: true`
    // in the response) count toward the percentiles — pre-drain reads are
    // uncontended in both modes and would bury the convoy in the tail.
    let samples: Arc<std::sync::Mutex<Vec<u64>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let (idle_tx, idle_rx) = std::sync::mpsc::channel::<dsp_service::Client>();
    let mut in_flight: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let cap = Instant::now() + std::time::Duration::from_secs(60);
    // ordering: SeqCst — matches the drain thread's store above; only gates
    // when sampling stops, no data is published through it.
    while !drained.load(Ordering::SeqCst) && Instant::now() < cap {
        while let Ok(c) = idle_rx.try_recv() {
            pool.push(c);
        }
        if let Some(mut c) = pool.pop() {
            let samples = Arc::clone(&samples);
            let idle_tx = idle_tx.clone();
            let req = metrics_req.clone();
            in_flight.push(std::thread::spawn(move || {
                let t0 = Instant::now();
                let Ok(resp) = c.call(&req) else { return };
                let ns = t0.elapsed().as_nanos() as u64;
                if resp.get("draining").and_then(Json::as_bool) == Some(true) {
                    samples.lock().expect("samples lock").push(ns);
                }
                let _ = idle_tx.send(c);
            }));
        }
        std::thread::sleep(interval);
    }
    for t in in_flight {
        let _ = t.join();
    }
    let (resp, drain_wall) = drain_thread.join().expect("drain thread");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    handle.wait();

    let mut latencies = std::mem::take(&mut *samples.lock().expect("samples lock"));
    if latencies.is_empty() {
        // Degenerate race (drain faster than one dispatch interval): record
        // a zero-width sample rather than panicking on an empty set.
        latencies.push(0);
    }
    latencies.sort_unstable();
    let p50 = sorted_percentile(&latencies, 50.0);
    let p99 = sorted_percentile(&latencies, 99.0);
    BenchResult {
        name: if cached { "service_read_cached" } else { "service_read_mutex" }.into(),
        // Headline number = the tail read: what a monitoring client can
        // actually see while the service is busy.
        wall_ns: p99,
        iters: latencies.len() as u64,
        counters: vec![
            ("read_p50_ns".into(), p50),
            ("read_p99_ns".into(), p99),
            ("reads".into(), latencies.len() as u64),
            ("drain_ms".into(), drain_wall.as_millis() as u64),
            ("jobs".into(), n_jobs as u64),
        ],
    }
}

// ---------------------------------------------------------------------------
// Bench 7 (--service, linux): the C10K leg. Thousands of idle connections
// held open against the reactor front end while a small active fleet polls
// the read lane — the scenario the epoll reactor exists for. The threads
// front end would need one OS thread per idle socket here; the reactor's
// thread count (recorded as a counter straight from /proc) stays flat.
// ---------------------------------------------------------------------------

/// OS threads in this process right now (the server runs in-process, so
/// this is front-end pool + driver/ticker + harness, and must not scale
/// with connection count).
#[cfg(target_os = "linux")]
fn process_thread_count() -> u64 {
    std::fs::read_dir("/proc/self/task").map(|d| d.count() as u64).unwrap_or(0)
}

#[cfg(target_os = "linux")]
fn bench_service_c10k(opts: &BenchOptions) -> BenchResult {
    let (n_idle, n_active, rounds) = if opts.quick { (500, 20, 10) } else { (5_000, 200, 25) };
    let params = Params::default();
    let driver = dsp_service::OnlineDriver::new(
        uniform(8, 1000.0, 2),
        params.engine_config(),
        params.sched_period,
        dsp_service::build_scheduler("dsp").expect("known scheduler"),
        dsp_service::build_policy("dsp", &params).expect("known policy"),
        AdmissionConfig { max_pending_tasks: 1_000_000, check_feasibility: false },
    );
    let handle = dsp_service::serve(
        driver,
        dsp_service::ServerConfig {
            addr: "127.0.0.1:0".into(),
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(5),
            frontend: dsp_service::Frontend::Reactor,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr.to_string();
    let threads_before = process_thread_count();

    // Seed a little real state so reads serialize a non-trivial snapshot.
    let jobs = bench_workload(20, 0.02);
    let requests: Vec<JobRequest> = jobs.iter().map(JobRequest::from_job).collect();
    let mut submitter = dsp_service::Client::connect(&addr).expect("connect");
    for chunk in requests.chunks(10) {
        let resp = submitter.call(&dsp_service::wire::submit_request(chunk)).expect("submit");
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    // The idle herd: established, then silent. `connect` returns on the
    // kernel handshake, so every 64th connection also round-trips a ping
    // — that paces the herd at the server's *accept* rate and proves the
    // reactor is actually adopting sockets, not letting them rot in the
    // backlog.
    let ping = Json::obj(vec![("op", Json::Str("ping".into()))]);
    let t0 = Instant::now();
    let mut idle: Vec<std::net::TcpStream> = Vec::with_capacity(n_idle);
    for i in 0..n_idle {
        if i % 64 == 63 {
            let mut probe = dsp_service::Client::connect(&addr).expect("probe connect");
            let resp = probe.call(&ping).expect("probe ping");
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        idle.push(std::net::TcpStream::connect(&addr).expect("idle connect"));
    }
    let herd_ms = t0.elapsed().as_millis() as u64;

    // The active fleet polls the read lane round-robin while the herd
    // sits on the same epoll instances.
    let metrics_req = Json::obj(vec![("op", Json::Str("metrics".into()))]);
    let mut fleet: Vec<dsp_service::Client> = Vec::with_capacity(n_active);
    for _ in 0..n_active {
        fleet.push(dsp_service::Client::connect(&addr).expect("active connect"));
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(n_active * rounds);
    for _ in 0..rounds {
        for c in &mut fleet {
            let t = Instant::now();
            let resp = c.call(&metrics_req).expect("active read");
            latencies.push(t.elapsed().as_nanos() as u64);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
    }
    let threads_loaded = process_thread_count();

    latencies.sort_unstable();
    let p50 = sorted_percentile(&latencies, 50.0);
    let p99 = sorted_percentile(&latencies, 99.0);

    let resp =
        submitter.call(&Json::obj(vec![("op", Json::Str("drain".into()))])).expect("drain call");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    drop(idle);
    drop(fleet);
    handle.wait();

    BenchResult {
        name: "service_c10k_reactor".into(),
        // Headline = tail read latency with the herd attached.
        wall_ns: p99,
        iters: latencies.len() as u64,
        counters: vec![
            ("idle_conns".into(), n_idle as u64),
            ("active_conns".into(), n_active as u64),
            ("reads".into(), latencies.len() as u64),
            ("read_p50_ns".into(), p50),
            ("read_p99_ns".into(), p99),
            ("herd_connect_ms".into(), herd_ms),
            ("threads_before_herd".into(), threads_before),
            ("threads_with_herd".into(), threads_loaded),
        ],
    }
}

// ---------------------------------------------------------------------------
// Bench 8 (--service): the submit-saturation leg — federation scaling.
// A fixed fleet of writer connections pushes pre-serialized submit batches
// as fast as the service admits them, at 1, 2, 4, and 8 shards over the
// same cluster and workload. The simulated clock is frozen so every byte
// of driver-owner work in the measured window is admission — exactly the
// single-threaded bottleneck `--shards` exists to parallelize. The drain
// at the end exercises the two-phase federated drain and the merged
// artifact is decoded and verified, so the speedup numbers can't come
// from dropping or corrupting work.
// ---------------------------------------------------------------------------

fn bench_service_submit(opts: &BenchOptions, shards: usize) -> BenchResult {
    use std::sync::Mutex;
    const WRITERS: usize = 8;
    let (n_lines, batch) = if opts.quick { (96, 5) } else { (400, 6) };
    let jobs = bench_workload(n_lines * batch, 0.02);
    let requests: Vec<JobRequest> = jobs.iter().map(JobRequest::from_job).collect();
    let lines: Vec<String> = requests
        .chunks(batch)
        .map(|chunk| dsp_service::wire::submit_request(chunk).to_string())
        .collect();
    let params = Params::default();
    let spec = dsp_service::FederationSpec {
        cluster: uniform(16, 1000.0, 2),
        engine: params.engine_config(),
        sched_period: params.sched_period,
        admission: AdmissionConfig { max_pending_tasks: 10_000_000, check_feasibility: false },
        // Cheap offline phase: the drain is integrity validation, not the
        // measured region, so it should not dominate the harness.
        scheduler: Box::new(|| dsp_service::build_scheduler("fifo").expect("known scheduler")),
        policy: Box::new(move || dsp_service::build_policy("none", &params).expect("known policy")),
    };
    let handle = dsp_service::serve_federated(
        spec,
        dsp_service::ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Frozen clock: owner threads do admission and nothing else
            // during the measured window.
            time_scale: 0.0,
            tick: std::time::Duration::from_millis(5),
            frontend: dsp_service::Frontend::Threads,
            shards,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr.to_string();

    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(lines.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let addr = &addr;
            let lines = &lines;
            let latencies = &latencies;
            scope.spawn(move || {
                let mut client = dsp_service::Client::connect(addr).expect("writer connect");
                let mut local = Vec::with_capacity(lines.len() / WRITERS + 1);
                for line in lines.iter().skip(w).step_by(WRITERS) {
                    let t = Instant::now();
                    let resp = client.call_raw(line).expect("submit");
                    local.push(t.elapsed().as_nanos() as u64);
                    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
                }
                latencies.lock().expect("latency lock").extend(local);
            });
        }
    });
    let wall = t0.elapsed();

    let mut submitter = dsp_service::Client::connect(&addr).expect("connect");
    let t_drain = Instant::now();
    let resp =
        submitter.call(&Json::obj(vec![("op", Json::Str("drain".into()))])).expect("drain call");
    let drain_ms = t_drain.elapsed().as_millis() as u64;
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    let snap = resp.get("snapshot").expect("snapshot attached");
    let decoded = dsp_service::codec::Snapshot::from_json(snap).expect("snapshot decodes");
    assert_eq!(decoded.jobs.len(), requests.len(), "every admitted job must drain");
    let report = decoded.verify();
    assert!(report.passes(), "merged drain must verify: {report:?}");
    handle.wait();

    let mut latencies = latencies.into_inner().expect("latency lock");
    latencies.sort_unstable();
    let p50 = sorted_percentile(&latencies, 50.0);
    let p99 = sorted_percentile(&latencies, 99.0);
    let per_sec = (lines.len() as f64 / wall.as_secs_f64()) as u64;
    BenchResult {
        name: format!("service_submit_shard{shards}"),
        // Headline = tail submit latency under saturation; the scaling
        // story is the submits_per_sec counter across the four legs.
        wall_ns: p99,
        iters: lines.len() as u64,
        counters: vec![
            ("submits_per_sec".into(), per_sec),
            ("submit_p50_ns".into(), p50),
            ("submit_p99_ns".into(), p99),
            ("submits".into(), lines.len() as u64),
            ("jobs".into(), requests.len() as u64),
            ("shards".into(), shards as u64),
            ("writers".into(), WRITERS as u64),
            ("drain_ms".into(), drain_ms),
        ],
    }
}

// ---------------------------------------------------------------------------
// Harness driver + JSON in/out + compare.
// ---------------------------------------------------------------------------

/// Run the full pinned matrix, narrating one line per bench on stderr.
pub fn run_all(opts: &BenchOptions) -> Vec<BenchResult> {
    let benches: Vec<fn(&BenchOptions) -> BenchResult> = vec![
        bench_epoch_priority,
        bench_list_scheduler,
        bench_milp,
        bench_end_to_end,
        bench_online_ingest,
    ];
    let narrate = |r: &BenchResult| {
        eprintln!(
            "  {:<24} {:>10.3} ms   {}",
            r.name,
            r.wall_ns as f64 / 1e6,
            r.counters.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
        );
    };
    let mut out = Vec::with_capacity(benches.len() + 2);
    for b in benches {
        let r = b(opts);
        narrate(&r);
        out.push(r);
    }
    if opts.service {
        // Same run, same workload, both modes — the p99 contrast is the
        // read lane's whole argument.
        for cached in [true, false] {
            let r = bench_service_read(opts, cached);
            narrate(&r);
            out.push(r);
        }
        // The C10K leg needs the epoll reactor, so it only exists on
        // linux; elsewhere `--service` covers the two read benches only.
        #[cfg(target_os = "linux")]
        {
            let r = bench_service_c10k(opts);
            narrate(&r);
            out.push(r);
        }
        // The federation scaling ladder: the same submit storm at every
        // shard count, so submits_per_sec across the four legs is an
        // apples-to-apples scaling curve.
        for shards in [1usize, 2, 4, 8] {
            let r = bench_service_submit(opts, shards);
            narrate(&r);
            out.push(r);
        }
    }
    out
}

/// Serialize a harness run as the versioned BENCH document.
pub fn to_json(results: &[BenchResult], opts: &BenchOptions) -> Json {
    Json::obj(vec![
        ("format_version", Json::U64(BENCH_FORMAT_VERSION)),
        ("label", Json::Str(opts.label.clone())),
        ("baseline", Json::Bool(opts.baseline)),
        ("quick", Json::Bool(opts.quick)),
        ("threads", Json::U64(opts.threads as u64)),
        ("seed", Json::U64(BENCH_SEED)),
        (
            "benches",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("wall_ns", Json::U64(r.wall_ns)),
                            ("iters", Json::U64(r.iters)),
                            (
                                "counters",
                                Json::Obj(
                                    r.counters
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parse_bench_file(text: &str) -> Result<Vec<BenchResult>, String> {
    let doc = dsp_service::json::parse(text).map_err(|e| format!("bad JSON: {e:?}"))?;
    match doc.get("format_version").and_then(Json::as_u64) {
        Some(BENCH_FORMAT_VERSION) => {}
        v => return Err(format!("unsupported format_version {v:?}")),
    }
    let benches = doc
        .get("benches")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing benches array".to_string())?;
    let mut out = Vec::with_capacity(benches.len());
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "bench missing name".to_string())?
            .to_string();
        let wall = b
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bench {name} missing wall_ns"))?;
        let mut counters = Vec::new();
        if let Some(Json::Obj(pairs)) = b.get("counters") {
            for (k, v) in pairs {
                if let Some(u) = v.as_u64() {
                    counters.push((k.clone(), u));
                }
            }
        }
        let iters = b.get("iters").and_then(Json::as_u64).unwrap_or(0);
        out.push(BenchResult { name, wall_ns: wall, iters, counters });
    }
    Ok(out)
}

/// The outcome of comparing two BENCH documents.
#[derive(Debug)]
pub struct CompareReport {
    /// Human-readable table lines.
    pub lines: Vec<String>,
    /// Benches whose wall time regressed past the threshold.
    pub regressions: Vec<String>,
}

/// Compare two BENCH documents (old first). `threshold_pct` is the
/// allowed wall-time growth before a bench counts as a regression.
///
/// Benches present on only one side are reported line-by-line (new
/// benches are expected as the suite grows), but if the two files share
/// *no* bench names at all there is nothing to compare and the whole
/// run is an error — a silently green compare of disjoint files is how
/// a renamed metric slips past CI. The error lists the missing keys on
/// each side so the fix is obvious.
pub fn compare(
    old_text: &str,
    new_text: &str,
    threshold_pct: f64,
) -> Result<CompareReport, String> {
    let old = parse_bench_file(old_text)?;
    let new = parse_bench_file(new_text)?;
    if !old.is_empty()
        && !new.is_empty()
        && !new.iter().any(|nb| old.iter().any(|ob| ob.name == nb.name))
    {
        let names = |side: &[BenchResult]| {
            side.iter().map(|b| b.name.as_str()).collect::<Vec<_>>().join(", ")
        };
        return Err(format!(
            "disjoint metric sets: no bench name appears in both files; \
             missing from old: [{}]; missing from new: [{}]",
            names(&new),
            names(&old)
        ));
    }
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    lines.push(format!(
        "{:<24} {:>12} {:>12} {:>8}   counters (old -> new)",
        "bench", "old ms", "new ms", "ratio"
    ));
    for nb in &new {
        let name = &nb.name;
        let Some(ob) = old.iter().find(|b| &b.name == name) else {
            lines.push(format!("{name:<24} {:>12} (new bench, no old measurement)", "-"));
            continue;
        };
        let ratio = nb.wall_ns as f64 / ob.wall_ns.max(1) as f64;
        let mut note = String::new();
        for (k, nv) in &nb.counters {
            match ob.counters.iter().find(|(ok, _)| ok == k) {
                Some((_, ov)) => {
                    if ov != nv {
                        note.push_str(&format!(" {k}:{ov}->{nv}"));
                    }
                }
                // A counter the old file never measured: say so loudly.
                // Silently skipping it is how a renamed counter (or a new
                // effort metric) escapes every future compare.
                None => note.push_str(&format!(" {k}:(absent)->{nv} [new counter]")),
            }
        }
        for (k, ov) in &ob.counters {
            if !nb.counters.iter().any(|(nk, _)| nk == k) {
                note.push_str(&format!(" {k}:{ov}->(absent) [dropped counter]"));
            }
        }
        lines.push(format!(
            "{name:<24} {:>12.3} {:>12.3} {ratio:>7.2}x  {note}",
            ob.wall_ns as f64 / 1e6,
            nb.wall_ns as f64 / 1e6,
        ));
        if ratio > 1.0 + threshold_pct / 100.0 {
            regressions.push(format!(
                "{name}: {:.3} ms -> {:.3} ms ({:+.1}%)",
                ob.wall_ns as f64 / 1e6,
                nb.wall_ns as f64 / 1e6,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    for ob in &old {
        if !new.iter().any(|b| b.name == ob.name) {
            lines.push(format!("{:<24} dropped from new file", ob.name));
        }
    }
    Ok(CompareReport { lines, regressions })
}

/// Rank a committed BENCH file name: the numeric part of its stem
/// (`BENCH_pr7.json` -> 7); non-numeric stems (`BENCH_baseline.json`)
/// rank lowest. Digits sort files, not lexicographic names, so `pr10`
/// outranks `pr9`.
fn bench_file_rank(name: &str) -> u64 {
    let digits: String = name.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().unwrap_or(0)
}

/// The newest committed `BENCH_*.json` in the current directory,
/// excluding `exclude` (the NEW side of the compare). Used when
/// `--compare` is given only one path.
fn newest_committed_bench(exclude: &str) -> Option<String> {
    let exclude = std::fs::canonicalize(exclude).ok();
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        if exclude.is_some() && std::fs::canonicalize(entry.path()).ok() == exclude {
            continue;
        }
        let rank = bench_file_rank(&name);
        if best.as_ref().is_none_or(|(r, _)| rank > *r) {
            best = Some((rank, name));
        }
    }
    best.map(|(_, n)| n)
}

fn bench_usage() -> ! {
    eprintln!(
        "usage: dsp bench [--quick] [--baseline] [--service] [--threads N] [--label NAME] [--out FILE]\n\
         \x20      dsp bench --compare [OLD.json] NEW.json [--threshold PCT]\n\
         \x20      (OLD defaults to the newest committed BENCH_*.json when omitted)"
    );
    std::process::exit(2)
}

/// Entry point behind `dsp bench`; returns the process exit code.
pub fn bench_main(argv: &[String]) -> i32 {
    let mut opts = BenchOptions::default();
    let mut out: Option<String> = None;
    let mut compare_files: Option<(String, Option<String>)> = None;
    let mut threshold = 15.0f64;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| bench_usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => opts.quick = true,
            "--baseline" => opts.baseline = true,
            "--service" => opts.service = true,
            "--threads" => opts.threads = next(&mut i).parse().unwrap_or_else(|_| bench_usage()),
            "--label" => opts.label = next(&mut i),
            "--out" => out = Some(next(&mut i)),
            "--compare" => {
                let a = next(&mut i);
                // The second path is optional: `--compare NEW.json` pits
                // the newest committed BENCH_*.json against NEW.
                let b = match argv.get(i + 1) {
                    Some(s) if !s.starts_with("--") => {
                        i += 1;
                        Some(s.clone())
                    }
                    _ => None,
                };
                compare_files = Some((a, b));
            }
            "--threshold" => threshold = next(&mut i).parse().unwrap_or_else(|_| bench_usage()),
            "--help" | "-h" => bench_usage(),
            _ => bench_usage(),
        }
        i += 1;
    }

    if let Some((first, second)) = compare_files {
        let (old_path, new_path) = match second {
            Some(second) => (first, second),
            None => match newest_committed_bench(&first) {
                Some(old) => {
                    eprintln!("dsp bench: comparing against {old} (newest committed BENCH file)");
                    (old, first)
                }
                None => {
                    eprintln!(
                        "dsp bench: no committed BENCH_*.json found to compare {first} against; \
                         pass OLD.json explicitly"
                    );
                    return 2;
                }
            },
        };
        let read = |p: &str| {
            std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("dsp bench: cannot read {p}: {e}");
                std::process::exit(2)
            })
        };
        let (old_text, new_text) = (read(&old_path), read(&new_path));
        match compare(&old_text, &new_text, threshold) {
            Ok(report) => {
                for line in &report.lines {
                    println!("{line}");
                }
                if report.regressions.is_empty() {
                    println!("no regressions past {threshold}%");
                    0
                } else {
                    println!("REGRESSIONS past {threshold}%:");
                    for r in &report.regressions {
                        println!("  {r}");
                    }
                    1
                }
            }
            Err(e) => {
                eprintln!("dsp bench: {e}");
                2
            }
        }
    } else {
        eprintln!(
            "dsp bench: label={} mode={}{}",
            opts.label,
            if opts.baseline { "baseline(ref paths)" } else { "optimized" },
            if opts.quick { " quick" } else { "" }
        );
        let results = run_all(&opts);
        let doc = to_json(&results, &opts);
        match &out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                    eprintln!("dsp bench: cannot write {path}: {e}");
                    return 2;
                }
                eprintln!("wrote {path}");
            }
            None => println!("{doc}"),
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(baseline: bool) -> BenchOptions {
        BenchOptions { quick: true, baseline, label: "test".into(), threads: 0, service: false }
    }

    #[test]
    fn epoch_bench_runs_both_modes() {
        let opt = bench_epoch_priority(&quick_opts(false));
        let base = bench_epoch_priority(&quick_opts(true));
        assert_eq!(opt.name, base.name);
        assert!(opt.wall_ns > 0 && base.wall_ns > 0);
        // The engine mode reports its skip/recompute split.
        assert!(opt.counters.iter().any(|(k, _)| k == "jobs_skipped"));
    }

    #[test]
    fn milp_bench_warm_reduces_pivots() {
        let warm = bench_milp(&quick_opts(false));
        let cold = bench_milp(&quick_opts(true));
        let get = |r: &BenchResult, k: &str| {
            r.counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v).expect("counter")
        };
        assert!(get(&warm, "warm_hits") > 0, "warm mode must warm-start");
        assert_eq!(get(&cold, "warm_hits"), 0, "baseline must stay cold");
        assert!(
            get(&warm, "pivots") < get(&cold, "pivots"),
            "warm start must reduce pivots: {} vs {}",
            get(&warm, "pivots"),
            get(&cold, "pivots")
        );
    }

    #[test]
    fn json_roundtrip_and_compare() {
        let opts = quick_opts(false);
        let results = vec![
            BenchResult {
                name: "a".into(),
                wall_ns: 1_000_000,
                iters: 3,
                counters: vec![("pivots".into(), 10)],
            },
            BenchResult { name: "b".into(), wall_ns: 2_000_000, iters: 3, counters: vec![] },
        ];
        let old = to_json(&results, &opts).to_string();
        let mut faster = results.clone();
        faster[0].wall_ns = 400_000; // a sped up
        faster[1].wall_ns = 2_600_000; // b regressed 30%
        let new = to_json(&faster, &opts).to_string();
        let report = compare(&old, &new, 15.0).expect("parses");
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].starts_with("b:"), "{:?}", report.regressions);
        let clean = compare(&old, &old, 15.0).expect("parses");
        assert!(clean.regressions.is_empty());
    }

    #[test]
    fn compare_flags_asymmetric_counter_keys() {
        let opts = quick_opts(false);
        let old = vec![BenchResult {
            name: "a".into(),
            wall_ns: 1_000_000,
            iters: 3,
            counters: vec![("pivots".into(), 10), ("legacy".into(), 4)],
        }];
        let new = vec![BenchResult {
            name: "a".into(),
            wall_ns: 1_000_000,
            iters: 3,
            counters: vec![("pivots".into(), 10), ("arena_bytes".into(), 512)],
        }];
        let report =
            compare(&to_json(&old, &opts).to_string(), &to_json(&new, &opts).to_string(), 15.0)
                .expect("parses");
        let row = report.lines.iter().find(|l| l.starts_with("a ")).expect("row for a");
        assert!(row.contains("arena_bytes:(absent)->512 [new counter]"), "{row}");
        assert!(row.contains("legacy:4->(absent) [dropped counter]"), "{row}");
        // Unchanged shared counters still stay silent.
        assert!(!row.contains("pivots"), "{row}");
    }

    #[test]
    fn compare_rejects_unknown_version() {
        let bad = "{\"format_version\": 999, \"benches\": []}";
        assert!(compare(bad, bad, 15.0).is_err());
    }

    #[test]
    fn compare_disjoint_sets_fail_loudly_listing_keys() {
        let opts = quick_opts(false);
        let only_a =
            vec![BenchResult { name: "alpha".into(), wall_ns: 1_000, iters: 1, counters: vec![] }];
        let only_b =
            vec![BenchResult { name: "beta".into(), wall_ns: 2_000, iters: 1, counters: vec![] }];
        let err = compare(
            &to_json(&only_a, &opts).to_string(),
            &to_json(&only_b, &opts).to_string(),
            15.0,
        )
        .expect_err("disjoint sets must not compare green");
        assert!(err.contains("disjoint"), "{err}");
        assert!(err.contains("alpha") && err.contains("beta"), "must list both keys: {err}");
    }

    #[test]
    fn compare_tolerates_partial_overlap() {
        // Suite growth (a new bench beside shared ones) stays a
        // non-error: only fully disjoint files are refused.
        let opts = quick_opts(false);
        let old =
            vec![BenchResult { name: "shared".into(), wall_ns: 1_000, iters: 1, counters: vec![] }];
        let mut new = old.clone();
        new.push(BenchResult { name: "grown".into(), wall_ns: 5_000, iters: 1, counters: vec![] });
        let report =
            compare(&to_json(&old, &opts).to_string(), &to_json(&new, &opts).to_string(), 15.0)
                .expect("partial overlap compares");
        assert!(report.regressions.is_empty());
        assert!(report.lines.iter().any(|l| l.contains("new bench")), "{:?}", report.lines);
    }

    #[test]
    fn bench_file_rank_orders_numerically() {
        assert!(bench_file_rank("BENCH_pr10.json") > bench_file_rank("BENCH_pr9.json"));
        assert_eq!(bench_file_rank("BENCH_baseline.json"), 0);
    }
}
