//! The two service workloads, against `dsp_service::serve_federated`
//! running in this process on 127.0.0.1 (loopback: no network is
//! measured). The load generator is this process too, with at most
//! `min(nproc, 2)` client threads and connections.
//!
//! * `svc_submit_sat` — closed loop: writer connections push
//!   pre-serialized submit lines as fast as replies return into a 2-shard,
//!   frozen-clock, `fifo`/`none` service; then one `drain`. Frame decode →
//!   route → queue → admission → publish → reply do all the work; the
//!   engine does none until the drain.
//! * `svc_mixed_open` — open loop on a live clock (`dspd` defaults: ec2,
//!   `dsp`/`dsp`, one shard, 600 simulated seconds per second): one
//!   connection submits single jobs at 50/s, one reads at 250/s (90 %
//!   `status`, 10 % `metrics`), a third reads one `snapshot` per second.
//!   Latency counts from the instant a request was *due*, so a stall is
//!   charged to every request it delays.
//!
//! Work per repetition is a fixed count, never a fixed duration: the
//! service re-publishes its state after every mutation, so the cost of an
//! operation depends on how much has been admitted before it.

use crate::calibrate::Calibrator;
use crate::harness::{Rep, Workload};
use crate::layers::{self, Replay};
use crate::span::Tracer;
use crate::stats::Fnv;
use dsp_core::dag::Job;
use dsp_core::trace::TraceParams;
use dsp_core::Params;
use dsp_service::json::{self, Json};
use dsp_service::{
    wire, AdmissionConfig, FederationSpec, JobRequest, RoutePolicy, ServerConfig, ServerHandle,
    Snapshot,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client threads (and connections) the generator may use.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

/// A socket read that takes this long means the service hung; the run
/// fails instead of waiting out the driver's limit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Minimal line client: write a pre-serialized line, read one reply line.
/// (Not `dsp_service::Client`: that parses every reply, which would put
/// client-side JSON work inside each measured round trip.)
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl LineClient {
    pub fn connect(addr: &str) -> std::io::Result<LineClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(LineClient { writer, reader, reply: Vec::new() })
    }

    /// Send `line` (newline-terminated) and return the raw reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_until(b'\n', &mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        std::str::from_utf8(&self.reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// What one reply said: admitted/answered, or a counted reason token.
pub fn reply_ok<E: std::fmt::Display>(
    tracer: &Tracer,
    reply: Result<&str, E>,
) -> Result<Json, String> {
    let text = reply.map_err(|e| format!("i/o: {e}"))?;
    let v = json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(v);
    }
    let reason = v.get("reason").and_then(Json::as_str).unwrap_or("none").to_string();
    let counter = match reason.as_str() {
        wire::reason::INFEASIBLE => Some("service.admission.refused_infeasible"),
        wire::reason::BACKPRESSURE => Some("service.admission.refused_backpressure"),
        wire::reason::BUSY => Some("service.server.shed_busy"),
        wire::reason::QUIESCED => Some("service.server.shed_quiesced"),
        _ => None,
    };
    if let Some(counter) = counter {
        tracer.count(counter, 1);
    }
    Err(format!("refused: {reason}"))
}

/// Generated jobs as submit requests whose deadlines pass the admission
/// pre-check: the check assumes a job starts at the *next* scheduling
/// boundary, up to one period away, so every relative deadline gets two
/// periods on top of the generator's slack × critical path.
pub fn requests(jobs: &[Job], params: &Params) -> Vec<JobRequest> {
    jobs.iter()
        .map(|j| {
            let mut r = JobRequest::from_job(j);
            r.deadline = r.deadline.map(|d| d + params.sched_period + params.sched_period);
            r
        })
        .collect()
}

/// Newline-terminated `submit` lines of `per_line` jobs each.
pub fn submit_lines(requests: &[JobRequest], per_line: usize) -> Vec<String> {
    requests.chunks(per_line).map(|c| format!("{}\n", wire::submit_request(c))).collect()
}

/// How a service under test is configured.
#[derive(Clone, Copy)]
pub struct Service {
    pub scheduler: &'static str,
    pub policy: &'static str,
    pub shards: usize,
    pub time_scale: f64,
    pub admission_cap: usize,
}

impl Service {
    pub fn boot(&self, params: Params) -> ServerHandle {
        let (scheduler, policy) = (self.scheduler, self.policy);
        let spec = FederationSpec {
            cluster: dsp_core::cluster::ec2(),
            engine: params.engine_config(),
            sched_period: params.sched_period,
            admission: AdmissionConfig {
                max_pending_tasks: self.admission_cap,
                check_feasibility: true,
            },
            scheduler: Box::new(move || {
                dsp_service::build_scheduler(scheduler).expect("a scheduler name of the CLI")
            }),
            policy: Box::new(move || {
                dsp_service::build_policy(policy, &params).expect("a policy name of the CLI")
            }),
        };
        let config = ServerConfig {
            time_scale: self.time_scale,
            shards: self.shards,
            route: RoutePolicy::Hash,
            ..ServerConfig::default()
        };
        dsp_service::serve_federated(spec, config).expect("bind an ephemeral loopback port")
    }
}

/// `drain`, decode the returned snapshot, audit it R1–R6. Returns the
/// snapshot and the host seconds from the call to the verdict.
fn drain(tracer: &Tracer, addr: &str, rep: &mut Rep) -> Option<Snapshot> {
    let t = Instant::now();
    let decoded = tracer.scope("svc.drain", 0, || {
        let mut client = LineClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reply = reply_ok(tracer, client.call("{\"op\":\"drain\"}\n"))?;
        let snapshot = reply.get("snapshot").ok_or("drain reply carries no snapshot")?;
        Snapshot::from_json(snapshot).map_err(|e| format!("snapshot does not decode: {e}"))
    });
    let verified = decoded.and_then(|s| {
        let report = tracer.scope("verify.snapshot", 0, || s.verify());
        if report.passes() {
            Ok(s)
        } else {
            Err(format!("drained snapshot fails R1–R6:\n{report}"))
        }
    });
    rep.finish_s = t.elapsed().as_secs_f64();
    rep.attempted += 1;
    match verified {
        Ok(s) => Some(s),
        Err(e) => {
            rep.failed += 1;
            rep.errors.push(format!("drain: {e}"));
            None
        }
    }
}

/// Output checks on a drained snapshot, and its digest. Job ids depend on
/// how the writers' lines interleaved, and under a live clock so does
/// every simulated instant, so the digest folds only what must repeat:
/// which jobs were admitted (as an unordered sum over their shapes) and
/// that each of their tasks completed.
fn audit_drained(snapshot: &Snapshot, admitted: usize, rep: &mut Rep) {
    rep.check(snapshot.jobs.len() == admitted, || {
        format!("{} jobs drained, {admitted} admitted", snapshot.jobs.len())
    });
    let tasks: usize = snapshot.jobs.iter().map(Job::num_tasks).sum();
    let done = snapshot.history.completed().count();
    rep.check(done == tasks, || format!("{done} of {tasks} tasks completed"));
    let mut sum = 0u64;
    for job in &snapshot.jobs {
        let mut h = Fnv::default();
        h.u64(job.num_tasks() as u64);
        job.tasks.iter().for_each(|t| h.f64(t.size.get()));
        job.dag.edges().for_each(|(u, v)| h.u64(u64::from(u) << 32 | u64::from(v)));
        sum = sum.wrapping_add(h.0);
    }
    let mut h = Fnv::default();
    h.u64(sum);
    h.u64(done as u64);
    rep.digest = h.0;
}

/// Lines a repetition sends: all of them, or a quarter when it only warms
/// up (the code paths need to be hot, the state does not need to be big).
fn warm_lines(all: usize, warm_up: bool) -> usize {
    if warm_up {
        (all / 4).max(1)
    } else {
        all
    }
}

// ------------------------------------------------------------ svc_submit_sat

pub struct SubmitSat {
    pub lines: usize,
    pub jobs_per_line: usize,
}

impl SubmitSat {
    pub fn new(quick: bool) -> SubmitSat {
        SubmitSat { lines: if quick { 40 } else { 1000 }, jobs_per_line: 2 }
    }

    pub const SERVICE: Service = Service {
        scheduler: "fifo",
        policy: "none",
        shards: 2,
        time_scale: 0.0,
        // Nothing is flushed until the drain, so the whole burst is pending.
        admission_cap: usize::MAX / 2,
    };
}

pub struct SvcInput {
    pub jobs: Vec<Job>,
    pub lines: Vec<String>,
    pub params: Params,
}

fn svc_input(tracer: &Tracer, seed: u64, jobs: usize, scale: f64, per_line: usize) -> SvcInput {
    let params = Params::default();
    let trace = TraceParams { task_scale: scale, ..TraceParams::default() };
    let jobs = layers::generate(tracer, seed, jobs, &trace);
    let lines = submit_lines(&requests(&jobs, &params), per_line);
    SvcInput { jobs, lines, params }
}

/// The replay legs of a service workload: its first jobs through the batch
/// layers, all of them through the service's.
fn replay(tracer: &Arc<Tracer>, input: &SvcInput, svc: &Service, jobs_per_line: usize, seed: u64) {
    layers::replay_all(
        tracer,
        &Replay {
            batch: layers::sample(&input.jobs, 100),
            run_pipeline: true,
            svc_jobs: &input.jobs,
            svc,
            jobs_per_line,
            probe_submits: false,
            params: &input.params,
            seed,
        },
    );
}

impl Workload for SubmitSat {
    type Input = SvcInput;
    const VARIANTS: usize = 1;

    fn generate(&self, seed: u64, tracer: &Arc<Tracer>) -> SvcInput {
        svc_input(tracer, seed, self.lines * self.jobs_per_line, 0.005, self.jobs_per_line)
    }

    fn rep(&self, input: &SvcInput, tracer: &Arc<Tracer>, warm_up: bool) -> Rep {
        let mut rep = Rep::default();
        let handle = tracer.scope("svc.boot", 0, || Self::SERVICE.boot(input.params));
        let addr = handle.addr.to_string();
        let writers = client_threads();
        // A warm-up repetition only needs the code paths hot, not the state.
        let lines = &input.lines[..warm_lines(input.lines.len(), warm_up)];
        let start = Barrier::new(writers + 1);

        // (first send, last reply, per-line latencies, failures)
        type Lane = (Instant, Instant, Vec<f64>, Vec<String>);
        let lanes: Vec<Lane> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..writers)
                .map(|w| {
                    let (addr, start) = (&addr, &start);
                    scope.spawn(move || -> Lane {
                        let mut client = LineClient::connect(addr);
                        start.wait();
                        let first = Instant::now();
                        let (mut lat, mut errs) = (Vec::new(), Vec::new());
                        for (i, line) in lines.iter().enumerate().skip(w).step_by(writers) {
                            let t = Instant::now();
                            let reply = client
                                .as_mut()
                                .map_err(|e| e.to_string())
                                .and_then(|c| c.call(line).map_err(|e| e.to_string()));
                            lat.push(t.elapsed().as_secs_f64() * 1e3);
                            tracer.record("svc.submit", tracer.at(t), tracer.now_ns(), i as u64);
                            match reply_ok(tracer, reply) {
                                Ok(v)
                                    if v.get("ids").and_then(Json::as_arr).map(<[Json]>::len)
                                        == Some(self.jobs_per_line) => {}
                                Ok(v) => errs.push(format!("line {i}: unexpected reply {v}")),
                                Err(e) => errs.push(format!("line {i}: {e}")),
                            }
                        }
                        (first, Instant::now(), lat, errs)
                    })
                })
                .collect();
            start.wait();
            workers.into_iter().map(|h| h.join().expect("writer thread")).collect()
        });

        let first = lanes.iter().map(|l| l.0).min().expect("at least one writer");
        let last = lanes.iter().map(|l| l.1).max().expect("at least one writer");
        rep.wall_s = last.duration_since(first).as_secs_f64();
        for (_, _, lat, errs) in lanes {
            rep.attempted += lat.len() as u64;
            rep.failed += errs.len() as u64;
            rep.op_ms.extend(lat);
            rep.errors.extend(errs);
        }
        let admitted = (rep.attempted - rep.failed) as usize * self.jobs_per_line;
        rep.work = admitted as u64;
        rep.samples.insert("submit_ms", rep.op_ms.clone());

        if let Some(snapshot) = drain(tracer, &addr, &mut rep) {
            audit_drained(&snapshot, admitted, &mut rep);
            let shards = handle.shards() as u32;
            let mut per_shard = vec![0u64; shards as usize];
            snapshot.jobs.iter().for_each(|j| per_shard[(j.id.0 % shards) as usize] += 1);
            tracer.count_max("service.router.shard_max", *per_shard.iter().max().unwrap_or(&0));
            tracer.count_max("service.router.shard_min", *per_shard.iter().min().unwrap_or(&0));
        }
        tracer.scope("svc.shutdown", 0, || handle.wait());
        rep
    }

    fn replay(&self, input: &SvcInput, tracer: &Arc<Tracer>, seed: u64) {
        replay(tracer, input, &Self::SERVICE, self.jobs_per_line, seed);
    }
}

// ------------------------------------------------------------ svc_mixed_open

pub struct MixedOpen {
    /// Submits per repetition, sent at [`Self::SUBMIT_HZ`].
    pub submits: usize,
    /// Reads the host's slowness right around each drain (not on a
    /// `--quick` run, which is not calibrated).
    host: Option<Calibrator>,
}

impl MixedOpen {
    pub const SUBMIT_HZ: f64 = 50.0;
    pub const READ_HZ: f64 = 250.0;

    pub fn new(quick: bool) -> MixedOpen {
        MixedOpen { submits: if quick { 15 } else { 100 }, host: (!quick).then(Calibrator::new) }
    }

    /// `dspd`'s defaults.
    pub const SERVICE: Service = Service {
        scheduler: "dsp",
        policy: "dsp",
        shards: 1,
        time_scale: 600.0,
        admission_cap: 8192,
    };
}

/// One paced request stream on its own connection: request `k` is due at
/// `start + k / hz`; the thread sleeps until [`Paced::SPIN`] before then,
/// spins out the rest, sends, and waits for the reply. Latency runs from the
/// due instant, not the send: when a reply is late, the requests queued
/// behind it are late too, and they are charged.
#[derive(Clone, Copy)]
pub struct Paced<'a> {
    pub tracer: &'a Tracer,
    pub addr: &'a str,
    pub start: Instant,
    pub hz: f64,
    /// Parse replies (and hand them to `on_ok`), or only look at how they
    /// begin: parsing megabytes of snapshot would be the client's time.
    pub parse: bool,
}

/// What one paced stream measured.
#[derive(Default)]
pub struct PacedOut {
    /// Milliseconds from due to reply, per request.
    pub lat_ms: Vec<f64>,
    /// Microseconds from due to send, per request: how late the generator ran.
    pub lag_us: Vec<f64>,
    pub errors: Vec<String>,
    pub end: Option<Instant>,
}

impl Paced<'_> {
    /// How long before a request is due its thread stops sleeping and
    /// spins. A sleep on the reference box ends 100–150 µs late at the
    /// median (up to 300 µs at the 90th percentile): more than half of the
    /// median latency reported from the due time was the generator's own
    /// timer, and it moved with the host. Spinning sends within 0.1 µs of
    /// due and costs the reader a tenth of a core.
    const SPIN: Duration = Duration::from_micros(400);

    /// Run `count` requests; `line(k)` gives request `k`'s span name and
    /// text. `on_ok(k, reply)` sees every successful reply.
    pub fn run(
        &self,
        count: usize,
        mut line: impl FnMut(usize) -> (&'static str, String),
        mut on_ok: impl FnMut(usize, &Json),
    ) -> PacedOut {
        let mut out = PacedOut::default();
        let mut client = match LineClient::connect(self.addr) {
            Ok(c) => c,
            Err(e) => {
                out.errors.push(format!("connect: {e}"));
                return out;
            }
        };
        for k in 0..count {
            let due = self.start + Duration::from_secs_f64(k as f64 / self.hz);
            let (name, text) = line(k);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait.saturating_sub(Self::SPIN));
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
            }
            let sent = Instant::now();
            let reply = client.call(&text);
            let done = Instant::now();
            out.lat_ms.push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
            out.lag_us.push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
            self.tracer.record(name, self.tracer.at(due), self.tracer.at(done), k as u64);
            let checked = match reply {
                Ok(text) if !self.parse && text.starts_with("{\"ok\":true") => Ok(Json::Null),
                reply => reply_ok(self.tracer, reply),
            };
            match checked {
                Ok(v) => on_ok(k, &v),
                Err(e) => out.errors.push(format!("{name} {k}: {e}")),
            }
        }
        out.end = Some(Instant::now());
        out
    }
}

impl Workload for MixedOpen {
    type Input = SvcInput;
    const VARIANTS: usize = 3;

    fn generate(&self, seed: u64, tracer: &Arc<Tracer>) -> SvcInput {
        svc_input(tracer, seed, self.submits, 0.06, 1)
    }

    fn rep(&self, input: &SvcInput, tracer: &Arc<Tracer>, warm_up: bool) -> Rep {
        let mut rep = Rep::default();
        let handle = tracer.scope("svc.boot", 0, || Self::SERVICE.boot(input.params));
        let addr = handle.addr.to_string();
        let submits = warm_lines(input.lines.len(), warm_up);
        let reads = (submits as f64 * Self::READ_HZ / Self::SUBMIT_HZ) as usize;
        // Highest job id admitted so far — what the reader asks the status
        // of — or `u32::MAX` before the first admission.
        let admitted = AtomicU32::new(u32::MAX);

        let start = Instant::now() + Duration::from_millis(20);
        let (writer, reader, poller) = std::thread::scope(|scope| {
            let (addr, admitted, tracer) = (addr.as_str(), &admitted, tracer.as_ref());
            let paced = |hz: f64, parse: bool| Paced { tracer, addr, start, hz, parse };
            let writer = scope.spawn(move || {
                paced(Self::SUBMIT_HZ, true).run(
                    submits,
                    |k| ("svc.submit", input.lines[k].clone()),
                    |_, reply| {
                        let id = reply.get("ids").and_then(Json::as_arr).and_then(|a| a.last());
                        if let Some(id) = id.and_then(Json::as_u64) {
                            // ordering: Relaxed — a hint for which id the
                            // reader polls; it publishes no other data.
                            admitted.store(id as u32, Ordering::Relaxed);
                        }
                    },
                )
            });
            // One `snapshot` read per second on a connection and thread of
            // its own: it takes tens of milliseconds, and on the reader's
            // connection it would make the generator late, not the service.
            // The thread sleeps all but that time, so the load stays two
            // client threads' worth.
            let poller = scope.spawn(move || {
                let count = (submits as f64 / Self::SUBMIT_HZ).ceil() as usize;
                let line = |_| ("svc.read_snapshot", "{\"op\":\"snapshot\"}\n".to_string());
                paced(1.0, false).run(count, line, |_, _| {})
            });
            let reader = paced(Self::READ_HZ, true).run(
                reads,
                |k| {
                    // ordering: Relaxed — see the store above.
                    let id = admitted.load(Ordering::Relaxed);
                    if k % 10 == 9 || id == u32::MAX {
                        ("svc.read_metrics", "{\"op\":\"metrics\"}\n".to_string())
                    } else {
                        ("svc.read_status", format!("{{\"op\":\"status\",\"job\":{id}}}\n"))
                    }
                },
                |_, _| {},
            );
            (writer.join().expect("writer thread"), reader, poller.join().expect("poller thread"))
        });
        rep.paced = true;
        let end = writer.end.max(reader.end).unwrap_or(start);
        rep.wall_s = end.saturating_duration_since(start).as_secs_f64();

        // Snapshot reads are checked and timed, but kept out of the
        // operation latencies: four of them among 1200 requests would only
        // be the tail's outliers.
        rep.attempted += poller.lat_ms.len() as u64;
        rep.failed += poller.errors.len() as u64;
        rep.samples.insert("snapshot_read_ms", poller.lat_ms);
        rep.errors.extend(poller.errors);
        let admitted_jobs = writer.lat_ms.len() - writer.errors.len();
        for (kind, out) in [("submit_ms", writer), ("read_ms", reader)] {
            rep.attempted += out.lat_ms.len() as u64;
            rep.failed += out.errors.len() as u64;
            rep.samples.entry(kind).or_default().extend(&out.lat_ms);
            rep.samples.entry("gen_lag_us").or_default().extend(out.lag_us);
            rep.op_ms.extend(out.lat_ms);
            rep.errors.extend(out.errors);
        }
        rep.work = rep.attempted - rep.failed;

        // The drain is CPU-bound work after seconds of a mostly sleeping
        // process, on a host whose speed moves within a second: readings
        // around the whole repetition say little about it (dividing by them
        // made `finish_s` move more between runs), readings right around it
        // halve how far one repetition's drain is from the next's (standard
        // deviation 0.15 → 0.08 of the mean, over 72 repetitions).
        let before = self.host.as_ref().map(Calibrator::slowness);
        let drained = drain(tracer, &addr, &mut rep);
        let after = self.host.as_ref().map(Calibrator::slowness);
        rep.finish_slowness = before.zip(after).map(|(b, a)| (b + a) / 2.0);
        if let Some(snapshot) = drained {
            audit_drained(&snapshot, admitted_jobs, &mut rep);
        }
        tracer.scope("svc.shutdown", 0, || handle.wait());
        rep
    }

    fn replay(&self, input: &SvcInput, tracer: &Arc<Tracer>, seed: u64) {
        replay(tracer, input, &Self::SERVICE, 1, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A line server that answers `{"ok":true}` at once, except that it
    /// sits on request number `stall_at` for `stall` first.
    fn fake_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (k, line) in BufReader::new(stream).lines().enumerate() {
                if line.is_err() {
                    break;
                }
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                writer.write_all(b"{\"ok\":true}\n").unwrap();
            }
        });
        (addr, thread)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_and_reports_generator_lag() {
        const HZ: f64 = 100.0; // one request every 10 ms
        const STALL: Duration = Duration::from_millis(200);
        let (addr, server) = fake_server(2, STALL);
        let tracer = Tracer::new(true);
        let start = Instant::now();
        let paced = Paced { tracer: &tracer, addr: &addr, start, hz: HZ, parse: true };
        let out = paced.run(8, |_| ("probe", "{\"op\":\"ping\"}\n".to_string()), |_, _| {});
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!((out.lat_ms.len(), out.lag_us.len()), (8, 8));

        // Request 2 waits out the stall. Requests 3.. were due 10, 20, … ms
        // after it and could only be sent once its reply was back: a
        // send-time clock would call them fast; the due-time clock charges
        // each the part of the stall it sat through, and the generator is
        // reported that late. (Lower bounds only: a sleep never ends early.)
        let stall_ms = STALL.as_secs_f64() * 1e3;
        assert!(out.lat_ms[2] >= stall_ms, "{:?}", out.lat_ms);
        for k in 3..8 {
            let queued_ms = stall_ms - (k - 2) as f64 * 1e3 / HZ;
            assert!(out.lat_ms[k] >= queued_ms, "request {k}: {:?}", out.lat_ms);
            assert!(out.lag_us[k] >= queued_ms * 1e3, "request {k}: {:?}", out.lag_us);
        }
        // Nothing delayed the first two, so the stall is what the lag shows.
        assert!(out.lag_us[0] < out.lag_us[3] && out.lag_us[1] < out.lag_us[3], "{:?}", out.lag_us);

        // One root span per request, starting at the due time.
        let (spans, _) = tracer.snapshot();
        assert_eq!(spans.len(), 8);
        assert!(spans[3].dur_ns() as f64 >= (stall_ms - 10.0) * 1e6);

        // The verdict a traced run prints.
        let mut rep = Rep::default();
        rep.samples.insert("gen_lag_us", out.lag_us);
        assert!(layers::overloaded(&rep).unwrap().starts_with("overloaded"));
        server.join().unwrap();
    }

    #[test]
    fn refusals_are_counted_by_reason_token() {
        let tracer = Tracer::new(true);
        let reply = |text: &'static str| reply_ok(&tracer, Ok::<_, std::io::Error>(text));
        let refused = r#"{"ok":false,"reason":"backpressure","error":"full"}"#;
        assert_eq!(reply(refused).unwrap_err(), "refused: backpressure");
        assert!(reply(r#"{"ok":true,"ids":[1]}"#).is_ok());
        assert!(reply("not json").is_err());
        let (_, counts) = tracer.snapshot();
        assert_eq!(counts["service.admission.refused_backpressure"], 1);
    }
}
