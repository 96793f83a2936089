//! The wire protocol: newline-delimited JSON request/response framing.
//!
//! One request per line, one response line per request, in order.
//! Requests are objects with an `"op"` discriminator:
//!
//! | op         | fields                      | success payload              |
//! |------------|-----------------------------|------------------------------|
//! | `ping`     | —                           | `pong: true`                 |
//! | `submit`   | `jobs: [JobRequest…]`       | `ids: [u32…]`                |
//! | `status`   | `job: u32`                  | `state`, `progress?`         |
//! | `metrics`  | —                           | `now_us`, counters, `metrics`|
//! | `snapshot` | —                           | `snapshot` (versioned)       |
//! | `drain`    | —                           | `snapshot`; server shuts down|
//!
//! Every response carries `"ok": bool`; failures add a stable `"reason"`
//! token and a human-readable `"error"` string. The token table lives in
//! **one** place — DESIGN.md §10.7 ("Wire reason tokens") — tests assert
//! against these constants, not against fresh string literals.
//! Read responses additionally carry `"state_version"`, the publish
//! sequence number of the snapshot they were answered from —
//! non-decreasing per connection (under `--shards N>1` it is the max of
//! the per-shard versions, and a `shard_versions` array carries the
//! whole vector; see DESIGN.md §10.7).
//!
//! A `JobRequest` is `{class?, deadline_us?, tasks: […], edges: [[u,v]…]}`
//! where each task is `{size, est_size?, recovery_us?, demand?}` — only
//! `size` (MI) is required; demand defaults to unit CPU/mem.
//!
//! The verb set is split at the type level into a **read lane** and a
//! **write lane** (DESIGN.md §10.5): [`handle_read`] takes only the
//! published [`StateSnapshot`] — it *cannot* reach the driver — while
//! [`handle_write`] takes the driver itself and runs on the single
//! driver-owner thread.

use crate::codec::{self, Snapshot};
use crate::driver::{JobRequest, JobStatus, OnlineDriver};
use crate::json::{Json, Reader, Writer};
use crate::state::StateSnapshot;
use dsp_dag::{JobClass, JobId, TaskSpec};
use dsp_metrics::RunMetrics;
use dsp_units::{Dur, Mi, ResourceVec, Time};
use std::borrow::Cow;

/// A request answered from the published state snapshot, off the driver
/// lock-path entirely.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadRequest {
    /// Liveness probe.
    Ping,
    /// Query one job's progress.
    Status(JobId),
    /// Headline service counters.
    Metrics,
    /// Current auditable state (mid-run; history may be partial).
    Snapshot,
}

/// A request that mutates the driver; serialized FIFO through the
/// bounded command queue.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteRequest {
    /// Admit a batch of jobs.
    Submit(Vec<JobRequest>),
    /// Flush, run dry, return the final snapshot, and stop the service.
    Drain,
}

/// A decoded client request, already routed to its lane.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Served from the snapshot cache.
    Read(ReadRequest),
    /// Goes through the command queue to the driver-owner thread.
    Write(WriteRequest),
}

// ------------------------------------------------------------------ decoding
//
// A request line is decoded straight off its text (DESIGN.md §10.8). The
// reader checks the syntax of everything it passes over and remembers the
// first error; each field is judged as `tree.get(key).and_then(Json::as_…)`
// would judge it — a later duplicate key replaces an earlier one, an
// unknown key is passed over, a value of the wrong type counts as absent.
// A field's shape error is a *value* (`Shape`), looked at only once the
// whole line has proved well-formed, and then in the fixed order class →
// deadline → tasks → edges, first job first.

/// A field that decoded, or the message its `bad_request` reply carries.
type Shape<T> = Result<T, String>;

fn decode_demand(r: &mut Reader) -> ResourceVec {
    let (mut cpu, mut mem, mut disk, mut bw) = (None, None, None, None);
    if r.enter(b'{') {
        while let Some(key) = r.next_key() {
            match key.as_ref() {
                "cpu" => cpu = r.num_or_skip().as_f64(),
                "mem" => mem = r.num_or_skip().as_f64(),
                "disk" => disk = r.num_or_skip().as_f64(),
                "bw" => bw = r.num_or_skip().as_f64(),
                _ => r.skip_value(),
            }
        }
    }
    let (cpu, mem) = (cpu.unwrap_or(1.0), mem.unwrap_or(1.0));
    ResourceVec::new(cpu, mem, disk.unwrap_or(0.0), bw.unwrap_or(0.0))
}

fn decode_task(r: &mut Reader) -> Shape<TaskSpec> {
    let (mut size, mut est, mut recovery) = (None, None, None);
    let mut demand = ResourceVec::cpu_mem(1.0, 1.0);
    if r.enter(b'{') {
        while let Some(key) = r.next_key() {
            match key.as_ref() {
                "size" => size = r.num_or_skip().as_f64(),
                "est_size" => est = r.num_or_skip().as_f64(),
                "recovery_us" => recovery = r.num_or_skip().as_u64(),
                "demand" => demand = decode_demand(r),
                _ => r.skip_value(),
            }
        }
    }
    let size = size.filter(|s| *s > 0.0).ok_or("task 'size' (MI, positive number) is required")?;
    let mut spec = TaskSpec::new(Mi::new(size), demand);
    if let Some(est) = est {
        spec = spec.with_estimate(Mi::new(est));
    }
    if let Some(recovery) = recovery {
        spec.recovery = Dur::from_micros(recovery);
    }
    Ok(spec)
}

/// Decode an array of `T`s, keeping the first item's shape error;
/// `not_array` is the error of any other value.
fn decode_list<T>(
    r: &mut Reader,
    not_array: &str,
    mut item: impl FnMut(&mut Reader) -> Shape<T>,
) -> Shape<Vec<T>> {
    if !r.enter(b'[') {
        return Err(not_array.into());
    }
    let mut list = Ok(Vec::new());
    while r.next_item() {
        match (item(r), &mut list) {
            (Ok(item), Ok(items)) => items.push(item),
            (Err(first), Ok(_)) => list = Err(first),
            (_, Err(_)) => {}
        }
    }
    list
}

fn decode_edge(r: &mut Reader) -> Shape<(u32, u32)> {
    let mut ends = [None, None];
    let mut len = 0;
    if r.enter(b'[') {
        while r.next_item() {
            match ends.get_mut(len) {
                Some(end) => *end = r.num_or_skip().as_u64(),
                None => r.skip_value(),
            }
            len += 1;
        }
    }
    if len != 2 {
        return Err("each edge must be a [from,to] pair".into());
    }
    let (Some(from), Some(to)) = (ends[0], ends[1]) else {
        return Err("edge endpoints must be u64".into());
    };
    match (u32::try_from(from), u32::try_from(to)) {
        (Ok(from), Ok(to)) => Ok((from, to)),
        _ => Err("edge endpoint exceeds u32".into()),
    }
}

fn decode_job(r: &mut Reader) -> Shape<JobRequest> {
    let mut class = Ok(JobClass::Small);
    let mut deadline = Ok(None);
    let mut tasks = Err("'tasks' array is required".to_string());
    let mut edges = Ok(Vec::new());
    if r.enter(b'{') {
        while let Some(key) = r.next_key() {
            match key.as_ref() {
                "class" => {
                    let name = r.str_or_skip().and_then(|c| codec::class_from_str(&c));
                    class = name.ok_or("'class' must be one of Small|Medium|Large");
                }
                "deadline_us" if r.peek_value() == Some(b'n') => {
                    r.skip_value();
                    deadline = Ok(None);
                }
                "deadline_us" => {
                    let us = r.num_or_skip().as_u64().ok_or("'deadline_us' must be a u64");
                    deadline = us.map(|us| Some(Dur::from_micros(us)));
                }
                "tasks" => tasks = decode_list(r, "'tasks' array is required", decode_task),
                "edges" => edges = decode_list(r, "'edges' must be an array", decode_edge),
                _ => r.skip_value(),
            }
        }
    }
    Ok(JobRequest { class: class?, deadline: deadline?, tasks: tasks?, edges: edges? })
}

/// Decode one request line. `Err` carries a human-readable message the
/// server wraps in a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut r = Reader::new(line.trim());
    let (mut op, mut job) = (None, None);
    let mut jobs = Err("'jobs' array is required".to_string());
    if r.enter(b'{') {
        while let Some(key) = r.next_key() {
            match key.as_ref() {
                "op" => op = r.str_or_skip(),
                "job" => job = r.num_or_skip().as_u64(),
                "jobs" => jobs = decode_list(&mut r, "'jobs' array is required", decode_job),
                _ => r.skip_value(),
            }
        }
    }
    r.finish().map_err(|e| format!("malformed JSON: {e}"))?;
    match op.as_deref().ok_or("missing 'op' field")? {
        "ping" => Ok(Request::Read(ReadRequest::Ping)),
        "submit" => Ok(Request::Write(WriteRequest::Submit(jobs?))),
        "status" => {
            let id = job.and_then(|id| u32::try_from(id).ok());
            Ok(Request::Read(ReadRequest::Status(JobId(id.ok_or("'job' (u32 id) is required")?))))
        }
        "metrics" => Ok(Request::Read(ReadRequest::Metrics)),
        "snapshot" => Ok(Request::Read(ReadRequest::Snapshot)),
        "drain" => Ok(Request::Write(WriteRequest::Drain)),
        other => Err(format!("unknown op '{other}'")),
    }
}

// ------------------------------------------------------------------ encoding

/// Write a [`JobRequest`] in the submit-request shape: the inverse of the
/// decoder above.
fn write_job_request(w: &mut Writer, r: &JobRequest) {
    w.begin_obj().key("class").str(codec::class_to_str(r.class)).key("deadline_us");
    match r.deadline {
        Some(d) => w.u64(d.as_micros()),
        None => w.null(),
    };
    w.key("edges");
    codec::write_edges(w, r.edges.iter().copied());
    w.key("tasks").arr(&r.tasks, |w, t| {
        w.begin_obj().key("demand");
        codec::write_resources(w, &t.demand);
        w.key("est_size").f64(t.est_size.get());
        w.key("recovery_us").u64(t.recovery.as_micros());
        w.key("size").f64(t.size.get()).end_obj();
    });
    w.end_obj();
}

/// Build a complete `submit` request line from job requests.
pub fn submit_request(jobs: &[JobRequest]) -> Json {
    Json::encode(|w| {
        w.begin_obj().key("jobs").arr(jobs, write_job_request).key("op").str("submit").end_obj();
    })
}

/// The stable `"reason"` tokens clients may match on. The authoritative
/// table (meaning, issuer, retry semantics) is DESIGN.md §10.7 — these
/// constants exist so producers and tests share one spelling.
pub mod reason {
    /// Malformed request line (front end, before any lane).
    pub const BAD_REQUEST: &str = "bad_request";
    /// Pending-queue cap hit; retry later ([`crate::AdmitError`]).
    pub const BACKPRESSURE: &str = "backpressure";
    /// Deadline-feasibility pre-check refused the batch.
    pub const INFEASIBLE: &str = "infeasible";
    /// Structurally invalid job (empty, bad edge, …).
    pub const INVALID: &str = "invalid";
    /// The service is draining; no new work accepted.
    pub const DRAINING: &str = "draining";
    /// `status` for an id that was never admitted.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// Connection cap shed this socket before reading a request.
    pub const BUSY: &str = "busy";
    /// Inert: no reply carries this token any more. It stays only
    /// because the benchmark crate still counts it.
    pub const QUIESCED: &str = "quiesced";
}

/// Build a failure response line.
pub fn error_response(reason: &str, message: &str) -> Json {
    Json::encode(|w| {
        w.begin_obj().key("error").str(message).key("ok").bool(false);
        w.key("reason").str(reason).end_obj();
    })
}

/// The outcome of executing one request.
pub struct Response {
    /// The response document (one line once serialized).
    pub body: Json,
    /// True when the request was `drain`: the server should stop
    /// accepting connections after writing this response.
    pub shutdown: bool,
}

impl Response {
    /// A failure reply (`{"ok":false,…}`) that leaves the service running.
    pub fn refusal(reason: &str, message: &str) -> Response {
        Response { body: error_response(reason, message), shutdown: false }
    }
}

/// A success reply `{"ok":true,…}`: `fields` writes every other member,
/// the ones sorting before `ok` first (the [`Writer`] key contract).
fn reply(shutdown: bool, fields: impl FnOnce(&mut Writer)) -> Response {
    let body = Json::encode(|w| {
        w.begin_obj();
        fields(w);
        w.end_obj();
    });
    Response { body, shutdown }
}

/// The publish sequence numbers a read reply carries: `state_version`,
/// and under `--shards N>1` the whole per-shard vector (empty otherwise —
/// a single-shard reply has no `shard_versions` member).
pub(crate) struct Versions<'a> {
    pub(crate) state: u64,
    pub(crate) shards: &'a [u64],
}

impl Versions<'_> {
    /// Write `shard_versions` (when federated) — sorts after `progress`,
    /// before `snapshot`/`state`.
    fn write_shards(&self, w: &mut Writer) {
        if !self.shards.is_empty() {
            w.key("shard_versions").arr(self.shards, |w, v| {
                w.u64(*v);
            });
        }
    }
}

pub(crate) fn ping_reply(now: Time, versions: &Versions) -> Response {
    reply(false, |w| {
        w.key("now_us").u64(now.as_micros()).key("ok").bool(true).key("pong").bool(true);
        versions.write_shards(w);
        w.key("state_version").u64(versions.state);
    })
}

pub(crate) fn status_reply(id: JobId, status: Option<&JobStatus>, versions: &Versions) -> Response {
    let Some(status) = status else {
        let message = format!("job {} was never admitted", id.0);
        return Response::refusal(reason::UNKNOWN_JOB, &message);
    };
    reply(false, |w| {
        w.key("job").u64(u64::from(id.0)).key("ok").bool(true);
        if let JobStatus::Active(progress) = status {
            w.key("progress");
            codec::write_progress(w, progress);
        }
        versions.write_shards(w);
        w.key("state").str(if matches!(status, JobStatus::Pending) { "pending" } else { "active" });
        w.key("state_version").u64(versions.state);
    })
}

/// The service counters of a `metrics` reply, one shard's or a
/// federation's aggregate.
pub(crate) struct Counters<'a> {
    pub(crate) now: Time,
    pub(crate) periods_elapsed: u64,
    pub(crate) batches_scheduled: u64,
    pub(crate) pending_tasks: u64,
    pub(crate) draining: bool,
    pub(crate) metrics: &'a RunMetrics,
}

pub(crate) fn metrics_reply(counters: &Counters, versions: &Versions) -> Response {
    reply(false, |w| {
        w.key("batches_scheduled").u64(counters.batches_scheduled);
        w.key("draining").bool(counters.draining).key("metrics");
        codec::write_metrics(w, counters.metrics);
        w.key("now_us").u64(counters.now.as_micros()).key("ok").bool(true);
        w.key("pending_tasks").u64(counters.pending_tasks);
        w.key("periods_elapsed").u64(counters.periods_elapsed);
        versions.write_shards(w);
        w.key("state_version").u64(versions.state);
    })
}

pub(crate) fn snapshot_reply(artifact: &Snapshot, versions: &Versions) -> Response {
    reply(false, |w| {
        w.key("ok").bool(true);
        versions.write_shards(w);
        w.key("snapshot");
        artifact.write(w);
        w.key("state_version").u64(versions.state);
    })
}

/// The reply to `drain`: the final artifact, and the shutdown flag.
pub(crate) fn drain_reply(artifact: &Snapshot) -> Response {
    reply(true, |w| {
        w.key("draining").bool(true).key("ok").bool(true).key("snapshot");
        artifact.write(w);
    })
}

/// Execute a read request against the **published snapshot only**. The
/// signature is the enforcement: there is no driver to reach, so a read
/// can never block behind (or convoy with) a mutation. Every response
/// carries `state_version`, the snapshot's publish sequence number. This
/// is `read_views` over one view, the path every read of the service takes.
pub fn handle_read(state: &StateSnapshot, request: ReadRequest) -> Response {
    read_views(&[state], request, || Cow::Borrowed(state.artifact.as_ref()))
}

/// Answer a read from the published views of every shard, in shard order
/// (DESIGN.md §10.7): `state_version` is the max of the versions, and
/// with more than one view a `shard_versions` array carries them all;
/// `now_us` and `periods_elapsed` are the min, counters the sum, and
/// `draining` holds once every view is draining. Each of these is
/// monotone in every view, so a connection still never sees one go
/// backwards. `status` reads the id's home view (`id % N`); `snapshot`
/// writes what `artifact` merges. One view is answered as it stands:
/// its metrics and its artifact are borrowed, not copied.
pub(crate) fn read_views<'a>(
    views: &[&'a StateSnapshot],
    request: ReadRequest,
    artifact: impl FnOnce() -> Cow<'a, Snapshot>,
) -> Response {
    let Some((first, rest)) = views.split_first() else {
        return Response::refusal(reason::DRAINING, "no shard is serving reads");
    };
    let shards: Vec<u64> =
        if rest.is_empty() { Vec::new() } else { views.iter().map(|v| v.version).collect() };
    let state = views.iter().map(|v| v.version).max().unwrap_or(0);
    let versions = Versions { state, shards: &shards };
    let now = views.iter().map(|v| v.now).min().unwrap_or(Time::ZERO);
    match request {
        ReadRequest::Ping => ping_reply(now, &versions),
        ReadRequest::Status(id) => {
            let home = views.get((id.0 as usize) % views.len());
            status_reply(id, home.and_then(|view| view.status(id)), &versions)
        }
        ReadRequest::Metrics => {
            let mut metrics = Cow::Borrowed(&first.metrics);
            for view in rest {
                metrics.to_mut().merge_from(&view.metrics);
            }
            let counters = Counters {
                now,
                periods_elapsed: views.iter().map(|v| v.periods_elapsed).min().unwrap_or(0),
                batches_scheduled: views.iter().map(|v| v.batches_scheduled).sum(),
                pending_tasks: views.iter().map(|v| v.pending_tasks as u64).sum(),
                draining: views.iter().all(|v| v.draining),
                metrics: &metrics,
            };
            metrics_reply(&counters, &versions)
        }
        ReadRequest::Snapshot => snapshot_reply(&artifact(), &versions),
    }
}

/// Execute a write request on the driver-owner thread. `publish` is the
/// server's snapshot-publish hook; `drain` calls it at every boundary of
/// its advance-until-dry loop so readers observe monotone progress
/// instead of one frozen pre-drain view. Simulation time is otherwise
/// advanced by the server's clock tick, not here.
pub fn handle_write(
    driver: &mut OnlineDriver,
    request: WriteRequest,
    publish: &mut dyn FnMut(&OnlineDriver),
) -> Response {
    match request {
        WriteRequest::Submit(requests) => match driver.submit(requests) {
            Ok(ids) => reply(false, |w| {
                w.key("ids").arr(&ids, |w, id| {
                    w.u64(u64::from(id.0));
                });
                w.key("next_boundary_us").u64(driver.next_boundary().as_micros());
                w.key("ok").bool(true);
            }),
            Err(e) => Response::refusal(e.reason(), &e.to_string()),
        },
        WriteRequest::Drain => drain_reply(&driver.drain_with(publish)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::codec::tests::{awkward_job, oracle as codec_oracle};
    use crate::json::parse;
    use dsp_cluster::uniform;
    use dsp_preempt::DspPolicy;
    use dsp_sched::DspListScheduler;
    use dsp_sim::EngineConfig;
    use dsp_units::Time;

    /// Route either lane against a live driver held directly (reads see
    /// a freshly built, version-0 view).
    fn handle(driver: &mut OnlineDriver, request: Request) -> Response {
        match request {
            Request::Read(read) => {
                let artifact = std::sync::Arc::new(driver.snapshot());
                handle_read(&driver.state_snapshot(0, artifact), read)
            }
            Request::Write(write) => handle_write(driver, write, &mut |_| {}),
        }
    }

    /// The request codec as it was before the pull decoder and the
    /// streaming writer: build the whole `Json` tree, then look fields up.
    /// The reference the streamed paths must agree with on every line.
    mod oracle {
        use super::super::*;
        use crate::json::parse;

        fn task_from_request(v: &Json) -> Result<TaskSpec, String> {
            let size = v
                .get("size")
                .and_then(Json::as_f64)
                .filter(|s| *s > 0.0)
                .ok_or("task 'size' (MI, positive number) is required")?;
            let mut spec = TaskSpec::new(
                Mi::new(size),
                match v.get("demand") {
                    Some(d) => ResourceVec::new(
                        d.get("cpu").and_then(Json::as_f64).unwrap_or(1.0),
                        d.get("mem").and_then(Json::as_f64).unwrap_or(1.0),
                        d.get("disk").and_then(Json::as_f64).unwrap_or(0.0),
                        d.get("bw").and_then(Json::as_f64).unwrap_or(0.0),
                    ),
                    None => ResourceVec::cpu_mem(1.0, 1.0),
                },
            );
            if let Some(est) = v.get("est_size").and_then(Json::as_f64) {
                spec = spec.with_estimate(Mi::new(est));
            }
            if let Some(rec) = v.get("recovery_us").and_then(Json::as_u64) {
                spec.recovery = Dur::from_micros(rec);
            }
            Ok(spec)
        }

        fn job_request_from_json(v: &Json) -> Result<JobRequest, String> {
            let class = match v.get("class") {
                None => JobClass::Small,
                Some(c) => match c.as_str() {
                    Some("Small") => JobClass::Small,
                    Some("Medium") => JobClass::Medium,
                    Some("Large") => JobClass::Large,
                    _ => return Err("'class' must be one of Small|Medium|Large".into()),
                },
            };
            let deadline = match v.get("deadline_us") {
                None | Some(Json::Null) => None,
                Some(d) => Some(Dur::from_micros(d.as_u64().ok_or("'deadline_us' must be a u64")?)),
            };
            let tasks = v
                .get("tasks")
                .and_then(Json::as_arr)
                .ok_or("'tasks' array is required")?
                .iter()
                .map(task_from_request)
                .collect::<Result<Vec<_>, _>>()?;
            let mut edges = Vec::new();
            if let Some(raw) = v.get("edges") {
                let raw = raw.as_arr().ok_or("'edges' must be an array")?;
                for e in raw {
                    let pair = e.as_arr().filter(|p| p.len() == 2);
                    let pair = pair.ok_or("each edge must be a [from,to] pair")?;
                    let u = pair[0].as_u64().ok_or("edge endpoints must be u64")?;
                    let v2 = pair[1].as_u64().ok_or("edge endpoints must be u64")?;
                    if u > u64::from(u32::MAX) || v2 > u64::from(u32::MAX) {
                        return Err("edge endpoint exceeds u32".into());
                    }
                    edges.push((u as u32, v2 as u32));
                }
            }
            Ok(JobRequest { class, deadline, tasks, edges })
        }

        pub(super) fn parse_request(line: &str) -> Result<Request, String> {
            let v = parse(line.trim()).map_err(|e| format!("malformed JSON: {e}"))?;
            let op = v.get("op").and_then(Json::as_str).ok_or("missing 'op' field")?;
            match op {
                "ping" => Ok(Request::Read(ReadRequest::Ping)),
                "submit" => {
                    let jobs = v
                        .get("jobs")
                        .and_then(Json::as_arr)
                        .ok_or("'jobs' array is required")?
                        .iter()
                        .map(job_request_from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Request::Write(WriteRequest::Submit(jobs)))
                }
                "status" => {
                    let id = v
                        .get("job")
                        .and_then(Json::as_u64)
                        .filter(|id| *id <= u64::from(u32::MAX))
                        .ok_or("'job' (u32 id) is required")?;
                    Ok(Request::Read(ReadRequest::Status(JobId(id as u32))))
                }
                "metrics" => Ok(Request::Read(ReadRequest::Metrics)),
                "snapshot" => Ok(Request::Read(ReadRequest::Snapshot)),
                "drain" => Ok(Request::Write(WriteRequest::Drain)),
                other => Err(format!("unknown op '{other}'")),
            }
        }

        pub(super) fn submit_request(jobs: &[JobRequest]) -> Json {
            let task = |t: &TaskSpec| {
                Json::obj(vec![
                    ("size", Json::F64(t.size.get())),
                    ("est_size", Json::F64(t.est_size.get())),
                    ("recovery_us", Json::U64(t.recovery.as_micros())),
                    ("demand", super::codec_oracle::resources(&t.demand)),
                ])
            };
            let job = |r: &JobRequest| {
                Json::obj(vec![
                    ("class", Json::Str(codec::class_to_str(r.class).into())),
                    ("deadline_us", r.deadline.map_or(Json::Null, |d| Json::U64(d.as_micros()))),
                    ("tasks", Json::Arr(r.tasks.iter().map(task).collect())),
                    ("edges", super::codec_oracle::edges(r.edges.iter().copied())),
                ])
            };
            Json::obj(vec![
                ("op", Json::Str("submit".into())),
                ("jobs", Json::Arr(jobs.iter().map(job).collect())),
            ])
        }
    }

    fn driver() -> OnlineDriver {
        let params = dsp_core::config::Params::default();
        OnlineDriver::new(
            uniform(4, 1000.0, 2),
            EngineConfig { epoch: Dur::from_secs(5), max_time: Time::from_secs(24 * 3600) },
            Dur::from_secs(300),
            Box::new(DspListScheduler::default()),
            Box::new(DspPolicy::new(params.dsp_params(true))),
            AdmissionConfig::default(),
        )
    }

    #[test]
    fn parses_the_full_verb_set() {
        // Reads and writes land in their lanes at parse time.
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Read(ReadRequest::Ping));
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Read(ReadRequest::Metrics)
        );
        assert_eq!(
            parse_request(r#"{"op":"snapshot"}"#).unwrap(),
            Request::Read(ReadRequest::Snapshot)
        );
        assert_eq!(
            parse_request(r#"{"op":"drain"}"#).unwrap(),
            Request::Write(WriteRequest::Drain)
        );
        assert_eq!(
            parse_request(r#"{"op":"status","job":3}"#).unwrap(),
            Request::Read(ReadRequest::Status(JobId(3)))
        );
        let req = parse_request(
            r#"{"op":"submit","jobs":[{"class":"Medium","deadline_us":5000000,
                "tasks":[{"size":100},{"size":200,"est_size":180}],"edges":[[0,1]]}]}"#,
        )
        .unwrap();
        match req {
            Request::Write(WriteRequest::Submit(jobs)) => {
                assert_eq!(jobs.len(), 1);
                assert_eq!(jobs[0].class, JobClass::Medium);
                assert_eq!(jobs[0].deadline, Some(Dur::from_secs(5)));
                assert_eq!(jobs[0].tasks.len(), 2);
                assert_eq!(jobs[0].tasks[1].est_size, Mi::new(180.0));
                assert_eq!(jobs[0].edges, vec![(0, 1)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"submit","jobs":[{"tasks":[{"size":-5}]}]}"#,
            r#"{"op":"submit","jobs":[{"tasks":[{}]}]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// Generated jobs plus the formatter's awkward cases, as requests.
    fn sample_requests() -> Vec<JobRequest> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let trace = dsp_trace::TraceParams { task_scale: 0.02, ..Default::default() };
        let mut jobs = dsp_trace::generate_workload(&mut rng, 40, &trace);
        jobs.push(awkward_job(40));
        jobs.iter().map(JobRequest::from_job).collect()
    }

    #[test]
    fn submit_lines_stream_to_the_reference_text_and_decode_as_the_tree_does() {
        let requests = sample_requests();
        assert!(requests.iter().any(|r| r.deadline.is_none() && !r.edges.is_empty()));
        for chunk in [&requests[..0], &requests[..1], &requests[1..3], &requests[..]] {
            let line = submit_request(chunk).to_string();
            assert_eq!(line, oracle::submit_request(chunk).to_string());
            let pulled = parse_request(&line);
            assert_eq!(pulled, oracle::parse_request(&line));
            // NaN and infinity were written as `null`, which reads back as
            // the demand default; everything else comes back as it went.
            match pulled.unwrap() {
                Request::Write(WriteRequest::Submit(back)) => {
                    assert_eq!(back.len(), chunk.len());
                    let plain = chunk.len().min(40);
                    assert_eq!(back[..plain], chunk[..plain]);
                }
                other => panic!("{other:?}"),
            }
        }
        let one = Json::encode(|w| write_job_request(w, &requests[0])).to_string();
        assert_eq!(format!("{{\"jobs\":[{one}],\"op\":\"submit\"}}"), {
            submit_request(&requests[..1]).to_string()
        });
    }

    /// Lines a hostile or sloppy client could send: every one must get the
    /// verdict — and the message — the tree decoder gave it.
    const CORPUS: &[&str] = &[
        "",
        " ",
        "not json",
        "nul",
        "{",
        "}",
        "[]",
        "7",
        "\"op\"",
        "null",
        r#"{"op":"ping"} x"#,
        r#"{"op":"ping",}"#,
        r#"{"op" "ping"}"#,
        r#"{"op":}"#,
        r#"{op:"ping"}"#,
        r#"{"no_op":1}"#,
        r#"{"op":5}"#,
        r#"{"op":null}"#,
        r#"{"op":"warp"}"#,
        r#"{"op":"PING"}"#,
        r#"{"op":"ping"}"#,
        r#"{"op":"ping","op":"metrics"}"#,
        r#"{"op":"ping","op":7}"#,
        r#"{"op":"ping","jobs":[{"tasks":[{}]}]}"#,
        r#"{"op":"ping","extra":{"deep":[1,2,{"x":[]}]}}"#,
        r#"{"op":"ping","extra":{"deep":[1,2,{"x":[}]}}"#,
        r#"{"op":"ping","extra":"\ud83d"}"#,
        r#"{"op":"ping","extra":01}"#,
        r#"{"op":"status"}"#,
        r#"{"op":"status","job":"3"}"#,
        r#"{"op":"status","job":-1}"#,
        r#"{"op":"status","job":3.0}"#,
        r#"{"op":"status","job":3.5}"#,
        r#"{"op":"status","job":4294967295}"#,
        r#"{"op":"status","job":4294967296}"#,
        r#"{"op":"status","job":1,"job":"x"}"#,
        r#"{"op":"status","job":"x","job":2}"#,
        r#"{"job":9,"op":"status"}"#,
        r#"{"op":"submit"}"#,
        r#"{"op":"submit","jobs":null}"#,
        r#"{"op":"submit","jobs":{}}"#,
        r#"{"op":"submit","jobs":[]}"#,
        r#"{"op":"submit","jobs":[7]}"#,
        r#"{"op":"submit","jobs":[[]]}"#,
        r#"{"op":"submit","jobs":[{}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":7}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[7]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":-5}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":0}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":"9"}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":1e400}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"size":-1}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":-1,"size":9}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"est_size":"x","recovery_us":-4}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"est_size":-3,"recovery_us":2.0}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"demand":7}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"demand":null}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"demand":{"cpu":4,"cpu":"x","bw":3}}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9,"demand":{"cpu":4},"demand":{"mem":2}}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"class":"Huge"}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"class":5}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"class":5,"class":"Large"}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"class":"Large","class":null}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"deadline_us":null}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"deadline_us":"soon"}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"deadline_us":-1}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"deadline_us":18446744073709551615}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"deadline_us":18446744073709551616}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"deadline_us":"x","deadline_us":null}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":null}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[7]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[[0]]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[[0,1,2]]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[["a",1,2]]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[[0,"b"]]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[[0,4294967296]]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[[4294967295,0]]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":9}],"edges":[[0,0]],"edges":[]}]}"#,
        // Errors are reported class → deadline → tasks → edges, first job
        // first, wherever the offending keys sit in the text …
        r#"{"op":"submit","jobs":[{"edges":7,"tasks":[{}],"deadline_us":"x","class":1}]}"#,
        r#"{"op":"submit","jobs":[{"edges":7,"tasks":[{}],"deadline_us":"x"}]}"#,
        r#"{"op":"submit","jobs":[{"edges":7,"tasks":[{}]}]}"#,
        r#"{"op":"submit","jobs":[{"edges":7,"tasks":[{"size":1}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":1},{}]},{"class":1}]}"#,
        r#"{"jobs":[{"tasks":[{}]}],"op":"submit"}"#,
        // … and only once the whole line is known to be well-formed.
        r#"{"op":"submit","jobs":[{"class":1}],"tail":[1,]}"#,
        r#"{"op":"submit","jobs":[{"class":1}]"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":1}]}]}}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":1}]}],"jobs":7}"#,
        r#"{"op":"submit","jobs":7,"jobs":[{"tasks":[{"size":1}]}]}"#,
        "{\"op\":\"submit\",\"jobs\":[{\"tasks\":[{\"size\":1}]}]}\n",
        "\t{ \"op\" : \"submit\" , \"jobs\" : [ { \"tasks\" : [ { \"size\" : 1 } ] } ] } ",
        r#"{"op":"submit","jobs":[{"tasks":[{"size":1,"note":"😀 \n \"q\""}]}]}"#,
        r#"{"op":"submit","jobs":[{"tasks":[{"size":1,"note":"\u+041"}]}]}"#,
    ];

    #[test]
    fn pull_decoding_gives_every_line_the_tree_decoders_verdict() {
        let mut accepted = 0;
        for line in CORPUS {
            let pulled = parse_request(line);
            assert_eq!(pulled, oracle::parse_request(line), "{line}");
            accepted += usize::from(pulled.is_ok());
        }
        assert!(accepted > 20 && accepted < CORPUS.len() - 40, "{accepted} accepted");
        // Nesting: the guard trips at the same depth in both.
        for depth in [60, 62, 63, 64, 65, 100] {
            let line =
                format!("{{\"op\":\"ping\",\"x\":{}1{}}}", "[".repeat(depth), "]".repeat(depth));
            assert_eq!(parse_request(&line), oracle::parse_request(&line), "depth {depth}");
        }
        // Every prefix and every single-byte corruption of a real line:
        // same verdict, and never a panic (overflow checks are on in
        // debug builds, where this runs).
        let line = submit_request(&sample_requests()[38..]).to_string();
        for cut in (0..line.len()).filter(|i| line.is_char_boundary(*i)) {
            let prefix = &line[..cut];
            assert_eq!(parse_request(prefix), oracle::parse_request(prefix), "prefix {cut}");
        }
        for (at, swap) in (0..line.len()).step_by(3).zip(b"\"{}[]:,-0e.\\ux\n".iter().cycle()) {
            let mut bytes = line.clone().into_bytes();
            bytes[at] = *swap;
            if let Ok(text) = String::from_utf8(bytes) {
                assert_eq!(parse_request(&text), oracle::parse_request(&text), "{at}: {text}");
            }
        }
    }

    #[test]
    fn submit_status_drain_over_the_handler() {
        let mut d = driver();
        let r = handle(
            &mut d,
            parse_request(
                r#"{"op":"submit","jobs":[{"tasks":[{"size":500},{"size":500}],"edges":[[0,1]]}]}"#,
            )
            .unwrap(),
        );
        assert_eq!(r.body.get("ok"), Some(&Json::Bool(true)));
        assert!(!r.shutdown);

        let r = handle(&mut d, Request::Read(ReadRequest::Status(JobId(0))));
        assert_eq!(r.body.get("state").and_then(Json::as_str), Some("pending"));
        assert!(r.body.get("state_version").is_some(), "reads carry the snapshot version");
        let r = handle(&mut d, Request::Read(ReadRequest::Status(JobId(99))));
        assert_eq!(r.body.get("reason").and_then(Json::as_str), Some("unknown_job"));

        let r = handle(&mut d, Request::Write(WriteRequest::Drain));
        assert!(r.shutdown);
        let snap = r.body.get("snapshot").expect("snapshot attached");
        let decoded = crate::codec::Snapshot::from_json(snap).unwrap();
        assert_eq!(decoded.jobs.len(), 1);
        assert!(decoded.verify().passes(), "{:?}", decoded.verify());

        // Post-drain submissions surface the stable reason token.
        let r = handle(
            &mut d,
            parse_request(r#"{"op":"submit","jobs":[{"tasks":[{"size":1}]}]}"#).unwrap(),
        );
        assert_eq!(r.body.get("reason").and_then(Json::as_str), Some("draining"));
    }

    /// Every reply shape, single-shard and federated, against the tree the
    /// handlers used to build for it.
    #[test]
    fn replies_stream_to_the_reference_text() {
        let mut d = driver();
        let submit =
            r#"{"op":"submit","jobs":[{"tasks":[{"size":500},{"size":500}],"edges":[[0,1]]}]}"#;
        let r = handle(&mut d, parse_request(submit).unwrap());
        let boundary = d.next_boundary().as_micros();
        let ids = Json::Arr(vec![Json::U64(0)]);
        let want = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("ids", ids),
            ("next_boundary_us", Json::U64(boundary)),
        ]);
        assert_eq!(r.body.to_string(), want.to_string());
        handle(&mut d, parse_request(submit).unwrap());
        d.advance_to(Time::from_secs(301));

        let state = d.state_snapshot(9, std::sync::Arc::new(d.snapshot()));
        let shard_vector = [9u64, 4, 11];
        for shards in [&shard_vector[..0], &shard_vector[..]] {
            let versions = Versions { state: 11, shards };
            let tail = |mut fields: Vec<(&'static str, Json)>| {
                fields.push(("state_version", Json::U64(11)));
                if !shards.is_empty() {
                    let vector = shards.iter().map(|v| Json::U64(*v)).collect();
                    fields.push(("shard_versions", Json::Arr(vector)));
                }
                Json::obj(fields).to_string()
            };
            let now = Json::U64(state.now.as_micros());
            let ok = ("ok", Json::Bool(true));
            assert_eq!(
                ping_reply(state.now, &versions).body.to_string(),
                tail(vec![ok.clone(), ("pong", Json::Bool(true)), ("now_us", now.clone())])
            );
            let Some(JobStatus::Active(progress)) = state.status(JobId(0)) else { panic!() };
            assert_eq!(
                status_reply(JobId(0), state.status(JobId(0)), &versions).body.to_string(),
                tail(vec![
                    ok.clone(),
                    ("job", Json::U64(0)),
                    ("state", Json::Str("active".into())),
                    ("progress", codec_oracle::progress(progress)),
                ])
            );
            assert_eq!(
                status_reply(JobId(5), Some(&JobStatus::Pending), &versions).body.to_string(),
                tail(vec![
                    ok.clone(),
                    ("job", Json::U64(5)),
                    ("state", Json::Str("pending".into()))
                ])
            );
            let counters = Counters {
                now: state.now,
                periods_elapsed: state.periods_elapsed,
                batches_scheduled: state.batches_scheduled,
                pending_tasks: 17,
                draining: true,
                metrics: &state.metrics,
            };
            assert_eq!(
                metrics_reply(&counters, &versions).body.to_string(),
                tail(vec![
                    ok.clone(),
                    ("now_us", now),
                    ("periods_elapsed", Json::U64(state.periods_elapsed)),
                    ("batches_scheduled", Json::U64(state.batches_scheduled)),
                    ("pending_tasks", Json::U64(17)),
                    ("draining", Json::Bool(true)),
                    ("metrics", codec_oracle::metrics(&state.metrics)),
                ])
            );
            assert_eq!(
                snapshot_reply(&state.artifact, &versions).body.to_string(),
                tail(vec![ok, ("snapshot", codec_oracle::snapshot(&state.artifact))])
            );
        }
        // `handle_read` is the single-shard spelling of the above.
        let versions = Versions { state: 9, shards: &[] };
        assert_eq!(
            handle_read(&state, ReadRequest::Snapshot).body,
            snapshot_reply(&state.artifact, &versions).body
        );
        assert_eq!(
            handle_read(&state, ReadRequest::Status(JobId(77))).body.to_string(),
            Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("reason", Json::Str("unknown_job".into())),
                ("error", Json::Str("job 77 was never admitted".into())),
            ])
            .to_string()
        );
        assert_eq!(
            error_response("bad\n", "a \"quoted\" \u{1F600} message").to_string(),
            Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("reason", Json::Str("bad\n".into())),
                ("error", Json::Str("a \"quoted\" \u{1F600} message".into())),
            ])
            .to_string()
        );
        let drained = handle(&mut d, Request::Write(WriteRequest::Drain));
        let artifact = codec_oracle::snapshot(&d.snapshot());
        assert_eq!(
            drained.body.to_string(),
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
                ("snapshot", artifact),
            ])
            .to_string()
        );
    }

    #[test]
    fn job_request_encoding_roundtrips() {
        let requests = vec![JobRequest {
            class: JobClass::Large,
            deadline: Some(Dur::from_secs(120)),
            tasks: vec![
                TaskSpec::sized(300.0).with_estimate(Mi::new(250.0)),
                TaskSpec::sized(400.0),
            ],
            edges: vec![(0, 1)],
        }];
        let line = submit_request(&requests).to_string();
        match parse_request(&line).unwrap() {
            Request::Write(WriteRequest::Submit(back)) => assert_eq!(back, requests),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_are_single_lines() {
        let mut d = driver();
        let r = handle(&mut d, Request::Read(ReadRequest::Metrics));
        let line = r.body.to_string();
        assert!(!line.contains('\n'));
        assert!(parse(&line).is_ok());
    }
}
