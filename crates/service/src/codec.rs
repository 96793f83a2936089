//! Domain ⇄ JSON codec for the wire protocol and on-disk artifacts.
//!
//! The workspace writes one artifact, the [`Snapshot`] of a run: the
//! cluster it ran on, its jobs, plan, execution history and metrics. `dsp
//! --out`, `dsp matrix --out` and a service drain write it, `dsp verify
//! --snapshot` reads it. It is stamped with a `format_version` field and
//! a `kind` of `snapshot`, so tools refuse inputs they don't understand
//! instead of misreading them. [`FORMAT_VERSION`] is the current version;
//! bump it on any incompatible shape change.
//!
//! Version 2 writes the three tables whose length is the task count — a
//! job's `tasks`, the schedule's assignments and `history.tasks` — as one
//! object of named columns (see [`Table`]) instead of an array of one
//! object per row; every other shape is as version 1 wrote it.

use crate::json::{Json, Writer};
use dsp_cluster::{ClusterSpec, Node, NodeId};
use dsp_dag::{Dag, Job, JobClass, JobId, TaskId, TaskSpec};
use dsp_metrics::RunMetrics;
use dsp_sim::{Assignment, ExecHistory, JobProgress, Schedule, TaskHistory};
use dsp_units::{Dur, Mi, ResourceVec, Time};
use std::fmt;

/// Current artifact / wire format version.
pub const FORMAT_VERSION: u64 = 2;

/// A decode failure: the JSON was well-formed but not the expected shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    v.get(key).ok_or_else(|| CodecError(format!("missing field '{key}'")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, CodecError> {
    field(v, key)?.as_u64().ok_or_else(|| CodecError(format!("field '{key}' must be a u64")))
}

/// Ids, indices, and counts are `u32` in memory: a wider value in an
/// artifact is corruption, never something to wrap around.
fn u32_field(v: &Json, key: &str) -> Result<u32, CodecError> {
    let wide = u64_field(v, key)?;
    u32::try_from(wide).map_err(|_| CodecError(format!("field '{key}' = {wide} exceeds u32")))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, CodecError> {
    field(v, key)?.as_f64().ok_or_else(|| CodecError(format!("field '{key}' must be a number")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, CodecError> {
    field(v, key)?.as_str().ok_or_else(|| CodecError(format!("field '{key}' must be a string")))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], CodecError> {
    field(v, key)?.as_arr().ok_or_else(|| CodecError(format!("field '{key}' must be an array")))
}

fn time_field(v: &Json, key: &str) -> Result<Time, CodecError> {
    Ok(Time::from_micros(u64_field(v, key)?))
}

fn dur_field(v: &Json, key: &str) -> Result<Dur, CodecError> {
    Ok(Dur::from_micros(u64_field(v, key)?))
}

// -------------------------------------------------------------------- tables

/// Write one column of a table: `key`, then `cell` of every row in order.
fn u64_col<T>(w: &mut Writer, key: &'static str, rows: &[T], cell: impl Fn(&T) -> u64) {
    w.key(key).arr(rows, |w, row| {
        w.u64(cell(row));
    });
}

fn f64_col<T>(w: &mut Writer, key: &'static str, rows: &[T], cell: impl Fn(&T) -> f64) {
    w.key(key).arr(rows, |w, row| {
        w.f64(cell(row));
    });
}

fn bool_col<T>(w: &mut Writer, key: &'static str, rows: &[T], cell: impl Fn(&T) -> bool) {
    w.key(key).arr(rows, |w, row| {
        w.bool(cell(row));
    });
}

/// A table of named columns being decoded: an object whose every column
/// is an array, all of one length. A column named `a.b` is the array at
/// key `b` of the object at key `a`. Every error names the table, and
/// the column and row where there is one.
struct Table<'a> {
    name: &'a str,
    obj: &'a Json,
    /// The first column read and its length, which every other must match.
    first: Option<(&'static str, usize)>,
}

/// One column of a [`Table`]. Its readers check the cell's type, and the
/// `u32` range of ids and counts.
struct Column<'a> {
    table: &'a str,
    name: &'static str,
    cells: &'a [Json],
}

impl<'a> Table<'a> {
    fn new(name: &'a str, obj: &'a Json) -> Table<'a> {
        Table { name, obj, first: None }
    }

    fn col(&mut self, name: &'static str) -> Result<Column<'a>, CodecError> {
        let table = self.name;
        let found = name.split('.').try_fold(self.obj, |v, key| v.get(key));
        let found = found.ok_or_else(|| CodecError(format!("{table}: missing column '{name}'")))?;
        let cells = found
            .as_arr()
            .ok_or_else(|| CodecError(format!("{table}: column '{name}' must be an array")))?;
        match self.first {
            None => self.first = Some((name, cells.len())),
            Some((first, n)) if n != cells.len() => {
                return err(format!(
                    "{table}: column '{name}' has {} rows, column '{first}' has {n}",
                    cells.len()
                ))
            }
            Some(_) => {}
        }
        Ok(Column { table, name, cells })
    }

    /// Decode every row: `row(i)` reads row `i` from the columns.
    fn rows<T>(&self, row: impl Fn(usize) -> Result<T, CodecError>) -> Result<Vec<T>, CodecError> {
        (0..self.first.map_or(0, |(_, n)| n)).map(row).collect()
    }
}

impl Column<'_> {
    fn bad<T>(&self, row: usize, what: impl fmt::Display) -> Result<T, CodecError> {
        err(format!("{}: column '{}' row {row}: {what}", self.table, self.name))
    }

    fn u64(&self, row: usize) -> Result<u64, CodecError> {
        match self.cells[row].as_u64() {
            Some(v) => Ok(v),
            None => self.bad(row, "must be a u64"),
        }
    }

    /// Ids, indices, and counts are `u32` in memory (see [`u32_field`]).
    fn u32(&self, row: usize) -> Result<u32, CodecError> {
        let wide = self.u64(row)?;
        u32::try_from(wide).or_else(|_| self.bad(row, format_args!("{wide} exceeds u32")))
    }

    fn f64(&self, row: usize) -> Result<f64, CodecError> {
        match self.cells[row].as_f64() {
            Some(v) => Ok(v),
            None => self.bad(row, "must be a number"),
        }
    }

    fn bool(&self, row: usize) -> Result<bool, CodecError> {
        match self.cells[row].as_bool() {
            Some(v) => Ok(v),
            None => self.bad(row, "must be a bool"),
        }
    }

    fn time(&self, row: usize) -> Result<Time, CodecError> {
        Ok(Time::from_micros(self.u64(row)?))
    }

    fn dur(&self, row: usize) -> Result<Dur, CodecError> {
        Ok(Dur::from_micros(self.u64(row)?))
    }
}

// ---------------------------------------------------------------- versioning

/// Read the `format_version` stamp off an artifact.
pub fn artifact_version(v: &Json) -> Result<u64, CodecError> {
    u64_field(v, "format_version")
}

/// Reject artifacts from a future (or unknown past) format.
pub fn check_version(v: &Json) -> Result<(), CodecError> {
    let got = artifact_version(v)?;
    if got != FORMAT_VERSION {
        return err(format!(
            "unsupported format_version {got} (this build reads version {FORMAT_VERSION}); \
             re-export the artifact with a matching toolchain"
        ));
    }
    Ok(())
}

// --------------------------------------------------------------------- units

pub(crate) fn write_resources(w: &mut Writer, r: &ResourceVec) {
    w.begin_obj();
    w.key("bw").f64(r.bw).key("cpu").f64(r.cpu).key("disk").f64(r.disk).key("mem").f64(r.mem);
    w.end_obj();
}

fn resources_from_json(v: &Json) -> Result<ResourceVec, CodecError> {
    Ok(ResourceVec::new(
        f64_field(v, "cpu")?,
        f64_field(v, "mem")?,
        f64_field(v, "disk")?,
        f64_field(v, "bw")?,
    ))
}

// ---------------------------------------------------------------------- jobs

pub(crate) fn class_to_str(c: JobClass) -> &'static str {
    match c {
        JobClass::Small => "Small",
        JobClass::Medium => "Medium",
        JobClass::Large => "Large",
    }
}

pub(crate) fn class_from_str(s: &str) -> Option<JobClass> {
    match s {
        "Small" => Some(JobClass::Small),
        "Medium" => Some(JobClass::Medium),
        "Large" => Some(JobClass::Large),
        _ => None,
    }
}

fn write_task_specs(w: &mut Writer, tasks: &[TaskSpec]) {
    w.begin_obj().key("demand").begin_obj();
    f64_col(w, "bw", tasks, |t| t.demand.bw);
    f64_col(w, "cpu", tasks, |t| t.demand.cpu);
    f64_col(w, "disk", tasks, |t| t.demand.disk);
    f64_col(w, "mem", tasks, |t| t.demand.mem);
    w.end_obj();
    f64_col(w, "est_size", tasks, |t| t.est_size.get());
    u64_col(w, "recovery", tasks, |t| t.recovery.as_micros());
    f64_col(w, "size", tasks, |t| t.size.get());
    w.end_obj();
}

fn task_specs_from_json(v: &Json) -> Result<Vec<TaskSpec>, CodecError> {
    let mut t = Table::new("tasks", v);
    let (bw, cpu) = (t.col("demand.bw")?, t.col("demand.cpu")?);
    let (disk, mem) = (t.col("demand.disk")?, t.col("demand.mem")?);
    let (est_size, recovery, size) = (t.col("est_size")?, t.col("recovery")?, t.col("size")?);
    t.rows(|i| {
        Ok(TaskSpec {
            size: Mi::new(size.f64(i)?),
            est_size: Mi::new(est_size.f64(i)?),
            demand: ResourceVec::new(cpu.f64(i)?, mem.f64(i)?, disk.f64(i)?, bw.f64(i)?),
            recovery: recovery.dur(i)?,
        })
    })
}

/// Write dependency edges as `[[from,to],…]`.
pub(crate) fn write_edges(w: &mut Writer, edges: impl IntoIterator<Item = (u32, u32)>) {
    w.arr(edges, |w, (u, v)| {
        w.begin_arr().u64(u64::from(u)).u64(u64::from(v)).end_arr();
    });
}

fn edges_from_json(v: &[Json], n: usize) -> Result<Dag, CodecError> {
    let mut dag = Dag::new(n);
    for e in v {
        let pair = e.as_arr().filter(|p| p.len() == 2);
        let pair = pair.ok_or_else(|| CodecError("edge must be a [from,to] pair".into()))?;
        let from =
            pair[0].as_u64().ok_or_else(|| CodecError("edge endpoint must be u64".into()))?;
        let to = pair[1].as_u64().ok_or_else(|| CodecError("edge endpoint must be u64".into()))?;
        if from >= n as u64 || to >= n as u64 {
            return err(format!("edge ({from},{to}) out of range for {n} tasks"));
        }
        dag.add_edge(from as u32, to as u32)
            .map_err(|e| CodecError(format!("bad edge ({from},{to}): {e:?}")))?;
    }
    Ok(dag)
}

fn write_job(w: &mut Writer, job: &Job) {
    w.begin_obj();
    w.key("arrival").u64(job.arrival.as_micros());
    w.key("class").str(class_to_str(job.class));
    w.key("deadline").u64(job.deadline.as_micros());
    w.key("edges");
    write_edges(w, job.dag.edges());
    w.key("id").u64(u64::from(job.id.0));
    w.key("tasks");
    write_task_specs(w, &job.tasks);
    w.end_obj();
}

/// Decode one job (levels are recomputed by `Job::new`).
pub fn job_from_json(v: &Json) -> Result<Job, CodecError> {
    let id = JobId(u32_field(v, "id")?);
    let tasks = task_specs_from_json(field(v, "tasks")?)?;
    if tasks.is_empty() {
        return err("job has no tasks");
    }
    let dag = edges_from_json(arr_field(v, "edges")?, tasks.len())?;
    let class = str_field(v, "class")?;
    Ok(Job::new(
        id,
        class_from_str(class).ok_or_else(|| CodecError(format!("unknown job class '{class}'")))?,
        time_field(v, "arrival")?,
        time_field(v, "deadline")?,
        tasks,
        dag,
    ))
}

// ------------------------------------------------------------------ schedule

fn write_assignments(w: &mut Writer, rows: &[Assignment]) {
    w.begin_obj();
    u64_col(w, "index", rows, |a| u64::from(a.task.index));
    u64_col(w, "job", rows, |a| u64::from(a.task.job.0));
    u64_col(w, "node", rows, |a| u64::from(a.node.0));
    u64_col(w, "start", rows, |a| a.start.as_micros());
    w.end_obj();
}

fn assignments_from_json(v: &Json) -> Result<Schedule, CodecError> {
    let mut t = Table::new("schedule", v);
    let (index, job, node, start) =
        (t.col("index")?, t.col("job")?, t.col("node")?, t.col("start")?);
    let assignments = t.rows(|i| {
        Ok(Assignment {
            task: TaskId { job: JobId(job.u32(i)?), index: index.u32(i)? },
            node: NodeId(node.u32(i)?),
            start: start.time(i)?,
        })
    })?;
    Ok(Schedule { assignments })
}

// ------------------------------------------------------------------- history

fn write_history(w: &mut Writer, h: &ExecHistory) {
    let rows = &h.tasks[..];
    w.begin_obj().key("sigma").u64(h.sigma.as_micros()).key("tasks").begin_obj();
    bool_col(w, "completed", rows, |t| t.completed);
    f64_col(w, "executed", rows, |t| t.executed.get());
    u64_col(w, "finish", rows, |t| t.finish.as_micros());
    u64_col(w, "index", rows, |t| u64::from(t.task.index));
    u64_col(w, "job", rows, |t| u64::from(t.task.job.0));
    f64_col(w, "lost", rows, |t| t.lost.get());
    u64_col(w, "node", rows, |t| u64::from(t.node.0));
    u64_col(w, "overhead_paid", rows, |t| t.overhead_paid.as_micros());
    u64_col(w, "planned_start", rows, |t| t.planned_start.as_micros());
    u64_col(w, "preemptions", rows, |t| u64::from(t.preemptions));
    u64_col(w, "recovery", rows, |t| t.recovery.as_micros());
    u64_col(w, "recovery_charges", rows, |t| u64::from(t.recovery_charges));
    f64_col(w, "size", rows, |t| t.size.get());
    w.end_obj().end_obj();
}

fn history_from_json(v: &Json) -> Result<ExecHistory, CodecError> {
    let mut t = Table::new("history.tasks", field(v, "tasks")?);
    let (completed, executed, finish) = (t.col("completed")?, t.col("executed")?, t.col("finish")?);
    let (index, job, lost, node) = (t.col("index")?, t.col("job")?, t.col("lost")?, t.col("node")?);
    let (overhead_paid, planned_start) = (t.col("overhead_paid")?, t.col("planned_start")?);
    let (preemptions, recovery) = (t.col("preemptions")?, t.col("recovery")?);
    let (recovery_charges, size) = (t.col("recovery_charges")?, t.col("size")?);
    let tasks = t.rows(|i| {
        Ok(TaskHistory {
            task: TaskId { job: JobId(job.u32(i)?), index: index.u32(i)? },
            node: NodeId(node.u32(i)?),
            planned_start: planned_start.time(i)?,
            finish: finish.time(i)?,
            completed: completed.bool(i)?,
            preemptions: preemptions.u32(i)?,
            recovery_charges: recovery_charges.u32(i)?,
            overhead_paid: overhead_paid.dur(i)?,
            executed: Mi::new(executed.f64(i)?),
            lost: Mi::new(lost.f64(i)?),
            size: Mi::new(size.f64(i)?),
            recovery: recovery.dur(i)?,
        })
    })?;
    Ok(ExecHistory { sigma: dur_field(v, "sigma")?, tasks })
}

// ------------------------------------------------------------------- cluster

fn write_node(w: &mut Writer, n: &Node) {
    w.begin_obj().key("capacity");
    write_resources(w, &n.capacity);
    w.key("id").u64(u64::from(n.id.0));
    w.key("s_cpu").f64(n.s_cpu).key("s_mem").f64(n.s_mem);
    w.key("slots").u64(n.slots as u64);
    w.key("theta1").f64(n.theta1).key("theta2").f64(n.theta2).end_obj();
}

fn node_from_json(v: &Json) -> Result<Node, CodecError> {
    let mut node = Node::new(
        NodeId(u32_field(v, "id")?),
        f64_field(v, "s_cpu")?,
        f64_field(v, "s_mem")?,
        resources_from_json(field(v, "capacity")?)?,
        u32_field(v, "slots")? as usize,
    );
    node.theta1 = f64_field(v, "theta1")?;
    node.theta2 = f64_field(v, "theta2")?;
    Ok(node)
}

fn write_cluster(w: &mut Writer, c: &ClusterSpec) {
    w.begin_obj().key("name").str(&c.name);
    w.key("nodes").arr(&c.nodes, write_node).end_obj();
}

/// Decode a cluster inventory.
pub fn cluster_from_json(v: &Json) -> Result<ClusterSpec, CodecError> {
    Ok(ClusterSpec {
        name: str_field(v, "name")?.to_string(),
        nodes: arr_field(v, "nodes")?.iter().map(node_from_json).collect::<Result<_, _>>()?,
    })
}

// ------------------------------------------------------------------ progress

/// Write a job's live progress (wire `status` response payload).
pub(crate) fn write_progress(w: &mut Writer, p: &JobProgress) {
    w.begin_obj().key("completed").bool(p.completed).key("finish");
    match p.finish {
        Some(t) => w.u64(t.as_micros()),
        None => w.null(),
    };
    w.key("finished").u64(p.finished as u64);
    w.key("running").u64(p.running as u64);
    w.key("total").u64(p.total as u64);
    w.key("waiting").u64(p.waiting as u64).end_obj();
}

// ------------------------------------------------------------------- metrics

/// Write the headline metrics (wire `metrics` response payload).
pub(crate) fn write_metrics(w: &mut Writer, m: &RunMetrics) {
    w.begin_obj();
    w.key("deadline_hit_rate").f64(m.deadline_hit_rate());
    w.key("disorders").u64(m.disorders);
    w.key("end_time_us").u64(m.end_time.as_micros());
    w.key("fault_rescheduled").u64(m.fault_rescheduled);
    w.key("jobs_completed").u64(m.jobs_completed() as u64);
    w.key("makespan_us").u64(m.makespan().as_micros());
    w.key("node_failures").u64(m.node_failures);
    w.key("preemption_attempts").u64(m.preemption_attempts());
    w.key("preemptions").u64(m.preemptions);
    w.key("refusals").u64(m.refusals);
    w.key("switch_overhead_us").u64(m.switch_overhead.as_micros());
    w.key("tasks_completed").u64(m.tasks_completed).end_obj();
}

/// Encode the headline metrics.
pub fn metrics_to_json(m: &RunMetrics) -> Json {
    Json::encode(|w| write_metrics(w, m))
}

// ------------------------------------------------------------------ snapshot

/// The drained state of a service run: everything `dsp verify` needs to
/// audit the execution offline (jobs + schedule + cluster + trace), plus
/// the headline metrics for humans.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The cluster the service ran on.
    pub cluster: ClusterSpec,
    /// Every job admitted over the run, ascending id.
    pub jobs: Vec<Job>,
    /// The combined offline schedule (all period batches merged).
    pub schedule: Schedule,
    /// Per-task execution accounting.
    pub history: ExecHistory,
    /// Headline counters at drain time.
    pub metrics: RunMetrics,
}

impl Snapshot {
    /// Write as a versioned artifact — what replies embed, at a cost in
    /// bytes written rather than nodes built.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.begin_obj().key("cluster");
        write_cluster(w, &self.cluster);
        w.key("format_version").u64(FORMAT_VERSION).key("history");
        write_history(w, &self.history);
        w.key("jobs").arr(&self.jobs, write_job);
        w.key("kind").str("snapshot").key("metrics");
        write_metrics(w, &self.metrics);
        w.key("schedule");
        write_assignments(w, &self.schedule.assignments);
        w.end_obj();
    }

    /// Encode as a versioned artifact.
    pub fn to_json(&self) -> Json {
        Json::encode(|w| self.write(w))
    }

    /// Decode a versioned snapshot artifact; any other `kind` is refused.
    /// Metrics are not decoded (they are derived, human-facing output);
    /// verification needs only the jobs/schedule/cluster/history quartet.
    pub fn from_json(v: &Json) -> Result<Snapshot, CodecError> {
        check_version(v)?;
        let kind = str_field(v, "kind")?;
        if kind != "snapshot" {
            return err(format!(
                "kind '{kind}' is not a snapshot, the one artifact this build reads; \
                 write one with `dsp --out FILE`"
            ));
        }
        let jobs: Vec<Job> =
            arr_field(v, "jobs")?.iter().map(job_from_json).collect::<Result<_, _>>()?;
        Ok(Snapshot {
            cluster: cluster_from_json(field(v, "cluster")?)?,
            jobs,
            schedule: assignments_from_json(field(v, "schedule")?)?,
            history: history_from_json(field(v, "history")?)?,
            metrics: RunMetrics::default(),
        })
    }

    /// Audit the snapshot against the full rule set: R1–R4 on the schedule
    /// (deadline misses are warnings) and R5–R6 on the execution history.
    pub fn verify(&self) -> dsp_verify::Report {
        let opts = dsp_verify::VerifyOptions::default();
        dsp_verify::audit(&self.schedule, &self.jobs, &self.cluster, &opts, &self.history, None)
    }
}

// ------------------------------------------------------------------- framing
//
// The wire protocol is newline-delimited JSON. The epoll reactor
// (DESIGN.md §10.6) feeds raw reads through this state machine: frame
// semantics — splitting, pipelining, the oversize limit — hold for any
// chunking of the byte stream.

/// Default per-frame byte limit (1 MiB). A 100-job submit batch is
/// ~100 KiB, so this is an order of magnitude of headroom; anything
/// larger is a protocol violation, not a workload.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// A framing violation. The reactor maps this to a `bad_request`
/// protocol error and closes the connection: once framing is lost there
/// is no way to resynchronize the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A frame (terminated or still accumulating) exceeded the limit.
    /// Rejecting the *incomplete* prefix is what bounds memory: a peer
    /// that never sends `\n` cannot grow the buffer past `limit`.
    Oversized {
        /// Bytes seen so far for the offending frame.
        size: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The frame is not valid UTF-8 (the protocol is JSON text).
    Utf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { size, limit } => {
                write!(f, "frame of {size}+ bytes exceeds the {limit}-byte limit")
            }
            FrameError::Utf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

/// Accumulates raw socket reads and yields complete newline-terminated
/// frames. Handles frames split at arbitrary byte boundaries, multiple
/// pipelined frames per read, and enforces [`FrameError::Oversized`] on
/// unbounded unterminated input.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix: bytes before this offset were already returned.
    start: usize,
    /// Newline scan resumes here (absolute offset) so repeated
    /// `next_frame` calls over one long partial frame stay linear.
    scanned: usize,
    max_frame: usize,
}

impl FrameBuffer {
    /// A buffer enforcing `max_frame` bytes per frame (0 = default).
    pub fn new(max_frame: usize) -> FrameBuffer {
        let limit = if max_frame == 0 { DEFAULT_MAX_FRAME } else { max_frame };
        FrameBuffer { buf: Vec::new(), start: 0, scanned: 0, max_frame: limit }
    }

    /// Append one raw read.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing: keeps the buffer
        // bounded by max_frame + one read regardless of frame count.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame (without its `\n`), `Ok(None)` if
    /// more bytes are needed, or a [`FrameError`] once the stream is
    /// unrecoverable.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        let unscanned = self.buf.get(self.scanned..).unwrap_or_default();
        match unscanned.iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scanned + off;
                let frame = self.buf.get(self.start..end).unwrap_or_default();
                if frame.len() > self.max_frame {
                    return Err(FrameError::Oversized { size: frame.len(), limit: self.max_frame });
                }
                let text = match std::str::from_utf8(frame) {
                    Ok(s) => s.to_string(),
                    Err(_) => return Err(FrameError::Utf8),
                };
                self.start = end + 1;
                self.scanned = self.start;
                Ok(Some(text))
            }
            None => {
                self.scanned = self.buf.len();
                let pending = self.pending();
                if pending > self.max_frame {
                    return Err(FrameError::Oversized { size: pending, limit: self.max_frame });
                }
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::parse;
    use dsp_units::Mips;
    use std::collections::BTreeMap;

    /// The encoders as they were before the streaming [`Writer`]: one
    /// `Json` node per value, keys sorted by the `BTreeMap`. Kept as the
    /// reference every streamed shape is compared against, byte for byte.
    pub(crate) mod oracle {
        use super::super::*;

        fn stamp(kind: &str, mut fields: Vec<(&str, Json)>) -> Json {
            fields.push(("format_version", Json::U64(FORMAT_VERSION)));
            fields.push(("kind", Json::Str(kind.to_string())));
            Json::obj(fields)
        }

        pub(crate) fn resources(r: &ResourceVec) -> Json {
            Json::obj(vec![
                ("cpu", Json::F64(r.cpu)),
                ("mem", Json::F64(r.mem)),
                ("disk", Json::F64(r.disk)),
                ("bw", Json::F64(r.bw)),
            ])
        }

        /// One column's value in a row.
        type Cell<'a, T> = &'a dyn Fn(&T) -> Json;

        /// A table of named columns: each `(key, cell)` is one array
        /// holding `cell` of every row.
        fn columns<T>(rows: &[T], cols: &[(&str, Cell<T>)]) -> Json {
            let column = |cell: &dyn Fn(&T) -> Json| Json::Arr(rows.iter().map(cell).collect());
            Json::obj(cols.iter().map(|&(key, cell)| (key, column(cell))).collect())
        }

        fn task_specs(tasks: &[TaskSpec]) -> Json {
            let demand = columns(
                tasks,
                &[
                    ("cpu", &|t| Json::F64(t.demand.cpu)),
                    ("mem", &|t| Json::F64(t.demand.mem)),
                    ("disk", &|t| Json::F64(t.demand.disk)),
                    ("bw", &|t| Json::F64(t.demand.bw)),
                ],
            );
            let Json::Obj(mut table) = columns(
                tasks,
                &[
                    ("size", &|t| Json::F64(t.size.get())),
                    ("est_size", &|t| Json::F64(t.est_size.get())),
                    ("recovery", &|t| Json::U64(t.recovery.as_micros())),
                ],
            ) else {
                unreachable!()
            };
            table.insert("demand".into(), demand);
            Json::Obj(table)
        }

        pub(crate) fn edges(edges: impl Iterator<Item = (u32, u32)>) -> Json {
            let pair = |(u, v)| Json::Arr(vec![Json::U64(u64::from(u)), Json::U64(u64::from(v))]);
            Json::Arr(edges.map(pair).collect())
        }

        pub(crate) fn job(job: &Job) -> Json {
            Json::obj(vec![
                ("id", Json::U64(u64::from(job.id.0))),
                ("class", Json::Str(class_to_str(job.class).to_string())),
                ("arrival", Json::U64(job.arrival.as_micros())),
                ("deadline", Json::U64(job.deadline.as_micros())),
                ("tasks", task_specs(&job.tasks)),
                ("edges", edges(job.dag.edges())),
            ])
        }

        fn assignments(rows: &[Assignment]) -> Json {
            columns(
                rows,
                &[
                    ("job", &|a| Json::U64(u64::from(a.task.job.0))),
                    ("index", &|a| Json::U64(u64::from(a.task.index))),
                    ("node", &|a| Json::U64(u64::from(a.node.0))),
                    ("start", &|a| Json::U64(a.start.as_micros())),
                ],
            )
        }

        fn history(h: &ExecHistory) -> Json {
            let tasks = columns(
                &h.tasks,
                &[
                    ("job", &|t| Json::U64(u64::from(t.task.job.0))),
                    ("index", &|t| Json::U64(u64::from(t.task.index))),
                    ("node", &|t| Json::U64(u64::from(t.node.0))),
                    ("planned_start", &|t| Json::U64(t.planned_start.as_micros())),
                    ("finish", &|t| Json::U64(t.finish.as_micros())),
                    ("completed", &|t| Json::Bool(t.completed)),
                    ("preemptions", &|t| Json::U64(u64::from(t.preemptions))),
                    ("recovery_charges", &|t| Json::U64(u64::from(t.recovery_charges))),
                    ("overhead_paid", &|t| Json::U64(t.overhead_paid.as_micros())),
                    ("executed", &|t| Json::F64(t.executed.get())),
                    ("lost", &|t| Json::F64(t.lost.get())),
                    ("size", &|t| Json::F64(t.size.get())),
                    ("recovery", &|t| Json::U64(t.recovery.as_micros())),
                ],
            );
            Json::obj(vec![("sigma", Json::U64(h.sigma.as_micros())), ("tasks", tasks)])
        }

        fn node(n: &Node) -> Json {
            Json::obj(vec![
                ("id", Json::U64(u64::from(n.id.0))),
                ("s_cpu", Json::F64(n.s_cpu)),
                ("s_mem", Json::F64(n.s_mem)),
                ("capacity", resources(&n.capacity)),
                ("slots", Json::U64(n.slots as u64)),
                ("theta1", Json::F64(n.theta1)),
                ("theta2", Json::F64(n.theta2)),
            ])
        }

        pub(crate) fn cluster(c: &ClusterSpec) -> Json {
            Json::obj(vec![
                ("name", Json::Str(c.name.clone())),
                ("nodes", Json::Arr(c.nodes.iter().map(node).collect())),
            ])
        }

        pub(crate) fn progress(p: &JobProgress) -> Json {
            Json::obj(vec![
                ("total", Json::U64(p.total as u64)),
                ("finished", Json::U64(p.finished as u64)),
                ("running", Json::U64(p.running as u64)),
                ("waiting", Json::U64(p.waiting as u64)),
                ("completed", Json::Bool(p.completed)),
                ("finish", p.finish.map_or(Json::Null, |t| Json::U64(t.as_micros()))),
            ])
        }

        pub(crate) fn metrics(m: &RunMetrics) -> Json {
            Json::obj(vec![
                ("tasks_completed", Json::U64(m.tasks_completed)),
                ("jobs_completed", Json::U64(m.jobs_completed() as u64)),
                ("preemptions", Json::U64(m.preemptions)),
                ("preemption_attempts", Json::U64(m.preemption_attempts())),
                ("disorders", Json::U64(m.disorders)),
                ("refusals", Json::U64(m.refusals)),
                ("switch_overhead_us", Json::U64(m.switch_overhead.as_micros())),
                ("end_time_us", Json::U64(m.end_time.as_micros())),
                ("makespan_us", Json::U64(m.makespan().as_micros())),
                ("deadline_hit_rate", Json::F64(m.deadline_hit_rate())),
                ("node_failures", Json::U64(m.node_failures)),
                ("fault_rescheduled", Json::U64(m.fault_rescheduled)),
            ])
        }

        pub(crate) fn snapshot(s: &Snapshot) -> Json {
            stamp(
                "snapshot",
                vec![
                    ("cluster", cluster(&s.cluster)),
                    ("jobs", Json::Arr(s.jobs.iter().map(job).collect())),
                    ("schedule", assignments(&s.schedule.assignments)),
                    ("history", history(&s.history)),
                    ("metrics", metrics(&s.metrics)),
                ],
            )
        }
    }

    fn sample_job(id: u32) -> Job {
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(0, 2).unwrap();
        Job::new(
            JobId(id),
            JobClass::Small,
            Time::from_secs(5),
            Time::from_secs(900),
            vec![
                TaskSpec::sized(400.0),
                TaskSpec::sized(700.0).with_estimate(Mi::new(650.0)),
                TaskSpec::sized(300.0),
            ],
            dag,
        )
    }

    /// Values picked to sit on every branch of the number and string
    /// formatters: the `u64` sentinel, integral and huge and denormal
    /// floats, a signed zero, a control character, a non-BMP name.
    pub(crate) fn awkward_job(id: u32) -> Job {
        let sizes = [400.0, 1e21, 5e-324, f64::MAX, 0.1 + 0.2, 1e15, 123_456_789.0];
        let tasks = sizes
            .iter()
            .map(|&mi| TaskSpec {
                size: Mi::new(mi),
                est_size: Mi::new(mi / 3.0),
                demand: ResourceVec { cpu: 2.5, mem: f64::NAN, disk: -0.0, bw: f64::INFINITY },
                recovery: Dur::from_micros(u64::MAX),
            })
            .collect();
        let mut dag = Dag::new(sizes.len());
        dag.add_edge(0, 6).unwrap();
        dag.add_edge(2, 3).unwrap();
        Job::new(JobId(id), JobClass::Large, Time::ZERO, Time::MAX, tasks, dag)
    }

    /// A served run over generated and awkward jobs: every shape filled.
    fn served_snapshot() -> Snapshot {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let trace = dsp_trace::TraceParams { task_scale: 0.01, ..Default::default() };
        let mut jobs = dsp_trace::generate_workload(&mut rng, 12, &trace);
        jobs.push(sample_job(12));
        let mut cluster = dsp_cluster::ec2();
        cluster.name = "ec2 \u{1F600}\n\u{1}\"quoted\\\"".into();
        let schedule = dsp_sched::Scheduler::schedule(
            &mut dsp_sched::DspListScheduler::default(),
            &jobs,
            &cluster,
            Time::ZERO,
        );
        let mut engine =
            dsp_sim::Engine::new(jobs.clone(), cluster.clone(), dsp_sim::EngineConfig::default());
        engine.add_batch(Time::ZERO, schedule.clone());
        let metrics = engine.run(&mut dsp_sim::NoPreempt);
        let mut history = engine.history();
        history.tasks[0].lost = Mi::new(-0.0);
        jobs.push(awkward_job(13));
        Snapshot { cluster, jobs, schedule, history, metrics }
    }

    #[test]
    fn streamed_text_is_the_reference_trees_text_for_every_shape() {
        let snap = served_snapshot();
        assert!(snap.history.tasks.len() > 30 && snap.metrics.tasks_completed > 30);
        let same = |streamed: Json, tree: Json, what: &str| {
            // The one permitted difference: the tree printed `-0.0` as `-0`
            // until this writer; both now print the float.
            assert_eq!(streamed.to_string(), tree.to_string(), "{what}");
            assert_eq!(parse(&streamed.to_string()).unwrap(), parse(&tree.to_string()).unwrap());
        };
        same(snap.to_json(), oracle::snapshot(&snap), "snapshot");
        same(
            Json::encode(|w| write_cluster(w, &snap.cluster)),
            oracle::cluster(&snap.cluster),
            "cluster",
        );
        same(metrics_to_json(&snap.metrics), oracle::metrics(&snap.metrics), "metrics");
        for job in &snap.jobs {
            same(Json::encode(|w| write_job(w, job)), oracle::job(job), "job");
        }
        let running = JobProgress {
            total: 9,
            finished: 3,
            running: 2,
            waiting: 4,
            completed: false,
            finish: None,
        };
        let done = JobProgress { completed: true, finish: Some(Time::MAX), ..running };
        same(Json::encode(|w| write_progress(w, &running)), oracle::progress(&running), "progress");
        same(Json::encode(|w| write_progress(w, &done)), oracle::progress(&done), "progress");
        let empty = Snapshot {
            cluster: ClusterSpec { name: String::new(), nodes: vec![] },
            jobs: vec![],
            schedule: Schedule::new(),
            history: ExecHistory { sigma: Dur::ZERO, tasks: vec![] },
            metrics: RunMetrics::default(),
        };
        same(empty.to_json(), oracle::snapshot(&empty), "empty snapshot");
        // Awkward values survive the trip, sign of zero included.
        let text = snap.to_json().to_string();
        assert!(text.contains("\"lost\":[-0.0,") && text.contains("\"mem\":[null,"), "{text}");
        assert!(text.contains("\\ud83d") || text.contains('\u{1F600}'));
        let back = history_from_json(parse(&text).unwrap().get("history").unwrap());
        assert!(back.unwrap().tasks[0].lost.get().is_sign_negative());
    }

    #[test]
    fn job_roundtrips_through_text() {
        let job = sample_job(7);
        let text = Json::encode(|w| write_job(w, &job)).to_string();
        let back = job_from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, job);
        assert_eq!(back.levels(), job.levels(), "levels must be recomputed identically");
    }

    #[test]
    fn unset_deadline_sentinel_survives() {
        let mut dag_job = sample_job(0);
        dag_job.deadline = Time::MAX;
        let back =
            job_from_json(&parse(&Json::encode(|w| write_job(w, &dag_job)).to_string()).unwrap())
                .unwrap();
        assert_eq!(back.deadline, Time::MAX);
    }

    #[test]
    fn artifacts_are_stamped_and_checked() {
        let mut snap = served_snapshot();
        // The awkward job's NaN demand is written as `null`: it does not decode.
        snap.jobs.pop();
        let art = snap.to_json();
        assert_eq!(artifact_version(&art).unwrap(), FORMAT_VERSION);
        assert_eq!(Snapshot::from_json(&art).unwrap().schedule, snap.schedule);

        // A future version must be refused, not misread.
        let stamp = |key: &str, value: Json| {
            edited(&art, &decode_snapshot, |v| {
                obj(v, &[]).insert(key.into(), value);
            })
            .unwrap_err()
        };
        let e = stamp("format_version", Json::U64(FORMAT_VERSION + 1));
        assert!(e.0.contains("unsupported format_version"), "{e}");
        // So must any other kind, such as the jobs, schedule and trace
        // files that the run mode once wrote.
        for kind in ["jobs", "schedule", "trace"] {
            let e = stamp("kind", Json::Str(kind.into()));
            assert!(e.0.starts_with(&format!("kind '{kind}' is not a snapshot")), "{e}");
            assert!(e.0.contains("dsp --out"), "{e}");
        }
    }

    /// The value at `path` (object keys), descending into the first item
    /// of every array met on the way: `["jobs", "id"]` is the first job's
    /// id, `["history", "tasks", "node"]` the first cell of that column.
    fn at<'a>(v: &'a mut Json, path: &[&str]) -> &'a mut Json {
        let v = match v {
            Json::Arr(items) => &mut items[0],
            v => v,
        };
        let Some((key, rest)) = path.split_first() else { return v };
        let Json::Obj(map) = v else { panic!("not an object at {key}") };
        at(map.get_mut(*key).unwrap_or_else(|| panic!("no {key}")), rest)
    }

    /// The object at `path`, as [`at`] finds it.
    fn obj<'a>(v: &'a mut Json, path: &[&str]) -> &'a mut BTreeMap<String, Json> {
        match at(v, path) {
            Json::Obj(map) => map,
            _ => panic!("not an object at {path:?}"),
        }
    }

    /// A decoder's verdict on `artifact` after `edit` of its parsed tree.
    fn edited(
        artifact: &Json,
        decode: &dyn Fn(&Json) -> Result<(), CodecError>,
        edit: impl FnOnce(&mut Json),
    ) -> Result<(), CodecError> {
        let mut tree = parse(&artifact.to_string()).unwrap();
        assert_eq!(decode(&tree), Ok(()), "the untouched artifact decodes");
        edit(&mut tree);
        decode(&tree)
    }

    type Decode = fn(&Json) -> Result<(), CodecError>;

    /// The snapshot decoder's verdict, without the snapshot.
    fn decode_snapshot(v: &Json) -> Result<(), CodecError> {
        Snapshot::from_json(v).map(drop)
    }

    /// The object keys from the snapshot to `column`'s array in the table
    /// at `path`, the last of them apart.
    fn column_keys(
        path: &[&'static str],
        column: &'static str,
    ) -> (Vec<&'static str>, &'static str) {
        let mut keys: Vec<&str> = path.iter().copied().chain(column.split('.')).collect();
        let key = keys.pop().expect("a column name");
        (keys, key)
    }

    /// Every table of named columns in the snapshot: the object keys from
    /// the snapshot to it, what errors call it, and its columns.
    const TABLES: &[(&[&str], &str, &[&str])] = &[
        (
            &["jobs", "tasks"],
            "tasks",
            &[
                "demand.bw",
                "demand.cpu",
                "demand.disk",
                "demand.mem",
                "est_size",
                "recovery",
                "size",
            ],
        ),
        (&["schedule"], "schedule", &["index", "job", "node", "start"]),
        (
            &["history", "tasks"],
            "history.tasks",
            &[
                "completed",
                "executed",
                "finish",
                "index",
                "job",
                "lost",
                "node",
                "overhead_paid",
                "planned_start",
                "preemptions",
                "recovery",
                "recovery_charges",
                "size",
            ],
        ),
    ];

    #[test]
    fn ids_wider_than_u32_are_refused_in_every_shape() {
        let mut snap = served_snapshot();
        // The awkward job's NaN demand is written as `null`: it does not decode.
        snap.jobs.pop();
        let art = snap.to_json();
        let narrow = ["index", "job", "node", "preemptions", "recovery_charges"];
        let wide = || Json::U64(u64::from(u32::MAX) + 1);
        let mut checked = 0;
        for &(path, table, columns) in TABLES {
            for &column in columns.iter().filter(|c| narrow.contains(c)) {
                let (mut cell, key) = column_keys(path, column);
                cell.push(key);
                let e = edited(&art, &decode_snapshot, |v| *at(v, &cell) = wide()).unwrap_err();
                let want = format!("{table}: column '{column}' row 0: 4294967296 exceeds u32");
                assert_eq!(e.0, want);
                checked += 1;
            }
        }
        assert_eq!(checked, 8, "three assignment and five history columns");
        let cluster: Decode = |v| cluster_from_json(v).map(drop);
        let fields: [(Json, &[&str], Decode); 3] = [
            (Json::encode(|w| write_cluster(w, &snap.cluster)), &["nodes", "id"], cluster),
            (Json::encode(|w| write_cluster(w, &snap.cluster)), &["nodes", "slots"], cluster),
            (art, &["jobs", "id"], decode_snapshot),
        ];
        for (artifact, path, decode) in fields {
            let e = edited(&artifact, &decode, |t| *at(t, path) = wide()).unwrap_err();
            assert!(e.0.contains(path[1]) && e.0.contains("exceeds u32"), "{e}");
        }
    }

    #[test]
    fn every_column_is_present_an_array_as_long_as_the_others_and_typed() {
        let mut snap = served_snapshot();
        // The snapshot must decode before it is edited: drop the NaN job.
        snap.jobs.pop();
        let art = snap.to_json();
        for &(path, table, columns) in TABLES {
            for &column in columns {
                let (parent, key) = column_keys(path, column);
                let e = edited(&art, &decode_snapshot, |t| {
                    obj(t, &parent).remove(key).unwrap();
                })
                .unwrap_err();
                assert_eq!(e.0, format!("{table}: missing column '{column}'"));
                let e = edited(&art, &decode_snapshot, |t| {
                    obj(t, &parent).insert(key.into(), Json::U64(0));
                })
                .unwrap_err();
                assert_eq!(e.0, format!("{table}: column '{column}' must be an array"));
                let mut rows = 0;
                let e = edited(&art, &decode_snapshot, |t| {
                    let Some(Json::Arr(cells)) = obj(t, &parent).get_mut(key) else { panic!() };
                    rows = cells.len();
                    cells.pop();
                })
                .unwrap_err();
                assert!(e.0.starts_with(&format!("{table}: column '")), "{e}");
                assert!(e.0.contains(&format!("'{column}' has {}", rows - 1)), "{e}");
                let e = edited(&art, &decode_snapshot, |t| {
                    let Some(Json::Arr(cells)) = obj(t, &parent).get_mut(key) else { panic!() };
                    cells[rows - 1] = Json::Str("x".into());
                })
                .unwrap_err();
                let want = format!("{table}: column '{column}' row {}: must be a", rows - 1);
                assert!(e.0.starts_with(&want), "{e}");
            }
        }
    }

    #[test]
    fn cluster_roundtrips() {
        let c = dsp_cluster::uniform(4, 2000.0, 2);
        let back =
            cluster_from_json(&parse(&Json::encode(|w| write_cluster(w, &c)).to_string()).unwrap())
                .unwrap();
        assert_eq!(back, c);
        assert_eq!(back.node(NodeId(2)).rate(), Mips::new(2000.0));
    }

    #[test]
    fn snapshot_roundtrips_and_verifies() {
        let cluster = dsp_cluster::uniform(2, 1000.0, 2);
        let jobs = vec![sample_job(0)];
        let mut schedule = Schedule::new();
        // Root at 5 s (400 MI at 1000 MIPS = 0.4 s); children strictly
        // after its planned finish so R2 precedence holds.
        schedule.assign(TaskId::new(0, 0), NodeId(0), Time::from_secs(5));
        schedule.assign(TaskId::new(0, 1), NodeId(1), Time::from_secs(6));
        schedule.assign(TaskId::new(0, 2), NodeId(0), Time::from_secs(6));
        let mut engine =
            dsp_sim::Engine::new(jobs.clone(), cluster.clone(), dsp_sim::EngineConfig::default());
        engine.add_batch(Time::from_secs(5), schedule.clone());
        let metrics = engine.run(&mut dsp_sim::NoPreempt);
        let snap = Snapshot { cluster, jobs, schedule, history: engine.history(), metrics };
        assert!(snap.verify().passes(), "{:?}", snap.verify());

        // Decoded from the parsed text and straight from the streamed value.
        let back = Snapshot::from_json(&parse(&snap.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, Snapshot::from_json(&snap.to_json()).unwrap());
        assert_eq!(back.jobs, snap.jobs);
        assert_eq!(back.schedule, snap.schedule);
        assert_eq!(back.history, snap.history);
        assert!(back.verify().passes());
    }

    /// The drained state of the `svc_submit_sat` benchmark workload — 2000
    /// generated jobs through a frozen-clock `fifo`/`none` driver — encodes,
    /// parses, decodes to itself and audits clean. Minutes in a debug build.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn a_2000_job_drained_snapshot_roundtrips_and_verifies() {
        use rand::SeedableRng;
        let params = dsp_core::config::Params::default();
        let trace = dsp_trace::TraceParams { task_scale: 0.005, ..Default::default() };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2018);
        let jobs = dsp_trace::generate_workload(&mut rng, 2000, &trace);
        let mut driver = crate::OnlineDriver::new(
            dsp_cluster::ec2(),
            params.engine,
            params.sched_period,
            Box::new(dsp_sched::FifoScheduler),
            Box::new(dsp_sim::NoPreempt),
            crate::AdmissionConfig { max_pending_tasks: usize::MAX / 2, check_feasibility: false },
        );
        for chunk in jobs.chunks(2) {
            driver.submit(chunk.iter().map(crate::JobRequest::from_job).collect()).unwrap();
        }
        let snap = driver.drain();
        assert_eq!(snap.jobs.len(), 2000);
        let text = snap.to_json().into_text();
        assert!(text.len() > 2_000_000, "{} bytes", text.len());
        assert_eq!(text, oracle::snapshot(&snap).to_string());
        let back = Snapshot::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(
            (&back.jobs, &back.schedule, &back.history),
            (&snap.jobs, &snap.schedule, &snap.history)
        );
        assert_eq!(back.cluster, snap.cluster);
        assert!(back.verify().passes(), "{}", back.verify());
    }

    #[test]
    fn frames_reassemble_across_split_reads() {
        let mut fb = FrameBuffer::new(64);
        fb.push(b"{\"op\":");
        assert_eq!(fb.next_frame(), Ok(None));
        fb.push(b"\"ping\"}\n{\"op\":\"met");
        assert_eq!(fb.next_frame(), Ok(Some("{\"op\":\"ping\"}".to_string())));
        assert_eq!(fb.next_frame(), Ok(None));
        fb.push(b"rics\"}\n");
        assert_eq!(fb.next_frame(), Ok(Some("{\"op\":\"metrics\"}".to_string())));
        assert_eq!(fb.next_frame(), Ok(None));
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn pipelined_frames_pop_in_order() {
        let mut fb = FrameBuffer::new(64);
        fb.push(b"a\nbb\n\nccc\n");
        assert_eq!(fb.next_frame(), Ok(Some("a".to_string())));
        assert_eq!(fb.next_frame(), Ok(Some("bb".to_string())));
        assert_eq!(fb.next_frame(), Ok(Some(String::new())));
        assert_eq!(fb.next_frame(), Ok(Some("ccc".to_string())));
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn unterminated_overflow_is_rejected_before_a_newline_arrives() {
        let mut fb = FrameBuffer::new(8);
        fb.push(b"123456789");
        assert_eq!(fb.next_frame(), Err(FrameError::Oversized { size: 9, limit: 8 }));
    }

    #[test]
    fn oversized_complete_frame_is_rejected() {
        let mut fb = FrameBuffer::new(4);
        fb.push(b"ok\ntoolong\n");
        assert_eq!(fb.next_frame(), Ok(Some("ok".to_string())));
        assert_eq!(fb.next_frame(), Err(FrameError::Oversized { size: 7, limit: 4 }));
    }

    #[test]
    fn invalid_utf8_is_a_frame_error() {
        let mut fb = FrameBuffer::new(16);
        fb.push(&[0xff, 0xfe, b'\n']);
        assert_eq!(fb.next_frame(), Err(FrameError::Utf8));
    }

    #[test]
    fn zero_limit_selects_the_default() {
        let fb = FrameBuffer::new(0);
        assert_eq!(fb.max_frame, DEFAULT_MAX_FRAME);
    }
}
