//! The TCP front end: connection serving, and the clock that maps wall
//! time onto simulation time.
//!
//! Concurrency model (DESIGN.md §10.5, §10.7): the request path is split
//! into two lanes, and the write lane is **sharded**.
//!
//! * **Write lane** — `submit` and `drain` (plus the ticker's clock
//!   advances) are commands on *bounded* FIFO queues, one per shard,
//!   each drained by a single driver-owner thread. Every shard's
//!   [`OnlineDriver`] is owned by its thread outright — there is no
//!   mutex to convoy on — so mutations are serialized per shard, with
//!   FIFO fairness across connections and explicit backpressure (a full
//!   queue stalls the submitting client, not the whole service). The
//!   [`crate::router::Router`] decides which shard a submit lands on;
//!   `drain` goes to a coordinator thread that runs the two-phase
//!   federated drain.
//! * **Read lane** — `ping`, `status`, `metrics`, `snapshot` are served
//!   from per-shard [`SnapshotCell`]s: immutable [`StateSnapshot`]s each
//!   owner thread re-publishes after every mutation (and at every
//!   boundary of a drain). Read handlers hold no driver reference at all
//!   — the type split in [`wire::handle_read`] makes touching the driver
//!   impossible — so a drain running the simulation dry or a fat submit
//!   cannot stall a monitoring client. Staleness is bounded by one
//!   mutation per shard. With more than one shard the router aggregates
//!   the per-shard views into one federated reply (DESIGN.md §10.7).
//!
//! One **front end** serves connections against those lanes, picked by
//! the build target (DESIGN.md §10.6): on linux the reactor, a small
//! fixed pool of epoll event-loop threads whose count is independent of
//! connection count; everywhere else the `threads` fallback below, one
//! blocking handler thread per connection. Both share [`route_line`] and
//! the `FrameBuffer` framing state machine, and both resolve a write's
//! target shard exactly once ([`crate::router::Router::plan`]).
//!
//! **Time**: the simulation clock runs at `time_scale` simulated seconds
//! per wall second. The paper's cadences (300 s scheduling period, 5 s
//! epoch) would make interactive use glacial in real time; a scale of,
//! say, 600 crosses a scheduling period every half wall-second while
//! keeping event order identical to an offline run at the same instants.

use crate::admission::AdmissionConfig;
use crate::codec::Snapshot;
use crate::driver::OnlineDriver;
use crate::router::{coordinate, RoutePolicy, Router, ShardHandle};
use crate::shard::{run_shard, Publisher};
use crate::state::StateSnapshot;
use crate::wire;
use dsp_cluster::ClusterSpec;
use dsp_sim::EngineConfig;
use dsp_units::Dur;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard ceiling on the shard count: the reroute path tracks visited
/// shards in a `u64` bitmask (see [`crate::router::Router`]).
pub const MAX_SHARDS: usize = 64;

/// The front end this build serves connections with (the `dspd
/// frontend:` boot banner): the epoll reactor on linux, the
/// thread-per-connection fallback everywhere else.
pub const FRONTEND: &str = if cfg!(target_os = "linux") { "reactor" } else { "threads" };

/// Server knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (the bound address
    /// is reported on the returned handle).
    pub addr: String,
    /// Simulated seconds per wall-clock second; 0 freezes the clock.
    pub time_scale: f64,
    /// Wall interval between driver advances.
    pub tick: Duration,
    /// Bound on queued write commands **per shard**; a full queue stalls
    /// the sender.
    pub queue_depth: usize,
    /// Accepted-connection cap; excess connections are shed with a
    /// `busy` reason token. 0 = unlimited.
    pub max_conns: usize,
    /// Reactor pool size; 0 = auto (min(available cores, 4)).
    pub reactor_threads: usize,
    /// Per-frame byte limit; 0 = [`crate::codec::DEFAULT_MAX_FRAME`].
    pub max_frame: usize,
    /// Shard count: the cluster is split into this many independent
    /// engine+driver partitions (clamped to the node count and
    /// [`MAX_SHARDS`]).
    pub shards: usize,
    /// Placement policy the router uses to assign submit batches to
    /// shards (see [`RoutePolicy`]). Irrelevant at `shards == 1`.
    pub route: RoutePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            time_scale: 600.0,
            tick: Duration::from_millis(10),
            queue_depth: 128,
            max_conns: 0,
            reactor_threads: 0,
            max_frame: 0,
            shards: 1,
            route: RoutePolicy::Hash,
        }
    }
}

/// Everything needed to build one shard's [`OnlineDriver`]. The
/// scheduler and policy are factories because each shard owns its own
/// instances outright (they are stateful and `Send`, not `Sync`).
pub struct FederationSpec {
    /// The full cluster inventory; [`ClusterSpec::split`] partitions it.
    pub cluster: ClusterSpec,
    /// Engine cadence knobs, shared by every shard.
    pub engine: EngineConfig,
    /// Offline scheduling period, shared by every shard.
    pub sched_period: Dur,
    /// Admission bounds, applied **per shard** (`max_pending_tasks` is a
    /// per-shard queue bound, so total buffering scales with the shard
    /// count).
    pub admission: AdmissionConfig,
    /// Per-shard offline scheduler factory.
    pub scheduler: Box<dyn Fn() -> Box<dyn dsp_sched::Scheduler + Send>>,
    /// Per-shard preemption policy factory.
    pub policy: Box<dyn Fn() -> Box<dyn dsp_sim::PreemptPolicy + Send>>,
}

/// One unit of work for a driver-owner (or coordinator) thread.
pub(crate) enum Command {
    /// A client mutation; the response goes back through the sink. The
    /// `u64` is the reroute bitmask: shards that already refused this
    /// submit because they were quiesced (0 on first dispatch).
    Write(wire::WriteRequest, ReplySink, u64),
    /// The ticker mapping wall time onto simulation time.
    Tick(dsp_units::Time),
    /// Stop admitting on this shard (phase one of the federated drain);
    /// ack once the refusal is in force and published.
    Quiesce(SyncSender<()>),
    /// Run this shard's simulation dry and hand back its final snapshot
    /// (phase two of the federated drain).
    DrainShard(SyncSender<Box<Snapshot>>),
}

/// Where a routed command is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// Shard `i`'s driver-owner queue.
    Shard(usize),
    /// The drain coordinator's queue.
    Coordinator,
}

/// A command with its resolved destination. Routing happens exactly once
/// (in [`Router::plan`]); a front end that must park a command under
/// queue backpressure re-sends the *same* dispatch, so backpressure can
/// never change a request's shard assignment.
pub(crate) struct Dispatch {
    pub(crate) target: Target,
    pub(crate) command: Command,
}

/// Where the driver-owner thread sends a command's response.
pub(crate) enum ReplySink {
    /// A reactor thread's inbox (the connection is identified by the
    /// handle's token; delivery wakes the event loop).
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::ReplyHandle),
    /// A blocked connection-handler thread (the threads fallback).
    #[cfg(any(test, not(target_os = "linux")))]
    Blocking(SyncSender<wire::Response>),
}

impl ReplySink {
    /// Deliver the response. Infallible: a vanished recipient (client
    /// hung up mid-call) must never kill the driver-owner thread.
    pub(crate) fn deliver(self, response: wire::Response) {
        match self {
            #[cfg(target_os = "linux")]
            ReplySink::Reactor(handle) => handle.deliver(response),
            #[cfg(any(test, not(target_os = "linux")))]
            ReplySink::Blocking(tx) => {
                let _ = tx.send(response);
            }
        }
    }
}

/// A running service instance.
pub struct ServerHandle {
    /// The actually-bound address (resolves ephemeral ports).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    frontend_threads: Vec<JoinHandle<()>>,
    ticker_thread: Option<JoinHandle<()>>,
    owner_threads: Vec<JoinHandle<()>>,
    coordinator_thread: Option<JoinHandle<()>>,
}

/// What every connection handler can see: the router over the per-shard
/// command queues and snapshot cells, and the stop flag. Deliberately
/// **not** the drivers — only their owner threads hold those.
pub(crate) struct Shared {
    pub(crate) router: Router,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        // ordering: SeqCst — a plain shutdown latch, never paired with other
        // data; flipped once, read in accept/handler loops. Not hot enough
        // to justify reasoning about a weaker ordering.
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn stop(&self) {
        // ordering: SeqCst — see `stopping`; the store publishes nothing
        // beyond the flag itself.
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// The refusal handed out when the driver-owner thread is already gone.
pub(crate) fn draining_response() -> wire::Response {
    wire::Response::refusal("draining", "service is shutting down")
}

/// The outcome of routing one request line.
pub(crate) enum Routed {
    /// Answered without touching a driver: a read, or a parse failure.
    /// Never carries `shutdown`.
    Immediate(wire::Response),
    /// Must be serialized through a driver-owner thread.
    Queue(wire::WriteRequest),
}

/// Route one request line against the two lanes. This is the single
/// routing point shared by the reactor and the threads fallback — reply
/// bytes and reason tokens cannot diverge between them because they both
/// come from here.
pub(crate) fn route_line(line: &str, shared: &Shared) -> Routed {
    match wire::parse_request(line) {
        // The read lane: answered from the published snapshots alone.
        // This arm has no path to a driver — the router only ever hands
        // `handle_read` the immutable views.
        Ok(wire::Request::Read(request)) => Routed::Immediate(shared.router.handle_read(request)),
        Ok(wire::Request::Write(request)) => Routed::Queue(request),
        Err(msg) => Routed::Immediate(wire::Response::refusal("bad_request", &msg)),
    }
}

/// Serialize a response for the wire: one line, newline-terminated. A
/// streamed body's buffer becomes the line — no copy, whatever its size.
pub(crate) fn response_bytes(response: wire::Response) -> Vec<u8> {
    let mut text = response.body.into_text();
    text.push('\n');
    text.into_bytes()
}

/// Best-effort `busy` shed for a connection over [`ServerConfig::max_conns`]:
/// one reply line, then close. The write is a single attempt — a peer
/// that can't take one line immediately just sees the close.
pub(crate) fn shed_busy(stream: &mut TcpStream, max_conns: usize) {
    let _ = stream.set_nonblocking(true);
    let message = format!("connection limit ({max_conns}) reached; retry later");
    let _ = stream.write(&response_bytes(wire::Response::refusal("busy", &message)));
}

/// Starts the connection-serving threads over a bound listener.
type SpawnFrontend =
    fn(TcpListener, Arc<Shared>, &ServerConfig) -> std::io::Result<Vec<JoinHandle<()>>>;

#[cfg(target_os = "linux")]
use crate::reactor::spawn as platform_frontend;
#[cfg(not(target_os = "linux"))]
use threads::spawn as platform_frontend;

/// Boot the service: split the cluster into `config.shards` partitions,
/// build one [`OnlineDriver`] per partition on its own id lane (shard
/// `i` assigns ids `i, i+N, i+2N, …`), and stand a placement router in
/// front (DESIGN.md §10.7). At `shards == 1` the router passes reads and
/// the drained artifact through untouched, so the service is one plain
/// driver behind a socket.
pub fn serve_federated(
    spec: FederationSpec,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    boot(spec, config, platform_frontend)
}

/// [`serve_federated`] with the front end named by the caller (the
/// differential test boots both): bind, then one command queue + owner
/// thread + snapshot cell per shard, a coordinator thread for federated
/// drains, the ticker, and the front end.
fn boot(
    spec: FederationSpec,
    config: ServerConfig,
    spawn_frontend: SpawnFrontend,
) -> std::io::Result<ServerHandle> {
    let shards = config.shards.clamp(1, MAX_SHARDS).min(spec.cluster.len().max(1));
    let offsets = spec.cluster.split_offsets(shards);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    // Seed every shard's read lane before the first connection can land.
    let mut handles = Vec::with_capacity(shards);
    let mut shard_threads = Vec::with_capacity(shards);
    for (i, part) in spec.cluster.split(shards).into_iter().enumerate() {
        let driver = OnlineDriver::new(
            part,
            spec.engine,
            spec.sched_period,
            (spec.scheduler)(),
            (spec.policy)(),
            spec.admission.clone(),
        )
        .with_id_lane(i as u32, shards as u32);
        let publisher = Publisher::seed(&driver);
        let (commands, command_rx) = sync_channel(config.queue_depth.max(1));
        handles.push(ShardHandle {
            commands,
            cell: publisher.cell(),
            cluster: driver.cluster().clone(),
        });
        shard_threads.push((driver, command_rx, publisher));
    }
    let (coordinator, coordinator_rx) = sync_channel(config.queue_depth.max(1));
    let router = Router::new(handles, coordinator, config.route, spec.cluster, offsets)?;
    let shared = Arc::new(Shared { router, shutdown: AtomicBool::new(false) });

    // The front end boots before the driver-owner threads so a failure
    // there (no epoll instance to be had) fails the boot without leaking
    // running owners.
    let frontend_threads = spawn_frontend(listener, Arc::clone(&shared), &config)?;

    let owner_threads = shard_threads
        .into_iter()
        .enumerate()
        .map(|(index, (driver, command_rx, publisher))| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_shard(index, driver, command_rx, publisher, &shared))
        })
        .collect();

    let coordinator_thread = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || coordinate(coordinator_rx, &shared))
    };

    let ticker_thread = {
        let shared = Arc::clone(&shared);
        let scale = config.time_scale.max(0.0);
        let tick = config.tick.max(Duration::from_millis(1));
        std::thread::spawn(move || {
            let start = Instant::now();
            while !shared.stopping() {
                std::thread::sleep(tick);
                let target = dsp_units::Time::from_secs_f64(start.elapsed().as_secs_f64() * scale);
                // Broadcast to every shard. A full queue means that
                // owner is busy with client work; skipping its tick is
                // fine — the next one re-targets.
                if !shared.router.tick_all(target) {
                    break;
                }
            }
        })
    };

    Ok(ServerHandle {
        addr,
        shared,
        frontend_threads,
        ticker_thread: Some(ticker_thread),
        owner_threads,
        coordinator_thread: Some(coordinator_thread),
    })
}

/// The thread-per-connection front end: what serves connections where
/// there is no epoll. Linux builds compile it for tests only (the
/// differential test below keeps its reply bytes equal to the reactor's).
#[cfg(any(test, not(target_os = "linux")))]
mod threads {
    use super::{
        draining_response, response_bytes, route_line, shed_busy, ReplySink, Routed, ServerConfig,
        Shared,
    };
    use crate::codec::FrameBuffer;
    use crate::wire;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// A nonblocking accept loop that spawns one handler thread per
    /// socket.
    ///
    /// Failure handling: `WouldBlock` is the idle path (short fixed
    /// sleep); every other accept error — `EMFILE`/`ENFILE` when the fd
    /// table is full, `ECONNABORTED`, transient `ENOBUFS`… — backs off
    /// with a bounded, doubling sleep instead of hot-spinning or silently
    /// killing the accept loop. The loop only exits on the shutdown flag.
    pub(super) fn spawn(
        listener: TcpListener,
        shared: Arc<Shared>,
        config: &ServerConfig,
    ) -> std::io::Result<Vec<JoinHandle<()>>> {
        const IDLE_SLEEP: Duration = Duration::from_millis(5);
        const BACKOFF_FLOOR: Duration = Duration::from_millis(10);
        const BACKOFF_CEIL: Duration = Duration::from_millis(500);
        let max_conns = config.max_conns;
        let max_frame = config.max_frame;
        Ok(vec![std::thread::spawn(move || {
            let active = Arc::new(AtomicUsize::new(0));
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            let mut backoff = BACKOFF_FLOOR;
            while !shared.stopping() {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        backoff = BACKOFF_FLOOR;
                        // ordering: Relaxed — the counter only gates admission;
                        // it publishes no data and an off-by-one race just sheds
                        // (or admits) one borderline connection.
                        if max_conns > 0 && active.load(Ordering::Relaxed) >= max_conns {
                            shed_busy(&mut stream, max_conns);
                            continue;
                        }
                        // Reap finished handlers so the vec stays bounded by the
                        // live-connection count (dropping a JoinHandle detaches).
                        handlers.retain(|h| !h.is_finished());
                        let ticket = ConnTicket::issue(&active);
                        let shared = Arc::clone(&shared);
                        handlers.push(std::thread::spawn(move || {
                            handle_client(stream, &shared, max_frame);
                            drop(ticket);
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(IDLE_SLEEP);
                    }
                    Err(_) => {
                        // fd exhaustion or a transient kernel refusal: give
                        // handlers time to release resources, then try again.
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CEIL);
                    }
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        })])
    }

    /// RAII decrement for the live-connection counter.
    struct ConnTicket(Arc<AtomicUsize>);

    impl ConnTicket {
        fn issue(counter: &Arc<AtomicUsize>) -> ConnTicket {
            // ordering: Relaxed — admission gate only; see the accept loop.
            counter.fetch_add(1, Ordering::Relaxed);
            ConnTicket(Arc::clone(counter))
        }
    }

    impl Drop for ConnTicket {
        fn drop(&mut self) {
            // ordering: Relaxed — admission gate only; see the accept loop.
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Send one write command and wait for its reply. Errors (owner gone
    /// mid-shutdown) surface as a `draining` refusal rather than a hang.
    fn roundtrip(shared: &Shared, request: wire::WriteRequest) -> wire::Response {
        let (reply_tx, reply_rx) = sync_channel(1);
        let dispatch = shared.router.plan(request, ReplySink::Blocking(reply_tx));
        if shared.router.send(dispatch).is_ok() {
            if let Ok(response) = reply_rx.recv() {
                return response;
            }
        }
        draining_response()
    }

    fn handle_client(stream: TcpStream, shared: &Shared, max_frame: usize) {
        // Connection I/O errors just drop the client; the service lives on.
        // The read timeout keeps idle connections from pinning the shutdown
        // join: the loop wakes periodically to check the stop flag.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = stream;
        let mut frames = FrameBuffer::new(max_frame);
        let mut chunk = [0u8; 8192];
        'conn: loop {
            match reader.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    if let Some(bytes) = chunk.get(..n) {
                        frames.push(bytes);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shared.stopping() {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            }
            loop {
                let line = match frames.next_frame() {
                    Ok(Some(line)) => line,
                    Ok(None) => break,
                    Err(e) => {
                        // Framing is unrecoverable: reply once, then close.
                        let response = wire::Response::refusal("bad_request", &e.to_string());
                        let _ = writer.write_all(&response_bytes(response));
                        break 'conn;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let response = match route_line(&line, shared) {
                    Routed::Immediate(response) => response,
                    Routed::Queue(request) => roundtrip(shared, request),
                };
                let shutdown = response.shutdown;
                let sent =
                    writer.write_all(&response_bytes(response)).and_then(|()| writer.flush());
                if sent.is_err() || shutdown {
                    break 'conn;
                }
            }
        }
    }
}

impl ServerHandle {
    /// Shard 0's read-lane publish point — what `status`/`metrics`/
    /// `snapshot` are answered from on a single-shard service. Exposed
    /// for tests and in-process tooling; federated aggregation happens
    /// in the router, not here.
    pub fn reads(&self) -> Arc<StateSnapshot> {
        self.shared.router.primary_cell().load()
    }

    /// How many shards this instance is running.
    pub fn shards(&self) -> usize {
        self.shared.router.shard_count()
    }

    /// Quiesce one shard: stop its intake without draining it, as the
    /// federated drain's phase one does. Blocks until the shard has
    /// published the refusal; false when the index is out of range or
    /// the shard is gone. Exposed for the drain-vs-submit regression
    /// tests and for operational shedding experiments.
    pub fn quiesce_shard(&self, index: usize) -> bool {
        self.shared.router.quiesce_shard(index)
    }

    /// Request shutdown without draining (pending work is discarded).
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    fn join_all(&mut self) {
        for h in self.frontend_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.ticker_thread.take() {
            let _ = h.join();
        }
        for h in self.owner_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.coordinator_thread.take() {
            let _ = h.join();
        }
    }

    /// Block until the front end, clock, and driver-owner threads exit
    /// (after a `drain` request or [`ServerHandle::shutdown`]).
    pub fn wait(mut self) {
        self.join_all();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.stop();
        self.join_all();
    }
}

/// Minimal blocking client for the line protocol — what `dsp submit/
/// status/metrics/drain` and the tests use.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running service.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Send one request line, wait for the response line.
    pub fn call(&mut self, request: &crate::json::Json) -> std::io::Result<crate::json::Json> {
        self.call_raw(&request.to_string())
    }

    /// Send a raw pre-serialized line (for tools forwarding stdin).
    pub fn call_raw(&mut self, line: &str) -> std::io::Result<crate::json::Json> {
        let mut text = line.trim().to_string();
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        crate::json::parse(&reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use crate::driver::JobRequest;

    const MAX_FRAME: usize = 1024;

    fn spec() -> FederationSpec {
        FederationSpec {
            cluster: dsp_cluster::uniform(4, 1000.0, 1),
            engine: EngineConfig::default(),
            sched_period: Dur::from_secs(60),
            admission: AdmissionConfig::default(),
            scheduler: Box::new(|| Box::new(dsp_sched::DspListScheduler::default())),
            policy: Box::new(|| Box::new(dsp_sim::NoPreempt)),
        }
    }

    fn chain_job(tasks: u32) -> JobRequest {
        JobRequest {
            class: dsp_dag::JobClass::Small,
            deadline: None,
            tasks: (0..tasks).map(|t| dsp_dag::TaskSpec::sized(3_000.0 + f64::from(t))).collect(),
            edges: (1..tasks).map(|t| (t - 1, t)).collect(),
        }
    }

    /// Send each line on one fresh connection, reading one reply line per
    /// line that is owed one, then whatever the server still sends until
    /// it closes the connection.
    fn converse(addr: SocketAddr, lines: &[(&str, bool)]) -> Vec<u8> {
        use std::io::Read;
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut transcript = Vec::new();
        for (line, replies) in lines {
            writer.write_all(format!("{line}\n").as_bytes()).expect("send");
            if *replies {
                let mut reply = String::new();
                assert!(reader.read_line(&mut reply).expect("reply") > 0, "no reply to {line:?}");
                transcript.extend_from_slice(reply.as_bytes());
            }
        }
        reader.read_to_end(&mut transcript).expect("server closes after its last reply");
        transcript
    }

    /// One scripted session against a 2-shard service on a frozen clock.
    /// The tick is longer than the session, so no clock publish lands
    /// between two replies and every `state_version` is the script's own.
    fn session(spawn_frontend: SpawnFrontend) -> Vec<u8> {
        let config = ServerConfig {
            time_scale: 0.0,
            tick: Duration::from_secs(3),
            max_frame: MAX_FRAME,
            shards: 2,
            ..ServerConfig::default()
        };
        let handle = boot(spec(), config, spawn_frontend).expect("bind ephemeral port");
        let oversize = "x".repeat(MAX_FRAME + 500);
        let mut transcript = converse(
            handle.addr,
            &[
                (r#"{"op":"ping"}"#, true),
                ("", false),
                ("   ", false),
                ("this is not json", true),
                (r#"{"op":"warp"}"#, true),
                // Framing is lost here: one `bad_request`, then the close.
                (&oversize, false),
            ],
        );
        let submits: Vec<String> = [vec![chain_job(3)], vec![chain_job(1), chain_job(2)], vec![]]
            .iter()
            .map(|batch| wire::submit_request(batch).to_string())
            .collect();
        transcript.extend(converse(
            handle.addr,
            &[
                (&submits[0], true),
                (&submits[1], true),
                (&submits[2], true),
                (r#"{"op":"status","job":1}"#, true),
                (r#"{"op":"status","job":99}"#, true),
                (r#"{"op":"metrics"}"#, true),
                (r#"{"op":"snapshot"}"#, true),
                (r#"{"op":"drain"}"#, true),
            ],
        ));
        handle.wait();
        transcript
    }

    /// The threads fallback is what non-linux builds serve with; linux CI
    /// never boots it otherwise. Same script, same bytes, or it has rotted.
    #[test]
    fn threads_fallback_and_reactor_reply_with_identical_bytes() {
        let fallback = String::from_utf8(session(threads::spawn)).expect("utf-8 replies");
        let reactor = String::from_utf8(session(crate::reactor::spawn)).expect("utf-8 replies");
        assert_eq!(fallback, reactor);

        // The script did what it says: 12 replies, three of them parse or
        // framing refusals, and a drained artifact that verifies.
        let replies: Vec<&str> = reactor.lines().collect();
        assert_eq!(replies.len(), 12, "{reactor}");
        assert_eq!(reactor.matches(r#""reason":"bad_request""#).count(), 3, "{reactor}");
        let drained = crate::json::parse(replies[11]).expect("drain reply parses");
        let snap =
            Snapshot::from_json(drained.get("snapshot").expect("artifact")).expect("decodes");
        assert_eq!(snap.jobs.len(), 3);
        assert!(snap.verify().passes(), "{:?}", snap.verify());
    }
}
