//! The service's boot and lifecycle: the shards, their owner threads,
//! the reactor, and a minimal blocking client.
//!
//! Concurrency model (DESIGN.md §10.5, §10.7): the request path is split
//! into two lanes, and the write lane is **sharded**. The threads are
//! the reactor pool and one owner per shard, nothing else.
//!
//! * **Write lane** — `submit` and `drain` are commands on *bounded*
//!   FIFO queues, one per shard, each worked through by a single
//!   driver-owner thread. Every shard's [`OnlineDriver`] is owned by its
//!   thread outright — there is no mutex to convoy on — so mutations are
//!   serialized per shard, with FIFO fairness across connections and
//!   explicit backpressure (a full queue stalls the submitting client,
//!   not the whole service). The router (`router.rs`) decides which
//!   shard a submit lands on; `drain` goes to shard 0, whose owner
//!   drains every shard and merges the results.
//! * **Read lane** — `ping`, `status`, `metrics`, `snapshot` are served
//!   from per-shard [`crate::SnapshotCell`]s: immutable
//!   [`crate::StateSnapshot`]s each owner thread re-publishes after every
//!   mutation (and at every boundary of a drain). Read handlers hold no
//!   driver reference at all — the type split in [`wire::handle_read`]
//!   makes touching the driver impossible — so a drain running the
//!   simulation dry or a fat submit cannot stall a monitoring client. Staleness is bounded by one
//!   mutation per shard. The router folds the per-shard views into one
//!   reply (DESIGN.md §10.7).
//!
//! Connections are served against those lanes by the epoll reactor
//! (DESIGN.md §10.6), a small fixed pool of event-loop threads whose
//! count is independent of connection count. It resolves a write's
//! target shard exactly once (`Router::plan`). `dspd` is
//! linux-only: elsewhere `dsp-epoll` has no poller to hand out, so
//! [`serve_federated`] fails at boot with `ErrorKind::Unsupported`.
//!
//! **Time**: the simulation clock runs at `time_scale` simulated seconds
//! per wall second, measured from one boot instant every shard shares;
//! each owner advances its driver to it once per `tick`, between
//! commands, so a full queue never holds the clock back. The paper's
//! cadences (300 s scheduling period, 5 s epoch) would make interactive
//! use glacial in real time; a scale of, say, 600 crosses a scheduling
//! period every half wall-second while keeping event order identical to
//! an offline run at the same instants.

use crate::admission::AdmissionConfig;
use crate::codec::Snapshot;
use crate::driver::OnlineDriver;
use crate::reactor::{self, ReplyHandle};
use crate::router::{RoutePolicy, Router, ShardHandle};
use crate::shard::{run_shard, Clock, Publisher};
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

/// Hard ceiling on the shard count, the input bound on `--shards`.
pub const MAX_SHARDS: usize = 64;

/// Bound on queued write commands **per shard**; a full queue stalls
/// the sender.
const QUEUE_DEPTH: usize = 128;

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
    /// Accepted-connection cap; excess connections are shed with a
    /// `busy` reason token. 0 = unlimited.
    pub max_conns: usize,
    /// Shard count: the cluster is split into this many independent
    /// engine+driver partitions (clamped to the node count and
    /// [`MAX_SHARDS`]).
    pub shards: usize,
    /// Inert: placement is always [`RoutePolicy::Hash`]. The field stays
    /// only because the benchmark crate sets it.
    pub route: RoutePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            time_scale: 600.0,
            tick: Duration::from_millis(10),
            max_conns: 0,
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

/// One unit of work for a driver-owner thread.
pub(crate) enum Command {
    /// A client mutation; the response goes back to the connection's
    /// reactor thread through the handle.
    Write(wire::WriteRequest, ReplyHandle),
    /// Run this shard's simulation dry and hand back its final snapshot
    /// (shard 0's federated drain asks every other shard for one).
    DrainShard(SyncSender<Box<Snapshot>>),
}

/// A command with its resolved shard. Routing happens exactly once (in
/// [`Router::plan`]); a reactor connection that must park a command
/// under queue backpressure re-sends the *same* dispatch, so
/// backpressure can never change a request's shard assignment.
pub(crate) struct Dispatch {
    pub(crate) shard: usize,
    pub(crate) command: Command,
}

/// A running service instance.
pub struct ServerHandle {
    /// The actually-bound address (resolves ephemeral ports).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    frontend_threads: Vec<JoinHandle<()>>,
    owner_threads: Vec<JoinHandle<()>>,
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
    wire::Response::refusal(wire::reason::DRAINING, "service is shutting down")
}

/// Boot the service: split the cluster into `config.shards` partitions,
/// build one [`OnlineDriver`] per partition on its own id lane (shard
/// `i` assigns ids `i, i+N, i+2N, …`), and stand a placement router in
/// front (DESIGN.md §10.7). At `shards == 1` a read answers from the
/// one view as it stands and the drained artifact is the driver's own,
/// so the service is one plain driver behind a socket.
///
/// Bind, then one command queue + snapshot cell per shard, the reactor,
/// and one owner thread per shard, which also keeps the shard's clock.
pub fn serve_federated(
    spec: FederationSpec,
    config: ServerConfig,
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
        let (commands, command_rx) = sync_channel(QUEUE_DEPTH);
        handles.push(ShardHandle { commands, cell: publisher.cell() });
        shard_threads.push((driver, command_rx, publisher));
    }
    let router = Router::new(handles, spec.cluster, offsets)?;
    let shared = Arc::new(Shared { router, shutdown: AtomicBool::new(false) });

    // The reactor boots before the driver-owner threads so a failure
    // there (no epoll instance to be had) fails the boot without leaking
    // running owners.
    let frontend_threads = reactor::spawn(listener, Arc::clone(&shared), config.max_conns)?;

    let clock = Clock {
        boot: Instant::now(),
        scale: config.time_scale.max(0.0),
        tick: config.tick.max(Duration::from_millis(1)),
    };
    let owner_threads = shard_threads
        .into_iter()
        .map(|(driver, command_rx, publisher)| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_shard(driver, command_rx, publisher, clock, &shared))
        })
        .collect();

    Ok(ServerHandle { addr, shared, frontend_threads, owner_threads })
}

impl ServerHandle {
    /// How many shards this instance is running.
    pub fn shards(&self) -> usize {
        self.shared.router.shard_count()
    }

    /// Request shutdown without draining (pending work is discarded).
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    fn join_all(&mut self) {
        for h in self.frontend_threads.drain(..).chain(self.owner_threads.drain(..)) {
            let _ = h.join();
        }
    }

    /// Block until the front end and driver-owner threads exit
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
mod tests {
    use super::*;
    use crate::driver::JobRequest;

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

    /// FNV-1a 64 of [`scripted_session_replies_with_pinned_bytes`]'s
    /// transcript. Recorded against the reactor at 93ea619; re-pinned when
    /// artifact format 2 moved the two snapshot replies to column tables.
    const SESSION_PIN: u64 = 0xe920_6be1_2e67_dc04;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// One scripted session against a 2-shard service on a frozen clock:
    /// reads, blank lines, parse refusals, an oversize frame, submits and
    /// a drain. The tick is longer than the session, so no clock publish
    /// lands between two replies and every `state_version` is the
    /// script's own — which is what makes the bytes pinnable.
    #[test]
    fn scripted_session_replies_with_pinned_bytes() {
        let config = ServerConfig {
            time_scale: 0.0,
            tick: Duration::from_secs(3),
            shards: 2,
            ..ServerConfig::default()
        };
        let handle = serve_federated(spec(), config).expect("bind ephemeral port");
        let oversize = "x".repeat(crate::codec::DEFAULT_MAX_FRAME + 500);
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
        let got = fnv1a(&transcript);
        let text = String::from_utf8(transcript).expect("utf-8 replies");
        assert_eq!(got, SESSION_PIN, "session bytes moved ({got:#018x}):\n{text}");

        // The script did what it says: 12 replies, three of them parse or
        // framing refusals, and a drained artifact that verifies.
        let replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.len(), 12, "{text}");
        assert_eq!(text.matches(r#""reason":"bad_request""#).count(), 3, "{text}");
        let drained = crate::json::parse(replies[11]).expect("drain reply parses");
        let snap =
            Snapshot::from_json(drained.get("snapshot").expect("artifact")).expect("decodes");
        assert_eq!(snap.jobs.len(), 3);
        assert!(snap.verify().passes(), "{:?}", snap.verify());
    }
}
