//! The reactor pool: thread spawn, cross-thread hand-off, and the
//! per-thread event loop.
//!
//! Ownership is strictly per-thread: a connection is registered with
//! exactly one thread's epoll instance and only that thread ever
//! touches it. The only cross-thread traffic goes through a thread's
//! [`ThreadHub`] — accepted sockets in, driver replies in — and every
//! hand-off is a push under a short-lived lock followed by a waker
//! byte, so no lock is ever held across I/O or a channel operation.

use super::conn::{response_bytes, Conn};
use super::poller::{ThreadPoller, TOKEN_LISTENER, TOKEN_WAKER};
use crate::server::{draining_response, Dispatch, Shared};
use crate::wire;
use dsp_epoll::{waker, Event, Waker};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll timeout — the loop's heartbeat for stop checks, retry of
/// backpressured commands, and accept-pause expiry.
const POLL_TICK: Duration = Duration::from_millis(50);
/// How long a stopping reactor waits for in-flight replies and pending
/// output to flush before abandoning the remaining connections.
const STOP_GRACE: Duration = Duration::from_secs(2);
/// Once stopping, how long the loop must be idle before it exits: a
/// request already on the wire when the stop flag lands still gets its
/// reply.
const STOP_QUIET: Duration = Duration::from_millis(200);
/// Accept-failure backoff bounds (fd exhaustion, transient kernel
/// refusals): pause accepting, doubling from floor to ceiling.
const ACCEPT_BACKOFF_FLOOR: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_CEIL: Duration = Duration::from_millis(500);

/// Where the driver-owner thread drops a reactor connection's reply.
///
/// The token is `(generation << 32) | slot`: the owning thread checks
/// the generation before queuing the response, so a reply racing a
/// disconnect can never reach the slot's next tenant.
pub(crate) struct ReplyHandle {
    hub: Arc<ThreadHub>,
    token: u64,
}

impl ReplyHandle {
    /// Push the response into the owning thread's inbox and wake it.
    /// Infallible: a vanished recipient (client hung up mid-call) must
    /// never kill the driver-owner thread.
    pub(crate) fn deliver(self, response: wire::Response) {
        {
            let mut inbox = self.hub.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            inbox.push((self.token, response));
        }
        self.hub.waker.wake();
    }
}

/// One reactor thread's mailbox: replies from the driver-owner thread,
/// accepted sockets from thread 0, and the waker that interrupts its
/// poll. Everything here is push-and-wake; the owning thread drains
/// with `mem::take` under the same short-lived locks. A `Vec` push or
/// take cannot be observed half-done, so every lock site recovers a
/// poisoned guard (`PoisonError::into_inner`) and a panicking peer costs
/// its own connection, not the thread's mailbox.
struct ThreadHub {
    inbox: Mutex<Vec<(u64, wire::Response)>>,
    incoming: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// State shared by the whole pool.
struct Runtime {
    shared: Arc<Shared>,
    hubs: Vec<Arc<ThreadHub>>,
    /// Live connections across all threads (admission gate).
    conns: AtomicUsize,
    /// Round-robin cursor for dealing accepted sockets to threads.
    next_thread: AtomicUsize,
    max_conns: usize,
}

impl Runtime {
    /// Optimistically claim a connection slot against `max_conns`.
    fn try_admit(&self) -> bool {
        // ordering: Relaxed — admission gate only; the count publishes no
        // data, and a race at the boundary merely sheds (or admits) one
        // borderline connection.
        let prev = self.conns.fetch_add(1, Ordering::Relaxed);
        if self.max_conns > 0 && prev >= self.max_conns {
            // ordering: Relaxed — undo of the optimistic claim above.
            self.conns.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    fn release_conn(&self) {
        // ordering: Relaxed — admission gate only; see `try_admit`.
        self.conns.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drain a hub queue: take everything under a short-lived lock. The
/// guard never outlives this function, so the caller can block freely.
fn drain_queue<T>(queue: &Mutex<Vec<T>>) -> Vec<T> {
    let mut guard = queue.lock().unwrap_or_else(PoisonError::into_inner);
    std::mem::take(&mut *guard)
}

/// Best-effort `busy` shed for a connection over the `max_conns` cap:
/// one reply line, then close. The write is a single attempt — a peer
/// that can't take one line immediately just sees the close.
fn shed_busy(stream: &mut TcpStream, max_conns: usize) {
    let _ = stream.set_nonblocking(true);
    let message = format!("connection limit ({max_conns}) reached; retry later");
    let _ = stream.write(&response_bytes(wire::Response::refusal(wire::reason::BUSY, &message)));
}

/// Boot the reactor pool: min(cores, 4) threads. A small fixed pool is
/// the point — thread count must not scale with connection count. All
/// fallible setup (wakers, epoll instances, listener registration)
/// happens before any thread starts, so a bad environment (no epoll off
/// linux) fails the boot synchronously with nothing to unwind.
/// `max_conns` caps live connections (0 = unlimited).
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
    max_conns: usize,
) -> io::Result<Vec<JoinHandle<()>>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    let mut hubs = Vec::with_capacity(threads);
    let mut pollers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (wake_tx, wake_rx) = waker()?;
        pollers.push(ThreadPoller::new(wake_rx)?);
        hubs.push(Arc::new(ThreadHub {
            inbox: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            waker: wake_tx,
        }));
    }
    if let Some(first) = pollers.first() {
        first.watch_listener(&listener)?;
    }
    let rt = Arc::new(Runtime {
        shared,
        hubs,
        conns: AtomicUsize::new(0),
        next_thread: AtomicUsize::new(0),
        max_conns,
    });
    let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(threads);
    let mut listener = Some(listener);
    for (index, poller) in pollers.into_iter().enumerate() {
        let rt_thread = Arc::clone(&rt);
        let hub = match rt.hubs.get(index) {
            Some(h) => Arc::clone(h),
            None => continue,
        };
        let listener = if index == 0 { listener.take() } else { None };
        let spawned = std::thread::Builder::new()
            .name(format!("dspd-reactor-{index}"))
            .spawn(move || run(&rt_thread, &hub, poller, listener));
        match spawned {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                // A partial pool must not leak: stop the threads already
                // running, then report the failure.
                rt.shared.stop();
                for h in handles {
                    let _ = h.join();
                }
                return Err(e);
            }
        }
    }
    Ok(handles)
}

/// The per-thread event loop. Each pass: poll, dispatch readiness,
/// drain the reply inbox, adopt handed-off sockets, accept (thread 0),
/// sweep every connection (retry parked commands, process frames, pump
/// output, re-arm write interest), close finished connections, and
/// check the stop flag.
fn run(
    rt: &Runtime,
    hub: &Arc<ThreadHub>,
    mut poller: ThreadPoller,
    listener: Option<TcpListener>,
) {
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut next_gen: u32 = 0;
    let mut accept_backoff = ACCEPT_BACKOFF_FLOOR;
    let mut accept_paused_until: Option<Instant> = None;
    let mut stop_deadline: Option<Instant> = None;
    let mut last_activity = Instant::now();
    loop {
        if poller.poll(POLL_TICK, &mut events).is_err() {
            // A broken epoll instance is unrecoverable for this thread;
            // the sleep keeps a persistent failure from spinning hot.
            std::thread::sleep(POLL_TICK);
        }

        // Phase 1: readiness. Slots emptied by a previous close pass are
        // `None`, so a stale event for a recycled slot number is inert.
        let mut accept_ready = false;
        for ev in &events {
            match ev.token {
                TOKEN_WAKER => poller.drain_wakes(),
                TOKEN_LISTENER => accept_ready = true,
                token => {
                    let slot = token as usize;
                    if let Some(conn) = slab.get_mut(slot).and_then(Option::as_mut) {
                        last_activity = Instant::now();
                        if ev.error {
                            conn.close_now = true;
                            continue;
                        }
                        if ev.readable || ev.hangup {
                            conn.fill();
                        }
                        if ev.writable {
                            conn.pump_out();
                        }
                    }
                }
            }
        }

        // Phase 2: replies from the driver-owner thread. The generation
        // check drops replies addressed to a connection that closed and
        // whose slot was re-let since the command was queued.
        for (token, response) in drain_queue(&hub.inbox) {
            last_activity = Instant::now();
            let slot = (token & u64::from(u32::MAX)) as usize;
            let generation = (token >> 32) as u32;
            if let Some(conn) = slab.get_mut(slot).and_then(Option::as_mut) {
                if conn.gen == generation {
                    conn.inflight = false;
                    conn.queue_response(response);
                }
            }
        }

        // Phase 3: adopt sockets handed off by the accept thread.
        for stream in drain_queue(&hub.incoming) {
            last_activity = Instant::now();
            if stream.set_nonblocking(true).is_err() {
                rt.release_conn();
                continue;
            }
            let _ = stream.set_nodelay(true);
            next_gen = next_gen.wrapping_add(1);
            let slot = match free.pop() {
                Some(s) => s,
                None => {
                    slab.push(None);
                    slab.len() - 1
                }
            };
            let mut conn = Conn::new(stream, next_gen);
            if poller.watch_conn(conn.stream(), slot).is_err() {
                free.push(slot);
                rt.release_conn();
                continue;
            }
            // Register *then* fill: bytes that landed between accept and
            // registration are picked up here, and anything after is an
            // edge the poller reports.
            conn.fill();
            if let Some(entry) = slab.get_mut(slot) {
                *entry = Some(conn);
            }
        }

        // Phase 4: accept burst (the listener-owning thread only).
        if let Some(listener) = listener.as_ref() {
            if let Some(deadline) = accept_paused_until {
                if Instant::now() >= deadline {
                    if poller.watch_listener(listener).is_ok() {
                        accept_paused_until = None;
                    } else {
                        accept_paused_until = Some(Instant::now() + accept_backoff);
                    }
                }
            }
            if accept_ready && accept_paused_until.is_none() && !rt.shared.stopping() {
                loop {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            accept_backoff = ACCEPT_BACKOFF_FLOOR;
                            if !rt.try_admit() {
                                shed_busy(&mut stream, rt.max_conns);
                                continue;
                            }
                            // ordering: Relaxed — round-robin cursor; any
                            // interleaving deals a fair-enough hand.
                            let cursor = rt.next_thread.fetch_add(1, Ordering::Relaxed);
                            let idx = cursor % rt.hubs.len().max(1);
                            if let Some(target) = rt.hubs.get(idx) {
                                {
                                    let mut incoming = target
                                        .incoming
                                        .lock()
                                        .unwrap_or_else(PoisonError::into_inner);
                                    incoming.push(stream);
                                }
                                target.waker.wake();
                            } else {
                                rt.release_conn();
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            // fd exhaustion or a transient kernel refusal:
                            // stop watching the listener (level-triggered —
                            // re-adding later re-reports the backlog) and
                            // pause with bounded doubling backoff.
                            poller.unwatch_listener(listener);
                            accept_paused_until = Some(Instant::now() + accept_backoff);
                            accept_backoff = (accept_backoff * 2).min(ACCEPT_BACKOFF_CEIL);
                            break;
                        }
                    }
                }
            }
        }

        // Phase 5: sweep. Retry backpressured commands, turn buffered
        // frames into work, flush, and keep write interest in sync with
        // whether output is pending.
        for (slot, entry) in slab.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else { continue };
            if let Some(dispatch) = conn.retry.take() {
                send_or_park(conn, &rt.shared, dispatch);
            }
            process_frames(conn, slot, &rt.shared, hub);
            conn.pump_out();
            let want = conn.has_pending_out();
            if want != conn.want_write
                && !conn.close_now
                && poller.rearm_conn(conn.stream(), slot, want).is_ok()
            {
                conn.want_write = want;
            }
        }

        // Phase 6: close finished connections and recycle their slots.
        for (slot, entry) in slab.iter_mut().enumerate() {
            if entry.as_ref().is_some_and(Conn::done) {
                if let Some(conn) = entry.take() {
                    // Deregister before the socket drops so a recycled fd
                    // cannot alias the stale registration.
                    poller.unwatch_conn(conn.stream());
                    free.push(slot);
                    rt.release_conn();
                }
            }
        }

        // Phase 7: stop. Give in-flight replies and queued output a
        // bounded grace period, then leave; remaining sockets close on
        // drop.
        if rt.shared.stopping() {
            if stop_deadline.is_none() {
                if let Some(l) = listener.as_ref() {
                    poller.unwatch_listener(l);
                }
            }
            let deadline = *stop_deadline.get_or_insert_with(|| Instant::now() + STOP_GRACE);
            let busy = slab
                .iter()
                .flatten()
                .any(|c| c.has_pending_out() || c.inflight || c.retry.is_some());
            let inbox_empty = hub.inbox.lock().unwrap_or_else(PoisonError::into_inner).is_empty();
            let quiet = last_activity.elapsed() >= STOP_QUIET;
            if (!busy && inbox_empty && quiet) || Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// Turn complete buffered frames into responses or queued commands.
/// Processing pauses while a command is in flight (or parked for
/// retry) so replies stay in request order, and stops for good once
/// the connection is sealed.
fn process_frames(conn: &mut Conn, slot: usize, shared: &Shared, hub: &Arc<ThreadHub>) {
    while !conn.inflight && conn.retry.is_none() && !conn.close_after_flush && !conn.close_now {
        let line = match conn.frames.next_frame() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                conn.queue_frame_error(&e);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match wire::parse_request(&line) {
            // The read lane: answered from the published snapshots alone.
            // This arm has no path to a driver — the router only ever
            // hands `handle_read` the immutable views.
            Ok(wire::Request::Read(request)) => {
                conn.queue_response(shared.router.handle_read(request))
            }
            Ok(wire::Request::Write(request)) => {
                let token = (u64::from(conn.gen) << 32) | slot as u64;
                let reply = ReplyHandle { hub: Arc::clone(hub), token };
                conn.inflight = true;
                // Routing is resolved exactly once, here: a later retry
                // re-sends the same dispatch, so backpressure can delay
                // a request but never re-route it to another shard.
                send_or_park(conn, shared, shared.router.plan(request, reply));
            }
            Err(msg) => {
                conn.queue_response(wire::Response::refusal(wire::reason::BAD_REQUEST, &msg))
            }
        }
    }
}

/// Hand a dispatch to its queue. A full queue parks it on the connection
/// for the next sweep; a vanished owner answers `draining`.
fn send_or_park(conn: &mut Conn, shared: &Shared, dispatch: Dispatch) {
    match shared.router.try_send(dispatch) {
        Ok(()) => {}
        Err(TrySendError::Full(dispatch)) => conn.retry = Some(dispatch),
        Err(TrySendError::Disconnected(_)) => {
            conn.inflight = false;
            conn.queue_response(draining_response());
        }
    }
}
