//! Readiness plumbing for one reactor thread: its epoll instance, its
//! wake channel, and the reserved token space.
//!
//! Connections are registered **edge-triggered** under their slab slot
//! index: one report per readiness transition, drained to `WouldBlock`
//! by the owner. The listener and the waker are **level-triggered** —
//! for the listener that is what makes accept backpressure safe (the
//! loop can stop accepting during an `EMFILE` pause and re-register
//! without having lost an edge), and the waker re-reports until its
//! bytes are drained so a wake can never be missed.

use dsp_epoll::{Event, Interest, Poller, WakeReceiver};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Token for the accept listener (thread 0 only).
pub(crate) const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the cross-thread waker.
pub(crate) const TOKEN_WAKER: u64 = u64::MAX - 1;

/// One reactor thread's poller: epoll instance + wake receiver, with
/// the token conventions baked in.
pub(crate) struct ThreadPoller {
    poller: Poller,
    wake_rx: WakeReceiver,
}

impl ThreadPoller {
    /// Build the poller and register the wake channel.
    pub(crate) fn new(wake_rx: WakeReceiver) -> io::Result<ThreadPoller> {
        let poller = Poller::with_capacity(1024)?;
        poller.add(&wake_rx, TOKEN_WAKER, Interest::READ)?;
        Ok(ThreadPoller { poller, wake_rx })
    }

    /// Start (or resume, after an `EMFILE` pause) watching the listener.
    pub(crate) fn watch_listener(&self, listener: &TcpListener) -> io::Result<()> {
        self.poller.add(listener, TOKEN_LISTENER, Interest::READ)
    }

    /// Pause accepting: deregister the listener. Level-triggered
    /// registration means re-adding later re-reports any backlog.
    pub(crate) fn unwatch_listener(&self, listener: &TcpListener) {
        let _ = self.poller.delete(listener);
    }

    /// Register a freshly adopted connection under its slab slot.
    pub(crate) fn watch_conn(&self, stream: &TcpStream, slot: usize) -> io::Result<()> {
        self.poller.add(stream, slot as u64, Interest::EDGE_READ)
    }

    /// Re-arm a connection's interest set (write interest tracks
    /// whether output is queued).
    pub(crate) fn rearm_conn(
        &self,
        stream: &TcpStream,
        slot: usize,
        want_write: bool,
    ) -> io::Result<()> {
        let interest = if want_write { Interest::EDGE_READ_WRITE } else { Interest::EDGE_READ };
        self.poller.modify(stream, slot as u64, interest)
    }

    /// Deregister a connection. Must precede closing its socket so a
    /// recycled fd cannot alias a stale registration.
    pub(crate) fn unwatch_conn(&self, stream: &TcpStream) {
        let _ = self.poller.delete(stream);
    }

    /// Consume pending wake bytes (level-triggered: stops the re-report).
    pub(crate) fn drain_wakes(&self) {
        self.wake_rx.drain();
    }

    /// One poll round: clear and refill `events`.
    pub(crate) fn poll(&mut self, timeout: Duration, events: &mut Vec<Event>) -> io::Result<usize> {
        events.clear();
        self.poller.wait(Some(timeout), events)
    }
}
