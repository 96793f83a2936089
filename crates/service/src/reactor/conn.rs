//! Per-connection state for the reactor: nonblocking reads through the
//! [`FrameBuffer`] codec, a pending-output buffer, and the bookkeeping
//! that keeps replies in request order.
//!
//! Ordering contract: one response line per request line, in order.
//! Reads are answered inline, but the moment a command is handed to the
//! driver (`inflight`) frame processing pauses — a pipelined read after
//! a `submit` stays buffered until the submit's reply lands.

use crate::codec::{FrameBuffer, FrameError, DEFAULT_MAX_FRAME};
use crate::server::Dispatch;
use crate::wire;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Read/write chunk size. 8 KiB holds any read-lane response and all
/// but pathological request lines in one pass.
const CHUNK: usize = 8192;

/// Serialize a response for the wire: one line, newline-terminated. A
/// streamed body's buffer becomes the line — no copy, whatever its size.
pub(crate) fn response_bytes(response: wire::Response) -> Vec<u8> {
    let mut text = response.body.into_text();
    text.push('\n');
    text.into_bytes()
}

pub(crate) struct Conn {
    stream: TcpStream,
    /// Partial-frame reassembly, at [`DEFAULT_MAX_FRAME`] bytes a frame.
    pub(crate) frames: FrameBuffer,
    /// Bytes queued for the socket; `sent` is the flushed prefix.
    out: Vec<u8>,
    sent: usize,
    /// Slot generation: stamps reply tokens so a response for a closed
    /// connection cannot reach the slot's next tenant.
    pub(crate) gen: u32,
    /// A command for this connection is at (or headed to) the driver;
    /// frame processing is paused until its reply arrives.
    pub(crate) inflight: bool,
    /// A dispatch whose shard queue refused it (`Full`); retried every
    /// loop pass so backpressure stalls this connection, not the
    /// thread. The routing decision is baked in: a retry goes to the
    /// same shard the router first picked.
    pub(crate) retry: Option<Dispatch>,
    /// Flush what is queued, then close (drain reply, framing error).
    pub(crate) close_after_flush: bool,
    /// Close immediately; the socket is broken.
    pub(crate) close_now: bool,
    /// Peer sent EOF; no further frames will complete.
    pub(crate) read_closed: bool,
    /// Whether the epoll registration currently includes write interest.
    pub(crate) want_write: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, gen: u32) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(DEFAULT_MAX_FRAME),
            out: Vec::new(),
            sent: 0,
            gen,
            inflight: false,
            retry: None,
            close_after_flush: false,
            close_now: false,
            read_closed: false,
            want_write: false,
        }
    }

    /// The socket, for epoll (de)registration.
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Drain the socket to `WouldBlock` — the edge-triggered contract:
    /// the next readable event only comes after new bytes arrive.
    pub(crate) fn fill(&mut self) {
        let mut chunk = [0u8; CHUNK];
        loop {
            match self.stream.read(chunk.as_mut_slice()) {
                Ok(0) => {
                    self.read_closed = true;
                    return;
                }
                Ok(n) => {
                    if let Some(bytes) = chunk.get(..n) {
                        self.frames.push(bytes);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_now = true;
                    return;
                }
            }
        }
    }

    /// Queue one response line. A `shutdown` response (drain) also
    /// seals the connection: flush, then close.
    pub(crate) fn queue_response(&mut self, response: wire::Response) {
        self.close_after_flush |= response.shutdown;
        let line = response_bytes(response);
        if self.out.is_empty() {
            // The usual case, and the one that matters for a snapshot:
            // the reply's buffer becomes the output buffer.
            self.out = line;
        } else {
            self.out.extend_from_slice(&line);
        }
    }

    /// Queue the one reply a framing violation gets, then seal the
    /// connection — resynchronizing a broken frame stream is impossible.
    pub(crate) fn queue_frame_error(&mut self, error: &FrameError) {
        self.queue_response(wire::Response::refusal(wire::reason::BAD_REQUEST, &error.to_string()));
        self.close_after_flush = true;
    }

    /// Push queued bytes until done or `WouldBlock`. Write readiness is
    /// re-armed by the owner when bytes remain.
    pub(crate) fn pump_out(&mut self) {
        while self.sent < self.out.len() {
            let pending = match self.out.get(self.sent..) {
                Some(p) if !p.is_empty() => p,
                _ => break,
            };
            match self.stream.write(pending) {
                Ok(0) => {
                    self.close_now = true;
                    return;
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_now = true;
                    return;
                }
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
    }

    /// Bytes still queued for the socket.
    pub(crate) fn has_pending_out(&self) -> bool {
        self.sent < self.out.len()
    }

    /// Is this connection finished? True once the socket broke, or once
    /// everything owed to the peer is flushed and nothing more can
    /// arrive (sealed, or EOF with no command still in flight — any
    /// complete buffered frames were already processed by the sweep, so
    /// leftover bytes are a forever-partial frame).
    pub(crate) fn done(&self) -> bool {
        if self.close_now {
            return true;
        }
        if self.has_pending_out() {
            return false;
        }
        self.close_after_flush || (self.read_closed && !self.inflight && self.retry.is_none())
    }
}
