//! The epoll reactor: `dspd`'s one front end (DESIGN.md §10.6). It is
//! linux-only — elsewhere `dsp-epoll` refuses to build a poller, so
//! [`spawn`] fails with `ErrorKind::Unsupported` and the service does not
//! boot.
//!
//! A small **fixed** pool of event-loop threads serves every
//! connection; thread count is independent of connection count, which
//! is what lets one `dspd` hold 10k+ sockets. Each thread owns an epoll
//! instance ([`poller::ThreadPoller`]), a slab of connections
//! ([`conn::Conn`]), and a cross-thread hub (reply inbox + accepted-
//! connection handoff queue + waker). Thread 0 additionally owns the
//! listener and deals accepted sockets round-robin across the pool.
//!
//! The two request lanes are those of DESIGN.md §10.5:
//!
//! * reads (`ping`/`status`/`metrics`/`snapshot`) are answered **inline
//!   on the reactor thread** from the published [`crate::SnapshotCell`]
//!   — no hop, no lock shared with the driver;
//! * writes (`submit`/`drain`) go through the bounded per-shard command
//!   queues with a [`frontend::ReplyHandle`] as the reply sink: the
//!   driver-owner pushes the response into the owning reactor thread's
//!   inbox and wakes it. A full queue parks the command on the
//!   connection for retry — a reactor thread never blocks on the driver,
//!   so one backpressured submitter cannot stall the other connections
//!   on its thread.

mod conn;
mod frontend;
mod poller;

pub(crate) use frontend::{spawn, ReplyHandle};
