//! One federation shard: a driver-owner thread draining its bounded
//! command queue, and the publisher that feeds the shard's snapshot
//! cell (DESIGN.md §10.7).
//!
//! A shard is the pre-federation service core, unchanged: exactly one
//! thread owns the [`OnlineDriver`], commands are processed strictly
//! FIFO, and after each mutation a fresh [`crate::state::StateSnapshot`]
//! is swapped into the shard's [`SnapshotCell`]. What federation adds is
//! on the edges — the two drain phases ([`Command::Quiesce`] /
//! [`Command::DrainShard`]) and the reroute hand-off: a submit that
//! reaches a quiesced shard is forwarded to the next live shard by the
//! router instead of being refused, so a drain racing a submit can shed
//! it with a stable reason token but never drop it.

use crate::codec::Snapshot;
use crate::driver::OnlineDriver;
use crate::server::{draining_response, Command, Shared};
use crate::state::SnapshotCell;
use crate::wire;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Publishes [`crate::state::StateSnapshot`]s into the shard's cell
/// after driver mutations, reusing the heavyweight artifact `Arc`
/// across quiet ticks (same [`OnlineDriver::change_stamp`] — nothing to
/// re-serialize).
pub(crate) struct Publisher {
    cell: Arc<SnapshotCell>,
    version: u64,
    stamp: (u64, u64, u64),
    artifact: Arc<Snapshot>,
}

impl Publisher {
    /// Build a publisher around a fresh driver, seeding its cell with
    /// the version-0 view so the read lane answers before the first
    /// mutation lands.
    pub(crate) fn seed(driver: &OnlineDriver) -> Publisher {
        let artifact = Arc::new(driver.snapshot());
        let stamp = driver.change_stamp();
        let cell = Arc::new(SnapshotCell::new(driver.state_snapshot(0, Arc::clone(&artifact))));
        Publisher { cell, version: 0, stamp, artifact }
    }

    /// The cell this publisher feeds (the shard's read lane).
    pub(crate) fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.cell)
    }

    pub(crate) fn publish(&mut self, driver: &OnlineDriver) {
        let stamp = driver.change_stamp();
        if stamp != self.stamp {
            self.artifact = Arc::new(driver.snapshot());
            self.stamp = stamp;
        }
        self.version += 1;
        self.cell.publish(driver.state_snapshot(self.version, Arc::clone(&self.artifact)));
    }
}

/// The driver-owner loop for shard `index`: the only code that ever
/// touches this shard's [`OnlineDriver`] after boot. Commands are
/// processed strictly FIFO; after each mutation the publisher swaps a
/// fresh snapshot into the shard's read cell. Exits once shutdown is
/// flagged and the queue stays empty for one poll interval (late
/// commands still get answered).
pub(crate) fn run_shard(
    index: usize,
    mut driver: OnlineDriver,
    commands: Receiver<Command>,
    mut publisher: Publisher,
    shared: &Shared,
) {
    loop {
        let command = match commands.recv_timeout(Duration::from_millis(50)) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) => {
                if shared.stopping() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match command {
            Command::Tick(target) => {
                if driver.is_draining() {
                    continue;
                }
                driver.advance_to(target);
                publisher.publish(&driver);
            }
            Command::Quiesce(ack) => {
                // Phase one of the federated drain: refuse intake from
                // here on, publish the flip so reads see `draining`,
                // then ack. In-flight simulation work keeps ticking in
                // the other shards while the coordinator walks the ring.
                driver.quiesce();
                publisher.publish(&driver);
                let _ = ack.send(());
            }
            Command::DrainShard(out) => {
                // Phase two: run this shard's simulation dry, publishing
                // at every boundary so readers watch the drain progress.
                let snapshot = driver.drain_with(&mut |d| publisher.publish(d));
                publisher.publish(&driver);
                let _ = out.send(Box::new(snapshot));
            }
            // The drain-vs-submit race (DESIGN.md §10.7): this shard was
            // picked by the router, but intake closed before the command
            // was dequeued. Never answer `draining` for the whole
            // service while siblings still admit — reroute instead. The
            // driver cannot make this call itself: `submit` consumes the
            // batch, so the check must happen before it.
            Command::Write(wire::WriteRequest::Submit(jobs), reply, tried)
                if driver.is_draining() =>
            {
                shared.router.reroute_submit(index, jobs, reply, tried);
            }
            Command::Write(request @ wire::WriteRequest::Submit(_), reply, _) => {
                let response =
                    wire::handle_write(&mut driver, request, &mut |d| publisher.publish(d));
                publisher.publish(&driver);
                // A vanished recipient (client hung up mid-call) must
                // not kill the service.
                reply.deliver(response);
            }
            // Drains are planned onto the coordinator, never a shard queue;
            // a stray one is refused rather than left hanging.
            Command::Write(wire::WriteRequest::Drain, reply, _) => {
                reply.deliver(draining_response());
            }
        }
    }
}
