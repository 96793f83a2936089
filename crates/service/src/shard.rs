//! One federation shard: a driver-owner thread draining its bounded
//! command queue, and the publisher that feeds the shard's snapshot
//! cell (DESIGN.md §10.7).
//!
//! A shard is the pre-federation service core, unchanged: exactly one
//! thread owns the [`OnlineDriver`], commands are processed strictly
//! FIFO, and after each mutation a fresh [`crate::state::StateSnapshot`]
//! is swapped into the shard's [`SnapshotCell`]. What federation adds is
//! [`Command::DrainShard`], the coordinator's request to run this shard
//! dry and hand back its snapshot. FIFO order is what makes that one
//! command enough: a submit dequeued after it finds the driver draining
//! and is refused `draining` by [`OnlineDriver::submit`].

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

/// A shard's driver-owner loop: the only code that ever touches its
/// [`OnlineDriver`] after boot. Commands are
/// processed strictly FIFO; after each mutation the publisher swaps a
/// fresh snapshot into the shard's read cell. Exits once shutdown is
/// flagged and the queue stays empty for one poll interval (late
/// commands still get answered).
pub(crate) fn run_shard(
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
            Command::DrainShard(out) => {
                // Run this shard's simulation dry, publishing at every
                // boundary so readers watch the drain progress.
                let snapshot = driver.drain_with(&mut |d| publisher.publish(d));
                publisher.publish(&driver);
                let _ = out.send(Box::new(snapshot));
            }
            Command::Write(request @ wire::WriteRequest::Submit(_), reply) => {
                let response =
                    wire::handle_write(&mut driver, request, &mut |d| publisher.publish(d));
                publisher.publish(&driver);
                // A vanished recipient (client hung up mid-call) must
                // not kill the service.
                reply.deliver(response);
            }
            // Drains are planned onto the coordinator, never a shard queue;
            // a stray one is refused rather than left hanging.
            Command::Write(wire::WriteRequest::Drain, reply) => {
                reply.deliver(draining_response());
            }
        }
    }
}
