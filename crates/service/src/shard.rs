//! One federation shard: the driver-owner thread, which works through
//! its bounded command queue and keeps the shard's clock, and the
//! publisher that feeds the shard's snapshot cell (DESIGN.md §10.7).
//!
//! Exactly one thread owns the [`OnlineDriver`]: commands are processed
//! strictly FIFO, the clock advances the driver whenever a tick is due,
//! and after each mutation a fresh [`crate::state::StateSnapshot`] is
//! swapped into the shard's [`SnapshotCell`]. Shard 0's owner also runs
//! the federated drain: it sends every other shard a
//! [`Command::DrainShard`], the request to run dry and hand back its
//! snapshot. FIFO order is what makes that one command enough: a submit
//! dequeued after it finds the driver draining and is refused
//! `draining` by [`OnlineDriver::submit`].

use crate::codec::Snapshot;
use crate::driver::OnlineDriver;
use crate::server::{Command, Shared};
use crate::state::SnapshotCell;
use crate::wire;
use dsp_units::Time;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle owner waits before it looks at the stop flag again.
const STOP_POLL: Duration = Duration::from_millis(50);

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

/// A shard's clock: simulation time is `scale` simulated seconds per
/// wall second since `boot`, the instant every shard of one service
/// shares, and the owner advances its driver to it once per `tick`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    pub(crate) boot: Instant,
    pub(crate) scale: f64,
    pub(crate) tick: Duration,
}

impl Clock {
    fn now(&self) -> Time {
        Time::from_secs_f64(self.boot.elapsed().as_secs_f64() * self.scale)
    }
}

/// Run the driver dry, publishing at every boundary so readers watch the
/// drain progress, and once more at the end.
fn drain(driver: &mut OnlineDriver, publisher: &mut Publisher) -> Snapshot {
    let snapshot = driver.drain_with(&mut |d| publisher.publish(d));
    publisher.publish(driver);
    snapshot
}

/// A shard's driver-owner loop: the only code that ever touches its
/// [`OnlineDriver`] after boot. Commands are processed strictly FIFO;
/// after each mutation the publisher swaps a fresh snapshot into the
/// shard's read cell. Between commands the owner keeps the shard's
/// clock: whenever a tick is due it advances the driver to the wall
/// clock's instant, so the clock moves however full the queue is. A
/// draining driver is never ticked. Exits once shutdown is flagged and
/// the queue stays empty for one poll interval (late commands still get
/// answered).
pub(crate) fn run_shard(
    mut driver: OnlineDriver,
    commands: Receiver<Command>,
    mut publisher: Publisher,
    clock: Clock,
    shared: &Shared,
) {
    let mut due = clock.boot + clock.tick;
    loop {
        let stopping = shared.stopping();
        let mut wait = STOP_POLL;
        if !stopping {
            if Instant::now() >= due {
                if !driver.is_draining() {
                    driver.advance_to(clock.now());
                    publisher.publish(&driver);
                }
                due = Instant::now() + clock.tick;
            }
            wait = wait.min(due.saturating_duration_since(Instant::now()));
        }
        let command = match commands.recv_timeout(wait) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) if stopping => break,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match command {
            Command::DrainShard(out) => {
                let _ = out.send(Box::new(drain(&mut driver, &mut publisher)));
            }
            // `Router::plan` sends every drain to shard 0, which runs the
            // federated drain and then stops the service.
            Command::Write(wire::WriteRequest::Drain, reply) => {
                let response = shared.router.drain_all(|| drain(&mut driver, &mut publisher));
                let shutdown = response.shutdown;
                reply.deliver(response);
                if shutdown {
                    shared.stop();
                }
            }
            Command::Write(request, reply) => {
                let response =
                    wire::handle_write(&mut driver, request, &mut |d| publisher.publish(d));
                publisher.publish(&driver);
                // A vanished recipient (client hung up mid-call) must
                // not kill the service.
                reply.deliver(response);
            }
        }
    }
}
