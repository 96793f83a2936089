//! `dsp-service`: the DSP pipeline run as a long-lived online service.
//!
//! The rest of the workspace executes the paper's two-phase loop as a
//! closed batch experiment: all jobs known up front, one engine run, one
//! metrics report. This crate runs the *same* components — offline
//! scheduler at every `sched_period` boundary, epoch preemption loop in
//! between — against a stream of submissions arriving over a socket
//! (DESIGN.md §10):
//!
//! * [`driver::OnlineDriver`] — owns the incremental [`dsp_sim::Engine`],
//!   buffers submissions, batch-schedules them at period boundaries onto
//!   the partially-busy cluster, and drains to an auditable snapshot;
//! * [`admission`] — bounded pending queue with load shedding, plus a
//!   deadline-feasibility pre-check that refuses definitely-hopeless
//!   jobs at the door;
//! * [`wire`] — the newline-delimited JSON protocol (`submit`, `status`,
//!   `metrics`, `snapshot`, `drain`);
//! * [`state`] — the read lane: after every mutation the driver-owner
//!   thread publishes an immutable [`state::StateSnapshot`] into a
//!   [`state::SnapshotCell`], and `status`/`metrics`/`snapshot`/`ping`
//!   are answered from it without ever touching the driver;
//! * [`server`] — boot and lifecycle: bounded per-shard command queues
//!   feeding the driver-owner threads (the write lane; each owner also
//!   keeps its shard's clock), and a minimal blocking [`server::Client`].
//!   Connections are served by the `reactor`, a fixed pool of epoll
//!   event-loop threads that holds 10k+ sockets with a thread count
//!   independent of connection count (linux-only: elsewhere the service
//!   refuses to boot with `Unsupported`);
//! * [`router`] — the sharded federation (DESIGN.md §10.7): `--shards N`
//!   partitions the cluster into N sub-clusters, each with its own
//!   driver, owner thread, queue, and snapshot cell; the router places
//!   submit batches round-robin (hash-by-JobId through the strided id
//!   lanes) and folds every shard's view into each read; shard 0's owner
//!   runs the drain that merges per-shard artifacts back into a single
//!   auditable snapshot over the full cluster;
//! * [`json`] / [`codec`] — a dependency-free JSON kernel and the one
//!   artifact, the versioned snapshot (`format_version` and `kind`
//!   stamps), shared with the `dsp` CLI's writers and `dsp verify`;
//! * [`cli`] — the command line of `dspd`, the daemon's one entry point.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod cli;
pub mod codec;
pub mod driver;
pub mod json;
mod reactor;
pub mod router;
pub mod server;
mod shard;
pub mod state;
pub mod wire;

pub use admission::{AdmissionConfig, AdmitError};
pub use codec::{Snapshot, FORMAT_VERSION};
pub use driver::{JobRequest, JobStatus, OnlineDriver};
pub use router::RoutePolicy;
pub use server::{serve_federated, Client, FederationSpec, ServerConfig, ServerHandle, MAX_SHARDS};
pub use state::{SnapshotCell, StateSnapshot};

use dsp_core::config::Params;
use dsp_core::{ClusterProfile, PreemptMethod, SchedMethod};

/// Seed of the `random` baseline scheduler under the service, which has no
/// seed flag: every shard of every run draws the same placement stream.
const SCHED_SEED: u64 = 0;

/// Instantiate an offline scheduler by its name in `dsp-core`'s method
/// table, at Table II's parameters.
pub fn build_scheduler(name: &str) -> Option<Box<dyn dsp_sched::Scheduler + Send>> {
    SchedMethod::from_name(name).map(|m| m.build(&Params::default(), SCHED_SEED))
}

/// Instantiate a preemption policy by its name in the method table.
pub fn build_policy(name: &str, params: &Params) -> Option<Box<dyn dsp_sim::PreemptPolicy + Send>> {
    PreemptMethod::from_name(name).map(|m| m.build(params))
}

/// Instantiate a cluster: a profile name of the method table, or
/// `uniform:<nodes>:<rate>:<slots>` with at least one node, a finite rate
/// above zero and at least one slot (`None` otherwise).
pub fn build_cluster(name: &str) -> Option<dsp_cluster::ClusterSpec> {
    if let Some(profile) = ClusterProfile::from_name(name) {
        return Some(profile.build());
    }
    let mut parts = name.split(':');
    if parts.next()? != "uniform" {
        return None;
    }
    let nodes: usize = parts.next()?.parse().ok()?;
    let rate: f64 = parts.next()?.parse().ok()?;
    let slots: usize = parts.next()?.parse().ok()?;
    if parts.next().is_some() || nodes == 0 || !(rate.is_finite() && rate > 0.0) || slots == 0 {
        return None;
    }
    Some(dsp_cluster::uniform(nodes, rate, slots))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_are_table_profiles_or_uniform_specs() {
        for profile in ClusterProfile::ALL {
            assert_eq!(build_cluster(profile.name()), Some(profile.build()));
        }
        assert_eq!(build_cluster("uniform:4:1000:2").map(|c| c.len()), Some(4));
        for bad in ["uniform:0:1000:2", "uniform:4:nan:2", "uniform:4:inf:2", "uniform:4:1000:0"] {
            assert!(build_cluster(bad).is_none(), "{bad} must be refused");
        }
        assert!(build_cluster("warp").is_none());
    }
}
