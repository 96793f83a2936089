// C2 good (shard owner): publish under the guard, release, then do the
// blocking reply send with no lock held.
use std::sync::mpsc::Sender;
use std::sync::{PoisonError, RwLock};

pub fn publish_and_reply(cell: &RwLock<u64>, reply: &Sender<u64>, version: u64) {
    let mut guard = cell.write().unwrap_or_else(PoisonError::into_inner);
    *guard = version;
    drop(guard);
    let _ = reply.send(version);
}
