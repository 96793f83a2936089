// C2 bad (shard owner): holding the snapshot cell's write guard across
// the blocking reply send convoys every reader behind one slow client.
// (The guard comes out of the poison-recovery idiom, not `.unwrap()`:
// the binding is still a guard.)
use std::sync::mpsc::Sender;
use std::sync::{PoisonError, RwLock};

pub fn publish_and_reply(cell: &RwLock<u64>, reply: &Sender<u64>, version: u64) {
    let mut guard = cell.write().unwrap_or_else(PoisonError::into_inner);
    *guard = version;
    let _ = reply.send(version);
}
