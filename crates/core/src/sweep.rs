//! Parallel experiment fan-out.
//!
//! Sweeps are embarrassingly parallel: each configuration runs its own
//! simulation on a `std::thread::scope` worker, results stream back over an
//! mpsc channel tagged with their input index, and order is restored by a
//! final scatter so output is deterministic regardless of thread
//! interleaving. No lock is held around the result sink — workers never
//! contend with each other when a long simulation finishes.

/// Map `f` over `inputs` in parallel, preserving input order in the
/// output. The worker count is the available parallelism (a best guess
/// of 4 when the platform can't say), capped at the input count.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(n);
    if workers <= 1 {
        return inputs.iter().map(&f).collect();
    }

    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let next_ref = &next;
    let inputs_ref = &inputs;
    let f_ref = &f;
    // The scope joins every worker and re-raises a worker's panic here.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                // ordering: Relaxed — a pure work-stealing ticket counter;
                // results flow back through the channel, whose send/recv
                // pair provides the happens-before edge for the data.
                let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f_ref(&inputs_ref[i]);
                tx.send((i, r)).expect("collector outlives workers");
            });
        }
    });
    drop(tx); // close the channel so the drain below terminates
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_and_empty() {
        assert_eq!(parallel_map(vec![7], |&x: &i32| x * 3), vec![21]);
        assert!(parallel_map(Vec::<i32>::new(), |&x| x).is_empty());
    }
}
