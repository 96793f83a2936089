//! Host-slowness calibration: what lets a bound mean something on a shared
//! box.
//!
//! The reference box is a 2-vCPU guest whose neighbours contend for the
//! cache and memory system: a register-only ALU loop repeats within ±1.5 %
//! there, while a pointer chase over 2 MB takes anything from 1× to 3× its
//! quiet time, in phases lasting seconds to minutes — and the workloads,
//! which chase pointers through heaps, maps and vectors of structs, slow
//! down with it, repetition by repetition (`steadiness/reps.tsv` has every
//! repetition of the acceptance runs beside the reading taken around it).
//! The median of one run's repetitions then moves by up to 43 % (interquartile
//! range over median) from one run to the next, on the same commit: wider
//! than any bound the benchmark's driver accepts (≤ 25 %).
//!
//! So every repetition is bracketed by this kernel — fixed, benchmark-owned
//! work that is slow for the same reason the workloads are — and the gated
//! metrics divide its times by how much slower than on a quiet reference
//! box the kernel ran, which brings that movement down to 2–10 %. A change
//! to the program cannot move the kernel, so a regression shows in full.
//! The same metrics in host seconds as measured, and every repetition with
//! its reading, are printed beside the corrected ones.
//!
//! The two reference times below are the reference box's. On another host
//! they scale every corrected time by one constant factor (that host's
//! quiet kernel time over the reference box's), which cancels wherever a
//! bound applies: a bound compares two results from the same host.

use std::collections::BTreeMap;
use std::time::Instant;

/// Steps of the pointer chase (dependent loads over a 2 MB permutation:
/// cache-miss latency).
const CHASE_STEPS: usize = 800_000;
/// Rounds of the allocate–sort–index kernel (allocation, compares,
/// branches, B-tree inserts: what the engine's own data structures do).
const SORT_ROUNDS: usize = 8;
const SORT_LEN: u64 = 60_000;

/// Seconds each half takes on the quiet reference box (the 10th percentile
/// of 844 samples taken there; see the module comment).
const CHASE_REF_S: f64 = 0.0136;
const SORT_REF_S: f64 = 0.0090;

pub struct Calibrator {
    /// A single-cycle permutation of `0..len`: following it visits every
    /// slot, in an order no prefetcher guesses.
    next: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // Sattolo's algorithm with an LCG: one cycle through all slots.
        let mut next: Vec<u32> = (0..1u32 << 19).collect();
        let mut x = 12345u64;
        for i in (1..next.len()).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            next.swap(i, (x >> 33) as usize % i);
        }
        Calibrator { next }
    }

    /// How many times slower than on the quiet reference box the host runs
    /// memory-bound code right now (≈ 22 ms of fixed work; 1.0 = quiet).
    pub fn slowness(&self) -> f64 {
        let t = Instant::now();
        let (mut at, mut sum) = (0u32, 0u64);
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
            sum = sum.wrapping_add(u64::from(at));
        }
        std::hint::black_box(sum);
        let chase = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for round in 0..SORT_ROUNDS as u64 {
            let mut v: Vec<u64> = (0..SORT_LEN)
                .map(|i| (i + round).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
                .collect();
            v.sort_unstable();
            let index: BTreeMap<u64, u64> = v.iter().step_by(16).map(|k| (*k, *k)).collect();
            std::hint::black_box((v, index));
        }
        let sort = t.elapsed().as_secs_f64();
        (chase / CHASE_REF_S + sort / SORT_REF_S) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let c = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, c.next.len());
    }

    #[test]
    fn slowness_is_a_positive_finite_factor() {
        let s = Calibrator::new().slowness();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
