//! Property tests for the unit types: saturation, ordering and the Eq. 1–2
//! arithmetic must behave like totally-ordered non-negative quantities.

use dsp_units::{Dur, Mi, Mips, ResourceVec, Time};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn time_dur_algebra(a in 0u64..u64::MAX / 4, d1 in 0u64..u64::MAX / 4, d2 in 0u64..u64::MAX / 4) {
        let t = Time::from_micros(a);
        let x = Dur::from_micros(d1);
        let y = Dur::from_micros(d2);
        // Associativity of accumulation under no-overflow conditions.
        prop_assert_eq!((t + x) + y, (t + y) + x);
        // since() inverts addition.
        prop_assert_eq!((t + x).since(t), x);
        // Saturation: never panics, never goes below zero.
        prop_assert_eq!(t.since(t + x + Dur::from_micros(1)), Dur::ZERO);
        prop_assert!(x + y >= x.max(y));
        prop_assert_eq!(x.saturating_sub(x + y), Dur::ZERO);
    }

    #[test]
    fn exec_time_monotone_in_size_and_rate(
        l1 in 0.0f64..1e9, l2 in 0.0f64..1e9, g1 in 1.0f64..1e6, g2 in 1.0f64..1e6,
    ) {
        let (small, big) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let (slow, fast) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        // More work at the same rate never takes less time.
        prop_assert!(Mi::new(small).exec_time(Mips::new(slow)) <= Mi::new(big).exec_time(Mips::new(slow)));
        // The same work on a faster node never takes more time.
        prop_assert!(Mi::new(big).exec_time(Mips::new(fast)) <= Mi::new(big).exec_time(Mips::new(slow)));
    }

    #[test]
    fn work_roundtrip_within_rounding(l in 1.0f64..1e7, g in 1.0f64..1e5) {
        let size = Mi::new(l);
        let rate = Mips::new(g);
        let t = size.exec_time(rate);
        let done = Mi::done_in(rate, t);
        // One microsecond of rounding at rate g is g/1e6 MI.
        let tol = g / 1e6 + 1e-9;
        prop_assert!((done.get() - size.get()).abs() <= tol, "{} vs {}", done.get(), size.get());
    }

    #[test]
    fn resource_vec_partial_order(
        a in prop::collection::vec(0.0f64..100.0, 4..5),
        b in prop::collection::vec(0.0f64..100.0, 4..5),
    ) {
        let u = ResourceVec::new(a[0], a[1], a[2], a[3]);
        let v = ResourceVec::new(b[0], b[1], b[2], b[3]);
        let sum = u + v;
        // Component-wise dominance of the sum.
        prop_assert!(u.fits_in(&sum) && v.fits_in(&sum));
        // Saturating subtraction stays non-negative and under the minuend.
        let d = sum - v;
        prop_assert!(d.fits_in(&sum));
        prop_assert!(d.cpu >= 0.0 && d.mem >= 0.0 && d.disk >= 0.0 && d.bw >= 0.0);
        // Dot products are non-negative and symmetric.
        prop_assert!(u.dot(&v) >= 0.0);
        prop_assert!((u.dot(&v) - v.dot(&u)).abs() < 1e-9);
    }

    #[test]
    fn eq1_rate_is_linear_in_weights(cpu in 0.0f64..1e6, mem in 0.0f64..1e6) {
        let g = Mips::from_node_sizes(0.5, cpu, 0.5, mem);
        prop_assert!((g.get() - (0.5 * cpu + 0.5 * mem)).abs() < 1e-9);
        // Degenerate weights collapse to one dimension.
        prop_assert_eq!(Mips::from_node_sizes(1.0, cpu, 0.0, mem).get(), cpu);
    }
}
