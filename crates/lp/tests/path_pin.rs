//! Known-answer pins on the solver's *path*, not just its answers.
//!
//! The tableau kernel may be re-laid-out and its loops rewritten, but it
//! must keep performing the same pivots in the same order on the same
//! numbers: every literal below (objective bits, a hash of the point's
//! bits, node / pivot / warm-hit counts, root-LP iterations) was
//! captured from the `Vec<Vec<f64>>` tableau this crate started with, and
//! one changed pivot anywhere turns a row red. The `disjunctive()` builder
//! is `dsp_sched::dsp_ilp`'s Section III formulation as it was before
//! PR 24 — the full pairwise model: an ordering binary for every task pair,
//! a makespan and a deadline row for every task — kept as an LP-kernel pin
//! (the product now builds only the rows that can bind); the edge shapes at
//! the bottom cover what neither formulation produces.
//!
//! Run it in `--release` too: debug builds execute the scalar form of the
//! pivot loops, release builds the vectorised one.

use dsp_lp::{solve_lp, solve_milp, Cmp, LpError, MilpOptions, Problem, Sense, Status, VarId};

/// splitmix64 — inlined so the pinned models depend on nothing but this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` from the top 53 bits.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv_bits(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The disjunctive makespan model as `dsp_ilp::solve_exact` built it before
/// PR 24:
/// makespan `L`, a start per task, an assignment binary per task × slot, an
/// ordering binary per task pair with two big-M rows per slot; optionally
/// precedence rows over forward edges, deadline rows (feasible by
/// construction: serial execution in index order meets them) and slot
/// release rows.
fn disjunctive(seed: u64, n: usize, k: usize, prec: bool, deadlines: bool, rel: bool) -> Problem {
    let mut rng = Rng(seed);
    let rate: Vec<f64> = (0..k).map(|s| if s == 0 { 1.0 } else { rng.range(0.75, 1.25) }).collect();
    let exec: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let size = rng.range(0.4, 2.0);
            rate.iter().map(|r| size / r).collect()
        })
        .collect();
    let longest = |t: usize| exec[t].iter().cloned().fold(0.0, f64::max);
    let big_m = (0..n).map(longest).sum::<f64>().max(1.0) * 2.0;
    let release: Vec<f64> = (0..k).map(|_| if rel { rng.range(0.1, 1.0) } else { 0.0 }).collect();

    let mut p = Problem::new(Sense::Min);
    let makespan = p.add_var("L", 0.0, f64::INFINITY, 1.0);
    let starts: Vec<VarId> =
        (0..n).map(|t| p.add_var(format!("s{t}"), 0.0, f64::INFINITY, 0.0)).collect();
    let x: Vec<Vec<VarId>> =
        (0..n).map(|t| (0..k).map(|s| p.add_bin_var(format!("x{t}_{s}"), 0.0)).collect()).collect();
    // Σ_k ±e_{t,k} · x_{t,k}: task t's execution time on the slot it is given.
    let on_slot = |t: usize, sign: f64| x[t].iter().zip(&exec[t]).map(move |(&v, e)| (v, sign * e));

    let mut horizon = release.iter().cloned().fold(0.0, f64::max);
    for t in 0..n {
        p.add_constraint(
            format!("assign{t}"),
            x[t].iter().map(|&v| (v, 1.0)).collect(),
            Cmp::Eq,
            1.0,
        );
        let mut terms = vec![(makespan, -1.0), (starts[t], 1.0)];
        terms.extend(on_slot(t, 1.0));
        p.add_constraint(format!("mk{t}"), terms, Cmp::Le, 0.0);
        horizon += longest(t);
        if deadlines {
            let mut terms = vec![(starts[t], 1.0)];
            terms.extend(on_slot(t, 1.0));
            p.add_constraint(format!("dl{t}"), terms, Cmp::Le, horizon + rng.range(0.0, 0.5));
        }
    }
    if rel {
        for t in 0..n {
            let mut terms = vec![(starts[t], 1.0)];
            terms.extend(x[t].iter().zip(&release).map(|(&v, r)| (v, -r)));
            p.add_constraint(format!("rel{t}"), terms, Cmp::Ge, 0.0);
        }
    }
    if prec {
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.next() % 5 < 2 {
                    let mut terms = vec![(starts[v], 1.0), (starts[u], -1.0)];
                    terms.extend(on_slot(u, -1.0));
                    p.add_constraint(format!("prec{u}_{v}"), terms, Cmp::Ge, 0.0);
                }
            }
        }
    }
    for u in 0..n {
        for v in (u + 1)..n {
            let y = p.add_bin_var(format!("y{u}_{v}"), 0.0);
            for s in 0..k {
                let pair = |a: usize, b: usize, ym: f64| {
                    vec![
                        (starts[a], 1.0),
                        (starts[b], -1.0),
                        (y, ym),
                        (x[u][s], big_m),
                        (x[v][s], big_m),
                    ]
                };
                p.add_constraint(
                    format!("d{u}b{v}k{s}"),
                    pair(u, v, big_m),
                    Cmp::Le,
                    3.0 * big_m - exec[u][s],
                );
                p.add_constraint(
                    format!("d{v}b{u}k{s}"),
                    pair(v, u, -big_m),
                    Cmp::Le,
                    2.0 * big_m - exec[v][s],
                );
            }
        }
    }
    p
}

/// Everything the determinism contract covers, for one model: the MILP
/// solve and the root relaxation.
#[derive(Debug, PartialEq)]
struct Pin {
    /// `Ok(status)` or the error, as `{:?}` prints it.
    status: &'static str,
    objective: u64,
    x: u64,
    nodes: usize,
    pivots: usize,
    warm_hits: usize,
    lp_iterations: usize,
    lp_objective: u64,
    lp_x: u64,
}

fn status_name(r: Result<Status, &LpError>) -> &'static str {
    match r {
        Ok(Status::Optimal) => "Optimal",
        Ok(Status::BudgetExhausted) => "BudgetExhausted",
        Ok(_) => "other status",
        Err(LpError::Infeasible) => "Infeasible",
        Err(LpError::Unbounded) => "Unbounded",
        Err(LpError::NoIncumbent) => "NoIncumbent",
        Err(LpError::IterationLimit) => "IterationLimit",
        Err(LpError::Model(_)) => "Model",
    }
}

fn pin(p: &Problem, opts: MilpOptions) -> Pin {
    let (lp_iterations, lp_objective, lp_x) = match solve_lp(p) {
        Ok(s) => (s.iterations, s.objective.to_bits(), fnv_bits(&s.x)),
        Err(_) => (0, 0, 0),
    };
    let milp = solve_milp(p, opts);
    if let Ok(s) = &milp {
        assert_eq!(s.rounds, s.nodes, "`rounds` must equal `nodes`");
    }
    match milp {
        Ok(s) => Pin {
            status: status_name(Ok(s.status)),
            objective: s.objective.to_bits(),
            x: fnv_bits(&s.x),
            nodes: s.nodes,
            pivots: s.pivots,
            warm_hits: s.warm_hits,
            lp_iterations,
            lp_objective,
            lp_x,
        },
        Err(e) => Pin {
            status: status_name(Err(&e)),
            objective: 0,
            x: 0,
            nodes: 0,
            pivots: 0,
            warm_hits: 0,
            lp_iterations,
            lp_objective,
            lp_x,
        },
    }
}

/// Solve every model and hold it to the table. On a mismatch the panic
/// message carries the whole table as this build computes it, in source
/// form.
fn assert_pinned(models: &[(Problem, MilpOptions)], expected: &[Pin]) {
    let actual: Vec<Pin> = models.iter().map(|(p, opts)| pin(p, *opts)).collect();
    let table: String = actual
        .iter()
        .map(|a| {
            format!(
                "    row({:?}, {:#018x}, {:#018x}, [{}, {}, {}], {}, {:#018x}, {:#018x}),\n",
                a.status,
                a.objective,
                a.x,
                a.nodes,
                a.pivots,
                a.warm_hits,
                a.lp_iterations,
                a.lp_objective,
                a.lp_x
            )
        })
        .collect();
    assert!(actual == expected, "the solver's path moved; this build computes:\n{table}");
}

const fn row(
    status: &'static str,
    objective: u64,
    x: u64,
    [nodes, pivots, warm_hits]: [usize; 3],
    lp_iterations: usize,
    lp_objective: u64,
    lp_x: u64,
) -> Pin {
    Pin { status, objective, x, nodes, pivots, warm_hits, lp_iterations, lp_objective, lp_x }
}

/// 32 models: 3–6 tasks × 1–2 slots, and per block of eight one of
/// {bare, precedence, deadlines + releases, all three}. The last one is the
/// dual ratio test's pivot tolerance pinned: a dual re-entry that pivoted on
/// ~1e-9 entries stalled its tree at 31 292 pivots; refusing entries below
/// 1e-7 settles the same objective and point in 3 520 (939 nodes).
fn disjunctive_models() -> Vec<(Problem, MilpOptions)> {
    (0..32usize)
        .map(|i| {
            let flags = [0b000, 0b001, 0b110, 0b111][i / 8];
            let p = disjunctive(
                2018 + i as u64,
                3 + i % 4,
                1 + (i / 4) % 2,
                flags & 1 != 0,
                flags & 2 != 0,
                flags & 4 != 0,
            );
            (p, MilpOptions::default())
        })
        .collect()
}

#[test]
fn disjunctive_models_keep_their_path() {
    assert_pinned(&disjunctive_models(), DISJUNCTIVE);
}

#[rustfmt::skip]
const DISJUNCTIVE: &[Pin] = &[
    row("Optimal", 0x4015b4c0ef4a8ff8, 0x536292ecce314bbe, [11, 46, 10], 24, 0x3ffea4dbdaf4f6b7, 0xc086103b601e6939),
    row("Optimal", 0x4012899536fa94c6, 0x655f8b75ab0a89b2, [47, 143, 46], 45, 0x3ff6fe39a4f62b46, 0xe7f380d350998f91),
    row("Optimal", 0x4016452fc9baf2a2, 0x9f917b0083ebc0cd, [241, 602, 239], 60, 0x3ffc01cf7adff456, 0x3fcb52b2fa212beb),
    row("Optimal", 0x401b3fd3a770de85, 0xdd108a28190bfb59, [1479, 3455, 1458], 99, 0x3fffc160cf28b06d, 0x1eebf3073884ee57),
    row("Optimal", 0x40017f0f523ccd94, 0x5e66c2175f07901b, [18, 97, 17], 59, 0x3ffc33ca964f8dc7, 0x6045c9cf0834f9e6),
    row("Optimal", 0x40024a384301d258, 0x2a172748bafae6f6, [59, 244, 58], 91, 0x3ff6b88a4779aa8c, 0xf679b5811f59d6b5),
    row("Optimal", 0x4003a5ad399ad74f, 0x6a176f0a11285d09, [207, 805, 206], 223, 0x3ffa101f495edbdf, 0xfa0e797fbef3291a),
    row("Optimal", 0x4012466138a9f3d0, 0x999c4c824900453f, [2305, 6146, 2283], 242, 0x3fffab907bbb0c02, 0x24e86c0d7f6d4195),
    row("Optimal", 0x40119466904eb790, 0xef1248fb1044be94, [3, 27, 2], 23, 0x4009ec2c33eb2c5c, 0xe07f8ea2663d22c0),
    row("Optimal", 0x4015a6a08f3a4c0b, 0xad83bb1e8db35442, [1, 38, 0], 38, 0x4015a6a08f3a4c0b, 0xad83bb1e8db35442),
    row("Optimal", 0x4018db1c8f660423, 0x6d83e73c55daca92, [23, 111, 22], 61, 0x400d07448b31c116, 0x5e4fba35e4286492),
    row("Optimal", 0x401657e4809af024, 0x6c0b88743c526b41, [87, 285, 86], 90, 0x4002c2bdfda05850, 0xd7abf6d2eda132c8),
    row("Optimal", 0x4003aacad5635caa, 0x4c2e8c545e634440, [1, 57, 0], 57, 0x4003aacad5635caa, 0xcd2f018c8f59ba8f),
    row("Optimal", 0x3ff7b9c8a49fbb4f, 0x922d1b8ba1e4bef1, [6, 115, 5], 106, 0x3ff7b9c8a49fbb4f, 0x59edd284891a5928),
    row("Optimal", 0x40165d3e691149d3, 0xe227836a5ab56a73, [25, 220, 24], 154, 0x4015ef77307c2ea7, 0x1f6048c2191f009f),
    row("Optimal", 0x400956523a3b7cfa, 0x3eb4a83da90faac5, [5, 261, 4], 251, 0x400956523a3b7cfa, 0x357419156226bc57),
    row("Optimal", 0x40061f14b7b5899f, 0xc2b28e19affff252, [5, 40, 2], 31, 0x3ff896a65e7fc64b, 0x0bcb8ac491ea6b15),
    row("Optimal", 0x4015512253b832c6, 0x32e7b695c06ced7c, [13, 79, 6], 51, 0x40018721448771e1, 0x67dbaa7c7311f0fd),
    row("Optimal", 0x4017aeaaaf0e36a7, 0x010e0c9f43dd2ba1, [31, 151, 15], 73, 0x40011d35d4e9afeb, 0x6685af30ef0ff1a3),
    row("Optimal", 0x401c9daf3d3eabad, 0x47cf6d0633f83a5b, [135, 442, 67], 99, 0x4004437cfe50b7ca, 0x427886c627684e2e),
    row("Optimal", 0x4007f42adbabab8c, 0x86b2d585641aa58c, [35, 140, 29], 61, 0x4003890518cc8551, 0x7dc49abda38798e7),
    row("Optimal", 0x40107fcc0760ab89, 0x609df99c2a742372, [109, 365, 84], 102, 0x4002dc676c95c0f7, 0x3c642c8581f8dbf6),
    row("Optimal", 0x40096185e9f0bcae, 0x25fe3f342a6ef3ea, [139, 521, 112], 139, 0x4000c432bd027f3f, 0x33fb79237f5fa58b),
    row("Optimal", 0x4012cc2c5c6f7bc9, 0x4bbac82ae72c8c82, [655, 1921, 545], 211, 0x4003381cd5c3265e, 0x2a1705120f775591),
    row("Optimal", 0x40156e5a619a38c8, 0x380f7868b959d2ad, [3, 35, 1], 32, 0x40104b5478052772, 0x97afa58f52178ee0),
    row("Optimal", 0x40180533efe69c3e, 0x00fbb3b5095336e1, [7, 61, 3], 48, 0x400bfab41b24ee18, 0xd3c6a418200bb187),
    row("Optimal", 0x401db27f7cc0cfb6, 0xa951865ab8126e82, [7, 88, 3], 73, 0x4011ba5deab3933c, 0x85b208ebcd4bd80b),
    row("Optimal", 0x40201b6d5674b370, 0xe515e36855607873, [23, 151, 11], 95, 0x400f53613714eeff, 0x26188b4014095525),
    row("Optimal", 0x3ffd01547a19bbb9, 0x517f0553dab719cb, [1, 54, 0], 54, 0x3ffd01547a19bbb9, 0x0629841aaf919b28),
    row("Optimal", 0x400bf857a3eac4e5, 0xb425e9dcec17618d, [5, 97, 4], 90, 0x400bf857a3eac4e5, 0x35e388d98210832a),
    row("Optimal", 0x4009604dffdd1352, 0x54df0b8b5d6a5f7b, [1, 148, 0], 148, 0x4009604dffdd1352, 0x367393a5516b1003),
    row("Optimal", 0x401676c7e4778fb7, 0x6498428a2d580502, [939, 3520, 743], 176, 0x4014c209e0635479, 0x9f9497f1c0eed32b),
];

/// Shapes the scheduling model never produces, each a place where dropping
/// the artificial columns after phase 1 could go wrong.
fn edge_models() -> Vec<(Problem, MilpOptions)> {
    let default = MilpOptions::default();
    let mut models = Vec::new();

    // Redundant equality: the second row is twice the first, no structural
    // pivot can drive its artificial out, and every B&B child inherits that
    // inert row.
    let mut p = Problem::new(Sense::Min);
    let x = p.add_int_var("x", 0.0, 5.0, 0.1);
    let y = p.add_int_var("y", 0.0, 5.0, 0.2);
    let z = p.add_var("z", 0.0, f64::INFINITY, 1.0);
    p.add_constraint("e", vec![(x, 2.0), (y, 2.0), (z, 1.0)], Cmp::Eq, 7.0);
    p.add_constraint("2e", vec![(x, 4.0), (y, 4.0), (z, 2.0)], Cmp::Eq, 14.0);
    p.add_constraint("c", vec![(x, 1.0), (y, -1.0)], Cmp::Le, 1.5);
    models.push((p, default));

    // Infeasible in phase 1.
    let mut p = Problem::new(Sense::Min);
    let x = p.add_int_var("x", 0.0, 10.0, 1.0);
    let y = p.add_int_var("y", 0.0, 10.0, 1.0);
    p.add_constraint("lo", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 6.5);
    p.add_constraint("hi", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.5);
    models.push((p, default));

    // A free (split into two columns) and an upper-bounded-only (flipped)
    // integer variable, both fractional at the root, both branched on.
    let mut p = Problem::new(Sense::Max);
    let x = p.add_int_var("x", f64::NEG_INFINITY, f64::INFINITY, 2.0);
    let y = p.add_int_var("y", f64::NEG_INFINITY, 7.5, 3.0);
    p.add_constraint("a", vec![(x, 4.0), (y, 2.0)], Cmp::Le, 9.0);
    p.add_constraint("b", vec![(x, 1.0), (y, -1.0)], Cmp::Ge, -9.25);
    p.add_constraint("c", vec![(x, 2.0), (y, 5.0)], Cmp::Le, 31.0);
    models.push((p, default));

    // Equality rows only (every basis column of phase 1 is artificial).
    let mut p = Problem::new(Sense::Min);
    let a = p.add_int_var("a", 0.0, 10.0, 1.0);
    let b = p.add_int_var("b", 0.0, 10.0, 2.0);
    let c = p.add_int_var("c", 0.0, 10.0, 3.0);
    let u = p.add_var("u", 0.0, f64::INFINITY, 4.0);
    let w = p.add_var("w", 0.0, f64::INFINITY, 5.0);
    p.add_constraint("e1", vec![(a, 1.0), (b, 1.0), (c, 1.0)], Cmp::Eq, 4.0);
    p.add_constraint("e2", vec![(a, 3.0), (b, 2.0), (c, 4.0), (w, 1.0)], Cmp::Eq, 12.6);
    p.add_constraint("e3", vec![(a, 1.0), (b, 1.0), (c, -1.0), (u, 1.0)], Cmp::Eq, 2.5);
    models.push((p, default));

    // Warm re-entries capped at two pivots: the ones that need more give up
    // and their nodes are cold-solved from the root rows.
    let p = disjunctive(70, 4, 2, true, false, false);
    models.push((p, MilpOptions { warm_pivot_cap: Some(2), ..default }));

    models
}

#[test]
fn edge_shapes_keep_their_path() {
    assert_pinned(&edge_models(), EDGE);
}

#[rustfmt::skip]
const EDGE: &[Pin] = &[
    row("Optimal", 0x3ff6666666666667, 0x85d1101b4cd3a525, [13, 15, 8], 6, 0x3fdcccccccccccce, 0xae819d2703a9e73c),
    row("Infeasible", 0x0000000000000000, 0x0000000000000000, [0, 0, 0], 0, 0x0000000000000000, 0x0000000000000000),
    row("Optimal", 0x4031000000000000, 0xad2be05439f173e9, [3, 6, 2], 4, 0x4031c00000000000, 0xbce8dd9da79517bb),
    row("Optimal", 0x4027fffffffffffe, 0x0b3b23ee60a5c5d2, [7, 12, 4], 8, 0x4016999999999998, 0x09afa5ffcbd4ace4),
    row("Optimal", 0x4009badec4835c30, 0xf2420d6a7b5693aa, [35, 1454, 15], 80, 0x40059aba0f12838b, 0x5f6dd9d8b754539e),
];
