//! The daemon's command line: `dspd`, the service's one entry point, is
//! this one function.
//!
//! Boots [`crate::serve_federated`], prints `dspd listening on HOST:PORT`
//! (port 0 picks an ephemeral port) and the shard layout, and serves
//! until a client sends `{"op":"drain"}`. `--time-scale` is
//! simulated seconds per wall second (default 600: one 300 s scheduling
//! period every half wall-second); `--max-conns` sheds excess clients
//! with one `busy` reply; `--shards` is DESIGN.md §10.7.

use crate::{
    build_cluster, serve_federated, AdmissionConfig, FederationSpec, ServerConfig, MAX_SHARDS,
    SCHED_SEED,
};
use dsp_core::config::Params;
use dsp_core::flags::{usage_error, Flags};
use dsp_core::{ClusterProfile, PreemptMethod, SchedMethod};
use dsp_units::Dur;
use std::io::Write;

/// What `dspd` prints (stderr, exit 2) on a malformed command line; the
/// method names are the method table's.
pub fn usage() -> String {
    format!(
        "usage: dspd [--addr HOST:PORT] [--cluster {}|uniform:N:RATE:SLOTS] \
         [--sched {}] [--preempt {}] \
         [--period SECS] [--epoch SECS] [--time-scale F] [--max-pending TASKS] \
         [--no-feasibility] [--max-conns N] [--shards N]",
        ClusterProfile::usage(),
        SchedMethod::usage(),
        PreemptMethod::usage(),
    )
}

/// A whole number of seconds, at least one.
fn positive_secs(flags: &mut Flags) -> Result<Dur, String> {
    flags
        .read("a whole number of seconds ≥ 1", |s| s.parse().ok().filter(|&s| s > 0))
        .map(Dur::from_secs)
}

/// Parse the daemon's flags into what [`serve_federated`] takes. Every
/// name (cluster, scheduler, policy) is resolved as it is read, so the
/// per-shard factories in the returned spec cannot fail.
pub fn parse_args(argv: &[String]) -> Result<(FederationSpec, ServerConfig), String> {
    let mut config = ServerConfig::default();
    let mut cluster = ClusterProfile::Ec2.build();
    let mut sched = SchedMethod::Dsp;
    let mut preempt = PreemptMethod::Dsp;
    let mut params = Params::default();
    let mut admission = AdmissionConfig::default();

    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag()? {
        match flag {
            "--addr" => config.addr = flags.value()?,
            "--cluster" => cluster = flags.read("a cluster", build_cluster)?,
            "--sched" => sched = flags.read("a scheduler", SchedMethod::from_name)?,
            "--preempt" => preempt = flags.read("a policy", PreemptMethod::from_name)?,
            "--period" => params.sched_period = positive_secs(&mut flags)?,
            "--epoch" => params.engine.epoch = positive_secs(&mut flags)?,
            // `scale <= 0.0` alone lets NaN through to a frozen clock.
            "--time-scale" => {
                config.time_scale = flags.read("a finite number above 0", |s| {
                    s.parse().ok().filter(|&scale: &f64| scale.is_finite() && scale > 0.0)
                })?
            }
            "--max-pending" => admission.max_pending_tasks = flags.value()?,
            "--no-feasibility" => admission.check_feasibility = false,
            "--max-conns" => config.max_conns = flags.value()?,
            "--shards" => {
                config.shards = flags.read(&format!("a count in 1..={MAX_SHARDS}"), |s| {
                    s.parse().ok().filter(|n| (1..=MAX_SHARDS).contains(n))
                })?
            }
            _ => return Err(flags.unknown()),
        }
    }

    let spec = FederationSpec {
        cluster,
        engine: params.engine,
        sched_period: params.sched_period,
        admission,
        scheduler: Box::new(move || sched.build(&params, SCHED_SEED)),
        policy: Box::new(move || preempt.build(&params)),
    };
    Ok((spec, config))
}

/// Run the daemon to completion and return its exit code: 2 on a usage
/// error, 1 when the service cannot start, 0 after a drain.
pub fn run(argv: &[String]) -> i32 {
    let (spec, config) = match parse_args(argv) {
        Ok(parsed) => parsed,
        Err(msg) => return usage_error("dspd", &msg, &usage()),
    };
    let handle = match serve_federated(spec, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dspd: failed to start: {e}");
            return 1;
        }
    };
    // The smoke script and client tooling scrape these lines.
    println!("dspd listening on {}", handle.addr);
    println!("dspd shards: {}", handle.shards());
    let _ = std::io::stdout().flush();
    handle.wait();
    println!("dspd drained; exiting");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(FederationSpec, ServerConfig), String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn no_flags_means_the_default_config() {
        let (spec, config) = parse("").expect("no flags is a valid command line");
        assert_eq!(config, ServerConfig::default());
        assert_eq!(spec.cluster.len(), 30, "ec2 profile");
        assert_eq!(spec.sched_period, Params::default().sched_period);
        assert_eq!(spec.engine, Params::default().engine);
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let (spec, config) = parse(
            "--addr 0.0.0.0:7 --cluster uniform:6:1000:2 --sched fifo --preempt none \
             --period 60 --epoch 2 --time-scale 1200 --max-pending 99 --no-feasibility \
             --max-conns 5 --shards 2",
        )
        .expect("a well-formed command line");
        let expected = ServerConfig {
            addr: "0.0.0.0:7".into(),
            time_scale: 1200.0,
            max_conns: 5,
            shards: 2,
            ..ServerConfig::default()
        };
        assert_eq!(config, expected);
        assert_eq!(spec.cluster.len(), 6);
        assert_eq!(spec.sched_period, Dur::from_secs(60));
        assert_eq!(spec.engine.epoch, Dur::from_secs(2));
        assert_eq!(spec.admission.max_pending_tasks, 99);
        assert!(!spec.admission.check_feasibility);
    }

    #[test]
    fn every_method_of_the_table_is_accepted_and_printed() {
        let usage = usage();
        for sched in SchedMethod::ALL {
            for preempt in PreemptMethod::ALL {
                let line = format!("--sched {} --preempt {}", sched.name(), preempt.name());
                let (spec, _) = parse(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
                assert_eq!((spec.scheduler)().name(), sched.build(&Params::default(), 0).name());
                assert_eq!((spec.policy)().name(), preempt.build(&Params::default()).name());
                assert!(usage.contains(preempt.name()), "usage lacks {}", preempt.name());
            }
            assert!(usage.contains(sched.name()), "usage lacks {}", sched.name());
        }
        for profile in ClusterProfile::ALL {
            let (spec, _) = parse(&format!("--cluster {}", profile.name())).expect("a profile");
            assert_eq!(spec.cluster, profile.build());
            assert!(usage.contains(profile.name()));
        }
    }

    #[test]
    fn malformed_values_are_usage_errors() {
        // flag → values that must be refused (besides a missing value).
        let table: &[(&str, &[&str])] = &[
            ("--addr", &[]),
            (
                "--cluster",
                &[
                    "warp",
                    "uniform:0:1000:2",
                    "uniform:4",
                    "uniform:4:nan:2",
                    "uniform:4:inf:2",
                    "uniform:4:1000:0",
                ],
            ),
            ("--sched", &["warp", "tetris-wodep", "tetris-dep"]),
            ("--preempt", &["warp", "dsp-wopp"]),
            ("--period", &["0", "-1", "1.5", "soon"]),
            ("--epoch", &["0", "-1", "1.5", "soon"]),
            ("--time-scale", &["0", "-600", "NaN", "inf", "-inf", "fast"]),
            ("--max-pending", &["-1", "many"]),
            ("--max-conns", &["-1", "many"]),
            ("--shards", &["0", "65", "-1", "many"]),
        ];
        for (flag, bad_values) in table {
            let missing = parse_args(&[flag.to_string()]);
            assert!(missing.is_err(), "{flag} without a value must be refused");
            for bad in *bad_values {
                let refused = parse_args(&[flag.to_string(), bad.to_string()]);
                assert!(refused.is_err(), "{flag} {bad:?} must be refused");
            }
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_with_exit_2() {
        let lines = [
            "--warp",
            "--warp on",
            "x",
            "--shards 2 --warp",
            "--reactor-threads 2",
            "--route hash",
        ];
        for line in lines {
            let err = parse(line).err().unwrap_or_else(|| panic!("`{line}` must be refused"));
            assert!(err.starts_with("unknown flag"), "{line}: {err}");
        }
        assert_eq!(run(&["--warp".to_string(), "on".to_string()]), 2);
        assert_eq!(run(&["--route".to_string(), "hash".to_string()]), 2);
    }
}
