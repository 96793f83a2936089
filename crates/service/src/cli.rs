//! The daemon's command line: `dspd` and `dsp serve` are this one
//! function, so their flags, defaults, and usage text cannot drift.
//!
//! Boots [`crate::serve_federated`], prints `dspd listening on HOST:PORT`
//! (port 0 picks an ephemeral port) and the shard layout, and serves
//! until a client sends `{"op":"drain"}`. `--time-scale` is
//! simulated seconds per wall second (default 600: one 300 s scheduling
//! period every half wall-second); `--max-conns` sheds excess clients
//! with one `busy` reply; `--shards`/`--route` are DESIGN.md §10.7.

use crate::{
    build_cluster, serve_federated, AdmissionConfig, FederationSpec, RoutePolicy, ServerConfig,
    MAX_SHARDS, SCHED_SEED,
};
use dsp_core::config::Params;
use dsp_core::{ClusterProfile, PreemptMethod, SchedMethod};
use dsp_units::Dur;
use std::io::Write;

/// What both binaries print (stderr, exit 2) on a malformed command line;
/// the method names are the method table's.
pub fn usage() -> String {
    format!(
        "usage: dspd [--addr HOST:PORT] [--cluster {}|uniform:N:RATE:SLOTS] \
         [--sched {}] [--preempt {}] \
         [--period SECS] [--epoch SECS] [--time-scale F] [--max-pending TASKS] \
         [--no-feasibility] [--max-conns N] [--shards N] \
         [--route hash|least-loaded|deadline]\n       (`dsp serve` takes the same flags)",
        ClusterProfile::usage(),
        SchedMethod::usage(),
        PreemptMethod::usage(),
    )
}

/// `flag`'s value, parsed; the error names the flag and what it got.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("{flag}: cannot read `{raw}`"))
}

/// `flag`'s value, resolved through a name table.
fn named<T>(
    flag: &str,
    raw: Option<&String>,
    from_name: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    from_name(raw).ok_or_else(|| format!("{flag}: unknown name `{raw}`"))
}

/// A whole number of seconds, at least one.
fn positive_secs(flag: &str, raw: Option<&String>) -> Result<Dur, String> {
    match value::<u64>(flag, raw)? {
        0 => Err(format!("{flag} must be at least 1")),
        secs => Ok(Dur::from_secs(secs)),
    }
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

    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        match flag {
            "--addr" => config.addr = value(flag, args.next())?,
            "--cluster" => cluster = named(flag, args.next(), build_cluster)?,
            "--sched" => sched = named(flag, args.next(), SchedMethod::from_name)?,
            "--preempt" => preempt = named(flag, args.next(), PreemptMethod::from_name)?,
            "--period" => params.sched_period = positive_secs(flag, args.next())?,
            "--epoch" => params.epoch = positive_secs(flag, args.next())?,
            "--time-scale" => {
                let scale: f64 = value(flag, args.next())?;
                // `scale <= 0.0` alone lets NaN through to a frozen clock.
                if !scale.is_finite() || scale <= 0.0 {
                    return Err(format!("{flag} must be a finite number above 0, got {scale}"));
                }
                config.time_scale = scale;
            }
            "--max-pending" => admission.max_pending_tasks = value(flag, args.next())?,
            "--no-feasibility" => admission.check_feasibility = false,
            "--max-conns" => config.max_conns = value(flag, args.next())?,
            "--shards" => {
                config.shards = value(flag, args.next())?;
                if config.shards == 0 || config.shards > MAX_SHARDS {
                    return Err(format!("{flag} must be between 1 and {MAX_SHARDS}"));
                }
            }
            "--route" => {
                let name: String = value(flag, args.next())?;
                config.route = RoutePolicy::parse(&name)
                    .ok_or_else(|| format!("{flag}: unknown policy `{name}`"))?;
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }

    let spec = FederationSpec {
        cluster,
        engine: params.engine_config(),
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
        Err(msg) => {
            eprintln!("dspd: {msg}\n{}", usage());
            return 2;
        }
    };
    let route = config.route;
    let handle = match serve_federated(spec, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dspd: failed to start: {e}");
            return 1;
        }
    };
    // The smoke script and client tooling scrape these lines.
    println!("dspd listening on {}", handle.addr);
    println!("dspd shards: {} (route: {})", handle.shards(), route.name());
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
        assert_eq!(spec.engine.epoch, Params::default().epoch);
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let (spec, config) = parse(
            "--addr 0.0.0.0:7 --cluster uniform:6:1000:2 --sched fifo --preempt none \
             --period 60 --epoch 2 --time-scale 1200 --max-pending 99 --no-feasibility \
             --max-conns 5 --shards 2 --route least-loaded",
        )
        .expect("a well-formed command line");
        let expected = ServerConfig {
            addr: "0.0.0.0:7".into(),
            time_scale: 1200.0,
            max_conns: 5,
            shards: 2,
            route: RoutePolicy::LeastLoaded,
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
            ("--cluster", &["warp", "uniform:0:1000:2", "uniform:4"]),
            ("--sched", &["warp", "tetris-wodep", "tetris-dep"]),
            ("--preempt", &["warp", "dsp-wopp"]),
            ("--period", &["0", "-1", "1.5", "soon"]),
            ("--epoch", &["0", "-1", "1.5", "soon"]),
            ("--time-scale", &["0", "-600", "NaN", "inf", "-inf", "fast"]),
            ("--max-pending", &["-1", "many"]),
            ("--max-conns", &["-1", "many"]),
            ("--shards", &["0", "65", "-1", "many"]),
            ("--route", &["warp", ""]),
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
        for line in ["--warp", "--warp on", "x", "--shards 2 --warp", "--reactor-threads 2"] {
            let err = parse(line).err().unwrap_or_else(|| panic!("`{line}` must be refused"));
            assert!(err.starts_with("unknown flag"), "{line}: {err}");
        }
        assert_eq!(run(&["--warp".to_string(), "on".to_string()]), 2);
    }
}
