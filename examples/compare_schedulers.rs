//! The Fig. 5 story in miniature: one workload, four offline schedulers,
//! makespans side by side. Expect DSP < Aalo < TetrisW/SimDep <
//! TetrisW/oDep — dependency awareness is worth real makespan.
//!
//! ```text
//! cargo run --release --example compare_schedulers
//! ```

use dsp_core::{run_experiment, ClusterProfile, ExperimentConfig, PreemptMethod, SchedMethod};
use dsp_trace::TraceParams;

fn main() {
    let methods = [
        SchedMethod::Dsp,
        SchedMethod::Aalo,
        SchedMethod::TetrisSimDep,
        SchedMethod::TetrisWoDep,
        SchedMethod::Fifo,
        SchedMethod::Random,
    ];
    println!(
        "{:<16} {:>12} {:>16} {:>14}",
        "method", "makespan(s)", "tput(tasks/ms)", "avg wait(s)"
    );
    for sched in methods {
        let cfg = ExperimentConfig {
            cluster: ClusterProfile::Palmetto,
            num_jobs: 45,
            seed: 7,
            sched,
            preempt: PreemptMethod::None,
            trace: TraceParams { task_scale: 0.2, ..TraceParams::default() },
            params: dsp_core::Params::default(),
        };
        let m = run_experiment(&cfg).0.metrics;
        println!(
            "{:<16} {:>12.2} {:>16.3} {:>14.2}",
            sched.label(),
            m.makespan().as_secs_f64(),
            m.throughput_tasks_per_ms(),
            m.avg_job_waiting().as_secs_f64(),
        );
    }
}
