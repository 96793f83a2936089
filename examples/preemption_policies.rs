//! The Fig. 6 story in miniature: the same DSP initial schedule handed to
//! five online preemption policies. Watch the paper's four metrics —
//! disorders (DSP: always 0), throughput, average job waiting time and
//! preemption count — separate the dependency-aware policy from the
//! dependency-oblivious baselines.
//!
//! ```text
//! cargo run --release --example preemption_policies
//! ```

use dsp_core::{run_experiment, ClusterProfile, ExperimentConfig, PreemptMethod, SchedMethod};
use dsp_trace::TraceParams;

fn main() {
    let methods = [
        PreemptMethod::Dsp,
        PreemptMethod::DspWoPp,
        PreemptMethod::Amoeba,
        PreemptMethod::Natjam,
        PreemptMethod::Srpt,
        PreemptMethod::None,
    ];
    println!(
        "{:<10} {:>10} {:>16} {:>13} {:>12} {:>12}",
        "method", "disorders", "tput(tasks/ms)", "avg wait(s)", "preemptions", "makespan(s)"
    );
    for preempt in methods {
        let cfg = ExperimentConfig {
            cluster: ClusterProfile::Ec2,
            num_jobs: 45,
            seed: 7,
            sched: SchedMethod::Dsp, // "we use our initial schedule for all preemption methods"
            preempt,
            trace: TraceParams { task_scale: 0.06, ..TraceParams::default() },
            params: dsp_core::Params::default(),
        };
        let m = run_experiment(&cfg).0.metrics;
        println!(
            "{:<10} {:>10} {:>16.3} {:>13.2} {:>12} {:>12.2}",
            preempt.label(),
            m.disorders,
            m.throughput_tasks_per_ms(),
            m.avg_job_waiting().as_secs_f64(),
            m.preemptions,
            m.makespan().as_secs_f64(),
        );
    }
}
