//! `dspd` — the DSP online service daemon and its one entry point. Flags,
//! banner lines and exit codes are [`dsp_service::cli`]'s.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dsp_service::cli::run(&argv));
}
