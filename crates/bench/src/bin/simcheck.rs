//! Differential conformance harness between the simulation backends —
//! the command-line face of [`repro_bench::simcheck`].
//!
//! For every registry scheduler × workload family × cube dimension the
//! harness runs the same `(matrix, schedule)` through the exact
//! discrete-event engine and the analytic occupancy model, asserts the
//! documented tolerance bands and phase-profile tracking, pins exact
//! agreement on contention-free schedules, and reports the worst
//! divergence observed.
//!
//! ```text
//! cargo run --release -p repro_bench --bin simcheck -- [--dims 3,4,5] \
//!     [--samples N] [--verbose]
//! ```
//!
//! Exits non-zero on any violated invariant (CI gates on this).
//! `REPRO_SAMPLES` is the default for `--samples`.

use repro_bench::{cli, simcheck, RunConfig};

const USAGE: &str = "usage: simcheck [--dims 3,4,5] [--samples N] [--verbose]";

fn main() {
    let args = cli::checked_args("simcheck", &["--dims", "--samples"], &["--verbose"]);
    let usage = |e: String| -> ! { cli::usage_error("simcheck", &format!("{e}\n{USAGE}")) };
    let dims: Vec<u32> = cli::opt_list(&args, "--dims", &[3, 4, 5]).unwrap_or_else(|e| usage(e));
    if dims.iter().any(|&d| !(2..=10).contains(&d)) {
        usage("dimensions must be in 2..=10".into());
    }
    let mut config = RunConfig::from_env(2);
    match cli::opt_parsed::<usize>(&args, "--samples") {
        Ok(None) => {}
        Ok(Some(k)) if k > 0 => config.samples = k,
        _ => usage("--samples needs a positive integer".into()),
    }
    config.report();
    let verbose = cli::opt_flag(&args, "--verbose");

    println!(
        "simcheck: differential backend conformance, dims={:?}, {} sample(s) per case",
        dims, config.samples
    );

    // Invariant 3 first: exact agreement on contention-free schedules.
    match simcheck::run_exact(&dims) {
        Ok(checked) => println!("exact-agreement pinning: {checked} cases, all bit-identical"),
        Err(e) => {
            eprintln!("exact-agreement pinning FAILED: {e}");
            std::process::exit(1);
        }
    }

    // Invariants 1-2: tolerance bands and phase-profile tracking.
    let report = simcheck::run_conformance(&dims, config.samples);
    if verbose {
        for case in &report.cases {
            println!(
                "  {:>12} {:<28} dim={} seed={} ratio={:.3}",
                case.scheduler,
                case.workload,
                case.dim,
                case.seed,
                case.ratio()
            );
        }
    }
    print!("{}", report.summary());
    if !report.is_pass() {
        std::process::exit(1);
    }
}
