//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <table1-des|table1-analytic|daemon-mixed>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds after its set-up,
//! checks every output, and prints a human summary on stderr and, as the
//! last line of stdout, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end table untraced, the per-layer
//! table traced; see `metrics.rs`). `--seconds 0` runs the least a
//! workload can: one cycle of rounds, or a fixed number of requests.
//! See `README.md`.

mod daemon;
mod metrics;
mod stats;
mod table1;
mod trace;

use std::process::ExitCode;

use commrt::BackendKind;

use crate::metrics::Report;

/// Worker threads of the load: the grid's pool, the daemon's client
/// connections and its compile workers.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Samples per cell in one Table 1 round and seed sets per cycle, per
/// backend: a round takes about 0.75 s on DES and 0.3 s on the analytic
/// backend (2 threads, 2 vCPUs).
const DES_SAMPLES: usize = 1;
const DES_SETS: usize = 4;
const ANALYTIC_SAMPLES: usize = 16;
const ANALYTIC_SETS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table1Des,
    Table1Analytic,
    DaemonMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Des,
        Workload::Table1Analytic,
        Workload::DaemonMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Des => "table1-des",
            Workload::Table1Analytic => "table1-analytic",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Shrunk inputs, for the smoke test.
    pub tiny: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny: false,
    })
}

/// Run one workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new();
    match opts.workload {
        Workload::Table1Des | Workload::Table1Analytic => {
            let cfg = match opts.workload {
                Workload::Table1Des => table1::Table1::new(BackendKind::Des, DES_SAMPLES, DES_SETS),
                _ => table1::Table1::new(BackendKind::Analytic, ANALYTIC_SAMPLES, ANALYTIC_SETS),
            };
            let cfg = if opts.tiny { cfg.tiny() } else { cfg };
            table1::run(&cfg, opts.seed, opts.seconds, opts.trace, &mut report);
        }
        Workload::DaemonMixed => {
            let cfg = if opts.tiny {
                daemon::Mix::default().tiny()
            } else {
                daemon::Mix::default()
            };
            daemon::run(&cfg, opts.seed, opts.seconds, opts.trace, &mut report);
        }
    }
    report
}

/// splitmix64: derives every input of a run from its seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Peak resident memory of this process (MB), from `VmHWM`. Each run is
/// its own process and runs one workload, so no other workload's peak
/// is in it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    match report.json(opts.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(args(
            "--workload daemon-mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::DaemonMixed);
        assert_eq!((o.seed, o.seconds, o.trace, o.tiny), (7, 10, true, false));
        assert!(parse_args(args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload table1-des --seconds 1 --trace 0")).is_err());
        assert!(parse_args(args("--workload table1-des --seed 1 --seconds 1 --trace 2")).is_err());
    }

    /// Every workload, traced and not, prints every metric of its table
    /// with its unit, and passes its own checks.
    #[test]
    fn smoke_every_workload_prints_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Opts {
                    workload,
                    seed: 3,
                    seconds: 0,
                    trace,
                    tiny: true,
                };
                let report = run(&opts);
                let line = report.json(trace).unwrap();
                assert!(
                    line.starts_with("{\"correct\": true,"),
                    "{} trace={trace}: {line}",
                    workload.name()
                );
                let table = if trace { PER_LAYER } else { END_TO_END };
                for (name, unit) in table {
                    assert!(
                        line.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{} lacks {name}",
                        workload.name()
                    );
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
                if !trace {
                    for (name, _) in END_TO_END {
                        assert!(report.get(name).unwrap() > 0.0, "{name} is 0");
                    }
                }
            }
        }
    }
}
