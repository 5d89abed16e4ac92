//! The one command-line flag parser and the one CI gate type of the
//! harness binaries and benches. Each binary declares its flags up front
//! and anything else is a usage error (exit 2): a misspelled `--expect-*`
//! gate must fail the run, not silently disable the gate. A missed
//! [`Gate`] check exits 1. `cargo bench` hands `harness = false` targets
//! a `--bench` flag, so the benches declare it.

use std::process::ExitCode;
use std::str::FromStr;

/// The process arguments after the program name, checked with
/// [`reject_unknown`] (a usage error exits 2).
pub fn checked_args(prog: &str, value_flags: &[&str], bool_flags: &[&str]) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = reject_unknown(&args, value_flags, bool_flags) {
        usage_error(prog, &e);
    }
    args
}

/// Print `prog: message` and exit with the usage-error status 2.
pub fn usage_error(prog: &str, message: &str) -> ! {
    eprintln!("{prog}: {message}");
    std::process::exit(2)
}

/// Value of `--name` in `opts`, if present (the last occurrence wins);
/// an error if the flag has no value.
pub fn opt_value<'a>(opts: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut found = None;
    let mut it = opts.iter();
    while let Some(arg) = it.next() {
        if arg == name {
            match it.next() {
                Some(v) => found = Some(v.as_str()),
                None => return Err(format!("{name} expects a value")),
            }
        }
    }
    Ok(found)
}

/// Whether the boolean flag `name` is present.
pub fn opt_flag(opts: &[String], name: &str) -> bool {
    opts.iter().any(|a| a == name)
}

/// Reject (as an error naming it) the first argument that is neither a
/// known flag nor a known flag's value.
pub fn reject_unknown(
    opts: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < opts.len() {
        let arg = opts[i].as_str();
        if value_flags.contains(&arg) {
            i += 2; // flag + its value (a missing value errors in opt_value)
        } else if bool_flags.contains(&arg) {
            i += 1;
        } else {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok(())
}

/// `--name` parsed as a `T`, if present; an error if its value is
/// missing or does not parse.
pub fn opt_parsed<T: FromStr>(opts: &[String], name: &str) -> Result<Option<T>, String> {
    opt_value(opts, name)?
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")))
        .transpose()
}

/// `--name` as a comma-separated list of `T`, or `default` when absent;
/// an error if its value is missing or an element does not parse.
pub fn opt_list<T: FromStr + Clone>(
    opts: &[String],
    name: &str,
    default: &[T],
) -> Result<Vec<T>, String> {
    match opt_value(opts, name)? {
        None => Ok(default.to_vec()),
        Some(v) => v
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("{name}: cannot parse `{part}`"))
            })
            .collect(),
    }
}

/// The CI gates of one run: a check that misses prints one
/// `prog: FAIL ...` line on stderr, and [`Gate::finish`] turns any miss
/// into exit status 1. A check whose bound is `None` was not requested.
#[derive(Debug)]
pub struct Gate {
    prog: &'static str,
    misses: usize,
}

impl Gate {
    /// No checks yet, reporting as `prog`.
    pub fn new(prog: &'static str) -> Gate {
        Gate { prog, misses: 0 }
    }

    /// Require `value >= min`; returns whether the check passed.
    pub fn at_least(&mut self, what: &str, value: f64, min: Option<f64>) -> bool {
        self.check(what, value, "<", min.filter(|&min| value < min))
    }

    /// Require `value <= max`; returns whether the check passed.
    pub fn at_most(&mut self, what: &str, value: f64, max: Option<f64>) -> bool {
        self.check(what, value, ">", max.filter(|&max| value > max))
    }

    fn check(&mut self, what: &str, value: f64, op: &str, missed: Option<f64>) -> bool {
        let Some(bound) = missed else { return true };
        eprintln!("{}: FAIL {what} {value:.3} {op} {bound:.3}", self.prog);
        self.misses += 1;
        false
    }

    /// Exit status of the run: 1 if any check missed, else 0.
    pub fn finish(self) -> ExitCode {
        if self.misses == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn misspelled_gate_flags_are_usage_errors() {
        let known = ["--expect-speedup", "--expect-count"];
        let ok = args(&["--bench", "--expect-speedup", "10"]);
        assert!(reject_unknown(&ok, &known, &["--bench"]).is_ok());
        let typo = args(&["--bench", "--expect-speedupp", "10"]);
        let err = reject_unknown(&typo, &known, &["--bench"]).unwrap_err();
        assert!(err.contains("--expect-speedupp"), "{err}");
        // `--bench` is only accepted where a binary lists it.
        assert!(reject_unknown(&args(&["--bench"]), &known, &[]).is_err());
        // A flag's value is never mistaken for a flag.
        assert!(reject_unknown(&args(&["--expect-count", "--x"]), &known, &[]).is_ok());
    }

    #[test]
    fn values_parse_with_their_type() {
        let opts = args(&["--expect-count", "-1", "--expect-speedup", "10"]);
        // A negative count is an error, not a wrapped-around zero.
        assert!(opt_parsed::<usize>(&opts, "--expect-count").is_err());
        assert_eq!(opt_parsed::<f64>(&opts, "--expect-speedup"), Ok(Some(10.0)));
        assert_eq!(opt_parsed::<f64>(&opts, "--expect-rps"), Ok(None));
        assert!(opt_parsed::<f64>(&args(&["--expect-rps"]), "--expect-rps").is_err());
        assert_eq!(
            opt_list(&args(&["--d", "4, 8"]), "--d", &[1]),
            Ok(vec![4, 8])
        );
        assert_eq!(opt_list(&opts, "--d", &[1usize]), Ok(vec![1]));
        assert!(opt_flag(&args(&["--bench"]), "--bench"));
    }

    #[test]
    fn gate_counts_misses_and_skips_unrequested_checks() {
        let mut gate = Gate::new("selftest");
        assert!(gate.at_least("rate", 0.95, Some(0.9)));
        assert!(gate.at_most("wall ms", 500.0, None));
        assert_eq!(gate.finish(), ExitCode::SUCCESS);

        let mut gate = Gate::new("selftest");
        assert!(!gate.at_least("rate", 0.5, Some(0.9)));
        assert!(gate.at_most("growth", 2.0, Some(2.0)));
        assert_eq!(gate.finish(), ExitCode::FAILURE);

        let mut gate = Gate::new("selftest");
        assert!(!gate.at_most("growth", 2.5, Some(2.0)));
        assert_eq!(gate.finish(), ExitCode::FAILURE);
    }
}
