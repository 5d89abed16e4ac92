//! Every gated binary treats a misspelled or malformed flag as a usage
//! error (exit 2) before it measures or connects to anything — never as
//! a silently disabled gate (exit 0) or a failed one (exit 1).

use std::process::Command;

/// Exit status of `bin` run with `args`.
fn status(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
}

#[test]
fn misspelled_and_malformed_gate_flags_exit_2() {
    let cases: [(&str, &[&str]); 7] = [
        (
            env!("CARGO_BIN_EXE_fig_faults"),
            &["--expect-completion-ratee", "0.5"],
        ),
        (
            env!("CARGO_BIN_EXE_fig_faults"),
            &["--expect-completion-rate", "1.5"],
        ),
        (
            env!("CARGO_BIN_EXE_fig_faults"),
            &["--expect-completion-rate"],
        ),
        (
            env!("CARGO_BIN_EXE_schedctl"),
            &["warm", "--dir", "unused", "--expect-hit"],
        ),
        (
            env!("CARGO_BIN_EXE_schedload"),
            &[
                "--addr",
                "unix:/nonexistent.sock",
                "--expect-dedup-ratee",
                "0.9",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_schedload"),
            &["--addr", "unix:/nonexistent.sock", "--expect-rps", "fast"],
        ),
        (env!("CARGO_BIN_EXE_simcheck"), &["--dimz", "3"]),
    ];
    for (bin, args) in cases {
        assert_eq!(status(bin, args), Some(2), "{bin} {args:?}");
    }
}
