//! Runs the complete reproduction suite (Table 1, Figures 5-11, ablations)
//! by invoking the individual binaries' logic is equivalent to running:
//!
//! ```text
//! cargo run -p repro-bench --release --bin table1
//! cargo run -p repro-bench --release --bin fig5
//! cargo run -p repro-bench --release --bin fig6to9
//! cargo run -p repro-bench --release --bin fig10to11
//! cargo run -p repro-bench --release --bin ablations
//! ```
//!
//! This wrapper shells out to the sibling binaries so each keeps its own
//! focused output, honouring the [`repro_bench::RunConfig`] variables.

use std::process::Command;

fn main() {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir").to_path_buf();
    for bin in ["table1", "fig6to9", "fig10to11", "fig5", "ablations"] {
        let path = dir.join(bin);
        println!("\n================ {bin} ================\n");
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("launching {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    println!("\nAll reproduction outputs written under results/.");
}
