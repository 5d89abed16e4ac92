//! Regenerates **Figure 5** of the paper: the regions of the
//! `(density, message size)` plane where each algorithm has the lowest
//! communication cost on the 64-node machine (scheduling cost excluded,
//! exactly as the paper's figure assumes static or amortized scheduling).
//!
//! The whole plane is one grid; both winner maps (comm-only, and
//! comm + scheduling for the schedule-used-once extension) are read off
//! the same executed result.
//!
//! Run: `cargo run -p repro-bench --release --bin fig5`

use commrt::write_csv;
use commsched::registry;
use repro_bench::{paper_grid, RunConfig, DENSITIES};

fn main() {
    let mut config = RunConfig::from_env(50);
    config.samples = config.samples.min(20); // a 2-D sweep; keep it tractable
    config.report();
    let sizes: Vec<u32> = (6..=16).map(|x| 1u32 << x).collect(); // 64 B .. 64 KB

    println!(
        "Figure 5 reproduction: winner per (d, msg size), {} samples per cell",
        config.samples
    );
    println!("(columns are log2(msg bytes) = 6..16, as in the paper's x-axis)\n");

    let result = paper_grid(&config, registry::primary(), &DENSITIES, &sizes)
        .execute_opts(config.exec_options())
        .unwrap_or_else(|e| panic!("{e}"));

    print!("{:>4} |", "d");
    for bytes in &sizes {
        print!(" {:>6}", format!("2^{}", bytes.trailing_zeros()));
    }
    println!();
    println!("-----+{}", "-".repeat(sizes.len() * 7));

    for d in DENSITIES {
        print!("{d:>4} |");
        for &bytes in &sizes {
            let point = result.point_index(d, bytes).expect("declared point");
            let best = result
                .row(point)
                .fold(None::<(&str, f64)>, |best, cell| match best {
                    Some((_, ms)) if cell.result.comm_ms >= ms => best,
                    _ => Some((cell.algorithm.as_str(), cell.result.comm_ms)),
                })
                .expect("cells present");
            print!(" {:>6}", best.0);
        }
        println!();
    }

    println!("\npaper's regions: AC at small d/M; LP at large d and M >~1 KB; RS_N(L) elsewhere");

    // Extension the paper discusses but does not plot: the same regions when
    // the schedule is computed at runtime and used only ONCE, so each
    // algorithm is charged comm + comp. Zero-overhead AC expands; RS_NL
    // shrinks toward large messages.
    println!("\nwinner when the schedule is used once (comm + scheduling cost):");
    print!("{:>4} |", "d");
    for bytes in &sizes {
        print!(" {:>6}", format!("2^{}", bytes.trailing_zeros()));
    }
    println!();
    println!("-----+{}", "-".repeat(sizes.len() * 7));
    for d in DENSITIES {
        print!("{d:>4} |");
        for &bytes in &sizes {
            let point = result.point_index(d, bytes).expect("declared point");
            let best = result
                .row(point)
                .min_by(|a, b| {
                    (a.result.comm_ms + a.result.comp_ms)
                        .total_cmp(&(b.result.comm_ms + b.result.comp_ms))
                })
                .expect("cells present");
            print!(" {:>6}", best.algorithm);
        }
        println!();
    }

    write_csv(
        std::path::Path::new("results/fig5.csv"),
        &result.records("fig5"),
    )
    .expect("write csv");
    println!("wrote results/fig5.csv");
}
