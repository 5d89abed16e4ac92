//! Shared driver code for the reproduction harness: the experiment grid of
//! Wang & Ranka (1994) Section 6 — a 64-node hypercube, densities
//! `d ∈ {4, 8, 16, 32, 48}`, uniform message sizes from 16 B to 128 KB, 50
//! random samples per cell — plus helpers shared by the per-figure
//! binaries.
//!
//! The binaries do not name algorithms: they enumerate
//! [`commsched::registry`] (the primary entries for the paper tables, the
//! variants for the ablations), so a scheduler registered there appears in
//! every artifact automatically. Since the grid refactor they also do not
//! loop over cells: each declares its sweep as one
//! [`commrt::ExperimentGrid`] ([`paper_grid`]), executes it on the
//! work-stealing pool, and renders tables from the returned
//! [`commrt::GridResult`].
//!
//! Run settings come from one place, [`RunConfig`] (the only reader of
//! the environment); command-line flags and CI gates from one parser and
//! one gate type, [`cli`].

#![forbid(unsafe_code)]

pub mod cli;
mod config;
pub mod simcheck;

pub use config::RunConfig;

use commrt::grid::WorkloadPoint;
use commrt::{CellRecord, ExperimentGrid};
use commsched::Scheduler;
use hypercube::{Hypercube, Topology};
use workloads::Generator;

/// The paper's machine: a 64-node hypercube.
pub fn paper_cube() -> Hypercube {
    Hypercube::new(6)
}

/// The densities of Table 1.
pub const DENSITIES: [usize; 5] = [4, 8, 16, 32, 48];

/// The message sizes of Table 1 (bytes).
pub const TABLE1_SIZES: [u32; 3] = [256, 1024, 131_072];

/// The message-size sweep of Figures 6-9: powers of two from 16 B to 128 KB.
pub fn figure_sizes() -> Vec<u32> {
    (4..=17).map(|x| 1u32 << x).collect()
}

/// The paper's sweep as a declarative grid: `entries` as scheduler
/// columns, one pre-grid-compatible [`WorkloadPoint`] per `(d, M)` pair
/// (densities outermost), on the 64-node hypercube, starting from
/// `config`'s grid ([`RunConfig::grid`]: samples per cell, backend,
/// link-cost model, schedule cache). Each binary narrows the axes to its
/// figure and renders from the executed [`commrt::GridResult`].
pub fn paper_grid(
    config: &RunConfig,
    entries: impl IntoIterator<Item = &'static dyn Scheduler>,
    densities: &[usize],
    sizes: &[u32],
) -> ExperimentGrid {
    let n = paper_cube().num_nodes();
    let mut grid = config
        .grid()
        .topology("hypercube(6)", paper_cube())
        .schedulers(entries);
    for &d in densities {
        for &msg_bytes in sizes {
            // The paper's assumption 2: "all nodes send and receive an
            // approximately equal number of messages" — the exactly
            // d-regular generator (its RS_N phase counts ~d + log d only
            // hold under that regularity). PerScheduler seeds pin the
            // historical per-algorithm sample streams.
            grid = grid.point(WorkloadPoint::per_scheduler(
                Generator::dregular(n, d, msg_bytes),
                d,
                msg_bytes,
            ));
        }
    }
    grid
}

/// Wall-clock-time `f` over `reps` repetitions into a
/// [`criterion::CaseResult`] (ns), for recording hand-timed measurements
/// next to the bench outputs.
pub fn time_case(
    name: impl Into<String>,
    reps: usize,
    mut f: impl FnMut(),
) -> criterion::CaseResult {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    case(name, &samples)
}

/// The [`criterion::CaseResult`] of non-empty `samples`: their mean,
/// min and max (one sample records a scalar, e.g. a rate).
pub fn case(name: impl Into<String>, samples: &[f64]) -> criterion::CaseResult {
    criterion::CaseResult {
        name: name.into(),
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        min_ns: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max_ns: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// The `p`-quantile (`0..=1`, nearest rank) of ascending `sorted`
/// samples; 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Render a Table-1-style block for one density. The column set is taken
/// from the records themselves (first-row order), so the table grows with
/// the registry instead of hardcoding algorithm names.
pub fn format_density_block(d: usize, rows: &[(u32, Vec<CellRecord>)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "d = {d}");
    let labels: Vec<&str> = rows
        .first()
        .map(|(_, records)| records.iter().map(|r| r.algorithm.as_str()).collect())
        .unwrap_or_default();
    let _ = write!(out, "  {:>9} |", "msg size");
    for label in &labels {
        let _ = write!(out, " {label:>12}");
    }
    let _ = writeln!(out);
    let find = |records: &[CellRecord], label: &str, f: &dyn Fn(&CellRecord) -> f64| {
        records
            .iter()
            .find(|r| r.algorithm == label)
            .map_or(f64::NAN, f)
    };
    for (bytes, records) in rows {
        let _ = write!(out, "  {:>8}B |", bytes);
        for label in &labels {
            let _ = write!(out, " {:>12.2}", find(records, label, &|r| r.comm_ms));
        }
        let _ = writeln!(out);
    }
    // Footer rows from the last (largest-message) row; schedule-free
    // algorithms (0 phases, e.g. AC) print "-".
    if let Some((_, records)) = rows.last() {
        for (title, f) in [
            (
                "# iters",
                &(|r: &CellRecord| r.phases) as &dyn Fn(&CellRecord) -> f64,
            ),
            ("comp", &|r: &CellRecord| r.comp_ms),
        ] {
            let _ = write!(out, "  {title:>9} |");
            for label in &labels {
                if find(records, label, &|r| r.phases) == 0.0 {
                    let _ = write!(out, " {:>12}", "-");
                } else {
                    let _ = write!(out, " {:>12.2}", find(records, label, f));
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commrt::grid::paper_base_seed;
    use commsched::registry;

    #[test]
    fn figure_sizes_span_16b_to_128kb() {
        let sizes = figure_sizes();
        assert_eq!(sizes.first(), Some(&16));
        assert_eq!(sizes.last(), Some(&131_072));
        assert_eq!(sizes.len(), 14);
    }

    #[test]
    fn cell_seeds_differ_across_cells() {
        // Different (entry, d, bytes) must map to different base seeds,
        // and the canonical formula must stay pinned (historical sample
        // streams).
        let ac = registry::find("AC").unwrap();
        let lp = registry::find("LP").unwrap();
        let a = paper_base_seed(4, 256, ac.ordinal());
        let b = paper_base_seed(8, 256, ac.ordinal());
        let c = paper_base_seed(4, 1024, lp.ordinal());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, 4 * 1_000_003 + 256 * 7);
    }

    #[test]
    fn paper_grid_numbers_survive_the_schedule_cache() {
        // The repro binaries must be byte-identical with IPSC_CACHE set or
        // unset.
        let plain = paper_grid(&samples(2), registry::primary(), &[4], &[1024])
            .execute()
            .unwrap();
        let config = RunConfig {
            cache: Some(commrt::CacheConfig::in_memory()),
            ..samples(2)
        };
        let cached = paper_grid(&config, registry::primary(), &[4], &[1024])
            .execute()
            .unwrap();
        assert_eq!(
            plain.cells().collect::<Vec<_>>(),
            cached.cells().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bench_json_has_the_shim_shape() {
        let case = time_case("noop", 2, || {});
        assert!(case.min_ns <= case.mean_ns && case.mean_ns <= case.max_ns);
        let path = criterion::write_report("libtest_selftest", &[case]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.contains("\"name\": \"noop\""));
        assert!(text.contains("\"mean_ns\""));
        std::fs::remove_file(&path).ok();
    }

    /// The empty-environment configuration at `k` samples per cell.
    fn samples(k: usize) -> RunConfig {
        RunConfig::from_vars(k, |_| None).unwrap()
    }

    /// One measured paper-machine cell: `entry` at `(d, 1 KB)`.
    fn paper_cell(name: &str, d: usize, k: usize) -> commrt::CellResult {
        let entry = registry::find(name).unwrap();
        paper_grid(&samples(k), [entry], &[d], &[1024])
            .execute()
            .unwrap()
            .at(0, 0)
            .unwrap()
            .result
    }

    #[test]
    fn small_cell_measures() {
        let cell = paper_cell("RS_N", 4, 3);
        assert!(cell.comm_ms > 0.0);
        assert!(cell.phases >= 4.0);
    }

    #[test]
    fn greedy_cell_measures_like_any_other_entry() {
        let cell = paper_cell("GREEDY", 4, 2);
        assert!(cell.comm_ms > 0.0);
        assert!(cell.phases >= 4.0);
        assert!(cell.comp_ms > 0.0);
    }

    #[test]
    fn density_block_grows_with_the_registry() {
        let records = paper_grid(&samples(1), registry::primary(), &[4], &[256])
            .execute()
            .unwrap()
            .records("t");
        let block = format_density_block(4, &[(256, records)]);
        for e in registry::primary() {
            assert!(block.contains(e.name()), "missing column {}", e.name());
        }
        assert!(block.contains("# iters"));
        assert!(block.contains(" - "), "AC must show '-' footer entries");
    }
}
