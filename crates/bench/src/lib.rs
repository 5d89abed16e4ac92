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

#![forbid(unsafe_code)]

pub mod simcheck;

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

/// Sample count: the paper uses 50; the harness accepts an override via the
/// `REPRO_SAMPLES` environment variable to trade precision for speed.
pub fn sample_count() -> usize {
    sample_count_or(50)
}

/// [`sample_count`] with a caller-chosen default — the one parse of the
/// `REPRO_SAMPLES` contract (positive integers only; anything else falls
/// back), shared by the repro binaries, the `simcheck` harness, the
/// benches, and the conformance suite.
pub fn sample_count_or(default: usize) -> usize {
    std::env::var("REPRO_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// The repro binaries' opt-in schedule cache, from the `IPSC_CACHE`
/// environment variable: unset/empty/`off` = no cache, `mem` = in-memory
/// only, anything else = a persistent artifact-store directory. Caching
/// never changes a reported number (tested below and in the grid suite) —
/// only how often schedules are recompiled.
pub fn cache_config_from_env() -> Option<commrt::CacheConfig> {
    match std::env::var("IPSC_CACHE") {
        Err(_) => None,
        Ok(v) if v.is_empty() || v == "off" => None,
        Ok(v) if v == "mem" => Some(commrt::CacheConfig::in_memory()),
        Ok(dir) => Some(commrt::CacheConfig::persistent(dir)),
    }
}

/// The repro binaries' simulation-backend selection, from the
/// `IPSC_BACKEND` environment variable: unset/empty/`des` = the exact
/// discrete-event engine, `analytic` = the occupancy model (estimates
/// within the conformance suite's documented tolerances, orders of
/// magnitude faster — `BENCH_backend_throughput.json`).
///
/// # Panics
///
/// Panics on an unrecognized value — a typo'd backend must not silently
/// fall back to a different substrate mid-experiment.
pub fn backend_from_env() -> commrt::BackendKind {
    commrt::BackendKind::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// The repro binaries' link-cost-model selection, from the
/// `IPSC_COSTMODEL` environment variable: unset/empty/`uniform` = the
/// paper's uniform machine (byte-identical to every pre-cost-model
/// output), otherwise a model string like `loggp:o=75000,g=10000,G=1.5`
/// or `faulty:p=0.05,seed=42` (see [`commrt::LinkCostModel::parse`]).
///
/// # Panics
///
/// Panics on an unrecognized value — a typo'd model must not silently
/// price a sweep on the wrong machine.
pub fn cost_model_from_env() -> commrt::LinkCostModel {
    commrt::LinkCostModel::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// The paper's sweep as a declarative grid: `entries` as scheduler
/// columns, one pre-grid-compatible [`WorkloadPoint`] per `(d, M)` pair
/// (densities outermost), `samples` samples per cell, on the 64-node
/// hypercube. Each binary narrows the axes to its figure and renders from
/// the executed [`commrt::GridResult`]. Honours the `IPSC_CACHE` schedule
/// cache opt-in ([`cache_config_from_env`]), the `IPSC_BACKEND`
/// simulation-backend selection ([`backend_from_env`]), and the
/// `IPSC_COSTMODEL` link-cost model ([`cost_model_from_env`]).
pub fn paper_grid(
    entries: impl IntoIterator<Item = &'static dyn Scheduler>,
    densities: &[usize],
    sizes: &[u32],
    samples: usize,
) -> ExperimentGrid {
    let n = paper_cube().num_nodes();
    let mut grid = ExperimentGrid::new()
        .topology("hypercube(6)", paper_cube())
        .schedulers(entries)
        .samples(samples)
        .with_backend(backend_from_env())
        .with_link_costs(cost_model_from_env());
    if let Some(config) = cache_config_from_env() {
        grid = grid.with_cache(config);
    }
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
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    criterion::CaseResult {
        name: name.into(),
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        min_ns: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max_ns: samples.iter().copied().fold(0.0f64, f64::max),
    }
}

/// Write `BENCH_<group>.json` in the one shared measurement format —
/// delegated to the vendored criterion shim's quiet writer (same path
/// resolution, sanitization, merge, and JSON shape as the bench targets;
/// no stdout, because the repro binaries pin theirs byte-for-byte).
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn write_bench_json(
    group: &str,
    cases: &[criterion::CaseResult],
) -> std::io::Result<std::path::PathBuf> {
    criterion::write_report_quiet(group, cases)
}

/// Append `cases` to `BENCH_<group>.json` across *processes*: existing
/// cases survive, except that a new case replaces any old one with the
/// same name (re-running a sweep must update its rows, not duplicate
/// them). This is how `schedctl bench --dims` adds its `daemon/d{dim}`
/// rows to the `BENCH_scale_sim.json` the scale bench wrote earlier —
/// the shim's own writer truncates on a process's first write.
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn append_bench_json(
    group: &str,
    cases: &[criterion::CaseResult],
) -> std::io::Result<std::path::PathBuf> {
    let mut merged = criterion::read_report(group);
    merged.retain(|old| !cases.iter().any(|new| new.name == old.name));
    merged.extend(cases.iter().cloned());
    criterion::rewrite_report(group, &merged)
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
        // unset; the env var is process-global, so exercise the same code
        // path (with_cache) directly.
        let plain = paper_grid(registry::primary(), &[4], &[1024], 2)
            .execute()
            .unwrap();
        let cached = paper_grid(registry::primary(), &[4], &[1024], 2)
            .with_cache(commrt::CacheConfig::in_memory())
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
        let path = write_bench_json("libtest_selftest", &[case]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.contains("\"name\": \"noop\""));
        assert!(text.contains("\"mean_ns\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_bench_json_replaces_by_name_and_keeps_the_rest() {
        let case = |name: &str, mean: f64| criterion::CaseResult {
            name: name.to_string(),
            mean_ns: mean,
            min_ns: mean,
            max_ns: mean,
        };
        let group = "libtest_append_selftest";
        let path = write_bench_json(group, &[case("scale/a", 1.0)]).unwrap();
        // Cross-process-style append: keeps scale/a, adds daemon rows.
        append_bench_json(group, &[case("daemon/d4", 2.0)]).unwrap();
        // Re-running a sweep replaces its rows instead of duplicating.
        append_bench_json(group, &[case("daemon/d4", 3.0), case("daemon/d5", 4.0)]).unwrap();
        let back = criterion::read_report(group);
        let names: Vec<&str> = back.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["scale/a", "daemon/d4", "daemon/d5"]);
        assert_eq!(back[1].mean_ns, 3.0);
        std::fs::remove_file(path).ok();
    }

    /// One measured paper-machine cell: `entry` at `(d, 1 KB)` under the
    /// environment's backend and cost-model selection.
    fn paper_cell(name: &str, d: usize, samples: usize) -> commrt::CellResult {
        let entry = registry::find(name).unwrap();
        paper_grid([entry], &[d], &[1024], samples)
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
        let records = paper_grid(registry::primary(), &[4], &[256], 1)
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
