//! Backend throughput: cells per second under the discrete-event engine
//! vs the analytic model, on the paper's 64-node machine (d=6 cube) with
//! dense traffic — the sweep-scaling argument for pluggable backends, as
//! numbers.
//!
//! One *cell* is the grid work unit in the steady state of a big sweep:
//! schedules already compiled (the `commcache` schedule cache, which
//! turns scheduling into a lookup — simulation is the remaining
//! wall-clock), priced per sample under the backend. Each per-entry case
//! is a one-column [`commrt::ExperimentGrid`] over a pre-warmed shared
//! cache; every execution also generates the cell's sample matrices, so
//! the cases time generation plus pricing. Cases land in
//! `BENCH_backend_throughput.json` as `des/<entry>` and
//! `analytic/<entry>` (ns per cell) plus `grid/des` and `grid/analytic`
//! (ns for the whole 5-column grid, cold: no schedule cache), with a
//! cells/sec speedup table on stdout. The analytic backend must clear
//! 10x on the dense grid as a whole (and 3x on every individual entry —
//! LP's event run is atypically cheap because XOR phases fuse almost
//! every pair, halving its transfer count); the bench asserts both, so a
//! model regression that erases the point of the backend fails loudly
//! here.

use std::sync::Arc;

use commcache::{CacheConfig, SchedCache};
use commrt::grid::WorkloadPoint;
use commrt::{BackendKind, ExperimentGrid};
use commsched::registry;
use hypercube::Topology;
use repro_bench::{paper_cube, time_case, RunConfig};
use workloads::{Generator, SampleSet};

fn main() {
    let cube = paper_cube();
    let n = cube.num_nodes();
    // Dense d=6 grid point: d = 16 messages per node, 4 KiB payloads.
    let (d, bytes) = (16, 4096);
    let samples_per_cell = 2;
    let config = RunConfig::from_env(5);
    config.report();
    let reps = config.samples;
    let point = || WorkloadPoint::shared(Generator::dregular(n, d, bytes), d, bytes, 11);

    // Steady-state sweep economics: schedules compiled once (warm shared
    // commcache) for exactly the sample matrices the grid draws.
    let cache = Arc::new(SchedCache::new(CacheConfig::in_memory()));
    let generator = point().generator().clone();
    for seed in SampleSet::new(11, samples_per_cell).seeds() {
        let com = generator.generate(seed);
        for entry in registry::primary() {
            cache.get_or_schedule(entry, &com, &cube, seed);
        }
    }

    let mut cases = Vec::new();
    let mut table = Vec::new();
    for entry in registry::primary() {
        let mut per_backend = Vec::new();
        for kind in BackendKind::all() {
            let grid = ExperimentGrid::new()
                .topology("hypercube(6)", paper_cube())
                .scheduler(entry)
                .point(point())
                .samples(samples_per_cell)
                .with_backend(kind)
                .with_shared_cache(Arc::clone(&cache));
            let case = time_case(format!("{}/{}", kind.label(), entry.name()), reps, || {
                grid.execute_opts(config.exec_options())
                    .unwrap_or_else(|e| panic!("{} under {kind}: {e}", entry.name()));
            });
            per_backend.push(case.mean_ns);
            cases.push(case);
        }
        let (des_ns, ana_ns) = (per_backend[0], per_backend[1]);
        table.push((entry.name(), des_ns, ana_ns));
    }

    // The headline number: the whole dense 5-column grid, cells/sec.
    let mut grid_ns = Vec::new();
    for kind in BackendKind::all() {
        let grid = ExperimentGrid::new()
            .topology("hypercube(6)", paper_cube())
            .schedulers(registry::primary())
            .point(point())
            .samples(samples_per_cell)
            .with_backend(kind);
        let case = time_case(format!("grid/{}", kind.label()), reps, || {
            grid.execute_opts(config.exec_options())
                .unwrap_or_else(|e| panic!("grid under {kind}: {e}"));
        });
        grid_ns.push(case.mean_ns);
        cases.push(case);
    }

    println!(
        "backend throughput: 64-node cube, dregular(d={d}, M={bytes}), \
         {samples_per_cell} samples/cell, {reps} reps"
    );
    println!(
        "{:>8} | {:>14} | {:>14} | {:>9}",
        "entry", "des cells/s", "analytic c/s", "speedup"
    );
    for (name, des_ns, ana_ns) in &table {
        let speedup = des_ns / ana_ns;
        println!(
            "{:>8} | {:>14.2} | {:>14.2} | {:>8.1}x",
            name,
            1e9 / des_ns,
            1e9 / ana_ns,
            speedup
        );
        assert!(
            speedup >= 3.0,
            "{name}: analytic backend only {speedup:.1}x faster than DES — \
             the model has lost its reason to exist"
        );
    }
    let cols = table.len() as f64;
    let grid_speedup = grid_ns[0] / grid_ns[1];
    println!(
        "{:>8} | {:>14.2} | {:>14.2} | {:>8.1}x",
        "grid",
        cols * 1e9 / grid_ns[0],
        cols * 1e9 / grid_ns[1],
        grid_speedup
    );
    assert!(
        grid_speedup >= 10.0,
        "dense-grid speedup {grid_speedup:.1}x below the 10x acceptance bar"
    );

    let path = criterion::write_report("backend_throughput", &cases).expect("write bench json");
    println!("wrote {}", path.display());
}
