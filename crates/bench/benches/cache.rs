//! Cold compile vs warm cache hit, per registry scheduler — the cache's
//! reason to exist, as numbers.
//!
//! For each registry entry the bench times three paths of the cache on
//! the paper's 64-node machine:
//!
//! * **cold** — every request uses a fresh seed, so every request misses:
//!   fingerprint + compile + insert (the price of a first iteration);
//! * **warm** — the replay pattern of `examples/persistent_patterns.rs`:
//!   the caller kept the [`commcache::Fingerprint`] it computed when it
//!   first compiled and replays through `get_or_compute`, so a hit is a
//!   pure sharded lookup (the price of every later iteration);
//! * **rekey** — a hit through `get_or_schedule`, re-fingerprinting the
//!   matrix on every request (the grid executor's path, where no caller
//!   holds the key).
//!
//! Results land in `BENCH_schedule_cache.json` (cases `cold/<name>`,
//! `warm/<name>`, `rekey/<name>`) via the shared quiet writer, plus a
//! speedup table on stdout. Warm beats cold *structurally*: a miss
//! performs the whole hit path and then compiles, inserts, and (for the
//! schedule-free AC, whose compile is nearly free) still pays the
//! fingerprint that the replay pattern amortizes away.

use commcache::{CacheConfig, Fingerprint, SchedCache};
use commsched::registry;
use hypercube::Topology;
use repro_bench::{paper_cube, time_case, RunConfig};

fn main() {
    let cube = paper_cube();
    let n = cube.num_nodes();
    let (d, bytes) = (8, 4096);
    let com = workloads::random_dregular(n, d, bytes, 7);
    let config = RunConfig::from_env(25);
    config.report();
    let reps = config.samples;

    // A generous budget: the cold loop inserts `reps` distinct keys per
    // scheduler and evictions would perturb the miss path being timed.
    let cache = SchedCache::new(CacheConfig::in_memory().with_byte_budget(256 << 20));
    let mut cases = Vec::new();
    let mut table = Vec::new();
    for &entry in registry::all() {
        let mut cold_seed = 1_000_000u64;
        let cold = time_case(format!("cold/{}", entry.name()), reps, || {
            cold_seed += 1;
            let _ = cache.get_or_schedule(entry, &com, &cube, cold_seed);
        });
        // First compile of the replayed pattern: compute and *keep* the
        // key, exactly like an iterative solver's first iteration.
        let key = Fingerprint::compute(&com, &cube, entry.name(), 7);
        cache.get_or_compute(key, || entry.schedule(&com, &cube, 7));
        let warm = time_case(format!("warm/{}", entry.name()), reps, || {
            let _ = cache.get_or_compute(key, || entry.schedule(&com, &cube, 7));
        });
        let rekey = time_case(format!("rekey/{}", entry.name()), reps, || {
            let _ = cache.get_or_schedule(entry, &com, &cube, 7);
        });
        table.push((
            entry.name().to_string(),
            cold.min_ns,
            warm.min_ns,
            rekey.min_ns,
            cold.min_ns / warm.min_ns,
        ));
        cases.push(cold);
        cases.push(warm);
        cases.push(rekey);
    }

    println!(
        "schedule cache: cold compile vs warm hit (n={n}, d={d}, M={bytes}B, min over {reps} reps)"
    );
    println!(
        "  {:<14} {:>14} {:>14} {:>14} {:>9}",
        "scheduler", "cold (ns)", "warm (ns)", "rekey (ns)", "speedup"
    );
    for (name, cold_ns, warm_ns, rekey_ns, speedup) in &table {
        println!("  {name:<14} {cold_ns:>14.0} {warm_ns:>14.0} {rekey_ns:>14.0} {speedup:>8.0}x");
    }
    let stats = cache.stats();
    println!(
        "  requests: {}  hits: {}  compiled: {}",
        stats.requests,
        stats.hits(),
        stats.misses
    );
    criterion::flush_report("schedule_cache", &cases);
}
