//! Persistent communication patterns through the schedule cache — the
//! paper's amortization argument (Section 1: schedule once, execute many
//! times), made operational by `commcache`.
//!
//! An iterative solver exchanges the same halo every iteration. This
//! example compiles its halo-exchange schedule **once** through a
//! [`SchedCache`] and replays it across iterations, printing the measured
//! cold-compile vs warm-hit times; then it simulates a restart against a
//! persistent artifact store, where even the first iteration of the new
//! process skips compilation.
//!
//! The final section drops the "same halo every iteration" assumption:
//! the pattern *drifts* (1% of messages retarget per iteration, as under
//! adaptive refinement), so every iteration misses the fingerprint cache.
//! A plain cache pays a cold compile per iteration; a cache with the
//! incremental layer enabled diffs each drifted matrix against the
//! previous iteration's retained base and **patches** its schedule
//! instead — the example prints both per-iteration costs and the patch
//! statistics.
//!
//! Run: `cargo run --release --example persistent_patterns`

use std::time::Instant;

use ipsc_sched::prelude::*;
use ipsc_sched::simnet::splitmix64;

fn main() {
    // A 64-node machine running an 8x8 partitioned-mesh halo exchange:
    // 2 KiB faces, 256 B corners — the same pattern every iteration.
    let cube = Hypercube::new(6);
    let com = workloads::irregular::grid_halo(8, 8, 2048, 256);
    let entry = ipsc_sched::commsched::registry::find("RS_NL").expect("registered");
    let params = MachineParams::ipsc860();
    let iterations = 50;
    let seed = 7;

    println!(
        "halo exchange on hypercube(6): {} messages, density {}",
        com.message_count(),
        com.density()
    );
    println!();

    // --- In-memory cache: compile once, replay every iteration. -------
    let cache = SchedCache::new(CacheConfig::in_memory());

    let t0 = Instant::now();
    let key = Fingerprint::compute(&com, &cube, entry.name(), seed);
    let schedule = cache.get_or_compute(key, || entry.schedule(&com, &cube, seed));
    let cold = t0.elapsed();

    // The solver loop: every iteration re-requests the schedule by the
    // key it kept, then executes the exchange. (The simulated exchange
    // cost is identical each iteration — the schedule is.)
    let comm_ms = run_schedule(&cube, &params, &com, &schedule, Scheme::S1)
        .expect("halo exchange simulates")
        .makespan_ms();
    let t1 = Instant::now();
    for _ in 1..iterations {
        let replay = cache.get_or_compute(key, || entry.schedule(&com, &cube, seed));
        assert_eq!(
            *replay, *schedule,
            "a hit returns exactly the compiled schedule"
        );
    }
    let warm_each = t1.elapsed() / (iterations - 1);

    println!(
        "cold compile (iteration 1)     : {:>10.1} µs",
        cold.as_secs_f64() * 1e6
    );
    println!(
        "warm cache hit (per iteration) : {:>10.3} µs",
        warm_each.as_secs_f64() * 1e6
    );
    println!(
        "simulated exchange cost        : {:>10.3} ms x {iterations} iterations",
        comm_ms
    );
    let stats = cache.stats();
    println!(
        "cache: {} requests, {} hits, {} compile ({:.1}% hit rate)",
        stats.requests,
        stats.hits(),
        stats.misses,
        stats.hit_rate() * 100.0
    );
    println!();

    // --- Persistent store: the next run skips compilation entirely. ---
    let dir = std::env::temp_dir().join(format!("ipsc_sched_persistent_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // "First run" of the application: compiles and writes through.
    let run1 = SchedCache::new(CacheConfig::persistent(&dir));
    run1.get_or_schedule(entry, &com, &cube, seed);
    assert_eq!(run1.stats().store_writes, 1);

    // "Restarted run": cold memory, warm store.
    let run2 = SchedCache::new(CacheConfig::persistent(&dir));
    let t2 = Instant::now();
    let restored = run2.get_or_schedule(entry, &com, &cube, seed);
    let restore = t2.elapsed();
    assert_eq!(*restored, *schedule);
    println!(
        "persistent store ({}):",
        dir.file_name().unwrap().to_string_lossy()
    );
    println!("  run 1 compiled and wrote 1 artifact");
    println!(
        "  run 2 restored it in {:>8.1} µs (store hits: {}, compiles: {})",
        restore.as_secs_f64() * 1e6,
        run2.stats().store_hits,
        run2.stats().misses
    );
    println!();
    println!(
        "amortization: one compile serves all {iterations} iterations and every restart; \
         without the cache each run pays the compile again before its first exchange."
    );

    std::fs::remove_dir_all(&dir).ok();
    println!();

    // --- Drifting patterns: the incremental layer. --------------------
    // Under adaptive refinement the halo is not persistent: ~1% of its
    // messages retarget every iteration, and any changed cell changes the
    // fingerprint. The plain cache recompiles from scratch each time; a
    // cache with the incremental layer retains each served schedule as a
    // patch base and serves the next iteration by diffing + patching it
    // (validated before release, cold fallback on any rejection).
    // A denser exchange than the halo — 32 neighbors per node, as after
    // aggressive refinement — where a cold RS_NL compile actually hurts.
    let drift_iters = 20u64;
    let plain = SchedCache::new(CacheConfig::in_memory());
    let incremental = SchedCache::new(CacheConfig::in_memory().incremental_default());

    let mut current = workloads::random_dregular(64, 32, 2048, seed);
    let (mut cold_total, mut incr_total) = (0.0f64, 0.0f64);
    for it in 0..drift_iters {
        let t = Instant::now();
        plain.get_or_schedule(entry, &current, &cube, seed);
        cold_total += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let served = incremental.get_or_schedule(entry, &current, &cube, seed);
        incr_total += t.elapsed().as_secs_f64();
        validate_schedule(&current, &served).expect("served schedules are always valid");

        current = drift(&current, 0.01, it);
    }
    let inc_stats = incremental.incremental_stats().expect("layer enabled");
    println!("drifting pattern (1% of messages retarget per iteration, {drift_iters} iterations):");
    println!(
        "  plain cache (cold recompile)   : {:>10.1} µs / iteration",
        cold_total / drift_iters as f64 * 1e6
    );
    println!(
        "  incremental cache (delta patch): {:>10.1} µs / iteration",
        incr_total / drift_iters as f64 * 1e6
    );
    println!(
        "  patches: {} of {} lookups ({:.0}% patch rate), {} fallback(s), \
         {} validation rejection(s)",
        inc_stats.patches,
        inc_stats.lookups,
        inc_stats.patch_rate() * 100.0,
        inc_stats.fallbacks,
        inc_stats.validation_rejections
    );
}

/// Retarget ~`rate` of `com`'s messages to currently-free destinations —
/// the halo after one adaptive-refinement step.
fn drift(com: &CommMatrix, rate: f64, salt: u64) -> CommMatrix {
    let msgs: Vec<_> = com.messages().collect();
    let moves = ((msgs.len() as f64 * rate).round() as usize).max(1);
    let n = com.n();
    let mut out = com.clone();
    for m in 0..moves {
        let s = splitmix64(salt.wrapping_mul(1_000_003).wrapping_add(m as u64));
        let (src, old_dst, bytes) = msgs[s as usize % msgs.len()];
        if out.get(src.index(), old_dst.index()) == 0 {
            continue; // already retargeted by an earlier move
        }
        out.set(src.index(), old_dst.index(), 0);
        let start = splitmix64(s ^ 0xD1F7) as usize % n;
        for off in 0..n {
            let dst = (start + off) % n;
            if dst != src.index() && out.get(src.index(), dst) == 0 {
                out.set(src.index(), dst, bytes);
                break;
            }
        }
    }
    out
}
