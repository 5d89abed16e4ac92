//! Cold recompile vs delta patch on drifted matrices — the incremental
//! layer's reason to exist, as numbers.
//!
//! The drifting-pattern scenario: an application's communication matrix
//! evolves slightly between iterations (here 1% of messages retargeted
//! per variant), so every iteration misses the fingerprint cache and
//! would pay a full cold compile. For each registry entry the bench
//! times three paths on a dense 256-node workload:
//!
//! * **cold** — `entry.schedule(&perturbed, ...)`: the price without the
//!   incremental layer;
//! * **incr** — `entry.patch_schedule(&base, &delta, ...)`: the
//!   recompile from a delta, which is exactly what a daemon holding the
//!   base schedule pays when a `SubmitDelta` frame hands it the edit
//!   list. Entries that decline to patch (AC) fall back to a cold
//!   compile inside the timed region — the fallback cost is part of the
//!   honest number;
//! * **e2e** — [`commcache::IncrementalCache::get_patched`]: the full
//!   serving path, which additionally diffs the incoming matrix against
//!   retained bases (O(n²)) and runs the `validate_schedule` correctness
//!   gate (O(n²)) before releasing the patch. Reading and re-checking a
//!   dense matrix is O(n²) no matter how cheap the patch is, so this
//!   column floors near the matrix size — reported for honesty, not
//!   gated.
//!
//! Results land in `BENCH_incremental.json` (cases `cold/<name>`,
//! `incr/<name>`, `e2e/<name>`) plus a speedup table on stdout. With
//! `--expect-speedup <x> [--expect-count <k>]` the bench exits non-zero
//! unless at least `k` (default 6) of the 8 registry entries reach an
//! `x`-fold cold/incr speedup — schedulers with near-free cold compiles
//! (AC, and LP whose patch is by design a fresh `lp()`-equivalent pass)
//! are the budgeted misses.
//!
//! ```text
//! cargo bench --bench incremental -- --expect-speedup 10
//! ```

use std::sync::Arc;

use commcache::{IncrementalCache, IncrementalConfig, InstanceKey};
use commsched::{registry, validate_schedule, CommMatrix, MatrixDelta};
use hypercube::Hypercube;
use repro_bench::{time_case, write_bench_json};

struct Gates {
    speedup: Option<f64>,
    count: usize,
}

fn parse_gates() -> Gates {
    let mut gates = Gates {
        speedup: None,
        count: 6,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut expect = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("incremental: {name} expects a number");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--expect-speedup" => gates.speedup = Some(expect("--expect-speedup")),
            "--expect-count" => gates.count = expect("--expect-count") as usize,
            // Tolerate harness-style flags (e.g. `--bench`) so `cargo
            // bench` invocations without gates keep working.
            _ => {}
        }
    }
    gates
}

/// splitmix64 — deterministic drift; the bench prices the same variants
/// on every run.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Retarget ~`rate` of `base`'s messages to currently-free destinations
/// (salt-varied sizes) — the canonical drift between solver iterations.
fn perturb(base: &CommMatrix, rate: f64, salt: u64) -> CommMatrix {
    let msgs: Vec<_> = base.messages().collect();
    let moves = ((msgs.len() as f64 * rate).round() as usize).max(1);
    let n = base.n();
    let mut out = base.clone();
    for m in 0..moves {
        let s = mix(salt.wrapping_mul(1_000_003).wrapping_add(m as u64));
        let (src, old_dst, _) = msgs[s as usize % msgs.len()];
        if out.get(src.0 as usize, old_dst.0 as usize) == 0 {
            continue; // already retargeted by an earlier move
        }
        out.set(src.0 as usize, old_dst.0 as usize, 0);
        let start = mix(s ^ 0xD1F7) as usize % n;
        for off in 0..n {
            let dst = (start + off) % n;
            if dst != src.0 as usize && out.get(src.0 as usize, dst) == 0 {
                out.set(src.0 as usize, dst, 64 + (mix(s ^ 0xB17E) % 4096) as u32);
                break;
            }
        }
    }
    out
}

fn main() {
    let gates = parse_gates();
    let cube = Hypercube::new(8);
    let n = 256usize;
    let (d, bytes) = (48, 4096);
    let seed = 7u64;
    let base = workloads::random_dregular(n, d, bytes, seed);
    let reps = repro_bench::sample_count_or(10);

    // The drifted variants and their deltas, generated up front: in a
    // drifting loop the delta is the *input* (clients ship it in
    // `SubmitDelta` frames), so `incr` prices patching alone while `e2e`
    // re-derives the delta by diffing, as the daemon's content-addressed
    // path does.
    let variants: Vec<(InstanceKey, CommMatrix, MatrixDelta)> = (0..reps)
        .map(|i| {
            let com = perturb(&base, 0.01, i as u64);
            let delta = MatrixDelta::diff(&base, &com).expect("same size");
            (InstanceKey::compute(&com, &cube), com, delta)
        })
        .collect();

    let inc = IncrementalCache::new(IncrementalConfig::default());
    let mut cases = Vec::new();
    let mut table = Vec::new();
    for &entry in registry::all() {
        let base_sched = Arc::new(entry.schedule(&base, &cube, seed));
        inc.register(
            InstanceKey::compute(&base, &cube),
            &base,
            &cube,
            entry.name(),
            seed,
            Arc::clone(&base_sched),
        );
        // Correctness first, outside the timed region: every patch this
        // bench prices must validate against its perturbed matrix.
        for (_, com, delta) in &variants {
            if let Some(patched) = entry.patch_schedule(&base_sched, delta, &cube, seed) {
                validate_schedule(com, &patched)
                    .unwrap_or_else(|e| panic!("{}: patched schedule invalid: {e}", entry.name()));
            }
        }
        let mut i = 0;
        let cold = time_case(format!("cold/{}", entry.name()), reps, || {
            let (_, com, _) = &variants[i % reps];
            i += 1;
            let _ = entry.schedule(com, &cube, seed);
        });
        let mut j = 0;
        let incr = time_case(format!("incr/{}", entry.name()), reps, || {
            let (_, com, delta) = &variants[j % reps];
            j += 1;
            let _ = entry
                .patch_schedule(&base_sched, delta, &cube, seed)
                .unwrap_or_else(|| entry.schedule(com, &cube, seed));
        });
        let mut k = 0;
        let e2e = time_case(format!("e2e/{}", entry.name()), reps, || {
            let (key, com, _) = &variants[k % reps];
            k += 1;
            let _ = inc
                .get_patched(entry, *key, com, &cube, seed)
                .unwrap_or_else(|| Arc::new(entry.schedule(com, &cube, seed)));
        });
        table.push((
            entry.name().to_string(),
            cold.min_ns,
            incr.min_ns,
            e2e.min_ns,
            cold.min_ns / incr.min_ns,
        ));
        cases.push(cold);
        cases.push(incr);
        cases.push(e2e);
    }

    println!(
        "incremental: cold recompile vs delta patch (n={n}, d={d}, M={bytes}B, 1% drift, min over {reps} reps)"
    );
    println!(
        "  {:<14} {:>14} {:>14} {:>14} {:>9}",
        "scheduler", "cold (ns)", "incr (ns)", "e2e (ns)", "speedup"
    );
    for (name, cold_ns, incr_ns, e2e_ns, speedup) in &table {
        println!("  {name:<14} {cold_ns:>14.0} {incr_ns:>14.0} {e2e_ns:>14.0} {speedup:>8.1}x");
    }
    let stats = inc.stats();
    println!(
        "  e2e lookups: {}  patches: {}  fallbacks: {}  validation rejections: {}",
        stats.lookups, stats.patches, stats.fallbacks, stats.validation_rejections
    );
    assert_eq!(
        stats.validation_rejections, 0,
        "a patched schedule failed the validation gate"
    );
    match write_bench_json("incremental", &cases) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("BENCH_incremental.json not written: {e}"),
    }

    if let Some(expect) = gates.speedup {
        let reached = table.iter().filter(|(_, _, _, _, s)| *s >= expect).count();
        if reached < gates.count {
            eprintln!(
                "incremental: FAIL only {reached}/{} entries reached {expect:.0}x (need {})",
                table.len(),
                gates.count
            );
            std::process::exit(1);
        }
        println!(
            "gate: {reached}/{} entries at >= {expect:.0}x (need {}) — ok",
            table.len(),
            gates.count
        );
    }
}
