//! Scaling curves for the two simulation substrates — the numbers behind
//! the "cost scales with traffic, not topology" claim.
//!
//! Two sweeps land in `BENCH_scale_sim.json`:
//!
//! * `analytic/d{dim}` — pricing a fixed pool of 2048 random transfers
//!   on hypercubes from d=6 (the paper's machine) to d=20 (a
//!   million-node fabric), plus `analytic_resident_bytes/d{dim}` with
//!   the pool's table footprint. Above the sparse crossover the cost
//!   per pool may grow only with the route lengths (~d), never with
//!   the 2^d node count — the `--expect-analytic-growth` gate pins the
//!   d=14 → d=20 ratio.
//! * `des-seq/d{dim}` — the exact engine on dense AC-scheduled traffic
//!   (`dregular(d=16, M=4096)`, a large pending set) at d ∈ {6, 8, 10}.
//!   The `--expect-des-d10-wall-ms` gate bounds the d=10 run's mean wall
//!   time.
//!
//! Gates (all optional, for CI exit-code enforcement; a missed gate
//! exits 1, an unknown flag exits 2 before anything is measured):
//!
//! ```text
//! cargo bench --bench scale -- --expect-analytic-growth 2.0 \
//!     --expect-des-d10-wall-ms 400 --expect-analytic-wall-ms 50
//! ```
//!
//! `REPRO_SAMPLES` overrides the repetition count (default 3).

use std::process::ExitCode;

use commrt::{DesBackend, Scheme, SimBackend};
use commsched::registry;
use criterion::black_box;
use hypercube::{Hypercube, NodeId, Topology};
use repro_bench::cli::{self, Gate};
use repro_bench::{time_case, RunConfig};
use simnet::{LinkCostModel, LoadModel, PortModel, TransferSpec};

/// Analytic sweep: d=6 (the paper) through d=20 (a million nodes).
const ANALYTIC_DIMS: [u32; 8] = [6, 8, 10, 12, 14, 16, 18, 20];
/// Fixed traffic per pool — the independent variable is the fabric.
const POOL_TRANSFERS: usize = 2048;
/// DES curve; d=10 carries the wall-time gate.
const DES_DIMS: [u32; 3] = [6, 8, 10];

/// Deterministic random transfers on an `n`-node fabric (xorshift LCG —
/// the bench must price the same pool on every run).
fn random_specs(n: usize, count: usize, mut state: u64) -> Vec<TransferSpec> {
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut specs = Vec::with_capacity(count);
    while specs.len() < count {
        let (src, dst) = (rand() as usize % n, rand() as usize % n);
        if src == dst {
            continue;
        }
        specs.push(TransferSpec {
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            busy_ns: 1 + rand() % 100_000,
            lead_ns: rand() % 10_000,
            fused: false,
        });
    }
    specs
}

const GATE_FLAGS: [&str; 3] = [
    "--expect-analytic-growth",
    "--expect-des-d10-wall-ms",
    "--expect-analytic-wall-ms",
];

fn main() -> ExitCode {
    let args = cli::checked_args("scale", &GATE_FLAGS, &["--bench"]);
    let [growth_bound, des_bound, analytic_bound] = GATE_FLAGS.map(|flag| {
        cli::opt_parsed::<f64>(&args, flag).unwrap_or_else(|e| cli::usage_error("scale", &e))
    });
    let config = RunConfig::from_env(3);
    config.report();
    let reps = config.samples;
    let mut cases = Vec::new();

    // -- analytic: fixed traffic, growing fabric ---------------------------
    let mut analytic_mean = std::collections::HashMap::new();
    println!("analytic pool pricing: {POOL_TRANSFERS} transfers, {reps} reps");
    for dim in ANALYTIC_DIMS {
        let cube = Hypercube::new(dim);
        let n = cube.num_nodes();
        let specs = random_specs(n, POOL_TRANSFERS, 0x5ca1_ab1e ^ u64::from(dim));
        let mut pool = LoadModel::new(&cube, PortModel::Unified);
        let case = time_case(format!("analytic/d{dim}"), reps, || {
            pool.reset();
            for &spec in &specs {
                pool.add(&cube, spec);
            }
            black_box(pool.makespan_ns());
        });
        println!(
            "  d={dim:<2} ({n:>9} nodes, {}): {:>9.3} ms/pool, {:>8} resident bytes",
            if pool.is_dense() { "dense " } else { "sparse" },
            case.mean_ns / 1e6,
            pool.resident_bytes(),
        );
        analytic_mean.insert(dim, case.mean_ns);
        let bytes = [pool.resident_bytes() as f64];
        cases.push(repro_bench::case(
            format!("analytic_resident_bytes/d{dim}"),
            &bytes,
        ));
        cases.push(case);
    }

    // -- DES: dense AC traffic ---------------------------------------------
    let params = simnet::MachineParams::ipsc860();
    let entry = registry::find("AC").expect("AC is registered");
    let scheme = Scheme::for_scheduler(entry);
    let (density, bytes) = (16usize, 4096u32);
    println!("exact engine: AC on dregular(d={density}, M={bytes}), {reps} reps");
    let mut des_mean = std::collections::HashMap::new();
    for dim in DES_DIMS {
        let cube = Hypercube::new(dim);
        let com = workloads::random_dregular(cube.num_nodes(), density, bytes, 7);
        let schedule = entry.schedule(&com, &cube, 7);
        let case = time_case(format!("des-seq/d{dim}"), reps, || {
            DesBackend
                .estimate(
                    &params,
                    &LinkCostModel::Uniform,
                    &cube,
                    &com,
                    &schedule,
                    scheme,
                )
                .unwrap_or_else(|e| panic!("des-seq d={dim}: {e}"));
        });
        println!("  des-seq/d{dim}: {:>9.3} ms/run", case.mean_ns / 1e6);
        des_mean.insert(dim, case.mean_ns);
        cases.push(case);
    }

    let path = criterion::write_report("scale_sim", &cases).expect("write bench json");
    println!("wrote {}", path.display());

    // -- gates -------------------------------------------------------------
    let mut gate = Gate::new("scale");
    let growth = analytic_mean[&20] / analytic_mean[&14];
    println!("analytic growth d14 -> d20 (64x the nodes): {growth:.2}x the cost");
    gate.at_most("analytic growth d14 -> d20 (x)", growth, growth_bound);
    let des_ms = des_mean[&10] / 1e6;
    println!("exact engine d=10 wall: {des_ms:.3} ms");
    gate.at_most("des-seq/d10 wall (ms)", des_ms, des_bound);
    if let Some(bound) = analytic_bound {
        let wall_ms = analytic_mean[&14] / 1e6;
        println!("analytic d=14 wall: {wall_ms:.3} ms (bound {bound:.1} ms)");
        gate.at_most("analytic d=14 wall (ms)", wall_ms, Some(bound));
    }
    gate.finish()
}
