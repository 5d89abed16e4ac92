//! Fault-injection sweep: every registry scheduler on a 16-node
//! hypercube and a 16-node torus, re-priced under `faulty:` link-cost
//! models of increasing per-link failure probability. Schedules are
//! compiled once per sample (they are cost-model agnostic) and the same
//! transfers are then charged against p ∈ {0, 0.01, 0.05} with a fixed
//! fault seed, so the sweep isolates pricing: the hypercube's e-cube
//! router has no detours (a dead link on a route strands the transfer
//! as a typed `LinkDown`), while the torus reroutes around dead links
//! and completes at a longer makespan. Reported per cell: completion
//! rate, mean makespan over the completed samples, and degradation
//! relative to the p=0 baseline.
//!
//! Run: `cargo run -p repro_bench --release --bin fig_faults`
//! (honours `IPSC_BACKEND` and `REPRO_SAMPLES` from [`RunConfig`]; it
//! prices its own fault models per cell, so `IPSC_COSTMODEL` does not
//! apply, and it runs no grid, so neither do `IPSC_CACHE` and
//! `IPSC_THREADS`).
//!
//! `--expect-completion-rate <min>` exits 1 when the aggregate
//! completion rate over all measured cells falls below `min` — the CI
//! smoke gate proving fault injection degrades runs without ever
//! panicking. Usage errors exit 2.

use std::process::ExitCode;

use commrt::{LinkCostModel, Scheme};
use commsched::registry;
use repro_bench::cli::{self, Gate};
use repro_bench::{case, RunConfig};
use simnet::{MachineParams, SimError};
use topo::TopologySpec;
use workloads::{Generator, SampleSet};

/// The two contrasted fabrics: same node count, opposite fault
/// behaviour (the hypercube strands, the torus reroutes).
const FABRICS: [&str; 2] = ["cube:d=4", "torus:4x4"];
const NODES: usize = 16;
const DENSITY: usize = 3;
const MSG_BYTES: u32 = 1024;
/// Swept per-link failure probabilities, in ppm (label, p).
const PROBS: [(&str, u64); 3] = [("0", 0), ("0.01", 10_000), ("0.05", 50_000)];
/// One fixed fault seed: the whole sweep prices against the same drawn
/// fault set, so schedulers are compared on identical broken machines.
const FAULT_SEED: u64 = 42;

fn main() -> ExitCode {
    let expect_rate = expect_completion_rate_arg();
    let config = RunConfig::from_env(5);
    config.report();
    let samples = config.samples;
    let backend_kind = config.backend;
    let backend = backend_kind.backend();
    let params = MachineParams::ipsc860();
    let entries = registry::all();

    let mut cases = Vec::new();
    let mut total_runs = 0usize;
    let mut total_ok = 0usize;

    for (ti, spec) in FABRICS.iter().enumerate() {
        let kind = TopologySpec::parse(spec).expect("pinned kind string");
        assert_eq!(
            kind.num_nodes(),
            NODES,
            "{spec} is not a {NODES}-node fabric"
        );
        let topo = kind.build_arc();

        // One test set per fabric; every scheduler and every p price the
        // same sampled matrices, so columns differ only by algorithm and
        // rows only by failure probability.
        let set = SampleSet::new(7700 + ti as u64, samples);
        let gen = Generator::dregular(NODES, DENSITY, MSG_BYTES);
        let matrices = set.realize(&gen);

        println!(
            "fabric {spec} ({NODES} nodes, d={DENSITY}): mean makespan ms (completion %), \
             {samples} sample(s), backend {}, fault seed {FAULT_SEED}",
            backend_kind.label()
        );
        print!("{:>10} |", "scheduler");
        for (label, _) in PROBS {
            print!(" {:>16}", format!("p={label}"));
        }
        println!();

        for entry in entries {
            if !entry.supports_topology(topo.as_ref()) {
                println!(
                    "{:>10} | declined (scheduler does not support the fabric)",
                    entry.name()
                );
                continue;
            }
            let scheme = Scheme::for_scheduler(*entry);
            // Schedules are link-cost agnostic: compile once per sample,
            // then re-price the same transfers under every model.
            let schedules: Vec<_> = (0..samples)
                .map(|k| entry.schedule(&matrices[k], topo.as_ref(), set.seed(k)))
                .collect();

            print!("{:>10} |", entry.name());
            let mut baseline_ms = None;
            for (label, p_ppm) in PROBS {
                let model = LinkCostModel::Faulty {
                    p_ppm,
                    seed: FAULT_SEED,
                };
                let mut done_ms: Vec<f64> = Vec::new();
                for k in 0..samples {
                    total_runs += 1;
                    match backend.estimate(
                        &params,
                        &model,
                        topo.as_ref(),
                        &matrices[k],
                        &schedules[k],
                        scheme,
                    ) {
                        Ok(report) => {
                            total_ok += 1;
                            done_ms.push(report.makespan_ms());
                        }
                        // The injected fault stranded a transfer: the
                        // expected typed failure, counted against the
                        // completion rate.
                        Err(SimError::LinkDown { .. }) => {}
                        // Anything else is a bug in the sweep, not a fault.
                        Err(e) => panic!("{spec}/{}/p={label}: {e}", entry.name()),
                    }
                }
                let rate = done_ms.len() as f64 / samples as f64;
                let mean_ms = mean(&done_ms);
                if p_ppm == 0 {
                    baseline_ms = mean_ms;
                }
                let degradation = match (mean_ms, baseline_ms) {
                    (Some(m), Some(b)) if b > 0.0 => Some(m / b),
                    _ => None,
                };

                match mean_ms {
                    Some(m) => print!(" {:>8.3} ({:>3.0}%)", m, rate * 100.0),
                    None => print!(" {:>8} ({:>3.0}%)", "—", rate * 100.0),
                }

                let name =
                    |metric: &str| format!("faults/{spec}/{}/p{label}/{metric}", entry.name());
                if mean_ms.is_some() {
                    let done_ns: Vec<f64> = done_ms.iter().map(|ms| ms * 1e6).collect();
                    cases.push(case(name("makespan"), &done_ns));
                }
                // Rates and ratios are dimensionless; the report's ns
                // fields carry them verbatim (a completion case of 0.8
                // means 80% of samples completed).
                cases.push(case(name("completion"), &[rate]));
                if let Some(d) = degradation {
                    cases.push(case(name("degradation"), &[d]));
                }
            }
            println!();
        }
        println!();
    }

    let path = criterion::write_report("faults", &cases).expect("write bench json");
    println!("wrote {}", path.display());

    let aggregate = total_ok as f64 / total_runs.max(1) as f64;
    println!(
        "aggregate completion: {total_ok}/{total_runs} runs ({:.1}%)",
        aggregate * 100.0
    );
    let mut gate = Gate::new("fig_faults");
    if let Some(min) = expect_rate {
        if gate.at_least("aggregate completion rate", aggregate, Some(min)) {
            println!("completion gate passed (>= {min:.3})");
        }
    }
    gate.finish()
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

fn expect_completion_rate_arg() -> Option<f64> {
    let args = cli::checked_args(
        "fig_faults",
        &["--expect-completion-rate"],
        &["--help", "-h"],
    );
    if cli::opt_flag(&args, "--help") || cli::opt_flag(&args, "-h") {
        println!(
            "usage: fig_faults [--expect-completion-rate <0..1>]\n\
             env: IPSC_BACKEND=des|analytic, REPRO_SAMPLES=<n>"
        );
        std::process::exit(0);
    }
    let rate = cli::opt_parsed::<f64>(&args, "--expect-completion-rate")
        .unwrap_or_else(|e| cli::usage_error("fig_faults", &e));
    if let Some(min) = rate.filter(|min| !(0.0..=1.0).contains(min)) {
        cli::usage_error(
            "fig_faults",
            &format!("completion rate {min} outside [0, 1]"),
        );
    }
    rate
}
