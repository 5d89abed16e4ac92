//! Ablation studies for the design choices the paper calls out:
//!
//! 1. Registry variants: every ablation entry in the scheduler registry
//!    (alternative `RsOptions` — row randomization off, pairwise-exchange
//!    preference off, ...) measured against its family's canonical
//!    configuration on a random and a symmetric workload (Sections 4.2
//!    and 5 / Observation 1). Registering a new variant adds it here with
//!    no change to this binary.
//! 2. S1 vs S2 for each phased scheduler (Section 6).
//! 3. Claim policy: atomic vs hold-and-wait circuit establishment.
//! 4. Bounded system buffers for AC (Section 3's blocking hazard).
//!
//! Studies 1-3 are declarative grids with *shared* sample streams: every
//! scheduler column of a workload point consumes the same sampled
//! matrices, generated once (the isomorphic-instances discipline). The
//! reuse speedup is measured and recorded in
//! `BENCH_grid_matrix_reuse.json`. The grids start from the
//! [`RunConfig`] grid, so they honour every run setting; study 4 and the
//! mesh bonus simulate single schedules on the exact engine directly.
//!
//! Run: `cargo run -p repro-bench --release --bin ablations`

use commrt::grid::{ExecOptions, GridColumn, SchedulerHandle};
use commrt::{run_schedule, Scheme, WorkloadPoint};
use commsched::{registry, Scheduler};
use hypercube::Topology;
use repro_bench::{paper_cube, time_case, RunConfig};
use simnet::MachineParams;
use workloads::Generator;

fn main() {
    let cube = paper_cube();
    let n = cube.num_nodes();
    let mut config = RunConfig::from_env(50);
    config.samples = config.samples.min(20);
    config.report();

    println!("=== Ablation 1: registry variants vs their canonical configuration ===");
    let variant_grid = {
        // Two probe workloads: random d-regular traffic (where the
        // randomization toggles matter, Section 4.2) and a symmetric halo
        // (where the pairwise-exchange preference matters, Section 5).
        // Shared seed policy: every column sees the same matrices.
        let mut columns: Vec<&'static dyn Scheduler> = Vec::new();
        for variant in registry::variants() {
            let base = variant.family().scheduler();
            if !columns.iter().any(|c| c.name() == base.name()) {
                columns.push(base);
            }
        }
        columns.extend(registry::variants());
        config
            .grid()
            .topology("hypercube(6)", paper_cube())
            .schedulers(columns)
            .point(WorkloadPoint::shared(
                Generator::dregular(n, 16, 1024),
                16,
                1024,
                101,
            ))
            .point(WorkloadPoint::shared(
                Generator::fixed(
                    "ring_halo(w=4,32K)",
                    workloads::structured::ring_halo(n, 4, 32_768),
                ),
                8,
                32_768,
                202,
            ))
    };
    {
        let result = variant_grid
            .execute_opts(config.exec_options())
            .unwrap_or_else(|e| panic!("{e}"));
        for (point, wl_label) in [(0, "random d=16, 1 KB    "), (1, "symmetric halo, 32 KB")] {
            for variant in registry::variants() {
                let base = variant.family().scheduler();
                let mut row = format!("  {wl_label}  {:<13}", variant.name());
                for entry in [base, variant] {
                    let col = result.find_column(entry.name()).expect("declared column");
                    let cell = result.at(col, point).expect("measured cell");
                    row.push_str(&format!(
                        "  {:<6} phases = {:>5.1} pairs = {:>5.1} comm = {:>7.2} ms",
                        if entry.is_variant() {
                            "ablate"
                        } else {
                            "paper"
                        },
                        cell.result.phases,
                        cell.result.exchange_pairs,
                        cell.result.comm_ms
                    ));
                }
                println!("{row}");
            }
            println!();
        }
        println!("  (Section 4.2: randomization keeps expected collisions bounded — the");
        println!("   cyclic row sweep already spreads them, so the RS_*_DET gap is small.");
        println!("   Section 5: the pairwise preference is what buys RS_NL its fused");
        println!("   exchanges on symmetric traffic — RS_NL_NOPAIR loses them)\n");
        eprintln!(
            "ablation 1 grid: {} matrices generated for {} requests ({} reused across columns)",
            result.stats().matrices_generated,
            result.stats().matrix_requests,
            result.stats().matrices_reused()
        );
    }

    println!("=== Ablation 2: S1 vs S2 per phased scheduler ===");
    {
        // Two workloads: random (no reciprocal pairs to fuse) and a
        // symmetric halo (everything fusable). The paper's rule — use S1
        // where the algorithm exploits pairwise exchange — is about the
        // second kind; on purely random traffic S2's free-running blast is
        // competitive. Each scheduler is two grid columns, one per scheme,
        // sharing one sample stream.
        let phased: Vec<&'static dyn Scheduler> = registry::primary()
            .filter(|e| e.node_contention_free())
            .collect();
        let mut grid = config.grid().topology("hypercube(6)", paper_cube());
        for &entry in &phased {
            for scheme in [Scheme::S1, Scheme::S2] {
                grid =
                    grid.column(GridColumn::new(SchedulerHandle::from(entry)).with_scheme(scheme));
            }
        }
        let result = grid
            .point(WorkloadPoint::shared(
                Generator::dregular(n, 16, 32_768),
                16,
                32_768,
                303,
            ))
            .point(WorkloadPoint::shared(
                Generator::fixed(
                    "ring_halo(w=8,32K)",
                    workloads::structured::ring_halo(n, 8, 32_768),
                ),
                16,
                32_768,
                303,
            ))
            .execute_opts(config.exec_options())
            .unwrap_or_else(|e| panic!("{e}"));
        for (point, wl_label) in [(0, "random d=16, 32 KB   "), (1, "symmetric halo, 32 KB")] {
            for (i, entry) in phased.iter().enumerate() {
                let mut row = format!("  {wl_label}  {:<6}", entry.name());
                for (j, scheme) in [Scheme::S1, Scheme::S2].into_iter().enumerate() {
                    let cell = result.at(2 * i + j, point).expect("measured cell");
                    row.push_str(&format!(
                        "  {} = {:>7.2} ms",
                        scheme.label(),
                        cell.result.comm_ms
                    ));
                }
                println!("{row}");
            }
        }
        println!("  (paper: S1 wins where pairwise exchange is exploited — LP, RS_NL)\n");
    }

    let ac = registry::find("AC").expect("registered");
    println!("=== Ablation 3: machine model — ports and claim policy (AC, d=16, 32 KB) ===");
    {
        let default = MachineParams::ipsc860();
        let split_atomic = MachineParams {
            ports: simnet::PortModel::Split,
            ..MachineParams::ipsc860()
        };
        for (label, params) in [
            ("unified + atomic (default)", default),
            ("split   + atomic          ", split_atomic),
            (
                "split   + hold-and-wait   ",
                MachineParams::ipsc860_hold_and_wait(),
            ),
        ] {
            let result = config
                .grid()
                .with_params(params)
                .topology("hypercube(6)", paper_cube())
                .scheduler(ac)
                .point(WorkloadPoint::shared(
                    Generator::dregular(n, 16, 32_768),
                    16,
                    32_768,
                    404,
                ))
                .execute_opts(config.exec_options())
                .expect("cell");
            let cell = result.at(0, 0).expect("measured cell");
            println!("  {label} comm = {:>8.2} ms", cell.result.comm_ms);
        }
        println!("  (split ports let send overlap recv — faster than Observation 1's unified");
        println!("   engine; hold-and-wait then adds back tree-saturation blocking)\n");
    }

    println!(
        "=== Ablation 4: AC without pre-posted receives (send-detect-receive, d=8, 16 KB) ==="
    );
    {
        // With pre-posted receives (Figure 1) buffers are never touched; the
        // paper's Section 3 hazard appears in the send-detect-receive
        // variant, where every arrival is buffered and copied, and bounded
        // buffers can deadlock the machine.
        let com = workloads::random_dregular(n, 8, 16_384, 909);
        let posted = run_schedule(
            &cube,
            &MachineParams::ipsc860(),
            &com,
            &ac.schedule(&com, &cube, 0),
            Scheme::S2,
        )
        .expect("posted AC runs");
        println!(
            "  pre-posted (Figure 1)      comm = {:>8.2} ms   copies = {}",
            posted.makespan_ms(),
            posted.stats.copies
        );
        for (label, cap) in [
            ("send-detect, unbounded     ", None),
            ("send-detect, 512 KB buffers", Some(512 * 1024)),
            ("send-detect, 64 KB buffers ", Some(64 * 1024)),
        ] {
            let params = MachineParams {
                buffer_bytes: cap,
                ..MachineParams::ipsc860()
            };
            let progs = commrt::compile_ac_send_detect(&com);
            match simnet::simulate(&cube, &params, progs) {
                Ok(report) => println!(
                    "  {label} comm = {:>8.2} ms   copies = {}",
                    report.makespan_ms(),
                    report.stats.copies
                ),
                Err(e) => println!("  {label} DEADLOCK: {e}"),
            }
        }
        println!("  (paper Section 3: buffer copying is costly; overflow can deadlock)\n");
    }

    println!("=== Bonus: link-free schedulers on a 2-D mesh (topology generality, d=8, 8 KB) ===");
    {
        let mesh = hypercube::Mesh2d::new(8, 8);
        let com = workloads::random_dregular(64, 8, 8192, 77);
        for entry in registry::all()
            .iter()
            .copied()
            .filter(|e| e.link_contention_free() && e.supports_topology(&mesh))
        {
            let schedule = entry.schedule(&com, &mesh, 77);
            let report = run_schedule(
                &mesh,
                &MachineParams::ipsc860(),
                &com,
                &schedule,
                Scheme::for_scheduler(entry),
            )
            .expect("mesh run");
            println!(
                "  {:<13} mesh comm = {:.2} ms over {} phases (link-free: {})",
                entry.name(),
                report.makespan_ms(),
                schedule.num_phases(),
                schedule.link_contention_free(&mesh)
            );
        }
    }

    // Measure what matrix reuse buys on the ablation-1 grid (every base
    // and variant column of a row consumes the same samples) and record
    // it next to the criterion outputs. Stderr only: stdout above is the
    // reproduced artifact.
    let reuse = time_case("ablation1_grid_reuse", 3, || {
        variant_grid
            .execute_opts(config.exec_options())
            .expect("grid runs");
    });
    let no_reuse = time_case("ablation1_grid_no_reuse", 3, || {
        variant_grid
            .execute_opts(ExecOptions {
                no_matrix_reuse: true,
                ..config.exec_options()
            })
            .expect("grid runs");
    });
    let speedup = no_reuse.mean_ns / reuse.mean_ns;
    eprintln!(
        "matrix reuse: {:.1} ms vs {:.1} ms without ({speedup:.2}x)",
        reuse.mean_ns / 1e6,
        no_reuse.mean_ns / 1e6
    );
    match criterion::write_report("grid_matrix_reuse", &[reuse, no_reuse]) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("BENCH report not written: {e}"),
    }
}
