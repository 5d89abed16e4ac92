//! Differential conformance between the simulation backends — the
//! headline validation of the pluggable-backend layer.
//!
//! The exact discrete-event engine and the analytic occupancy model are
//! each other's oracle: for every registry scheduler × workload family ×
//! cube dimension the analytic estimate must track the event engine
//! within the tolerances documented in [`repro_bench::simcheck`], agree
//! with it *exactly* on contention-free schedules, and report the worst
//! divergence it observed. The `simcheck` binary runs the same harness
//! from the command line.

use commrt::grid::{GridColumn, SchedulerHandle, WorkloadPoint};
use commrt::{BackendKind, ExperimentGrid, LinkCostModel};
use commsched::registry;
use hypercube::Hypercube;
use repro_bench::simcheck;
use simnet::MachineParams;
use workloads::Generator;

fn samples() -> usize {
    repro_bench::RunConfig::from_env(2).samples
}

#[test]
fn exact_agreement_on_contention_free_schedules() {
    // Invariant: on contention-free schedules (single messages, the
    // half-cube shift, the neighbor exchange) every registry entry's
    // analytic estimate equals the event engine to the nanosecond,
    // across five cube sizes.
    let checked = simcheck::run_exact(&[2, 3, 4, 5, 6]).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        checked,
        5 * registry::all().len() * 3,
        "every (dim, entry, workload) triple must be pinned"
    );
}

#[test]
fn tolerances_hold_for_all_schedulers_across_dimensions() {
    // The full differential sweep on >= 3 cube dimensions. The report
    // always names the worst divergence — visible with `--nocapture`.
    let report = simcheck::run_conformance(&[3, 4, 5], samples());
    println!("{}", report.summary());
    let expected = 3 * simcheck::workload_families(3).len() * registry::all().len() * samples();
    assert_eq!(report.cases.len(), expected);
    assert!(
        report.is_pass(),
        "backend conformance violated:\n{}",
        report.summary()
    );
    let worst = report.worst().expect("sweep is non-empty");
    assert!(
        worst.divergence().is_finite(),
        "worst divergence must be finite: {worst:?}"
    );
}

#[test]
fn backend_column_axis_compares_backends_in_one_grid() {
    // The grid's backend column axis: one scheduler, two backends, shared
    // sample matrices. Labels disambiguate the columns, and the two
    // measurements agree within the scheduler's documented band.
    let entry = registry::find("RS_NL").unwrap();
    let grid = ExperimentGrid::new()
        .topology("hypercube(4)", Hypercube::new(4))
        .column(GridColumn::new(SchedulerHandle::from(entry)).with_backend(BackendKind::Des))
        .column(GridColumn::new(SchedulerHandle::from(entry)).with_backend(BackendKind::Analytic))
        .point(WorkloadPoint::shared(
            Generator::dregular(16, 3, 4096),
            3,
            4096,
            21,
        ))
        .samples(3);
    let result = grid.execute().unwrap();
    let des = result.at(0, 0).unwrap();
    let ana = result.at(1, 0).unwrap();
    assert_eq!(des.algorithm, "RS_NL@des");
    assert_eq!(ana.algorithm, "RS_NL@analytic");
    // Schedule-derived quantities are backend-independent...
    assert_eq!(des.result.phases, ana.result.phases);
    assert_eq!(des.result.comp_ms, ana.result.comp_ms);
    assert_eq!(des.result.exchange_pairs, ana.result.exchange_pairs);
    // ...while the priced makespan stays inside the documented band.
    let tol = simcheck::tolerance(entry);
    let ratio = ana.result.comm_ms / des.result.comm_ms;
    assert!(
        ratio >= tol.lo && ratio <= tol.hi,
        "grid backend columns diverge: ratio {ratio:.3} outside [{}, {}]",
        tol.lo,
        tol.hi
    );
}

#[test]
fn analytic_grids_preserve_structure_and_schedule_facts() {
    // Switching the whole grid to the analytic backend must change only
    // the priced communication cost: same cells, same topology holes
    // (LP declining the mesh), same phase counts and scheduling costs.
    let build = |kind: BackendKind| {
        ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .topology("mesh(4x4)", hypercube::Mesh2d::new(4, 4))
            .schedulers(registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 1024),
                3,
                1024,
                9,
            ))
            .samples(samples())
            .with_backend(kind)
    };
    let des = build(BackendKind::Des).execute().unwrap();
    let ana = build(BackendKind::Analytic).execute().unwrap();
    assert_eq!(des.stats().cells, ana.stats().cells);
    assert_eq!(des.stats().skipped, ana.stats().skipped);
    let des_cells: Vec<_> = des.cells().collect();
    let ana_cells: Vec<_> = ana.cells().collect();
    assert_eq!(des_cells.len(), ana_cells.len());
    for (d, a) in des_cells.iter().zip(&ana_cells) {
        assert_eq!(d.id, a.id);
        assert_eq!(d.algorithm, a.algorithm);
        assert_eq!(d.result.phases, a.result.phases, "{}", d.algorithm);
        assert_eq!(d.result.comp_ms, a.result.comp_ms, "{}", d.algorithm);
        assert!(a.result.comm_ms > 0.0, "{}", d.algorithm);
    }
}

#[test]
fn empty_matrices_flow_through_both_backends_and_the_grid() {
    // An all-silent workload must produce zero-cost cells everywhere, on
    // both backends, without panicking.
    for kind in BackendKind::all() {
        let result = ExperimentGrid::new()
            .topology("hypercube(3)", Hypercube::new(3))
            .schedulers(registry::primary())
            .point(WorkloadPoint::shared(
                Generator::fixed("empty", commsched::CommMatrix::new(8)),
                0,
                0,
                1,
            ))
            .samples(2)
            .with_backend(kind)
            .execute()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        for cell in result.cells() {
            assert_eq!(cell.result.comm_ms, 0.0, "{kind}/{}", cell.algorithm);
            assert_eq!(cell.result.exchange_pairs, 0.0, "{kind}/{}", cell.algorithm);
        }
    }
}

#[test]
fn single_node_topologies_flow_through_both_backends_and_the_grid() {
    // A 1x1 mesh is a machine with no network. Every scheduler that
    // accepts the topology must schedule the (necessarily empty) matrix
    // and both backends must price it at zero — no panics, no holes
    // beyond the topology-declined ones.
    let accepted: Vec<_> = registry::all()
        .iter()
        .copied()
        .filter(|e| e.supports_topology(&hypercube::Mesh2d::new(1, 1)))
        .collect();
    assert!(!accepted.is_empty(), "RS/AC families accept any topology");
    for kind in BackendKind::all() {
        let result = ExperimentGrid::new()
            .topology("mesh(1x1)", hypercube::Mesh2d::new(1, 1))
            .schedulers(accepted.iter().copied())
            .point(WorkloadPoint::shared(
                Generator::fixed("empty", commsched::CommMatrix::new(1)),
                0,
                0,
                1,
            ))
            .samples(1)
            .with_backend(kind)
            .execute()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(result.stats().cells, accepted.len(), "{kind}");
        for cell in result.cells() {
            assert_eq!(cell.result.comm_ms, 0.0, "{kind}/{}", cell.algorithm);
        }
    }
}

#[test]
fn self_directed_schedules_error_on_both_backends_without_panicking() {
    // The matrix forbids diagonal entries, but a hand-assembled schedule
    // can smuggle a self-pair in; both backends must diagnose it as a
    // SimError, never panic.
    use commsched::{PartialPermutation, Schedule, ScheduleKind, SchedulerKind};
    let cube = Hypercube::new(3);
    let com = commsched::CommMatrix::new(8);
    let mut pm = PartialPermutation::empty(8);
    pm.assign(hypercube::NodeId(5), hypercube::NodeId(5));
    let hostile = Schedule::from_parts(ScheduleKind::Phased, SchedulerKind::RsN, 8, vec![pm], 0, 0);
    let params = simnet::MachineParams::ipsc860();
    for kind in BackendKind::all() {
        for scheme in [commrt::Scheme::S1, commrt::Scheme::S2] {
            let err = kind
                .backend()
                .estimate(
                    &params,
                    &LinkCostModel::Uniform,
                    &cube,
                    &com,
                    &hostile,
                    scheme,
                )
                .unwrap_err();
            assert!(
                matches!(err, simnet::SimError::ProgramError { .. }),
                "{kind}/{scheme:?}: {err}"
            );
        }
    }
}

#[test]
fn bad_params_surface_as_grid_cell_errors_on_the_analytic_backend() {
    // Regression: the analytic backend validates machine parameters like
    // the event engine does — a broken calibration fails the grid with a
    // deterministic BadParams cell error instead of a silent estimate.
    let params = MachineParams {
        long_per_byte_ns: -1.0,
        ..MachineParams::ipsc860()
    };
    let err = ExperimentGrid::new()
        .with_params(params)
        .with_backend(BackendKind::Analytic)
        .topology("hypercube(3)", Hypercube::new(3))
        .schedulers(registry::primary())
        .point(WorkloadPoint::shared(
            Generator::dregular(8, 2, 512),
            2,
            512,
            3,
        ))
        .samples(1)
        .execute()
        .unwrap_err();
    match err {
        commrt::grid::GridError::Cell { sample, source, .. } => {
            assert_eq!(sample, 0);
            assert!(matches!(source, simnet::SimError::BadParams(_)), "{source}");
        }
        other => panic!("expected a cell error, got {other}"),
    }
}

#[test]
fn schedule_cache_serves_both_backends_identically() {
    // Backend choice is not part of the schedule fingerprint: a cache
    // warmed by a DES run serves an analytic run (and vice versa), and
    // neither backend's numbers move.
    let cache = std::sync::Arc::new(commrt::SchedCache::new(commrt::CacheConfig::in_memory()));
    let run = |kind: BackendKind, cached: bool| {
        let mut grid = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .schedulers(registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 2048),
                3,
                2048,
                33,
            ))
            .samples(2)
            .with_backend(kind);
        if cached {
            grid = grid.with_shared_cache(cache.clone());
        }
        grid.execute().unwrap()
    };
    let des_plain = run(BackendKind::Des, false);
    let des_cached = run(BackendKind::Des, true); // warms the cache
    let ana_cached = run(BackendKind::Analytic, true); // pure hits
    let ana_plain = run(BackendKind::Analytic, false);
    assert_eq!(
        des_plain.cells().collect::<Vec<_>>(),
        des_cached.cells().collect::<Vec<_>>()
    );
    assert_eq!(
        ana_plain.cells().collect::<Vec<_>>(),
        ana_cached.cells().collect::<Vec<_>>()
    );
    let stats = cache.stats();
    assert!(
        stats.mem_hits >= stats.misses,
        "analytic re-run must hit the DES-warmed cache: {stats:?}"
    );
}
