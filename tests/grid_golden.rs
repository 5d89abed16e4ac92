//! Golden numbers for the grid executor.
//!
//! Every cell below is measured through `ExperimentGrid` with its backend
//! and link-cost model set explicitly (nothing is read from the
//! environment), and its label, coordinates, sample count and the exact
//! `f64` bits of every `CellResult` measurement are compared against the
//! committed fixture `tests/fixtures/grid_golden.txt`. This pins the
//! historical per-scheduler sample streams (`paper_base_seed` with the
//! registry's pinned ordinals), the shared-seed streams, scheme and
//! cost-model overrides, and both simulation backends to fixed values,
//! so a refactor of the executor or of the settings it carries cannot
//! move a reproduced number unnoticed.
//!
//! On a mismatch the test writes what it measured next to the build's
//! temporary files and names the path in the failure message; after a
//! deliberate model change, review that file's diff against the fixture
//! and copy it over.

use commrt::grid::{GridColumn, SchedulerHandle};
use commrt::{BackendKind, ExperimentGrid, GridResult, LinkCostModel, Scheme, WorkloadPoint};
use commsched::registry;
use hypercube::Hypercube;
use repro_bench::{paper_cube, DENSITIES, TABLE1_SIZES};
use workloads::Generator;

const FIXTURE: &str = include_str!("fixtures/grid_golden.txt");

const BACKENDS: [BackendKind; 2] = [BackendKind::Des, BackendKind::Analytic];

/// One fixture line per measured cell, in stable cell order.
fn lines(section: &str, backend: BackendKind, result: &GridResult) -> Vec<String> {
    result
        .cells()
        .map(|c| {
            let r = &c.result;
            format!(
                "{section}/{} {} d={} M={} samples={} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
                backend.label(),
                c.algorithm,
                c.d,
                c.msg_bytes,
                r.samples,
                r.comm_ms.to_bits(),
                r.comm_ms_min.to_bits(),
                r.comm_ms_max.to_bits(),
                r.phases.to_bits(),
                r.comp_ms.to_bits(),
                r.exchange_pairs.to_bits(),
            )
        })
        .collect()
}

/// A grid on `backend` under the uniform link-cost model.
fn grid(backend: BackendKind) -> ExperimentGrid {
    ExperimentGrid::new()
        .with_backend(backend)
        .with_link_costs(LinkCostModel::Uniform)
}

fn measure() -> Vec<String> {
    let mut out = Vec::new();
    let n = 64;
    let shared = || WorkloadPoint::shared(Generator::dregular(16, 3, 1024), 3, 1024, 42);
    for backend in BACKENDS {
        // Table 1: the primary entries over every (d, M) of the paper's
        // sweep, each column on its historical per-scheduler stream.
        let mut table1 = grid(backend)
            .topology("hypercube(6)", paper_cube())
            .schedulers(registry::primary())
            .samples(2);
        for d in DENSITIES {
            for m in TABLE1_SIZES {
                table1 = table1.point(WorkloadPoint::per_scheduler(
                    Generator::dregular(n, d, m),
                    d,
                    m,
                ));
            }
        }
        out.extend(lines("table1", backend, &table1.execute().unwrap()));

        // Every registry entry on one shared-seed point.
        let all = grid(backend)
            .topology("hypercube(4)", Hypercube::new(4))
            .schedulers(registry::all().iter().copied())
            .point(shared())
            .samples(3);
        out.extend(lines("all", backend, &all.execute().unwrap()));

        // Scheme overrides, non-uniform link-cost columns, and a column
        // pinned to the other backend.
        let other = match backend {
            BackendKind::Des => BackendKind::Analytic,
            BackendKind::Analytic => BackendKind::Des,
        };
        let rs_nl = registry::find("RS_NL").unwrap();
        let rs_n = registry::find("RS_N").unwrap();
        let overrides = grid(backend)
            .topology("hypercube(4)", Hypercube::new(4))
            .column(GridColumn::new(SchedulerHandle::from(rs_nl)).with_scheme(Scheme::S2))
            .column(GridColumn::new(SchedulerHandle::from(rs_n)).with_scheme(Scheme::S1))
            .column(
                GridColumn::new(SchedulerHandle::from(rs_nl)).with_cost_model(
                    LinkCostModel::parse("hetero:factor=4,frac=0.25,lat=20000,seed=7").unwrap(),
                ),
            )
            .column(
                GridColumn::new(SchedulerHandle::from(rs_n))
                    .with_cost_model(LinkCostModel::parse("loggp:o=5000,g=2000,G=1.5").unwrap()),
            )
            .column(GridColumn::new(SchedulerHandle::from(rs_n)).with_backend(other))
            .point(shared())
            .samples(3);
        out.extend(lines("overrides", backend, &overrides.execute().unwrap()));
    }
    out
}

#[test]
fn grid_cells_match_the_committed_golden_numbers() {
    let actual = measure();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("measured {a}\n fixture {e}"))
        .collect();
    if mismatches.is_empty() && actual.len() == expected.len() {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("grid_golden.txt");
    let text: String = actual.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, text).expect("write measured cells");
    panic!(
        "{} of {} cells diverge from the fixture ({} lines); measured cells written to {}; \
         first: {:#?}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        path.display(),
        &mismatches[..mismatches.len().min(4)]
    );
}
