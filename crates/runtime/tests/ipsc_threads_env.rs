//! `IPSC_THREADS` environment override — isolated in its own integration
//! binary because environment variables are process-global and the other
//! test binaries construct grids concurrently.

use commrt::{ExperimentGrid, WorkloadPoint};
use hypercube::Hypercube;
use workloads::Generator;

#[test]
fn ipsc_threads_overrides_the_runner_thread_count() {
    std::env::set_var("IPSC_THREADS", "3");
    assert_eq!(ExperimentGrid::new().threads(), 3);

    // Garbage and zero fall back to the host default.
    std::env::set_var("IPSC_THREADS", "0");
    assert!(ExperimentGrid::new().threads() >= 1);
    std::env::set_var("IPSC_THREADS", "not-a-number");
    assert!(ExperimentGrid::new().threads() >= 1);

    // The override steers the grid executor — and, per the determinism
    // guarantee, the results are identical to an unconstrained run.
    std::env::set_var("IPSC_THREADS", "2");
    let grid = || {
        ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .schedulers(commsched::registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 1024),
                3,
                1024,
                17,
            ))
            .samples(2)
    };
    let pinned = grid().execute().unwrap();
    std::env::remove_var("IPSC_THREADS");
    let free = grid().execute().unwrap();
    assert_eq!(
        pinned.cells().collect::<Vec<_>>(),
        free.cells().collect::<Vec<_>>()
    );
}
