use commsched::{CommMatrix, I860CostModel, Schedule};
use hypercube::Topology;
use simnet::{LinkCostModel, MachineParams, SimError};

use crate::backend::{AnalyticBackend, BackendKind};
use crate::{compile, Scheme};

/// Aggregated measurements of one experiment cell (one algorithm at one
/// `(density, message size)` point), averaged over a
/// [`workloads::SampleSet`] exactly the way the paper aggregates: per
/// sample, the cost is the *maximum* time spent by any processor; the cell
/// reports the mean over samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellResult {
    /// Mean communication cost over samples (ms).
    pub comm_ms: f64,
    /// Fastest sample (ms).
    pub comm_ms_min: f64,
    /// Slowest sample (ms).
    pub comm_ms_max: f64,
    /// Mean number of communication phases (the paper's "# iters";
    /// 0 for AC).
    pub phases: f64,
    /// Mean simulated scheduling cost under the i860 model (ms).
    pub comp_ms: f64,
    /// Mean reciprocal pairs fused into exchanges per schedule.
    pub exchange_pairs: f64,
    /// Samples aggregated.
    pub samples: usize,
}

impl CellResult {
    /// Aggregate per-sample outcomes exactly the way the paper aggregates
    /// (mean over samples, min/max of the per-sample maxima). The grid
    /// executor aggregates every cell through this one function. `None`
    /// for an empty outcome list.
    pub(crate) fn aggregate(outcomes: &[SampleOutcome]) -> Option<CellResult> {
        if outcomes.is_empty() {
            return None;
        }
        let mut comm_sum = 0.0;
        let mut comm_min = f64::INFINITY;
        let mut comm_max = 0.0f64;
        let mut phase_sum = 0.0;
        let mut comp_sum = 0.0;
        let mut pair_sum = 0.0;
        for o in outcomes {
            comm_sum += o.comm_ms;
            comm_min = comm_min.min(o.comm_ms);
            comm_max = comm_max.max(o.comm_ms);
            phase_sum += o.phases as f64;
            comp_sum += o.comp_ms;
            pair_sum += o.exchange_pairs as f64;
        }
        let kf = outcomes.len() as f64;
        Some(CellResult {
            comm_ms: comm_sum / kf,
            comm_ms_min: comm_min,
            comm_ms_max: comm_max,
            phases: phase_sum / kf,
            comp_ms: comp_sum / kf,
            exchange_pairs: pair_sum / kf,
            samples: outcomes.len(),
        })
    }
}

/// Schedule-to-numbers for one already-generated sample: price the
/// schedule on `params` under `link_costs` with `backend`, and its
/// scheduling cost under the i860 cost model. The grid executor calls it
/// once per *(cell, sample)* task, after resolving the cell's column
/// overrides against the grid defaults.
///
/// [`BackendKind::Des`] keeps the historical fast path — compile under
/// `scheme` and run the untraced event engine — so default measurements
/// are bit-identical to every release before backends existed.
/// [`BackendKind::Analytic`] skips program compilation entirely.
pub(crate) fn measure_sample(
    params: &MachineParams,
    link_costs: &LinkCostModel,
    backend: BackendKind,
    topo: &dyn Topology,
    com: &CommMatrix,
    schedule: &Schedule,
    scheme: Scheme,
) -> Result<SampleOutcome, SimError> {
    let comm_ms = match backend {
        BackendKind::Des => {
            let programs = compile(com, schedule, scheme);
            simnet::simulate_with(topo, params, link_costs, programs, false)?
                .0
                .makespan_ms()
        }
        BackendKind::Analytic => AnalyticBackend::default()
            .estimate_on_costed(params, link_costs, topo, com, schedule, scheme)?
            .makespan_ms(),
    };
    Ok(SampleOutcome {
        comm_ms,
        phases: schedule.num_phases(),
        comp_ms: I860CostModel::default().schedule_ms(schedule),
        exchange_pairs: schedule.exchange_pairs(),
    })
}

/// Per-sample measurement, aggregated by [`CellResult::aggregate`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SampleOutcome {
    pub(crate) comm_ms: f64,
    pub(crate) phases: usize,
    pub(crate) comp_ms: f64,
    pub(crate) exchange_pairs: usize,
}

#[cfg(test)]
mod tests {
    use crate::grid::{ExecOptions, ExperimentGrid, GridError, WorkloadPoint};
    use commcache::{CacheConfig, IncrementalConfig, SchedCache};
    use commsched::registry;
    use hypercube::Hypercube;
    use std::sync::Arc;
    use workloads::Generator;

    /// A one-topology grid on the 16-node cube.
    fn cube4() -> ExperimentGrid {
        ExperimentGrid::new().topology("hypercube(4)", Hypercube::new(4))
    }

    #[test]
    fn cell_aggregates_samples() {
        let result = cube4()
            .scheduler(registry::find("RS_N").unwrap())
            .point(WorkloadPoint::shared(
                Generator::dense(16, 3, 1024),
                3,
                1024,
                77,
            ))
            .samples(8)
            .execute()
            .unwrap();
        let cell = result.at(0, 0).unwrap().result;
        assert_eq!(cell.samples, 8);
        assert!(cell.comm_ms > 0.0);
        assert!(cell.comm_ms_min <= cell.comm_ms && cell.comm_ms <= cell.comm_ms_max);
        assert!(cell.phases >= 3.0);
        assert!(cell.comp_ms > 0.0);
    }

    #[test]
    fn every_registry_entry_runs_end_to_end() {
        // GREEDY and the ablation variants are first-class runtime citizens,
        // not just schedule factories.
        let result = cube4()
            .schedulers(registry::all().iter().copied())
            .point(WorkloadPoint::shared(
                Generator::dense(16, 3, 1024),
                3,
                1024,
                9,
            ))
            .samples(2)
            .execute()
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(result.row(0).count(), registry::all().len());
        for cell in result.row(0) {
            assert!(cell.result.comm_ms > 0.0, "{}", cell.algorithm);
        }
    }

    #[test]
    fn cached_scheduler_cells_match_uncached_bit_for_bit() {
        // Caching must change cost only: every registry entry's cell is
        // identical with and without the schedule cache, and re-running
        // the cached grid hits instead of recompiling.
        let grid = || {
            cube4()
                .schedulers(registry::all().iter().copied())
                .point(WorkloadPoint::shared(
                    Generator::dregular(16, 3, 1024),
                    3,
                    1024,
                    13,
                ))
                .samples(3)
        };
        let plain = grid().execute().unwrap();
        let cached = grid().with_cache(CacheConfig::in_memory());
        let first = cached.execute().unwrap();
        assert_eq!(
            plain.cells().collect::<Vec<_>>(),
            first.cells().collect::<Vec<_>>()
        );
        let entries = registry::all().len() as u64;
        let stats = cached.schedule_cache().unwrap().stats();
        assert_eq!(
            stats.misses,
            entries * 3,
            "each (entry, sample) compiled once"
        );
        // A second pass over the same cells is pure hits.
        let second = cached.execute().unwrap();
        assert_eq!(
            plain.cells().collect::<Vec<_>>(),
            second.cells().collect::<Vec<_>>()
        );
        let stats = cached.schedule_cache().unwrap().stats();
        assert_eq!(stats.misses, entries * 3, "no recompilation");
        assert_eq!(stats.mem_hits, entries * 3);
    }

    #[test]
    fn incremental_runner_patches_drifting_cells() {
        // A sweep over a drifting pattern: each grid perturbs the previous
        // matrix slightly. Under the incremental cache the later grids are
        // served by patching (checked through the cache counters), and
        // re-measuring a drifted pattern is deterministic.
        let cache = Arc::new(SchedCache::new(CacheConfig {
            incremental: Some(IncrementalConfig::default()),
            ..CacheConfig::in_memory()
        }));
        let entry = registry::find("RS_NL").unwrap();
        let grid = |com: &commsched::CommMatrix| {
            cube4()
                .with_shared_cache(Arc::clone(&cache))
                .scheduler(entry)
                .point(WorkloadPoint::shared(
                    Generator::fixed("drift", com.clone()),
                    4,
                    1024,
                    29,
                ))
                .samples(1)
        };
        let mut base = workloads::random_dregular(16, 4, 1024, 3);
        for step in 0..4usize {
            grid(&base).execute().unwrap();
            let from = (step * 5) % 16;
            let old_dst = (0..16).find(|&d| base.get(from, d) > 0).unwrap();
            base.set(from, old_dst, 0);
            let new_dst = (0..16)
                .find(|&d| d != from && d != old_dst && base.get(from, d) == 0)
                .unwrap();
            base.set(from, new_dst, 1024);
        }
        let inc = cache.incremental_stats().unwrap();
        assert_eq!(inc.patches, 3, "every drifted cell patched: {inc:?}");
        assert_eq!(inc.validation_rejections, 0);
        // Two grids sharing the cache measure the same drifted pattern
        // identically (patched schedules are cached under the exact
        // fingerprint like any compile).
        let r1 = grid(&base).execute().unwrap();
        let r2 = grid(&base).execute().unwrap();
        assert_eq!(r1.at(0, 0).unwrap(), r2.at(0, 0).unwrap());
    }

    #[test]
    fn empty_sample_set_is_an_error_not_a_panic() {
        // Regression: clamping the worker count to `1..=k` with `k = 0`
        // samples violated `clamp`'s `min <= max` contract and panicked
        // before any sample ran; an empty set must surface as a proper
        // error instead, whatever the thread count.
        let grid = cube4()
            .scheduler(registry::find("RS_N").unwrap())
            .point(WorkloadPoint::shared(
                Generator::dense(16, 3, 1024),
                3,
                1024,
                1,
            ))
            .samples(0);
        let err = grid
            .execute_opts(ExecOptions {
                threads: Some(8),
                ..ExecOptions::default()
            })
            .unwrap_err();
        assert!(
            matches!(err, GridError::Empty(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("zero samples"), "{err}");
    }

    #[test]
    fn cell_results_are_deterministic_across_thread_counts() {
        let grid = cube4()
            .scheduler(registry::find("RS_NL").unwrap())
            .point(WorkloadPoint::shared(
                Generator::dense(16, 4, 512),
                4,
                512,
                3,
            ))
            .samples(6);
        let run = |threads| {
            grid.execute_opts(ExecOptions {
                threads: Some(threads),
                ..ExecOptions::default()
            })
            .unwrap()
            .at(0, 0)
            .unwrap()
            .result
        };
        assert_eq!(run(1), run(8));
    }
}
