//! Declarative experiment grids: declare *(schedulers × workload points ×
//! topologies)*, execute every cell on a work-stealing pool, read the
//! results by stable cell address.
//!
//! The paper's results are all grids — every table and figure sweeps
//! `(algorithm × density × message length)` over the same sampled
//! matrices. This module turns that shape into data: an
//! [`ExperimentGrid`] compiles its axes into a flat list of [`CellSpec`]s
//! (one per supported *(column, point, topology)* combination), the
//! executor fans *(cell, sample)* work units out across worker threads,
//! and each sampled [`CommMatrix`] is generated **exactly once** per
//! `(workload point, seed)` and shared behind an [`Arc`] across every
//! scheduler column that consumes it.
//!
//! Determinism is a structural guarantee: every seed derives from the
//! [`CellSpec`] (never from execution order), so the [`GridResult`] is
//! identical across worker counts and arbitrary task orders — see
//! [`ExecOptions::shuffle_seed`].
//!
//! ```
//! use commrt::grid::{ExperimentGrid, WorkloadPoint};
//! use hypercube::Hypercube;
//! use workloads::Generator;
//!
//! let result = ExperimentGrid::new()
//!     .topology("hypercube(4)", Hypercube::new(4))
//!     .schedulers(commsched::registry::primary())
//!     .point(WorkloadPoint::shared(Generator::dregular(16, 3, 1024), 3, 1024, 42))
//!     .samples(2)
//!     .execute()
//!     .unwrap();
//! // One row, five scheduler columns, matrices generated once per seed:
//! assert_eq!(result.row(0).count(), 5);
//! assert_eq!(result.stats().matrices_generated, 2);
//! assert_eq!(result.stats().matrix_requests, 10);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use commcache::{CacheConfig, SchedCache};
use commsched::{CommMatrix, Scheduler};
use hypercube::Topology;
use simnet::{LinkCostModel, MachineParams, SimError};
use workloads::{Generator, SampleSet};

use crate::backend::BackendKind;
use crate::experiment::{measure_sample, SampleOutcome};
use crate::{CellRecord, CellResult, Scheme};

mod executor;

/// The base seed the pre-grid repro harness used for one `(d, M, entry)`
/// cell. [`SeedPolicy::PerScheduler`] points use it, which pins the
/// historical per-algorithm sample streams — every reproduced table cell
/// keeps its exact pre-grid numbers. Wrapping arithmetic so hashed
/// ad-hoc ordinals anywhere in `u64` stay panic-free.
pub fn paper_base_seed(d: usize, msg_bytes: u32, ordinal: u64) -> u64 {
    (d as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(u64::from(msg_bytes).wrapping_mul(7))
        .wrapping_add(ordinal)
}

/// Handle to a scheduler powering one grid column: a `'static` registry
/// entry, or a shared *explicit* scheduler (e.g.
/// [`commsched::registry::AdHoc`]) that exists only for this grid.
#[derive(Clone)]
pub enum SchedulerHandle {
    /// A [`commsched::registry`] entry.
    Registry(&'static dyn Scheduler),
    /// An explicit scheduler owned by the grid.
    Shared(Arc<dyn Scheduler + Send + Sync>),
}

impl SchedulerHandle {
    /// Wrap an owned scheduler.
    pub fn shared(s: impl Scheduler + Send + 'static) -> Self {
        SchedulerHandle::Shared(Arc::new(s))
    }

    /// The scheduler behind the handle.
    pub fn entry(&self) -> &dyn Scheduler {
        match self {
            SchedulerHandle::Registry(e) => *e,
            SchedulerHandle::Shared(a) => a.as_ref(),
        }
    }
}

impl From<&'static dyn Scheduler> for SchedulerHandle {
    fn from(e: &'static dyn Scheduler) -> Self {
        SchedulerHandle::Registry(e)
    }
}

impl fmt::Debug for SchedulerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SchedulerHandle")
            .field(&self.entry().name())
            .finish()
    }
}

/// One column of the grid: a scheduler plus the communication scheme its
/// cells compile under (defaults to the entry's paper scheme) and,
/// optionally, a per-column simulation-backend override — the *backend
/// column axis* that lets one grid compare the event engine against the
/// analytic model side by side.
#[derive(Clone, Debug)]
pub struct GridColumn {
    scheduler: SchedulerHandle,
    scheme: Scheme,
    backend: Option<BackendKind>,
    cost_model: Option<LinkCostModel>,
}

impl GridColumn {
    /// A column under the scheduler's paper-default scheme
    /// ([`Scheme::for_scheduler`]) and the grid's backend.
    pub fn new(scheduler: impl Into<SchedulerHandle>) -> Self {
        let scheduler = scheduler.into();
        let scheme = Scheme::for_scheduler(scheduler.entry());
        GridColumn {
            scheduler,
            scheme,
            backend: None,
            cost_model: None,
        }
    }

    /// Override the scheme (e.g. the S1-vs-S2 ablation runs the same
    /// scheduler as two columns).
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Pin this column to a simulation backend, overriding the grid's
    /// default ([`ExperimentGrid::with_backend`]). Two columns of one
    /// scheduler under different backends make a differential grid (the
    /// `simcheck` harness's shape).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Pin this column to a per-link cost model
    /// ([`simnet::LinkCostModel`]), overriding the grid's
    /// ([`ExperimentGrid::with_link_costs`]). One
    /// scheduler under `uniform` and under `faulty:p=0.05,seed=7` as two
    /// columns is a degradation grid — the fault-sweep figure's shape.
    pub fn with_cost_model(mut self, cost_model: LinkCostModel) -> Self {
        self.cost_model = Some(cost_model);
        self
    }

    /// The scheduler behind this column.
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.entry()
    }

    /// The compile scheme of this column's cells.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// This column's backend override (`None` = the grid's default).
    pub fn backend(&self) -> Option<BackendKind> {
        self.backend
    }

    /// The backend this column resolves to under a grid defaulting to
    /// `default`.
    pub fn backend_for(&self, default: BackendKind) -> BackendKind {
        self.backend.unwrap_or(default)
    }

    /// This column's link-cost override (`None` = the grid's default).
    pub fn cost_model(&self) -> Option<&LinkCostModel> {
        self.cost_model.as_ref()
    }

    /// The link-cost model this column resolves to under a grid
    /// defaulting to `default`.
    pub fn cost_model_for(&self, default: LinkCostModel) -> LinkCostModel {
        self.cost_model.unwrap_or(default)
    }

    /// Column label: the scheduler name, qualified with the scheme when
    /// it differs from the scheduler's paper default, with the backend
    /// when the column pins one (`RS_NL[S2]@analytic`), and with the
    /// cost-model preset when the column pins a non-uniform one
    /// (`RS_NL+faulty:p=0.05,seed=7`). Uniform-cost labels are unchanged
    /// from every release before cost models existed.
    pub fn label(&self) -> String {
        let name = self.scheduler.entry().name();
        let mut label = if self.scheme == Scheme::for_scheduler(self.scheduler.entry()) {
            name.to_string()
        } else {
            format!("{name}[{}]", self.scheme.label())
        };
        if let Some(backend) = self.backend {
            label.push('@');
            label.push_str(backend.label());
        }
        if let Some(cm) = &self.cost_model {
            if !cm.is_uniform() {
                label.push('+');
                label.push_str(&cm.to_string());
            }
        }
        label
    }
}

/// How a workload point derives the base seed of each cell's sample
/// stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Every scheduler column shares this base seed — all columns see the
    /// *same* sample matrices, generated once and shared. This is the
    /// isomorphic-instances discipline: algorithms are compared on
    /// identical communication instances.
    Shared(u64),
    /// Pre-grid compatibility: base seed =
    /// [`paper_base_seed`]`(d, M, scheduler.ordinal())` — each column
    /// draws its own historical sample stream (so reproduced tables stay
    /// byte-identical), and no cross-column matrix sharing is possible.
    PerScheduler,
}

/// One point on the workload axis: a [`Generator`] plus the grid
/// coordinates `(d, msg_bytes)` it was instantiated at (used for seeds,
/// records, and row addressing) and its [`SeedPolicy`].
#[derive(Clone, Debug)]
pub struct WorkloadPoint {
    generator: Generator,
    d: usize,
    msg_bytes: u32,
    seeds: SeedPolicy,
}

impl WorkloadPoint {
    /// A point whose sample stream (base seed `base_seed`) is shared by
    /// every scheduler column — matrices are reused across columns.
    pub fn shared(generator: Generator, d: usize, msg_bytes: u32, base_seed: u64) -> Self {
        WorkloadPoint {
            generator,
            d,
            msg_bytes,
            seeds: SeedPolicy::Shared(base_seed),
        }
    }

    /// A pre-grid-compatible point: each scheduler column draws the
    /// historical per-algorithm stream ([`SeedPolicy::PerScheduler`]).
    pub fn per_scheduler(generator: Generator, d: usize, msg_bytes: u32) -> Self {
        WorkloadPoint {
            generator,
            d,
            msg_bytes,
            seeds: SeedPolicy::PerScheduler,
        }
    }

    /// The generator handle.
    pub fn generator(&self) -> &Generator {
        &self.generator
    }

    /// Density coordinate.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Message-size coordinate (bytes).
    pub fn msg_bytes(&self) -> u32 {
        self.msg_bytes
    }

    /// The seed policy.
    pub fn seeds(&self) -> SeedPolicy {
        self.seeds
    }
}

/// Stable address of one cell: indices into the grid's column, workload
/// point, and topology axes. Addresses depend only on the declaration
/// order of the axes, never on execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Scheduler-column index.
    pub col: usize,
    /// Workload-point index.
    pub point: usize,
    /// Topology index.
    pub topo: usize,
}

/// A fully-resolved cell: everything needed to measure it, independent of
/// every other cell. Seeds derive from the spec alone, which is what
/// makes grid execution order-independent.
#[derive(Clone)]
pub struct CellSpec {
    /// Stable address.
    pub id: CellId,
    /// Scheduler column (handle + scheme).
    pub column: GridColumn,
    /// Workload point.
    pub point: WorkloadPoint,
    /// Topology the cell schedules for and simulates on.
    pub topology: Arc<dyn Topology>,
    /// Samples aggregated into the cell.
    pub samples: usize,
    /// Base seed resolved from the point's [`SeedPolicy`].
    pub base_seed: u64,
}

impl CellSpec {
    /// Seed of sample `k` — delegated to [`SampleSet`], the one seed
    /// derivation of every sampled experiment.
    pub fn sample_seed(&self, k: usize) -> u64 {
        SampleSet::new(self.base_seed, self.samples).seed(k)
    }
}

impl fmt::Debug for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellSpec")
            .field("id", &self.id)
            .field("column", &self.column.label())
            .field("d", &self.point.d)
            .field("msg_bytes", &self.point.msg_bytes)
            .field("samples", &self.samples)
            .field("base_seed", &self.base_seed)
            .finish()
    }
}

/// Execution knobs for [`ExperimentGrid::execute_opts`]. None of them can
/// change the [`GridResult`] — that is tested, not hoped.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Worker threads (`None` = the host's available parallelism). The
    /// only home of the thread count: the repro binaries set it from
    /// `IPSC_THREADS`. Never changes a result.
    pub threads: Option<usize>,
    /// Disable the `(workload point, seed)` matrix cache, regenerating
    /// every sample per cell — only useful for measuring what reuse buys.
    pub no_matrix_reuse: bool,
    /// Shuffle the task distribution order with this seed (determinism
    /// tests).
    pub shuffle_seed: Option<u64>,
}

/// Execution accounting of one grid run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Cells measured.
    pub cells: usize,
    /// `(column, topology)` combinations skipped because the scheduler
    /// declined the topology ([`Scheduler::supports_topology`]).
    pub skipped: usize,
    /// `(cell, sample)` work units executed.
    pub tasks: usize,
    /// Sample matrices actually generated.
    pub matrices_generated: usize,
    /// Sample-matrix requests (one per task).
    pub matrix_requests: usize,
}

impl GridStats {
    /// Requests served from the cache instead of regenerating.
    pub fn matrices_reused(&self) -> usize {
        self.matrix_requests - self.matrices_generated
    }
}

/// One measured cell of a [`GridResult`].
#[derive(Clone, Debug, PartialEq)]
pub struct GridCell {
    /// Stable address.
    pub id: CellId,
    /// Column label ([`GridColumn::label`]).
    pub algorithm: String,
    /// Scheme the cell compiled under.
    pub scheme: Scheme,
    /// Density coordinate.
    pub d: usize,
    /// Message-size coordinate (bytes).
    pub msg_bytes: u32,
    /// Resolved base seed of the cell's sample stream.
    pub base_seed: u64,
    /// The measurements.
    pub result: CellResult,
}

impl GridCell {
    /// Flatten into a report [`CellRecord`] under `experiment`.
    pub fn record(&self, experiment: &str) -> CellRecord {
        CellRecord::from_cell(
            experiment,
            &self.algorithm,
            self.d,
            self.msg_bytes,
            &self.result,
        )
    }
}

/// Why a grid could not execute.
#[derive(Debug)]
pub enum GridError {
    /// The grid declares nothing to run (no columns / points / topology /
    /// samples).
    Empty(&'static str),
    /// A sample of one cell failed to simulate. Deterministic: the first
    /// failure by `(cell index, sample index)`, regardless of worker
    /// count or execution order.
    Cell {
        /// Address of the failing cell.
        id: CellId,
        /// Column label.
        algorithm: String,
        /// Density coordinate.
        d: usize,
        /// Message-size coordinate.
        msg_bytes: u32,
        /// Failing sample index.
        sample: usize,
        /// The simulator's error.
        source: SimError,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Empty(what) => write!(f, "grid declares nothing to run: {what}"),
            GridError::Cell {
                algorithm,
                d,
                msg_bytes,
                sample,
                source,
                ..
            } => write!(
                f,
                "{algorithm} d={d} M={msg_bytes} sample {sample}: {source}"
            ),
        }
    }
}

impl std::error::Error for GridError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridError::Empty(_) => None,
            GridError::Cell { source, .. } => Some(source),
        }
    }
}

/// The declarative grid builder and the one cell executor. Declare axes,
/// then [`execute`].
///
/// The grid also carries every measurement setting. Each has one home:
///
/// * **Grid defaults** — machine calibration ([`with_params`]), backend
///   ([`with_backend`]), link-cost model ([`with_link_costs`]) and schedule
///   cache ([`with_cache`], [`with_shared_cache`]) apply to every cell.
/// * **Column overrides** — [`GridColumn::with_scheme`],
///   [`GridColumn::with_backend`] and [`GridColumn::with_cost_model`] win
///   over the grid defaults for that column's cells.
/// * **Execution knobs** — [`ExecOptions`] (thread count, matrix reuse,
///   task order) change wall-clock time only, never a result.
///
/// The simulator is deterministic, so unlike the paper no measurement is
/// repeated `k` times: variance comes only from the sampled matrices (and
/// scheduler seeds), which is exactly what the sample mean captures.
///
/// [`execute`]: ExperimentGrid::execute
/// [`with_params`]: ExperimentGrid::with_params
/// [`with_backend`]: ExperimentGrid::with_backend
/// [`with_link_costs`]: ExperimentGrid::with_link_costs
/// [`with_cache`]: ExperimentGrid::with_cache
/// [`with_shared_cache`]: ExperimentGrid::with_shared_cache
pub struct ExperimentGrid {
    columns: Vec<GridColumn>,
    points: Vec<WorkloadPoint>,
    topologies: Vec<(String, Arc<dyn Topology>)>,
    samples: usize,
    /// Machine model every cell is priced on.
    params: MachineParams,
    /// Backend of every column that pins none.
    backend: BackendKind,
    /// Link-cost model of every column that pins none.
    link_costs: LinkCostModel,
    /// Opt-in schedule cache; `None` compiles every schedule from scratch.
    schedule_cache: Option<Arc<SchedCache>>,
}

impl Default for ExperimentGrid {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentGrid {
    /// An empty grid on the paper's machine calibration
    /// ([`MachineParams::ipsc860`]) under the exact event engine and the
    /// uniform link-cost model, with no schedule cache, 1 sample per cell.
    pub fn new() -> Self {
        ExperimentGrid {
            columns: Vec::new(),
            points: Vec::new(),
            topologies: Vec::new(),
            samples: 1,
            params: MachineParams::ipsc860(),
            backend: BackendKind::Des,
            link_costs: LinkCostModel::Uniform,
            schedule_cache: None,
        }
    }

    /// Price every cell on this machine calibration instead of the
    /// paper's (the ablations' port-model and claim-policy variants).
    pub fn with_params(mut self, params: MachineParams) -> Self {
        self.params = params;
        self
    }

    /// Set the simulation backend of every column that does not pin its
    /// own ([`GridColumn::with_backend`]). [`BackendKind::Des`] (the
    /// default) is exact; [`BackendKind::Analytic`] trades documented
    /// tolerance (see `tests/backend_conformance.rs`) for orders of
    /// magnitude more cells per second. The repro binaries set it from
    /// the `IPSC_BACKEND` environment variable.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Set the per-link cost model of every column that does not pin its
    /// own ([`GridColumn::with_cost_model`]). [`LinkCostModel::Uniform`]
    /// (the default) is byte-identical to the historical pricing; see
    /// [`LinkCostModel::parse`] for the preset grammar. The repro binaries
    /// set it from the `IPSC_COSTMODEL` environment variable.
    pub fn with_link_costs(mut self, link_costs: LinkCostModel) -> Self {
        self.link_costs = link_costs;
        self
    }

    /// Attach a schedule cache built from `config`: cells that request
    /// the same *(matrix, topology, scheduler, seed)* — scheme-ablation
    /// columns of a shared-seed point, or re-executions against a
    /// persistent store — hit the cache instead of rescheduling. The
    /// exact cache leaves the [`GridResult`] byte-identical (tested); only
    /// scheduling cost changes. A config with
    /// [`CacheConfig::incremental`] set may serve a miss by patching a
    /// retained base schedule (always validated), which suits sweeps over
    /// drifting patterns but may differ structurally from a cold compile.
    pub fn with_cache(self, config: CacheConfig) -> Self {
        self.with_shared_cache(Arc::new(SchedCache::new(config)))
    }

    /// Attach an existing (possibly shared) schedule cache — e.g. one
    /// cache warmed by `schedctl` or by another grid.
    pub fn with_shared_cache(mut self, cache: Arc<SchedCache>) -> Self {
        self.schedule_cache = Some(cache);
        self
    }

    /// The attached schedule cache, if any (its [`SchedCache::stats`]
    /// snapshot reports hit rates after an execution).
    pub fn schedule_cache(&self) -> Option<&SchedCache> {
        self.schedule_cache.as_deref()
    }

    /// Samples aggregated per cell.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Append a topology-axis entry.
    pub fn topology(mut self, label: impl Into<String>, topo: impl Topology + 'static) -> Self {
        self.topologies.push((label.into(), Arc::new(topo)));
        self
    }

    /// Append an already-shared topology.
    pub fn shared_topology(mut self, label: impl Into<String>, topo: Arc<dyn Topology>) -> Self {
        self.topologies.push((label.into(), topo));
        self
    }

    /// Append a registry scheduler as a column (paper-default scheme).
    pub fn scheduler(mut self, entry: &'static dyn Scheduler) -> Self {
        self.columns.push(GridColumn::new(entry));
        self
    }

    /// Append registry schedulers as columns, in iteration order.
    pub fn schedulers(mut self, entries: impl IntoIterator<Item = &'static dyn Scheduler>) -> Self {
        for e in entries {
            self.columns.push(GridColumn::new(e));
        }
        self
    }

    /// Append an explicit column (custom scheme or ad-hoc scheduler).
    pub fn column(mut self, column: GridColumn) -> Self {
        self.columns.push(column);
        self
    }

    /// Append a workload point.
    pub fn point(mut self, point: WorkloadPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Append workload points, in iteration order.
    pub fn points(mut self, points: impl IntoIterator<Item = WorkloadPoint>) -> Self {
        self.points.extend(points);
        self
    }

    /// Compile the axes into the flat cell list: topologies outermost,
    /// then workload points, then scheduler columns — so with a single
    /// topology, cell order is row-major over the (point × column) table.
    /// Combinations whose scheduler declines the topology are omitted
    /// (their [`CellId`] stays addressable in the result, holding no
    /// cell).
    pub fn compile(&self) -> Vec<CellSpec> {
        let mut specs = Vec::new();
        for (ti, (_, topo)) in self.topologies.iter().enumerate() {
            for (pi, point) in self.points.iter().enumerate() {
                for (ci, column) in self.columns.iter().enumerate() {
                    if !column.scheduler().supports_topology(topo.as_ref()) {
                        continue;
                    }
                    let base_seed = match point.seeds {
                        SeedPolicy::Shared(base) => base,
                        SeedPolicy::PerScheduler => {
                            paper_base_seed(point.d, point.msg_bytes, column.scheduler().ordinal())
                        }
                    };
                    specs.push(CellSpec {
                        id: CellId {
                            col: ci,
                            point: pi,
                            topo: ti,
                        },
                        column: column.clone(),
                        point: point.clone(),
                        topology: Arc::clone(topo),
                        samples: self.samples,
                        base_seed,
                    });
                }
            }
        }
        specs
    }

    /// Execute with default options.
    ///
    /// # Errors
    ///
    /// [`GridError::Empty`] if an axis is empty, otherwise the first
    /// failing sample as [`GridError::Cell`].
    pub fn execute(&self) -> Result<GridResult, GridError> {
        self.execute_opts(ExecOptions::default())
    }

    /// Execute with explicit [`ExecOptions`].
    ///
    /// # Errors
    ///
    /// [`GridError::Empty`] if an axis is empty, otherwise the first
    /// failing sample as [`GridError::Cell`].
    pub fn execute_opts(&self, opts: ExecOptions) -> Result<GridResult, GridError> {
        if self.columns.is_empty() {
            return Err(GridError::Empty("no scheduler columns"));
        }
        if self.points.is_empty() {
            return Err(GridError::Empty("no workload points"));
        }
        if self.topologies.is_empty() {
            return Err(GridError::Empty("no topology"));
        }
        if self.samples == 0 {
            return Err(GridError::Empty("zero samples per cell"));
        }
        let specs = self.compile();
        let full_product = self.topologies.len() * self.points.len() * self.columns.len();
        let skipped = full_product - specs.len();

        // Flatten to (cell, sample) tasks, cell-major: task t belongs to
        // cell t / samples, sample t % samples.
        let total_tasks = specs.len() * self.samples;
        let mut order: Vec<usize> = (0..total_tasks).collect();
        if let Some(seed) = opts.shuffle_seed {
            shuffle(&mut order, seed);
        }
        let cache = MatrixCache::default();
        let reuse = !opts.no_matrix_reuse;
        let threads = opts
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from));
        let outcomes: Vec<Result<SampleOutcome, SimError>> =
            executor::run_work_stealing(threads, &order, |t| {
                let spec = &specs[t / self.samples];
                let k = t % self.samples;
                let seed = spec.sample_seed(k);
                // Only Shared rows can ever see a second consumer of the
                // same (point, seed) key — PerScheduler seeds embed the
                // column ordinal — so bypassing the cache for them keeps
                // large paper sweeps from retaining thousands of matrices
                // that nobody will request twice.
                let shared = matches!(spec.point.seeds, SeedPolicy::Shared(_));
                let com = if reuse && shared {
                    cache.get_or_generate(spec.id.point, seed, || {
                        spec.point.generator.generate(seed)
                    })
                } else {
                    cache.bypass(|| spec.point.generator.generate(seed))
                };
                let entry = spec.column.scheduler();
                let topo = spec.topology.as_ref();
                // With a cache attached, duplicate (matrix, topology,
                // scheduler, seed) requests — scheme-ablation columns,
                // persistent-store re-runs — reuse the compiled schedule.
                let schedule = match &self.schedule_cache {
                    Some(cache) => cache.get_or_schedule(entry, &com, topo, seed),
                    None => Arc::new(entry.schedule(&com, topo, seed)),
                };
                measure_sample(
                    &self.params,
                    &spec.column.cost_model_for(self.link_costs),
                    spec.column.backend_for(self.backend),
                    topo,
                    &com,
                    &schedule,
                    spec.column.scheme,
                )
            });

        // Aggregate per cell, in sample order; report the first failure by
        // (cell, sample) index — execution order cannot leak in.
        let mut cells: Vec<Option<GridCell>> = (0..full_product).map(|_| None).collect();
        for (si, spec) in specs.iter().enumerate() {
            let mut cell_outcomes = Vec::with_capacity(self.samples);
            for (k, outcome) in outcomes[si * self.samples..(si + 1) * self.samples]
                .iter()
                .enumerate()
            {
                match outcome {
                    Ok(o) => cell_outcomes.push(*o),
                    Err(e) => {
                        return Err(GridError::Cell {
                            id: spec.id,
                            algorithm: spec.column.label(),
                            d: spec.point.d,
                            msg_bytes: spec.point.msg_bytes,
                            sample: k,
                            source: e.clone(),
                        })
                    }
                }
            }
            let result = CellResult::aggregate(&cell_outcomes).expect("samples > 0 checked");
            let idx = (spec.id.topo * self.points.len() + spec.id.point) * self.columns.len()
                + spec.id.col;
            cells[idx] = Some(GridCell {
                id: spec.id,
                algorithm: spec.column.label(),
                scheme: spec.column.scheme,
                d: spec.point.d,
                msg_bytes: spec.point.msg_bytes,
                base_seed: spec.base_seed,
                result,
            });
        }
        Ok(GridResult {
            columns: self.columns.clone(),
            points: self.points.clone(),
            topologies: self.topologies.iter().map(|(l, _)| l.clone()).collect(),
            samples: self.samples,
            cells,
            stats: GridStats {
                cells: specs.len(),
                skipped,
                tasks: total_tasks,
                matrices_generated: cache.generated.load(Ordering::Relaxed),
                matrix_requests: cache.requests.load(Ordering::Relaxed),
            },
        })
    }
}

/// Exactly-once sample-matrix cache, keyed by `(workload point, seed)`.
/// A per-key [`OnceLock`] guarantees a racing second consumer blocks on
/// the first generation instead of duplicating it.
#[derive(Default)]
struct MatrixCache {
    #[allow(clippy::type_complexity)]
    map: Mutex<HashMap<(usize, u64), Arc<OnceLock<Arc<CommMatrix>>>>>,
    generated: AtomicUsize,
    requests: AtomicUsize,
}

impl MatrixCache {
    fn get_or_generate(
        &self,
        point: usize,
        seed: u64,
        gen: impl FnOnce() -> CommMatrix,
    ) -> Arc<CommMatrix> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let slot = self
            .map
            .lock()
            .expect("no panics hold the cache")
            .entry((point, seed))
            .or_default()
            .clone();
        slot.get_or_init(|| {
            self.generated.fetch_add(1, Ordering::Relaxed);
            Arc::new(gen())
        })
        .clone()
    }

    /// Reuse disabled: account the request and generate unconditionally.
    fn bypass(&self, gen: impl FnOnce() -> CommMatrix) -> Arc<CommMatrix> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.generated.fetch_add(1, Ordering::Relaxed);
        Arc::new(gen())
    }
}

/// Fisher-Yates over `order` driven by a splitmix64 stream — used only to
/// scramble task *distribution* order in determinism tests.
fn shuffle(order: &mut [usize], seed: u64) {
    let mut state = seed;
    let mut next = || {
        let z = simnet::splitmix64(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// The measured grid: stable cell addressing ([`CellId`]), row/column
/// iteration for table rendering, and flattening into report records.
#[derive(Clone, Debug)]
pub struct GridResult {
    columns: Vec<GridColumn>,
    points: Vec<WorkloadPoint>,
    topologies: Vec<String>,
    samples: usize,
    /// Dense over the full `(topo × point × col)` product; `None` where
    /// the scheduler declined the topology.
    cells: Vec<Option<GridCell>>,
    stats: GridStats,
}

impl GridResult {
    fn index(&self, id: CellId) -> Option<usize> {
        if id.col >= self.columns.len()
            || id.point >= self.points.len()
            || id.topo >= self.topologies.len()
        {
            return None;
        }
        Some((id.topo * self.points.len() + id.point) * self.columns.len() + id.col)
    }

    /// The scheduler columns, in declaration order.
    pub fn columns(&self) -> &[GridColumn] {
        &self.columns
    }

    /// The workload points, in declaration order.
    pub fn points(&self) -> &[WorkloadPoint] {
        &self.points
    }

    /// Topology labels, in declaration order.
    pub fn topologies(&self) -> &[String] {
        &self.topologies
    }

    /// Samples per cell.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Execution accounting.
    pub fn stats(&self) -> &GridStats {
        &self.stats
    }

    /// The cell at `id`; `None` for out-of-range ids and for combinations
    /// the scheduler declined.
    pub fn cell(&self, id: CellId) -> Option<&GridCell> {
        self.cells[self.index(id)?].as_ref()
    }

    /// The cell at `(column, point)` on the first topology.
    pub fn at(&self, col: usize, point: usize) -> Option<&GridCell> {
        self.cell(CellId {
            col,
            point,
            topo: 0,
        })
    }

    /// All cells of one workload-point row (first topology), in column
    /// order — the shape of one table row.
    pub fn row(&self, point: usize) -> impl Iterator<Item = &GridCell> + '_ {
        (0..self.columns.len()).filter_map(move |col| self.at(col, point))
    }

    /// All cells of one scheduler column (first topology), in point
    /// order — the shape of one figure curve.
    pub fn column_cells(&self, col: usize) -> impl Iterator<Item = &GridCell> + '_ {
        (0..self.points.len()).filter_map(move |point| self.at(col, point))
    }

    /// Index of the column whose scheduler has `name` (first match).
    pub fn find_column(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.scheduler().name() == name)
    }

    /// Index of the first workload point at `(d, msg_bytes)`.
    pub fn point_index(&self, d: usize, msg_bytes: u32) -> Option<usize> {
        self.points
            .iter()
            .position(|p| p.d == d && p.msg_bytes == msg_bytes)
    }

    /// Every measured cell, in stable cell-index order (topology
    /// outermost, then points, then columns).
    pub fn cells(&self) -> impl Iterator<Item = &GridCell> + '_ {
        self.cells.iter().filter_map(Option::as_ref)
    }

    /// Flatten into report records under `experiment`, in stable cell
    /// order.
    pub fn records(&self, experiment: &str) -> Vec<CellRecord> {
        self.cells().map(|c| c.record(experiment)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::registry;
    use hypercube::{Hypercube, Mesh2d};

    fn small_grid(samples: usize) -> ExperimentGrid {
        ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .schedulers(registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 1024),
                3,
                1024,
                7,
            ))
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 4, 4096),
                4,
                4096,
                8,
            ))
            .samples(samples)
    }

    #[test]
    fn shared_points_generate_each_matrix_exactly_once() {
        let result = small_grid(3).execute().unwrap();
        let stats = result.stats();
        // 2 points × 3 samples = 6 distinct matrices; 5 columns × 6 = 30
        // requests.
        assert_eq!(stats.matrices_generated, 6);
        assert_eq!(stats.matrix_requests, 30);
        assert_eq!(stats.matrices_reused(), 24);
        assert_eq!(stats.cells, 10);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn result_is_identical_across_worker_counts_and_orders() {
        let grid = small_grid(2);
        let base = grid.execute().unwrap();
        for opts in [
            ExecOptions {
                threads: Some(1),
                ..Default::default()
            },
            ExecOptions {
                threads: Some(8),
                shuffle_seed: Some(0xfeed),
                ..Default::default()
            },
            ExecOptions {
                no_matrix_reuse: true,
                shuffle_seed: Some(1),
                ..Default::default()
            },
        ] {
            let other = grid.execute_opts(opts).unwrap();
            assert_eq!(
                base.cells().collect::<Vec<_>>(),
                other.cells().collect::<Vec<_>>(),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn unsupported_topologies_are_skipped_not_fatal() {
        // LP declines the mesh; everyone else runs on both topologies.
        let result = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .topology("mesh(4x4)", Mesh2d::new(4, 4))
            .schedulers(registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 512),
                3,
                512,
                11,
            ))
            .samples(1)
            .execute()
            .unwrap();
        let lp = result.find_column("LP").unwrap();
        assert!(result
            .cell(CellId {
                col: lp,
                point: 0,
                topo: 0
            })
            .is_some());
        assert!(result
            .cell(CellId {
                col: lp,
                point: 0,
                topo: 1
            })
            .is_none());
        assert_eq!(result.stats().skipped, 1);
        assert_eq!(result.stats().cells, 9);
        // Row iteration over topo 0 still sees all five columns.
        assert_eq!(result.row(0).count(), 5);
    }

    #[test]
    fn schedule_cache_cannot_change_any_cell() {
        // The commcache acceptance bar: identical GridResult with the
        // cache off, on (memory), and on (persistent, cold then warm).
        let dir = std::env::temp_dir().join(format!("grid_cache_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = small_grid(2).execute().unwrap();
        let cached = small_grid(2)
            .with_cache(commcache::CacheConfig::in_memory())
            .execute()
            .unwrap();
        assert_eq!(
            base.cells().collect::<Vec<_>>(),
            cached.cells().collect::<Vec<_>>()
        );
        for _ in 0..2 {
            let persistent = small_grid(2)
                .with_cache(commcache::CacheConfig::persistent(&dir))
                .execute()
                .unwrap();
            assert_eq!(
                base.cells().collect::<Vec<_>>(),
                persistent.cells().collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scheme_ablation_columns_share_compiled_schedules() {
        // Two columns = one scheduler under S1 and S2, shared seeds: the
        // second column's schedules are pure cache hits (the schedule
        // depends on the scheduler, not the scheme).
        let entry = registry::find("RS_NL").unwrap();
        let grid = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .column(GridColumn::new(SchedulerHandle::from(entry)).with_scheme(Scheme::S1))
            .column(GridColumn::new(SchedulerHandle::from(entry)).with_scheme(Scheme::S2))
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 1024),
                3,
                1024,
                7,
            ))
            .samples(3)
            .with_cache(commcache::CacheConfig::in_memory());
        // One worker: two threads can both miss on the same key before
        // either inserts, which would count a fourth miss.
        let result = grid
            .execute_opts(ExecOptions {
                threads: Some(1),
                ..ExecOptions::default()
            })
            .unwrap();
        let stats = grid.schedule_cache().unwrap().stats();
        assert_eq!(stats.misses, 3, "3 samples compiled once each");
        assert_eq!(stats.hits(), 3, "second column reused all of them");
        // And the two columns really measured different schemes.
        assert_ne!(
            result.at(0, 0).unwrap().result.comm_ms,
            result.at(1, 0).unwrap().result.comm_ms
        );
    }

    #[test]
    fn empty_axes_error_out() {
        let err = ExperimentGrid::new().execute().unwrap_err();
        assert!(matches!(err, GridError::Empty(_)), "{err}");
        let err = small_grid(0).execute().unwrap_err();
        assert!(err.to_string().contains("zero samples"), "{err}");
    }

    #[test]
    fn explicit_ad_hoc_columns_run() {
        use commsched::registry::AdHoc;
        use commsched::SchedulerKind;
        let result = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .column(GridColumn::new(SchedulerHandle::shared(AdHoc::new(
                "MY_RS_N",
                SchedulerKind::RsN,
                |com, _topo, seed| commsched::rs_n(com, seed),
            ))))
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 1024),
                3,
                1024,
                5,
            ))
            .samples(2)
            .execute()
            .unwrap();
        let cell = result.at(0, 0).unwrap();
        assert_eq!(cell.algorithm, "MY_RS_N");
        assert!(cell.result.comm_ms > 0.0);
    }

    #[test]
    fn hashed_ad_hoc_ordinals_survive_per_scheduler_seed_derivation() {
        // Regression: an AdHoc column's default ordinal is a name hash;
        // mixed into paper_base_seed and then SampleSet's `base * 1000`,
        // a full-range hash overflowed u64 and panicked in debug builds.
        use commsched::registry::AdHoc;
        use commsched::SchedulerKind;
        let result = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .column(GridColumn::new(SchedulerHandle::shared(AdHoc::new(
                "MY_RS_N",
                SchedulerKind::RsN,
                |com, _topo, seed| commsched::rs_n(com, seed),
            ))))
            .point(WorkloadPoint::per_scheduler(
                Generator::dregular(16, 3, 512),
                3,
                512,
            ))
            .samples(2)
            .execute()
            .unwrap();
        assert!(result.at(0, 0).unwrap().result.comm_ms > 0.0);
        // Even a deliberately huge pinned ordinal only wraps, never
        // panics.
        let huge = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .column(GridColumn::new(SchedulerHandle::shared(
                AdHoc::new("HUGE", SchedulerKind::RsN, |com, _topo, seed| {
                    commsched::rs_n(com, seed)
                })
                .with_ordinal(u64::MAX - 3),
            )))
            .point(WorkloadPoint::per_scheduler(
                Generator::dregular(16, 3, 512),
                3,
                512,
            ))
            .samples(2)
            .execute()
            .unwrap();
        assert!(huge.at(0, 0).unwrap().result.comm_ms > 0.0);
    }

    #[test]
    fn column_backend_override_wins_over_the_grid_default() {
        // A column pinned to a backend is priced there whatever the grid
        // default; unpinned columns follow the grid.
        let entry = registry::find("RS_N").unwrap();
        let col = GridColumn::new(SchedulerHandle::from(entry))
            .with_backend(crate::BackendKind::Analytic);
        assert_eq!(
            col.backend_for(crate::BackendKind::Des),
            crate::BackendKind::Analytic
        );
        let point = || WorkloadPoint::shared(Generator::dregular(16, 3, 1024), 3, 1024, 7);
        let only = |backend| {
            ExperimentGrid::new()
                .topology("hypercube(4)", Hypercube::new(4))
                .scheduler(entry)
                .point(point())
                .with_backend(backend)
                .execute()
                .unwrap()
                .at(0, 0)
                .unwrap()
                .result
        };
        let mixed = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .scheduler(entry)
            .column(col)
            .point(point())
            .with_backend(crate::BackendKind::Des)
            .execute()
            .unwrap();
        assert_eq!(
            mixed.at(0, 0).unwrap().result,
            only(crate::BackendKind::Des)
        );
        assert_eq!(
            mixed.at(1, 0).unwrap().result,
            only(crate::BackendKind::Analytic)
        );
        assert_eq!(mixed.at(1, 0).unwrap().algorithm, "RS_N@analytic");
    }

    #[test]
    fn scheme_override_labels_the_column() {
        let entry = registry::find("RS_NL").unwrap();
        let col = GridColumn::new(SchedulerHandle::from(entry)).with_scheme(Scheme::S2);
        assert_eq!(col.label(), "RS_NL[S2]");
        assert_eq!(
            GridColumn::new(SchedulerHandle::from(entry)).label(),
            "RS_NL"
        );
    }

    #[test]
    fn records_flatten_in_stable_cell_order() {
        let result = small_grid(1).execute().unwrap();
        let records = result.records("test");
        assert_eq!(records.len(), 10);
        // Row-major: first 5 records are point 0 across all columns.
        assert_eq!(records[0].algorithm, "AC");
        assert_eq!(records[0].d, 3);
        assert_eq!(records[5].d, 4);
        assert!(records.iter().all(|r| r.experiment == "test"));
    }

    #[test]
    fn grid_error_reports_the_failing_cell() {
        // Invalid machine params fail every cell; the reported failure
        // must be the deterministic first one by (cell, sample) index.
        let params = MachineParams {
            long_per_byte_ns: -1.0,
            ..MachineParams::ipsc860()
        };
        let err = small_grid(1).with_params(params).execute().unwrap_err();
        match err {
            GridError::Cell {
                id,
                sample,
                ref source,
                ..
            } => {
                assert_eq!(
                    id,
                    CellId {
                        col: 0,
                        point: 0,
                        topo: 0
                    }
                );
                assert_eq!(sample, 0);
                assert!(matches!(source, SimError::BadParams(_)));
            }
            ref other => panic!("expected Cell error, got {other}"),
        }
        // And it displays with full cell context.
        assert!(err.to_string().contains("d=3"), "{err}");
    }
}
