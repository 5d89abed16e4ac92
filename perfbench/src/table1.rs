//! The Table 1 workloads: the paper's grid (every primary scheduler ×
//! d ∈ {4, 8, 16, 32, 48} × M ∈ {256 B, 1 KB, 128 KB}, d-regular matrices
//! on the 64-node hypercube) run through `ExperimentGrid::execute_opts`
//! on two threads, on the DES or the analytic backend.
//!
//! A run builds a few grids that differ only in their sample seeds (the
//! seed sets), executes set 0 once untimed to warm up, then executes the
//! sets in turn, whole cycles at a time, until its time is up. Every
//! execution of a set must reproduce its first one bit for bit. Cycling
//! through several sets makes a run's numbers average over more sampled
//! matrices than one round holds, while keeping rounds short.
//!
//! A traced run does the same for half its time, then replays each set's
//! cell specs and sample seeds through each layer's public functions,
//! once without and once with a span around every call, and checks that
//! every replay's per-cell results equal the grid's bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use commrt::grid::{CellSpec, ExecOptions, WorkloadPoint};
use commrt::{AnalyticBackend, BackendKind, CellResult, ExperimentGrid, GridResult};
use commsched::{registry, validate_schedule, CommMatrix, I860CostModel};
use hypercube::Hypercube;
use simnet::{LinkCostModel, MachineParams};
use workloads::Generator;

use crate::metrics::Report;
use crate::stats::{group_medians, mean, median, Summary, Tally};
use crate::trace::{span, Spans};
use crate::{mix, peak_rss_mb, SETUP_REPS, THREADS};

/// Size of one Table 1 workload.
#[derive(Clone, Copy, Debug)]
pub struct Table1 {
    pub backend: BackendKind,
    /// Samples per cell in one round.
    pub samples: usize,
    /// Seed sets a cycle runs, one round each.
    pub sets: usize,
    pub densities: &'static [usize],
    pub sizes: &'static [u32],
}

impl Table1 {
    /// The full grid on `backend` with `samples` samples per cell a round
    /// and `sets` seed sets.
    pub fn new(backend: BackendKind, samples: usize, sets: usize) -> Table1 {
        Table1 {
            backend,
            samples,
            sets,
            densities: &[4, 8, 16, 32, 48],
            sizes: &[256, 1024, 131_072],
        }
    }

    /// A few small cells, for the smoke test.
    pub fn tiny(self) -> Table1 {
        Table1 {
            samples: 1,
            sets: 2,
            densities: &[4, 8],
            sizes: &[256],
            ..self
        }
    }

    /// The grid of seed set `set`. Every scheduler column of a point
    /// shares its sample matrices (the grid generates each once), and the
    /// point's base seed derives from the run seed and the set.
    fn grid(&self, seed: u64, set: usize) -> ExperimentGrid {
        let cube = Hypercube::new(6);
        let n = 1usize << 6;
        let mut grid = ExperimentGrid::new()
            .topology("hypercube(6)", cube)
            .schedulers(registry::primary())
            .samples(self.samples)
            .with_backend(self.backend)
            .with_link_costs(LinkCostModel::Uniform);
        for &d in self.densities {
            for &bytes in self.sizes {
                let point = (set as u64) << 48 | (d as u64) << 32 | u64::from(bytes);
                let base = mix(seed ^ mix(point));
                grid = grid.point(WorkloadPoint::shared(
                    Generator::dregular(n, d, bytes),
                    d,
                    bytes,
                    base,
                ));
            }
        }
        grid
    }
}

/// Exact bits of the cell numbers two executions must agree on.
fn cell_bits(r: &CellResult) -> [u64; 5] {
    [
        r.comm_ms.to_bits(),
        r.comm_ms_min.to_bits(),
        r.comm_ms_max.to_bits(),
        r.phases.to_bits(),
        r.comp_ms.to_bits(),
    ]
}

/// Each spec's measured cell, in spec order.
fn cells<'a>(result: &'a GridResult, specs: &[CellSpec]) -> Vec<&'a CellResult> {
    specs
        .iter()
        .map(|s| {
            &result
                .cell(s.id)
                .expect("every compiled spec has a cell")
                .result
        })
        .collect()
}

/// One seed set: its grid, the grid's compiled cell specs, and per cell
/// the number of samples whose schedule fails `validate_schedule`.
struct Set {
    grid: ExperimentGrid,
    specs: Vec<CellSpec>,
    invalid: Vec<u64>,
}

impl Set {
    /// Count one round of the set: every sample passes when the round
    /// checked out (`ok`) and its schedule is valid.
    fn record(&self, tally: &mut Tally, per_round: u64, ok: bool) {
        let invalid: u64 = self.invalid.iter().sum();
        tally.record_many(per_round - invalid, ok);
        tally.record_many(invalid, false);
    }
}

/// Timed grid rounds, and each set's first result, which every later
/// round of the set must reproduce.
struct Rounds {
    wall: Vec<Duration>,
    reference: Vec<Vec<CellResult>>,
    tally: Tally,
    /// False if a round disagreed with its set's first one.
    consistent: bool,
}

/// Execute set 0 untimed, then whole cycles over the sets until `budget`
/// has passed (always at least one cycle).
fn run_rounds(sets: &[Set], per_round: u64, budget: Duration) -> Rounds {
    let mut out = Rounds {
        wall: Vec::new(),
        reference: Vec::new(),
        tally: Tally::default(),
        consistent: true,
    };
    let opts = ExecOptions {
        threads: Some(THREADS),
        ..ExecOptions::default()
    };
    let execute = |set: &Set| {
        let t = Instant::now();
        let result = grid_cells(set, opts);
        (t.elapsed(), result)
    };
    match execute(&sets[0]).1 {
        Some(cells) => {
            out.reference.push(cells);
            sets[0].record(&mut out.tally, per_round, true);
        }
        None => {
            sets[0].record(&mut out.tally, per_round, false);
            return out;
        }
    }
    let started = Instant::now();
    loop {
        for (i, set) in sets.iter().enumerate() {
            let (wall, result) = execute(set);
            out.wall.push(wall);
            let Some(cells) = result else {
                set.record(&mut out.tally, per_round, false);
                continue;
            };
            match out.reference.get(i) {
                Some(reference) => {
                    let same = reference
                        .iter()
                        .zip(&cells)
                        .all(|(a, b)| cell_bits(a) == cell_bits(b));
                    out.consistent &= same;
                    set.record(&mut out.tally, per_round, same);
                }
                None if out.reference.len() == i => {
                    out.reference.push(cells);
                    set.record(&mut out.tally, per_round, true);
                }
                None => set.record(&mut out.tally, per_round, false),
            }
        }
        if started.elapsed() >= budget {
            return out;
        }
    }
}

/// Execute a set's grid; its cells in spec order, or `None` on failure.
fn grid_cells(set: &Set, opts: ExecOptions) -> Option<Vec<CellResult>> {
    match set.grid.execute_opts(opts) {
        Ok(result) => Some(cells(&result, &set.specs).into_iter().copied().collect()),
        Err(e) => {
            eprintln!("perfbench: grid round failed: {e}");
            None
        }
    }
}

/// Validate every schedule the grid computes: regenerate each sample
/// matrix and schedule it as the grid does. Returns, per cell, the
/// number of samples whose schedule failed.
fn invalid_schedules(specs: &[CellSpec]) -> Vec<u64> {
    specs
        .iter()
        .map(|spec| {
            let entry = spec.column.scheduler();
            (0..spec.samples)
                .filter(|&k| {
                    let seed = spec.sample_seed(k);
                    let com = spec.point.generator().generate(seed);
                    let schedule = entry.schedule(&com, spec.topology.as_ref(), seed);
                    let err = validate_schedule(&com, &schedule).err();
                    if let Some(e) = &err {
                        eprintln!("perfbench: {} schedule invalid: {e}", entry.name());
                    }
                    err.is_some()
                })
                .count() as u64
        })
        .collect()
}

/// Run a Table 1 workload and fill `report`.
pub fn run(cfg: &Table1, seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    // Set-up: everything before the first grid round can start.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = (0..cfg.sets)
            .map(|set| {
                let grid = cfg.grid(seed, set);
                let specs = grid.compile();
                (grid, specs)
            })
            .collect();
        setup.push(t.elapsed().as_secs_f64());
    }
    let sets: Vec<Set> = built
        .into_iter()
        .map(|(grid, specs)| Set {
            invalid: invalid_schedules(&specs),
            grid,
            specs,
        })
        .collect();
    let per_round = (sets[0].specs.len() * cfg.samples) as u64;

    let budget = Duration::from_secs(seconds);
    let rounds = run_rounds(&sets, per_round, if traced { budget / 2 } else { budget });
    let peak_rss = peak_rss_mb();
    report.tally.merge(rounds.tally);
    report.checks_ok &= rounds.consistent;
    if rounds.reference.len() < sets.len() {
        // A seed set never executed: there is no reference to report.
        report.checks_ok = false;
        return;
    }

    let wall_s: Vec<f64> = rounds.wall.iter().map(Duration::as_secs_f64).collect();
    let grid_round_s = mean(&group_medians(&wall_s, sets.len()));
    // Round latency: the median over all rounds, and as the tail (traced
    // runs) the nearest-rank p99 over the seed sets of each set's median
    // round, i.e. the slowest set's typical round. A run has too few
    // rounds for a p99 over rounds to be more than its one slowest round.
    let round_us: Vec<f64> = wall_s.iter().map(|s| s * 1e6).collect();
    let set_medians = group_medians(&round_us, sets.len());
    let lat = Summary::of(&round_us).expect("at least one round");
    let tail = Summary::of(&set_medians).expect("at least one set");
    if traced {
        let replay = replay(cfg, &sets, &rounds.reference, budget / 2);
        replay.fill(cfg, report, sets.len());
        report.tally.merge(replay.tally);
        report.checks_ok &= replay.matches;
        report.set("client.p99_us", tail.p99);
        return;
    }
    let all: Vec<&CellResult> = rounds.reference.iter().flatten().collect();
    let cells = all.len() as f64;
    report.set("setup_s", median(&setup));
    report.set("ops_per_s", per_round as f64 / grid_round_s);
    report.set("p50_us", lat.p50);
    report.set(
        "sim_makespan_ms",
        all.iter().map(|c| c.comm_ms).sum::<f64>() / cells,
    );
    report.set(
        "sched_cost_ms",
        all.iter().map(|c| c.comp_ms).sum::<f64>() / cells,
    );
    report.set("peak_rss_mb", peak_rss);
    eprintln!(
        "perfbench: {} rounds of {per_round} samples over {} seed sets; round p50 {:.0} us, \
         slowest round {:.0} us, slowest set's median round {:.0} us",
        lat.count, cfg.sets, lat.p50, lat.p99, tail.p99
    );
}

/// One replayed sample: what the grid aggregates, plus DES counters.
#[derive(Clone, Copy, Default)]
struct Outcome {
    comm_ms: f64,
    phases: usize,
    comp_ms: f64,
    events: u64,
    blocked: u64,
    transfers: u64,
    ok: bool,
}

struct Replay {
    /// Spans of the traced rounds.
    spans: Spans,
    /// Wall time of each traced and each untraced round.
    traced_wall: Vec<Duration>,
    plain_wall: Vec<Duration>,
    /// Rounds whose model counters were added: one per set.
    counted_rounds: usize,
    events: u64,
    blocked: u64,
    transfers: u64,
    phases: Vec<usize>,
    matches: bool,
    tally: Tally,
}

/// Replay whole cycles over the sets until `budget` has passed (at least
/// one cycle), each set once without and once with spans, alternating
/// which goes first, and check every replayed round against its set's
/// grid reference.
fn replay(cfg: &Table1, sets: &[Set], reference: &[Vec<CellResult>], budget: Duration) -> Replay {
    let mut out = Replay {
        spans: Spans::default(),
        traced_wall: Vec::new(),
        plain_wall: Vec::new(),
        counted_rounds: 0,
        events: 0,
        blocked: 0,
        transfers: 0,
        phases: Vec::new(),
        matches: true,
        tally: Tally::default(),
    };
    let started = Instant::now();
    let mut cycle = 0;
    loop {
        let order = [cycle % 2 == 1, cycle % 2 == 0];
        for (set, reference) in sets.iter().zip(reference) {
            for traced in order {
                replay_round(cfg, set, reference, traced, cycle == 0 && traced, &mut out);
            }
        }
        cycle += 1;
        if started.elapsed() >= budget {
            return out;
        }
    }
}

/// Replay one round of the grid's `(cell, sample)` tasks through the
/// layers on `THREADS` threads, which take tasks from one shared
/// counter. Each `(point, sample)` matrix is generated once by
/// its first consumer, as the grid's matrix cache does. `traced` records
/// spans; `count` adds the round's model counters to `out`.
fn replay_round(
    cfg: &Table1,
    set: &Set,
    reference: &[CellResult],
    traced: bool,
    count: bool,
    out: &mut Replay,
) {
    let specs = &set.specs;
    out.counted_rounds += usize::from(count);
    let samples = cfg.samples;
    let points = specs.iter().map(|s| s.id.point + 1).max().unwrap_or(0);
    let names: Vec<(String, String)> = specs
        .iter()
        .map(|s| {
            let name = s.column.scheduler().name();
            (
                format!("core.schedule.{name}"),
                format!("simnet.des.{name}"),
            )
        })
        .collect();
    let total = specs.len() * samples;
    let next = AtomicUsize::new(0);
    let matrices: Vec<OnceLock<CommMatrix>> =
        (0..points * samples).map(|_| OnceLock::new()).collect();
    let outcomes = Mutex::new(vec![Outcome::default(); total]);
    let t = Instant::now();
    let spans: Vec<Option<Spans>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (next, matrices, outcomes, names) = (&next, &matrices, &outcomes, &names);
                scope.spawn(move || {
                    let mut spans = traced.then(Spans::default);
                    loop {
                        // Last task first: spec order ends with the
                        // heaviest cells (largest d and M), and starting
                        // there keeps the threads' finish times close,
                        // as the grid's workers popping their own work
                        // newest first do.
                        let Some(task) =
                            total.checked_sub(1 + next.fetch_add(1, Ordering::Relaxed))
                        else {
                            return spans;
                        };
                        let (ci, k) = (task / samples, task % samples);
                        let spec = &specs[ci];
                        let seed = spec.sample_seed(k);
                        let com = matrices[spec.id.point * samples + k].get_or_init(|| {
                            span(&mut spans, "workloads.generate", || {
                                spec.point.generator().generate(seed)
                            })
                        });
                        let o = replay_sample(cfg.backend, spec, com, seed, &names[ci], &mut spans);
                        outcomes.lock().expect("no replay thread panics")[task] = o;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = t.elapsed();
    if traced {
        out.traced_wall.push(wall);
    } else {
        out.plain_wall.push(wall);
    }
    for s in spans.into_iter().flatten() {
        out.spans.merge(s);
    }
    let outcomes = outcomes.into_inner().expect("no replay thread panics");
    for (ci, cell) in outcomes.chunks(samples).enumerate() {
        // Aggregate exactly as the grid does: sums in sample order.
        let kf = cell.len() as f64;
        let comm: f64 = cell.iter().map(|o| o.comm_ms).sum::<f64>() / kf;
        let phases: f64 = cell.iter().map(|o| o.phases as f64).sum::<f64>() / kf;
        let comp: f64 = cell.iter().map(|o| o.comp_ms).sum::<f64>() / kf;
        let r = &reference[ci];
        let same = cell.iter().all(|o| o.ok)
            && comm.to_bits() == r.comm_ms.to_bits()
            && phases.to_bits() == r.phases.to_bits()
            && comp.to_bits() == r.comp_ms.to_bits();
        if !same {
            eprintln!("perfbench: replay of cell {ci} differs from the grid");
        }
        out.matches &= same;
        out.tally.record_many(samples as u64, same);
        if count {
            for o in cell {
                out.events += o.events;
                out.blocked += o.blocked;
                out.transfers += o.transfers;
                out.phases.push(o.phases);
            }
        }
    }
}

/// One sample of one cell through the layers, as the grid measures it:
/// schedule, then compile and simulate (DES) or estimate (analytic).
fn replay_sample(
    backend: BackendKind,
    spec: &CellSpec,
    com: &CommMatrix,
    seed: u64,
    (core_key, des_key): &(String, String),
    spans: &mut Option<Spans>,
) -> Outcome {
    let topo = spec.topology.as_ref();
    let entry = spec.column.scheduler();
    let params = MachineParams::ipsc860();
    let (schedule, comp_ms) = span(spans, core_key, || {
        let s = entry.schedule(com, topo, seed);
        let c = I860CostModel::default().schedule_ms(&s);
        (s, c)
    });
    let mut o = Outcome {
        phases: schedule.num_phases(),
        comp_ms,
        ..Outcome::default()
    };
    let scheme = spec.column.scheme();
    match backend {
        BackendKind::Des => {
            let programs = span(spans, "runtime.compile", || {
                commrt::compile(com, &schedule, scheme)
            });
            if let Ok(r) = span(spans, des_key, || simnet::simulate(topo, &params, programs)) {
                o.comm_ms = r.makespan_ms();
                o.events = r.stats.events;
                o.blocked = r.stats.transfers_blocked;
                o.transfers = r.stats.transfers;
                o.ok = true;
            }
        }
        BackendKind::Analytic => {
            let est = span(spans, "simnet.analytic", || {
                AnalyticBackend::default().estimate_on_costed(
                    &params,
                    &LinkCostModel::Uniform,
                    topo,
                    com,
                    &schedule,
                    scheme,
                )
            });
            if let Ok(r) = est {
                o.comm_ms = r.makespan_ms();
                o.blocked = r.contention.contended_transfers;
                o.transfers = com.message_count() as u64;
                o.ok = true;
            }
        }
    }
    o
}

impl Replay {
    /// Per-layer metrics, as self time per traced round (ms) and counts
    /// per round.
    fn fill(&self, cfg: &Table1, report: &mut Report, sets: usize) {
        let rounds = self.traced_wall.len() as f64;
        let per_round = |ms: f64| ms / rounds;
        let s = &self.spans;
        let mut core = 0.0;
        let mut des = 0.0;
        for (name, core_metric, des_metric) in [
            ("AC", "core.schedule_ms.AC", "simnet.des_ms.AC"),
            ("LP", "core.schedule_ms.LP", "simnet.des_ms.LP"),
            ("RS_N", "core.schedule_ms.RS_N", "simnet.des_ms.RS_N"),
            ("RS_NL", "core.schedule_ms.RS_NL", "simnet.des_ms.RS_NL"),
            ("GREEDY", "core.schedule_ms.GREEDY", "simnet.des_ms.GREEDY"),
        ] {
            let c = s.ms(&format!("core.schedule.{name}"));
            let d = s.ms(&format!("simnet.des.{name}"));
            core += c;
            des += d;
            report.set(core_metric, per_round(c));
            report.set(des_metric, per_round(d));
        }
        report.set("core.schedule_ms", per_round(core));
        report.set("simnet.des_ms", per_round(des));
        report.set(
            "workloads.generate_ms",
            per_round(s.ms("workloads.generate")),
        );
        report.set(
            "workloads.matrices",
            s.calls("workloads.generate") as f64 / rounds,
        );
        report.set("runtime.compile_ms", per_round(s.ms("runtime.compile")));
        report.set("simnet.analytic_ms", per_round(s.ms("simnet.analytic")));
        report.set(
            "core.phases",
            self.phases.iter().sum::<usize>() as f64 / self.phases.len().max(1) as f64,
        );
        let events_per_round = self.events as f64 / self.counted_rounds.max(1) as f64;
        report.set("simnet.events", events_per_round);
        if self.events > 0 {
            report.set("simnet.ns_per_event", des * 1e6 / rounds / events_per_round);
        }
        if self.transfers > 0 {
            report.set(
                "simnet.transfers_blocked_ratio",
                self.blocked as f64 / self.transfers as f64,
            );
        }
        let wall_ms: f64 = self.traced_wall.iter().map(|w| w.as_secs_f64() * 1e3).sum();
        let busy_ms = s.total_ms();
        let capacity_ms = THREADS as f64 * wall_ms;
        report.set("runtime.grid_idle_ms", per_round(capacity_ms - busy_ms));
        report.set("trace.coverage", busy_ms / capacity_ms);
        // Each set's median traced round over its median untraced round.
        let typical = |wall: &[Duration]| {
            let s: Vec<f64> = wall.iter().map(Duration::as_secs_f64).collect();
            mean(&group_medians(&s, sets))
        };
        let overhead = typical(&self.traced_wall) / typical(&self.plain_wall);
        report.set("trace.overhead", overhead);
        eprintln!(
            "perfbench: replayed {} rounds of {} samples ({:?} backend) with and without spans, \
             coverage {:.3}, overhead {:.3}",
            self.traced_wall.len(),
            self.phases.len() / self.counted_rounds.max(1),
            cfg.backend,
            busy_ms / capacity_ms,
            overhead
        );
    }
}
