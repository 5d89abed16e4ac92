//! The `daemon-mixed` workload: a closed loop against a fresh in-process
//! `schedd` server on a unix socket.
//!
//! Each of `THREADS` client connections keeps a fixed window of requests
//! outstanding and sends the next one as soon as a reply arrives. The
//! requests are RS_NL on `cube:d=6`, d-regular with d = 8 and 1 KB
//! messages, priced on the analytic backend, with the schedule streamed
//! back. Per request the mix draws: 80% `repeat` (one of a 32-instance
//! pool), 10% `fresh` (a new instance), 10% `drift` (a `SubmitDelta`
//! moving 10 of a pool instance's 512 messages).
//!
//! A traced run drives the same loop for half its time, then replays the
//! first requests it issued on each connection through a fresh
//! `ServiceState`, in pairs without and with spans around
//! `Request::decode_with`, the service calls and `Response::encode`, and
//! times the layers below the service (fingerprint, patch, schedule,
//! estimate) in a separate probe over the same inputs.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use commcache::{CacheConfig, IncrementalCache, IncrementalConfig, InstanceKey};
use commrt::{AnalyticBackend, BackendKind, BackendReport};
use commsched::{registry, validate_schedule, CommMatrix, I860CostModel, MatrixDelta, Schedule};
use hypercube::Topology;
use schedd::{
    Client, DaemonStats, Endpoint, ProtocolLimits, Request, Response, SchemeChoice, Server,
    ServerHandle, ServiceConfig, ServiceState, SubmitDeltaRequest, SubmitReply, SubmitRequest,
    TopologySpec,
};
use simnet::{LinkCostModel, MachineParams};
use workloads::Generator;

use crate::metrics::Report;
use crate::stats::{mean, median, windowed, Summary, Tally};
use crate::trace::{span, Spans};
use crate::{mix, peak_rss_mb, SETUP_REPS, THREADS};

const SCHEDULER: &str = "RS_NL";

/// Shape of the request stream.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub dims: u32,
    pub degree: usize,
    pub bytes: u32,
    /// Instances `repeat` and `drift` requests draw from.
    pub pool: usize,
    /// Requests each connection keeps outstanding. 2 gave the most
    /// replies/s of windows 1 to 8 on 2 workers; deeper queues push a
    /// drift's base out of the incremental cache's candidate window
    /// before the job runs, so drifts fall back to cold compiles.
    pub window: usize,
    /// Messages a `drift` moves to a new destination.
    pub moved: usize,
    /// Requests per connection when the run has no time budget.
    pub min_requests: u64,
    /// Issued requests per connection a traced run replays and probes.
    pub replay_requests: u64,
}

impl Default for Mix {
    fn default() -> Mix {
        Mix {
            dims: 6,
            degree: 8,
            bytes: 1024,
            pool: 32,
            window: 2,
            moved: 10,
            min_requests: 200,
            replay_requests: 4000,
        }
    }
}

impl Mix {
    /// A 32-node version for the smoke test. Three moves of 128 messages
    /// keep a drift inside the patch threshold of its base and two drifts
    /// of one base outside each other's, as in the full mix.
    pub fn tiny(self) -> Mix {
        Mix {
            dims: 5,
            degree: 4,
            pool: 4,
            moved: 3,
            min_requests: 40,
            replay_requests: 40,
            ..self
        }
    }
}

/// Request classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Repeat,
    Fresh,
    Drift,
}

impl Class {
    const ALL: [Class; 3] = [Class::Repeat, Class::Fresh, Class::Drift];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Fresh => "fresh",
            Class::Drift => "drift",
        }
    }

    /// 8 in 10 repeat, 1 fresh, 1 drift.
    fn draw(r: u64) -> Class {
        match r % 10 {
            8 => Class::Fresh,
            9 => Class::Drift,
            _ => Class::Repeat,
        }
    }
}

/// Everything a run sends, derived from its seed.
struct Inputs {
    mix: Mix,
    seed: u64,
    pool: Vec<SubmitRequest>,
    keys: Vec<InstanceKey>,
    topo: Box<dyn Topology>,
}

/// One request of the stream.
struct Issued {
    class: Class,
    /// Pool instance of a `repeat` or `drift`.
    base: usize,
    request: Request,
}

impl Inputs {
    fn new(mix: Mix, seed: u64) -> Inputs {
        let spec = TopologySpec::Hypercube { dims: mix.dims };
        let topo = spec.build();
        let pool: Vec<SubmitRequest> = (0..mix.pool)
            .map(|j| Inputs::submit(&mix, mix_seed(seed, 0x9001, j as u64), j as u64))
            .collect();
        let keys = pool
            .iter()
            .map(|r| InstanceKey::compute(&r.matrix, topo.as_ref()))
            .collect();
        Inputs {
            mix,
            seed,
            pool,
            keys,
            topo,
        }
    }

    fn submit(mix: &Mix, matrix_seed: u64, scheduler_seed: u64) -> SubmitRequest {
        let n = 1usize << mix.dims;
        SubmitRequest {
            request_id: 0,
            want_schedule: true,
            topology: TopologySpec::Hypercube { dims: mix.dims },
            scheduler: SCHEDULER.into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: scheduler_seed,
            matrix: Generator::dregular(n, mix.degree, mix.bytes).generate(matrix_seed),
            cost_model: LinkCostModel::Uniform,
        }
    }

    /// Request `i` of connection `conn`.
    fn request(&self, conn: usize, i: u64) -> Issued {
        let r = mix_seed(self.seed, conn as u64 + 1, i);
        let class = Class::draw(r);
        let base = (mix(r) % self.pool.len() as u64) as usize;
        let request = match class {
            Class::Repeat => Request::Submit(self.pool[base].clone()),
            Class::Fresh => Request::Submit(Inputs::submit(&self.mix, mix(r ^ 0xF2E5), r)),
            Class::Drift => {
                let b = &self.pool[base];
                Request::SubmitDelta(SubmitDeltaRequest {
                    request_id: 0,
                    want_schedule: b.want_schedule,
                    topology: b.topology.clone(),
                    scheduler: b.scheduler.clone(),
                    scheme: b.scheme,
                    backend: b.backend,
                    seed: b.seed,
                    base: self.keys[base],
                    delta: drift(&b.matrix, self.mix.moved, r),
                    cost_model: b.cost_model,
                })
            }
        };
        Issued {
            class,
            base,
            request,
        }
    }
}

fn mix_seed(seed: u64, stream: u64, i: u64) -> u64 {
    mix(seed ^ mix(stream << 48 ^ i))
}

/// Move `moved` messages of `base` to destinations free in `base`, as a
/// delta. Ten moves are 20 structural edits of 512 messages, inside the
/// incremental cache's 5% patch threshold against the base, while two
/// different drifts of one base are about 40 edits apart and outside it,
/// so a drift is patched from its pool instance or not at all.
fn drift(base: &CommMatrix, moved: usize, r: u64) -> MatrixDelta {
    let msgs: Vec<_> = base.messages().collect();
    let n = base.n();
    let mut target = base.clone();
    let mut x = r;
    for _ in 0..moved {
        x = mix(x);
        let (src, dst, bytes) = msgs[(x % msgs.len() as u64) as usize];
        let (src, dst) = (src.index(), dst.index());
        if target.get(src, dst) == 0 {
            continue;
        }
        target.set(src, dst, 0);
        x = mix(x);
        let start = (x % n as u64) as usize;
        if let Some(to) = (0..n)
            .map(|off| (start + off) % n)
            .find(|&to| to != src && base.get(src, to) == 0 && target.get(src, to) == 0)
        {
            target.set(src, to, bytes);
        }
    }
    MatrixDelta::diff(base, &target).expect("same-size matrices always diff")
}

/// The daemon's configuration: two workers, an in-memory cache with the
/// incremental layer, and budgets small enough that memory plateaus
/// early in a run.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        cache: CacheConfig {
            byte_budget: 16 << 20,
            incremental: Some(IncrementalConfig::default().with_byte_budget(16 << 20)),
            ..CacheConfig::in_memory()
        },
        workers: THREADS,
        estimate_cache_capacity: 8192,
        ..ServiceConfig::default()
    }
}

/// FNV-1a over u64 words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn estimate_digest(e: &BackendReport) -> u64 {
    let c = &e.contention;
    fnv([e.makespan_ns, e.phase_end_ns.len() as u64]
        .into_iter()
        .chain(e.phase_end_ns.iter().copied())
        .chain([
            c.max_engine_busy_ns,
            c.max_link_busy_ns,
            c.contended_transfers,
            c.contended_phases as u64,
        ]))
}

fn schedule_digest(s: &Schedule) -> u64 {
    fnv([s.n() as u64, s.num_phases() as u64, s.ops()]
        .into_iter()
        .chain(
            s.phases().iter().flat_map(|p| {
                (0..p.n()).map(move |i| p.dest(i).map_or(0, |d| d.index() as u64 + 1))
            }),
        ))
}

/// What a reply must equal: fingerprint, estimate and schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Digest {
    fingerprint: u128,
    estimate: u64,
    schedule: u64,
}

impl Digest {
    fn of(reply: &SubmitReply) -> Digest {
        Digest {
            fingerprint: reply.fingerprint.0,
            estimate: estimate_digest(&reply.estimate),
            schedule: reply.schedule.as_deref().map_or(0, schedule_digest),
        }
    }
}

/// One connection's share of a closed-loop run.
#[derive(Default)]
struct ConnRun {
    issued: u64,
    latency_us: [Vec<f64>; 3],
    /// (reply time in seconds from the loop's start, latency in µs).
    timeline: Vec<(f64, f64)>,
    /// Repeat replies by (pool instance, digest), counted.
    repeats: BTreeMap<(usize, Digest), u64>,
    /// Fresh and drift replies: (request index, class, digest).
    others: Vec<(u64, Class, Digest)>,
    tally: Tally,
    end: Option<Instant>,
}

/// Drive one connection until `more(issued)` says stop, then drain.
fn drive(
    inputs: &Inputs,
    endpoint: &Endpoint,
    conn: usize,
    started: Instant,
    more: impl Fn(u64) -> bool,
) -> ConnRun {
    let mut out = ConnRun::default();
    let mut client = match Client::connect(endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: connect: {e}");
            out.tally.record(false);
            return out;
        }
    };
    let mut pending: HashMap<u64, (Instant, Class, usize, u64)> = HashMap::new();
    loop {
        while pending.len() < inputs.mix.window && more(out.issued) {
            let Issued {
                class,
                base,
                mut request,
            } = inputs.request(conn, out.issued);
            let id = client.next_request_id();
            match &mut request {
                Request::Submit(r) => r.request_id = id,
                Request::SubmitDelta(r) => r.request_id = id,
                _ => unreachable!("the mix only submits"),
            }
            let sent = Instant::now();
            if let Err(e) = client.send(&request) {
                eprintln!("perfbench: send: {e}");
                out.tally.record_many(1 + pending.len() as u64, false);
                return out;
            }
            pending.insert(id, (sent, class, base, out.issued));
            out.issued += 1;
        }
        if pending.is_empty() {
            return out;
        }
        let response = match client.recv() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: recv: {e}");
                out.tally.record_many(pending.len() as u64, false);
                return out;
            }
        };
        let now = Instant::now();
        out.end = Some(now);
        let Some((sent, class, base, index)) = pending.remove(&response.request_id()) else {
            eprintln!(
                "perfbench: reply to unknown request {}",
                response.request_id()
            );
            out.tally.record(false);
            continue;
        };
        let latency_us = (now - sent).as_secs_f64() * 1e6;
        out.latency_us[class.index()].push(latency_us);
        out.timeline
            .push(((now - started).as_secs_f64(), latency_us));
        match response {
            Response::Schedule(reply) => {
                out.tally.record(true);
                let digest = Digest::of(&reply);
                match class {
                    Class::Repeat => *out.repeats.entry((base, digest)).or_default() += 1,
                    _ => out.others.push((index, class, digest)),
                }
            }
            Response::Error(e) => {
                eprintln!("perfbench: daemon error: {e}");
                out.tally.record(false);
            }
            _ => out.tally.record(false),
        }
    }
}

/// A started daemon with its pool submitted once.
struct Daemon {
    handle: ServerHandle,
    pool: Vec<SubmitReply>,
}

/// A socket path in the working directory, unique to this daemon.
fn socket_path() -> PathBuf {
    static STARTED: AtomicUsize = AtomicUsize::new(0);
    let k = STARTED.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("perfbench-{}-{k}.sock", std::process::id()))
}

fn start(inputs: &Inputs) -> Result<Daemon, String> {
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let handle = Server::start(service_config(), &Endpoint::Unix(path))
        .map_err(|e| format!("start daemon: {e}"))?;
    let mut client =
        Client::connect(handle.endpoint()).map_err(|e| format!("connect to daemon: {e}"))?;
    let mut pool = Vec::with_capacity(inputs.pool.len());
    for req in &inputs.pool {
        match client.submit(req.clone()) {
            Ok(reply) => pool.push(reply),
            Err(e) => {
                handle.shutdown();
                return Err(format!("warming the pool: {e}"));
            }
        }
    }
    Ok(Daemon { handle, pool })
}

/// A closed-loop run against a started daemon.
struct LoopRun {
    conns: Vec<ConnRun>,
    wall: Duration,
    before: DaemonStats,
    after: DaemonStats,
}

fn closed_loop(inputs: &Inputs, daemon: &Daemon, budget: Duration) -> LoopRun {
    let before = daemon.handle.stats();
    let endpoint = daemon.handle.endpoint();
    let started = Instant::now();
    let min = inputs.mix.min_requests;
    let conns: Vec<ConnRun> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|conn| {
                scope.spawn(move || {
                    drive(inputs, endpoint, conn, started, |issued| {
                        if budget.is_zero() {
                            issued < min
                        } else {
                            started.elapsed() < budget
                        }
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let end = conns.iter().filter_map(|c| c.end).max().unwrap_or(started);
    LoopRun {
        wall: end - started,
        before,
        after: daemon.handle.stats(),
        conns,
    }
}

/// Check every reply against `ServiceState::process` on a fresh state
/// fed the same requests. Returns the number of replies that differ;
/// `pool_ok` is false if the warm-up replies differ.
fn check(inputs: &Inputs, run: &LoopRun, pool: &[SubmitReply], pool_ok: &mut bool) -> u64 {
    let state = ServiceState::new(&service_config());
    let mut reference = Vec::with_capacity(inputs.pool.len());
    for (req, got) in inputs.pool.iter().zip(pool) {
        let want = state
            .process(req)
            .ok()
            .filter(|r| valid_schedule(&req.matrix, r))
            .map(|r| Digest::of(&r));
        *pool_ok &= want == Some(Digest::of(got));
        reference.push(want);
    }
    let mut wrong = 0;
    for conn in &run.conns {
        for ((base, digest), count) in &conn.repeats {
            if reference[*base] != Some(*digest) {
                eprintln!("perfbench: {count} repeat replies of pool instance {base} differ");
                wrong += count;
            }
        }
    }
    // A fresh reply must equal a cold compile, checked on two threads
    // sharing a state without the incremental layer. A drift must equal
    // the patch of its pool instance: `patcher` serves the drifts one at
    // a time, so that base is always its most recent candidate and the
    // answer cannot depend on timing. The daemon serves drifts
    // concurrently and compiles cold when the base has dropped out of its
    // candidate window, so a drift may also equal the cold compile.
    let cold = ServiceState::new(&ServiceConfig::default());
    let (drifts, fresh): (Vec<_>, Vec<_>) = run
        .conns
        .iter()
        .enumerate()
        .flat_map(|(c, conn)| {
            conn.others
                .iter()
                .map(move |&(i, class, d)| (c, i, class, d))
        })
        .partition(|&(_, _, class, _)| class == Class::Drift);
    let next = AtomicUsize::new(0);
    let check_fresh = || {
        let mut wrong = 0;
        while let Some(&(c, i, _, got)) = fresh.get(next.fetch_add(1, Ordering::Relaxed)) {
            wrong += u64::from(!reply_matches(inputs, &state, &cold, c, i, &got));
        }
        wrong
    };
    std::thread::scope(|scope| {
        let drift_thread = scope.spawn(|| {
            let wrong = drifts
                .iter()
                .filter(|&&(c, i, _, got)| !reply_matches(inputs, &state, &cold, c, i, &got))
                .count() as u64;
            wrong + check_fresh()
        });
        wrong += check_fresh();
        wrong += drift_thread.join().expect("check thread panicked");
    });
    wrong
}

/// Whether `got` answers request `i` of `conn`: a fresh request as
/// `cold` serves it, a drift as `patcher` or `cold` serves it.
fn reply_matches(
    inputs: &Inputs,
    patcher: &ServiceState,
    cold: &ServiceState,
    conn: usize,
    i: u64,
    got: &Digest,
) -> bool {
    let (full, drift) = match inputs.request(conn, i).request {
        Request::Submit(r) => (Ok(r), false),
        Request::SubmitDelta(d) => (patcher.resolve_delta(&d), true),
        _ => unreachable!("the mix only submits"),
    };
    let Ok(full) = full else {
        return false;
    };
    let answers = |s: &ServiceState| {
        s.process(&full)
            .is_ok_and(|r| Digest::of(&r) == *got && valid_schedule(&full.matrix, &r))
    };
    let ok = (drift && answers(patcher)) || answers(cold);
    if !ok {
        eprintln!("perfbench: reply to request {i} of connection {conn} differs");
    }
    ok
}

/// Whether a reply carries a schedule that passes `validate_schedule`.
fn valid_schedule(matrix: &CommMatrix, reply: &SubmitReply) -> bool {
    reply
        .schedule
        .as_deref()
        .is_some_and(|s| validate_schedule(matrix, s).is_ok())
}

/// Run `daemon-mixed` and fill `report`.
pub fn run(mix_cfg: &Mix, seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let inputs = Inputs::new(*mix_cfg, seed);

    // Set-up: start a fresh daemon and submit the pool once, so that a
    // drift never names an unknown base. Repeated; the last one serves.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            let Daemon { handle, .. } = d;
            handle.shutdown();
        }
        let t = Instant::now();
        match start(&inputs) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                eprintln!("perfbench: set-up {rep}: {e}");
                report.tally.record(false);
                report.checks_ok = false;
                return;
            }
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");

    let budget = Duration::from_secs(seconds);
    let run = closed_loop(&inputs, &daemon, if traced { budget / 2 } else { budget });
    let Daemon { handle, pool } = daemon;
    handle.shutdown();
    // Read before the checks below build their own reference states.
    let peak_rss = peak_rss_mb();

    for conn in &run.conns {
        report.tally.merge(conn.tally);
    }
    let mut pool_ok = true;
    let wrong = check(&inputs, &run, &pool, &mut pool_ok);
    report.tally.fail(wrong);
    report.checks_ok &= pool_ok;
    if wrong > 0 || !pool_ok {
        eprintln!("perfbench: {wrong} replies differ from the reference (pool ok: {pool_ok})");
    }

    let all: Vec<f64> = run
        .conns
        .iter()
        .flat_map(|c| c.latency_us.iter().flatten().copied())
        .collect();
    // Median latency and sample count per class.
    let classes = Class::ALL.map(|class| {
        let v: Vec<f64> = run
            .conns
            .iter()
            .flat_map(|c| c.latency_us[class.index()].iter().copied())
            .collect();
        (median(&v), v.len())
    });
    let lat = Summary::of(&all).unwrap_or(Summary {
        count: 0,
        p50: 0.0,
        p99: 0.0,
    });
    let completed: u64 = run
        .conns
        .iter()
        .map(|c| c.tally.attempted - c.tally.failed)
        .sum();
    eprintln!(
        "perfbench: {completed} replies in {:.2} s; latency p50 {:.0} us, p99 {:.0} us over {} samples; \
         p50 repeat {:.0} us ({}), fresh {:.0} us ({}), drift {:.0} us ({})",
        run.wall.as_secs_f64(),
        lat.p50,
        lat.p99,
        lat.count,
        classes[0].0,
        classes[0].1,
        classes[1].0,
        classes[1].1,
        classes[2].0,
        classes[2].1,
    );

    // Rate and tail are medians over one-second windows, so that a few
    // seconds in which something else held the machine do not move them.
    let timeline: Vec<(f64, f64)> = run
        .conns
        .iter()
        .flat_map(|c| c.timeline.iter().copied())
        .collect();
    let span = run.wall.as_secs_f64().min(budget.as_secs_f64());
    let (rate, p99) = windowed(&timeline, 1.0, span)
        .unwrap_or((completed as f64 / run.wall.as_secs_f64(), lat.p99));

    if traced {
        let process_us = trace(&inputs, &run, &pool, budget / 2, report);
        report.set("schedd.transport_us", mean(&all) - process_us);
        report.set("client.p99_us", p99);
        for (class, name) in [
            (Class::Repeat, "client.p50_us.repeat"),
            (Class::Fresh, "client.p50_us.fresh"),
            (Class::Drift, "client.p50_us.drift"),
        ] {
            report.set(name, classes[class.index()].0);
        }
        return;
    }

    let cost = I860CostModel::default();
    let n = pool.len() as f64;
    report.set("setup_s", median(&setup));
    report.set("ops_per_s", rate);
    report.set("p50_us", lat.p50);
    report.set(
        "sim_makespan_ms",
        pool.iter().map(|r| r.estimate.makespan_ms()).sum::<f64>() / n,
    );
    report.set(
        "sched_cost_ms",
        pool.iter()
            .filter_map(|r| r.schedule.as_deref())
            .map(|s| cost.schedule_ms(s))
            .sum::<f64>()
            / n,
    );
    report.set("peak_rss_mb", peak_rss);
}

/// Per-layer metrics of a traced run; returns the mean time of one
/// service call (µs) for the transport split.
fn trace(
    inputs: &Inputs,
    run: &LoopRun,
    pool: &[SubmitReply],
    budget: Duration,
    report: &mut Report,
) -> f64 {
    let (b, a) = (&run.before, &run.after);
    let completed = (a.completed - b.completed).max(1) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.set(
        "commcache.hit_rate",
        ratio(
            a.cache_mem_hits - b.cache_mem_hits,
            a.cache_requests - b.cache_requests,
        ),
    );
    report.set(
        "commcache.patch_rate",
        ratio(
            a.incr_patches - b.incr_patches,
            a.delta_submits - b.delta_submits,
        ),
    );
    let hits = a.estimate_hits - b.estimate_hits;
    report.set(
        "schedd.estimate_memo_hit_rate",
        ratio(hits, hits + a.estimate_misses - b.estimate_misses),
    );
    report.set(
        "schedd.compiles",
        (a.compiles - b.compiles) as f64 / completed,
    );
    report.set(
        "schedd.coalesced",
        (a.coalesced - b.coalesced) as f64 / completed,
    );
    report.set(
        "schedd.rejected",
        (a.rejected_quota - b.rejected_quota + a.rejected_overload - b.rejected_overload) as f64,
    );

    // Replay in pairs, without and with spans, alternating which goes
    // first, until `budget` has passed (at least one pair).
    let bodies = replay_requests(inputs, run);
    let started = Instant::now();
    let mut spans = Spans::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for pair in 0.. {
        if pair > 0 && started.elapsed() >= budget {
            break;
        }
        let order = [pair % 2 == 1, pair % 2 == 0];
        for traced in order {
            let (wall, s, tally) = replay(inputs, &bodies, traced);
            report.tally.merge(tally);
            match s {
                Some(s) => {
                    spans.merge(s);
                    traced_s.push(wall.as_secs_f64());
                }
                None => plain_s.push(wall.as_secs_f64()),
            }
        }
    }
    report.set("schedd.decode_us", spans.mean_us("schedd.decode"));
    report.set("schedd.encode_us", spans.mean_us("schedd.encode"));
    let mut process_ms = 0.0;
    let mut process_calls = 0;
    for class in Class::ALL {
        let key = format!("schedd.process.{}", class.name());
        process_ms += spans.ms(&key);
        process_calls += spans.calls(&key);
        let metric = match class {
            Class::Repeat => "schedd.process_us.repeat",
            Class::Fresh => "schedd.process_us.fresh",
            Class::Drift => "schedd.process_us.drift",
        };
        report.set(metric, spans.mean_us(&key));
    }
    let coverage = spans.total_ms() / (THREADS as f64 * traced_s.iter().sum::<f64>() * 1e3);
    let overhead = median(&traced_s) / median(&plain_s);
    report.set("trace.coverage", coverage);
    report.set("trace.overhead", overhead);

    let probe = probe(inputs, pool);
    report.set(
        "commcache.fingerprint_us",
        probe.mean_us("commcache.fingerprint"),
    );
    report.set("commcache.patch_us", probe.mean_us("commcache.patch"));
    report.set("core.schedule_ms", probe.mean_us("core.schedule") / 1e3);
    report.set(
        "core.schedule_ms.RS_NL",
        probe.mean_us("core.schedule") / 1e3,
    );
    report.set("simnet.analytic_ms", probe.mean_us("simnet.analytic") / 1e3);
    eprintln!(
        "perfbench: replayed {} requests {} times without and {} times with spans, \
         coverage {coverage:.3}, overhead {overhead:.3}",
        bodies.len(),
        plain_s.len(),
        traced_s.len()
    );
    if process_calls == 0 {
        0.0
    } else {
        process_ms * 1e3 / process_calls as f64
    }
}

/// The first `replay_requests` issued requests of each connection,
/// interleaved, encoded as the client sent them.
fn replay_requests(inputs: &Inputs, run: &LoopRun) -> Vec<(Class, Vec<u8>)> {
    let counts: Vec<u64> = run
        .conns
        .iter()
        .map(|c| c.issued.min(inputs.mix.replay_requests))
        .collect();
    let longest = counts.iter().copied().max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            counts
                .iter()
                .enumerate()
                .filter(move |&(_, &n)| i < n)
                .map(move |(conn, _)| {
                    let issued = inputs.request(conn, i);
                    (issued.class, issued.request.encode())
                })
        })
        .collect()
}

/// Replay encoded requests through a fresh `ServiceState` warmed with
/// the pool, as the daemon's reader and workers would: decode, resolve a
/// delta, admit, process, encode the reply. `THREADS` threads take the
/// requests from one shared counter, as the daemon's workers take jobs
/// from its queue. Returns the wall time of the replay, the spans when
/// `traced`, and the replies' tally.
fn replay(
    inputs: &Inputs,
    bodies: &[(Class, Vec<u8>)],
    traced: bool,
) -> (Duration, Option<Spans>, Tally) {
    let state = ServiceState::new(&service_config());
    for req in &inputs.pool {
        state
            .process(req)
            .expect("the pool was served by the daemon");
    }
    let limits = ProtocolLimits::default();
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let results: Vec<(Option<Spans>, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (state, limits, next) = (&state, &limits, &next);
                scope.spawn(move || {
                    let mut spans = traced.then(Spans::default);
                    let mut tally = Tally::default();
                    while let Some((class, body)) = bodies.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        tally.record(serve(state, limits, *class, body, &mut spans));
                    }
                    (spans, tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = t.elapsed();
    let mut spans: Option<Spans> = traced.then(Spans::default);
    let mut tally = Tally::default();
    for (s, t) in results {
        tally.merge(t);
        if let (Some(all), Some(s)) = (spans.as_mut(), s) {
            all.merge(s);
        }
    }
    (wall, spans, tally)
}

/// One request through the daemon's server-side stages.
fn serve(
    state: &ServiceState,
    limits: &ProtocolLimits,
    class: Class,
    body: &[u8],
    spans: &mut Option<Spans>,
) -> bool {
    let Ok(request) = span(spans, "schedd.decode", || {
        Request::decode_with(body, limits)
    }) else {
        return false;
    };
    let key = match class {
        Class::Repeat => "schedd.process.repeat",
        Class::Fresh => "schedd.process.fresh",
        Class::Drift => "schedd.process.drift",
    };
    let reply = span(spans, key, || {
        let full = match &request {
            Request::Submit(r) => r.clone(),
            Request::SubmitDelta(d) => state.resolve_delta(d)?,
            _ => unreachable!("the mix only submits"),
        };
        state.admit(&full)?;
        state.process(&full)
    });
    let Ok(reply) = reply else {
        return false;
    };
    let response = Response::Schedule(reply);
    let bytes = span(spans, "schedd.encode", || response.encode());
    std::hint::black_box(bytes);
    true
}

/// Time the layers the service calls, on the first `replay_requests`
/// requests of each connection: fingerprinting every request, cold
/// scheduling and analytic pricing of every fresh instance, and
/// patching every drift from its pool instance.
fn probe(inputs: &Inputs, pool: &[SubmitReply]) -> Spans {
    let topo = inputs.topo.as_ref();
    let entry = registry::find(SCHEDULER).expect("RS_NL is registered");
    let params = MachineParams::ipsc860();
    let scheme = SchemeChoice::Default.resolve(entry);
    let patcher = IncrementalCache::new(IncrementalConfig::default());
    for ((req, key), reply) in inputs.pool.iter().zip(&inputs.keys).zip(pool) {
        if let Some(s) = &reply.schedule {
            patcher.register(*key, &req.matrix, topo, SCHEDULER, req.seed, s.clone());
        }
    }
    let mut spans = Spans::default();
    for conn in 0..THREADS {
        for i in 0..inputs.mix.replay_requests {
            let issued = inputs.request(conn, i);
            let (matrix, seed) = match &issued.request {
                Request::Submit(r) => (r.matrix.clone(), r.seed),
                Request::SubmitDelta(d) => {
                    let base = &inputs.pool[issued.base];
                    (
                        d.delta
                            .apply(&base.matrix)
                            .expect("drifts apply to their base"),
                        d.seed,
                    )
                }
                _ => unreachable!("the mix only submits"),
            };
            let key = spans.time("commcache.fingerprint", || {
                let key = InstanceKey::compute(&matrix, topo);
                std::hint::black_box(key.schedule_key(SCHEDULER, seed));
                key
            });
            match issued.class {
                Class::Repeat => {}
                Class::Fresh => {
                    let schedule =
                        spans.time("core.schedule", || entry.schedule(&matrix, topo, seed));
                    let est = spans.time("simnet.analytic", || {
                        AnalyticBackend::default().estimate_on_costed(
                            &params,
                            &LinkCostModel::Uniform,
                            topo,
                            &matrix,
                            &schedule,
                            scheme,
                        )
                    });
                    std::hint::black_box(est.ok());
                }
                Class::Drift => {
                    patcher.base_matrix(inputs.keys[issued.base]);
                    let patched = spans.time("commcache.patch", || {
                        patcher.get_patched(entry, key, &matrix, topo, seed)
                    });
                    std::hint::black_box(patched);
                }
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_draws_each_class_at_its_share() {
        let inputs = Inputs::new(Mix::default().tiny(), 11);
        let mut counts = [0u32; 3];
        for i in 0..2000 {
            counts[inputs.request(i % 2, i as u64 / 2).class.index()] += 1;
        }
        assert!((1500..1700).contains(&counts[0]), "{counts:?}");
        assert!((150..250).contains(&counts[1]), "{counts:?}");
        assert!((150..250).contains(&counts[2]), "{counts:?}");
        // The same seed gives the same stream.
        let again = Inputs::new(Mix::default().tiny(), 11);
        for i in 0..50 {
            assert_eq!(inputs.request(1, i).request, again.request(1, i).request);
        }
    }

    #[test]
    fn drift_moves_messages_within_the_patch_threshold() {
        for mix in [Mix::default(), Mix::default().tiny()] {
            let inputs = Inputs::new(mix, 5);
            let base = &inputs.pool[0].matrix;
            let a = drift(base, mix.moved, 1);
            let b = drift(base, mix.moved, 2);
            assert_eq!(a.structural_count(), 2 * mix.moved);
            assert!(a.structural_count() * 1000 <= 50 * base.message_count());
            let (ma, mb) = (a.apply(base).unwrap(), b.apply(base).unwrap());
            assert_eq!(ma.message_count(), base.message_count());
            let between = MatrixDelta::diff(&ma, &mb).unwrap();
            assert!(between.structural_count() * 1000 > 50 * ma.message_count());
        }
    }

    /// Latency samples land in their request's class.
    #[test]
    fn latency_splits_by_class() {
        let inputs = Inputs::new(Mix::default().tiny(), 2);
        let daemon = start(&inputs).unwrap();
        let run = closed_loop(&inputs, &daemon, Duration::ZERO);
        let Daemon { handle, pool } = daemon;
        handle.shutdown();
        for (conn, c) in run.conns.iter().enumerate() {
            assert_eq!(c.issued, inputs.mix.min_requests);
            let mut want = [0usize; 3];
            for i in 0..c.issued {
                want[inputs.request(conn, i).class.index()] += 1;
            }
            let got: Vec<usize> = c.latency_us.iter().map(Vec::len).collect();
            assert_eq!(got, want);
            assert_eq!(
                c.tally,
                Tally {
                    attempted: c.issued,
                    failed: 0
                }
            );
        }
        let mut pool_ok = true;
        assert_eq!(check(&inputs, &run, &pool, &mut pool_ok), 0);
        assert!(pool_ok);
    }

    /// A reply that differs from the reference counts as failed.
    #[test]
    fn a_wrong_reply_is_counted() {
        let inputs = Inputs::new(Mix::default().tiny(), 4);
        let daemon = start(&inputs).unwrap();
        let mut run = closed_loop(&inputs, &daemon, Duration::ZERO);
        let Daemon { handle, pool } = daemon;
        handle.shutdown();
        let conn = &mut run.conns[0];
        let (&key, _) = conn.repeats.iter().next().unwrap();
        let count = conn.repeats.remove(&key).unwrap();
        let mut wrong = key;
        wrong.1.estimate ^= 1;
        conn.repeats.insert(wrong, count);
        if let Some(other) = conn.others.first_mut() {
            other.2.fingerprint ^= 1;
        }
        let expected = count + u64::from(!conn.others.is_empty());
        let mut pool_ok = true;
        assert_eq!(check(&inputs, &run, &pool, &mut pool_ok), expected);
        // A warm-up reply that differs fails the run's checks.
        let mut bad_pool = pool.clone();
        bad_pool[0].estimate.makespan_ns += 1;
        check(&inputs, &run, &bad_pool, &mut pool_ok);
        assert!(!pool_ok);
    }
}
