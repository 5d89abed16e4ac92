//! `schedctl` — operate the schedule cache from the command line.
//!
//! The paper's economics are amortization: schedule once, execute many
//! times. `schedctl` makes that operational for whole workload specs:
//! `warm` precompiles every *(matrix sample, scheduler)* pair of a spec
//! into a persistent [`commcache::ArtifactStore`], `stats` summarizes a
//! store directory, and `inspect` decodes individual artifacts. A warmed
//! store is picked up by any later run pointed at the same directory
//! (`IPSC_CACHE=<dir>` for the repro binaries, or
//! `CacheConfig::persistent` in code).
//!
//! ```text
//! schedctl warm --dir results/cache --n 64 --d 4,8 --bytes 1024 --samples 3
//! schedctl warm --dir results/cache --n 64 --d 4,8 --bytes 1024 --samples 3 --expect-hits
//! schedctl stats --dir results/cache
//! schedctl inspect --dir results/cache --fingerprint <32-hex>
//! ```
//!
//! The second `warm` over an unchanged spec compiles nothing: every
//! request is answered by the store (`--expect-hits` turns that into an
//! exit-code assertion, which is how CI smoke-tests the cache).
//!
//! By default `warm` uses the **paper seed discipline** — per-scheduler
//! base seeds `paper_base_seed(d, M, ordinal)`, the streams the repro
//! binaries request — so warming `--n 64 --d 4,8,16,32,48
//! --bytes 256,1024,131072 --samples 50` precompiles exactly the
//! schedules `table1` will ask for under `IPSC_CACHE=<same dir>`.
//! Passing `--base-seed` switches to one *shared* sample stream instead
//! (the `WorkloadPoint::shared` discipline of ablation-style grids).
//!
//! With `--addr`, `schedctl` is also the client of a live `schedd`
//! daemon: `submit` sends one schedule request, `bench` replays one
//! request repeatedly and reports latency plus the daemon's dedup hit
//! rate, `stats --addr` snapshots the daemon's counters, and `shutdown`
//! drains it:
//!
//! ```text
//! schedctl submit --addr unix:/tmp/schedd.sock --scheduler RS_NL --n 16
//! schedctl bench --addr unix:/tmp/schedd.sock --requests 500
//! schedctl stats --addr unix:/tmp/schedd.sock
//! schedctl shutdown --addr unix:/tmp/schedd.sock
//! ```

use std::process::ExitCode;
use std::time::Instant;

use commcache::{
    decode_artifact_full, ArtifactStore, CacheConfig, Fingerprint, SchedCache, StoreError,
    TopologyMeta,
};
use commrt::grid::paper_base_seed;
use commrt::BackendKind;
use commsched::{registry, Scheduler};
use hypercube::Hypercube;
use repro_bench::cli::{opt_flag, opt_list, opt_parsed, opt_value, reject_unknown, Gate};
use repro_bench::{case, percentile, RunConfig};
use schedd::{Client, Endpoint, SchemeChoice, SubmitRequest, TopologySpec};
use workloads::{Generator, SampleSet};

const USAGE: &str = "\
schedctl — inspect and warm the ipsc-sched schedule cache

USAGE:
  schedctl warm [OPTIONS]      precompile a workload spec into the cache
  schedctl stats [OPTIONS]     summarize a cache directory, or a live
                               daemon's counters with --addr
  schedctl inspect [OPTIONS]   decode artifacts
  schedctl submit [OPTIONS]    submit one request to a live schedd
  schedctl bench [OPTIONS]     replay requests against a live schedd
  schedctl shutdown --addr <e> drain and stop a live schedd
  schedctl help                print this text

OPTIONS:
  --dir <path>         artifact-store directory   [default: results/cache]
  --addr <endpoint>    live daemon: unix:<path> or tcp:<host:port>
  --n <nodes>          hypercube size (power of two)        [default: 64]
  --d <list>           densities, comma-separated          [default: 4,8]
  --bytes <list>       message sizes (bytes), comma-sep   [default: 1024]
  --schedulers <spec>  comma-separated names, or primary|all
                                                       [default: primary]
  --samples <k>        samples per workload point            [default: 3]
  --base-seed <s>      warm ONE shared sample stream from this base seed
                       (sample k = base*1000+k) instead of the default
                       paper discipline — per-scheduler base seeds
                       paper_base_seed(d, M, ordinal), i.e. exactly the
                       schedules the repro binaries request under
                       IPSC_CACHE=<dir>
  --budget-mb <mb>     in-memory byte budget                [default: 64]
  --expect-hits        (warm) exit 1 unless ≥ 1 request was answered by
                       the store — asserts a previous warm is being reused
  --fingerprint <hex>  (inspect) only this artifact
  --scheduler <name>   (submit/bench) registry entry      [default: RS_NL]
  --topo <kind>        (submit/bench) schedule on this fabric instead of
                       the --n hypercube: cube:d=N, mesh:RxC,
                       torus:AxBx..., or fattree:k=N (node count follows
                       the kind; traffic stays --d-regular)
  --seed <s>           (submit/bench) scheduler seed           [default: 0]
  --scheme <s>         (submit/bench) s1|s2|default      [default: default]
  --backend <b>        (submit/bench) des|analytic   [default: IPSC_BACKEND]
  --costmodel <m>      (submit/bench) link-cost model: uniform,
                       loggp:o=..,g=..,G=.., hetero:factor=..,frac=..,
                       or faulty:p=..,seed=..  [default: IPSC_COSTMODEL]
  --want-schedule      (submit) stream the compiled schedule summary too
  --requests <k>       (bench) how many requests to replay   [default: 200]
  --dims <lo>..<hi>    (bench) sweep hypercube dimensions instead of one
                       --n, appending daemon/d{dim} latency rows to
                       BENCH_scale_sim.json (daemon needs --max-nodes
                       covering 2^hi)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let opts = &args[1.min(args.len())..];
    let result = match command {
        Some("warm") => warm(opts),
        Some("stats") => stats(opts),
        Some("inspect") => inspect(opts),
        Some("submit") => submit(opts),
        Some("bench") => bench(opts),
        Some("shutdown") => shutdown(opts),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}` (try `schedctl help`)")),
    };
    result.unwrap_or_else(|message| {
        eprintln!("schedctl: {message}");
        ExitCode::from(2)
    })
}

fn store_dir(opts: &[String]) -> Result<std::path::PathBuf, String> {
    Ok(opt_value(opts, "--dir")?
        .map(Into::into)
        .unwrap_or_else(ArtifactStore::default_dir))
}

fn resolve_schedulers(spec: &str) -> Result<Vec<&'static dyn Scheduler>, String> {
    match spec {
        "primary" => Ok(registry::primary().collect()),
        "all" => Ok(registry::all().to_vec()),
        names => names
            .split(',')
            .map(|name| {
                registry::find(name.trim())
                    .ok_or_else(|| format!("unknown scheduler `{}`", name.trim()))
            })
            .collect(),
    }
}

fn warm(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(
        opts,
        &[
            "--dir",
            "--n",
            "--d",
            "--bytes",
            "--schedulers",
            "--samples",
            "--base-seed",
            "--budget-mb",
        ],
        &["--expect-hits"],
    )?;
    let dir = store_dir(opts)?;
    let n: usize = opt_parsed(opts, "--n")?.unwrap_or(64);
    if !n.is_power_of_two() {
        return Err(format!("--n {n} is not a power of two (hypercube size)"));
    }
    let densities: Vec<usize> = opt_list(opts, "--d", &[4, 8])?;
    let sizes: Vec<u32> = opt_list(opts, "--bytes", &[1024])?;
    let samples: usize = opt_parsed(opts, "--samples")?.unwrap_or(3);
    let shared_base: Option<u64> = opt_parsed(opts, "--base-seed")?;
    let budget_mb: usize = opt_parsed(opts, "--budget-mb")?.unwrap_or(64);
    let entries = resolve_schedulers(opt_value(opts, "--schedulers")?.unwrap_or("primary"))?;

    let cube = Hypercube::new(n.trailing_zeros());
    let cache = SchedCache::new(CacheConfig::persistent(&dir).with_byte_budget(budget_mb << 20));
    let t0 = Instant::now();
    let mut requested = 0u64;
    for &d in &densities {
        for &bytes in &sizes {
            let generator = Generator::dregular(n, d, bytes);
            match shared_base {
                // Shared discipline: one sample stream, every scheduler
                // sees the same matrices (WorkloadPoint::shared grids).
                Some(base) => {
                    for seed in SampleSet::new(base, samples).seeds() {
                        let com = generator.generate(seed);
                        for entry in &entries {
                            if !entry.supports_topology(&cube) {
                                continue;
                            }
                            cache.get_or_schedule(*entry, &com, &cube, seed);
                            requested += 1;
                        }
                    }
                }
                // Paper discipline (default): the per-scheduler streams
                // the repro binaries request — warming here means table1
                // et al. under IPSC_CACHE=<dir> recompile nothing.
                None => {
                    for entry in &entries {
                        if !entry.supports_topology(&cube) {
                            continue;
                        }
                        let set =
                            SampleSet::new(paper_base_seed(d, bytes, entry.ordinal()), samples);
                        for seed in set.seeds() {
                            let com = generator.generate(seed);
                            cache.get_or_schedule(*entry, &com, &cube, seed);
                            requested += 1;
                        }
                    }
                }
            }
        }
    }
    let elapsed = t0.elapsed();
    let stats = cache.stats();
    println!(
        "warmed {} schedule(s) over {} workload point(s) ({} sample(s) each, {} scheduler(s), {} seeds) in {:.2} ms",
        requested,
        densities.len() * sizes.len(),
        samples,
        entries.len(),
        if shared_base.is_some() {
            "shared"
        } else {
            "paper per-scheduler"
        },
        elapsed.as_secs_f64() * 1e3,
    );
    println!("cache dir: {}", dir.display());
    println!(
        "compiled: {}  store_hits: {}  mem_hits: {}  store_writes: {}  store_skips: {}  store_errors: {}",
        stats.misses,
        stats.store_hits,
        stats.mem_hits,
        stats.store_writes,
        stats.store_skips,
        stats.store_errors,
    );
    println!("hit rate: {:.1}%", stats.hit_rate() * 100.0);
    let mut gate = Gate::new("schedctl");
    gate.at_least(
        "--expect-hits: store hits",
        stats.store_hits as f64,
        opt_flag(opts, "--expect-hits").then_some(1.0),
    );
    Ok(gate.finish())
}

/// Decode every artifact under `dir`, returning per-entry details plus
/// skip/error tallies.
struct Scan {
    /// `(fingerprint, file bytes, schedule, fabric)` of each trusted
    /// artifact; the fabric is `None` for version-1 files and artifacts
    /// written without topology metadata.
    decoded: Vec<(Fingerprint, u64, commsched::Schedule, Option<TopologyMeta>)>,
    version_skips: usize,
    errors: Vec<(Fingerprint, StoreError)>,
}

fn scan(store: &ArtifactStore) -> Result<Scan, String> {
    let mut result = Scan {
        decoded: Vec::new(),
        version_skips: 0,
        errors: Vec::new(),
    };
    for fp in store
        .entries()
        .map_err(|e| format!("{}: {e}", store.dir().display()))?
    {
        let path = store.path_for(fp);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                result.errors.push((fp, StoreError::Io(e)));
                continue;
            }
        };
        match decode_artifact_full(&bytes) {
            Ok((_, schedule, topology)) => {
                result
                    .decoded
                    .push((fp, bytes.len() as u64, schedule, topology))
            }
            Err(StoreError::UnsupportedVersion(_)) => result.version_skips += 1,
            Err(e) => result.errors.push((fp, e)),
        }
    }
    Ok(result)
}

fn stats(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, &["--dir", "--addr"], &[])?;
    if let Some(addr) = opt_value(opts, "--addr")? {
        return daemon_stats(addr);
    }
    let dir = store_dir(opts)?;
    let store = ArtifactStore::new(&dir);
    let scan = scan(&store)?;
    println!("cache dir: {}", dir.display());
    println!(
        "artifacts: {} trusted, {} foreign-version (skipped), {} unreadable",
        scan.decoded.len(),
        scan.version_skips,
        scan.errors.len()
    );
    let total_bytes: u64 = scan.decoded.iter().map(|(_, b, _, _)| b).sum();
    println!("store size: {total_bytes} bytes");
    // Per-family tallies, in the paper's column order.
    let mut families: Vec<(&str, usize, usize)> = Vec::new();
    for (_, _, schedule, _) in &scan.decoded {
        let label = schedule.algorithm().label();
        match families.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, count, phases)) => {
                *count += 1;
                *phases += schedule.num_phases();
            }
            None => families.push((label, 1, schedule.num_phases())),
        }
    }
    for (label, count, phases) in &families {
        println!(
            "  {label:<6} {count:>5} schedule(s), {:.1} phase(s) mean",
            *phases as f64 / *count as f64
        );
    }
    for (fp, err) in &scan.errors {
        println!("  ! {fp}: {err}");
    }
    Ok(ExitCode::SUCCESS)
}

fn inspect(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, &["--dir", "--fingerprint"], &[])?;
    let dir = store_dir(opts)?;
    let store = ArtifactStore::new(&dir);
    let filter = match opt_value(opts, "--fingerprint")? {
        Some(hex) => Some(
            Fingerprint::from_hex(hex)
                .ok_or_else(|| format!("--fingerprint: `{hex}` is not 32 hex digits"))?,
        ),
        None => None,
    };
    let scan = scan(&store)?;
    let mut shown = 0;
    for (fp, file_bytes, schedule, topology) in &scan.decoded {
        if filter.is_some_and(|f| f != *fp) {
            continue;
        }
        shown += 1;
        let fabric = topology.as_ref().map_or_else(
            || "-".to_string(),
            |t| format!("{} nodes={} links={}", t.kind, t.nodes, t.links),
        );
        println!(
            "{fp}  {:<6} n={:<4} phases={:<4} messages={:<5} ops={:<8} file={file_bytes}B  topo: {fabric}",
            schedule.algorithm().label(),
            schedule.n(),
            schedule.num_phases(),
            schedule.message_count(),
            schedule.ops(),
        );
    }
    for (fp, err) in &scan.errors {
        if filter.is_some_and(|f| f != *fp) {
            continue;
        }
        shown += 1;
        println!("{fp}  UNREADABLE: {err}");
    }
    if let Some(f) = filter {
        if shown == 0 {
            return Err(format!("no artifact {f} under {}", dir.display()));
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Daemon-client verbs (live schedd over --addr)
// ---------------------------------------------------------------------------

fn connect(opts: &[String]) -> Result<Client, String> {
    let addr = opt_value(opts, "--addr")?.ok_or("--addr is required for daemon verbs")?;
    let endpoint = Endpoint::parse(addr)?;
    Client::connect(&endpoint).map_err(|e| format!("cannot connect to {endpoint}: {e}"))
}

/// Build one request from the shared submit/bench flags.
fn request_from(opts: &[String]) -> Result<SubmitRequest, String> {
    if let Some(spec) = opt_value(opts, "--topo")? {
        let topology = TopologySpec::parse(spec).map_err(|e| format!("--topo: {e}"))?;
        return request_on(opts, topology);
    }
    let n: usize = opt_parsed(opts, "--n")?.unwrap_or(16);
    if !n.is_power_of_two() {
        return Err(format!("--n {n} is not a power of two (hypercube size)"));
    }
    let dims = n.trailing_zeros();
    request_on(opts, TopologySpec::Hypercube { dims })
}

/// One request on `topology` from the shared submit/bench flags.
fn request_on(opts: &[String], topology: TopologySpec) -> Result<SubmitRequest, String> {
    topology.check().map_err(|e| e.detail)?;
    let n = topology.num_nodes();
    let d: usize = opt_parsed(opts, "--d")?.unwrap_or(4.min(n - 1));
    let bytes: u32 = opt_parsed(opts, "--bytes")?.unwrap_or(1024);
    let seed: u64 = opt_parsed(opts, "--seed")?.unwrap_or(0);
    let scheduler = opt_value(opts, "--scheduler")?
        .unwrap_or("RS_NL")
        .to_string();
    registry::find(&scheduler).ok_or_else(|| format!("unknown scheduler `{scheduler}`"))?;
    let scheme = match opt_value(opts, "--scheme")?.unwrap_or("default") {
        "s1" | "S1" => SchemeChoice::S1,
        "s2" | "S2" => SchemeChoice::S2,
        "default" => SchemeChoice::Default,
        other => return Err(format!("--scheme: `{other}` is not s1|s2|default")),
    };
    let backend = match opt_value(opts, "--backend")? {
        Some(v) => BackendKind::parse(v).ok_or_else(|| format!("unknown backend `{v}`"))?,
        None => RunConfig::from_env(1).backend,
    };
    let cost_model = match opt_value(opts, "--costmodel")? {
        Some(v) => v.parse().map_err(|e| format!("--costmodel: {e}"))?,
        None => RunConfig::from_env(1).cost_model,
    };
    Ok(SubmitRequest {
        request_id: 0,
        want_schedule: opt_flag(opts, "--want-schedule"),
        topology,
        scheduler,
        scheme,
        backend,
        seed,
        matrix: Generator::dregular(n, d.min(n - 1), bytes).generate(seed),
        cost_model,
    })
}

const DAEMON_FLAGS: &[&str] = &[
    "--addr",
    "--n",
    "--d",
    "--bytes",
    "--seed",
    "--scheduler",
    "--topo",
    "--scheme",
    "--backend",
    "--costmodel",
    "--requests",
    "--dims",
];

fn submit(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, DAEMON_FLAGS, &["--want-schedule"])?;
    let req = request_from(opts)?;
    let mut client = connect(opts)?;
    let t0 = Instant::now();
    let reply = client.submit(req.clone()).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    println!(
        "{}  {} on {} seed={} backend={}{}",
        reply.fingerprint,
        req.scheduler,
        req.topology,
        req.seed,
        req.backend.label(),
        if req.cost_model.is_uniform() {
            String::new()
        } else {
            format!(" cost={}", req.cost_model)
        }
    );
    println!(
        "makespan: {:.3} ms over {} phase(s)  ({})",
        reply.estimate.makespan_ns as f64 / 1e6,
        reply.estimate.phase_end_ns.len(),
        if reply.freshly_compiled {
            "freshly compiled"
        } else {
            "served from cache/dedup"
        },
    );
    if let Some(schedule) = &reply.schedule {
        println!(
            "schedule: n={} phases={} messages={} ops={}",
            schedule.n(),
            schedule.num_phases(),
            schedule.message_count(),
            schedule.ops(),
        );
    }
    println!("round trip: {:.2} ms", elapsed.as_secs_f64() * 1e3);
    Ok(ExitCode::SUCCESS)
}

fn bench(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, DAEMON_FLAGS, &["--want-schedule"])?;
    let requests: usize = opt_parsed(opts, "--requests")?.unwrap_or(200);
    if requests == 0 {
        return Err("--requests must be positive".into());
    }
    if let Some(spec) = opt_value(opts, "--dims")? {
        return bench_dims(opts, spec, requests);
    }
    let req = request_from(opts)?;
    let mut client = connect(opts)?;
    let before = client.stats().map_err(|e| e.to_string())?;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        client.submit(req.clone()).map_err(|e| e.to_string())?;
        latencies_us.push(t.elapsed().as_micros() as u64);
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = client.stats().map_err(|e| e.to_string())?;
    latencies_us.sort_unstable();
    let d_completed = after.completed.saturating_sub(before.completed);
    let d_compiles = after.compiles.saturating_sub(before.compiles);
    println!(
        "{requests} request(s) in {:.2} ms -> {:.0} req/s",
        wall * 1e3,
        requests as f64 / wall.max(1e-9),
    );
    println!(
        "latency: p50 {}us p99 {}us max {}us",
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.99),
        latencies_us.last().copied().unwrap_or(0),
    );
    println!(
        "daemon dedup: {d_compiles} compile(s) / {d_completed} completed ({:.1}% hit rate)",
        if d_completed == 0 {
            0.0
        } else {
            (1.0 - d_compiles as f64 / d_completed as f64) * 100.0
        },
    );
    Ok(ExitCode::SUCCESS)
}

/// `bench --dims <lo>..<hi>`: replay `requests` requests per hypercube
/// dimension against the live daemon and append one `daemon/d{dim}` row
/// per dimension (mean/min/max ns per request) to `BENCH_scale_sim.json`
/// — the daemon-side leg of the scale curve `benches/scale.rs` starts.
/// The daemon must have been started with a `--max-nodes` admitting the
/// largest dimension.
fn bench_dims(opts: &[String], spec: &str, requests: usize) -> Result<ExitCode, String> {
    if opt_value(opts, "--topo")?.is_some() {
        return Err("--dims sweeps hypercubes; it cannot be combined with --topo".into());
    }
    let (lo, hi) = spec
        .split_once("..")
        .and_then(|(a, b)| Some((a.trim().parse::<u32>().ok()?, b.trim().parse::<u32>().ok()?)))
        .filter(|&(lo, hi)| lo >= 1 && lo <= hi)
        .ok_or_else(|| format!("--dims: `{spec}` is not `<lo>..<hi>` with 1 <= lo <= hi"))?;
    let mut client = connect(opts)?;
    let mut cases = Vec::new();
    println!("daemon sweep: dims {lo}..{hi}, {requests} request(s) each");
    for dim in lo..=hi {
        let req = request_on(opts, TopologySpec::Hypercube { dims: dim })?;
        let mut latencies_ns: Vec<f64> = Vec::with_capacity(requests);
        let t0 = Instant::now();
        for _ in 0..requests {
            let t = Instant::now();
            client.submit(req.clone()).map_err(|e| e.to_string())?;
            latencies_ns.push(t.elapsed().as_nanos() as f64);
        }
        let wall = t0.elapsed().as_secs_f64();
        let case = case(format!("daemon/d{dim}"), &latencies_ns);
        println!(
            "  d={dim:<2} ({:>7} nodes): {:>8.0} req/s, mean {:>10.1} us",
            1u64 << dim,
            requests as f64 / wall.max(1e-9),
            case.mean_ns / 1e3,
        );
        cases.push(case);
    }
    let path = criterion::append_report("scale_sim", &cases).map_err(|e| e.to_string())?;
    println!("appended {} row(s) to {}", cases.len(), path.display());
    Ok(ExitCode::SUCCESS)
}

fn daemon_stats(addr: &str) -> Result<ExitCode, String> {
    let endpoint = Endpoint::parse(addr)?;
    let mut client =
        Client::connect(&endpoint).map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    let s = client.stats().map_err(|e| e.to_string())?;
    println!(
        "daemon: {endpoint}{}",
        if s.draining != 0 { "  (draining)" } else { "" }
    );
    println!(
        "connections: {} active / {} accepted, {} mid-stream disconnect(s)",
        s.connections_active, s.connections_accepted, s.disconnects_midstream
    );
    println!(
        "requests: {} submitted, {} completed, {} in flight, queue depth {}",
        s.submits, s.completed, s.inflight, s.queue_depth
    );
    println!(
        "dedup: {} compile(s), {} coalesced, hit rate {:.1}%",
        s.compiles,
        s.coalesced,
        s.dedup_hit_rate() * 100.0
    );
    println!(
        "schedule cache: {} request(s), {} mem hit(s), {} store hit(s), {} miss(es)",
        s.cache_requests, s.cache_mem_hits, s.cache_store_hits, s.cache_misses
    );
    println!(
        "estimate cache: {} hit(s), {} miss(es)",
        s.estimate_hits, s.estimate_misses
    );
    println!(
        "incremental: {} delta submit(s), {} base hit(s), {} patch(es) ({:.1}% patch rate), {} fallback(s), {} validation rejection(s)",
        s.delta_submits,
        s.incr_base_hits,
        s.incr_patches,
        s.patch_rate() * 100.0,
        s.incr_fallbacks,
        s.incr_validation_rejections
    );
    println!(
        "rejections: {} quota, {} overload, {} shutdown",
        s.rejected_quota, s.rejected_overload, s.rejected_shutdown
    );
    println!(
        "errors: {} malformed, {} other, {} write failure(s)",
        s.errors_malformed, s.errors_other, s.write_failures
    );
    Ok(ExitCode::SUCCESS)
}

fn shutdown(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, &["--addr"], &[])?;
    let mut client = connect(opts)?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("shutdown acknowledged; daemon is draining");
    Ok(ExitCode::SUCCESS)
}
