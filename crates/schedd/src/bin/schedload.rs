//! `schedload` — duplicate-heavy load generator for a live `schedd`.
//!
//! Replays a randomized stream of schedule requests drawn from a small
//! pool of unique instances (the "persistent, slightly-varying
//! pattern" scenario), pipelined over one or more connections, and
//! records sustained requests/sec, the daemon-measured dedup hit rate,
//! and client-side p50/p99 latency into `BENCH_schedd_load.json`.
//!
//! ```text
//! schedload --addr unix:/tmp/schedd.sock --requests 1000000 --unique 32
//! ```
//!
//! `--perturb <rate>` turns the given fraction of requests into
//! *drifted* variants shipped as `SubmitDelta` frames against their
//! pool instance — the drifting-pattern scenario. The daemon must run
//! with `--incremental` for these to patch; the run records the
//! daemon-measured patch rate alongside the dedup rate.
//!
//! With `--expect-rps` / `--expect-dedup-rate` / `--expect-patch-rate`
//! the process exits non-zero when the measured numbers fall short —
//! the CI smoke job's assertion mechanism.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use commcache::InstanceKey;
use commrt::BackendKind;
use commsched::{CommMatrix, MatrixDelta};
use hypercube::NodeId;
use schedd::{
    Client, Endpoint, Request, Response, SchemeChoice, SubmitDeltaRequest, SubmitRequest,
    TopologySpec,
};
use workloads::Generator;

const USAGE: &str = "\
schedload - duplicate-heavy load generator for schedd

USAGE:
    schedload --addr <endpoint> [options]

OPTIONS:
    --addr <endpoint>        unix:<path> or tcp:<host:port> (required)
    --requests <n>           total requests to replay        [default: 200000]
    --connections <n>        concurrent client connections   [default: 1]
    --batch <n>              pipelined requests per window   [default: 64]
    --unique <n>             unique instances in the pool    [default: 16]
    --dims <n>               hypercube dimension             [default: 4]
    --degree <n>             messages per node               [default: 4]
    --bytes <n>              message size in bytes           [default: 1024]
    --scheduler <name>       registry scheduler              [default: RS_NL]
    --backend <des|analytic> estimate backend                [default: analytic]
    --want-schedule          stream schedule payloads back too
    --perturb <rate>         fraction of requests drifted and shipped as
                             SubmitDelta frames (0..1)        [default: 0]
    --json <path>            report path    [default: BENCH_schedd_load.json]
    --expect-rps <x>         exit 1 if sustained req/s falls below x
    --expect-dedup-rate <x>  exit 1 if dedup hit rate falls below x (0..1)
    --expect-patch-rate <x>  exit 1 if delta patch rate falls below x (0..1)
    -h, --help               print this help
";

struct Opts {
    addr: Endpoint,
    requests: usize,
    connections: usize,
    batch: usize,
    unique: usize,
    dims: u32,
    degree: usize,
    bytes: u32,
    scheduler: String,
    backend: BackendKind,
    want_schedule: bool,
    perturb: f64,
    json: String,
    expect_rps: Option<f64>,
    expect_dedup: Option<f64>,
    expect_patch: Option<f64>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        addr: Endpoint::Unix("/tmp/schedd.sock".into()),
        requests: 200_000,
        connections: 1,
        batch: 64,
        unique: 16,
        dims: 4,
        degree: 4,
        bytes: 1024,
        scheduler: "RS_NL".into(),
        backend: BackendKind::Analytic,
        want_schedule: false,
        perturb: 0.0,
        json: "BENCH_schedd_load.json".into(),
        expect_rps: None,
        expect_dedup: None,
        expect_patch: None,
    };
    let mut saw_addr = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        }
        match arg.as_str() {
            "--addr" => {
                opts.addr = Endpoint::parse(&value("--addr")?)?;
                saw_addr = true;
            }
            "--requests" => opts.requests = num("--requests", value("--requests")?)?,
            "--connections" => opts.connections = num("--connections", value("--connections")?)?,
            "--batch" => opts.batch = num("--batch", value("--batch")?)?,
            "--unique" => opts.unique = num("--unique", value("--unique")?)?,
            "--dims" => opts.dims = num("--dims", value("--dims")?)?,
            "--degree" => opts.degree = num("--degree", value("--degree")?)?,
            "--bytes" => opts.bytes = num("--bytes", value("--bytes")?)?,
            "--scheduler" => opts.scheduler = value("--scheduler")?,
            "--backend" => {
                let v = value("--backend")?;
                opts.backend = BackendKind::parse(&v).ok_or(format!("unknown backend `{v}`"))?;
            }
            "--want-schedule" => opts.want_schedule = true,
            "--perturb" => opts.perturb = num("--perturb", value("--perturb")?)?,
            "--json" => opts.json = value("--json")?,
            "--expect-rps" => opts.expect_rps = Some(num("--expect-rps", value("--expect-rps")?)?),
            "--expect-dedup-rate" => {
                opts.expect_dedup = Some(num("--expect-dedup-rate", value("--expect-dedup-rate")?)?)
            }
            "--expect-patch-rate" => {
                opts.expect_patch = Some(num("--expect-patch-rate", value("--expect-patch-rate")?)?)
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !saw_addr {
        return Err("--addr is required".into());
    }
    if opts.connections == 0 || opts.batch == 0 || opts.unique == 0 || opts.requests == 0 {
        return Err("--requests/--connections/--batch/--unique must be positive".into());
    }
    if !(0.0..=1.0).contains(&opts.perturb) {
        return Err("--perturb must be in 0..1".into());
    }
    TopologySpec::Hypercube { dims: opts.dims }
        .check()
        .map_err(|e| format!("--dims: {}", e.detail))?;
    Ok(opts)
}

/// splitmix64: cheap, seedable index mixer for the duplicate pool.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic one-message drift of `base`: zero one existing
/// message and redirect its bytes (salt-varied) to a currently-free
/// destination, expressed as a delta against the unperturbed base.
fn drifted_delta(base: &CommMatrix, salt: u64) -> MatrixDelta {
    let msgs: Vec<(NodeId, NodeId, u32)> = base.messages().collect();
    let (src, old_dst, _) = msgs[mix(salt) as usize % msgs.len()];
    let n = base.n();
    let mut target = base.clone();
    target.set(src.0 as usize, old_dst.0 as usize, 0);
    let start = mix(salt ^ 0xD1F7) as usize % n;
    for off in 0..n {
        let dst = (start + off) % n;
        if dst != src.0 as usize && dst != old_dst.0 as usize && base.get(src.0 as usize, dst) == 0
        {
            let bytes = 64 + (mix(salt ^ 0xB17E) % 4096) as u32;
            target.set(src.0 as usize, dst, bytes);
            break;
        }
    }
    MatrixDelta::diff(base, &target).expect("same-dimension matrices always diff")
}

struct ConnResult {
    completed: usize,
    server_errors: usize,
    latencies_us: Vec<u64>,
}

/// Replay `count` requests over one pipelined connection.
fn run_connection(
    opts: &Opts,
    pool: &[SubmitRequest],
    keys: &[InstanceKey],
    conn_index: usize,
    count: usize,
) -> Result<ConnResult, String> {
    let mut client =
        Client::connect(&opts.addr).map_err(|e| format!("connect {}: {e}", opts.addr))?;
    let mut latencies_us = Vec::with_capacity(count);
    let mut sent_at: Vec<Instant> = Vec::with_capacity(count + 1);
    sent_at.push(Instant::now()); // id 0 unused; ids start at 1
    let mut completed = 0usize;
    let mut server_errors = 0usize;
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < count {
        while sent < count && sent - received < opts.batch {
            let salt = (conn_index as u64) << 32 | sent as u64;
            let pick = mix(salt) as usize % pool.len();
            let drifted =
                opts.perturb > 0.0 && (mix(salt ^ 0x5EED) as f64 / u64::MAX as f64) < opts.perturb;
            let request = if drifted {
                let base = &pool[pick];
                Request::SubmitDelta(SubmitDeltaRequest {
                    request_id: client.next_request_id(),
                    want_schedule: base.want_schedule,
                    topology: base.topology.clone(),
                    scheduler: base.scheduler.clone(),
                    scheme: base.scheme,
                    backend: base.backend,
                    seed: base.seed,
                    base: keys[pick],
                    delta: drifted_delta(&base.matrix, mix(salt ^ 0xDE17A)),
                    cost_model: base.cost_model,
                })
            } else {
                let mut req = pool[pick].clone();
                req.request_id = client.next_request_id();
                Request::Submit(req)
            };
            sent_at.push(Instant::now());
            client.send(&request).map_err(|e| format!("send: {e}"))?;
            sent += 1;
        }
        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
        let id = resp.request_id() as usize;
        if id == 0 || id >= sent_at.len() {
            return Err(format!("response for unknown request id {id}"));
        }
        latencies_us.push(sent_at[id].elapsed().as_micros() as u64);
        match resp {
            Response::Schedule(_) => completed += 1,
            Response::Error(err) => {
                server_errors += 1;
                if server_errors <= 3 {
                    eprintln!("schedload: server error: {err}");
                }
            }
            other => {
                return Err(format!(
                    "unexpected response kind for id {}",
                    other.request_id()
                ))
            }
        }
        received += 1;
    }
    Ok(ConnResult {
        completed,
        server_errors,
        latencies_us,
    })
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[rank]
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("schedload: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // The duplicate pool: `unique` instances varying only by seed, so
    // every repeat is an exact fingerprint duplicate.
    let n = 1usize << opts.dims;
    let pool: Vec<SubmitRequest> = (0..opts.unique)
        .map(|i| SubmitRequest {
            request_id: 0,
            want_schedule: opts.want_schedule,
            topology: TopologySpec::Hypercube { dims: opts.dims },
            scheduler: opts.scheduler.clone(),
            scheme: SchemeChoice::Default,
            backend: opts.backend,
            seed: i as u64,
            matrix: Generator::dregular(n, opts.degree.min(n - 1), opts.bytes).generate(i as u64),
            cost_model: schedd::LinkCostModel::Uniform,
        })
        .collect();
    let topo = TopologySpec::Hypercube { dims: opts.dims }.build();
    let keys: Vec<InstanceKey> = pool
        .iter()
        .map(|req| InstanceKey::compute(&req.matrix, topo.as_ref()))
        .collect();

    // Daemon counters before/after bracket exactly this run.
    let mut control = match Client::connect(&opts.addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("schedload: cannot connect to {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    // Drifted requests patch against their pool instance, so seed every
    // base into the daemon first — outside the measured bracket.
    if opts.perturb > 0.0 {
        for req in &pool {
            if let Err(e) = control.submit(req.clone()) {
                eprintln!("schedload: seeding base instance failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let before = match control.stats() {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("schedload: stats failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let started = Instant::now();
    let per_conn = opts.requests / opts.connections;
    let remainder = opts.requests % opts.connections;
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|c| {
                let opts = &opts;
                let pool = &pool;
                let count = per_conn + usize::from(c < remainder);
                let keys = &keys;
                scope.spawn(move || run_connection(opts, pool, keys, c, count))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });
    let wall = started.elapsed();

    let mut completed = 0usize;
    let mut server_errors = 0usize;
    let mut latencies: Vec<u64> = Vec::with_capacity(opts.requests);
    for result in results {
        match result {
            Ok(conn) => {
                completed += conn.completed;
                server_errors += conn.server_errors;
                latencies.extend(conn.latencies_us);
            }
            Err(msg) => {
                eprintln!("schedload: connection failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    latencies.sort_unstable();

    let after = match control.stats() {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("schedload: stats failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let wall_s = wall.as_secs_f64();
    let rps = completed as f64 / wall_s.max(1e-9);
    let d_completed = after.completed.saturating_sub(before.completed);
    let d_compiles = after.compiles.saturating_sub(before.compiles);
    let dedup_rate = if d_completed == 0 {
        0.0
    } else {
        1.0 - d_compiles as f64 / d_completed as f64
    };
    let d_delta = after.delta_submits.saturating_sub(before.delta_submits);
    let d_patches = after.incr_patches.saturating_sub(before.incr_patches);
    let d_fallbacks = after.incr_fallbacks.saturating_sub(before.incr_fallbacks);
    let patch_rate = if d_delta == 0 {
        0.0
    } else {
        d_patches as f64 / d_delta as f64
    };
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let max = latencies.last().copied().unwrap_or(0);

    println!(
        "schedload: {completed}/{} ok ({server_errors} server errors) in {wall_s:.2}s -> {rps:.0} req/s",
        opts.requests
    );
    println!(
        "schedload: dedup hit rate {:.2}% ({d_compiles} compiles / {d_completed} completed), latency p50 {p50}us p99 {p99}us max {max}us",
        dedup_rate * 100.0
    );
    if opts.perturb > 0.0 {
        println!(
            "schedload: patch rate {:.2}% ({d_patches} patches / {d_delta} delta submits, {d_fallbacks} fallbacks)",
            patch_rate * 100.0
        );
    }

    let json = format!(
        "{{\n  \"group\": \"schedd_load\",\n  \"config\": {{\n    \"requests\": {},\n    \"connections\": {},\n    \"batch\": {},\n    \"unique\": {},\n    \"dims\": {},\n    \"degree\": {},\n    \"bytes\": {},\n    \"scheduler\": \"{}\",\n    \"backend\": \"{}\",\n    \"want_schedule\": {},\n    \"perturb\": {:.6}\n  }},\n  \"results\": {{\n    \"completed\": {},\n    \"server_errors\": {},\n    \"wall_seconds\": {:.6},\n    \"requests_per_sec\": {:.1},\n    \"dedup_hit_rate\": {:.6},\n    \"compiles\": {},\n    \"coalesced\": {},\n    \"delta_submits\": {},\n    \"patches\": {},\n    \"patch_fallbacks\": {},\n    \"patch_rate\": {:.6},\n    \"latency_us\": {{ \"p50\": {}, \"p99\": {}, \"max\": {} }}\n  }}\n}}\n",
        opts.requests,
        opts.connections,
        opts.batch,
        opts.unique,
        opts.dims,
        opts.degree,
        opts.bytes,
        opts.scheduler,
        opts.backend.label(),
        opts.want_schedule,
        opts.perturb,
        completed,
        server_errors,
        wall_s,
        rps,
        dedup_rate,
        d_compiles,
        after.coalesced.saturating_sub(before.coalesced),
        d_delta,
        d_patches,
        d_fallbacks,
        patch_rate,
        p50,
        p99,
        max,
    );
    match std::fs::File::create(&opts.json).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("schedload: wrote {}", opts.json),
        Err(e) => {
            eprintln!("schedload: cannot write {}: {e}", opts.json);
            return ExitCode::FAILURE;
        }
    }

    let mut failed = false;
    if let Some(expect) = opts.expect_rps {
        if rps < expect {
            eprintln!("schedload: FAIL sustained {rps:.0} req/s < expected {expect:.0}");
            failed = true;
        }
    }
    if let Some(expect) = opts.expect_dedup {
        if dedup_rate < expect {
            eprintln!("schedload: FAIL dedup hit rate {dedup_rate:.3} < expected {expect:.3}");
            failed = true;
        }
    }
    if let Some(expect) = opts.expect_patch {
        if patch_rate < expect {
            eprintln!("schedload: FAIL patch rate {patch_rate:.3} < expected {expect:.3}");
            failed = true;
        }
    }
    if server_errors > 0 {
        eprintln!("schedload: FAIL {server_errors} server errors");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
