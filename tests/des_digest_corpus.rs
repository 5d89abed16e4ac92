//! Byte-identity corpus for the discrete-event engine under the atomic
//! claim policy.
//!
//! Every case simulates one registry schedule of one random d-regular
//! pattern with the full trace on, and folds everything the run reports
//! into one FNV-1a-64 digest: the compact trace, the makespan, the
//! behavioural `SimStats` fields, and the error text of runs that fail
//! (bounded-buffer deadlocks are part of the corpus on purpose). The
//! committed fixture `tests/fixtures/des_digest_corpus.txt` pins one
//! digest per case, so any change to the engine's claim arbitration,
//! event order, or accounting shows up as a named mismatching case.
//!
//! To regenerate the fixture after a deliberate model change, run
//! `DES_DIGEST_CORPUS_WRITE=tests/fixtures/des_digest_corpus.txt cargo test
//! --test des_digest_corpus` and review the diff.

use std::fmt::Write as _;

use commrt::Scheme;
use commsched::registry;
use hypercube::{Hypercube, Topology};
use simnet::{MachineParams, PortModel, SimReport, SimStats};

const FIXTURE: &str = include_str!("fixtures/des_digest_corpus.txt");

const DIMS: [u32; 3] = [3, 4, 5];
const SIZES: [u32; 3] = [64, 1024, 64 * 1024];
const SEEDS: [u64; 2] = [1, 2];

/// Out-degrees per node: sparse, medium, dense, and all-to-all.
fn densities(n: usize) -> [usize; 4] {
    [1, 3, 6.min(n - 1), n - 1]
}

/// The machine variants of one cell: both port models, unbounded and
/// bounded (2–4 KB, growing with the cube) system buffers, and the
/// paper's overheads or none at all (zero overheads make same-time ties
/// the common case).
fn machines(dim: u32) -> Vec<(String, MachineParams)> {
    let mut out = Vec::new();
    for (pname, ports) in [("U", PortModel::Unified), ("S", PortModel::Split)] {
        for buffer in [None, Some(2048 + 1024 * u64::from(dim - 3))] {
            for zero_overheads in [false, true] {
                let mut p = MachineParams {
                    ports,
                    buffer_bytes: buffer,
                    ..MachineParams::ipsc860()
                };
                if zero_overheads {
                    p.send_overhead_ns = 0;
                    p.recv_post_ns = 0;
                    p.hop_ns = 0;
                }
                let bname = buffer.map_or("inf".to_string(), |b| b.to_string());
                let oname = if zero_overheads { "zero" } else { "dflt" };
                out.push((format!("{pname}/{bname}/{oname}"), p));
            }
        }
    }
    out
}

/// Every field of `SimStats` that describes behaviour, listed explicitly
/// so that new counters never silently change the digests.
/// `state_bytes` is left out: it is an allocator-capacity proxy for
/// resident memory, not an observable of the simulated machine.
fn stats_text(s: &SimStats) -> String {
    let mut out = format!(
        "transfers={} blocked={} blocked_ns_total={} blocked_ns_max={} \
         link_busy_ns_total={} link_busy_ns_max={} copies={} events={} peak_live={}\n",
        s.transfers,
        s.transfers_blocked,
        s.blocked_ns_total,
        s.blocked_ns_max,
        s.link_busy_ns_total,
        s.link_busy_ns_max,
        s.copies,
        s.events,
        s.peak_transfers_live,
    );
    for (i, n) in s.nodes.iter().enumerate() {
        writeln!(
            out,
            "P{i} busy={} sends={} recvs={} direct={} buffered={} peak_buf={} finish={}",
            n.engine_busy_ns,
            n.sends,
            n.recvs,
            n.direct_bytes,
            n.buffered_bytes,
            n.peak_buffer_bytes,
            n.finish_ns
        )
        .unwrap();
    }
    out
}

fn run_text(result: Result<(SimReport, Vec<simnet::TraceEvent>), simnet::SimError>) -> String {
    match result {
        Ok((report, trace)) => {
            let mut out = String::new();
            for ev in &trace {
                out.push_str(&ev.compact());
                out.push('\n');
            }
            writeln!(out, "makespan={}", report.makespan_ns).unwrap();
            out.push_str(&stats_text(&report.stats));
            out
        }
        Err(e) => format!("error: {e}\n"),
    }
}

/// `(case name, digest)` for every case, in fixture order, plus the
/// number of cases that ended in a deadlock.
fn corpus() -> (Vec<(String, u64)>, usize) {
    let mut out = Vec::new();
    let mut deadlocks = 0;
    for dim in DIMS {
        let cube = Hypercube::new(dim);
        let n = cube.num_nodes();
        let machines = machines(dim);
        for k in densities(n) {
            for bytes in SIZES {
                for seed in SEEDS {
                    // All-to-all on the largest cube is the slowest cell
                    // by far; one seed keeps the corpus under ~10 s in
                    // debug builds.
                    if dim == 5 && k == n - 1 && seed != SEEDS[0] {
                        continue;
                    }
                    let com = workloads::random_dregular(n, k, bytes, seed);
                    for &entry in registry::all() {
                        let schedule = entry.schedule(&com, &cube, seed);
                        let scheme = Scheme::for_scheduler(entry);
                        for (mname, params) in &machines {
                            let result =
                                commrt::run_schedule_traced(&cube, params, &com, &schedule, scheme);
                            if let Err(simnet::SimError::Deadlock { .. }) = result {
                                deadlocks += 1;
                            }
                            let digest = commsched::fnv1a64(run_text(result).as_bytes());
                            let name =
                                format!("d{dim}/k{k}/{bytes}B/s{seed}/{}/{mname}", entry.name());
                            out.push((name, digest));
                        }
                    }
                }
            }
        }
    }
    (out, deadlocks)
}

#[test]
fn des_digests_match_the_committed_corpus() {
    let (actual, deadlocks) = corpus();
    // The bounded-buffer deadlock path must stay part of the corpus.
    assert!(deadlocks > 0, "no case deadlocks");
    let text: String = actual
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect();
    if let Ok(path) = std::env::var("DES_DIGEST_CORPUS_WRITE") {
        std::fs::write(&path, &text).expect("write corpus fixture");
        return;
    }
    let expected: Vec<(&str, &str)> = FIXTURE
        .lines()
        .map(|l| l.split_once(' ').expect("`name digest` fixture line"))
        .collect();
    assert_eq!(
        expected.len(),
        actual.len(),
        "case count changed; regenerate the fixture deliberately"
    );
    let mismatches: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|((name, d), (ename, ed))| name != ename || format!("{d:016x}") != *ed)
        .map(|((name, d), (ename, ed))| format!("{name} {d:016x} (fixture: {ename} {ed})"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} cases diverge from the corpus; first: {:#?}",
        mismatches.len(),
        actual.len(),
        &mismatches[..mismatches.len().min(8)]
    );
}
