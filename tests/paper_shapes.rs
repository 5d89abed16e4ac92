//! Shape regression tests against the paper's Table 1: not the absolute
//! milliseconds (our substrate is a simulator), but the orderings,
//! crossovers and ratios the paper reports. Uses small sample counts with
//! fixed seeds, so results are exactly reproducible.

use commrt::{CellResult, ExperimentGrid, WorkloadPoint};
use commsched::SchedulerKind;
use repro_bench::paper_cube;
use workloads::Generator;

/// One Table 1 cell on the paper's 64-node machine: `kind`'s registry
/// entry under its paper scheme, on its historical per-scheduler sample
/// stream of the exactly d-regular generator.
fn cell(kind: SchedulerKind, d: usize, bytes: u32, samples: usize) -> CellResult {
    let result = ExperimentGrid::new()
        .topology("hypercube(6)", paper_cube())
        .scheduler(kind.scheduler())
        .point(WorkloadPoint::per_scheduler(
            Generator::dregular(64, d, bytes),
            d,
            bytes,
        ))
        .samples(samples)
        .execute()
        .expect("cell runs");
    result.at(0, 0).expect("measured cell").result
}

const M128K: u32 = 131_072;

#[test]
fn table1_low_density_ordering_at_128k() {
    // Paper, d=4, 128 KB: RS-family < AC < LP, with LP ~2-3x the rest.
    let rs_n = cell(SchedulerKind::RsN, 4, M128K, 5).comm_ms;
    let ac = cell(SchedulerKind::Ac, 4, M128K, 5).comm_ms;
    let lp = cell(SchedulerKind::Lp, 4, M128K, 5).comm_ms;
    assert!(rs_n < ac, "RS_N {rs_n} !< AC {ac}");
    assert!(ac < lp, "AC {ac} !< LP {lp}");
    assert!(lp > 1.4 * rs_n, "LP should be much worse at low density");
}

#[test]
fn table1_mid_density_rs_nl_wins_at_128k() {
    // Paper, d=16, 128 KB: RS_NL < RS_N < LP < AC.
    let nl = cell(SchedulerKind::RsNl, 16, M128K, 5).comm_ms;
    let n = cell(SchedulerKind::RsN, 16, M128K, 5).comm_ms;
    let lp = cell(SchedulerKind::Lp, 16, M128K, 5).comm_ms;
    let ac = cell(SchedulerKind::Ac, 16, M128K, 5).comm_ms;
    assert!(nl < n, "RS_NL {nl} !< RS_N {n}");
    assert!(n < lp, "RS_N {n} !< LP {lp}");
    assert!(lp < ac, "LP {lp} !< AC {ac}");
}

#[test]
fn table1_high_density_lp_wins_at_128k() {
    // Paper, d=48, 128 KB: LP < RS_NL < RS_N < AC, AC ~1.7x RS_N.
    let lp = cell(SchedulerKind::Lp, 48, M128K, 4).comm_ms;
    let nl = cell(SchedulerKind::RsNl, 48, M128K, 4).comm_ms;
    let n = cell(SchedulerKind::RsN, 48, M128K, 4).comm_ms;
    let ac = cell(SchedulerKind::Ac, 48, M128K, 4).comm_ms;
    assert!(lp < nl, "LP {lp} !< RS_NL {nl}");
    assert!(nl < n, "RS_NL {nl} !< RS_N {n}");
    assert!(n < ac, "RS_N {n} !< AC {ac}");
    assert!(ac > 1.3 * n, "AC should degrade clearly at d=48");
}

#[test]
fn table1_phase_counts_match_paper() {
    // Paper: LP always 63; RS_N ~ d + log2 d; RS_NL 1-3 phases more.
    for (d, expect_rs_n) in [(4usize, 5.92), (16, 19.16), (48, 51.58)] {
        let lp = cell(SchedulerKind::Lp, d, 1024, 4);
        assert_eq!(lp.phases, 63.0);
        let rs_n = cell(SchedulerKind::RsN, d, 1024, 4);
        assert!(
            (rs_n.phases - expect_rs_n).abs() < 4.0,
            "d={d}: RS_N phases {} vs paper {expect_rs_n}",
            rs_n.phases
        );
        let rs_nl = cell(SchedulerKind::RsNl, d, 1024, 4);
        assert!(rs_nl.phases >= rs_n.phases - 0.5);
        assert!(rs_nl.phases <= rs_n.phases + 6.0);
    }
}

#[test]
fn table1_scheduling_costs_match_paper_bands() {
    // Paper comp rows: RS_N {d=4: 1.73, d=48: 20.26} ms; RS_NL ~3x RS_N;
    // LP negligible.
    let rs_n_4 = cell(SchedulerKind::RsN, 4, 1024, 4).comp_ms;
    let rs_n_48 = cell(SchedulerKind::RsN, 48, 1024, 4).comp_ms;
    assert!((1.0..3.5).contains(&rs_n_4), "RS_N d=4 comp {rs_n_4}");
    assert!((14.0..32.0).contains(&rs_n_48), "RS_N d=48 comp {rs_n_48}");
    let nl_48 = cell(SchedulerKind::RsNl, 48, 1024, 4).comp_ms;
    let ratio = nl_48 / rs_n_48;
    assert!((1.8..4.5).contains(&ratio), "RS_NL/RS_N comp ratio {ratio}");
    let lp = cell(SchedulerKind::Lp, 48, 1024, 4).comp_ms;
    assert!(lp < 0.2, "LP comp {lp}");
}

#[test]
fn fig10_overhead_fraction_drops_with_message_size() {
    // Figures 10/11: comp/comm falls as messages grow, with a sharp drop
    // across the 100-byte protocol switch; negligible at 128 KB.
    let frac = |bytes: u32| {
        let c = cell(SchedulerKind::RsN, 16, bytes, 4);
        c.comp_ms / c.comm_ms
    };
    let at_64 = frac(64);
    let at_256 = frac(256);
    let at_128k = frac(M128K);
    assert!(
        at_64 > at_256,
        "drop across the protocol switch: {at_64} vs {at_256}"
    );
    assert!(at_256 > at_128k);
    assert!(
        at_128k < 0.05,
        "fraction at 128 KB should be negligible: {at_128k}"
    );
}

#[test]
fn fig5_regions_lp_and_rs_each_win_somewhere() {
    // Figure 5's qualitative content: the (d, M) plane is genuinely split —
    // LP owns (48, 64 KB); the RS family owns (8, 64 KB); at tiny messages
    // and low density AC is within a whisker of the best (its region in the
    // paper once scheduling costs are considered).
    let at = |kind, d, bytes| cell(kind, d, bytes, 4).comm_ms;

    let lp_big = at(SchedulerKind::Lp, 48, 65_536);
    let rs_big = at(SchedulerKind::RsNl, 48, 65_536);
    assert!(lp_big < rs_big, "LP must win at (48, 64KB)");

    let lp_mid = at(SchedulerKind::Lp, 8, 65_536);
    let rs_mid = at(SchedulerKind::RsNl, 8, 65_536);
    assert!(rs_mid < lp_mid, "RS_NL must win at (8, 64KB)");

    let ac_small = at(SchedulerKind::Ac, 4, 64);
    let best_small = [
        at(SchedulerKind::Lp, 4, 64),
        at(SchedulerKind::RsN, 4, 64),
        at(SchedulerKind::RsNl, 4, 64),
    ]
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    assert!(
        ac_small < best_small * 1.15,
        "AC at (4, 64B) should be competitive: {ac_small} vs {best_small}"
    );
}
