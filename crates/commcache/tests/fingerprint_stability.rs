//! Property tests of fingerprint stability — the contract that lets keys
//! outlive processes: equal inputs always collide, any single
//! perturbation separates, and the concrete digest of a pinned input
//! never drifts (golden value).

use commcache::{canonical_bytes, Fingerprint, InstanceKey};
use commsched::CommMatrix;
use hypercube::{Hypercube, Mesh2d};
use proptest::prelude::*;

/// Sparse matrix on `n = 2^dim` nodes from raw triples (same construction
/// as the registry property tests).
fn matrix_from(dim: u32, cells: &[(usize, usize, u32)]) -> CommMatrix {
    let n = 1usize << dim;
    let mut com = CommMatrix::new(n);
    for &(s, d, bytes) in cells {
        let (s, d) = (s % n, d % n);
        if s != d && com.get(s, d) == 0 {
            com.set(s, d, bytes);
        }
    }
    com
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn equal_inputs_always_collide(
        dim in 3u32..6,
        cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_536), 0..128),
        seed in 0u64..10_000,
    ) {
        // Independently constructed (but equal) matrices and topologies
        // must produce identical keys — across both derivation paths.
        let cube_a = Hypercube::new(dim);
        let cube_b = Hypercube::new(dim);
        let com_a = matrix_from(dim, &cells);
        let com_b = matrix_from(dim, &cells);
        for entry in commsched::registry::all() {
            let a = Fingerprint::compute(&com_a, &cube_a, entry.name(), seed);
            let b = Fingerprint::compute(&com_b, &cube_b, entry.name(), seed);
            prop_assert_eq!(a, b);
            let split = InstanceKey::compute(&com_b, &cube_b).schedule_key(entry.name(), seed);
            prop_assert_eq!(a, split);
        }
    }

    #[test]
    fn any_single_weight_perturbation_changes_the_key(
        dim in 3u32..6,
        cells in proptest::collection::vec((0usize..32, 0usize..32, 1u32..65_535), 1..128),
        pick in 0usize..128,
        seed in 0u64..10_000,
    ) {
        let cube = Hypercube::new(dim);
        let com = matrix_from(dim, &cells);
        let base = Fingerprint::compute(&com, &cube, "RS_NL", seed);
        // Perturb one existing message's weight by +1 (stays non-zero, so
        // the pattern shape is unchanged — only the weight moved).
        let messages: Vec<_> = com.messages().collect();
        if let Some(&(src, dst, bytes)) = messages.get(pick % messages.len().max(1)) {
            let mut perturbed = com.clone();
            perturbed.set(src.index(), dst.index(), bytes + 1);
            prop_assert_ne!(Fingerprint::compute(&perturbed, &cube, "RS_NL", seed), base);
        }
        // Seed and scheduler-name (i.e. options) perturbations.
        prop_assert_ne!(Fingerprint::compute(&com, &cube, "RS_NL", seed ^ 1), base);
        prop_assert_ne!(Fingerprint::compute(&com, &cube, "RS_NL_NOPAIR", seed), base);
    }

    #[test]
    fn topology_identity_is_part_of_the_key(
        cells in proptest::collection::vec((0usize..16, 0usize..16, 1u32..4096), 1..64),
        seed in 0u64..1000,
    ) {
        // Same 16-node matrix, three different 16-node machines: distinct
        // keys (a schedule for one is not a schedule for another).
        let com = matrix_from(4, &cells);
        let cube = Fingerprint::compute(&com, &Hypercube::new(4), "RS_NL", seed);
        let mesh = Fingerprint::compute(&com, &Mesh2d::new(4, 4), "RS_NL", seed);
        let flat = Fingerprint::compute(&com, &Mesh2d::new(2, 8), "RS_NL", seed);
        prop_assert_ne!(cube, mesh);
        prop_assert_ne!(mesh, flat);
        prop_assert_ne!(cube, flat);
    }
}

/// The cross-process stability contract, pinned: this exact digest was
/// computed once and hardcoded; any process, platform, or refactor that
/// produces a different value has silently invalidated every persisted
/// artifact and must bump [`commcache::LAYOUT_VERSION`] instead.
#[test]
fn golden_fingerprint_never_drifts() {
    let mut com = CommMatrix::new(8);
    com.set(0, 1, 16);
    com.set(1, 2, 32);
    com.set(7, 0, 128);
    let cube = Hypercube::new(3);
    let fp = Fingerprint::compute(&com, &cube, "RS_NL", 12345);
    assert_eq!(
        fp.to_hex(),
        "cce9de5dc5df34710e6a70e1bda79edf",
        "canonical layout drifted — bump LAYOUT_VERSION if intentional"
    );
    // And the canonical byte stream itself is pinned at the field level.
    let bytes = canonical_bytes(&com, &cube, "RS_NL", 12345);
    assert_eq!(&bytes[..4], b"CCFP");
    assert_eq!(bytes[4], commcache::LAYOUT_VERSION);
    let name = cube_name_len();
    // tag(5) + name len(4) + name + nodes(8) + links(8) + n(8) + count(8)
    // + 3 messages * 12 + sched name len(4) + "RS_NL"(5) + seed(8).
    assert_eq!(bytes.len(), 5 + 4 + name + 8 + 8 + 8 + 8 + 36 + 4 + 5 + 8);
}

fn cube_name_len() -> usize {
    use hypercube::Topology;
    Hypercube::new(3).name().len()
}

/// Golden keys across every topology kind: one pinned 16-node matrix on
/// four distinct 16-node fabrics (plus the 16-node mesh). Each kind's
/// report name feeds the hash, so each digest is a cross-process contract
/// — a drift here invalidates every persisted artifact for that fabric.
#[test]
fn golden_fingerprints_per_topology_kind() {
    let mut com = CommMatrix::new(16);
    com.set(0, 5, 64);
    com.set(5, 0, 64);
    com.set(3, 12, 4096);
    com.set(9, 2, 1);
    let golden = [
        ("cube:d=4", "318239ece48ae8c4310714ec7b09d00b"),
        ("mesh:4x4", "ec285f1949d726484e7aca8cb9dc4340"),
        ("torus:4x4", "ffcb0d17dcf156e246fbf36a8b606427"),
        ("torus:2x2x2x2", "3ee92d496a09e387632728755bd1e31b"),
        ("fattree:k=4", "06264410a45349579b2a2cd2fb018ef4"),
    ];
    for (spec, hex) in golden {
        let kind: topo::TopologySpec = spec.parse().unwrap();
        let t = kind.build();
        let fp = Fingerprint::compute(&com, t.as_ref(), "RS_NL", 7);
        assert_eq!(
            fp.to_hex(),
            hex,
            "fingerprint for {spec} drifted — bump LAYOUT_VERSION if intentional"
        );
    }
    // All five are distinct: same matrix, five incompatible machines.
    let mut keys: Vec<&str> = golden.iter().map(|(_, h)| *h).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), golden.len());
}
