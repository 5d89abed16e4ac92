use std::fmt;
use std::sync::Arc;

use hypercube::{Hypercube, Mesh2d, Topology};

use crate::{BuildError, FatTree, Torus, MAX_NODES};

/// A topology as *data*: a validated description that can be stored,
/// printed, compared, hashed, sent over a wire, and built into a live
/// [`Topology`] on demand.
///
/// The string grammar (one kind tag, a colon, a kind-specific spec):
///
/// | string | builds |
/// |--------|--------|
/// | `cube:d=6` | [`Hypercube::new`]`(6)` — 64 nodes |
/// | `mesh:4x8` | [`Mesh2d::new`]`(4, 8)` — 32 nodes |
/// | `torus:4x4x4x4` | [`Torus::new`]`(&[4, 4, 4, 4])` — 256 nodes |
/// | `fattree:k=8` | [`FatTree::new`]`(8)` — 128 hosts |
///
/// Every family's bounds live in one place, [`TopologySpec::check`]:
/// [`TopologySpec::parse`] and [`TopologySpec::try_build`] both run it,
/// so a parsed spec always builds without panicking, and a
/// hand-constructed or wire-decoded one fails typed. [`fmt::Display`]
/// renders the canonical string back, and parse ∘ display is the
/// identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// Binary hypercube of `dims` dimensions under e-cube routing.
    Hypercube {
        /// Number of dimensions (`2^dims` nodes), 1..=20.
        dims: u32,
    },
    /// 2-D mesh, XY-routed.
    Mesh2d {
        /// Rows (>= 1).
        rows: u32,
        /// Columns (>= 1); at most 2^20 nodes in all.
        cols: u32,
    },
    /// k-ary n-cube torus under dimension-ordered shortest-direction
    /// routing.
    Torus {
        /// Per-dimension ring sizes, each >= 2, 1..=8 dimensions.
        extents: Vec<u32>,
    },
    /// k-ary fat-tree under deterministic up-down routing.
    FatTree {
        /// Arity (even, 2..=64); `k^3/4` hosts.
        k: u32,
    },
}

/// Why a kind string failed to parse or a spec failed to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KindError {
    /// The text before the colon names no known kind.
    UnknownKind(String),
    /// The kind is known but its spec is malformed or out of bounds.
    BadSpec {
        /// The kind tag that was recognized.
        kind: &'static str,
        /// What is wrong with the spec.
        detail: String,
    },
}

impl fmt::Display for KindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KindError::UnknownKind(s) => write!(
                f,
                "unknown topology kind {s:?} (expected cube:d=N, mesh:RxC, torus:AxBx..., or fattree:k=N)"
            ),
            KindError::BadSpec { kind, detail } => write!(f, "bad {kind} spec: {detail}"),
        }
    }
}

impl std::error::Error for KindError {}

impl std::str::FromStr for TopologySpec {
    type Err = KindError;

    fn from_str(s: &str) -> Result<TopologySpec, KindError> {
        TopologySpec::parse(s)
    }
}

fn parse_u32(kind: &'static str, s: &str) -> Result<u32, KindError> {
    s.parse().map_err(|_| KindError::BadSpec {
        kind,
        detail: format!("expected a number, got {s:?}"),
    })
}

/// The number after `prefix` in `spec` (`d=6` → 6).
fn parse_prefixed(kind: &'static str, spec: &str, prefix: &str) -> Result<u32, KindError> {
    let n = spec
        .strip_prefix(prefix)
        .ok_or_else(|| KindError::BadSpec {
            kind,
            detail: format!("expected {prefix}N, got {spec:?}"),
        })?;
    parse_u32(kind, n)
}

impl TopologySpec {
    /// Parse a kind string (see the type-level grammar table).
    ///
    /// # Errors
    ///
    /// [`KindError::UnknownKind`] for an unrecognized tag,
    /// [`KindError::BadSpec`] for a malformed or out-of-bounds spec.
    pub fn parse(s: &str) -> Result<TopologySpec, KindError> {
        let (kind, spec) = s
            .split_once(':')
            .ok_or_else(|| KindError::UnknownKind(s.to_string()))?;
        let parsed = match kind {
            "cube" => TopologySpec::Hypercube {
                dims: parse_prefixed("cube", spec, "d=")?,
            },
            "mesh" => {
                let (rows, cols) = spec.split_once('x').ok_or_else(|| KindError::BadSpec {
                    kind: "mesh",
                    detail: format!("expected RxC, got {spec:?}"),
                })?;
                TopologySpec::Mesh2d {
                    rows: parse_u32("mesh", rows)?,
                    cols: parse_u32("mesh", cols)?,
                }
            }
            "torus" => TopologySpec::Torus {
                extents: spec
                    .split('x')
                    .map(|e| parse_u32("torus", e))
                    .collect::<Result<Vec<u32>, _>>()?,
            },
            "fattree" => TopologySpec::FatTree {
                k: parse_prefixed("fattree", spec, "k=")?,
            },
            other => return Err(KindError::UnknownKind(other.to_string())),
        };
        parsed.check().map_err(|e| parsed.bad_spec(e))?;
        Ok(parsed)
    }

    /// The kind tag of the string grammar (`cube`, `mesh`, `torus`,
    /// `fattree`).
    fn tag(&self) -> &'static str {
        match self {
            TopologySpec::Hypercube { .. } => "cube",
            TopologySpec::Mesh2d { .. } => "mesh",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::FatTree { .. } => "fattree",
        }
    }

    fn bad_spec(&self, e: BuildError) -> KindError {
        KindError::BadSpec {
            kind: self.tag(),
            detail: e.to_string(),
        }
    }

    /// Node count without building the topology, saturating at
    /// `usize::MAX` on overflow.
    ///
    /// A *checked* spec never overflows — every family is bounded at
    /// 2^20 nodes — but the variant fields are public, so a
    /// hand-constructed hostile spec must saturate (and then fail
    /// [`TopologySpec::check`]), never wrap or panic.
    pub fn num_nodes(&self) -> usize {
        match self {
            TopologySpec::Hypercube { dims } => 1usize.checked_shl(*dims).unwrap_or(usize::MAX),
            TopologySpec::Mesh2d { rows, cols } => (*rows as usize).saturating_mul(*cols as usize),
            TopologySpec::Torus { extents } => extents
                .iter()
                .try_fold(1usize, |n, &k| n.checked_mul(k as usize))
                .unwrap_or(usize::MAX),
            TopologySpec::FatTree { k } => {
                let k = *k as usize;
                k.saturating_mul(k).saturating_mul(k) / 4
            }
        }
    }

    /// The one bounds check every family's constructor relies on: a
    /// spec that passes builds without panicking.
    ///
    /// # Errors
    ///
    /// [`BuildError`] naming the violated field (`topology.dims`,
    /// `topology.mesh`, `topology.torus.ndims`, `topology.torus.extent`,
    /// `topology.torus`, `topology.fattree.k`) and its value.
    pub fn check(&self) -> Result<(), BuildError> {
        let fail = |field, value, detail| {
            Err(BuildError {
                field,
                value,
                detail,
            })
        };
        let nodes = self.num_nodes();
        match self {
            TopologySpec::Hypercube { dims } if !(1..=20).contains(dims) => fail(
                "topology.dims",
                u64::from(*dims),
                format!("dimension must be in 1..=20, got {dims}"),
            ),
            TopologySpec::Mesh2d { rows, cols }
                if *rows == 0 || *cols == 0 || nodes > MAX_NODES =>
            {
                fail(
                    "topology.mesh",
                    nodes as u64,
                    format!(
                        "extents must be positive and span at most 2^20 nodes, got {rows}x{cols}"
                    ),
                )
            }
            TopologySpec::Torus { extents } if !(1..=8).contains(&extents.len()) => fail(
                "topology.torus.ndims",
                extents.len() as u64,
                format!("torus must have 1..=8 dimensions, got {}", extents.len()),
            ),
            TopologySpec::Torus { extents } => {
                match extents
                    .iter()
                    .find(|&&k| !(2..=MAX_NODES as u32).contains(&k))
                {
                    Some(&k) => fail(
                        "topology.torus.extent",
                        k.into(),
                        format!("torus extent must be >= 2 and at most 2^20, got {k}"),
                    ),
                    None if nodes > MAX_NODES => fail(
                        "topology.torus",
                        nodes as u64,
                        "torus larger than 2^20 nodes".to_string(),
                    ),
                    None => Ok(()),
                }
            }
            TopologySpec::FatTree { k } if !(2..=64).contains(k) || !k.is_multiple_of(2) => fail(
                "topology.fattree.k",
                u64::from(*k),
                format!("fat-tree arity must be even and in 2..=64, got {k}"),
            ),
            _ => Ok(()),
        }
    }

    /// Build the live topology this spec describes.
    ///
    /// # Panics
    ///
    /// On a spec [`TopologySpec::check`] rejects; parsed specs never
    /// panic here. Use [`TopologySpec::try_build`] on anything else.
    pub fn build(&self) -> Box<dyn Topology> {
        match self.try_build() {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`TopologySpec::build`] for specs that did not come from
    /// [`TopologySpec::parse`] (hand-constructed, e.g. decoded from a
    /// hostile wire frame): out-of-bounds specs surface as typed
    /// [`KindError::BadSpec`] errors instead of panics.
    ///
    /// # Errors
    ///
    /// [`KindError::BadSpec`] naming the violated bound.
    pub fn try_build(&self) -> Result<Box<dyn Topology>, KindError> {
        self.check().map_err(|e| self.bad_spec(e))?;
        Ok(match self {
            TopologySpec::Hypercube { dims } => Box::new(Hypercube::new(*dims)),
            TopologySpec::Mesh2d { rows, cols } => {
                Box::new(Mesh2d::new(*rows as usize, *cols as usize))
            }
            TopologySpec::Torus { extents } => {
                let extents: Vec<usize> = extents.iter().map(|&k| k as usize).collect();
                Box::new(Torus::new(&extents))
            }
            TopologySpec::FatTree { k } => Box::new(FatTree::new(*k as usize)),
        })
    }

    /// [`TopologySpec::build`], shared — the shape grid axes want.
    pub fn build_arc(&self) -> Arc<dyn Topology> {
        Arc::from(self.build())
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.tag())?;
        match self {
            TopologySpec::Hypercube { dims } => write!(f, "d={dims}"),
            TopologySpec::Mesh2d { rows, cols } => write!(f, "{rows}x{cols}"),
            TopologySpec::Torus { extents } => {
                for (i, k) in extents.iter().enumerate() {
                    if i > 0 {
                        write!(f, "x")?;
                    }
                    write!(f, "{k}")?;
                }
                Ok(())
            }
            TopologySpec::FatTree { k } => write!(f, "k={k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_builds_what_it_names() {
        for (s, nodes, name) in [
            ("cube:d=4", 16, "hypercube(dims=4, nodes=16)"),
            ("mesh:3x5", 15, "mesh2d(3x5)"),
            ("torus:4x4", 16, "torus(4x4)"),
            ("torus:2x2x2x2", 16, "torus(2x2x2x2)"),
            ("fattree:k=4", 16, "fattree(k=4, hosts=16)"),
        ] {
            let kind = TopologySpec::parse(s).unwrap();
            assert_eq!(kind.num_nodes(), nodes, "{s}");
            let topo = kind.build();
            assert_eq!(topo.num_nodes(), nodes, "{s}");
            assert_eq!(topo.name(), name, "{s}");
        }
        // Hand-built specs build what they name too.
        for (spec, nodes, display) in [
            (TopologySpec::Hypercube { dims: 3 }, 8, "cube:d=3"),
            (TopologySpec::Mesh2d { rows: 3, cols: 4 }, 12, "mesh:3x4"),
            (
                TopologySpec::Torus {
                    extents: vec![4, 4, 2],
                },
                32,
                "torus:4x4x2",
            ),
            (TopologySpec::FatTree { k: 4 }, 16, "fattree:k=4"),
        ] {
            assert_eq!(spec.num_nodes(), nodes, "{spec}");
            assert_eq!(spec.build().num_nodes(), nodes, "{spec}");
            assert_eq!(spec.to_string(), display);
        }
    }

    #[test]
    fn display_roundtrips() {
        for s in ["cube:d=6", "mesh:4x8", "torus:4x4x4x4", "fattree:k=8"] {
            let kind = TopologySpec::parse(s).unwrap();
            assert_eq!(kind.to_string(), s);
            assert_eq!(TopologySpec::parse(&kind.to_string()).unwrap(), kind);
        }
    }

    #[test]
    fn typed_errors_never_panics() {
        for (s, want_unknown) in [
            ("ring:8", true),
            ("cube", true),
            ("cube:d=0", false),
            ("cube:d=21", false),
            ("cube:n=6", false),
            ("mesh:0x4", false),
            ("mesh:4", false),
            ("torus:4x1", false),
            ("torus:", false),
            ("torus:4x4x4x4x4x4x4x4x4", false),
            ("torus:1024x1024x1024", false),
            ("fattree:k=5", false),
            ("fattree:k=66", false),
            ("fattree:8", false),
        ] {
            match TopologySpec::parse(s) {
                Err(KindError::UnknownKind(_)) => assert!(want_unknown, "{s}"),
                Err(KindError::BadSpec { .. }) => assert!(!want_unknown, "{s}"),
                Ok(k) => panic!("{s} parsed as {k:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_actionable() {
        let e = TopologySpec::parse("ring:8").unwrap_err();
        assert!(e.to_string().contains("unknown topology kind"));
        let e = TopologySpec::parse("fattree:k=5").unwrap_err();
        assert!(e.to_string().contains("even"));
    }

    #[test]
    fn hostile_hand_built_kinds_fail_typed_never_panic() {
        // Variant fields are public: a spec that skipped `parse` (e.g.
        // decoded from a hostile wire frame) must saturate its node
        // count and fail `try_build` with a typed error — the unchecked
        // arithmetic here used to wrap in release and panic in debug.
        // (spec, saturated node count if it overflows, kind tag,
        // violated field)
        let max = u32::MAX as usize;
        for (spec, saturates, kind, field) in [
            (
                TopologySpec::Torus {
                    extents: vec![u32::MAX; 8],
                },
                true,
                "torus",
                "topology.torus.extent",
            ),
            (
                TopologySpec::Torus {
                    extents: vec![1 << 22, 1 << 22, 1 << 22],
                },
                true,
                "torus",
                "topology.torus.extent",
            ),
            (
                TopologySpec::Torus { extents: vec![] },
                false,
                "torus",
                "topology.torus.ndims",
            ),
            (
                TopologySpec::Mesh2d {
                    rows: u32::MAX,
                    cols: u32::MAX,
                },
                false,
                "mesh",
                "topology.mesh",
            ),
            (
                TopologySpec::Mesh2d { rows: 0, cols: 4 },
                false,
                "mesh",
                "topology.mesh",
            ),
            (
                TopologySpec::Hypercube { dims: 64 },
                true,
                "cube",
                "topology.dims",
            ),
            (
                TopologySpec::Hypercube { dims: u32::MAX },
                true,
                "cube",
                "topology.dims",
            ),
            (
                TopologySpec::Hypercube { dims: 0 },
                false,
                "cube",
                "topology.dims",
            ),
            (
                TopologySpec::FatTree { k: 7 },
                false,
                "fattree",
                "topology.fattree.k",
            ),
            (
                TopologySpec::FatTree { k: u32::MAX },
                false,
                "fattree",
                "topology.fattree.k",
            ),
        ] {
            if saturates {
                assert_eq!(
                    spec.num_nodes(),
                    usize::MAX,
                    "{spec} saturates, never wraps"
                );
            }
            assert_eq!(spec.check().unwrap_err().field, field, "{spec}");
            match spec.try_build() {
                Err(KindError::BadSpec { kind: k, .. }) => assert_eq!(k, kind, "{spec}"),
                Err(e) => panic!("{spec}: unexpected {e}"),
                Ok(t) => panic!("{spec} built {}", t.name()),
            }
        }
        // The worst mesh still fits 64-bit usize exactly (the overflow
        // was a 32-bit hazard); saturating_mul computes it precisely.
        let mesh = TopologySpec::Mesh2d {
            rows: u32::MAX,
            cols: u32::MAX,
        };
        assert_eq!(mesh.num_nodes(), max.saturating_mul(max));
        // FatTree k is capped at u32, k³/4 saturates rather than wraps.
        assert!(TopologySpec::FatTree { k: u32::MAX }.num_nodes() >= usize::MAX / 4);
        // Sane specs are untouched by the checked arithmetic, and parsed
        // specs still build infallibly through the same path.
        assert_eq!(TopologySpec::Hypercube { dims: 10 }.num_nodes(), 1024);
        assert!(TopologySpec::parse("torus:4x4")
            .unwrap()
            .try_build()
            .is_ok());
    }

    #[test]
    fn equal_node_count_family() {
        // The fig_topo comparison set: 16 nodes under four fabrics.
        let kinds = [
            "cube:d=4",
            "mesh:4x4",
            "torus:4x4",
            "torus:2x2x2x2",
            "fattree:k=4",
        ];
        for s in kinds {
            assert_eq!(TopologySpec::parse(s).unwrap().num_nodes(), 16, "{s}");
        }
    }
}
