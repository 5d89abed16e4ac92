//! The pluggable topology family beyond the hypercube.
//!
//! The scheduling stack programs against [`hypercube::Topology`] — a
//! deterministic, oblivious router over directed channels — and the paper
//! only ever instantiates it with the iPSC/860 binary cube. This crate
//! opens the scenario space the ROADMAP names:
//!
//! * [`Torus`] — the k-ary n-cube with wraparound rings per dimension and
//!   dimension-ordered routing that walks the shorter direction around
//!   each ring (ties break toward the positive direction), with
//!   closed-form `hops`/`diameter`. The QCDSP machine (hep-lat/9908024)
//!   is a 4D instance.
//! * [`FatTree`] — the k-ary fat-tree (k/2² hosts per pod, k pods,
//!   (k/2)² core switches) under deterministic up-down routing: the
//!   upward aggregation and core choices are pure functions of the
//!   destination, so every host pair owns exactly one circuit.
//! * [`TopologySpec`] — a parser/registry making topologies *data*:
//!   `"cube:d=6"`, `"mesh:4x8"`, `"torus:4x4x4x4"`, `"fattree:k=8"`
//!   round-trip through strings at every entry point (CLI flags, grid
//!   axes, daemon requests, test sweeps).
//!
//! Schedulers do not name these types; they probe
//! [`hypercube::RoutingProperties`] (`topology.routing()`) and decide
//! honestly — RS families run anywhere routing is deterministic, LP
//! declines anything that is not an e-cube hypercube.
//!
//! # Example
//!
//! ```
//! use topo::TopologySpec;
//! use hypercube::{NodeId, Topology};
//!
//! let torus = TopologySpec::parse("torus:4x4").unwrap().build();
//! assert_eq!(torus.num_nodes(), 16);
//! // Wraparound: 0 -> 3 is one hop around the ring, not three across.
//! assert_eq!(torus.hops(NodeId(0), NodeId(3)), 1);
//! assert!(torus.routing().wraparound);
//! ```

#![forbid(unsafe_code)]

use std::fmt;

mod fattree;
mod kind;
mod torus;

pub use fattree::FatTree;
pub use kind::{KindError, TopologySpec};
pub use torus::Torus;

/// Largest node count any family builds (`cube:d=20`).
pub(crate) const MAX_NODES: usize = 1 << 20;

/// Why a topology could not be constructed — the typed alternative to
/// the constructors' panics, for untrusted input paths (wire frames,
/// CLI flags, env vars).
///
/// [`TopologySpec::check`], [`Torus::try_new`] and [`FatTree::try_new`]
/// return this; [`TopologySpec::parse`] folds it into
/// [`KindError::BadSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildError {
    /// The spec field that broke its bound, as a dotted path
    /// (`topology.torus.extent`) — the name wire decoders report.
    pub field: &'static str,
    /// The offending value (saturated to `u64::MAX`).
    pub value: u64,
    /// What bound the spec violated.
    pub detail: String,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for BuildError {}
