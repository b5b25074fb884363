//! Tigr's primary contribution: irregularity-reducing graph
//! transformations.
//!
//! Real-world graphs follow power-law degree distributions, which starve
//! SIMD hardware (paper §2.3). Tigr attacks the problem *at the data*:
//!
//! * **Physical split transformations** ([`split`]) rewrite each node
//!   whose out-degree exceeds a bound `K` into a *family* of bounded-
//!   degree nodes. Three reference topologies — [`split::clique_transform`],
//!   [`split::circular_transform`], [`split::star_transform`] — realize the
//!   design-space analysis of Table 1, and the
//!   **uniform-degree tree** ([`split::udt_transform`], Algorithm 1)
//!   achieves the paper's sweet spot: `O(log_K d)` propagation hops, at
//!   most one residual node, and provable result preservation.
//! * **Dumb weights** ([`DumbWeight`]) make the introduced edges inert:
//!   weight `0` preserves distances (Corollary 2: SSSP/BFS/BC), weight
//!   `∞` preserves path bottlenecks (Corollary 3: SSWP).
//! * **Virtual split transformation** ([`VirtualGraph`]) layers the split
//!   over the *unchanged* physical CSR (Figure 10): computation is
//!   scheduled per virtual node while all virtual nodes of a family share
//!   the physical value slot — implicit value synchronization, so no
//!   extra iterations and push-based correctness for free (Theorem 2).
//! * **Edge-array coalescing** ([`VirtualGraph::coalesced`], §4.4)
//!   assigns a family's edges to its virtual nodes in a strided pattern
//!   so warp lanes touch consecutive memory.
//! * **Executable correctness statements** ([`correctness`]) of
//!   Theorem 1 and Corollaries 1–4, used as test oracles.
//!
//! # Example: virtually transforming a hub
//!
//! ```
//! use tigr_core::VirtualGraph;
//! use tigr_graph::generators::star_graph;
//!
//! let g = star_graph(101);                  // node 0 has out-degree 100
//! let vg = VirtualGraph::new(&g, 10);       // degree bound K = 10
//! assert_eq!(vg.num_virtual_nodes(), 10 + 100); // 10 vnodes for the hub + 100 leaves
//! assert!(vg.max_virtual_degree() <= 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod cancel;
pub mod correctness;
pub mod k_select;
pub mod mutation;
pub mod split;
pub mod store;
mod virtual_graph;

mod dumb_weights;

pub use cancel::CancelToken;
pub use dumb_weights::DumbWeight;
pub use mutation::{
    CompactionStats, DeltaOverlay, GraphSnapshot, MutableGraph, MutationError, MutationOp,
    OverlayView, PatchedRows, Wal,
};
pub use split::{
    circular_transform, clique_transform, recursive_star_transform, star_transform, udt_transform,
    TransformedGraph,
};
pub use store::{
    CacheStatus, GraphSource, GraphStore, OpenInfo, OpenMode, PrepareReport, PrepareSpec,
    PreparedGraph, TransformKind, TransformSpec, ViewPlan,
};
pub use virtual_graph::{OnTheFlyMapper, VirtualGraph, VirtualNode};
