//! Graph substrate for the Tigr reproduction.
//!
//! This crate provides everything the Tigr transformations and the
//! vertex-centric engine need to *hold and produce* graphs:
//!
//! * [`Csr`] — an immutable compressed-sparse-row graph with optional
//!   integer edge weights, the representation Tigr operates on (paper §4.1,
//!   Figure 10).
//! * [`CsrBuilder`] — incremental construction from edge lists with
//!   deduplication, sorting, and symmetrization options.
//! * [`io`] — loaders and writers for common interchange formats
//!   (whitespace edge lists, SNAP text files, MatrixMarket, and a fast
//!   binary CSR container).
//! * [`generators`] — synthetic workloads: RMAT and Barabási–Albert
//!   power-law graphs (stand-ins for the paper's social-network datasets),
//!   Erdős–Rényi, and regular lattices.
//! * [`datasets`] — presets that generate scaled-down analogs of the six
//!   graphs in the paper's Table 3.
//! * [`stats`] — degree-distribution statistics used throughout the
//!   evaluation (max degree, skew, the §2.3 irregularity profile,
//!   diameter estimation).
//! * [`properties`] — reference oracles (reachability, connected
//!   components, path recovery) used to validate the transformations.
//! * [`segment`] — immutable byte segments (owned or `mmap`ed) and the
//!   [`ArcSlice`] typed views that let a [`Csr`] borrow artifact bytes
//!   directly instead of decoding them.
//!
//! # Example
//!
//! ```
//! use tigr_graph::{CsrBuilder, NodeId};
//!
//! // A tiny directed triangle with an extra hub edge.
//! let graph = CsrBuilder::new(4)
//!     .edge(0, 1)
//!     .edge(1, 2)
//!     .edge(2, 0)
//!     .edge(0, 3)
//!     .build();
//!
//! assert_eq!(graph.num_nodes(), 4);
//! assert_eq!(graph.num_edges(), 4);
//! assert_eq!(graph.out_degree(NodeId::new(0)), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod chunked;
mod csr;
mod edge;
mod error;

pub mod datasets;
pub mod generators;
pub mod io;
pub mod partition;
pub mod properties;
pub mod reverse;
pub mod segment;
pub mod stats;
pub mod view;

pub use builder::CsrBuilder;
pub use csr::Csr;
pub use edge::{Edge, NodeId, Weight, INFINITE_WEIGHT};
pub use error::GraphError;
pub use segment::{ArcSlice, Plain, Segment};
pub use view::RowView;

/// Crate-wide result alias carrying a [`GraphError`].
pub type Result<T> = std::result::Result<T, GraphError>;
