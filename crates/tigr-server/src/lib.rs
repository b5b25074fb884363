//! Concurrent graph-query serving over prepared graphs.
//!
//! The paper's preprocessing argument — transform once, query many
//! times (§1, §4) — implies a serving shape: a long-lived process holds
//! the prepared (transformed + overlaid) graphs in memory and answers
//! algorithm queries from arbitrary sources without re-preparing
//! anything. This crate is that subsystem:
//!
//! * [`ServerCore`] — graph registry ([`tigr_core::PreparedGraph`]s in
//!   shared `Arc`s), a bounded admission queue with typed `queue-full`
//!   backpressure, a worker pool executing queries through
//!   per-request [`tigr_engine::ExecutionPlan`]s, a source-keyed LRU
//!   result cache, and p50/p95 serving stats.
//! * [`Server`] — TCP / Unix-socket front-ends speaking a
//!   line-delimited JSON protocol (hand-rolled in [`json`]).
//! * [`Client`] — the same protocol from the client side, plus an
//!   in-process transport used by benchmarks.
//!
//! Graphs registered via [`ServerCore::add_mutable_graph`] additionally
//! accept online mutation: `mutate` batches append to a WAL and delta
//! overlay ([`tigr_core::MutableGraph`]), every query pins a
//! snapshot-isolated epoch at admission, and `compact` (or the
//! configured threshold) folds the overlay into a fresh base artifact
//! without dropping in-flight queries.
//!
//! Deadlines ride the [`tigr_core::CancelToken`] plumbing: tokens are
//! polled at BSP iteration boundaries, so an expired query stops at a
//! consistent monotone prefix which the server discards — clients see
//! `deadline-exceeded`, never partial values, and cancelled runs are
//! never cached.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tigr_core::{GraphStore, PrepareSpec};
//! use tigr_server::{Algo, Client, QueryRequest, ServerConfig, ServerCore};
//!
//! let store = GraphStore::disabled();
//! let prepared = store.prepare(&PrepareSpec::generated("rmat:8:8", 42))?;
//! let core = ServerCore::new(ServerConfig::default());
//! core.add_graph("demo", Arc::new(prepared));
//!
//! let mut client = Client::local(Arc::clone(&core));
//! let cold = client.query(QueryRequest::new("demo", Algo::Bfs, Some(0)))?;
//! let warm = client.query(QueryRequest::new("demo", Algo::Bfs, Some(0)))?;
//! assert!(!cold.cached && warm.cached);
//! assert_eq!(cold.checksum, warm.checksum);
//! core.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

mod client;

pub use cache::{CacheCounters, CacheKey, CachedResult, ResultCache};
pub use client::{Client, ClientError};
pub use protocol::{
    checksum, decode_request, decode_response, encode_request, encode_response, send_response,
    Algo, CompactResult, ErrorCode, MutateResult, MutationOp, ProtocolError, QueryRequest,
    QueryResult, Request, Response, ResponseDecoder, MAX_REQUEST_LINE, STREAM_CHUNK,
};
pub use queue::{Bounded, PushError};
pub use server::{Server, ServerAddr, ServerConfig, ServerCore};
pub use stats::{GraphOpenStat, MutationGauges, StatsRecorder, StatsSnapshot};
