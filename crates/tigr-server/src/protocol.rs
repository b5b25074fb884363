//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Grammar (one JSON object per line, newline-terminated; the `algo`
//! alternatives and `code` list are asserted against
//! [`Algo::ALL`]/[`ErrorCode`] by `grammar_doc_matches_algo_table`, so a
//! new verb registered in the shared [`Algo`] table must update this
//! comment — and nothing else — to ship):
//!
//! ```text
//! request  = query | mutate | compact | stats | ping
//! query    = {"op":"query", "graph":<name>,
//!             "algo":"bfs"|"sssp"|"sswp"|"cc"|"pr"|"bc"|"khop"|"paths"|"lp"|"tc",
//!             "source":<u32>?, "limit":<u32>?, "deadline_ms":<u64>?,
//!             "cache":<bool>?, "values":<bool>?}
//! mutate   = {"op":"mutate", "graph":<name>, "ops":[mut-op, ...]}
//! mut-op   = {"kind":"add-edge", "u":<u32>, "v":<u32>, "w":<u32>?}
//!          | {"kind":"remove-edge", "u":<u32>, "v":<u32>}
//!          | {"kind":"add-node", "nodes":<u32>}
//!          | {"kind":"set-weight", "u":<u32>, "v":<u32>, "w":<u32>}
//! compact  = {"op":"compact", "graph":<name>}
//! stats    = {"op":"stats"}
//! ping     = {"op":"ping"}
//!
//! response   = ok-query | ok-mutate | ok-compact | ok-stats | pong | error
//! ok-query   = {"ok":true, "algo":..., "graph":..., "source":<u32>|null,
//!             "nodes":<u64>, "iterations":<u64>, "checksum":"<16 hex>",
//!             "cached":<bool>, "wall_us":<u64>, "values":[<u32>...]?}
//! ok-mutate  = {"ok":true, "mutated":true, "graph":..., "applied":<u64>,
//!             "skipped":<u64>, "wal_len":<u64>, "epoch":<u64>}
//! ok-compact = {"ok":true, "compacted":true, "graph":..., "wall_ms":<u64>,
//!             "delta_edges_before":<u64>, "delta_edges_after":<u64>,
//!             "epoch":<u64>}
//! error    = {"ok":false, "error":{"code":<code>, "message":<text>}}
//! code     = "queue-full" | "deadline-exceeded" | "bad-request"
//!          | "unknown-algo" | "unknown-graph" | "invalid-plan"
//!          | "immutable-graph" | "internal" | "shutdown"
//! ```
//!
//! `source` is required iff the algo takes one ([`Algo::needs_source`]);
//! `limit` is required iff the algo takes one ([`Algo::needs_limit`] —
//! `k` for `khop`, `radius` for `paths`, `rounds` for `lp`). An
//! `unknown-algo` error's message lists every known verb.
//!
//! A `mutate` batch is atomic: every op validates against the current
//! snapshot or none apply. `add-edge` defaults `w` to 1 (the only legal
//! weight on unweighted graphs); `add-node` carries the *target* node
//! count, not an increment; `set-weight` is weighted-graphs-only.
//! Graphs registered read-only (or physically transformed ones, whose
//! node ids were renumbered at prepare time) answer `immutable-graph`.
//!
//! All node values travel as `u32`; PageRank ranks and betweenness
//! scores are sent as the IEEE 754 bit patterns of their `f32` values
//! (`f32::to_bits`), so results compare byte-for-byte with a local run —
//! no float formatting drift. Bounded-path (`paths`) responses carry
//! `2n` values: distances followed by predecessors.
//!
//! # Framing and cost
//!
//! A message shorter than [`STREAM_CHUNK`] (64 KiB) is its JSON line and
//! the `'\n'` in **one buffer, sent with one write**, in both directions,
//! and both ends of a TCP connection set `TCP_NODELAY`: a reply split
//! over two small writes on a socket with Nagle on waits ~40 ms for the
//! peer's delayed ACK, every time. A longer reply — in practice one
//! carrying `values` — **streams**: [`send_response`] hands the socket
//! each [`STREAM_CHUNK`] or more of finished line while the rest of
//! `values` is still being encoded, and the client's
//! [`ResponseDecoder`] decodes the complete elements of `values` as the
//! bytes arrive, so encoding, the socket and decoding overlap instead of
//! running back to back. The bytes on the wire are the same either way.
//! Each connection (and each [`crate::Client`]) reuses its line buffers
//! from message to message. A request line may be at most
//! [`MAX_REQUEST_LINE`] bytes; the server enforces that while reading,
//! answers `bad-request` and closes the connection.
//!
//! The format of a line is defined by [`crate::json::Json`]'s `Display`
//! (keys in byte order, integral numbers without a fraction), but no
//! message is built as a tree on its way out: one encoder writes each
//! member straight into the output buffer, in that same key order, and
//! the tests hold it byte-equal to the tree's output; [`encode_response`]
//! is that encoder with a sink that never flushes. On the way in a line
//! is parsed into a tree — except the two members that can be large and
//! whose element type the grammar fixes: a reply's `values` is read
//! straight into a `Vec<u32>`, and a mutate request's `ops` into
//! `Vec<MutationOp>`, one op at a time. [`decode_response`] is the
//! streaming decoder fed one whole line: the `values` elements read ahead
//! of the member walk are kept only where the walk finds `values` at the
//! offset they were read from. The schema picks the typed
//! reader, not an option; anything off the grammar inside those members
//! (a fraction, a string, an out-of-range entry) is still consumed by
//! the one JSON grammar and rejected exactly as the tree walk rejected
//! it. Parsing is linear in the line and nesting is limited to
//! [`crate::json::MAX_DEPTH`]; see [`crate::json`].

use std::fmt;
use std::io::{self, BufRead as _, Write};

use crate::json::{
    parse_except, push_escaped, push_u32_elements, push_u64, u32_run, Json, ParseError, Reader,
    RunEnd,
};
use crate::stats::StatsSnapshot;

/// Longest request line a connection accepts, in bytes without the
/// newline; enforced while the line is read. Nothing bounds a `mutate`
/// batch but this: an op is at most 67 bytes on the wire, so 16 MiB
/// holds a batch of 250 000 ops — `tigr ingest` sends 1 024 by default.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// A reply line this long or longer leaves in pieces of at least this
/// many bytes, each written while the rest of its `values` is still being
/// encoded; a shorter line is one buffer and one write.
pub const STREAM_CHUNK: usize = 64 << 10;

/// `values` are encoded this many at a time (at most 11 KiB of text), so
/// the buffer behind a streamed reply holds one [`STREAM_CHUNK`] and one
/// piece, never the whole line.
const VALUES_PIECE: usize = 1024;

/// The shared algorithm table: the CLI, the server, and this protocol
/// all dispatch through [`tigr_engine::Algo`], so a verb is registered
/// in exactly one place.
pub use tigr_engine::Algo;

/// The shared mutation-op table: the wire protocol ships the same ops
/// the WAL persists, so a batch decodes straight into an applyable log.
pub use tigr_core::MutationOp;

/// A single algorithm query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Registered graph name.
    pub graph: String,
    /// Analytic to run.
    pub algo: Algo,
    /// Source node (required iff [`Algo::needs_source`]).
    pub source: Option<u32>,
    /// Algo-specific bound (required iff [`Algo::needs_limit`]): `k`
    /// for k-hop, `radius` for bounded paths, `rounds` for label
    /// propagation.
    pub limit: Option<u32>,
    /// Per-request deadline; `None` uses the server default.
    pub deadline_ms: Option<u64>,
    /// Consult/populate the result cache (default `true`).
    pub cache: bool,
    /// Include the full value array in the response (default `false`;
    /// the checksum is always present).
    pub include_values: bool,
}

impl QueryRequest {
    /// A cacheable query with defaults: cache on, values omitted.
    pub fn new(graph: impl Into<String>, algo: Algo, source: Option<u32>) -> Self {
        QueryRequest {
            graph: graph.into(),
            algo,
            source,
            limit: None,
            deadline_ms: None,
            cache: true,
            include_values: false,
        }
    }

    /// Sets the algo-specific limit (builder style).
    pub fn with_limit(mut self, limit: u32) -> Self {
        self.limit = Some(limit);
        self
    }
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run an analytic.
    Query(QueryRequest),
    /// Apply a batch of mutations to a mutable graph (atomic: all ops
    /// validate against the current snapshot or none apply).
    Mutate {
        /// Registered graph name.
        graph: String,
        /// Mutation batch, applied in order.
        ops: Vec<MutationOp>,
    },
    /// Force a synchronous compaction of a mutable graph's delta
    /// overlay into a fresh base artifact.
    Compact {
        /// Registered graph name.
        graph: String,
    },
    /// Return a [`StatsSnapshot`].
    Stats,
    /// Liveness check.
    Ping,
}

/// Typed failure codes — every rejection a client can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded admission queue is full (backpressure).
    QueueFull,
    /// The deadline expired before the run finished; any partial work
    /// was discarded and never cached.
    DeadlineExceeded,
    /// The request line failed to parse or validate.
    BadRequest,
    /// The requested algo verb is not in the [`Algo`] table; the error
    /// message lists every known verb.
    UnknownAlgo,
    /// No graph is registered under the requested name.
    UnknownGraph,
    /// The requested execution plan is invalid for this graph/program.
    InvalidPlan,
    /// The graph is registered read-only, or was physically transformed
    /// at prepare time (renumbered node ids), so mutations are refused.
    ImmutableGraph,
    /// The server failed internally (e.g. out of device memory).
    Internal,
    /// The server is shutting down; the query was not run.
    Shutdown,
}

impl ErrorCode {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownAlgo => "unknown-algo",
            ErrorCode::UnknownGraph => "unknown-graph",
            ErrorCode::InvalidPlan => "invalid-plan",
            ErrorCode::ImmutableGraph => "immutable-graph",
            ErrorCode::Internal => "internal",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "queue-full" => Some(ErrorCode::QueueFull),
            "deadline-exceeded" => Some(ErrorCode::DeadlineExceeded),
            "bad-request" => Some(ErrorCode::BadRequest),
            "unknown-algo" => Some(ErrorCode::UnknownAlgo),
            "unknown-graph" => Some(ErrorCode::UnknownGraph),
            "invalid-plan" => Some(ErrorCode::InvalidPlan),
            "immutable-graph" => Some(ErrorCode::ImmutableGraph),
            "internal" => Some(ErrorCode::Internal),
            "shutdown" => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

/// A typed protocol error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.label(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// A successful query result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Analytic that ran.
    pub algo: Algo,
    /// Graph it ran over.
    pub graph: String,
    /// Source node, when the analytic takes one.
    pub source: Option<u32>,
    /// Number of per-node values (original node count).
    pub nodes: u64,
    /// BSP iterations the run took (as reported by the producing run;
    /// cache hits replay the original count).
    pub iterations: u64,
    /// FNV-1a over the little-endian bytes of the value array.
    pub checksum: u64,
    /// Whether this response was served from the result cache.
    pub cached: bool,
    /// Server-side wall time for this request, microseconds.
    pub wall_us: u64,
    /// Full value array, when the request set `"values": true`.
    pub values: Option<Vec<u32>>,
}

/// A successful mutation batch: what the WAL durably holds afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateResult {
    /// Graph the batch applied to.
    pub graph: String,
    /// Ops that changed the visible graph.
    pub applied: u64,
    /// Ops skipped as no-ops (duplicate adds, absent removes); skips
    /// are still logged so replay stays faithful to the batch.
    pub skipped: u64,
    /// WAL records on disk after the batch (fsync'd before this reply).
    pub wal_len: u64,
    /// Overlay generation after the batch; queries pinned to earlier
    /// epochs keep their snapshot.
    pub epoch: u64,
}

/// A finished compaction: the delta overlay folded into a fresh base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactResult {
    /// Graph that compacted.
    pub graph: String,
    /// Wall time of the compaction, milliseconds.
    pub wall_ms: u64,
    /// Delta edges in the overlay when the compaction pinned its input.
    pub delta_edges_before: u64,
    /// Delta edges left after the swap (mutations racing the
    /// compaction survive as the new overlay).
    pub delta_edges_after: u64,
    /// Overlay generation after the swap.
    pub epoch: u64,
}

/// A decoded server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Query succeeded.
    Query(QueryResult),
    /// Mutation batch applied (and durably logged).
    Mutate(MutateResult),
    /// Compaction finished.
    Compact(CompactResult),
    /// Stats snapshot (boxed: the snapshot is by far the widest
    /// payload, and every non-stats reply moves through channels).
    Stats(Box<StatsSnapshot>),
    /// Ping reply.
    Pong,
    /// Typed failure.
    Error(ProtocolError),
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Error(ProtocolError::new(code, message))
    }
}

/// FNV-1a over the little-endian byte serialization of `values` — the
/// wire checksum clients compare against local runs.
pub fn checksum(values: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Where an encoded line goes: a buffer, and on the server's reply path
/// a socket, which is handed the line a [`STREAM_CHUNK`] or more at a
/// time while a long `values` member is still being encoded. A sink
/// without a socket never flushes: the whole line stays in the buffer.
struct Sink<'a> {
    line: &'a mut Vec<u8>,
    socket: Option<&'a mut dyn Write>,
    /// The first failed write; the rest of the line is then dropped.
    failed: Option<io::Error>,
}

impl<'a> Sink<'a> {
    fn buffer(line: &'a mut Vec<u8>) -> Self {
        Sink {
            line,
            socket: None,
            failed: None,
        }
    }

    /// Hands the line so far to the socket if it has reached
    /// [`STREAM_CHUNK`] bytes.
    fn spill(&mut self) {
        let Some(socket) = &mut self.socket else {
            return;
        };
        if self.line.len() < STREAM_CHUNK {
            return;
        }
        if self.failed.is_none() {
            self.failed = socket.write_all(self.line).err();
        }
        self.line.clear();
    }

    /// Ends the line with its newline and sends what is left of it.
    fn finish(self) -> io::Result<()> {
        if let Some(error) = self.failed {
            return Err(error);
        }
        self.line.push(b'\n');
        match self.socket {
            Some(socket) => socket.write_all(self.line).and_then(|()| socket.flush()),
            None => Ok(()),
        }
    }
}

/// Writes one JSON object member by member, in call order. Callers
/// emit keys in byte order — the order `Json::Obj`'s `BTreeMap` prints
/// them in, which is the wire format — and keys are plain ASCII.
struct ObjectWriter<'s, 'a> {
    sink: &'s mut Sink<'a>,
    sep: u8,
}

impl<'s, 'a> ObjectWriter<'s, 'a> {
    fn new(sink: &'s mut Sink<'a>) -> Self {
        ObjectWriter { sink, sep: b'{' }
    }

    /// Writes `"key":` and returns the sink for the value.
    fn key(&mut self, key: &str) -> &mut Sink<'a> {
        let out = &mut *self.sink.line;
        out.push(self.sep);
        self.sep = b',';
        out.push(b'"');
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(b"\":");
        self.sink
    }

    fn str(&mut self, key: &str, value: &str) {
        push_escaped(self.key(key).line, value);
    }

    fn num(&mut self, key: &str, value: u64) {
        push_u64(self.key(key).line, value);
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.key(key)
            .line
            .extend_from_slice(if value { b"true" } else { b"false" });
    }

    /// Writes `values` as a JSON array a [`VALUES_PIECE`] at a time,
    /// offering the line to the socket before each piece after the first.
    fn u32s(&mut self, key: &str, values: &[u32]) {
        let sink = self.key(key);
        if sink.socket.is_none() {
            // The buffer keeps the whole line: room for the widest
            // spelling once, not a reallocation per doubling.
            sink.line.reserve(11 * values.len() + 1);
        }
        sink.line.push(b'[');
        for (i, piece) in values.chunks(VALUES_PIECE).enumerate() {
            if i > 0 {
                sink.spill();
            }
            push_u32_elements(sink.line, piece);
        }
        // The last comma — or, for no values, the byte after `[` — closes.
        if values.is_empty() {
            sink.line.push(b']');
        } else if let Some(last) = sink.line.last_mut() {
            *last = b']';
        }
    }

    fn end(self) {
        self.sink.line.push(b'}');
    }
}

fn write_op(sink: &mut Sink<'_>, op: &MutationOp) {
    let mut o = ObjectWriter::new(sink);
    match *op {
        MutationOp::AddEdge { u, v, w } => {
            o.str("kind", "add-edge");
            o.num("u", u.into());
            o.num("v", v.into());
            o.num("w", w.into());
        }
        MutationOp::RemoveEdge { u, v } => {
            o.str("kind", "remove-edge");
            o.num("u", u.into());
            o.num("v", v.into());
        }
        MutationOp::AddNode { nodes } => {
            o.str("kind", "add-node");
            o.num("nodes", nodes.into());
        }
        MutationOp::SetWeight { u, v, w } => {
            o.str("kind", "set-weight");
            o.num("u", u.into());
            o.num("v", v.into());
            o.num("w", w.into());
        }
    }
    o.end();
}

/// Appends the elements of a JSON array, comma-separated and bracketed.
fn write_array<T>(sink: &mut Sink<'_>, items: &[T], mut element: impl FnMut(&mut Sink<'_>, &T)) {
    sink.line.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            sink.line.push(b',');
        }
        element(sink, item);
    }
    sink.line.push(b']');
}

/// Encodes a request as one JSON line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut line = Vec::new();
    write_request(&mut line, req);
    String::from_utf8(line).expect("the encoder writes UTF-8")
}

/// Appends the line [`encode_request`] returns to `out` — the wire path
/// reuses one buffer per connection and adds the newline itself.
pub(crate) fn write_request(out: &mut Vec<u8>, req: &Request) {
    let mut sink = Sink::buffer(out);
    let mut o = ObjectWriter::new(&mut sink);
    match req {
        Request::Ping => o.str("op", "ping"),
        Request::Stats => o.str("op", "stats"),
        Request::Mutate { graph, ops } => {
            o.str("graph", graph);
            o.str("op", "mutate");
            write_array(o.key("ops"), ops, write_op);
        }
        Request::Compact { graph } => {
            o.str("graph", graph);
            o.str("op", "compact");
        }
        Request::Query(q) => {
            o.str("algo", q.algo.label());
            if !q.cache {
                o.bool("cache", false);
            }
            if let Some(d) = q.deadline_ms {
                o.num("deadline_ms", d);
            }
            o.str("graph", &q.graph);
            if let Some(l) = q.limit {
                o.num("limit", l.into());
            }
            o.str("op", "query");
            if let Some(s) = q.source {
                o.num("source", s.into());
            }
            if q.include_values {
                o.bool("values", true);
            }
        }
    }
    o.end();
}

/// `n` as a `u32` if it is integral and in range — the rule for every
/// `<u32>` of the grammar, whether it arrives in a tree or is read
/// straight off the line.
fn f64_as_u32(n: f64) -> Option<u32> {
    // `as` saturates and truncates, so only an in-range integral `n`
    // survives the round trip.
    let v = n as u32;
    (f64::from(v) == n).then_some(v)
}

fn as_u32(v: &Json) -> Option<u32> {
    v.as_f64().and_then(f64_as_u32)
}

/// The members of one mutation op that the grammar names, each holding
/// its last occurrence on the line; anything else in the op is parsed
/// and dropped.
#[derive(Default)]
struct OpFields([Option<Json>; 5]);

impl OpFields {
    fn slot(name: &str) -> Option<usize> {
        ["kind", "u", "v", "w", "nodes"]
            .iter()
            .position(|&k| k == name)
    }

    fn get(&self, name: &str) -> Option<&Json> {
        self.0[Self::slot(name)?].as_ref()
    }

    /// Reads one element of `ops`. A non-object has no members, so it
    /// decodes (and fails) like `{}`.
    fn read(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let mut fields = OpFields::default();
        r.object(|r, key| {
            let value = r.value()?;
            if let Some(at) = Self::slot(&key) {
                fields.0[at] = Some(value);
            }
            Ok(())
        })?;
        Ok(fields)
    }
}

fn decode_op(v: &OpFields) -> Result<MutationOp, ProtocolError> {
    let bad = |m: String| ProtocolError::new(ErrorCode::BadRequest, m);
    let field = |name: &str| -> Result<u32, ProtocolError> {
        v.get(name)
            .and_then(as_u32)
            .ok_or_else(|| bad(format!("mutation op needs u32 \"{name}\"")))
    };
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("mutation op needs \"kind\"".into()))?;
    match kind {
        "add-edge" => Ok(MutationOp::AddEdge {
            u: field("u")?,
            v: field("v")?,
            w: match v.get("w") {
                None | Some(Json::Null) => 1,
                Some(_) => field("w")?,
            },
        }),
        "remove-edge" => Ok(MutationOp::RemoveEdge {
            u: field("u")?,
            v: field("v")?,
        }),
        "add-node" => Ok(MutationOp::AddNode {
            nodes: field("nodes")?,
        }),
        "set-weight" => Ok(MutationOp::SetWeight {
            u: field("u")?,
            v: field("v")?,
            w: field("w")?,
        }),
        other => Err(bad(format!(
            "unknown mutation kind {other:?}; known: add-edge, remove-edge, add-node, set-weight"
        ))),
    }
}

/// What [`read_ops`] makes of an `ops` member: `None` if it is not an
/// array, else the decoded batch or its first op error — kept as a
/// value because only a `mutate` request looks at it.
type OpsMember = Option<Result<Vec<MutationOp>, ProtocolError>>;

/// Reads the `ops` member of a request straight off the line: each op
/// is decoded and dropped as it is read, so a 512-op batch never exists
/// as a tree.
fn read_ops(r: &mut Reader<'_>) -> Result<OpsMember, ParseError> {
    let mut ops = Ok(Vec::new());
    let is_array = r.array(|r| {
        let fields = OpFields::read(r)?;
        if let Ok(list) = &mut ops {
            match decode_op(&fields) {
                Ok(op) => list.push(op),
                Err(e) => ops = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(is_array.then_some(ops))
}

/// Reads the `values` member of a reply — `[<u32>...]` by the grammar —
/// straight into a `Vec<u32>`. Runs of plain digits are read a 64-byte
/// block at a time (`Reader::u32_run`); an element the run does not
/// own — spaced, signed, fractional, out of range, not a number — alone
/// goes through the grammar's own number and value readers, and the run
/// resumes after it. `None` if the member is not an array of in-range
/// integral numbers (it is still consumed, so a syntax error behind it
/// is still reported).
///
/// With `read`, the elements a [`ValuesPrefix`] took off this same
/// array are kept and the cursor skips the bytes they came from.
fn read_values(
    r: &mut Reader<'_>,
    mut read: Option<ValuesRead>,
) -> Result<Option<Vec<u32>>, ParseError> {
    let mut values = Vec::new();
    let mut typed = true;
    let is_array = r.array(|r| {
        if let Some(read) = read.take() {
            values = read.values;
            r.skip_to(read.resume);
            if read.closed {
                return Ok(());
            }
        }
        if r.u32_run(&mut values) {
            return Ok(());
        }
        let entry = match r.try_number()? {
            Some(n) => f64_as_u32(n),
            None => r.value().map(|_| None)?,
        };
        match entry {
            Some(v) => values.push(v),
            None => typed = false,
        }
        Ok(())
    })?;
    Ok((is_array && typed).then_some(values))
}

/// The `values` of a reply line read while the line is still arriving.
///
/// It guesses that the member opens at the line's first `"values":[`, and
/// reads the plain-digit elements after it a whole 64-byte block at a
/// time ([`u32_run`]), each time more of the line is in. Nothing but the
/// decode's member walk says where `values` really is: it keeps these
/// elements only if it reaches a top-level `values` array at the guessed
/// offset, and there the bytes they came from are exactly the elements
/// its own reader would have read, with the same results.
#[derive(Debug, Default)]
struct ValuesPrefix {
    /// The line has been searched for the member's opening up to here.
    searched: usize,
    /// Offset of the guessed member's `[`.
    open: Option<usize>,
    /// Offset of the first byte not read: the first byte of an element,
    /// or the closing `]`.
    resume: usize,
    values: Vec<u32>,
    /// How the run stopped; `Short` while more of the line may carry it
    /// on.
    end: RunEnd,
}

/// What a [`ValuesPrefix`] read, handed to the member walk.
struct ValuesRead {
    values: Vec<u32>,
    resume: usize,
    closed: bool,
}

impl ValuesPrefix {
    /// Reads on through `line`, the bytes of the reply so far (those of
    /// the previous call and more).
    fn advance(&mut self, line: &[u8]) {
        if self.open.is_none() {
            while let Some(i) = line[self.searched..].iter().position(|&b| b == b'[') {
                let at = self.searched + i;
                self.searched = at + 1;
                if line[..at].ends_with(b"\"values\":") {
                    self.open = Some(at);
                    self.resume = at + 1;
                    break;
                }
            }
            if self.open.is_none() {
                self.searched = line.len();
                return;
            }
        }
        if self.end == RunEnd::Short {
            self.end = u32_run(line, &mut self.resume, &mut self.values);
        }
    }

    /// The elements read, if the member walk found `values` opening at
    /// `open` and any were read; offsets are moved back by `base`.
    fn take_at(&mut self, open: usize, base: usize) -> Option<ValuesRead> {
        if self.open != Some(open) || self.values.is_empty() {
            return None;
        }
        Some(ValuesRead {
            values: std::mem::take(&mut self.values),
            resume: self.resume - base,
            closed: self.end == RunEnd::Closed,
        })
    }
}

/// Decodes one request line. Malformed input comes back as a
/// [`ErrorCode::BadRequest`] `ProtocolError` the server echoes to the
/// client verbatim.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    let bad = |m: &str| ProtocolError::new(ErrorCode::BadRequest, m);
    let (v, ops) = parse_except(line.trim(), "ops", read_ops)
        .map_err(|e| bad(&format!("malformed JSON: {e}")))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"op\""))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "mutate" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("mutate requires \"graph\""))?
                .to_owned();
            let ops = ops
                .flatten()
                .ok_or_else(|| bad("mutate requires an \"ops\" array"))??;
            if ops.is_empty() {
                return Err(bad("mutate requires at least one op"));
            }
            Ok(Request::Mutate { graph, ops })
        }
        "compact" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("compact requires \"graph\""))?
                .to_owned();
            Ok(Request::Compact { graph })
        }
        "query" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("query requires \"graph\""))?
                .to_owned();
            let algo_label = v
                .get("algo")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("query requires \"algo\""))?;
            let algo = Algo::parse(algo_label).ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::UnknownAlgo,
                    format!(
                        "unknown algo {algo_label:?}; known: {}",
                        Algo::known_labels()
                    ),
                )
            })?;
            let source = match v.get("source") {
                None | Some(Json::Null) => None,
                Some(s) => Some(as_u32(s).ok_or_else(|| bad("\"source\" must be a u32"))?),
            };
            if algo.needs_source() && source.is_none() {
                return Err(bad(&format!("{} requires \"source\"", algo.label())));
            }
            if !algo.needs_source() && source.is_some() {
                return Err(bad(&format!("{} takes no \"source\"", algo.label())));
            }
            let limit = match v.get("limit") {
                None | Some(Json::Null) => None,
                Some(l) => Some(as_u32(l).ok_or_else(|| bad("\"limit\" must be a u32"))?),
            };
            if algo.needs_limit() && limit.is_none() {
                return Err(bad(&format!(
                    "{} requires \"limit\" ({})",
                    algo.label(),
                    algo.limit_name().unwrap_or("limit"),
                )));
            }
            if !algo.needs_limit() && limit.is_some() {
                return Err(bad(&format!("{} takes no \"limit\"", algo.label())));
            }
            let deadline_ms = match v.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(
                    d.as_u64()
                        .ok_or_else(|| bad("\"deadline_ms\" must be a u64"))?,
                ),
            };
            let cache = match v.get("cache") {
                None => true,
                Some(c) => c.as_bool().ok_or_else(|| bad("\"cache\" must be a bool"))?,
            };
            let include_values = match v.get("values") {
                None => false,
                Some(c) => c
                    .as_bool()
                    .ok_or_else(|| bad("\"values\" must be a bool"))?,
            };
            Ok(Request::Query(QueryRequest {
                graph,
                algo,
                source,
                limit,
                deadline_ms,
                cache,
                include_values,
            }))
        }
        other => Err(bad(&format!("unknown op {other:?}"))),
    }
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut line = Vec::new();
    write_response(&mut Sink::buffer(&mut line), resp);
    String::from_utf8(line).expect("the encoder writes UTF-8")
}

/// Writes the line [`encode_response`] returns, and its newline, to
/// `socket`: a line shorter than [`STREAM_CHUNK`] in one write of one
/// buffer, a longer one in pieces of at least [`STREAM_CHUNK`] bytes,
/// each written while the rest of its `values` is still being encoded.
/// `line` is the buffer, reused from reply to reply; it never holds more
/// than a [`STREAM_CHUNK`] and a piece of `values`.
///
/// # Errors
///
/// The first failed write or flush; the rest of the line is not sent.
pub fn send_response(
    socket: &mut dyn Write,
    line: &mut Vec<u8>,
    resp: &Response,
) -> io::Result<()> {
    line.clear();
    let mut sink = Sink {
        line,
        socket: Some(socket),
        failed: None,
    };
    write_response(&mut sink, resp);
    sink.finish()
}

/// The one response encoder: writes the line into `sink`.
fn write_response(sink: &mut Sink<'_>, resp: &Response) {
    let mut o = ObjectWriter::new(sink);
    match resp {
        Response::Pong => {
            o.bool("ok", true);
            o.bool("pong", true);
        }
        Response::Stats(s) => {
            o.bool("ok", true);
            // The one payload still encoded through the tree: small,
            // nested, and `StatsSnapshot::to_json` is public API.
            o.key("stats")
                .line
                .extend_from_slice(s.to_json().to_string().as_bytes());
        }
        Response::Mutate(m) => {
            o.num("applied", m.applied);
            o.num("epoch", m.epoch);
            o.str("graph", &m.graph);
            o.bool("mutated", true);
            o.bool("ok", true);
            o.num("skipped", m.skipped);
            o.num("wal_len", m.wal_len);
        }
        Response::Compact(c) => {
            o.bool("compacted", true);
            o.num("delta_edges_after", c.delta_edges_after);
            o.num("delta_edges_before", c.delta_edges_before);
            o.num("epoch", c.epoch);
            o.str("graph", &c.graph);
            o.bool("ok", true);
            o.num("wall_ms", c.wall_ms);
        }
        Response::Error(e) => {
            let mut error = ObjectWriter::new(o.key("error"));
            error.str("code", e.code.label());
            error.str("message", &e.message);
            error.end();
            o.bool("ok", false);
        }
        Response::Query(q) => {
            o.str("algo", q.algo.label());
            o.bool("cached", q.cached);
            write!(o.key("checksum").line, "\"{:016x}\"", q.checksum)
                .expect("writing to a Vec cannot fail");
            o.str("graph", &q.graph);
            o.num("iterations", q.iterations);
            o.num("nodes", q.nodes);
            o.bool("ok", true);
            match q.source {
                Some(s) => o.num("source", s.into()),
                None => o.key("source").line.extend_from_slice(b"null"),
            }
            if let Some(values) = &q.values {
                o.u32s("values", values);
            }
            o.num("wall_us", q.wall_us);
        }
    }
    o.end();
}

/// Decodes one response line (the client side of the wire): what a
/// [`ResponseDecoder`] returns when the whole line is pushed at once,
/// without copying the line.
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    let mut values = ValuesPrefix::default();
    values.advance(line.as_bytes());
    decode(line, values)
}

/// Decodes a reply line while it arrives: each [`Self::push`] reads the
/// `values` elements its bytes complete, and [`Self::finish`] walks the
/// whole line, keeping those elements where the walk confirms them. What
/// it returns is what [`decode_response`] returns for the line, however
/// the line was cut into pushes.
#[derive(Debug, Default)]
pub struct ResponseDecoder {
    line: Vec<u8>,
    values: ValuesPrefix,
}

impl ResponseDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next bytes of the line.
    pub fn push(&mut self, bytes: &[u8]) {
        self.line.extend_from_slice(bytes);
        self.values.advance(&self.line);
    }

    /// Appends `bytes` up to and including the first newline, and
    /// returns how many it took and whether the newline was among them:
    /// the line is then whole.
    pub(crate) fn push_to_newline(&mut self, bytes: &[u8]) -> (usize, bool) {
        // `read_until` over a slice is the standard library's `memchr`
        // search and one copy of what precedes the newline.
        let taken = (&mut &*bytes)
            .read_until(b'\n', &mut self.line)
            .expect("reading a slice cannot fail");
        let whole = self.line.last() == Some(&b'\n');
        if !whole {
            self.values.advance(&self.line);
        }
        (taken, whole)
    }

    /// Whether nothing has been pushed since the last [`Self::finish`].
    pub fn is_empty(&self) -> bool {
        self.line.is_empty()
    }

    /// Decodes the line pushed so far, as [`decode_response`] would, and
    /// empties the decoder for the next line. A line that is not UTF-8 is
    /// a `bad-request` error.
    ///
    /// # Errors
    ///
    /// See [`decode_response`].
    pub fn finish(&mut self) -> Result<Response, ProtocolError> {
        let values = std::mem::take(&mut self.values);
        let decoded = match std::str::from_utf8(&self.line) {
            Ok(line) => decode(line, values),
            Err(_) => Err(ProtocolError::new(
                ErrorCode::BadRequest,
                "malformed response: not UTF-8",
            )),
        };
        self.line.clear();
        decoded
    }
}

/// The one response decoder: the member walk over `line`, given what
/// `values` read of it beforehand.
fn decode(line: &str, mut values: ValuesPrefix) -> Result<Response, ProtocolError> {
    let bad = |m: &str| ProtocolError::new(ErrorCode::BadRequest, m);
    let body = line.trim();
    let base = line.len() - line.trim_start().len();
    let (v, values) = parse_except(body, "values", |r| {
        read_values(r, values.take_at(r.offset() + base, base))
    })
    .map_err(|e| bad(&format!("malformed response: {e}")))?;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| bad("missing \"ok\""))?;
    if !ok {
        let e = v.get("error").ok_or_else(|| bad("missing \"error\""))?;
        let code = e
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse)
            .ok_or_else(|| bad("bad error code"))?;
        let message = e
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        return Ok(Response::Error(ProtocolError { code, message }));
    }
    if v.get("pong").is_some() {
        return Ok(Response::Pong);
    }
    if v.get("mutated").is_some() {
        let graph = v
            .get("graph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"graph\""))?
            .to_owned();
        let num = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
        return Ok(Response::Mutate(MutateResult {
            graph,
            applied: num("applied"),
            skipped: num("skipped"),
            wal_len: num("wal_len"),
            epoch: num("epoch"),
        }));
    }
    if v.get("compacted").is_some() {
        let graph = v
            .get("graph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"graph\""))?
            .to_owned();
        let num = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
        return Ok(Response::Compact(CompactResult {
            graph,
            wall_ms: num("wall_ms"),
            delta_edges_before: num("delta_edges_before"),
            delta_edges_after: num("delta_edges_after"),
            epoch: num("epoch"),
        }));
    }
    if let Some(s) = v.get("stats") {
        return Ok(Response::Stats(Box::new(
            StatsSnapshot::from_json(s).ok_or_else(|| bad("bad stats payload"))?,
        )));
    }
    let algo = v
        .get("algo")
        .and_then(Json::as_str)
        .and_then(Algo::parse)
        .ok_or_else(|| bad("missing \"algo\""))?;
    let graph = v
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"graph\""))?
        .to_owned();
    let source = match v.get("source") {
        None | Some(Json::Null) => None,
        Some(s) => Some(as_u32(s).ok_or_else(|| bad("bad \"source\""))?),
    };
    let checksum_hex = v
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"checksum\""))?;
    let checksum = u64::from_str_radix(checksum_hex, 16).map_err(|_| bad("bad \"checksum\""))?;
    let values = match values {
        None => None,
        Some(read) => Some(read.ok_or_else(|| bad("bad \"values\""))?),
    };
    Ok(Response::Query(QueryResult {
        algo,
        graph,
        source,
        nodes: v.get("nodes").and_then(Json::as_u64).unwrap_or(0),
        iterations: v.get("iterations").and_then(Json::as_u64).unwrap_or(0),
        checksum,
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        wall_us: v.get("wall_us").and_then(Json::as_u64).unwrap_or(0),
        values,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let req = Request::Query(QueryRequest {
            graph: "road".into(),
            algo: Algo::Sssp,
            source: Some(17),
            limit: None,
            deadline_ms: Some(250),
            cache: false,
            include_values: true,
        });
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        // A limited verb round-trips its limit.
        let req = Request::Query(QueryRequest::new("road", Algo::Khop, Some(4)).with_limit(3));
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        let resp = Response::Query(QueryResult {
            algo: Algo::Sssp,
            graph: "road".into(),
            source: Some(17),
            nodes: 3,
            iterations: 4,
            checksum: checksum(&[0, 1, u32::MAX]),
            cached: false,
            wall_us: 1234,
            values: Some(vec![0, 1, u32::MAX]),
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn stats_ping_and_error_round_trip() {
        for req in [Request::Stats, Request::Ping] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        let resp = Response::error(ErrorCode::QueueFull, "admission queue at capacity (64)");
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        assert_eq!(
            decode_response(&encode_response(&Response::Pong)).unwrap(),
            Response::Pong
        );
    }

    #[test]
    fn source_rules_enforced() {
        // Missing source on a sourced analytic.
        let err = decode_request(r#"{"op":"query","graph":"g","algo":"bfs"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Source on a global analytic.
        let err =
            decode_request(r#"{"op":"query","graph":"g","algo":"cc","source":3}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // CC and PR without source are fine.
        assert!(decode_request(r#"{"op":"query","graph":"g","algo":"pr"}"#).is_ok());
    }

    #[test]
    fn limit_rules_enforced() {
        // Missing limit on a limited verb names the parameter.
        let err =
            decode_request(r#"{"op":"query","graph":"g","algo":"khop","source":0}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("(k)"), "{}", err.message);
        // Limit on an unlimited verb.
        let err = decode_request(r#"{"op":"query","graph":"g","algo":"bfs","source":0,"limit":3}"#)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Non-u32 limit.
        let err =
            decode_request(r#"{"op":"query","graph":"g","algo":"lp","limit":-2}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Every limited verb decodes with one.
        for line in [
            r#"{"op":"query","graph":"g","algo":"khop","source":0,"limit":2}"#,
            r#"{"op":"query","graph":"g","algo":"paths","source":0,"limit":9}"#,
            r#"{"op":"query","graph":"g","algo":"lp","limit":5}"#,
        ] {
            assert!(decode_request(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn unknown_verbs_list_the_table() {
        let err = decode_request(r#"{"op":"query","graph":"g","algo":"warp"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownAlgo);
        for algo in Algo::ALL {
            assert!(
                err.message.contains(algo.label()),
                "unknown-algo message misses {:?}: {}",
                algo.label(),
                err.message
            );
        }
    }

    #[test]
    fn malformed_lines_are_bad_request() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"query","graph":"g","algo":"bfs","source":-1}"#,
            r#"{"op":"query","graph":"g","algo":"bfs","source":1.5}"#,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    /// The grammar doc comment at the top of this file is contract, not
    /// prose: its `"algo":` alternatives must be exactly [`Algo::ALL`]
    /// (in order) and its `code` list must cover every [`ErrorCode`].
    #[test]
    fn grammar_doc_matches_algo_table() {
        let doc: Vec<&str> = include_str!("protocol.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .collect();

        let algo_line = doc
            .iter()
            .find(|l| l.contains(r#""algo":"#))
            .expect("grammar doc lost its \"algo\": line");
        let advertised: Vec<&str> = algo_line
            .split(r#""algo":"#)
            .nth(1)
            .unwrap()
            .trim_end_matches(',')
            .split('|')
            .map(|v| v.trim().trim_matches('"'))
            .collect();
        let table: Vec<&str> = Algo::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(
            advertised, table,
            "protocol.rs grammar doc disagrees with the Algo table"
        );

        let code_region = doc.join("\n");
        for code in [
            ErrorCode::QueueFull,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadRequest,
            ErrorCode::UnknownAlgo,
            ErrorCode::UnknownGraph,
            ErrorCode::InvalidPlan,
            ErrorCode::ImmutableGraph,
            ErrorCode::Internal,
            ErrorCode::Shutdown,
        ] {
            assert!(
                code_region.contains(&format!("\"{}\"", code.label())),
                "grammar doc's code list misses {:?}",
                code.label()
            );
        }
    }

    #[test]
    fn mutate_and_compact_round_trip() {
        let req = Request::Mutate {
            graph: "road".into(),
            ops: vec![
                MutationOp::AddNode { nodes: 70 },
                MutationOp::AddEdge { u: 65, v: 0, w: 3 },
                MutationOp::RemoveEdge { u: 1, v: 2 },
                MutationOp::SetWeight { u: 0, v: 1, w: 9 },
            ],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let req = Request::Compact {
            graph: "road".into(),
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        let resp = Response::Mutate(MutateResult {
            graph: "road".into(),
            applied: 3,
            skipped: 1,
            wal_len: 12,
            epoch: 5,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::Compact(CompactResult {
            graph: "road".into(),
            wall_ms: 42,
            delta_edges_before: 12,
            delta_edges_after: 0,
            epoch: 6,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn mutate_decode_rules() {
        // add-edge without a weight defaults to 1.
        let line = r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-edge","u":0,"v":1}]}"#;
        match decode_request(line).unwrap() {
            Request::Mutate { ops, .. } => {
                assert_eq!(ops, vec![MutationOp::AddEdge { u: 0, v: 1, w: 1 }]);
            }
            other => panic!("{other:?}"),
        }
        // Empty batches, missing fields, and unknown kinds are rejected.
        for line in [
            r#"{"op":"mutate","graph":"g","ops":[]}"#,
            r#"{"op":"mutate","graph":"g"}"#,
            r#"{"op":"mutate","ops":[{"kind":"add-node","nodes":3}]}"#,
            r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-edge","u":0}]}"#,
            r#"{"op":"mutate","graph":"g","ops":[{"kind":"grow","u":0,"v":1}]}"#,
            r#"{"op":"mutate","graph":"g","ops":[{"kind":"set-weight","u":0,"v":1}]}"#,
            r#"{"op":"compact"}"#,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn checksum_is_order_sensitive_fnv() {
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
        assert_eq!(checksum(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
