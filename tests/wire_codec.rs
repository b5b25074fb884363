//! The wire codec against its references.
//!
//! `tigr-server` encodes requests and replies straight into a byte
//! buffer and reads the two unbounded members (`values`, `ops`) straight
//! off the line. The wire format is still *defined* by the `Json` tree:
//! what `Json::Obj(..).to_string()` prints, and what `json::parse` plus a
//! walk over the tree accepts. This file keeps that definition as
//! test-side reference code — the tree-building encoders and the
//! tree-walking decoders the crate used before — and checks the direct
//! codec against it: byte-equal lines for every message shape, equal
//! decode results (or `bad-request` on both sides) for generated,
//! respelled, damaged and truncated lines, string unescaping equal to a
//! character-at-a-time reference, and parse time linear in the line.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tigr::server::json::{self, obj, Json};
use tigr::server::{
    decode_request, decode_response, encode_request, encode_response, send_response, Algo, Client,
    CompactResult, ErrorCode, MutateResult, MutationOp, ProtocolError, QueryRequest, QueryResult,
    Request, Response, ResponseDecoder, ServerConfig, ServerCore, StatsSnapshot, STREAM_CHUNK,
};

// ---------------------------------------------------------------------
// Reference encoders: build the tree, print it.
// ---------------------------------------------------------------------

fn ref_encode_op(op: &MutationOp) -> Json {
    match *op {
        MutationOp::AddEdge { u, v, w } => obj([
            ("kind", "add-edge".into()),
            ("u", u.into()),
            ("v", v.into()),
            ("w", w.into()),
        ]),
        MutationOp::RemoveEdge { u, v } => obj([
            ("kind", "remove-edge".into()),
            ("u", u.into()),
            ("v", v.into()),
        ]),
        MutationOp::AddNode { nodes } => {
            obj([("kind", "add-node".into()), ("nodes", nodes.into())])
        }
        MutationOp::SetWeight { u, v, w } => obj([
            ("kind", "set-weight".into()),
            ("u", u.into()),
            ("v", v.into()),
            ("w", w.into()),
        ]),
    }
}

fn ref_encode_request(req: &Request) -> String {
    match req {
        Request::Ping => obj([("op", "ping".into())]).to_string(),
        Request::Stats => obj([("op", "stats".into())]).to_string(),
        Request::Mutate { graph, ops } => obj([
            ("op", "mutate".into()),
            ("graph", graph.as_str().into()),
            ("ops", Json::Arr(ops.iter().map(ref_encode_op).collect())),
        ])
        .to_string(),
        Request::Compact { graph } => {
            obj([("op", "compact".into()), ("graph", graph.as_str().into())]).to_string()
        }
        Request::Query(q) => {
            let mut pairs = vec![
                ("op".to_owned(), Json::from("query")),
                ("graph".to_owned(), Json::from(q.graph.as_str())),
                ("algo".to_owned(), Json::from(q.algo.label())),
            ];
            if let Some(s) = q.source {
                pairs.push(("source".to_owned(), s.into()));
            }
            if let Some(l) = q.limit {
                pairs.push(("limit".to_owned(), l.into()));
            }
            if let Some(d) = q.deadline_ms {
                pairs.push(("deadline_ms".to_owned(), d.into()));
            }
            if !q.cache {
                pairs.push(("cache".to_owned(), false.into()));
            }
            if q.include_values {
                pairs.push(("values".to_owned(), true.into()));
            }
            Json::Obj(pairs.into_iter().collect()).to_string()
        }
    }
}

fn ref_encode_response(resp: &Response) -> String {
    match resp {
        Response::Pong => obj([("ok", true.into()), ("pong", true.into())]).to_string(),
        Response::Stats(s) => obj([("ok", true.into()), ("stats", s.to_json())]).to_string(),
        Response::Mutate(m) => obj([
            ("ok", true.into()),
            ("mutated", true.into()),
            ("graph", m.graph.as_str().into()),
            ("applied", m.applied.into()),
            ("skipped", m.skipped.into()),
            ("wal_len", m.wal_len.into()),
            ("epoch", m.epoch.into()),
        ])
        .to_string(),
        Response::Compact(c) => obj([
            ("ok", true.into()),
            ("compacted", true.into()),
            ("graph", c.graph.as_str().into()),
            ("wall_ms", c.wall_ms.into()),
            ("delta_edges_before", c.delta_edges_before.into()),
            ("delta_edges_after", c.delta_edges_after.into()),
            ("epoch", c.epoch.into()),
        ])
        .to_string(),
        Response::Error(e) => obj([
            ("ok", false.into()),
            (
                "error",
                obj([
                    ("code", e.code.label().into()),
                    ("message", e.message.as_str().into()),
                ]),
            ),
        ])
        .to_string(),
        Response::Query(q) => {
            let mut pairs = vec![
                ("ok".to_owned(), Json::from(true)),
                ("algo".to_owned(), Json::from(q.algo.label())),
                ("graph".to_owned(), Json::from(q.graph.as_str())),
                ("source".to_owned(), q.source.map_or(Json::Null, Json::from)),
                ("nodes".to_owned(), Json::from(q.nodes)),
                ("iterations".to_owned(), Json::from(q.iterations)),
                (
                    "checksum".to_owned(),
                    Json::from(format!("{:016x}", q.checksum)),
                ),
                ("cached".to_owned(), Json::from(q.cached)),
                ("wall_us".to_owned(), Json::from(q.wall_us)),
            ];
            if let Some(values) = &q.values {
                pairs.push((
                    "values".to_owned(),
                    Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                ));
            }
            Json::Obj(pairs.into_iter().collect()).to_string()
        }
    }
}

// ---------------------------------------------------------------------
// Reference decoders: `json::parse`, then walk the tree.
// ---------------------------------------------------------------------

fn bad(m: &str) -> ProtocolError {
    ProtocolError::new(ErrorCode::BadRequest, m)
}

fn tree_u32(v: &Json) -> Option<u32> {
    v.as_u64()
        .filter(|&n| n <= u64::from(u32::MAX))
        .map(|n| n as u32)
}

fn ref_decode_op(v: &Json) -> Result<MutationOp, ProtocolError> {
    let field = |name: &str| -> Result<u32, ProtocolError> {
        v.get(name)
            .and_then(tree_u32)
            .ok_or_else(|| bad("mutation op needs a u32 field"))
    };
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("mutation op needs \"kind\""))?;
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
        _ => Err(bad("unknown mutation kind")),
    }
}

fn ref_decode_request(line: &str) -> Result<Request, ProtocolError> {
    let v = json::parse(line.trim()).map_err(|_| bad("malformed JSON"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"op\""))?;
    let graph = |what: &str| {
        v.get("graph")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad(what))
    };
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "mutate" => {
            let graph = graph("mutate requires \"graph\"")?;
            let items = v
                .get("ops")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("mutate requires an \"ops\" array"))?;
            if items.is_empty() {
                return Err(bad("mutate requires at least one op"));
            }
            let ops = items.iter().map(ref_decode_op).collect::<Result<_, _>>()?;
            Ok(Request::Mutate { graph, ops })
        }
        "compact" => Ok(Request::Compact {
            graph: graph("compact requires \"graph\"")?,
        }),
        "query" => {
            let graph = graph("query requires \"graph\"")?;
            let algo_label = v
                .get("algo")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("query requires \"algo\""))?;
            let algo = Algo::parse(algo_label)
                .ok_or_else(|| ProtocolError::new(ErrorCode::UnknownAlgo, "unknown algo"))?;
            let opt_u32 = |name: &str| match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => tree_u32(n).map(Some).ok_or_else(|| bad("must be a u32")),
            };
            let source = opt_u32("source")?;
            if algo.needs_source() != source.is_some() {
                return Err(bad("source arity"));
            }
            let limit = opt_u32("limit")?;
            if algo.needs_limit() != limit.is_some() {
                return Err(bad("limit arity"));
            }
            let deadline_ms = match v.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| bad("\"deadline_ms\""))?),
            };
            let flag = |name: &str, default: bool| match v.get(name) {
                None => Ok(default),
                Some(b) => b.as_bool().ok_or_else(|| bad("must be a bool")),
            };
            Ok(Request::Query(QueryRequest {
                graph,
                algo,
                source,
                limit,
                deadline_ms,
                cache: flag("cache", true)?,
                include_values: flag("values", false)?,
            }))
        }
        _ => Err(bad("unknown op")),
    }
}

/// The tree walk `decode_response` did before it read `values` typed,
/// with the one intended difference: `source` is range-checked like
/// every other `<u32>` (the old walk cast it with `as u32`).
fn ref_decode_response(line: &str) -> Result<Response, ProtocolError> {
    let v = json::parse(line.trim()).map_err(|_| bad("malformed response"))?;
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
    let graph = || {
        v.get("graph")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad("missing \"graph\""))
    };
    let num = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
    if v.get("mutated").is_some() {
        return Ok(Response::Mutate(MutateResult {
            graph: graph()?,
            applied: num("applied"),
            skipped: num("skipped"),
            wal_len: num("wal_len"),
            epoch: num("epoch"),
        }));
    }
    if v.get("compacted").is_some() {
        return Ok(Response::Compact(CompactResult {
            graph: graph()?,
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
    let graph = graph()?;
    let source = match v.get("source") {
        None | Some(Json::Null) => None,
        Some(s) => Some(tree_u32(s).ok_or_else(|| bad("bad \"source\""))?),
    };
    let checksum_hex = v
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"checksum\""))?;
    let checksum = u64::from_str_radix(checksum_hex, 16).map_err(|_| bad("bad \"checksum\""))?;
    let values = match v.get("values") {
        None => None,
        Some(arr) => {
            let items = arr.as_arr().ok_or_else(|| bad("bad \"values\""))?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(tree_u32(item).ok_or_else(|| bad("bad value entry"))?);
            }
            Some(out)
        }
    };
    Ok(Response::Query(QueryResult {
        algo,
        graph,
        source,
        nodes: num("nodes"),
        iterations: num("iterations"),
        checksum,
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        wall_us: num("wall_us"),
        values,
    }))
}

/// Both sides accept with equal results, or both reject with the same
/// typed code (messages may differ).
fn assert_same_decode<T: PartialEq + std::fmt::Debug>(
    line: &str,
    got: Result<T, ProtocolError>,
    want: Result<T, ProtocolError>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "decoded differently: {line:?}"),
        (Err(got), Err(want)) => prop_assert_eq!(got.code, want.code, "error code: {line:?}"),
        (got, want) => prop_assert!(false, "{line:?}: got {got:?}, reference {want:?}"),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Generators (a splitmix stream seeded by proptest).
// ---------------------------------------------------------------------

struct Gen {
    state: u64,
    /// Whether counters may reach 2^53, where a line no longer decodes
    /// to the value it was encoded from (numbers travel as `f64`).
    beyond_f64: bool,
}

impl Gen {
    fn new(seed: u64, beyond_f64: bool) -> Self {
        Gen {
            state: seed,
            beyond_f64,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Edge values as often as uniform ones.
    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => *self.pick(&[0, 1, 9, 10, u32::MAX - 1, u32::MAX]),
            1 => self.below(1000) as u32,
            _ => self.next() as u32,
        }
    }

    /// With `beyond_f64`, includes counters at and beyond 2^53, where
    /// the tree prints the digits of the nearest `f64`.
    fn u64(&mut self) -> u64 {
        let n = match self.below(4) {
            0 => *self.pick(&[0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX]),
            1 => self.below(100_000) as u64,
            _ => self.next() >> self.below(64),
        };
        if self.beyond_f64 {
            n
        } else {
            n.min((1 << 53) - 1)
        }
    }

    /// Names that need every escape the encoder knows, and none.
    fn text(&mut self) -> String {
        const PIECES: [&str; 14] = [
            "road",
            "g",
            "",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "深",
            "\u{1F600}",
        ];
        (0..self.below(6)).map(|_| *self.pick(&PIECES)).collect()
    }

    fn values(&mut self) -> Vec<u32> {
        let len = *self.pick(&[0, 1, 2, 7, 300]);
        (0..len).map(|_| self.u32()).collect()
    }

    fn op(&mut self) -> MutationOp {
        let (u, v, w) = (self.u32(), self.u32(), self.u32());
        match self.below(4) {
            0 => MutationOp::AddEdge { u, v, w },
            1 => MutationOp::RemoveEdge { u, v },
            2 => MutationOp::AddNode { nodes: u },
            _ => MutationOp::SetWeight { u, v, w },
        }
    }

    fn request(&mut self) -> Request {
        match self.below(6) {
            0 => Request::Ping,
            1 => Request::Stats,
            2 => Request::Compact { graph: self.text() },
            3 => Request::Mutate {
                graph: self.text(),
                ops: (0..1 + self.below(5)).map(|_| self.op()).collect(),
            },
            _ => {
                let algo = *self.pick(&Algo::ALL);
                Request::Query(QueryRequest {
                    graph: self.text(),
                    algo,
                    source: algo.needs_source().then(|| self.u32()),
                    limit: algo.needs_limit().then(|| self.u32()),
                    deadline_ms: (self.below(2) == 0).then(|| self.u64()),
                    cache: self.below(2) == 0,
                    include_values: self.below(2) == 0,
                })
            }
        }
    }

    fn response(&mut self, stats: &StatsSnapshot) -> Response {
        match self.below(8) {
            0 => Response::Pong,
            1 => Response::Stats(Box::new(StatsSnapshot {
                received: self.u64(),
                p95_us: self.u64(),
                algo_completed: vec![(self.text(), self.u64())],
                ..stats.clone()
            })),
            2 => Response::Mutate(MutateResult {
                graph: self.text(),
                applied: self.u64(),
                skipped: self.u64(),
                wal_len: self.u64(),
                epoch: self.u64(),
            }),
            3 => Response::Compact(CompactResult {
                graph: self.text(),
                wall_ms: self.u64(),
                delta_edges_before: self.u64(),
                delta_edges_after: self.u64(),
                epoch: self.u64(),
            }),
            4 => Response::Error(ProtocolError {
                code: *self.pick(&[
                    ErrorCode::QueueFull,
                    ErrorCode::DeadlineExceeded,
                    ErrorCode::BadRequest,
                    ErrorCode::UnknownAlgo,
                    ErrorCode::UnknownGraph,
                    ErrorCode::InvalidPlan,
                    ErrorCode::ImmutableGraph,
                    ErrorCode::Internal,
                    ErrorCode::Shutdown,
                ]),
                message: self.text(),
            }),
            _ => Response::Query(QueryResult {
                algo: *self.pick(&Algo::ALL),
                graph: self.text(),
                source: (self.below(3) > 0).then(|| self.u32()),
                nodes: self.u64(),
                iterations: self.u64(),
                checksum: self.next(),
                cached: self.below(2) == 0,
                wall_us: self.u64(),
                values: (self.below(4) > 0).then(|| self.values()),
            }),
        }
    }

    /// The same document spelled differently, or damaged: whitespace
    /// between tokens, integers respelled as `1.0` / `1e3` / `-0`,
    /// entries pushed out of range or negative, members duplicated,
    /// retyped or dropped, the line cut short.
    fn respell(&mut self, line: &str) -> String {
        let mut out = String::new();
        let mut in_string = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            if in_string {
                out.push(c);
                match c {
                    '\\' => out.extend(chars.next()),
                    '"' => in_string = false,
                    _ => {}
                }
            } else if c.is_ascii_digit() {
                let mut digits = String::from(c);
                while let Some(d) = chars.next_if(char::is_ascii_digit) {
                    digits.push(d);
                }
                out.push_str(&match self.below(30) {
                    0 => format!("{digits}.0"),
                    1 => format!("{digits}e0"),
                    2 => format!("{digits}.5"),
                    3 => format!("-{digits}"),
                    4 => format!("{digits}0000000000"),
                    5 => format!("{}e3", digits.trim_end_matches("000")),
                    6 => "4294967296".to_owned(),
                    7 => "null".to_owned(),
                    8 => format!("\"{digits}\""),
                    _ => digits,
                });
            } else {
                in_string = c == '"';
                if matches!(c, '{' | '}' | '[' | ']' | ':' | ',') {
                    let ws = *self.pick(&["", "", "", " ", "\t", " \r\n "]);
                    out.push_str(ws);
                    out.push(c);
                    out.push_str(ws);
                } else {
                    out.push(c);
                }
            }
        }
        match self.below(10) {
            // A duplicate member: the last occurrence wins in the tree.
            0 => out.replacen('{', "{\"values\":[1,2,\"x\"],\"ops\":7,", 1),
            1 => {
                let again = *self.pick(&[
                    ",\"values\":[]}",
                    ",\"values\":null}",
                    ",\"values\":[[1]]}",
                    ",\"ops\":[]}",
                    ",\"ops\":[3]}",
                    ",\"ops\":[{\"kind\":\"add-node\",\"nodes\":4,\"nodes\":5,\"x\":[{}]}]}",
                    ",\"source\":4294967301}",
                    ",\"ok\":1}",
                ]);
                match out.rfind('}') {
                    Some(at) => format!("{}{again}", &out[..at]),
                    None => out,
                }
            }
            2 => {
                let mut cut = self.below(out.len() + 1);
                while !out.is_char_boundary(cut) {
                    cut -= 1;
                }
                out[..cut].to_owned()
            }
            _ => out,
        }
    }
}

/// A real snapshot to vary, since `StatsSnapshot` has no constructor.
fn stats_template() -> StatsSnapshot {
    let core = ServerCore::new(ServerConfig::default());
    let stats = Client::local(Arc::clone(&core)).stats().unwrap();
    core.shutdown();
    stats
}

// ---------------------------------------------------------------------
// (a) Byte equality with the tree encoder.
// ---------------------------------------------------------------------

#[test]
fn named_shapes_encode_byte_equal_to_the_tree() {
    let reply = |source, values| {
        Response::Query(QueryResult {
            algo: Algo::Paths,
            graph: "a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é深\u{1F600}".into(),
            source,
            nodes: u64::MAX,
            iterations: 1 << 53,
            checksum: 0xab,
            cached: true,
            wall_us: (1 << 53) - 1,
            values,
        })
    };
    let responses = [
        reply(None, None),
        reply(Some(0), Some(vec![])),
        reply(Some(u32::MAX), Some(vec![u32::MAX])),
        reply(
            Some(7),
            Some(vec![0, 1, 10, 99, 100, 4_294_967_294, u32::MAX]),
        ),
        Response::Stats(Box::new(stats_template())),
        Response::error(ErrorCode::BadRequest, "quote \" backslash \\ newline \n"),
    ];
    for resp in &responses {
        assert_eq!(encode_response(resp), ref_encode_response(resp));
    }
    // Every escape, spelled out: the reference shares no code with the
    // encoder, but pin the spelling itself too.
    assert_eq!(
        encode_request(&Request::Compact {
            graph: "\"\\\n\r\t\u{0}\u{1f}\u{7f}/é".into()
        }),
        r#"{"graph":"\"\\\n\r\t\u0000\u001f"#.to_owned() + "\u{7f}/é\",\"op\":\"compact\"}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_messages_encode_byte_equal_to_the_tree(seed in any::<u64>()) {
        let mut gen = Gen::new(seed, true);
        let stats = stats_template();
        for _ in 0..32 {
            let req = gen.request();
            prop_assert_eq!(encode_request(&req), ref_encode_request(&req));
            let resp = gen.response(&stats);
            prop_assert_eq!(encode_response(&resp), ref_encode_response(&resp));
        }
    }

    // -----------------------------------------------------------------
    // (b) Decode equivalence with `json::parse` + the tree walk.
    // -----------------------------------------------------------------

    #[test]
    fn generated_lines_decode_like_the_tree_walk(seed in any::<u64>()) {
        let mut gen = Gen::new(seed, false);
        let stats = stats_template();
        for _ in 0..32 {
            // What the encoder writes round-trips, on both decoders.
            let req = gen.request();
            let line = encode_request(&req);
            prop_assert_eq!(decode_request(&line), Ok(req.clone()));
            prop_assert_eq!(ref_decode_request(&line), Ok(req));
            let resp = gen.response(&stats);
            let reply = encode_response(&resp);
            if !matches!(resp, Response::Stats(_)) {
                prop_assert_eq!(decode_response(&reply), Ok(resp));
            }
            // Respelled and damaged lines: same verdict, same value.
            // Each line goes through both decoders of both directions —
            // a reply is a legal (if odd) request line and vice versa.
            for original in [&line, &reply] {
                let line = gen.respell(original);
                assert_same_decode(&line, decode_request(&line), ref_decode_request(&line))?;
                assert_same_decode(&line, decode_response(&line), ref_decode_response(&line))?;
            }
        }
    }
}

#[test]
fn a_reply_truncated_at_every_byte_decodes_like_the_tree_walk() {
    let resp = Response::Query(QueryResult {
        algo: Algo::Sssp,
        graph: "ro\"ad é".into(),
        source: Some(17),
        nodes: 3,
        iterations: 4,
        checksum: 0xdead_beef,
        cached: false,
        wall_us: 1234,
        values: Some(vec![0, 1, u32::MAX]),
    });
    let req = Request::Mutate {
        graph: "road".into(),
        ops: vec![
            MutationOp::AddNode { nodes: 70 },
            MutationOp::AddEdge { u: 65, v: 0, w: 3 },
        ],
    };
    for line in [encode_response(&resp), encode_request(&req)] {
        for cut in (0..=line.len()).filter(|&c| line.is_char_boundary(c)) {
            let line = &line[..cut];
            assert_same_decode(line, decode_response(line), ref_decode_response(line)).unwrap();
            assert_same_decode(line, decode_request(line), ref_decode_request(line)).unwrap();
        }
    }
}

#[test]
fn off_grammar_members_decode_like_the_tree_walk() {
    for line in [
        // `values` that are not `[u32]`, alone and overridden by a later duplicate.
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[1,-1]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[4294967296]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[1.5]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[1.0,1e3,2.5e1, 4294967295.0]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[1,"x"],"values":[2]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[2],"values":{"a":[1]}}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":null}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","val\u0075es":[5]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[1,]}"#,
        r#"{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":[1 2]}"#,
        // Replies that never look at a bad `values`.
        r#"{"ok":true,"pong":true,"values":"junk"}"#,
        r#"{"ok":false,"error":{"code":"internal","message":"m"},"values":[-1]}"#,
        r#"[1,2,3]"#,
        // `ops` that are not op objects; requests that never look at them.
        r#"{"op":"mutate","graph":"g","ops":[3,{"kind":"add-node","nodes":1}]}"#,
        r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-edge","u":0,"v":1,"w":null}]}"#,
        r#"{"op":"mutate","graph":"g","ops":[{"kind":"set-weight","u":0,"v":1,"w":null}]}"#,
        r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-node","nodes":1,"kind":7}]}"#,
        r#"{"op":"mutate","graph":"g","ops":[{"kind":"bogus"}],"ops":[{"kind":"add-node","nodes":2}]}"#,
        r#"{"op":"mutate","graph":"g","ops":{"kind":"add-node","nodes":2}}"#,
        r#"{"op":"mutate","ops":[{"kind":"bogus"}]}"#,
        r#"{"op":"ping","ops":[{"kind":"bogus"}]}"#,
        r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-node","nodes":2,"extra":{"deep":[[]]}}]}"#,
        r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-node","nodes":2}}"#,
    ] {
        assert_same_decode(line, decode_response(line), ref_decode_response(line)).unwrap();
        assert_same_decode(line, decode_request(line), ref_decode_request(line)).unwrap();
    }
}

#[test]
fn a_reply_source_beyond_u32_is_rejected_not_wrapped() {
    let line = r#"{"ok":true,"algo":"bfs","graph":"g","source":4294967301,"checksum":"0"}"#;
    let err = decode_response(line).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    let line = line.replace("4294967301", "4294967295");
    match decode_response(&line).unwrap() {
        Response::Query(q) => assert_eq!(q.source, Some(u32::MAX)),
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------
// (e) Strings unescape exactly as the character-at-a-time parser did.
// ---------------------------------------------------------------------

/// The string reader `json::parse` had before it copied runs: one
/// character (or escape) at a time. `None` where that reader failed.
fn ref_unescape(body: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = body.chars();
    let hex4 = |chars: &mut std::str::Chars<'_>| -> Option<u32> {
        let digits: String = chars.take(4).collect();
        (digits.len() == 4 && digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .then(|| u32::from_str_radix(&digits, 16).unwrap())
    };
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '"' => '"',
            '\\' => '\\',
            '/' => '/',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let cp = hex4(&mut chars)?;
                if (0xD800..0xDC00).contains(&cp) {
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return None;
                    }
                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))?
                } else {
                    char::from_u32(cp)?
                }
            }
            _ => return None,
        });
    }
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_unescape_like_the_per_character_reader(seed in any::<u64>()) {
        // Raw control characters and multi-byte scalars on either side
        // of an escape (so they straddle run boundaries), every simple
        // escape, BMP and surrogate-pair `\u`, and broken escapes.
        const PIECES: [&str; 24] = [
            "a", "xyz", " ", "\u{1}", "\u{1f}", "\n", "\t", "\u{7f}", "é", "ß", "深", "\u{1F600}",
            "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r\\t", "\\u00e9", "\\uD83D\\uDE00",
            "\\ud83d", "\\uDE00", "\\q",
        ];
        let mut gen = Gen::new(seed, false);
        let body: String = (0..gen.below(12)).map(|_| *gen.pick(&PIECES)).collect();
        let got = json::parse(&format!("\"{body}\"")).ok();
        prop_assert_eq!(got, ref_unescape(&body).map(Json::Str), "body {:?}", body);
        // As an object key and an array element too.
        let doc = format!("{{\"{body}\":[\"{body}\"]}}");
        let want = ref_unescape(&body).map(|s| {
            Json::Obj([(s.clone(), Json::Arr(vec![Json::Str(s)]))].into_iter().collect())
        });
        prop_assert_eq!(json::parse(&doc).ok(), want, "doc {:?}", doc);
    }
}

#[test]
fn truncated_escapes_and_unterminated_strings_are_errors() {
    for bad in [
        "\"abc",
        "\"abc\\",
        "\"\\u12\"",
        "\"\\u12",
        "\"\\ud83d\\u\"",
        "\"\\ud83d\\ude0\"",
        "\"é",
    ] {
        assert!(json::parse(bad).is_err(), "accepted {bad:?}");
    }
}

// ---------------------------------------------------------------------
// Nesting depth.
// ---------------------------------------------------------------------

#[test]
fn nesting_past_the_limit_is_a_typed_error_not_a_stack_overflow() {
    let at_limit = "[".repeat(json::MAX_DEPTH) + &"]".repeat(json::MAX_DEPTH);
    assert!(json::parse(&at_limit).is_ok());
    let past = "[".repeat(json::MAX_DEPTH + 1) + &"]".repeat(json::MAX_DEPTH + 1);
    assert_eq!(json::parse(&past).unwrap_err().message, "nesting too deep");
    for open in ["[", "{\"a\":"] {
        let err = json::parse(&open.repeat(100_000)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Through the typed readers as well: under `values`/`ops`, and
        // inside an op.
        for line in [
            format!("{{\"ok\":true,\"values\":{}", open.repeat(100_000)),
            format!(
                "{{\"op\":\"mutate\",\"ops\":[{{\"x\":{}",
                open.repeat(100_000)
            ),
        ] {
            assert_eq!(
                decode_response(&line).unwrap_err().code,
                ErrorCode::BadRequest
            );
            assert_eq!(
                decode_request(&line).unwrap_err().code,
                ErrorCode::BadRequest
            );
        }
    }
}

// ---------------------------------------------------------------------
// (c) Parse time is linear in the line.
// ---------------------------------------------------------------------

/// Best of five, so a descheduled run does not decide the test.
fn parse_time(doc: &str) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            assert!(json::parse(std::hint::black_box(doc)).is_ok());
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn parse_time_is_linear_in_the_line() {
    let member = |len: usize| format!("{{\"k\":\"{}\"}}", "x".repeat(len));
    let large = parse_time(&member(1 << 20));
    // One validation pass per character needed seconds for this line.
    assert!(
        large < Duration::from_millis(500),
        "1 MiB string: {large:?}"
    );
    // 16 x the bytes: 16 x the time if linear, 256 x if quadratic. The
    // small line's time is floored so timer granularity cannot fail it.
    let docs: [fn(usize) -> String; 3] = [
        member,
        |len| format!("{{\"values\":[{}1]}}", "77,".repeat(len / 3)),
        |len| format!("[{}\"\"]", "\"ab\\ncd\",".repeat(len / 10)),
    ];
    for doc in docs {
        let small = parse_time(&doc(1 << 16)).max(Duration::from_micros(20));
        let large = parse_time(&doc(1 << 20));
        assert!(
            large < small * 64,
            "64 KiB took {small:?}, 1 MiB took {large:?}"
        );
    }
}

// ---------------------------------------------------------------------
// (f) Digit boundaries: `values` are written and read a word at a time,
// so every digit count, every spelling the word loop hands back to the
// grammar, and every cut near the array's end is pinned to the tree.
// ---------------------------------------------------------------------

/// `9, 10, 99, 100, …, 999_999_999, 1_000_000_000` and `u32::MAX`: each
/// digit count from 1 to 10, at both of its ends.
fn digit_boundaries() -> Vec<u32> {
    let mut values = vec![0];
    for k in 1..=9 {
        values.extend([10u32.pow(k) - 1, 10u32.pow(k)]);
    }
    values.extend([u32::MAX - 1, u32::MAX]);
    values
}

/// A reply line whose `values` are `elements` spelled as given; with
/// `pad`, a long member follows, so even the last elements are read
/// with a full word past them.
fn values_line(elements: &str, pad: bool) -> String {
    let pad = if pad {
        format!(",\"pad\":\"{}\"", "p".repeat(80))
    } else {
        String::new()
    };
    format!(r#"{{"ok":true,"algo":"cc","graph":"g","checksum":"0","values":{elements}{pad}}}"#)
}

#[test]
fn every_digit_count_encodes_byte_equal_and_decodes_like_the_tree_walk() {
    let boundaries = digit_boundaries();
    // Alone, and among enough neighbours that every element is read
    // with a full block behind it.
    let long: Vec<u32> = (0..8).flat_map(|_| boundaries.iter().copied()).collect();
    for values in [boundaries.clone(), long] {
        let resp = Response::Query(QueryResult {
            algo: Algo::Sssp,
            graph: "g".into(),
            source: Some(0),
            nodes: values.len() as u64,
            iterations: 1,
            checksum: 0,
            cached: false,
            wall_us: 0,
            values: Some(values),
        });
        let line = encode_response(&resp);
        assert_eq!(line, ref_encode_response(&resp));
        assert_eq!(decode_response(&line), Ok(resp.clone()));
        assert_eq!(ref_decode_response(&line), Ok(resp));
    }
}

#[test]
fn off_word_spellings_decode_like_the_tree_walk() {
    let filler: Vec<String> = digit_boundaries().iter().map(u32::to_string).collect();
    let filler = filler.join(",");
    let cases = [
        "007",
        "-0",
        "-1",
        " 5 ",
        "\t6\n",
        "4294967296",
        "00000000001",
        "12345678901",
        "99999999999",
        "1.0",
        "1e3",
        "2.5e1",
        "1.5",
        "\"x\"",
        "[]",
        "[1]",
        "null",
        "",
    ];
    for case in cases {
        for elements in [
            format!("[{case}]"),
            format!("[{case},{filler}]"),
            format!("[{filler},{case}]"),
            format!("[{filler},{case},{filler}]"),
            format!("[{filler} ,{case}, {filler}]"),
        ] {
            for pad in [false, true] {
                let line = values_line(&elements, pad);
                assert_same_decode(&line, decode_response(&line), ref_decode_response(&line))
                    .unwrap();
            }
        }
    }
    for elements in ["[]", "[[1]]", "[ ]", "[ 1 , 2 ]", "[1,,2]", "[1,]"] {
        for pad in [false, true] {
            let line = values_line(elements, pad);
            assert_same_decode(&line, decode_response(&line), ref_decode_response(&line)).unwrap();
        }
    }
}

#[test]
fn a_values_array_cut_in_its_last_16_bytes_decodes_like_the_tree_walk() {
    let values: Vec<u32> = (0..6).flat_map(|_| digit_boundaries()).collect();
    let array = format!(
        "[{}]",
        values
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    for cut in array.len() - 16..array.len() {
        let cut_array = &array[..cut];
        for pad in [false, true] {
            // The line ends inside the array …
            let line = values_line(cut_array, pad);
            let line = &line[..line.find(cut_array).unwrap() + cut_array.len()];
            assert_same_decode(line, decode_response(line), ref_decode_response(line)).unwrap();
            // … or the array closes early, its last element cut short.
            let closed = format!("{}]", cut_array.trim_end_matches(','));
            let line = values_line(&closed, pad);
            assert_same_decode(&line, decode_response(&line), ref_decode_response(&line)).unwrap();
        }
    }
}

#[test]
fn counters_at_every_power_of_ten_and_at_2_pow_53_encode_byte_equal() {
    let mut counters = vec![
        0,
        1,
        1 << 32,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX,
    ];
    for k in 1..=19 {
        counters.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
    }
    for n in counters {
        let resp = Response::Mutate(MutateResult {
            graph: "g".into(),
            applied: n,
            skipped: n / 3,
            wal_len: n / 7,
            epoch: n,
        });
        let line = encode_response(&resp);
        assert_eq!(line, ref_encode_response(&resp), "{n}");
        if n < 1 << 53 {
            assert_eq!(decode_response(&line), Ok(resp), "{n}");
        }
    }
}

// ---------------------------------------------------------------------
// (g) Streaming: the server writes a long reply into the socket while it
// encodes `values`, and the client decodes the line as it arrives. The
// bytes are the encoder's, and the decoder's answer does not depend on
// how the line was cut.
// ---------------------------------------------------------------------

/// A `Write` that keeps what reaches it and the length of every write.
#[derive(Default)]
struct Recorder {
    bytes: Vec<u8>,
    writes: Vec<usize>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.writes.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn values_reply(graph: &str, values: Vec<u32>) -> Response {
    Response::Query(QueryResult {
        algo: Algo::Sssp,
        graph: graph.into(),
        source: Some(3),
        nodes: values.len() as u64,
        iterations: 9,
        checksum: 0x0123_4567_89ab_cdef,
        cached: true,
        wall_us: 17,
        values: Some(values),
    })
}

/// Every reply the tests above build — the named shapes and the
/// generated ones — and the long ones: 0, 1 and 131 072 values (G17
/// `sssp`-like and all `u32::MAX`), element counts around the encoder's
/// 1 024-value pieces, and all-`u32::MAX` arrays shifted so that a
/// 64 KiB boundary of the line falls on each byte of an element.
fn stream_corpus() -> Vec<Response> {
    let stats = stats_template();
    let mut replies = vec![
        Response::Pong,
        Response::Stats(Box::new(stats.clone())),
        Response::error(ErrorCode::BadRequest, "quote \" backslash \\ newline \n"),
        values_reply("a\"b\\c\nd\re\tf\u{1}é深\u{1F600}", digit_boundaries()),
        values_reply("g", vec![]),
        values_reply("g", vec![7]),
        values_reply("g17", g17_like(1 << 17)),
        values_reply("g17", vec![u32::MAX; 1 << 17]),
    ];
    for len in [1023, 1024, 1025, 6 * 1024, 6 * 1024 + 1] {
        replies.push(values_reply("g", vec![u32::MAX; len]));
    }
    for pad in 0..11 {
        replies.push(values_reply(&"x".repeat(pad), vec![u32::MAX; 7000]));
    }
    for seed in 0..16 {
        let mut gen = Gen::new(seed, true);
        replies.extend((0..32).map(|_| gen.response(&stats)));
    }
    replies
}

/// `n` values shaped like a G17 `sssp` answer: two in five unreachable
/// (`u32::MAX`), the rest distances of one to three digits.
fn g17_like(n: usize) -> Vec<u32> {
    let mut gen = Gen::new(0x5eed, false);
    (0..n)
        .map(|_| match gen.below(5) {
            0 | 1 => u32::MAX,
            _ => gen.below(400) as u32,
        })
        .collect()
}

/// What the socket path writes for `reply`: the bytes and each write.
fn sent(reply: &Response) -> Recorder {
    let mut socket = Recorder::default();
    let mut line = Vec::new();
    send_response(&mut socket, &mut line, reply).unwrap();
    assert!(
        line.capacity() <= 4 * STREAM_CHUNK,
        "the reply buffer grew to {} bytes",
        line.capacity()
    );
    socket
}

#[test]
fn the_socket_path_writes_the_encoders_bytes_and_a_short_reply_in_one_write() {
    for reply in stream_corpus() {
        let want = encode_response(&reply) + "\n";
        let socket = sent(&reply);
        assert!(socket.bytes == want.as_bytes(), "{reply:?}");
        let (last, streamed) = socket.writes.split_last().unwrap();
        if want.len() < STREAM_CHUNK {
            assert!(streamed.is_empty(), "{} writes", socket.writes.len());
        } else {
            assert!(*last > 0);
            assert!(streamed.iter().all(|&w| w >= STREAM_CHUNK), "{streamed:?}");
        }
    }
    // The 131 072-value replies leave in pieces.
    let bulk = sent(&values_reply("g17", vec![u32::MAX; 1 << 17]));
    assert!(bulk.writes.len() > 10, "{:?}", bulk.writes);
}

/// Feeds `line` to a decoder in the pieces between `cuts` (ascending
/// offsets) and checks the answer is `decode_response`'s, errors and
/// their messages included.
fn assert_pieces_decode_alike(
    decoder: &mut ResponseDecoder,
    line: &str,
    want: &Result<Response, ProtocolError>,
    cuts: &[usize],
) {
    let bytes = line.as_bytes();
    let mut from = 0;
    for &cut in cuts.iter().chain([&bytes.len()]) {
        decoder.push(&bytes[from..cut]);
        from = cut;
    }
    let got = decoder.finish();
    assert!(
        &got == want,
        "{:?} cut at {cuts:?}: {got:?}",
        &line[..line.len().min(200)]
    );
    assert!(decoder.is_empty());
}

/// Short lines cut once at every byte; long ones at every byte of their
/// first and last 256, around every 64 KiB boundary (where the server's
/// writes end), and in 1 000 seeded random multi-way cuts.
fn assert_every_cut_decodes_alike(decoder: &mut ResponseDecoder, line: &str, seed: u64) {
    let want = decode_response(line);
    let len = line.len();
    if len <= 4096 {
        for cut in 0..=len {
            assert_pieces_decode_alike(decoder, line, &want, &[cut]);
        }
        return;
    }
    let mut cuts: Vec<usize> = (0..256).chain(len - 256..=len).collect();
    for boundary in (STREAM_CHUNK..len).step_by(STREAM_CHUNK) {
        cuts.extend(boundary - 16..boundary + 16);
    }
    for cut in cuts {
        assert_pieces_decode_alike(decoder, line, &want, &[cut]);
    }
    let mut gen = Gen::new(seed, false);
    for _ in 0..1000 {
        let mut cuts: Vec<usize> = (0..1 + gen.below(40)).map(|_| gen.below(len + 1)).collect();
        cuts.sort_unstable();
        assert_pieces_decode_alike(decoder, line, &want, &cuts);
    }
}

#[test]
fn a_reply_decodes_alike_however_it_is_cut() {
    let mut decoder = ResponseDecoder::new();
    let mut gen = Gen::new(0xc07, false);
    for (i, reply) in stream_corpus().iter().enumerate() {
        let line = encode_response(reply);
        assert_every_cut_decodes_alike(&mut decoder, &line, i as u64);
        // Respelled and damaged, as the tree-walk tests do it.
        if line.len() <= 4096 {
            let respelled = gen.respell(&line);
            assert_every_cut_decodes_alike(&mut decoder, &respelled, i as u64);
        }
    }
}

#[test]
fn off_grammar_and_damaged_long_lines_decode_alike_however_they_are_cut() {
    let mut decoder = ResponseDecoder::new();
    let filler: Vec<String> = digit_boundaries().iter().map(u32::to_string).collect();
    let filler = filler.join(",");
    for case in [
        "007",
        " 5 ",
        "4294967296",
        "1.0",
        "1.5",
        "\"x\"",
        "[1]",
        "null",
        "",
    ] {
        for elements in [format!("[{case},{filler}]"), format!("[{filler},{case}]")] {
            let line = values_line(&elements, true);
            assert_every_cut_decodes_alike(&mut decoder, &line, 1);
        }
    }
    // A nested `values` array opens first: the decoder's guess, which the
    // member walk must refuse.
    let decoy: Vec<String> = g17_like(300).iter().map(u32::to_string).collect();
    let line = format!(
        r#"{{"algo":"bfs","checksum":"0","graph":"g","ok":true,"pad":{{"values":[{}]}},"values":[1,2,3]}}"#,
        decoy.join(",")
    );
    assert_every_cut_decodes_alike(&mut decoder, &line, 2);
    // A bulk line with an off-grammar element in the middle, a duplicate
    // `values` member after it, a respelled opening, and cut short.
    let line = encode_response(&values_reply("g17", g17_like(20_000)));
    let middle = line.len() / 2 + line[line.len() / 2..].find(',').unwrap();
    let damaged = [
        format!("{},1.5{}", &line[..middle], &line[middle..]),
        format!("{},\"values\":[1,2]}}", &line[..line.len() - 1]),
        line.replacen("\"values\":[", "\"values\": [", 1),
        format!("  \t{line} \r\n"),
        line[..middle].to_owned(),
    ];
    for (i, line) in damaged.iter().enumerate() {
        assert_every_cut_decodes_alike(&mut decoder, line, 100 + i as u64);
    }
}

#[test]
fn a_daemon_streams_a_bulk_reply_as_the_encoders_line() {
    let prepared = tigr::core::GraphStore::disabled()
        .prepare(&tigr::core::PrepareSpec::generated("rmat:15:8", 7))
        .unwrap();
    let core = ServerCore::new(ServerConfig::default());
    core.add_graph("g", Arc::new(prepared));
    let dir = std::env::temp_dir().join("tigr_wire_codec_stream");
    std::fs::create_dir_all(&dir).unwrap();
    let server = tigr::server::Server::bind_unix(core, dir.join("s.sock")).unwrap();
    let tigr::server::ServerAddr::Unix(path) = server.addr().clone() else {
        panic!("bound a Unix socket");
    };
    let mut query = QueryRequest::new("g", Algo::Bfs, Some(0));
    query.include_values = true;
    let request = encode_request(&Request::Query(query.clone())) + "\n";
    let mut stream = BufReader::new(UnixStream::connect(&path).unwrap());
    for _ in 0..2 {
        stream.get_mut().write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_line(&mut raw).unwrap();
        assert!(raw.len() > 2 * STREAM_CHUNK, "{} bytes", raw.len());
        let reply = decode_response(&raw).unwrap();
        assert_eq!(encode_response(&reply) + "\n", raw);
    }
    // The client's streaming decoder reads the same answer.
    let mut client = Client::connect_unix(&path).unwrap();
    let reply = client.query(query).unwrap();
    assert_eq!(reply.values.as_ref().map(Vec::len), Some(1 << 15));
    assert_eq!(
        tigr::server::checksum(reply.values.as_ref().unwrap()),
        reply.checksum
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
