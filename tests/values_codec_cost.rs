//! The wire's `values` text codec against the digit-at-a-time one it
//! replaced (`common::reference_write_values` /
//! `common::reference_read_values`): the same bytes and the same values,
//! at a fraction of the cost. The guard is the only test in this binary,
//! so no other test competes for the core it times.

mod common;

use common::{reference_read_values, reference_write_values};
use tigr::server::json;
use tigr::server::{decode_response, encode_response, Algo, QueryResult, Response};

/// A G17 `sssp` reply's values: 131 072 of them, two in five
/// unreachable (`u32::MAX`, ten digits), the rest distances of one to
/// three digits.
fn g17_values() -> Vec<u32> {
    let mut state = 0x5eed_u64;
    (0..1 << 17)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z % 5 < 2 {
                u32::MAX
            } else {
                (z >> 32) as u32 % 400
            }
        })
        .collect()
}

/// Fastest of 21 order-flipped pairs of runs of `codec` and of
/// `reference`, whose results must agree by `same`; fails if the first
/// costs over `bound` times the second.
fn guard<A, B>(
    name: &str,
    bound: f64,
    codec: impl Fn() -> A,
    reference: impl Fn() -> B,
    same: impl Fn(&A, &B) -> bool,
) {
    let (codec_ms, reference_ms) = common::fastest_pairs(21, codec, reference, |got, want| {
        assert!(same(&got, &want), "{name}: results differ")
    });
    let ratio = codec_ms / reference_ms;
    println!("{name}: codec {codec_ms:.2} ms / reference {reference_ms:.2} ms = {ratio:.2}");
    assert!(
        ratio <= bound,
        "{name}: the codec took {ratio:.2}x the reference (bound {bound})"
    );
}

/// Encoding and decoding a 131 072-value reply each cost no more than
/// 0.6x what they cost with the digit-at-a-time loops optimised, 0.8x
/// under the test profile's overflow checks. Both sides handle the whole
/// line: the reference writes the reply's other members as they are and
/// checks the line is UTF-8, and reads them back with `json::parse`.
#[test]
fn values_codec_costs_under_0_6x_the_digit_loops() {
    let values = g17_values();
    let reply = Response::Query(QueryResult {
        algo: Algo::Sssp,
        graph: "g17".into(),
        source: Some(7),
        nodes: values.len() as u64,
        iterations: 12,
        checksum: 0xfeed,
        cached: true,
        wall_us: 1,
        values: Some(values.clone()),
    });
    let line = encode_response(&reply);
    let member = line.find("\"values\":").expect("the reply carries values");
    let at = member + "\"values\":".len();
    let after = at + line[at..].find(']').expect("the array closes") + 1;
    let (head, array, tail) = (&line[..at], &line[at..after], &line[after..]);
    // The reply without `values`, for the reference's other members.
    let others = format!("{}{}", &line[..member], &tail[1..]);
    let bound = if cfg!(debug_assertions) { 0.8 } else { 0.6 };
    guard(
        "encode",
        bound,
        || encode_response(&reply),
        || {
            let mut out = Vec::new();
            out.extend_from_slice(head.as_bytes());
            reference_write_values(&mut out, &values);
            out.extend_from_slice(tail.as_bytes());
            String::from_utf8(out).expect("the reference writes UTF-8")
        },
        |got, want| got == want,
    );
    guard(
        "decode",
        bound,
        || match decode_response(&line) {
            Ok(Response::Query(q)) => q.values,
            other => panic!("{other:?}"),
        },
        || {
            let tree = json::parse(&others).expect("the other members parse");
            (tree, reference_read_values(array))
        },
        |got, (_, want)| got.is_some() && got == want,
    );
}
