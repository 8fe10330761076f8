//! Mutation fuzz of every wire parser: `ShardReport::parse`,
//! `MetricsSnapshot::parse`, `Frame::decode` and `DispatchSpec::parse`.
//!
//! Each case flips a bit in, truncates, or splices a valid encoding (the
//! `tests/wire/` fixtures), or replaces one number field with a form the
//! encoders never write or a value at the edge of its type. Checksummed
//! formats are then re-sealed, as any sender can: the trailer has no key,
//! so only the parser's own checks stand between a forged text and a
//! merge. The contract: no parser panics, and every accepted text is the
//! one canonical encoding of what it parsed to (`encode(parse(t)) == t`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use domino::obs::wire::fnv1a64;
use domino::obs::MetricsSnapshot;
use domino::sweep::{DispatchSpec, Frame, ShardReport};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;

const SHARD_REPORT: &str = include_str!("wire/shard_report.txt");
const METRICS_SIM: &str = include_str!("wire/metrics_sim.txt");
const METRICS_RUNTIME: &str = include_str!("wire/metrics_runtime.txt");
const FRAMES: [&str; 4] = [
    include_str!("wire/frame_hello.txt"),
    include_str!("wire/frame_dispatch.txt"),
    include_str!("wire/frame_result.txt"),
    include_str!("wire/frame_drain.txt"),
];
const DISPATCH_PAYLOAD: &str = "dispatch\t3\t6\t2\t12\t6";

/// Mutated texts per seed encoding.
const CASES: usize = 8 * proptest::CASES;

/// Replacements for a number field: forms no encoder writes, the largest
/// values of the field types, and a number no field type holds.
const NUMBER_EDITS: [fn(&str) -> String; 5] = [
    |n| format!("+{n}"),
    |n| format!("0{n}"),
    |_| u64::MAX.to_string(),
    |_| usize::MAX.to_string(),
    |_| "1234567890123456789012345".to_string(),
];

/// Byte ranges of the fields that are all decimal digits.
fn number_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().chain(b"\n").enumerate() {
        if b == b'\t' || b == b'\n' {
            if i > start && bytes[start..i].iter().all(u8::is_ascii_digit) {
                out.push((start, i));
            }
            start = i + 1;
        }
    }
    out
}

fn mutate(rng: &mut StdRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let at = |rng: &mut StdRng, len: usize| (0..len + 1).generate(rng);
    match (0..4u8).generate(rng) {
        0 => {
            let i = (0..bytes.len()).generate(rng);
            bytes[i] ^= 1 << (0..8u32).generate(rng);
        }
        1 => bytes.truncate(at(rng, valid.len())),
        2 => {
            let (a, b) = (at(rng, valid.len()), at(rng, valid.len()));
            let piece = valid[a.min(b)..a.max(b)].to_vec();
            let c = at(rng, bytes.len());
            bytes.splice(c..c, piece);
        }
        _ => {
            let fields = number_fields(valid);
            let (a, b) = fields[(0..fields.len()).generate(rng)];
            let edit = NUMBER_EDITS[(0..NUMBER_EDITS.len()).generate(rng)];
            let n = std::str::from_utf8(&valid[a..b]).expect("digits");
            bytes.splice(a..b, edit(n).into_bytes());
        }
    }
    bytes
}

/// Replaces the trailer (or appends one) with the checksum of what
/// precedes it.
fn reseal(text: &str, tag: &str) -> String {
    let marker = format!("end\t{tag}\t");
    let body = text.rfind(&marker).map_or(text, |i| &text[..i]);
    format!("{body}{marker}{:016x}\n", fnv1a64(body.as_bytes()))
}

/// Runs `check` on every mutation of `valid`, naming the input on a panic.
fn fuzz(name: &str, valid: &str, check: impl Fn(&[u8])) {
    let mut rng = proptest::test_rng(name);
    for case in 0..CASES {
        let input = mutate(&mut rng, valid.as_bytes());
        if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
            panic!(
                "{name} case {case} failed on {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

#[test]
fn shard_report_parse_never_panics_and_accepts_only_canonical_text() {
    fuzz("shard_report", SHARD_REPORT, |bytes| {
        let text = reseal(&String::from_utf8_lossy(bytes), "domino-shard-report");
        if let Ok(report) = ShardReport::parse(&text) {
            assert_eq!(report.encode(), text);
        }
    });
}

#[test]
fn metrics_snapshot_parse_never_panics_and_accepts_only_canonical_text() {
    for (name, valid) in [("sim", METRICS_SIM), ("runtime", METRICS_RUNTIME)] {
        fuzz(name, valid, |bytes| {
            let text = reseal(&String::from_utf8_lossy(bytes), "domino-metrics");
            if let Ok(snap) = MetricsSnapshot::parse(&text) {
                assert_eq!(snap.encode(), text);
            }
        });
    }
}

#[test]
fn frame_decode_never_panics_and_accepts_only_canonical_frames() {
    fuzz("frames", &FRAMES.concat(), |bytes| {
        let mut buf = bytes.to_vec();
        let mut consumed = 0;
        while let Ok(Some(frame)) = Frame::decode(&mut buf) {
            let len = bytes.len() - consumed - buf.len();
            assert_eq!(frame.encode(), &bytes[consumed..consumed + len]);
            consumed += len;
        }
    });
}

#[test]
fn dispatch_parse_never_panics_and_accepts_only_canonical_payloads() {
    fuzz("dispatch", DISPATCH_PAYLOAD, |bytes| {
        let payload = String::from_utf8_lossy(bytes);
        if let Ok(d) = DispatchSpec::parse(&payload) {
            assert_eq!(Frame::dispatch(&d).payload, payload);
        }
    });
}
