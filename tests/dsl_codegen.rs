//! DSL ⇄ graph ⇄ chain table ⇄ generated code. The compiled chain table
//! must report exactly the oracle's backward trace, in order, on random
//! feature vectors over shipped, generated and wide graphs; and the Python
//! and Rust it generates, run by `python3` and compiled by `rustc` (both
//! looked up on `PATH`), must report exactly the table on those vectors and
//! on every window of real traces. Plus two fuzzes of the DSL parser:
//! hostile config text never panics it, and every graph it accepts
//! round-trips through `emit` — mutated shipped configs, and generated
//! graphs with isolated nodes, aliases named after features, and the
//! reserved word.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, Stdio};

use domino::abr::AbrConfig;
use domino::core::dsl::{ABR_CONFIG, DEFAULT_CONFIG};
use domino::core::{
    abr_graph, compile, default_graph, emit, oracle, parse, CausalGraph, DetectionProgram, Domino,
    DominoConfig, Feature, FeatureVector,
};
use domino::scenarios::{ScriptAction, SessionConfig, SessionSpec};
use domino::simcore::{SimDuration, SimTime};
use domino::telemetry::Direction;
use proptest::strategy::Strategy;
use rand::rngs::StdRng;

#[test]
fn dsl_round_trip_preserves_detection_behaviour() {
    let g1 = default_graph();
    let g2 = parse(&emit(&g1)).expect("emitted text parses");
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(15),
        seed: 405,
        ..Default::default()
    };
    let bundle = SessionSpec::cell(domino::scenarios::amarisoft(), cfg).run();
    let d1 = Domino::new(g1, DominoConfig::default());
    let d2 = Domino::new(g2, DominoConfig::default());
    let a1 = d1.analyze(&bundle);
    let a2 = d2.analyze(&bundle);
    assert_eq!(a1.windows.len(), a2.windows.len());
    for (w1, w2) in a1.windows.iter().zip(&a2.windows) {
        // Node ids and edge order may differ after a round trip; the *set*
        // of detected (cause, consequence) chains must not.
        let mut n1: Vec<(String, String)> = w1
            .chains
            .iter()
            .map(|c| {
                (
                    d1.graph().name(c.cause).to_string(),
                    d1.graph().name(c.consequence).to_string(),
                )
            })
            .collect();
        let mut n2: Vec<(String, String)> = w2
            .chains
            .iter()
            .map(|c| {
                (
                    d2.graph().name(c.cause).to_string(),
                    d2.graph().name(c.consequence).to_string(),
                )
            })
            .collect();
        n1.sort();
        n2.sort();
        assert_eq!(n1, n2);
    }
}

#[test]
fn generated_python_mentions_every_feature_in_use() {
    let g = default_graph();
    let py = compile(&g).emit_python(&g);
    for node in [
        "jitter_buffer_drain",
        "target_bitrate_down",
        "pushback_rate_down",
        "forward_delay_up",
        "reverse_delay_up",
        "poor_channel",
        "cross_traffic",
        "ul_scheduling",
        "harq_retx",
        "rlc_retx",
        "rrc_state_change",
    ] {
        assert!(py.contains(node), "{node} missing from generated Python");
    }
}

/// Mutated configs per seed config.
const DSL_CASES: usize = 40 * proptest::CASES;

/// What a token insert may add: the DSL's own syntax, comments, line
/// breaks, a feature name, an alias name and the `alias` keyword as a name.
const DSL_TOKENS: [&str; 12] = [
    "-->",
    " --> ",
    "alias ",
    " = ",
    " | ",
    "#",
    "\n",
    "  ",
    "ul_harq_retx",
    "forward_delay_up",
    "poor_channel",
    "alias",
];

/// Flips a bit in, truncates, splices (from either seed config) or inserts
/// a token into `valid`.
fn mutate_config(rng: &mut StdRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let at = |rng: &mut StdRng, len: usize| (0..len + 1).generate(rng);
    match (0..4u8).generate(rng) {
        0 => {
            let i = (0..bytes.len()).generate(rng);
            bytes[i] ^= 1 << (0..8u32).generate(rng);
        }
        1 => bytes.truncate(at(rng, valid.len())),
        2 => {
            let donor = [DEFAULT_CONFIG, ABR_CONFIG][(0..2usize).generate(rng)].as_bytes();
            let (a, b) = (at(rng, donor.len()), at(rng, donor.len()));
            let c = at(rng, bytes.len());
            bytes.splice(c..c, donor[a.min(b)..a.max(b)].iter().copied());
        }
        _ => {
            let token = DSL_TOKENS[(0..DSL_TOKENS.len()).generate(rng)];
            let c = at(rng, bytes.len());
            bytes.splice(c..c, token.bytes());
        }
    }
    bytes
}

/// A graph's nodes (name and predicate) and edges (by name), sorted, so
/// graphs compare independently of node ids and edge order.
fn shape(g: &CausalGraph) -> (Vec<String>, Vec<String>) {
    let mut nodes: Vec<String> = (0..g.node_count())
        .map(|id| {
            let pred: Vec<String> = g.predicate(id).iter().map(|f| f.name()).collect();
            format!("{} = {}", g.name(id), pred.join(" | "))
        })
        .collect();
    let mut edges: Vec<String> = g
        .edges()
        .into_iter()
        .map(|(a, b)| format!("{} --> {}", g.name(a), g.name(b)))
        .collect();
    nodes.sort();
    edges.sort();
    (nodes, edges)
}

#[test]
fn dsl_parse_never_panics_and_accepted_graphs_round_trip() {
    let mut accepted = 0;
    for (name, valid) in [("default", DEFAULT_CONFIG), ("abr", ABR_CONFIG)] {
        let mut rng = proptest::test_rng(name);
        for case in 0..DSL_CASES {
            let text =
                String::from_utf8_lossy(&mutate_config(&mut rng, valid.as_bytes())).into_owned();
            let check = || {
                let Ok(g) = parse(&text) else { return false };
                let again = parse(&emit(&g)).expect("emitted text parses");
                assert_eq!(shape(&g), shape(&again), "round trip changed the graph");
                true
            };
            match catch_unwind(AssertUnwindSafe(check)) {
                Ok(ok) => accepted += usize::from(ok),
                Err(_) => panic!("{name} case {case} failed on {text:?}"),
            }
        }
    }
    // Bit flips in comments and blank lines keep many configs valid, so
    // the round trip is exercised, not just the error paths.
    assert!(accepted > DSL_CASES / 4, "only {accepted} accepted");
}

/// Names a generated alias may take: plain names, feature names (an alias
/// may name its own feature or shadow another) and the reserved word.
const GEN_ALIAS_NAMES: [&str; 7] = [
    "cause",
    "effect",
    "ul_harq_retx",
    "forward_delay_up",
    "dl_cross_traffic",
    "local_jitter_buffer_drain",
    "alias",
];

/// Features generated aliases and edge lines draw from.
const GEN_FEATURES: [&str; 6] = [
    "ul_harq_retx",
    "dl_harq_retx",
    "dl_cross_traffic",
    "forward_delay_up",
    "reverse_delay_up",
    "local_jitter_buffer_drain",
];

/// A random config: up to four aliases — some naming exactly their own
/// feature — then up to five edge lines over the aliases and plain
/// features. Edges point forward in that name order, so most graphs are
/// acyclic, and many aliases end up on no edge at all.
fn random_config(rng: &mut StdRng) -> String {
    let pick = |rng: &mut StdRng, from: &[&'static str]| from[(0..from.len()).generate(rng)];
    let mut text = String::new();
    let mut names: Vec<&str> = Vec::new();
    for _ in 0..(0..5usize).generate(rng) {
        let name = pick(rng, &GEN_ALIAS_NAMES);
        let own = GEN_FEATURES.contains(&name) && proptest::any::<bool>().generate(rng);
        let features: Vec<&str> = if own {
            vec![name]
        } else {
            (0..(1..4usize).generate(rng))
                .map(|_| pick(rng, &GEN_FEATURES))
                .collect()
        };
        text.push_str(&format!("alias {name} = {}\n", features.join(" | ")));
        names.push(name);
    }
    names.extend(GEN_FEATURES);
    for _ in 0..(0..6usize).generate(rng) {
        let (a, b) = (
            (0..names.len()).generate(rng),
            (0..names.len()).generate(rng),
        );
        if a < b {
            text.push_str(&format!("{} --> {}\n", names[a], names[b]));
        }
    }
    text
}

#[test]
fn generated_graphs_round_trip_through_emit() {
    let mut rng = proptest::test_rng("generated_graphs_round_trip_through_emit");
    let (mut isolated_own, mut shadowing, mut reserved) = (0, 0, 0);
    for case in 0..DSL_CASES {
        let text = random_config(&mut rng);
        let parsed = parse(&text);
        // The reserved word is rejected on its line, or on an earlier
        // line that fails first.
        if let Some(i) = text.lines().position(|l| l.starts_with("alias alias ")) {
            let err = parsed.expect_err("`alias` cannot name an alias");
            assert!(
                (1..=i + 1).contains(&err.line),
                "case {case}: {err} on {text:?}"
            );
            reserved += 1;
            continue;
        }
        let Ok(g) = parsed else { continue };
        for id in 0..g.node_count() {
            let pred = g.predicate(id);
            let own = pred.len() == 1 && pred[0].name() == g.name(id);
            let isolated = g.parents(id).is_empty() && g.children(id).is_empty();
            isolated_own += usize::from(own && isolated);
            shadowing += usize::from(!own && Feature::parse(g.name(id)).is_some());
        }
        let again = parse(&emit(&g))
            .unwrap_or_else(|e| panic!("case {case}: emit of {text:?} does not parse: {e}"));
        assert_eq!(shape(&g), shape(&again), "case {case}: {text:?}");
    }
    // Every shape the generator aims at occurred.
    assert!(isolated_own > 0 && shadowing > 0 && reserved > 0);
}

/// The paper's Fig. 11 input.
const FIG11_CONFIG: &str = "
dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain
";

/// A node on no edge is a root and a leaf: a one-node chain.
const LONE_CONFIG: &str = "
alias lone = ul_harq_retx
dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain
";

/// Names the generated code must quote: `"`, `\`, non-ASCII letters and a
/// combining mark (which Rust's `{:?}` escapes as `\u{301}`).
const QUOTED_CONFIG: &str = "
alias qu\"ote = ul_harq_retx | dl_harq_retx
alias back\\slash = forward_delay_up | reverse_delay_up
alias ñandú = local_jitter_buffer_drain | remote_jitter_buffer_drain
alias cafe\u{301} = ul_cross_traffic
alias \"\\ñ = rrc_state_change
qu\"ote --> back\\slash --> ñandú
cafe\u{301} --> back\\slash
";

/// 68 nodes, more than a `u64` has bits: a root per feature, four
/// intermediates and 24 consequences, half of them behind two
/// intermediates; 360 chains.
fn wide_config() -> String {
    let f = Feature::all();
    let mut text = String::new();
    for (i, feature) in f.iter().enumerate() {
        writeln!(text, "alias r{i} = {}", feature.name()).unwrap();
    }
    for m in 0..4 {
        writeln!(text, "alias m{m} = {} | {}", f[m].name(), f[m + 20].name()).unwrap();
    }
    for c in 0..24 {
        writeln!(text, "alias c{c} = {} | {}", f[c].name(), f[39 - c].name()).unwrap();
    }
    for i in 0..40 {
        writeln!(text, "r{i} --> m{}", i % 4).unwrap();
    }
    for c in 0..24 {
        writeln!(text, "m{} --> c{c}", c % 4).unwrap();
        if c < 12 {
            writeln!(text, "m{} --> c{c}", (c + 1) % 4).unwrap();
        }
    }
    text
}

/// Every graph the table is checked on, with a label: the shipped ones, the
/// Fig. 11 input, a node that is root and leaf, quoted names, a graph wider
/// than 64 nodes, and 24 accepted `random_config` graphs.
fn test_graphs() -> Vec<(String, CausalGraph)> {
    let mut graphs: Vec<(String, CausalGraph)> = vec![
        ("default".into(), default_graph()),
        ("abr".into(), abr_graph()),
    ];
    for (label, text) in [
        ("fig11", FIG11_CONFIG.to_string()),
        ("lone", LONE_CONFIG.to_string()),
        ("quoted", QUOTED_CONFIG.to_string()),
        ("wide", wide_config()),
    ] {
        graphs.push((label.into(), parse(&text).expect(label)));
    }
    let mut rng = proptest::test_rng("test_graphs");
    while graphs.len() < 30 {
        let text = random_config(&mut rng);
        if let Ok(g) = parse(&text) {
            graphs.push((format!("generated {text:?}"), g));
        }
    }
    let wide = &graphs[5].1;
    assert!(wide.node_count() > 64 && compile(wide).chains().len() == 360);
    graphs
}

/// A random 40-bit feature vector, a quarter, half or three quarters full.
fn random_features(rng: &mut StdRng) -> FeatureVector {
    let a = proptest::any::<u64>().generate(rng);
    let b = proptest::any::<u64>().generate(rng);
    let bits = match (0..3u8).generate(rng) {
        0 => a & b,
        1 => a,
        _ => a | b,
    };
    let mut fv = FeatureVector::new();
    for f in Feature::all() {
        fv.set(f, bits >> f.index() & 1 == 1);
    }
    fv
}

#[test]
fn chain_table_matches_backward_trace_oracle() {
    let mut rng = proptest::test_rng("chain_table_matches_backward_trace_oracle");
    let mut hits = 0;
    let mut unknown = 0;
    for (label, g) in test_graphs() {
        let program = compile(&g);
        for _ in 0..4 * proptest::CASES {
            let fv = random_features(&mut rng);
            let got = program.trace_chains(&fv);
            assert_eq!(got, oracle::trace_chains(&g, &fv), "{label}: {fv:?}");
            hits += got.0.len();
            unknown += got.1.len();
        }
    }
    assert!(hits > 0 && unknown > 0, "{hits} hits, {unknown} unknown");
}

/// What generated code must print for one case, `chain ids | causes |
/// consequences` by node id: causes in first-hit order and consequences in
/// table order for Rust, whose function returns lists; both sorted for
/// Python, whose function returns sets.
fn expected_lines(program: &DetectionProgram, fv: &FeatureVector) -> (String, String) {
    let ids: HashMap<&Vec<usize>, usize> = program
        .chains()
        .iter()
        .enumerate()
        .map(|(i, c)| (c, i))
        .collect();
    let (hits, unknown) = program.trace_chains(fv);
    let mut causes: Vec<usize> = Vec::new();
    for h in &hits {
        if !causes.contains(&h.cause) {
            causes.push(h.cause);
        }
    }
    let mut consequences: Vec<usize> = hits.iter().map(|h| h.consequence).collect();
    consequences.extend(unknown);
    consequences.sort();
    consequences.dedup();
    let join = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(" ");
    let chains = join(&hits.iter().map(|h| ids[&h.path]).collect::<Vec<_>>());
    let rust = format!("{chains} | {} | {}", join(&causes), join(&consequences));
    causes.sort();
    let python = format!("{chains} | {} | {}", join(&causes), join(&consequences));
    (rust, python)
}

/// `n` as two hex digits per UTF-8 byte, so the drivers' input needs no
/// quoting of its own.
fn hex(n: &str) -> String {
    n.bytes().map(|b| format!("{b:02x}")).collect()
}

/// The Rust driver: each graph's generated function in its own module, and
/// a `main` that answers the cases on stdin.
fn rust_driver(graphs: &[(String, CausalGraph)], programs: &[DetectionProgram]) -> String {
    let mut src = String::new();
    for (k, ((_, g), p)) in graphs.iter().zip(programs).enumerate() {
        writeln!(src, "mod g{k} {{\n{}}}", p.emit_rust(g)).unwrap();
    }
    src.push_str(
        r#"
fn unhex(h: &str) -> String {
    let bytes = (0..h.len()).step_by(2).map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap());
    String::from_utf8(bytes.collect()).unwrap()
}

fn main() {
    let mut names: Vec<Vec<String>> = Vec::new();
    for line in std::io::stdin().lines() {
        let line = line.unwrap();
        let words: Vec<&str> = line.split(' ').collect();
        if words[0] == "graph" {
            names.push(words[1..].iter().map(|h| unhex(h)).collect());
            continue;
        }
        let k: usize = words[1].parse().unwrap();
        let (names, bits) = (&names[k], words[2].as_bytes());
        let id = |n: &str| names.iter().position(|m| m == n).unwrap_or_else(|| panic!("no node {n:?}"));
        let active = |n: &str| bits[id(n)] == b'1';
        let (consequences, causes, chains) = match k {
"#,
    );
    for k in 0..graphs.len() {
        writeln!(src, "            {k} => g{k}::backward_trace(active),").unwrap();
    }
    src.push_str(
        r#"            _ => unreachable!(),
        };
        let ids = |v: Vec<&str>| v.iter().map(|n| id(n).to_string()).collect::<Vec<_>>().join(" ");
        let chains: Vec<String> = chains.iter().map(|c| c.to_string()).collect();
        println!("{} | {} | {}", chains.join(" "), ids(causes), ids(consequences));
    }
}
"#,
    );
    src
}

/// The Python driver: loads graph `k`'s generated function from `g{k}.py`
/// in its directory and answers the cases on stdin.
const PYTHON_DRIVER: &str = r#"
import os, sys
here = os.path.dirname(os.path.abspath(__file__))
names, functions = [], []
for line in sys.stdin:
    words = line.rstrip("\n").split(" ")
    if words[0] == "graph":
        names.append([bytes.fromhex(h).decode("utf-8") for h in words[1:]])
        scope = {}
        with open(os.path.join(here, f"g{len(functions)}.py"), encoding="utf-8") as f:
            exec(f.read(), scope)
        functions.append(scope["backward_trace"])
        continue
    k, bits = int(words[1]), words[2]
    ids = {n: i for i, n in enumerate(names[k])}
    consequences, causes, chains = functions[k]({n: b == "1" for n, b in zip(names[k], bits)})
    by_id = lambda s: " ".join(str(i) for i in sorted(ids[n] for n in s))
    print(f"{' '.join(map(str, chains))} | {by_id(causes)} | {by_id(consequences)}")
"#;

/// Runs `cmd` with `input` on stdin and returns its stdout lines, failing
/// the test with the tool's own words when it is missing or fails.
fn run_tool(cmd: &mut Command, what: &str, input: &Path) -> Vec<String> {
    let out = cmd
        .stdin(Stdio::from(fs::File::open(input).unwrap()))
        .output()
        .unwrap_or_else(|e| panic!("cannot start {what} (looked up on PATH): {e}"));
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Feature vectors of every window of two real traces: an RTC call, and an
/// ABR stream under cross traffic whose buffer-low and ladder-switch-down
/// playback features fire.
fn real_windows() -> Vec<FeatureVector> {
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(20),
        seed: 404,
        ..Default::default()
    };
    let rtc = SessionSpec::cell(domino::scenarios::tmobile_fdd_15mhz(), cfg.clone()).run();
    let abr = SessionSpec::cell(domino::scenarios::amarisoft(), cfg)
        .abr(AbrConfig::default())
        .with_script(ScriptAction::CrossTraffic {
            dir: Direction::Downlink,
            from: SimTime::from_secs(6),
            to: SimTime::from_secs(14),
            prb_fraction: 0.97,
        })
        .run();
    let domino = Domino::with_defaults();
    let mut windows = Vec::new();
    for bundle in [rtc, abr] {
        let analysis = domino.analyze(&bundle);
        assert!(!analysis.windows.is_empty());
        windows.extend(analysis.windows.iter().map(|w| w.features));
    }
    windows
}

#[test]
fn generated_python_and_rust_match_the_chain_table() {
    let graphs = test_graphs();
    let programs: Vec<DetectionProgram> = graphs.iter().map(|(_, g)| compile(g)).collect();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dsl_codegen");
    fs::create_dir_all(&dir).unwrap();

    let mut rng = proptest::test_rng("generated_python_and_rust_match_the_chain_table");
    let real = real_windows();
    assert!(real.iter().any(|fv| fv.count_active() > 0));
    let mut input = String::new();
    let mut expected = Vec::new();
    for (k, ((_, g), program)) in graphs.iter().zip(&programs).enumerate() {
        fs::write(dir.join(format!("g{k}.py")), program.emit_python(g)).unwrap();
        let names: Vec<String> = (0..g.node_count()).map(|n| hex(g.name(n))).collect();
        writeln!(input, "graph {}", names.join(" ")).unwrap();
        let random = (0..proptest::CASES).map(|_| random_features(&mut rng));
        for fv in real.iter().copied().chain(random) {
            let bits: String = (0..g.node_count())
                .map(|n| if g.is_active(n, &fv) { '1' } else { '0' })
                .collect();
            writeln!(input, "case {k} {bits}").unwrap();
            expected.push((k, fv, expected_lines(program, &fv)));
        }
    }
    let input_path = dir.join("cases.txt");
    fs::write(&input_path, input).unwrap();
    fs::write(dir.join("driver.py"), PYTHON_DRIVER).unwrap();
    fs::write(dir.join("driver.rs"), rust_driver(&graphs, &programs)).unwrap();

    let exe = dir.join("driver");
    let built = Command::new("rustc")
        .args(["--edition", "2021", "-o"])
        .arg(&exe)
        .arg(dir.join("driver.rs"))
        .output()
        .unwrap_or_else(|e| panic!("cannot start rustc (looked up on PATH): {e}"));
    assert!(
        built.status.success(),
        "rustc rejected the generated Rust:\n{}",
        String::from_utf8_lossy(&built.stderr)
    );
    let rust = run_tool(&mut Command::new(&exe), "the compiled Rust", &input_path);
    let python = run_tool(
        Command::new("python3").arg(dir.join("driver.py")),
        "python3",
        &input_path,
    );
    assert_eq!(rust.len(), expected.len());
    assert_eq!(python.len(), expected.len());
    for (i, (k, fv, (want_rust, want_python))) in expected.iter().enumerate() {
        let label = &graphs[*k].0;
        assert_eq!(&rust[i], want_rust, "Rust, {label}, {fv:?}");
        assert_eq!(&python[i], want_python, "Python, {label}, {fv:?}");
    }
}
