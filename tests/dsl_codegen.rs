//! DSL ⇄ graph ⇄ generated-code consistency on real session data: the
//! compiled detection program must agree with the graph backward trace on
//! every window of an actual simulated trace. Plus two fuzzes of the DSL
//! parser: hostile config text never panics it, and every graph it accepts
//! round-trips through `emit` — mutated shipped configs, and generated
//! graphs with isolated nodes, aliases named after features, and the
//! reserved word.

use std::panic::{catch_unwind, AssertUnwindSafe};

use domino::core::dsl::{ABR_CONFIG, DEFAULT_CONFIG};
use domino::core::{
    compile, default_graph, emit, parse, CausalGraph, Domino, DominoConfig, Feature,
};
use domino::scenarios::{SessionConfig, SessionRun};
use domino::simcore::SimDuration;
use proptest::strategy::Strategy;
use rand::rngs::StdRng;

#[test]
fn program_agrees_with_search_on_real_trace() {
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(20),
        seed: 404,
        ..Default::default()
    };
    let bundle = SessionRun::cell(domino::scenarios::tmobile_fdd_15mhz(), &cfg).run();

    let domino = Domino::with_defaults();
    let program = compile(domino.graph());
    let analysis = domino.analyze(&bundle);
    assert!(!analysis.windows.is_empty());

    for w in &analysis.windows {
        let out = program.run(domino.graph(), &w.features);
        // Same set of (cause, consequence, path) detections.
        let mut from_search: Vec<Vec<usize>> = w.chains.iter().map(|c| c.path.clone()).collect();
        let mut from_program: Vec<Vec<usize>> = out
            .chains
            .iter()
            .map(|&id| program.chains[id].clone())
            .collect();
        from_search.sort();
        from_program.sort();
        assert_eq!(from_search, from_program, "window at {}", w.start);
    }
}

#[test]
fn dsl_round_trip_preserves_detection_behaviour() {
    let g1 = default_graph();
    let g2 = parse(&emit(&g1)).expect("emitted text parses");
    let cfg = SessionConfig {
        duration: SimDuration::from_secs(15),
        seed: 405,
        ..Default::default()
    };
    let bundle = SessionRun::cell(domino::scenarios::amarisoft(), &cfg).run();
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
