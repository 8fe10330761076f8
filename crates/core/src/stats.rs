//! Chain and event statistics over an analysis: the numbers behind Fig. 10
//! (occurrence frequency per minute), Table 2 (conditional probability of
//! cause given consequence, with an Unknown column), and Table 4 (each
//! chain's share of all detected chains).
//!
//! Occurrence counting uses *onset* semantics: with a 5 s window sliding in
//! 0.5 s steps, one physical event is visible in ~10 consecutive windows;
//! an event is counted when its node is active in a window but was not in
//! the previous one.

use std::collections::HashMap;

use crate::detect::Analysis;
use crate::graph::{CausalGraph, NodeId};

/// Aggregated statistics over one analysed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainStats {
    /// Trace length in minutes.
    pub minutes: f64,
    /// Onset counts per root cause.
    pub cause_onsets: HashMap<String, usize>,
    /// Onset counts per consequence.
    pub consequence_onsets: HashMap<String, usize>,
    /// Windows in which each consequence was active.
    pub consequence_windows: HashMap<String, usize>,
    /// Windows in which each (cause, consequence) chain was found.
    pub chain_windows: HashMap<(String, String), usize>,
    /// Windows in which a consequence was active with no complete chain.
    pub unknown_windows: HashMap<String, usize>,
    /// Total chain-window observations.
    pub total_chain_windows: usize,
}

impl ChainStats {
    /// Computes statistics from an analysis.
    pub fn compute(graph: &CausalGraph, analysis: &Analysis) -> ChainStats {
        let minutes = (analysis.duration.as_secs_f64() / 60.0).max(1e-9);
        let mut s = ChainStats {
            minutes,
            ..Default::default()
        };
        let roots = graph.roots();
        let leaves = graph.leaves();

        let mut prev_active: HashMap<NodeId, bool> = HashMap::new();
        for w in &analysis.windows {
            for &node in roots.iter().chain(leaves.iter()) {
                let active = graph.is_active(node, &w.features);
                let was = prev_active.insert(node, active).unwrap_or(false);
                if active && !was {
                    let name = graph.name(node).to_string();
                    if roots.contains(&node) {
                        *s.cause_onsets.entry(name).or_default() += 1;
                    } else {
                        *s.consequence_onsets.entry(name).or_default() += 1;
                    }
                }
                if active && leaves.contains(&node) {
                    *s.consequence_windows
                        .entry(graph.name(node).to_string())
                        .or_default() += 1;
                }
            }
            // Chains: count each (cause, consequence) pair once per window.
            let mut seen: Vec<(NodeId, NodeId)> = Vec::new();
            for c in &w.chains {
                if !seen.contains(&(c.cause, c.consequence)) {
                    seen.push((c.cause, c.consequence));
                    let key = (
                        graph.name(c.cause).to_string(),
                        graph.name(c.consequence).to_string(),
                    );
                    *s.chain_windows.entry(key).or_default() += 1;
                    s.total_chain_windows += 1;
                }
            }
            for &u in &w.unknown_consequences {
                *s.unknown_windows
                    .entry(graph.name(u).to_string())
                    .or_default() += 1;
            }
        }
        s
    }

    /// Merges another trace's statistics into this one (used to aggregate
    /// the commercial or private cells, as Fig. 10/Tables 2 and 4 do).
    /// Counts saturate: statistics parsed from a forged shard report must
    /// not overflow a merge.
    pub fn merge(&mut self, other: &ChainStats) {
        fn add_all<K: Clone + Eq + std::hash::Hash>(
            into: &mut HashMap<K, usize>,
            from: &HashMap<K, usize>,
        ) {
            for (k, v) in from {
                let n = into.entry(k.clone()).or_default();
                *n = n.saturating_add(*v);
            }
        }
        self.minutes += other.minutes;
        add_all(&mut self.cause_onsets, &other.cause_onsets);
        add_all(&mut self.consequence_onsets, &other.consequence_onsets);
        add_all(&mut self.consequence_windows, &other.consequence_windows);
        add_all(&mut self.chain_windows, &other.chain_windows);
        add_all(&mut self.unknown_windows, &other.unknown_windows);
        self.total_chain_windows = self
            .total_chain_windows
            .saturating_add(other.total_chain_windows);
    }

    /// Fig. 10 numbers: cause onsets per minute.
    pub fn cause_frequency_per_min(&self, cause: &str) -> f64 {
        *self.cause_onsets.get(cause).unwrap_or(&0) as f64 / self.minutes
    }

    /// Fig. 10 numbers: consequence onsets per minute.
    pub fn consequence_frequency_per_min(&self, consequence: &str) -> f64 {
        *self.consequence_onsets.get(consequence).unwrap_or(&0) as f64 / self.minutes
    }

    /// Table 2: P(cause | consequence) over consequence-active windows.
    pub fn conditional_probability(&self, cause: &str, consequence: &str) -> f64 {
        let denom = *self.consequence_windows.get(consequence).unwrap_or(&0);
        if denom == 0 {
            return 0.0;
        }
        let num = *self
            .chain_windows
            .get(&(cause.to_string(), consequence.to_string()))
            .unwrap_or(&0);
        num as f64 / denom as f64
    }

    /// Table 2 "Unknown" column: consequence windows with no chain.
    pub fn unknown_probability(&self, consequence: &str) -> f64 {
        let denom = *self.consequence_windows.get(consequence).unwrap_or(&0);
        if denom == 0 {
            return 0.0;
        }
        *self.unknown_windows.get(consequence).unwrap_or(&0) as f64 / denom as f64
    }

    /// Table 4: this chain's share of all detected chains.
    pub fn chain_ratio(&self, cause: &str, consequence: &str) -> f64 {
        if self.total_chain_windows == 0 {
            return 0.0;
        }
        *self
            .chain_windows
            .get(&(cause.to_string(), consequence.to_string()))
            .unwrap_or(&0) as f64
            / self.total_chain_windows as f64
    }
}

/// Renders a Fig. 10-style frequency report.
pub fn render_frequency_table(graph: &CausalGraph, stats: &ChainStats) -> String {
    let mut out = String::from("Causes in 5G (per minute)\n");
    for root in graph.roots() {
        let name = graph.name(root);
        out.push_str(&format!(
            "  {:<22} {:>6.2}\n",
            name,
            stats.cause_frequency_per_min(name)
        ));
    }
    out.push_str("Consequences in APP (per minute)\n");
    for leaf in graph.leaves() {
        let name = graph.name(leaf);
        out.push_str(&format!(
            "  {:<22} {:>6.2}\n",
            name,
            stats.consequence_frequency_per_min(name)
        ));
    }
    out
}

/// Renders a Table 2-style conditional-probability matrix.
pub fn render_conditional_table(graph: &CausalGraph, stats: &ChainStats) -> String {
    let causes: Vec<&str> = graph.roots().into_iter().map(|r| graph.name(r)).collect();
    let mut out = format!("{:<22}", "consequence \\ cause");
    for c in &causes {
        out.push_str(&format!(" {:>14}", c));
    }
    out.push_str(&format!(" {:>9}\n", "unknown"));
    for leaf in graph.leaves() {
        let cons = graph.name(leaf);
        out.push_str(&format!("{cons:<22}"));
        for c in &causes {
            out.push_str(&format!(
                " {:>13.1}%",
                100.0 * stats.conditional_probability(c, cons)
            ));
        }
        out.push_str(&format!(
            " {:>8.1}%\n",
            100.0 * stats.unknown_probability(cons)
        ));
    }
    out
}

/// Renders a Table 4-style chain-ratio matrix.
pub fn render_chain_ratio_table(graph: &CausalGraph, stats: &ChainStats) -> String {
    let causes: Vec<&str> = graph.roots().into_iter().map(|r| graph.name(r)).collect();
    let mut out = format!("{:<22}", "consequence \\ cause");
    for c in &causes {
        out.push_str(&format!(" {:>14}", c));
    }
    out.push('\n');
    for leaf in graph.leaves() {
        let cons = graph.name(leaf);
        out.push_str(&format!("{cons:<22}"));
        for c in &causes {
            out.push_str(&format!(" {:>13.1}%", 100.0 * stats.chain_ratio(c, cons)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::detect::{ChainHit, WindowAnalysis};
    use crate::dsl::default_graph;
    use crate::features::{Feature, FeatureVector};
    use simcore::{SimDuration, SimTime};

    /// Builds a synthetic analysis: `pattern[i]` says whether the harq →
    /// fwd → jitter-drain chain is active in window i.
    fn synthetic(pattern: &[bool]) -> (crate::graph::CausalGraph, Analysis) {
        let g = default_graph();
        let harq = g.id("harq_retx").unwrap();
        let fwd = g.id("forward_delay_up").unwrap();
        let jb = g.id("jitter_buffer_drain").unwrap();
        let windows = pattern
            .iter()
            .enumerate()
            .map(|(i, &on)| {
                let mut fv = FeatureVector::new();
                let mut chains = Vec::new();
                if on {
                    fv.set(Feature::parse("ul_harq_retx").unwrap(), true);
                    fv.set(Feature::parse("forward_delay_up").unwrap(), true);
                    fv.set(Feature::parse("local_jitter_buffer_drain").unwrap(), true);
                    chains.push(ChainHit {
                        cause: harq,
                        path: vec![harq, fwd, jb],
                        consequence: jb,
                    });
                }
                WindowAnalysis {
                    start: SimTime::from_millis(i as u64 * 500),
                    features: fv,
                    chains,
                    unknown_consequences: vec![],
                }
            })
            .collect();
        (
            g,
            Analysis {
                windows,
                duration: SimDuration::from_secs(60),
            },
        )
    }

    #[test]
    fn onset_counting_dedups_overlapping_windows() {
        // Two distinct episodes: windows 2-5 and 10-12 → 2 onsets.
        let mut pattern = vec![false; 20];
        for w in &mut pattern[2..=5] {
            *w = true;
        }
        for w in &mut pattern[10..=12] {
            *w = true;
        }
        let (g, a) = synthetic(&pattern);
        let s = ChainStats::compute(&g, &a);
        assert_eq!(s.cause_onsets["harq_retx"], 2);
        assert_eq!(s.consequence_onsets["jitter_buffer_drain"], 2);
        assert_eq!(s.cause_frequency_per_min("harq_retx"), 2.0);
    }

    #[test]
    fn conditional_probability_is_one_when_always_attributed() {
        let pattern = vec![true; 10];
        let (g, a) = synthetic(&pattern);
        let s = ChainStats::compute(&g, &a);
        assert_eq!(
            s.conditional_probability("harq_retx", "jitter_buffer_drain"),
            1.0
        );
        assert_eq!(
            s.conditional_probability("rlc_retx", "jitter_buffer_drain"),
            0.0
        );
        assert_eq!(s.unknown_probability("jitter_buffer_drain"), 0.0);
        assert_eq!(s.chain_ratio("harq_retx", "jitter_buffer_drain"), 1.0);
    }

    #[test]
    fn rendering_contains_all_nodes() {
        let (g, a) = synthetic(&[true, false, true]);
        let s = ChainStats::compute(&g, &a);
        let freq = render_frequency_table(&g, &s);
        for name in [
            "poor_channel",
            "cross_traffic",
            "ul_scheduling",
            "harq_retx",
            "rlc_retx",
            "rrc_state_change",
            "jitter_buffer_drain",
            "target_bitrate_down",
            "pushback_rate_down",
        ] {
            assert!(freq.contains(name), "{name} missing from frequency table");
        }
        let cond = render_conditional_table(&g, &s);
        assert!(cond.contains("unknown"));
        let ratio = render_chain_ratio_table(&g, &s);
        assert!(ratio.contains("harq_retx"));
    }

    #[test]
    fn empty_analysis_is_all_zero() {
        let (g, a) = synthetic(&[false; 5]);
        let s = ChainStats::compute(&g, &a);
        assert_eq!(s.total_chain_windows, 0);
        assert_eq!(s.cause_frequency_per_min("harq_retx"), 0.0);
        assert_eq!(
            s.conditional_probability("harq_retx", "jitter_buffer_drain"),
            0.0
        );
    }

    // ---- merge contract (the shard-merge layer in `domino-sweep` relies
    // ---- on these properties) -----------------------------------------

    /// A synthetic stats value keyed off `tag`, with every field populated.
    fn sample_stats(tag: u64) -> ChainStats {
        let causes = ["harq_retx", "rlc_retx", "cross_traffic"];
        let conses = ["jitter_buffer_drain", "target_bitrate_down"];
        let mut s = ChainStats {
            // Multiples of 1/8 are exactly representable, so f64 sums over
            // them never round: grouping order cannot perturb `minutes`.
            minutes: (tag % 64) as f64 * 0.125,
            ..Default::default()
        };
        for (i, c) in causes.iter().enumerate() {
            if tag >> i & 1 == 1 {
                s.cause_onsets.insert(c.to_string(), (tag % 7 + 1) as usize);
            }
        }
        for (i, c) in conses.iter().enumerate() {
            if tag >> (i + 3) & 1 == 1 {
                s.consequence_onsets
                    .insert(c.to_string(), (tag % 5 + 1) as usize);
                s.consequence_windows
                    .insert(c.to_string(), (tag % 11 + 2) as usize);
                s.unknown_windows.insert(c.to_string(), (tag % 3) as usize);
            }
        }
        for cause in causes {
            for cons in conses {
                if (tag ^ cause.len() as u64 ^ cons.len() as u64).is_multiple_of(3) {
                    let n = (tag % 9 + 1) as usize;
                    s.chain_windows
                        .insert((cause.to_string(), cons.to_string()), n);
                    s.total_chain_windows += n;
                }
            }
        }
        s
    }

    fn fold(stats: &[ChainStats]) -> ChainStats {
        let mut agg = ChainStats::default();
        for s in stats {
            agg.merge(s);
        }
        agg
    }

    fn assert_counters_eq(a: &ChainStats, b: &ChainStats) {
        assert_eq!(a.cause_onsets, b.cause_onsets);
        assert_eq!(a.consequence_onsets, b.consequence_onsets);
        assert_eq!(a.consequence_windows, b.consequence_windows);
        assert_eq!(a.chain_windows, b.chain_windows);
        assert_eq!(a.unknown_windows, b.unknown_windows);
        assert_eq!(a.total_chain_windows, b.total_chain_windows);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let s = sample_stats(29);
        // Empty into s.
        let mut left = s.clone();
        left.merge(&ChainStats::default());
        assert_counters_eq(&left, &s);
        assert_eq!(left.minutes, s.minutes);
        // s into empty.
        let mut right = ChainStats::default();
        right.merge(&s);
        assert_counters_eq(&right, &s);
        assert_eq!(right.minutes, s.minutes);
    }

    #[test]
    fn grouped_merge_matches_whole_fold_for_equal_order() {
        // Shard-style grouping: fold [0..2], [2..5], [5..8] separately, then
        // fold the group aggregates in the same order. Every counter must
        // match the whole fold exactly; so does `minutes` here because the
        // samples are exact binary fractions.
        let stats: Vec<ChainStats> = (0..8).map(sample_stats).collect();
        let whole = fold(&stats);
        let grouped = fold(&[fold(&stats[0..2]), fold(&stats[2..5]), fold(&stats[5..8])]);
        assert_counters_eq(&grouped, &whole);
        assert_eq!(grouped.minutes, whole.minutes);
    }

    proptest! {
        /// Split-vs-whole: folding any contiguous split's per-item stats
        /// across chunk boundaries reproduces the whole fold exactly — the
        /// merge-shards refold contract. Grouped chunk aggregates agree on
        /// every integer counter too.
        #[test]
        fn fuzz_split_vs_whole_equality(
            tags in proptest::collection::vec(proptest::any::<u64>(), 1..12),
            cut_a in 0usize..12,
            cut_b in 0usize..12,
        ) {
            let stats: Vec<ChainStats> = tags.iter().map(|&t| sample_stats(t)).collect();
            let (mut a, mut b) = (cut_a % (stats.len() + 1), cut_b % (stats.len() + 1));
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            let whole = fold(&stats);
            // Refold per-item across the chunk boundaries: identical
            // operation sequence, bit-identical result.
            let mut refold = ChainStats::default();
            for chunk in [&stats[..a], &stats[a..b], &stats[b..]] {
                for s in chunk {
                    refold.merge(s);
                }
            }
            assert_counters_eq(&refold, &whole);
            prop_assert_eq!(refold.minutes.to_bits(), whole.minutes.to_bits());
            // Grouped chunk aggregates: integer counters exact; minutes
            // exact here because samples are 1/8-grained.
            let grouped = fold(&[fold(&stats[..a]), fold(&stats[a..b]), fold(&stats[b..])]);
            assert_counters_eq(&grouped, &whole);
            prop_assert_eq!(grouped.minutes.to_bits(), whole.minutes.to_bits());
        }
    }
}
