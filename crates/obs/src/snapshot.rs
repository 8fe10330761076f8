//! The versioned plain-text `MetricsSnapshot` wire format.
//!
//! Written and read with the shared [`crate::wire`] codec: tab-separated
//! fields, a version header, floats as hex IEEE-754 bit patterns, sorted
//! keys, strict parse-time validation, and one canonical encoding (parse →
//! re-encode is byte-identical). Two sections:
//!
//! ```text
//! domino-metrics\tv1
//! section\tsim                      # deterministic: byte-identical at any
//! counter\t<name>\t<u64>            #   thread/shard/mux partitioning
//! gauge\t<name>\t<max>\t<updates>
//! fgauge\t<name>\t<hex f64 bits>\t<updates>
//! hist\t<name>\t<buckets>\t<count>\t<sum>\t<min>\t<max>\t<c0>\t…
//! section\truntime                  # optional: wall clocks, occupancy —
//! counter\t…                        #   machine-dependent, excluded from
//! span\t<name>\t<calls>\t<sampled>\t<wall_ns>   # byte-compares
//! end\tdomino-metrics\t<fnv1a-64 of everything above>
//! ```
//!
//! Within each section, lines are grouped by kind (counter, gauge,
//! fgauge, hist, span) and sorted by metric name. The trailing checksum
//! makes any single-byte corruption a parse error; structural validation
//! (known names, exact layout widths, `count == Σ buckets`,
//! `min·count ≤ sum ≤ max·count`) rejects semantic tampering even where a
//! forger recomputes the checksum.

use crate::wire::{Fields, Reader, WireError, Writer};
use crate::{
    sink_parts, Class, Counter, FGauge, Gauge, HistData, HistId, MetricSink, SpanData, SpanId,
};

/// First line of every encoded snapshot.
pub const FORMAT_HEADER: &str = "domino-metrics\tv1";
const END_TAG: &str = "domino-metrics";

/// A merged, order-free aggregate of everything one or more [`crate::Recorder`]s
/// observed. Fixed shape: one slot per compiled metric id.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::COUNT],
    gauges: [(u64, u64); Gauge::COUNT],
    fgauges: [(f64, u64); FGauge::COUNT],
    hists: [HistData; HistId::COUNT],
    spans: [SpanData; SpanId::COUNT],
    /// Whether the runtime (machine-dependent) section is populated and
    /// should be carried by [`Self::encode`].
    pub has_runtime: bool,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl MetricsSnapshot {
    /// An all-zero snapshot (useful as a merge identity).
    pub fn empty() -> Self {
        MetricsSnapshot {
            counters: [0; Counter::COUNT],
            gauges: [(0, 0); Gauge::COUNT],
            fgauges: [(f64::NEG_INFINITY, 0); FGauge::COUNT],
            hists: [HistData::EMPTY; HistId::COUNT],
            spans: [SpanData::default(); SpanId::COUNT],
            has_runtime: false,
        }
    }

    pub(crate) fn from_sink(sink: &MetricSink) -> Self {
        let (counters, gauges, fgauges, hists, spans) = sink_parts(sink);
        let mut spans = *spans;
        for s in &mut spans {
            // The sampling phase is recorder-internal state, not data.
            *s = SpanData {
                calls: s.calls,
                sampled: s.sampled,
                wall_ns: s.wall_ns,
                ..SpanData::default()
            };
        }
        MetricsSnapshot {
            counters: *counters,
            gauges: *gauges,
            fgauges: *fgauges,
            hists: *hists,
            spans,
            has_runtime: true,
        }
    }

    // -- accessors --------------------------------------------------------

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.idx()]
    }

    /// `(high_water, updates)`.
    pub fn gauge(&self, g: Gauge) -> (u64, u64) {
        self.gauges[g.idx()]
    }

    /// `(high_water, updates)`; the value is `f64::NEG_INFINITY` until
    /// the first update.
    pub fn fgauge(&self, g: FGauge) -> (f64, u64) {
        self.fgauges[g.idx()]
    }

    pub fn hist(&self, h: HistId) -> &HistData {
        &self.hists[h.idx()]
    }

    pub fn span(&self, s: SpanId) -> SpanData {
        self.spans[s.idx()]
    }

    /// Linearly-interpolated quantile (`q` in `[0,1]`) from the fixed
    /// bucket layout — deterministic given a deterministic histogram.
    pub fn quantile(&self, h: HistId, q: f64) -> f64 {
        let d = &self.hists[h.idx()];
        if d.count == 0 {
            return 0.0;
        }
        let layout = h.layout();
        let target = q.clamp(0.0, 1.0) * d.count as f64;
        let mut cum = 0.0f64;
        for (i, &c) in d.counts.iter().enumerate().take(layout.buckets()) {
            let c = c as f64;
            if c > 0.0 && cum + c >= target {
                let (lo, hi) = layout.bounds(i);
                let (lo, hi) = (lo as f64, hi as f64);
                let frac = ((target - cum) / c).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).min(d.max as f64);
            }
            cum += c;
        }
        d.max as f64
    }

    // -- merge ------------------------------------------------------------

    /// Element-wise, order-free merge: counters sum, gauges take the max,
    /// histograms add bucket-wise. Sums saturate, so forged snapshots
    /// near the integer limits cannot overflow; a saturating sum is still
    /// associative and commutative, so merging in any order yields
    /// identical bytes.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            a.0 = a.0.max(b.0);
            a.1 = a.1.saturating_add(b.1);
        }
        for (a, b) in self.fgauges.iter_mut().zip(other.fgauges.iter()) {
            if b.0 > a.0 {
                a.0 = b.0;
            }
            a.1 = a.1.saturating_add(b.1);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
        for (a, b) in self.spans.iter_mut().zip(other.spans.iter()) {
            a.calls = a.calls.saturating_add(b.calls);
            a.sampled = a.sampled.saturating_add(b.sampled);
            a.wall_ns = a.wall_ns.saturating_add(b.wall_ns);
        }
        self.has_runtime |= other.has_runtime;
    }

    // -- encode -----------------------------------------------------------

    /// Canonical encoding; includes the runtime section iff
    /// [`Self::has_runtime`]. `parse(encode(x)) == x` and
    /// `encode(parse(t)) == t`.
    pub fn encode(&self) -> String {
        self.encode_with(self.has_runtime)
    }

    /// Deterministic section only — this is what CI byte-compares across
    /// thread counts, shard counts, and multiplex widths.
    pub fn encode_sim(&self) -> String {
        self.encode_with(false)
    }

    fn encode_with(&self, runtime: bool) -> String {
        let mut w = Writer::new(FORMAT_HEADER);
        self.encode_section(&mut w, Class::Sim);
        if runtime {
            self.encode_section(&mut w, Class::Runtime);
        }
        w.seal(END_TAG)
    }

    fn encode_section(&self, w: &mut Writer, class: Class) {
        w.line("section").word(section_name(class));
        for c in Counter::ALL.iter().filter(|c| c.class() == class) {
            w.line("counter")
                .word(c.name())
                .uint(self.counters[c.idx()]);
        }
        for g in Gauge::ALL.iter().filter(|g| g.class() == class) {
            let (v, n) = self.gauges[g.idx()];
            w.line("gauge").word(g.name()).uint(v).uint(n);
        }
        for g in FGauge::ALL.iter().filter(|g| g.class() == class) {
            let (v, n) = self.fgauges[g.idx()];
            w.line("fgauge").word(g.name()).f64(v).uint(n);
        }
        for h in HistId::ALL.iter().filter(|h| h.class() == class) {
            let d = &self.hists[h.idx()];
            let nb = h.layout().buckets();
            w.line("hist")
                .word(h.name())
                .uint(nb)
                .uint(d.count)
                .uint(d.sum)
                .uint(d.min)
                .uint(d.max);
            for &c in &d.counts[..nb] {
                w.uint(c);
            }
        }
        for s in SpanId::ALL.iter().filter(|s| s.class() == class) {
            let d = self.spans[s.idx()];
            w.line("span")
                .word(s.name())
                .uint(d.calls)
                .uint(d.sampled)
                .uint(d.wall_ns);
        }
    }

    // -- parse ------------------------------------------------------------

    /// Strict parse of the canonical form. Rejects unknown names, wrong
    /// ordering, layout-width mismatches, inconsistent totals, trailing
    /// bytes, and any content whose FNV-1a checksum does not match.
    pub fn parse(text: &str) -> Result<Self, WireError> {
        let mut r = Reader::open(text, FORMAT_HEADER)?;
        let mut snap = Self::empty();
        snap.parse_section(&mut r, Class::Sim)?;
        if r.peek("section") {
            snap.parse_section(&mut r, Class::Runtime)?;
            snap.has_runtime = true;
        }
        r.finish(END_TAG)?;
        Ok(snap)
    }

    fn parse_section(&mut self, r: &mut Reader<'_>, class: Class) -> Result<(), WireError> {
        r.line("section", |f| f.literal(section_name(class)))?;
        for c in Counter::ALL.iter().filter(|c| c.class() == class) {
            self.counters[c.idx()] = metric(r, "counter", c.name(), Fields::uint)?;
        }
        for g in Gauge::ALL.iter().filter(|g| g.class() == class) {
            self.gauges[g.idx()] = metric(r, "gauge", g.name(), |f| Ok((f.uint()?, f.uint()?)))?;
        }
        for g in FGauge::ALL.iter().filter(|g| g.class() == class) {
            self.fgauges[g.idx()] = metric(r, "fgauge", g.name(), |f| Ok((f.f64()?, f.uint()?)))?;
        }
        for h in HistId::ALL.iter().filter(|h| h.class() == class) {
            self.hists[h.idx()] = metric(r, "hist", h.name(), |f| {
                let nb: usize = f.uint()?;
                if nb != h.layout().buckets() {
                    return Err(f.inconsistent("histogram bucket layout"));
                }
                let mut d = HistData::EMPTY;
                d.count = f.uint()?;
                d.sum = f.uint()?;
                d.min = f.uint()?;
                d.max = f.uint()?;
                let mut total = Some(0u64);
                for slot in d.counts.iter_mut().take(nb) {
                    *slot = f.uint()?;
                    total = total.and_then(|t| t.checked_add(*slot));
                }
                let ok = if d.count == 0 {
                    total == Some(0) && d.sum == 0 && d.min == u64::MAX && d.max == 0
                } else {
                    total == Some(d.count)
                        && d.min <= d.max
                        && d.sum >= u128::from(d.min) * u128::from(d.count)
                        && d.sum <= u128::from(d.max) * u128::from(d.count)
                };
                if !ok {
                    return Err(f.inconsistent("histogram totals"));
                }
                Ok(d)
            })?;
        }
        for s in SpanId::ALL.iter().filter(|s| s.class() == class) {
            self.spans[s.idx()] = metric(r, "span", s.name(), |f| {
                let d = SpanData {
                    calls: f.uint()?,
                    sampled: f.uint()?,
                    wall_ns: f.uint()?,
                    ..SpanData::default()
                };
                if d.sampled > d.calls {
                    return Err(f.inconsistent("span sample count"));
                }
                Ok(d)
            })?;
        }
        Ok(())
    }
}

fn section_name(class: Class) -> &'static str {
    match class {
        Class::Sim => "sim",
        Class::Runtime => "runtime",
    }
}

/// Reads the next line, which must be `kind` and the metric `name`
/// followed by the fields `read` takes.
fn metric<'a, T>(
    r: &mut Reader<'a>,
    kind: &'static str,
    name: &'static str,
    read: impl FnOnce(&mut Fields<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    r.line(kind, |f| {
        f.literal(name)?;
        read(f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, Recorder};

    fn sample() -> MetricsSnapshot {
        let mut r = Recorder::new(ObsConfig::full());
        r.add(Counter::EngineTicks, 1000);
        r.add(Counter::PoolReused, 3);
        r.observe(HistId::LiveVerdictLatencyMs, 12);
        r.observe(HistId::LiveVerdictLatencyMs, 250);
        r.gauge_max(Gauge::ArenaFootprint, 4096);
        r.fgauge_max(FGauge::RanPrbUtilPeak, 0.875);
        let t = r.span_enter(SpanId::BeginTick);
        r.span_exit(SpanId::BeginTick, t);
        r.snapshot().unwrap()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        for snap in [MetricsSnapshot::empty(), sample()] {
            let text = snap.encode();
            let back = MetricsSnapshot::parse(&text).expect("parses");
            assert_eq!(back, snap);
            assert_eq!(back.encode(), text);
        }
    }

    #[test]
    fn sim_only_encoding_round_trips_without_runtime() {
        let text = sample().encode_sim();
        let back = MetricsSnapshot::parse(&text).expect("parses");
        assert!(!back.has_runtime);
        assert_eq!(back.encode(), text);
        assert_eq!(back.counter(Counter::EngineTicks), 1000);
        // Runtime values were dropped by the sim-only encoding.
        assert_eq!(back.counter(Counter::PoolReused), 0);
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let text = sample().encode();
        // Flip one digit in a counter line.
        let bad = text.replacen(
            "counter\tengine/ticks\t1000",
            "counter\tengine/ticks\t1001",
            1,
        );
        assert_ne!(bad, text);
        assert_eq!(MetricsSnapshot::parse(&bad), Err(WireError::Checksum));
        // Truncation.
        let cut = &text[..text.len() - 10];
        assert_eq!(MetricsSnapshot::parse(cut), Err(WireError::Truncated));
        // Trailing garbage.
        let tail = format!("{text}x\n");
        assert!(matches!(
            MetricsSnapshot::parse(&tail),
            Err(WireError::Trailing { .. })
        ));
        // A forged histogram whose checksum was recomputed still fails
        // structural validation.
        let forged = reseal(
            &text,
            "hist\tlive/verdict_latency_ms\t17\t2",
            "hist\tlive/verdict_latency_ms\t17\t3",
        );
        assert!(matches!(
            MetricsSnapshot::parse(&forged),
            Err(WireError::Inconsistent { .. })
        ));
    }

    /// `text` with `from` replaced by `to` and the trailer recomputed, as a
    /// forger would.
    fn reseal(text: &str, from: &str, to: &str) -> String {
        let body = text.split_once("end\tdomino-metrics").unwrap().0;
        assert!(body.contains(from), "{from:?}");
        let body = body.replacen(from, to, 1);
        let sum = crate::wire::fnv1a64(body.as_bytes());
        format!("{body}end\tdomino-metrics\t{sum:016x}\n")
    }

    #[test]
    fn resealed_non_canonical_fields_are_rejected() {
        let text = sample().encode();
        let ticks = "counter\tengine/ticks\t1000";
        for to in [
            "counter\tengine/ticks\t+1000",
            "counter\tengine/ticks\t01000",
        ] {
            assert!(matches!(
                MetricsSnapshot::parse(&reseal(&text, ticks, to)),
                Err(WireError::Malformed { .. })
            ));
        }
        let peak = format!("{:016x}", 0.875f64.to_bits());
        for to in [peak.to_uppercase(), format!("+{}", &peak[1..])] {
            assert!(matches!(
                MetricsSnapshot::parse(&reseal(&text, &peak, &to)),
                Err(WireError::Malformed { .. })
            ));
        }
        // Bucket counts whose sum overflows `u64` are inconsistent, not a
        // panic.
        let overflow = reseal(
            &text,
            "hist\tlive/delay_ms\t17\t0\t0\t18446744073709551615\t0\t0\t0",
            "hist\tlive/delay_ms\t17\t1\t0\t0\t0\t18446744073709551615\t2",
        );
        assert!(matches!(
            MetricsSnapshot::parse(&overflow),
            Err(WireError::Inconsistent { .. })
        ));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut r = Recorder::new(ObsConfig::on());
        for v in 0..100u64 {
            r.observe(HistId::RanPrbUtilPct, v);
        }
        let snap = r.snapshot().unwrap();
        let p50 = snap.quantile(HistId::RanPrbUtilPct, 0.50);
        let p99 = snap.quantile(HistId::RanPrbUtilPct, 0.99);
        assert!((45.0..=55.0).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 90.0, "p99 = {p99}");
        assert_eq!(snap.quantile(HistId::RtcPacerBacklog, 0.5), 0.0);
    }
}
