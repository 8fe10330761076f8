//! Result reporting: order statistics and the one-line JSON result object.

use std::fmt::Write as _;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`). Sorts in place; `NaN` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (see [`quantile`]).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends a metric. Names are unique by construction of the callers.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.entries.extend(other.entries);
    }

    /// Human-readable table on stderr.
    pub fn log(&self) {
        for (name, value, unit) in &self.entries {
            eprintln!("  {name:<40} {value:>16.4} {unit}");
        }
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Sessions (or replayed calls) attempted.
    pub attempted: u64,
    /// Of those, sessions that panicked or whose output differed from the
    /// reference.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl RunResult {
    /// The result as one JSON object on one line. Values are printed with
    /// every digit Rust's shortest round-trip formatting gives them.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN/inf: a quantile of no samples (a layer the
            // workload never calls) is reported as 0.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Default::default()
        };
        r.metrics.put("setup_s", 0.5, "s");
        r.metrics.put("n", 2.0, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
