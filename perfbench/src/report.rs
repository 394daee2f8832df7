//! Metric records, latency summaries and the printed output.

use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` and the doc.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value rests on: sample count, ratio base or source.
    pub base: String,
}

/// An ordered list of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, base: impl Into<String>) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            base: base.into(),
        });
    }

    /// Appends `num / den` with its base spelled out (0 when `den` is 0).
    pub fn ratio(&mut self, name: &str, num: f64, den: f64, unit: &'static str, base: &str) {
        let value = if den == 0.0 { 0.0 } else { num / den };
        self.push(name, value, unit, format!("{num} / {den} {base}"));
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Prints one `metric <name> <value> <unit> (<base>)` line per metric.
    pub fn print(&self) {
        for m in &self.0 {
            println!(
                "metric {:<34} {:>14.4} {:<6} ({})",
                m.name, m.value, m.unit, m.base
            );
        }
    }
}

/// Exact order statistics of one latency sample.
#[derive(Debug, Clone)]
pub struct Latency {
    sorted: Vec<u64>,
}

/// Percentiles the summary line considers, highest last.
const TAILS: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

impl Latency {
    /// Sorts `ns` samples.
    pub fn new(mut ns: Vec<u64>) -> Latency {
        ns.sort_unstable();
        Latency { sorted: ns }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`th percentile in µs (0 for an empty sample).
    pub fn pct_us(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1] as f64 / 1e3
    }

    /// The highest of [`TAILS`] with at least ten samples beyond it.
    pub fn highest_supported(&self) -> Option<f64> {
        let n = self.sorted.len() as f64;
        TAILS
            .into_iter()
            .rev()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
    }

    /// `n=…, p<max>=… µs`: the base printed next to a percentile.
    pub fn base(&self) -> String {
        match self.highest_supported() {
            Some(p) => format!("n={}, p{p}={:.3} us", self.n(), self.pct_us(p)),
            None => format!("n={}, no tail with 10 samples beyond it", self.n()),
        }
    }
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter restricted to `names` in that order.
///
/// # Panics
///
/// If a listed metric was not recorded (a bug in this benchmark).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, name) in names.iter().enumerate() {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} not recorded"));
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let lat = Latency::new((1..=1000).rev().map(|i| i * 1000).collect());
        assert_eq!(lat.pct_us(50.0), 500.0);
        assert_eq!(lat.pct_us(99.0), 990.0);
        assert_eq!(lat.pct_us(100.0), 1000.0);
        assert_eq!(lat.highest_supported(), Some(99.0));
        assert_eq!(Latency::new(vec![]).pct_us(50.0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("a_s", 1.5, "s", "x");
        m.push("b", 2.0, "count", "y");
        let line = result_json(true, 3, 0, &m, &["a_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
