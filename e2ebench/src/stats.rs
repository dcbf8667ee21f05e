//! Order statistics and the result record every mode fills in.

/// The `q`-quantile of `values` by nearest rank (`0.0` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even
/// count; `0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean of `values` (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Requests attempted, succeeded and failed in one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name (`setup`, `load`, `probe`, `restart`, ...).
    pub name: &'static str,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose answer was correct.
    pub succeeded: u64,
    /// Requests that failed (transport, server error, wrong verdict).
    pub failed: u64,
}

impl Phase {
    /// An empty phase.
    pub fn new(name: &'static str) -> Self {
        Phase { name, ..Phase::default() }
    }

    /// Counts one request; `failure` is `None` on success.
    pub fn count(&mut self, failure: Option<&str>, failures: &mut Vec<String>) {
        self.attempted += 1;
        match failure {
            None => self.succeeded += 1,
            Some(why) => {
                self.failed += 1;
                if failures.len() < 20 {
                    failures.push(format!("{}: {why}", self.name));
                }
            }
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Per-phase request accounting.
    pub phases: Vec<Phase>,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Output checks that are not per-request (e.g. a PoC never
    /// detected); any entry makes the run incorrect.
    pub check_errors: Vec<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
    /// `key=value` provenance lines.
    pub provenance: Vec<(String, String)>,
}

impl RunResult {
    /// Adds a measurement.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Adds a provenance entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.into(), value.to_string()));
    }

    /// Requests attempted across phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Requests failed across phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.check_errors.is_empty() && self.attempted() > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every measured digit (non-finite values, which
/// JSON cannot carry, become `0`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
