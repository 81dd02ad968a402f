//! Quantiles, operation accounting and the result line.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Operations attempted and failed, with one line per failure kind so the
/// known defects stay visible per leg.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are not one of the known defects.
    pub unexpected: u64,
    failures: BTreeMap<String, u64>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed operation of workload slice `group`.
    pub fn fail(&mut self, group: &str, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        if !crate::oracle::is_known_defect(group, what) {
            self.unexpected += 1;
        }
        *self.failures.entry(format!("{group}: {what}")).or_default() += 1;
    }

    pub fn record(&mut self, group: &str, outcome: &Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(what) => self.fail(group, what),
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unexpected += other.unexpected;
        for (what, n) in other.failures {
            *self.failures.entry(what).or_default() += n;
        }
    }

    /// Prints each failure kind with its count to stderr.
    pub fn log(&self, phase: &str) {
        eprintln!(
            "[{phase}] {} attempted, {} failed ({} not a known defect)",
            self.attempted, self.failed, self.unexpected
        );
        for (what, n) in &self.failures {
            eprintln!("[{phase}]   {n} x {what}");
        }
    }
}

/// Named metrics with units, printed as the benchmark's last stdout line.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            tally.attempted.max(1),
            tally.failed,
            metrics.join(",")
        )
    }
}
