//! Collected metric values, human-readable report lines and the
//! attempted/failed operation counts of one benchmark run.

use std::collections::BTreeMap;

use crate::measure::Samples;

#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record the median of host timings `s` (scaled into `unit`), and
    /// print it with its tail percentile and sample count.
    pub fn host(&mut self, name: &str, s: &Samples, scale: f64, unit: &str) {
        self.values.insert(name.to_string(), s.median() * scale);
        self.lines
            .push(format!("{name}: host {}", s.describe(scale, unit)));
    }

    /// Record a single value; `what` says where it comes from.
    pub fn value(&mut self, name: &str, v: f64, unit: &str, what: &str) {
        self.values.insert(name.to_string(), v);
        self.lines.push(format!("{name}: {v} {unit} ({what})"));
    }

    /// Count one attempted operation; an `Err` counts it as failed.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.lines.push(format!("FAILED {what}: {e}"));
                false
            }
        }
    }
}
