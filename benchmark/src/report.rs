//! The result line a run prints, and reading it back in the runner.

use crate::manifest::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// The seven workload-measured end-to-end metrics; `peak_rss_bytes` is read
/// by `main` when the workload has finished.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndValues {
    pub setup_s: f64,
    pub compile_s: f64,
    pub run_s: f64,
    pub quality: f64,
    pub latency_p50_s: f64,
    pub latency_p90_s: f64,
    pub throughput_per_s: f64,
}

impl EndToEndValues {
    pub fn named(&self, peak_rss_bytes: f64) -> Vec<(&'static str, f64)> {
        let values = [
            self.setup_s,
            self.compile_s,
            self.run_s,
            self.quality,
            self.latency_p50_s,
            self.latency_p90_s,
            self.throughput_per_s,
            peak_rss_bytes,
        ];
        END_TO_END.iter().map(|m| m.name).zip(values).collect()
    }
}

/// Per-layer values by metric name. A metric nobody set reads 0: the
/// workload bypassed that layer.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric of the manifest"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn named(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}

/// What one workload run found out.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: timed repetitions on the batch workloads,
    /// requests (and feedback calls) on the serve workloads.
    pub attempted: u64,
    /// Error replies, refused requests, oracle and digest mismatches.
    pub failed: u64,
    /// Checks that are not operations (digest of the oracle, analyzer
    /// diagnostics, accelerated outputs); any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub end_to_end: EndToEndValues,
    pub layers: Layers,
    /// Timings worth showing with quartiles in the human-readable table.
    pub summaries: Vec<(&'static str, Summary)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// One run's result as the driver reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// The last line of standard output. `{:?}` prints every digit an
    /// `f64` needs to read back to the same value.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    unit_of(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Inverse of [`RunResult::to_json_line`]; reads only that shape.
    pub fn parse(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let (_, body) = line.split_once("\"metrics\": {")?;
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let name = name.rsplit_once('"')?.1;
            let (value, _) = rest.split_once(',')?;
            metrics.push((name.to_string(), value.parse().ok()?));
        }
        Some(RunResult {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
    }
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => second / first - 1.0,
        Better::Higher => 1.0 - second / first,
    }
}

pub fn print_table(title: &str, rows: &[(&str, f64)], summaries: &[(&'static str, Summary)]) {
    eprintln!("{title}");
    for (name, value) in rows {
        eprintln!("  {name:<40} {value:>18.9} {}", unit_of(name));
    }
    for (name, s) in summaries {
        eprintln!(
            "  {name:<40} median {:.6} [q1 {:.6}, q3 {:.6}] n={}",
            s.median, s.q1, s.q3, s.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let r = RunResult {
            correct: true,
            attempted: 15_000,
            failed: 0,
            metrics: vec![
                ("latency_p50_s".to_string(), 0.1 + 0.2),
                ("quality".to_string(), 1.0),
                ("hdc-runtime.bytes_copied".to_string(), 100_073_984.0),
                ("throughput_per_s".to_string(), 1e-7),
            ],
        };
        let line = r.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 15000, \"failed\": 0, "));
        assert!(
            line.contains("\"latency_p50_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}")
        );
        assert!(line
            .contains("\"hdc-runtime.bytes_copied\": {\"value\": 100073984.0, \"unit\": \"B\"}"));
        assert_eq!(RunResult::parse(&line), Some(r));
        assert_eq!(RunResult::parse("not a result"), None);
    }

    #[test]
    fn end_to_end_values_are_named_in_manifest_order() {
        let values = EndToEndValues {
            setup_s: 1.0,
            compile_s: 2.0,
            run_s: 3.0,
            quality: 4.0,
            latency_p50_s: 5.0,
            latency_p90_s: 6.0,
            throughput_per_s: 7.0,
        };
        assert_eq!(
            values.named(8.0),
            [
                ("setup_s", 1.0),
                ("compile_s", 2.0),
                ("run_s", 3.0),
                ("quality", 4.0),
                ("latency_p50_s", 5.0),
                ("latency_p90_s", 6.0),
                ("throughput_per_s", 7.0),
                ("peak_rss_bytes", 8.0),
            ]
        );
    }

    #[test]
    fn unset_layers_read_zero_and_keep_manifest_order() {
        let mut layers = Layers::default();
        layers.set("hdc-apps.run_s", 0.5);
        let named = layers.named();
        assert_eq!(named.len(), PER_LAYER.len());
        assert_eq!(named[0], ("hdc-datasets.generate_s", 0.0));
        assert_eq!(layers.get("hdc-apps.run_s"), 0.5);
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 2.0, 1.8) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 2.0, 2.2) < 0.0);
    }
}
