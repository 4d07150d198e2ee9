//! JSONL trace emission for solver runs.
//!
//! A trace file is a stream of JSON objects, one per line, each tagged
//! with a `kind` field:
//!
//! * `"sweep"` — one annealing sweep of one chain: iteration,
//!   temperature, energy, flips and wall-clock seconds;
//! * `"summary"` — per-configuration convergence diagnostics
//!   (per-chain ESS, Gelman–Rubin PSRF across chains,
//!   iterations-to-within-ε);
//! * `"rsu_pipeline"` — cycle-accurate pipeline counters for a design
//!   point ([`rsu::CycleReport`]): total/stall cycles, FIFO occupancy;
//! * `"design_point"` — one enumerated configuration of a design-space
//!   sweep;
//! * `"fault"` — a device fault activating during a degraded run: the
//!   sweep, the failing unit, the failure mode and the degradation the
//!   array applied (remap target when sites moved to spare capacity);
//! * `"job"` — a job-lifecycle transition in the `retrsu-serve` job
//!   server (submitted → admitted → started → preempted → resumed →
//!   completed/failed), emitted via [`write_record`]
//!   (`JsonlTraceWriter::write_record`).
//!
//! Every line is emitted through [`crate::minijson::Value`]'s compact
//! `Display`, so the write side and the read side
//! ([`crate::minijson::parse`]) are exercised against each other — the
//! CI round-trip gate (`trace_roundtrip`) re-parses a freshly written
//! trace with the same parser `bench_compare` uses on bench artifacts.

use crate::minijson::Value;
use mrf::{FaultRecord, SweepObserver, SweepRecord};
use rsu::CycleReport;
use std::io;

fn num(n: f64) -> Value {
    Value::Number(n)
}

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

/// A [`SweepObserver`] that streams one `"sweep"` JSONL record per
/// annealing sweep to a writer, tagged with the current chain label
/// (set via [`set_chain`](Self::set_chain) before each run).
///
/// I/O errors are sticky: the first failure is remembered and
/// subsequent records are dropped; check [`take_error`](Self::take_error)
/// after the run.
pub struct JsonlTraceWriter<W: io::Write> {
    out: W,
    chain: String,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlTraceWriter<W> {
    /// Wraps a writer; records carry an empty chain label until
    /// [`set_chain`](Self::set_chain) is called.
    pub fn new(out: W) -> Self {
        JsonlTraceWriter {
            out,
            chain: String::new(),
            error: None,
        }
    }

    /// Names the chain (e.g. `"software/seed11"`) stamped on subsequent
    /// records.
    pub fn set_chain(&mut self, chain: &str) {
        self.chain = chain.to_string();
    }

    /// The first I/O error hit while writing, if any (clears it).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    fn write_value(&mut self, value: &Value) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{value}") {
            self.error = Some(e);
        }
    }

    /// Emits a `"summary"` record for one configuration: per-chain ESS
    /// values, the across-chain PSRF, and per-chain
    /// iterations-to-within-ε (with the ε it was computed at).
    pub fn write_summary(
        &mut self,
        config: &str,
        ess: &[Option<f64>],
        psrf: Option<f64>,
        epsilon: f64,
        iterations_to_within: &[Option<usize>],
    ) {
        let opt = |v: Option<f64>| v.map(num).unwrap_or(Value::Null);
        let record = Value::object(vec![
            ("kind", string("summary")),
            ("config", string(config)),
            ("ess", Value::Array(ess.iter().map(|e| opt(*e)).collect())),
            ("psrf", opt(psrf)),
            ("epsilon", num(epsilon)),
            (
                "iterations_to_within",
                Value::Array(
                    iterations_to_within
                        .iter()
                        .map(|i| i.map(|n| num(n as f64)).unwrap_or(Value::Null))
                        .collect(),
                ),
            ),
        ]);
        self.write_value(&record);
    }

    /// Emits an `"rsu_pipeline"` record: the cycle-accurate counters of
    /// one design run, including the energy-FIFO occupancy and the
    /// temperature-update stall cycles.
    pub fn write_rsu_pipeline(&mut self, design: &str, labels: u32, report: &CycleReport) {
        let record = Value::object(vec![
            ("kind", string("rsu_pipeline")),
            ("design", string(design)),
            ("labels", num(labels as f64)),
            ("total_cycles", num(report.total_cycles as f64)),
            ("variables", num(report.variables as f64)),
            ("stall_cycles", num(report.stall_cycles as f64)),
            ("first_latency", num(report.first_latency as f64)),
            (
                "fifo_peak_occupancy",
                num(report.fifo_peak_occupancy as f64),
            ),
            (
                "fifo_occupancy_cycles",
                num(report.fifo_occupancy_cycles as f64),
            ),
            ("fifo_mean_occupancy", num(report.fifo_mean_occupancy())),
            ("cycles_per_variable", num(report.cycles_per_variable())),
        ]);
        self.write_value(&record);
    }

    /// Emits a `"design_point"` record for a design-space sweep entry.
    pub fn write_design_point(&mut self, fields: Vec<(&str, Value)>) {
        let mut all = vec![("kind", string("design_point"))];
        all.extend(fields);
        self.write_value(&Value::object(all));
    }

    /// Emits an arbitrary pre-built record as one JSONL line. Callers in
    /// other crates (e.g. `retrsu-serve`'s `"job"` lifecycle events)
    /// build their own tagged objects and stream them through the same
    /// sticky-error writer as the built-in record kinds.
    pub fn write_record(&mut self, value: &Value) {
        self.write_value(value);
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.error = Some(e);
        }
    }
}

impl<W: io::Write> SweepObserver for JsonlTraceWriter<W> {
    fn on_sweep(&mut self, record: &SweepRecord) {
        let line = Value::object(vec![
            ("kind", string("sweep")),
            ("chain", string(&self.chain)),
            ("iteration", num(record.iteration as f64)),
            ("temperature", num(record.temperature)),
            ("energy", num(record.energy)),
            ("flips", num(record.flips as f64)),
            ("elapsed_s", num(record.elapsed.as_secs_f64())),
        ]);
        self.write_value(&line);
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        let line = Value::object(vec![
            ("kind", string("fault")),
            ("chain", string(&self.chain)),
            ("iteration", num(record.iteration as f64)),
            ("unit", num(record.unit as f64)),
            ("fault", string(record.kind)),
            ("action", string(record.action)),
            (
                "remapped_to",
                record
                    .remapped_to
                    .map(|u| num(u as f64))
                    .unwrap_or(Value::Null),
            ),
        ]);
        self.write_value(&line);
    }
}

/// Parses every line of a JSONL trace, failing on the first malformed
/// one (reported with its 1-based line number).
pub fn parse_jsonl(text: &str) -> Result<Vec<Value>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| crate::minijson::parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sweep_records_round_trip_through_minijson() {
        let mut writer = JsonlTraceWriter::new(Vec::new());
        writer.set_chain("software/seed11");
        writer.on_sweep(&SweepRecord {
            iteration: 3,
            temperature: 1.75,
            energy: -42.5,
            flips: 17,
            elapsed: Duration::from_micros(1500),
        });
        writer.write_summary(
            "starred",
            &[Some(12.5), None],
            Some(1.01),
            0.02,
            &[Some(40), None],
        );
        assert!(writer.take_error().is_none());
        let text = String::from_utf8(writer.out).unwrap();
        let lines = parse_jsonl(&text).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("kind").and_then(Value::as_str), Some("sweep"));
        assert_eq!(
            lines[0].get("chain").and_then(Value::as_str),
            Some("software/seed11")
        );
        assert_eq!(lines[0].get("energy").and_then(Value::as_f64), Some(-42.5));
        assert_eq!(lines[0].get("flips").and_then(Value::as_f64), Some(17.0));
        assert_eq!(lines[1].get("psrf").and_then(Value::as_f64), Some(1.01));
        assert_eq!(
            lines[1]
                .get("ess")
                .and_then(Value::as_array)
                .map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            lines[1]
                .get("ess")
                .and_then(Value::as_array)
                .map(|a| a[1].clone()),
            Some(Value::Null)
        );
    }

    #[test]
    fn pipeline_records_surface_fifo_counters() {
        let sim =
            rsu::CycleAccuratePipeline::new(rsu::DesignKind::New, rsu::RsuConfig::new_design(), 8);
        let report = sim.run(100, 10);
        let mut writer = JsonlTraceWriter::new(Vec::new());
        writer.write_rsu_pipeline("new", 8, &report);
        let text = String::from_utf8(writer.out).unwrap();
        let lines = parse_jsonl(&text).unwrap();
        assert_eq!(
            lines[0].get("fifo_peak_occupancy").and_then(Value::as_f64),
            Some(report.fifo_peak_occupancy as f64)
        );
        assert_eq!(
            lines[0].get("stall_cycles").and_then(Value::as_f64),
            Some(report.stall_cycles as f64)
        );
    }

    #[test]
    fn fault_records_round_trip_through_minijson() {
        let mut writer = JsonlTraceWriter::new(Vec::new());
        writer.set_chain("rsu-array/seed7");
        writer.on_fault(&FaultRecord {
            iteration: 12,
            unit: 3,
            kind: "dead-spad",
            action: "remap",
            remapped_to: Some(4),
        });
        writer.on_fault(&FaultRecord {
            iteration: 20,
            unit: 1,
            kind: "bleached",
            action: "derate",
            remapped_to: None,
        });
        assert!(writer.take_error().is_none());
        let text = String::from_utf8(writer.out).unwrap();
        let lines = parse_jsonl(&text).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("kind").and_then(Value::as_str), Some("fault"));
        assert_eq!(
            lines[0].get("fault").and_then(Value::as_str),
            Some("dead-spad")
        );
        assert_eq!(
            lines[0].get("action").and_then(Value::as_str),
            Some("remap")
        );
        assert_eq!(
            lines[0].get("remapped_to").and_then(Value::as_f64),
            Some(4.0)
        );
        assert_eq!(lines[1].get("remapped_to"), Some(&Value::Null));
        assert_eq!(
            lines[1].get("chain").and_then(Value::as_str),
            Some("rsu-array/seed7")
        );
    }

    #[test]
    fn nan_energy_becomes_null_and_still_parses() {
        let mut writer = JsonlTraceWriter::new(Vec::new());
        writer.on_sweep(&SweepRecord {
            iteration: 0,
            temperature: 1.0,
            energy: f64::NAN,
            flips: 0,
            elapsed: Duration::ZERO,
        });
        let text = String::from_utf8(writer.out).unwrap();
        let lines = parse_jsonl(&text).unwrap();
        assert_eq!(lines[0].get("energy"), Some(&Value::Null));
    }
}
