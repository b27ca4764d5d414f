//! Metric names, the per-workload metric sets, and the output format:
//! human-readable lines, then one JSON result line last.

use crate::stats::{highest_supported, label, Samples};
use crate::trace::SelfRow;
use std::fmt::Write as _;

/// The end-to-end metrics each workload reports, in print order. A
/// metric appears only on the workloads whose users feel it.
pub const LIVE_SITE_E2E: &[&str] = &[
    "setup_s",
    "ingest_events_per_s",
    "visible_p50_ms",
    "visible_p99_ms",
    "location_of_p50_us",
    "location_of_p99_us",
    "peak_rss_mb",
];
pub const DURABLE_RESTART_E2E: &[&str] = &[
    "setup_s",
    "ingest_events_per_s",
    "visible_p50_ms",
    "visible_p99_ms",
    "location_at_p50_us",
    "location_at_p99_us",
    "zone_history_p50_ms",
    "zone_history_p90_ms",
    "store_bytes_per_event",
    "peak_rss_mb",
];
pub const CAMPAIGN_E2E: &[&str] = &["setup_s", "objects_per_s", "peak_rss_mb"];

/// The end-to-end metric set of `workload`.
#[must_use]
pub fn e2e_names(workload: &str) -> &'static [&'static str] {
    match workload {
        "live_site" => LIVE_SITE_E2E,
        "durable_restart" => DURABLE_RESTART_E2E,
        "campaign" => CAMPAIGN_E2E,
        _ => &[],
    }
}

/// The metrics of the JSON result line on an untraced run: end-to-end
/// metrics every workload has, so each line carries every metric
/// `BENCHMARK.json` lists. Throughput is left out: on a shared host its
/// run-to-run spread exceeds any bound a gate could hold.
pub const RESULT_E2E: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics of the JSON result line on a traced run. A
/// workload reports 0 for a layer it does not run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("readerapi.get_tags_us_p50", "us"),
    ("readerapi.get_tags_us_p99", "us"),
    ("readerapi.records_per_drain", "count"),
    ("readerapi.xml_bytes_per_record", "B"),
    ("readerapi.empty_drain_ratio", "ratio"),
    ("readerapi.encode_ns_per_record", "ns"),
    ("readerapi.convert_ns_per_record", "ns"),
    ("readerapi.adapter_rejects", "count"),
    ("site_server.ingest_records_us_p50", "us"),
    ("site_server.ingest_records_us_p99", "us"),
    ("site_server.ingest_ns_per_event", "ns"),
    ("site_server.ingest_unattributed_share", "ratio"),
    ("site_server.shard_merge_holds", "count"),
    ("site_server.shard_max_queue_depth", "count"),
    ("site_server.rpc_overhead_us_p50", "us"),
    ("site_server.rpc_bytes_per_response", "B"),
    ("track.merge_ns_per_event", "ns"),
    ("track.merge_held_events", "count"),
    ("track.observe_ns_per_event", "ns"),
    ("track.tracker_observe_ns_per_event", "ns"),
    ("track.tracker_evict_ms", "ms"),
    ("track.tracker_location_of_ns", "ns"),
    ("track.tracker_history_len", "count"),
    ("track.store_open_ms", "ms"),
    ("track.store_decode_ms", "ms"),
    ("track.store_append_ns_per_record", "ns"),
    ("track.store_flush_us_p50", "us"),
    ("track.store_location_at_us_p50", "us"),
    ("track.store_location_at_us_p99", "us"),
    ("track.store_history_of_ms_p50", "ms"),
    ("track.store_segments", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.cache_ms", "ms"),
    ("sim.link_evals", "count"),
    ("sim.link_memo_hits", "count"),
    ("sim.memo_hit_ratio", "ratio"),
    ("sim.geometry_evals", "count"),
    ("sim.geometry_hit_ratio", "ratio"),
    ("sim.ns_per_link_eval", "ns"),
    ("sim.trial_ms_p50.portal-grid", "ms"),
    ("sim.trial_ms_p50.conveyor-farm", "ms"),
    ("sim.trial_ms_p50.retail-exit", "ms"),
    ("sim.trial_ms_p50.hospital-pallet", "ms"),
    ("gen2.rounds", "count"),
    ("gen2.reads", "count"),
    ("gen2.reads_per_round", "count"),
    ("gen2.round_time_share", "ratio"),
    ("experiments.run_instance_s_p50", "s"),
    ("experiments.apply_instance_us_p50", "us"),
    ("experiments.checkpoint_ms_p50", "ms"),
    ("experiments.checkpoint_bytes", "B"),
    ("experiments.accumulator_bytes_peak", "B"),
    ("experiments.cpu_per_wall", "ratio"),
    ("gen.late_ms_p99", "ms"),
    ("gen.threads", "count"),
    ("gen.connections", "count"),
    ("process.cpu_us_per_event", "us"),
    ("trace.unattributed_share", "ratio"),
];

/// Every unit a metric is reported in.
pub const UNITS: &[&str] = &["s", "ms", "us", "ns", "1/s", "B", "MiB", "count", "ratio"];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One measured metric. `value` is `None` when the sample cannot
/// support it (a percentile with fewer than ten samples beyond it).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
    /// For a percentile: the highest percentile the same sample supports.
    pub tail: Option<(u32, f64)>,
}

impl Metric {
    #[must_use]
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.to_owned(),
            value: Some(value),
            unit,
            samples,
            tail: None,
        }
    }

    /// A percentile of `samples`, refused when unsupported.
    #[must_use]
    pub fn percentile(name: &str, unit: &'static str, samples: &Samples, per_10k: u32) -> Self {
        let sorted = samples.sorted();
        Self {
            name: name.to_owned(),
            value: crate::stats::percentile(&sorted, per_10k),
            unit,
            samples: samples.len(),
            tail: highest_supported(&sorted),
        }
    }

    /// A value that may be missing, from `samples` samples.
    #[must_use]
    pub fn maybe(name: &str, unit: &'static str, value: Option<f64>, samples: usize) -> Self {
        Self {
            value,
            ..Self::new(name, unit, 0.0, samples)
        }
    }

    /// A count: exact, one sample.
    #[must_use]
    pub fn count(name: &str, value: u64) -> Self {
        Self::new(name, "count", value as f64, 1)
    }

    /// The human-readable line: `<prefix> <name> = <value> <unit> n=<samples>`,
    /// then for a percentile the highest one its sample supports.
    #[must_use]
    pub fn line(&self, prefix: &str) -> String {
        let value = self
            .value
            .map_or_else(|| "n/a".to_owned(), |value| value.to_string());
        let mut line = format!(
            "{prefix} {} = {value} {} n={}",
            self.name, self.unit, self.samples
        );
        match (self.value, self.tail) {
            (_, Some((q, tail))) => {
                let _ = write!(line, " highest_supported={}:{tail}", label(q));
            }
            (None, None) => line.push_str(" (too few samples for this percentile)"),
            (Some(_), None) => {}
        }
        line
    }
}

/// Looks a metric up by name.
#[must_use]
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// A correctness gate: no number of the workload counts unless it passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `key=value` facts about the run: input digests, sizes.
    pub facts: Vec<(String, String)>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub self_rows: Vec<SelfRow>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
    /// How late the load generator issued work, in milliseconds.
    pub late_ms: Samples,
    pub gen_threads: usize,
    pub gen_connections: usize,
}

impl Outcome {
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_owned(), value.to_string()));
    }

    pub fn gate(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            pass,
            detail: detail.into(),
        });
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|g| g.pass)
    }

    /// The generator's lateness tail, as reported in every result.
    #[must_use]
    pub fn late_metric(&self) -> Metric {
        Metric::percentile("gen.late_ms_p99", "ms", &self.late_ms, 9900)
    }
}

/// The self-time table: one line per (root, layer) with its share of
/// the root's total.
#[must_use]
pub fn self_table(rows: &[SelfRow]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut roots: Vec<&str> = rows.iter().map(|r| r.root).collect();
    roots.dedup();
    for root in roots {
        let total: u64 = rows
            .iter()
            .filter(|r| r.root == root)
            .map(|r| r.self_ns)
            .sum();
        for row in rows.iter().filter(|r| r.root == root) {
            lines.push(format!(
                "self {root} {} self_ms={:.3} share={:.4} calls={}",
                row.layer,
                row.self_ns as f64 / 1e6,
                row.self_ns as f64 / total.max(1) as f64,
                row.calls
            ));
        }
    }
    lines
}

fn json_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print with every digit (shortest round-trip form); a metric
/// without a finite value prints as 0.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, name);
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, ": {{\"value\": {value}, \"unit\": ");
        json_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = LIVE_SITE_E2E
            .iter()
            .chain(DURABLE_RESTART_E2E)
            .chain(CAMPAIGN_E2E)
            .copied()
            .collect();
        names.extend(RESULT_E2E.iter().map(|(n, _)| *n));
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for name in &names {
            assert!(valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
        }
        let mut layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        layer.sort_unstable();
        layer.dedup();
        assert_eq!(layer.len(), PER_LAYER.len(), "per-layer names are unique");
        assert!(!valid_name("visible p99"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn the_e2e_sets_cover_the_thirteen_metrics() {
        let mut all: Vec<&str> = LIVE_SITE_E2E
            .iter()
            .chain(DURABLE_RESTART_E2E)
            .chain(CAMPAIGN_E2E)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 13);
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = result_json(
            true,
            0,
            0,
            &[("setup_s".into(), 0.5, "s"), ("x".into(), f64::NAN, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
