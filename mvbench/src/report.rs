//! The metrics the benchmark declares, and the result line it prints.
//!
//! The tables here mirror `BENCHMARK.json` (a test keeps the two equal).
//! An untraced run prints every end-to-end metric; a traced run prints
//! every per-layer metric, with 0 for a layer the workload does not
//! exercise (that layer did no work there).

use serde_json::Value;
use std::collections::BTreeMap;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 2] = ["fleet-million", "fleet-ingest"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_s_per_s", "s/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// A per-layer metric: name, unit, and the workloads that measure it.
pub struct LayerMetric {
    /// Metric name (`crate.what_unit`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Workloads whose traced run measures it.
    pub workloads: &'static [&'static str],
}

const FM: &[&str] = &["fleet-million"];
const FI: &[&str] = &["fleet-ingest"];
const FM_FI: &[&str] = &["fleet-million", "fleet-ingest"];
const ALL: &[&str] = &WORKLOADS;

macro_rules! layers {
    ($(($name:literal, $unit:literal, $w:expr)),* $(,)?) => {
        &[$(LayerMetric { name: $name, unit: $unit, workloads: $w }),*]
    };
}

/// Every per-layer metric, in output order.
pub const PER_LAYER: &[LayerMetric] = layers![
    ("core.start_ms", "ms", FM),
    ("device.machine_new_ms", "ms", FM),
    ("workload.pressure_apply_ms", "ms", FM),
    ("core.playback_ms", "ms", FM),
    ("core.host_us_per_sim_s.normal", "us/s", FM),
    ("core.host_us_per_sim_s.moderate", "us/s", FM),
    ("core.host_us_per_sim_s.low", "us/s", FM),
    ("core.host_us_per_sim_s.critical", "us/s", FM),
    ("kernel.reclaim_calls", "count", FM),
    ("kernel.reclaim_ms", "ms", FM),
    ("sched.select_slow_calls", "count", FM),
    ("sched.select_slow_ms", "ms", FM),
    ("kernel.pgscan", "count", FM),
    ("kernel.pgsteal", "count", FM),
    ("kernel.zram_faults", "count", FM),
    ("kernel.major_faults", "count", FM),
    ("kernel.direct_reclaims", "count", FM),
    ("kernel.lmkd_kills", "count", FM),
    ("sched.ctx_switches", "count", FM),
    ("storage.reads", "count", FM),
    ("storage.writes", "count", FM),
    ("video.frames", "count", FM),
    ("video.frames_dropped", "count", FM),
    ("video.segments", "count", FM),
    ("core.sessions_crashed", "count", FM),
    ("video.frames_miscounted", "count", FM),
    ("core.prefix_ms", "ms", FM),
    ("core.snapshot_ms", "ms", FM),
    ("core.snapshot_kib", "KiB", FM),
    ("core.restore_ms", "ms", FM),
    ("core.branch_ms", "ms", FM),
    ("abr.choose_us", "us", FM),
    ("abr.decisions", "count", FM),
    ("trace.export_ms", "ms", FM),
    ("trace.export_kib", "KiB", FM),
    ("trace.events", "count", FM),
    ("trace.analysis_ms", "ms", FM),
    ("metrics.snapshot_us", "us", FM),
    ("core.attribution_records", "count", FM),
    ("study.shard_ms", "ms", FM),
    ("study.absorb_us", "us", FM),
    ("workload.start_user_us", "us", FM),
    ("workload.slow_steps", "count", FM),
    ("workload.slow_step_ms", "ms", FM),
    ("kernel.coarse_steps", "count", FM),
    ("kernel.coarse_step_ms", "ms", FM),
    ("workload.fast_path_share", "ratio", FM),
    ("study.aggregate_kib", "KiB", FM),
    ("workload.sample_repeat_share", "ratio", FM_FI),
    ("workload.step_ns", "ns", FI),
    ("telemetryd.encode_ns", "ns", FI),
    ("telemetryd.parse_ns", "ns", FI),
    ("telemetryd.apply_ns", "ns", FI),
    ("study.fold_us", "us", FI),
    ("telemetryd.wire_bytes_per_sim_s", "B/s", FI),
    ("telemetryd.reports_per_sim_s", "1/s", FI),
    ("telemetryd.query_device_ms", "ms", FI),
    ("telemetryd.scrape_ms", "ms", FI),
    ("telemetryd.scrape_kib", "KiB", FI),
    ("telemetryd.connections", "count", FI),
    ("telemetryd.rss_kib_per_connection", "KiB", FI),
    ("harness.trace_overhead_pct", "%", ALL),
    ("host.runqueue_wait_ms", "ms", ALL),
];

/// Whether `s` is a valid metric or workload name: 1–64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1–16 letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Per-layer values a workload measured in its traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `name`; it must be a declared per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// `(name, value, unit)` rows in output order.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// Every declared per-layer metric, with 0 for layers not measured.
pub fn layer_rows(layers: &Layers) -> Rows {
    PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).unwrap_or(0.0), m.unit))
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, rows: &Rows) -> String {
    let metrics = rows
        .iter()
        .map(|&(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "pct%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
        for good in [
            "a",
            "0x",
            "core.start_ms",
            "host.runqueue-wait",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good:?} rejected");
        }
        assert!(valid_unit("us/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("k B") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let rows = vec![("op_p50_ms", 1.25, "ms")];
        let v: Value = serde_json::from_str(&result_line(true, 3, 0, &rows)).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("op_p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_seq)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        assert_eq!(list("per_layer"), layer);
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
