//! The committed artifacts pass `mvqoe lint`, and every rule it enforces
//! rejects a copy of a real artifact broken in just the way the rule
//! guards against. The JSON codec reproduces every committed artifact byte
//! for byte when it reads one and writes it back.
//!
//! The checked files are every `results/*.json` (the data artifacts whose
//! registry entry has rules, every `.meta.json` sidecar and
//! `fig8.metrics.json` among them) and the Chrome export of the traced §5
//! session `tests/perfetto_export.rs` builds. Each broken copy keeps its
//! original file name (in a directory of its own), so the lint finds its
//! check exactly as it finds the real file's, and each rejection must name
//! the rule that fired.

use mvqoe::prelude::*;
use mvqoe_experiments::registry::lint_file;
use mvqoe_trace::chrome_trace_json;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// A fresh scratch directory for one test or case.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("artifacts")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The Chrome export of the traced §5 session: 480p60 on the Nokia 1
/// under Moderate synthetic pressure, full event recording on.
fn session_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut cfg = SessionConfig::paper_default(
            DeviceProfile::nokia1(),
            PressureMode::Synthetic(TrimLevel::Moderate),
            derive_seed(42, "perfetto-export-test", 0, 0),
        );
        cfg.video_secs = 30.0;
        cfg.record_trace = true;
        let manifest = Manifest::full_ladder(Genre::Travel, cfg.video_secs);
        let rep = manifest
            .representation(Resolution::R480p, Fps::F60)
            .unwrap();
        let mut abr = FixedAbr::new(rep);
        chrome_trace_json(&run_session(&cfg, &mut abr).machine.trace)
    })
}

#[test]
fn committed_artifacts_pass_their_checks() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(results())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let trace = scratch("committed").join("session.trace.json");
    std::fs::write(&trace, session_trace()).unwrap();
    files.push(trace);
    let mut ok = Vec::new();
    for path in &files {
        let line = lint_file(path, false).unwrap_or_else(|e| panic!("{e}"));
        if line.starts_with("[ok] ") {
            ok.push(path.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    let sidecars = ok.iter().filter(|f| f.ends_with(".meta.json")).count();
    assert!(sidecars >= 21, "one sidecar per committed data artifact: {ok:?}");
    for checked in [
        "arena.json",
        "attribution.json",
        "counterfactual.json",
        "service.json",
        "fig8.metrics.json",
        "session.trace.json",
    ] {
        assert!(
            ok.iter().any(|f| f == checked),
            "{checked} was not checked: {ok:?}"
        );
    }
}

/// Every committed `results/*.json`, as text.
fn committed() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(results())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_artifacts_round_trip_through_value() {
    let files = committed();
    for (name, text) in &files {
        let v: Value = serde_json::from_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let again = serde_json::to_string_pretty(&v).unwrap();
        assert!(again == *text, "{name} does not round-trip through Value");
    }
    assert!(files.len() >= 43, "{} artifacts", files.len());
}

#[test]
fn typed_artifacts_round_trip_through_their_structs() {
    fn same<T: serde::Serialize + serde::Deserialize>(file: &str) {
        let text = std::fs::read_to_string(results().join(file)).unwrap();
        let typed: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let again = serde_json::to_string_pretty(&typed).unwrap();
        assert!(
            again == text,
            "{file} does not round-trip through its struct"
        );
    }
    use mvqoe_experiments::{arena, blame, counterfactual, serve};
    same::<counterfactual::Counterfactual>("counterfactual.json");
    same::<arena::Arena>("arena.json");
    same::<blame::Blame>("attribution.json");
    same::<serve::ServeResults>("service.json");
}

#[test]
fn lint_tells_known_artifacts_without_rules_from_unknown_files() {
    let fig8 = lint_file(&results().join("fig8.json"), false).unwrap();
    assert!(
        fig8.starts_with("[--] ") && fig8.contains("no rules"),
        "{fig8}"
    );
    let stray = scratch("unknown").join("fig8_old.json");
    std::fs::write(&stray, "{}").unwrap();
    let err = lint_file(&stray, false).unwrap_err();
    assert!(err.contains("not a registered artifact"), "{err}");
}

#[test]
fn require_profile_rejects_an_unprofiled_sidecar() {
    let unprofiled = results().join("fig8.meta.json");
    assert!(lint_file(&unprofiled, false).is_ok());
    let err = lint_file(&unprofiled, true).unwrap_err();
    assert!(err.contains("profile block required"), "{err}");
    assert!(lint_file(&results().join("fleet_figs1-6.meta.json"), true).is_ok());
}

/// The value at a dotted path of object keys and array indices
/// (`pairs.0.branches.1.delta.rebuffer_s`).
fn at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(v, |v, key| match v {
        Value::Map(entries) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key} in {path}"))
                .1
        }
        Value::Seq(items) => &mut items[key.parse::<usize>().unwrap()],
        other => panic!("cannot index {other:?} with {key}"),
    })
}

fn seq(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Seq(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

fn map(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Map(entries) => entries,
        other => panic!("not an object: {other:?}"),
    }
}

/// Drop key `key` from the object at `path`.
fn remove(v: &mut Value, path: &str, key: &str) {
    let entries = map(if path.is_empty() { v } else { at(v, path) });
    let before = entries.len();
    entries.retain(|(k, _)| k != key);
    assert_eq!(entries.len() + 1, before, "no key {key} at {path:?}");
}

/// Add `by` to the number at `path`.
fn bump(v: &mut Value, path: &str, by: f64) {
    let slot = at(v, path);
    *slot = match *slot {
        Value::U64(n) => Value::U64((n as f64 + by) as u64),
        Value::I64(n) => Value::I64((n as f64 + by) as i64),
        Value::F64(x) => Value::F64(x + by),
        ref other => panic!("not a number: {other:?}"),
    };
}

fn string(v: &Value) -> &str {
    v.as_str().unwrap()
}

fn number(v: &mut Value, path: &str) -> f64 {
    at(v, path).as_f64().unwrap()
}

/// Index of the first trace event with phase `ph`.
fn first_event(v: &mut Value, ph: &str) -> usize {
    seq(at(v, "traceEvents"))
        .iter()
        .position(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
        .unwrap()
}

/// Index of the first attribution regime matching `pred`.
fn regime(v: &mut Value, pred: impl Fn(&Value) -> bool) -> usize {
    seq(at(v, "regimes")).iter().position(pred).unwrap()
}

fn moderate_lan_rebuffering(r: &Value) -> bool {
    r.get("network").and_then(Value::as_str) == Some("paper-lan")
        && r.get("memory").and_then(Value::as_str) == Some("Moderate")
        && r.get("stats_rebuffer_us").and_then(Value::as_u64) > Some(0)
}

/// One broken copy: the file it starts from, a phrase the rejection must
/// contain, and the break.
struct Case {
    file: &'static str,
    rejects: &'static str,
    broken: fn(&mut Value),
}

fn case(file: &'static str, rejects: &'static str, broken: fn(&mut Value)) -> Case {
    Case {
        file,
        rejects,
        broken,
    }
}

fn cases() -> Vec<Case> {
    const TRACE: &str = "session.trace.json";
    const METRICS: &str = "fig8.metrics.json";
    const CF: &str = "counterfactual.json";
    const ARENA: &str = "arena.json";
    const BLAME: &str = "attribution.json";
    const SERVE: &str = "service.json";
    const META: &str = "fleet_figs1-6.meta.json";
    vec![
        // Chrome trace export.
        case(TRACE, "no traceEvents array", |v| {
            remove(v, "", "traceEvents")
        }),
        case(TRACE, "traceEvents is empty", |v| {
            seq(at(v, "traceEvents")).clear()
        }),
        case(TRACE, "has no numeric ts", |v| {
            *at(v, "traceEvents.3.ts") = Value::Str("soon".into())
        }),
        case(TRACE, "goes backwards", |v| {
            let last = seq(at(v, "traceEvents")).len() - 1;
            *at(v, &format!("traceEvents.{last}.ts")) = Value::U64(0);
        }),
        case(TRACE, "has no args.value", |v| {
            let i = first_event(v, "C");
            remove(v, &format!("traceEvents.{i}"), "args");
        }),
        case(TRACE, "has no dur", |v| {
            let i = first_event(v, "X");
            remove(v, &format!("traceEvents.{i}"), "dur");
        }),
        case(TRACE, "no thread_name metadata", |v| {
            seq(at(v, "traceEvents"))
                .retain(|e| e.get("name").and_then(Value::as_str) != Some("thread_name"))
        }),
        case(TRACE, "only 2 counter track(s)", |v| {
            seq(at(v, "traceEvents")).retain(|e| {
                e.get("ph").and_then(Value::as_str) != Some("C")
                    || matches!(
                        e.get("name").and_then(Value::as_str),
                        Some("free_mib" | "zram_mib")
                    )
            })
        }),
        // Metrics sidecar.
        case(METRICS, "no experiments recorded", |v| map(v).clear()),
        case(METRICS, "fig8: no snapshots", |v| {
            seq(at(v, "fig8")).clear()
        }),
        case(METRICS, "bucket sum", |v| {
            bump(&mut map(at(v, "fig8.0.histograms"))[0].1, "count", 1.0)
        }),
        case(METRICS, "missing field `gauges`", |v| {
            remove(v, "fig8.0", "gauges")
        }),
        // Paired counterfactuals.
        case(CF, "pairs is empty", |v| seq(at(v, "pairs")).clear()),
        case(CF, "pair 0 has 3 branch(es)", |v| {
            seq(at(v, "pairs.0.branches")).pop();
        }),
        case(CF, "branch 0 is not the baseline", |v| {
            *at(v, "pairs.0.branches.0.branch") = Value::Str("memory-aware-abr".into())
        }),
        case(CF, "memory-aware-abr delta disagrees", |v| {
            bump(v, "pairs.0.branches.1.delta.rebuffer_s", 1.0)
        }),
        case(CF, "memory-aware-abr delta disagrees", |v| {
            bump(v, "pairs.0.branches.1.delta.drop_pct", 1.0)
        }),
        case(CF, "lmkd-earlier-kill delta disagrees", |v| {
            bump(v, "pairs.0.branches.2.delta.switches", 1.0)
        }),
        case(CF, "extra-bg-app delta disagrees", |v| {
            bump(v, "pairs.0.branches.3.delta.crashed", 1.0)
        }),
        case(CF, "missing field `fork_at_s`", |v| {
            remove(v, "pairs.0", "fork_at_s")
        }),
        // Policy arena.
        case(ARENA, "devices is empty", |v| seq(at(v, "devices")).clear()),
        case(ARENA, "policies is empty", |v| {
            seq(at(v, "policies")).clear()
        }),
        case(ARENA, "networks is empty", |v| {
            seq(at(v, "networks")).clear()
        }),
        case(ARENA, "memories is empty", |v| {
            seq(at(v, "memories")).clear()
        }),
        case(ARENA, "15 regime(s) but the declared grid has 16", |v| {
            seq(at(v, "regimes")).pop();
        }),
        case(ARENA, "regime 0 rows", |v| {
            seq(at(v, "regimes.0.rows")).swap(0, 1)
        }),
        case(ARENA, "no hybrid row", |v| {
            *at(v, "policies.5") = Value::Str("hybrid2".into());
            for regime in seq(at(v, "regimes")) {
                *at(regime, "rows.5.policy") = Value::Str("hybrid2".into());
            }
        }),
        case(ARENA, "does not have the best qoe", |v| {
            let rows = seq(at(v, "regimes.0.rows")).clone();
            let worst = rows
                .iter()
                .min_by(|a, b| {
                    a.get("qoe")
                        .unwrap()
                        .as_f64()
                        .unwrap()
                        .total_cmp(&b.get("qoe").unwrap().as_f64().unwrap())
                })
                .unwrap();
            *at(v, "regimes.0.winner") = worst.get("policy").unwrap().clone();
        }),
        case(ARENA, "hybrid_beats_parents flag disagrees", |v| {
            let flag = at(v, "regimes.0.hybrid_beats_parents");
            *flag = Value::Bool(!matches!(flag, Value::Bool(true)));
        }),
        case(ARENA, "!= flagged regimes", |v| {
            seq(at(v, "hybrid_wins")).pop();
        }),
        case(ARENA, "pairs is empty", |v| seq(at(v, "pairs")).clear()),
        case(ARENA, "pair 0 branches", |v| {
            seq(at(v, "pairs.0.branches")).swap(1, 2)
        }),
        case(ARENA, "throughput delta disagrees", |v| {
            bump(v, "pairs.0.branches.0.delta.qoe", 1.0)
        }),
        case(ARENA, "bola delta disagrees", |v| {
            bump(v, "pairs.0.branches.2.delta.qoe", 1.0)
        }),
        case(ARENA, "missing field `qoe_formula`", |v| {
            remove(v, "", "qoe_formula")
        }),
        // Causal attribution.
        case(BLAME, "are not [\"direct_reclaim\"", |v| {
            seq(at(v, "causes")).retain(|c| string(c) != "network_dip")
        }),
        case(BLAME, "regimes is empty", |v| seq(at(v, "regimes")).clear()),
        case(BLAME, "rebuffer_us has 7 entries for 8 causes", |v| {
            seq(at(v, "regimes.0.rebuffer_us")).pop();
        }),
        case(BLAME, "drops has 7 entries for 8 causes", |v| {
            seq(at(v, "regimes.0.drops")).pop();
        }),
        case(BLAME, "per-cause rebuffer sum != session total", |v| {
            bump(v, "regimes.0.stats_rebuffer_us", 1.0)
        }),
        case(BLAME, "per-cause drop sum != session total", |v| {
            bump(v, "regimes.0.stats_drops", 1.0)
        }),
        case(BLAME, "rebuffer shares sum to", |v| {
            let i = regime(v, moderate_lan_rebuffering);
            bump(v, &format!("regimes.{i}.rebuffer_share.0"), 0.5);
        }),
        case(BLAME, "not in causes", |v| {
            let i = regime(v, |r| {
                r.get("samples")
                    .and_then(Value::as_seq)
                    .is_some_and(|s| !s.is_empty())
            });
            *at(v, &format!("regimes.{i}.samples.0.cause")) = Value::Str("gremlins".into());
        }),
        case(BLAME, "does not dominate network share", |v| {
            let i = regime(v, moderate_lan_rebuffering);
            let net = number(v, &format!("regimes.{i}.network_rebuffer_share"));
            *at(v, &format!("regimes.{i}.memory_rebuffer_share")) = Value::F64(net);
        }),
        case(BLAME, "dominance claim was never exercised", |v| {
            for r in seq(at(v, "regimes")) {
                if string(at(r, "network")) == "paper-lan" {
                    *at(r, "network") = Value::Str("lan".into());
                }
            }
        }),
        case(BLAME, "missing field `stats_drops`", |v| {
            remove(v, "regimes.0", "stats_drops")
        }),
        // Live telemetry service.
        case(SERVE, "no devices recruited", |v| {
            *at(v, "headline.recruited") = Value::U64(0)
        }),
        case(SERVE, "exceeds recruited", |v| {
            let recruited = number(v, "headline.recruited");
            *at(v, "headline.kept") = Value::U64(recruited as u64 + 1);
        }),
        case(SERVE, "still in flight", |v| {
            bump(v, "headline.devices_in_flight", 1.0)
        }),
        case(SERVE, "but headline recruited", |v| {
            bump(v, "ack.folded", -1.0)
        }),
        case(SERVE, "cannot cover", |v| {
            *at(v, "ack.accepted") = Value::U64(1)
        }),
        case(SERVE, "not batch-equivalent", |v| {
            *at(v, "equivalent_to_batch") = Value::Bool(false)
        }),
        case(SERVE, "scrape is not valid exposition", |v| {
            *at(v, "scrape") = Value::Str("fleet_recruited{ 80\n".into())
        }),
        case(SERVE, "scrape_families 10 but the scrape has 9", |v| {
            bump(v, "scrape_families", 1.0)
        }),
        case(SERVE, "scrape_samples 8 but the scrape has 9", |v| {
            bump(v, "scrape_samples", -1.0)
        }),
        case(SERVE, "missing field `parse_failures`", |v| {
            remove(v, "ack", "parse_failures")
        }),
        // Run sidecar (the profiled fleet run).
        case(META, "wall_secs 0 is not positive", |v| {
            *at(v, "wall_secs") = Value::F64(0.0)
        }),
        case(META, "jobs must be at least 1", |v| {
            *at(v, "jobs") = Value::U64(0)
        }),
        case(META, "profile phases", |v| {
            seq(at(v, "profile")).pop();
        }),
        case(META, "zero calls", |v| {
            for phase in seq(at(v, "profile")) {
                *at(phase, "calls") = Value::U64(0);
            }
        }),
        case(META, "missing field `seed`", |v| remove(v, "", "seed")),
    ]
}

#[test]
fn every_rule_rejects_an_artifact_broken_its_way() {
    let cases = cases();
    for (i, case) in cases.iter().enumerate() {
        let original = match case.file {
            "session.trace.json" => session_trace().to_string(),
            file => std::fs::read_to_string(results().join(file)).unwrap(),
        };
        let mut v: Value = serde_json::from_str(&original).unwrap();
        (case.broken)(&mut v);
        let path = scratch(&format!("case{i}")).join(case.file);
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        match lint_file(&path, false) {
            Ok(line) => panic!("case {i} ({}) was accepted: {line}", case.rejects),
            Err(e) => assert!(
                e.contains(case.rejects),
                "case {i} was rejected for another reason: want {:?}, got {e}",
                case.rejects
            ),
        }
    }
    assert_eq!(cases.len(), 61);
}
