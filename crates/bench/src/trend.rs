//! The one gate over the `BENCH_*.json` artifacts.
//!
//! The harnesses record two kinds of promises next to their timings:
//! cross-pipeline **agreement** flags (`engines_agree`, `objectives_agree`,
//! `reports_agree`, `events_agree`, …) and **speedup** ratios.
//! [`check_artifact`] turns both into a gate: it walks the whole tree for
//! any `*_agree` key that is not `true`, and applies the [`FLOORS`] table —
//! the only place a floor is written. The `perf` binary calls it on each
//! artifact it writes, and `bench_trend` on committed ones.

use serde_json::{Number, Value};

/// Every speedup floor: `(schema, section, key, floor)`. Each entry of the
/// artifact's `section` array must carry `timing_ms.<key> ≥ floor`. The
/// floors are the acceptance criteria the artifacts were introduced with:
/// the simulator's incremental engine ≥ 3× the full recompute; the
/// scenario's incremental + warm pipeline and the warm LPRR replay ≥ 5×
/// their cold references; the sparse LU cold solve ≥ 10× the dense inverse
/// at K = 200 (larger K skip dense and say so with `dense_skipped`); and the
/// LP's warm B&B merely must not *lose* to cold now that tiny models fall
/// back — its programs time in ~0.1 ms, so 0.8 leaves ±20 % for timer
/// jitter while still catching the ~2.5× warm-overhead regression.
pub const FLOORS: &[(&str, &str, &str, f64)] = &[
    ("dls-bench/perf/v1", "entries", "speedup", 3.0),
    ("dls-bench/scenario/v1", "entries", "speedup", 5.0),
    ("dls-bench/lp-perf/v2", "entries", "speedup", 5.0),
    (
        "dls-bench/lp-perf/v2",
        "sparse",
        "dense_vs_sparse_speedup",
        10.0,
    ),
    ("dls-bench/lp-perf/v2", "branch_bound", "speedup", 0.8),
];

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(Number::Int(i)) => Some(*i as f64),
        Value::Number(Number::Float(f)) => Some(*f),
        _ => None,
    }
}

/// An entry with a `*_skipped: true` key did not run the side its floors
/// compare against, so it is exempt from them.
fn skips_floors(entry: &Value) -> bool {
    match entry {
        Value::Object(fields) => fields
            .iter()
            .any(|(k, v)| k.ends_with("_skipped") && v == &Value::Bool(true)),
        _ => false,
    }
}

/// Collects every `*_agree` key that is not exactly `true`.
fn walk_agreement(v: &Value, path: &str, out: &mut Vec<String>) {
    match v {
        Value::Object(entries) => {
            for (k, child) in entries {
                let child_path = format!("{path}/{k}");
                if k.ends_with("_agree") && child != &Value::Bool(true) {
                    out.push(format!("{child_path} is {child:?}, expected true"));
                }
                walk_agreement(child, &child_path, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                walk_agreement(child, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Checks one artifact. Returns the list of violations (empty = clean);
/// `Err` when the file is not parseable JSON at all.
///
/// A [`FLOORS`] row whose section is missing is a violation at every
/// preset. The floor values are skipped for the `quick` preset — its
/// programs are too small for wall-clock ratios to be stable — but
/// agreement is enforced at every preset: correctness does not get a
/// small-scale pass.
pub fn check_artifact(name: &str, json: &str) -> Result<Vec<String>, String> {
    let v = serde_json::from_str_value(json).map_err(|e| format!("{name}: unparseable: {e}"))?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    let quick = v.get("preset").and_then(Value::as_str) == Some("quick");
    let mut violations = Vec::new();
    walk_agreement(&v, name, &mut violations);
    for &(_, section, key, floor) in FLOORS.iter().filter(|row| row.0 == schema) {
        let Some(entries) = v.get(section).and_then(Value::as_array) else {
            violations.push(format!("{name}: no {section} section"));
            continue;
        };
        if quick {
            continue;
        }
        for (i, e) in entries.iter().enumerate().filter(|(_, e)| !skips_floors(e)) {
            let at = format!("{name}/{section}[{i}]");
            match e.get("timing_ms").and_then(|t| t.get(key)) {
                None | Some(Value::Null) => violations.push(format!("{at}: no timing_ms.{key}")),
                Some(x) => match as_f64(x) {
                    Some(s) if s >= floor => {}
                    Some(s) => {
                        violations.push(format!("{at}: {key} {s:.3} below the {floor:.1}x floor"))
                    }
                    None => violations.push(format!("{at}: {key} is not a number: {x:?}")),
                },
            }
        }
    }
    Ok(violations)
}

/// Keys holding wall-clock measurements, which vary run to run by
/// design: the `timing_ms` subtree and latency/throughput leaves. They
/// are excluded from drift comparison — everything else in an artifact
/// is a deterministic function of the committed code and the preset.
fn is_timing_key(k: &str) -> bool {
    k == "timing_ms"
        || k == "speedup"
        || k.ends_with("_speedup")
        || k.ends_with("_ms")
        || k.ends_with("_per_sec")
}

/// Compares a freshly regenerated artifact against its committed
/// baseline, field by field. Numeric leaves warn when the relative drift
/// exceeds `tol`; structural changes (missing/new keys, array length or
/// type changes) always warn. Timing fields (`is_timing_key`) are
/// skipped. Returns the warning lines (empty = no drift); `Err` when
/// either side is not parseable JSON.
///
/// This is a *trend* signal, not a gate: agreement flags and speedup
/// floors ([`check_artifact`]) decide pass/fail, while drift warnings
/// surface that a code change moved schedule numbers — expected for an
/// intentional algorithm change, a red flag for a refactor.
pub fn diff_artifacts(
    name: &str,
    baseline: &str,
    fresh: &str,
    tol: f64,
) -> Result<Vec<String>, String> {
    let old = serde_json::from_str_value(baseline)
        .map_err(|e| format!("{name}: baseline unparseable: {e}"))?;
    let new = serde_json::from_str_value(fresh)
        .map_err(|e| format!("{name}: fresh artifact unparseable: {e}"))?;
    let mut out = Vec::new();
    walk_diff(&old, &new, name, tol, &mut out);
    Ok(out)
}

fn walk_diff(old: &Value, new: &Value, path: &str, tol: f64, out: &mut Vec<String>) {
    match (old, new) {
        (Value::Object(a), Value::Object(b)) => {
            for (k, va) in a {
                if is_timing_key(k) {
                    continue;
                }
                match new.get(k) {
                    Some(vb) => walk_diff(va, vb, &format!("{path}/{k}"), tol, out),
                    None => out.push(format!(
                        "{path}/{k}: in the baseline, missing from the fresh artifact"
                    )),
                }
            }
            for (k, _) in b {
                if !is_timing_key(k) && old.get(k).is_none() {
                    out.push(format!("{path}/{k}: new key absent from the baseline"));
                }
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                out.push(format!(
                    "{path}: array length changed {} -> {}",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                walk_diff(va, vb, &format!("{path}[{i}]"), tol, out);
            }
        }
        (Value::Number(_), Value::Number(_)) => {
            let (x, y) = (
                as_f64(old).expect("number leaf"),
                as_f64(new).expect("number leaf"),
            );
            let drift = (x - y).abs() / x.abs().max(y.abs()).max(1e-12);
            if drift > tol {
                out.push(format!(
                    "{path}: {x} -> {y} (relative drift {drift:.2e} > {tol:.0e})"
                ));
            }
        }
        _ => {
            if old != new {
                out.push(format!(
                    "{path}: {} {old:?} -> {} {new:?}",
                    old.kind(),
                    new.kind()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_artifact_passes() {
        let json = r#"{
            "schema": "dls-bench/scenario/v1",
            "preset": "paper-shape",
            "entries": [
                {"trace": "steady", "reports_agree": true, "events_agree": true,
                 "timing_ms": {"speedup": 30.0}},
                {"trace": "drift", "reports_agree": true, "events_agree": true,
                 "timing_ms": {"speedup": 7.0}}
            ]
        }"#;
        assert_eq!(
            check_artifact("BENCH_scenario.json", json).unwrap(),
            vec![] as Vec<String>
        );
    }

    #[test]
    fn false_agreement_is_flagged_anywhere_in_the_tree() {
        let json = r#"{
            "schema": "dls-bench/lp-perf/v2",
            "preset": "quick",
            "entries": [{"objectives_agree": true, "timing_ms": {"speedup": 9.0}}],
            "sparse": [],
            "branch_bound": [{"objectives_agree": false, "timing_ms": {"speedup": 1.0}}]
        }"#;
        let v = check_artifact("BENCH_lp.json", json).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("branch_bound[0]/objectives_agree"));
    }

    #[test]
    fn sparse_section_speedup_floor_is_gated() {
        let artifact = |sparse: &str| {
            format!(
                r#"{{
                    "schema": "dls-bench/lp-perf/v2",
                    "preset": "paper-shape",
                    "entries": [{{"objectives_agree": true, "timing_ms": {{"speedup": 9.0}}}}],
                    "sparse": [{sparse}],
                    "branch_bound": [{{"objectives_agree": true, "timing_ms": {{"speedup": 1.0}}}}]
                }}"#
            )
        };
        let fast = artifact(
            r#"{"objectives_agree": true, "sweep_agree": true, "dense_skipped": false,
                "timing_ms": {"dense_vs_sparse_speedup": 25.0}}"#,
        );
        assert_eq!(
            check_artifact("BENCH_lp.json", &fast).unwrap(),
            vec![] as Vec<String>
        );

        let slow = artifact(
            r#"{"objectives_agree": true, "sweep_agree": true, "dense_skipped": false,
                "timing_ms": {"dense_vs_sparse_speedup": 3.0}}"#,
        );
        let v = check_artifact("BENCH_lp.json", &slow).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("below the 10.0x floor"), "{v:?}");

        // Skipping the dense oracle is fine — but it must be declared.
        let skipped = artifact(
            r#"{"objectives_agree": true, "sweep_agree": true, "dense_skipped": true,
                "timing_ms": {"dense_vs_sparse_speedup": null}}"#,
        );
        assert_eq!(
            check_artifact("BENCH_lp.json", &skipped).unwrap(),
            vec![] as Vec<String>
        );
        let undeclared = artifact(
            r#"{"objectives_agree": true, "sweep_agree": true, "dense_skipped": false,
                "timing_ms": {"dense_vs_sparse_speedup": null}}"#,
        );
        let v = check_artifact("BENCH_lp.json", &undeclared).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("no timing_ms.dense_vs_sparse_speedup"),
            "{v:?}"
        );

        // A v2 artifact without the section at all is itself a violation.
        let missing = r#"{"schema": "dls-bench/lp-perf/v2", "preset": "quick",
                          "entries": [], "branch_bound": []}"#;
        let v = check_artifact("BENCH_lp.json", missing).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no sparse section"), "{v:?}");
    }

    #[test]
    fn floors_gate_non_quick_presets_only() {
        let slow = r#"{
            "schema": "dls-bench/scenario/v1",
            "preset": "PRESET",
            "entries": [{"reports_agree": true, "events_agree": true,
                         "timing_ms": {"speedup": 1.5}}]
        }"#;
        let quick = check_artifact("a.json", &slow.replace("PRESET", "quick")).unwrap();
        assert!(quick.is_empty(), "{quick:?}");
        let paper = check_artifact("a.json", &slow.replace("PRESET", "paper-shape")).unwrap();
        assert_eq!(paper.len(), 1, "{paper:?}");
        assert!(paper[0].contains("below the 5.0x floor"));
    }

    #[test]
    fn the_committed_artifacts_shape_checks() {
        // Guard the walker against schema drift: a missing timing block is
        // itself a violation, not a silent pass.
        let json = r#"{
            "schema": "dls-bench/perf/v1",
            "preset": "full",
            "entries": [{"engines_agree": true}]
        }"#;
        let v = check_artifact("BENCH_sim.json", json).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("no timing_ms.speedup"));
    }

    #[test]
    fn every_floor_and_flag_fires_through_the_table() {
        // A clean paper-shape artifact of each gated schema, doctored one
        // field at a time: each doctoring is exactly one violation.
        let entry = |agree: &str, speedup: f64| {
            format!(r#"{{"{agree}": true, "timing_ms": {{"speedup": {speedup}}}}}"#)
        };
        let sparse = r#"{"objectives_agree": true, "sweep_agree": true, "dense_skipped": false,
                         "timing_ms": {"dense_vs_sparse_speedup": 25.0}}"#;
        let sim = format!(
            r#"{{"schema": "dls-bench/perf/v1", "preset": "paper-shape", "seed": 1,
                "entries": [{}]}}"#,
            entry("engines_agree", 4.0)
        );
        let scenario = format!(
            r#"{{"schema": "dls-bench/scenario/v1", "preset": "paper-shape", "seed": 1,
                "entries": [{}]}}"#,
            entry("reports_agree", 6.0)
        );
        let lp = format!(
            r#"{{"schema": "dls-bench/lp-perf/v2", "preset": "paper-shape", "seed": 1,
                "entries": [{}], "sparse": [{sparse}], "branch_bound": [{}]}}"#,
            entry("objectives_agree", 6.0),
            entry("objectives_agree", 0.9)
        );
        for clean in [&sim, &scenario, &lp] {
            assert_eq!(
                check_artifact("a.json", clean).unwrap(),
                Vec::<String>::new()
            );
        }
        let cases: [(&str, &str, &str, &str); 8] = [
            (
                &sim,
                "\"engines_agree\": true",
                "\"engines_agree\": false",
                "engines_agree",
            ),
            (&sim, "4", "2.9", "speedup 2.900 below the 3.0x floor"),
            (&scenario, "6", "4.9", "speedup 4.900 below the 5.0x floor"),
            (
                &lp,
                "6",
                "4.9",
                "entries[0]: speedup 4.900 below the 5.0x floor",
            ),
            (
                &lp,
                "0.9",
                "0.7",
                "branch_bound[0]: speedup 0.700 below the 0.8x floor",
            ),
            (
                &lp,
                "25.0",
                "9.0",
                "dense_vs_sparse_speedup 9.000 below the 10.0x floor",
            ),
            (&lp, "\"sparse\"", "\"gone\"", "no sparse section"),
            (&sim, "\"speedup\"", "\"other\"", "no timing_ms.speedup"),
        ];
        for (clean, from, to, expect) in cases {
            let doctored = clean.replacen(from, to, 1);
            let v = check_artifact("a.json", &doctored).unwrap();
            assert_eq!(v.len(), 1, "{from} -> {to}: {v:?}");
            assert!(v[0].contains(expect), "{from} -> {to}: {v:?}");
        }
        // `*_skipped: true` exempts an entry from its floors.
        let skipped = lp
            .replacen("25.0", "9.0", 1)
            .replace("\"dense_skipped\": false", "\"dense_skipped\": true");
        assert_eq!(
            check_artifact("a.json", &skipped).unwrap(),
            Vec::<String>::new()
        );
    }

    /// `BENCH_*.json` at the repository root, then `baselines/quick/`.
    fn committed_artifacts() -> Vec<(String, String)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut out = Vec::new();
        for dir in [root.clone(), root.join("baselines/quick")] {
            for name in ["BENCH_sim", "BENCH_lp", "BENCH_scenario", "BENCH_service"] {
                let path = dir.join(format!("{name}.json"));
                let json = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                out.push((path.display().to_string(), json));
            }
        }
        out
    }

    #[test]
    fn committed_artifacts_pass_the_gate() {
        for (name, json) in committed_artifacts() {
            assert_eq!(check_artifact(&name, &json).unwrap(), Vec::<String>::new());
        }
    }

    #[test]
    fn quick_baselines_open_with_the_envelope() {
        for (name, json) in committed_artifacts() {
            if name.contains("baselines") {
                crate::tests::assert_envelope(&name, &json);
            }
        }
    }

    #[test]
    fn unparseable_json_is_an_error() {
        assert!(check_artifact("x.json", "{nope").is_err());
    }

    #[test]
    fn diff_ignores_timing_but_flags_numeric_drift() {
        let baseline = r#"{
            "preset": "quick",
            "entries": [{"makespan": 62.25956646980199, "completed": 12,
                         "timing_ms": {"speedup": 30.0, "incremental_wall": 5.0},
                         "p99_ms": 1.5, "subs_per_sec": 9000.0}]
        }"#;
        let same_modulo_timing = r#"{
            "preset": "quick",
            "entries": [{"makespan": 62.25956646980199, "completed": 12,
                         "timing_ms": {"speedup": 1.0, "incremental_wall": 900.0},
                         "p99_ms": 88.0, "subs_per_sec": 3.0}]
        }"#;
        let clean = diff_artifacts("b.json", baseline, same_modulo_timing, 1e-9).unwrap();
        assert!(clean.is_empty(), "{clean:?}");

        let drifted = baseline.replace("62.25956646980199", "62.25956646980196");
        let warn = diff_artifacts("b.json", baseline, &drifted, 1e-18).unwrap();
        assert_eq!(warn.len(), 1, "{warn:?}");
        assert!(warn[0].contains("entries[0]/makespan"), "{warn:?}");
        // The same ulp wobble passes under a sane tolerance.
        let ok = diff_artifacts("b.json", baseline, &drifted, 1e-9).unwrap();
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn diff_flags_structural_changes() {
        let baseline = r#"{"entries": [{"a": 1}, {"a": 2}], "flag": true}"#;
        let fresh = r#"{"entries": [{"a": 1}], "other": 3}"#;
        let warn = diff_artifacts("b.json", baseline, fresh, 1e-9).unwrap();
        let text = warn.join("\n");
        assert!(text.contains("array length changed 2 -> 1"), "{warn:?}");
        assert!(text.contains("b.json/flag: in the baseline"), "{warn:?}");
        assert!(text.contains("b.json/other: new key"), "{warn:?}");
    }
}
