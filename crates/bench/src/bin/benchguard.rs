//! Perf-regression guard: compares the freshly-written smoke reports
//! (`results/execbench.report.json`, `results/tunerbench.report.json`)
//! against the committed full-mode baselines (`BENCH_exec.json`,
//! `BENCH_tuner.json`).
//!
//! Smoke and full runs use different data sizes, so absolute times are not
//! comparable; the guard compares the dimensionless **speedup** (serial /
//! engine) per matched configuration instead, within a generous tolerance
//! band: a smoke speedup may fall to `MISO_BENCH_TOL` (default 0.35) of the
//! committed baseline before it counts as a regression — smoke inputs are
//! small, so parallel speedups are structurally lower there.
//!
//! By default violations only warn (CI stays green on noisy machines);
//! `MISO_BENCH_STRICT=1` turns them into a non-zero exit.

use miso_data::json::parse_json;
use miso_data::Value;
use std::collections::BTreeSet;

fn load(path: &str) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    match parse_json(text.trim()) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("benchguard: cannot parse {path}: {e}");
            None
        }
    }
}

/// Loads one smoke-report/baseline pair. A report with no committed
/// baseline is **silently** ignored — a bench opts into guarding by
/// committing a baseline, so un-guarded reports (soakbench, chaos, the
/// figures) never produce noise here. A missing smoke report when a
/// baseline *is* committed still warns: the smoke step should have
/// produced it.
fn pair(report: &str, baseline: &str) -> Option<(Value, Value)> {
    if !std::path::Path::new(baseline).exists() {
        return None;
    }
    match (load(report), load(baseline)) {
        (Some(smoke), Some(base)) => Some((smoke, base)),
        (None, _) => {
            eprintln!("benchguard: {baseline} committed but {report} missing; skipping");
            None
        }
        // Baseline present but unparseable: load() already warned.
        _ => None,
    }
}

/// The `configs` array of a report: baselines keep it at the top level,
/// smoke reports nest it under `extra`.
fn configs(doc: &Value) -> Vec<&Value> {
    let root = doc.get_field("extra").unwrap_or(doc);
    match root.get_field("configs") {
        Some(Value::Array(items)) => items.iter().collect(),
        _ => Vec::new(),
    }
}

fn num(v: &Value, field: &str) -> Option<f64> {
    v.get_field(field).and_then(Value::as_f64)
}

/// A baselined configuration that no longer appears in the fresh report is
/// itself a regression signal — the bench silently stopped covering it (a
/// renamed pipeline, a dropped row count, a pruned sweep point). Warns once
/// per vanished key and counts a violation.
fn check_vanished(
    bench: &str,
    baseline_keys: impl IntoIterator<Item = String>,
    report_keys: &BTreeSet<String>,
    violations: &mut u32,
) {
    for key in baseline_keys.into_iter().collect::<BTreeSet<_>>() {
        if !report_keys.contains(&key) {
            eprintln!("benchguard: {bench} `{key}` is baselined but missing from the new report");
            *violations += 1;
        }
    }
}

fn main() {
    let tol = std::env::var("MISO_BENCH_TOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.35);
    let strict = std::env::var("MISO_BENCH_STRICT").is_ok_and(|v| v == "1");
    let mut violations = 0u32;
    let mut compared = 0u32;

    // --- execbench: match configs by pipeline name; the baseline entry
    // with the smallest row count is the closest shape to the smoke run.
    if let Some((smoke, base)) = pair("results/execbench.report.json", "BENCH_exec.json") {
        let base_cfgs = configs(&base);
        let smoke_keys: BTreeSet<String> = configs(&smoke)
            .iter()
            .filter_map(|c| c.get_field("pipeline").and_then(Value::as_str))
            .map(str::to_string)
            .collect();
        check_vanished(
            "exec pipeline",
            base_cfgs
                .iter()
                .filter_map(|b| b.get_field("pipeline").and_then(Value::as_str))
                .map(str::to_string),
            &smoke_keys,
            &mut violations,
        );
        for cfg in configs(&smoke) {
            let Some(pipeline) = cfg.get_field("pipeline").and_then(Value::as_str) else {
                continue;
            };
            let Some(speedup) = num(cfg, "speedup") else {
                continue;
            };
            let baseline = base_cfgs
                .iter()
                .filter(|b| b.get_field("pipeline").and_then(Value::as_str) == Some(pipeline))
                .min_by(|a, b| {
                    num(a, "rows")
                        .unwrap_or(f64::MAX)
                        .total_cmp(&num(b, "rows").unwrap_or(f64::MAX))
                })
                .and_then(|b| num(b, "speedup"));
            let Some(baseline) = baseline else {
                eprintln!("benchguard: no BENCH_exec.json baseline for `{pipeline}`");
                continue;
            };
            compared += 1;
            let floor = baseline * tol;
            let ok = speedup >= floor;
            println!(
                "benchguard: exec {pipeline}: smoke {speedup:.2}x vs baseline \
                     {baseline:.2}x (floor {floor:.2}x) {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                violations += 1;
            }
        }
    }

    // --- tunerbench: match configs by (mode, views, queries).
    if let Some((smoke, base)) = pair("results/tunerbench.report.json", "BENCH_tuner.json") {
        let base_cfgs = configs(&base);
        let key = |c: &Value| -> Option<String> {
            Some(format!(
                "{} v{} q{}",
                c.get_field("mode").and_then(Value::as_str)?,
                num(c, "views")?,
                num(c, "queries")?
            ))
        };
        let smoke_keys: BTreeSet<String> = configs(&smoke).iter().filter_map(|c| key(c)).collect();
        // Smoke tuner sweeps are a deliberate subset of the baselined grid,
        // so individual vanished configs are expected; only a report that
        // covers *none* of the baselined grid signals lost coverage.
        let base_keys: BTreeSet<String> = base_cfgs.iter().filter_map(|b| key(b)).collect();
        if !base_keys.is_empty() && base_keys.intersection(&smoke_keys).count() == 0 {
            eprintln!("benchguard: tuner report covers none of the baselined configs");
            violations += 1;
        }
        for cfg in configs(&smoke) {
            let (Some(name), Some(speedup)) = (key(cfg), num(cfg, "speedup")) else {
                continue;
            };
            if cfg.get_field("designs_match") == Some(&Value::Bool(false)) {
                eprintln!("benchguard: tuner {name}: designs diverged");
                violations += 1;
            }
            let baseline = base_cfgs
                .iter()
                .find(|b| key(b).as_ref() == Some(&name))
                .and_then(|b| num(b, "speedup"));
            let Some(baseline) = baseline else {
                println!("benchguard: tuner {name}: no matching baseline config; skipping");
                continue;
            };
            compared += 1;
            let floor = baseline * tol;
            let ok = speedup >= floor;
            println!(
                "benchguard: tuner {name}: smoke {speedup:.2}x vs baseline \
                     {baseline:.2}x (floor {floor:.2}x) {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                violations += 1;
            }
        }
    }

    // --- servebench: match configs by name; the guarded figure is the
    // 8-worker vs 1-worker qps scaling of the serving engine (simulated
    // worker slots, so the figure is host-independent and the tolerance
    // band mainly absorbs workload-size differences).
    if let Some((smoke, base)) = pair("results/servebench.report.json", "BENCH_serve.json") {
        let base_cfgs = configs(&base);
        let smoke_keys: BTreeSet<String> = configs(&smoke)
            .iter()
            .filter_map(|c| c.get_field("name").and_then(Value::as_str))
            .map(str::to_string)
            .collect();
        check_vanished(
            "serve config",
            base_cfgs
                .iter()
                .filter_map(|b| b.get_field("name").and_then(Value::as_str))
                .map(str::to_string),
            &smoke_keys,
            &mut violations,
        );
        for cfg in configs(&smoke) {
            let Some(name) = cfg.get_field("name").and_then(Value::as_str) else {
                continue;
            };
            let Some(speedup) = num(cfg, "speedup") else {
                continue;
            };
            let baseline = base_cfgs
                .iter()
                .find(|b| b.get_field("name").and_then(Value::as_str) == Some(name))
                .and_then(|b| num(b, "speedup"));
            let Some(baseline) = baseline else {
                eprintln!("benchguard: no BENCH_serve.json baseline for `{name}`");
                continue;
            };
            compared += 1;
            let floor = baseline * tol;
            let ok = speedup >= floor;
            println!(
                "benchguard: serve {name}: smoke {speedup:.2}x vs baseline \
                     {baseline:.2}x (floor {floor:.2}x) {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                violations += 1;
            }
        }
    }

    // --- ivmbench: match configs by shape name; the guarded figure is the
    // wall-clock speedup of delta-fold maintenance over forced full
    // recomputation. Smoke runs use a tiny corpus where fixed per-append
    // overheads weigh more, so the usual tolerance band applies.
    if let Some((smoke, base)) = pair("results/ivmbench.report.json", "BENCH_ivm.json") {
        let base_cfgs = configs(&base);
        let smoke_keys: BTreeSet<String> = configs(&smoke)
            .iter()
            .filter_map(|c| c.get_field("name").and_then(Value::as_str))
            .map(str::to_string)
            .collect();
        check_vanished(
            "ivm shape",
            base_cfgs
                .iter()
                .filter_map(|b| b.get_field("name").and_then(Value::as_str))
                .map(str::to_string),
            &smoke_keys,
            &mut violations,
        );
        for cfg in configs(&smoke) {
            let Some(name) = cfg.get_field("name").and_then(Value::as_str) else {
                continue;
            };
            let Some(speedup) = num(cfg, "speedup") else {
                continue;
            };
            let baseline = base_cfgs
                .iter()
                .find(|b| b.get_field("name").and_then(Value::as_str) == Some(name))
                .and_then(|b| num(b, "speedup"));
            let Some(baseline) = baseline else {
                eprintln!("benchguard: no BENCH_ivm.json baseline for `{name}`");
                continue;
            };
            compared += 1;
            let floor = baseline * tol;
            let ok = speedup >= floor;
            println!(
                "benchguard: ivm {name}: smoke {speedup:.2}x vs baseline \
                     {baseline:.2}x (floor {floor:.2}x) {}",
                if ok { "ok" } else { "REGRESSION" }
            );
            if !ok {
                violations += 1;
            }
        }
    }

    if violations > 0 {
        eprintln!(
            "benchguard: {violations} regression(s) across {compared} comparison(s){}",
            if strict {
                ""
            } else {
                " (warn-only; set MISO_BENCH_STRICT=1 to fail)"
            }
        );
        if strict {
            std::process::exit(1);
        }
    } else {
        println!("benchguard: {compared} comparison(s), no perf regressions beyond tolerance");
    }
}
