//! The `serve --baseline` and `profile --baseline` gates are `json::diff`
//! over the whole document. Each committed baseline agrees with itself,
//! and perturbing a single field — including fields no per-document
//! comparator ever checked (fairness shares, class shed counts, device
//! busy time, violation texts, unexpected keys, a profile cell's GFLOP/s
//! and stall percentages) — yields exactly one drift, named by its path.

use ompx_telemetry::json::{self, Json};

fn baseline(name: &str) -> Json {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The value at a drift-style path such as `fairness[0].share`.
fn at<'a>(mut j: &'a mut Json, path: &str) -> &'a mut Json {
    for seg in path.split('.') {
        let (key, index) = match seg.split_once('[') {
            Some((k, i)) => (k, Some(i.trim_end_matches(']').parse::<usize>().unwrap())),
            None => (seg, None),
        };
        j = match j {
            Json::Obj(m) => m.get_mut(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("{key}: not an object"),
        };
        if let Some(i) = index {
            j = match j {
                Json::Arr(v) => &mut v[i],
                _ => panic!("{key}: not an array"),
            };
        }
    }
    j
}

/// Diff `doc` against a copy with `edit` applied at `path`.
fn drifts_after(doc: &Json, path: &str, edit: impl FnOnce(&mut Json)) -> Vec<String> {
    let mut run = doc.clone();
    edit(at(&mut run, path));
    json::diff(doc, &run)
}

fn bump(j: &mut Json) {
    match j {
        Json::Num(n) => *n = *n * 1.01 + 1.0,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn committed_serving_baselines_agree_with_themselves() {
    for name in ["BENCH_serve.json", "BENCH_sweep.json", "BENCH_resilience.json"] {
        let doc = baseline(name);
        assert_eq!(json::diff(&doc, &doc), Vec::<String>::new(), "{name}");
    }
}

#[test]
fn serve_gate_checks_fields_the_old_comparator_skipped() {
    let doc = baseline("BENCH_serve.json");
    for path in [
        "fairness[0].share",
        "classes[0].shed",
        "devices[1].busy_s",
        "batches.mean",
        "resilience.hedges_skipped",
        "resilience.breaker_transitions",
    ] {
        let drifts = drifts_after(&doc, path, bump);
        assert_eq!(drifts.len(), 1, "{path}: {drifts:?}");
        assert!(drifts[0].starts_with(&format!("{path}: baseline ")), "{drifts:?}");
    }
    let drifts = drifts_after(&doc, "classes[2].class", |j| *j = Json::Str("bulk".into()));
    assert_eq!(drifts, [r#"classes[2].class: baseline "best_effort", run "bulk""#]);
}

#[test]
fn sweep_gate_rejects_an_unexpected_key() {
    let doc = baseline("BENCH_sweep.json");
    let drifts = drifts_after(&doc, "points[2]", |j| match j {
        Json::Obj(m) => {
            m.insert("note".into(), Json::Null);
        }
        other => panic!("not an object: {other:?}"),
    });
    assert_eq!(drifts, ["points[2].note: not in baseline"]);
}

#[test]
fn resilience_gate_compares_violation_texts() {
    let mut doc = baseline("BENCH_resilience.json");
    *at(&mut doc, "violations") = Json::Arr(vec![Json::Str("rung 4: shed fraction fell".into())]);
    let drifts = drifts_after(&doc, "violations[0]", |j| {
        *j = Json::Str("rung 4: corrupt verdicts".into());
    });
    assert_eq!(
        drifts,
        [r#"violations[0]: baseline "rung 4: shed fraction fell", run "rung 4: corrupt verdicts""#]
    );
    let drifts = drifts_after(&doc, "rungs[3].verdicts.rejected", |j| *j = Json::Num(154.0));
    assert_eq!(drifts, ["rungs[3].verdicts.rejected: baseline 153, run 154"]);
}

#[test]
fn profile_gate_checks_fields_the_old_comparator_skipped() {
    let doc = baseline("profile_baseline.json");
    assert_eq!(json::diff(&doc, &doc), Vec::<String>::new());
    for path in [
        "cells[0].gflops",
        "cells[0].mem_throughput_pct",
        "cells[5].arithmetic_intensity",
        "cells[12].coalescing_eff_pct",
        "cells[47].barrier_stall_pct",
    ] {
        let drifts = drifts_after(&doc, path, bump);
        assert_eq!(drifts.len(), 1, "{path}: {drifts:?}");
        assert!(drifts[0].starts_with(&format!("{path}: baseline ")), "{drifts:?}");
    }
}
