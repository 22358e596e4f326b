//! What the benchmark reports: workload names, metric declarations
//! (mirrored by `BENCHMARK.json`, which a test checks), and the result
//! line the command prints last.

use diffy_core::json::JsonValue;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cold_miss", "warm_hit", "stream", "hd_eval"];

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit the value is printed in.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricSpec; 6] = [
    m("latency_p50_ms", "ms", "lower"),
    m("latency_p90_ms", "ms", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_heap_mb", "MB", "lower"),
    m("success_pct", "%", "higher"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricSpec; 28] = [
    m("serve.parse_us", "us", "lower"),
    m("serve.serialize_us", "us", "lower"),
    m("serve.frame_us", "us", "lower"),
    m("serve.transport_us", "us", "lower"),
    m("serve.requests", "count", "higher"),
    m("serve.non_200", "count", "lower"),
    m("serve.keepalive_reuses", "count", "higher"),
    m("serve.poller_wakeups", "count", "lower"),
    m("serve.sessions_created", "count", "higher"),
    m("runner.hit_us", "us", "lower"),
    m("runner.hits", "count", "higher"),
    m("runner.misses", "count", "lower"),
    m("runner.hit_ratio", "ratio", "higher"),
    m("runner.evictions", "count", "lower"),
    m("runner.resident_traces", "count", "lower"),
    m("imaging.input_ms", "ms", "lower"),
    m("models.weights_ms", "ms", "lower"),
    m("models.infer_ms", "ms", "lower"),
    m("models.gmac", "GMAC", "lower"),
    m("models.gmac_per_s", "GMAC/s", "higher"),
    m("models.zero_act_pct", "%", "higher"),
    m("sim.plane_build_ms", "ms", "lower"),
    m("sim.tile_sim_ms", "ms", "lower"),
    m("sim.temporal_ms", "ms", "lower"),
    m("sim.cycles", "cycles", "lower"),
    m("encoding.traffic_ms", "ms", "lower"),
    m("encoding.traffic_mb", "MB", "lower"),
    m("encoding.in_mb_per_s", "MB/s", "higher"),
];

/// Whether `name` is a valid workload or metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Renders the final result line: `correct`, `attempted`, `failed` and
/// one `{value, unit}` entry per declared metric. Fails if a declared
/// metric has no value, an undeclared one has a value, or a value is
/// not finite — the line never carries a metric `BENCHMARK.json` does
/// not declare.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !specs.iter().any(|s| s.name == *n))
    {
        return Err(format!("metric `{name}` is not declared"));
    }
    let mut metrics = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut found = values.iter().filter(|(n, _)| *n == spec.name);
        let (Some(&(_, value)), None) = (found.next(), found.next()) else {
            return Err(format!("metric `{}` needs exactly one value", spec.name));
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is {value}", spec.name));
        }
        metrics.push((
            spec.name,
            JsonValue::object(vec![("value", value.into()), ("unit", spec.unit.into())]),
        ));
    }
    Ok(JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", JsonValue::object(metrics)),
    ])
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffy_core::json::parse;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|s| (s.name.into(), s.unit.into(), s.better.into()))
            .collect()
    }

    #[test]
    fn names_are_valid_and_distinct() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn benchmark_json_declares_exactly_our_metrics_and_workloads() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_prints_every_declared_metric_and_nothing_else() {
        for specs in [&END_TO_END[..], &PER_LAYER[..]] {
            let values: Vec<(&str, f64)> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| (s.name, i as f64 + 0.25))
                .collect();
            let line = result_line(true, 3, 0, specs, &values).unwrap();
            let v = parse(&line).unwrap();
            let JsonValue::Object(members) = v.get("metrics").unwrap() else {
                panic!()
            };
            let printed: Vec<(String, String)> = members
                .iter()
                .map(|(k, e)| {
                    (
                        k.clone(),
                        e.get("unit").and_then(JsonValue::as_str).unwrap().into(),
                    )
                })
                .collect();
            let want: Vec<(String, String)> = specs
                .iter()
                .map(|s| (s.name.into(), s.unit.into()))
                .collect();
            assert_eq!(printed, want);
            assert!(result_line(true, 1, 0, specs, &values[1..]).is_err());
            let mut extra = values.clone();
            extra.push(("undeclared", 1.0));
            assert!(result_line(true, 1, 0, specs, &extra).is_err());
            let mut nan = values.clone();
            nan[0].1 = f64::NAN;
            assert!(result_line(true, 1, 0, specs, &nan).is_err());
        }
    }
}
