//! The benchmark's catalogue (workloads and metrics; a test renders
//! `BENCHMARK.json` from it and compares the file) and the result line.

use std::collections::BTreeMap;

/// The workloads: (name, why it exists).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "serve_mixed",
        "SoftmaxServer, closed loops at 4 in flight and at saturation taking turns (traced: \
         open-loop Poisson first): the only path through the serve queue, admission, waves and fan-out",
    ),
    (
        "attn_prefill",
        "Llama2-7B prefill attention heads through ApMappedSoftmax and apply_batch_parallel \
         at 256 (blocking declines) and 2048 (blocking engages) scores; warmed, 100% plan hits",
    ),
    (
        "decode_growing",
        "decode with a context growing by one per step: every step is a first-sight shape \
         past the 64-entry plan LRU, so compile, autotune search and eviction sit on the request path",
    ),
];

/// End-to-end metrics, measured with tracing off:
/// (name, unit, better, bound as a share of the parent's median).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("max_rate_rps", "1/s", "higher", 0.25),
    ("scores_per_s", "1/s", "higher", 0.25),
    ("sim_cycles_per_vector", "cycles", "lower", 0.01),
    ("sim_energy_nj_per_vector", "nJ", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics, measured in the traced run: (name, unit, better).
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("check.failed_share", "share", "lower"),
    ("latency.samples", "count", "higher"),
    ("host.probe_ms", "ms", "lower"),
    ("host.steal_share", "share", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unexplained_share", "share", "lower"),
    ("trace.children_over_untraced", "x", "lower"),
    ("self_share.root", "share", "lower"),
    ("self_share.gen.late", "share", "lower"),
    ("self_share.serve.submit", "share", "lower"),
    ("self_share.serve.in_order", "share", "lower"),
    ("self_share.serve.wait", "share", "lower"),
    ("self_share.plan.resolve", "share", "lower"),
    ("self_share.ibert.quantize", "share", "lower"),
    ("self_share.mapping.execute", "share", "lower"),
    ("self_share.par.batch", "share", "lower"),
    ("self_share.bridge.apply", "share", "lower"),
    ("ibert.quantize_us.p50", "us", "lower"),
    ("plan.resolve_ms.p50", "ms", "lower"),
    ("plan.resolve_ms.p90", "ms", "lower"),
    ("plan.compiles", "count", "lower"),
    ("plan.hits", "count", "higher"),
    ("plan.evictions", "count", "lower"),
    ("plan.hit_share", "share", "higher"),
    ("autotune.shapes_tuned", "count", "lower"),
    ("autotune.candidates_scored", "count", "lower"),
    ("autotune.wins", "count", "higher"),
    ("mapping.execute_us.len256.p50", "us", "lower"),
    ("mapping.execute_us.len256.p90", "us", "lower"),
    ("mapping.execute_us.len2048.p50", "us", "lower"),
    ("mapping.execute_us.len2048.p90", "us", "lower"),
    ("mapping.execute_us.len16384.p50", "us", "lower"),
    ("mapping.execute_us.len16384.p90", "us", "lower"),
    ("mapping.ns_per_score", "ns", "lower"),
    ("device.phase_min_cycles", "cycles", "lower"),
    ("device.phase_exp_cycles", "cycles", "lower"),
    ("device.phase_div_cycles", "cycles", "lower"),
    ("device.reduction_cycles", "cycles", "lower"),
    ("device.shards", "count", "lower"),
    ("device.waves", "count", "lower"),
    ("ap.blocked_engaged_share", "share", "higher"),
    ("ap.regions", "count", "higher"),
    ("ap.gathers_elided", "count", "higher"),
    ("ap.scatters_elided", "count", "higher"),
    ("serve.open_loop_ms.p50", "ms", "lower"),
    ("serve.open_loop_ms.p90", "ms", "lower"),
    ("serve.submit_us.p50", "us", "lower"),
    ("serve.submit_us.p90", "us", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.latency_ms.len64.p50", "ms", "lower"),
    ("serve.latency_ms.len16384.p50", "ms", "lower"),
    ("serve.coalesced_share", "share", "higher"),
    ("serve.refused_share", "share", "lower"),
    ("serve.occupancy", "share", "higher"),
    ("serve.device_speedup", "x", "higher"),
    ("gen.late_ms.p90", "ms", "lower"),
    ("gen.late_ms.max", "ms", "lower"),
    ("fanout.len16384_over_inline", "x", "lower"),
    ("bridge.apply_us.len2048.p50", "us", "lower"),
    ("bridge.overhead_us", "us", "lower"),
    ("par.batch_ms.p50", "ms", "lower"),
    ("par.efficiency", "share", "higher"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Errors, refusals and outputs that differ from the reference.
    pub failed: u64,
    /// Every check beyond output equality passed (cycle equality,
    /// trace reconciliation).
    pub checks_ok: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            checks_ok: true,
            ..Self::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_ok && self.attempted > 0
    }

    /// The result line: every end-to-end metric (tracing off) or every
    /// per-layer metric (tracing on). A missing end-to-end metric or a
    /// non-finite value is an error; a per-layer metric the workload
    /// did not exercise reads 0.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        let mut add = |name: &str, unit: &str, value: Option<f64>| -> Result<(), String> {
            let v = value.ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
            Ok(())
        };
        if traced {
            for &(name, unit, _) in PER_LAYER {
                add(name, unit, Some(self.get(name).unwrap_or(0.0)))?;
            }
        } else {
            for &(name, unit, _, _) in END_TO_END {
                add(name, unit, self.get(name))?;
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How the benchmark is run, from the repository root.
    const COMMAND: &[&str] = &[
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    const PATHS: &[&str] = &["perfbench"];
    const RUN_SECONDS: u32 = 40;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// A JSON string; the catalogue holds no character that needs
    /// escaping.
    fn q(s: &str) -> String {
        assert!(!s.contains(['"', '\\']) && !s.contains(char::is_control));
        format!("\"{s}\"")
    }

    /// `BENCHMARK.json` as the catalogue says it should read, laid out
    /// two spaces per level.
    fn render_benchmark_json() -> String {
        let list = |items: Vec<String>, indent: &str| -> String {
            let inner = format!("{indent}  ");
            let body: Vec<String> = items.iter().map(|i| format!("{inner}{i}")).collect();
            format!("[\n{}\n{indent}]", body.join(",\n"))
        };
        let object = |fields: Vec<(&str, String)>, indent: &str| -> String {
            let inner = format!("{indent}  ");
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{inner}{}: {v}", q(k)))
                .collect();
            format!("{{\n{}\n{indent}}}", body.join(",\n"))
        };
        let workloads = WORKLOADS
            .iter()
            .map(|&(name, why)| object(vec![("name", q(name)), ("why", q(why))], "    "))
            .collect();
        let e2e = END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| {
                let fields = vec![
                    ("name", q(name)),
                    ("unit", q(unit)),
                    ("better", q(better)),
                    ("bound", bound.to_string()),
                ];
                object(fields, "    ")
            })
            .collect();
        let layer = PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                object(
                    vec![("name", q(name)), ("unit", q(unit)), ("better", q(better))],
                    "    ",
                )
            })
            .collect();
        let strings = |v: &[&str]| v.iter().map(|s| q(s)).collect();
        let doc = object(
            vec![
                ("command", list(strings(COMMAND), "  ")),
                ("paths", list(strings(PATHS), "  ")),
                ("run_seconds", RUN_SECONDS.to_string()),
                ("workloads", list(workloads, "  ")),
                ("end_to_end", list(e2e, "  ")),
                ("per_layer", list(layer, "  ")),
            ],
            "",
        );
        format!("{doc}\n")
    }

    #[test]
    fn catalogue_is_well_formed() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        for p in PATHS {
            assert!(!p.starts_with('/') && !p.split('/').any(|c| c == ".."));
            assert!(p
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/')));
        }
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.0, m.1, m.2))
            .chain(PER_LAYER.iter().copied());
        for (name, unit, better) in all {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(better == "lower" || better == "higher", "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for &(name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(text, render_benchmark_json());
    }

    #[test]
    fn result_line_lists_every_metric_of_its_mode() {
        let mut r = Report::new();
        r.attempted = 3;
        for &(name, ..) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.render(false).expect("complete");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.ends_with("}}}") && !line.contains('\n'));
        assert_eq!(line.matches("\"value\": ").count(), END_TO_END.len());
        for &(name, unit, ..) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert!(line.contains(&entry), "{entry}");
        }
        let traced = r.render(true).expect("zero-filled");
        assert_eq!(traced.matches("\"value\": ").count(), PER_LAYER.len());
        assert!(traced.contains("\"plan.compiles\": {\"value\": 0, \"unit\": \"count\"}"));
        let mut missing = Report::new();
        missing.attempted = 1;
        assert!(missing.render(false).is_err());
        missing.set("setup_s", f64::NAN);
        assert!(missing.render(false).is_err());
        missing.failed = 1;
        assert!(!missing.correct());
    }
}
