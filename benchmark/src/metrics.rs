//! The metric names the benchmark reports — the code-side twin of
//! `BENCHMARK.json` (a unit test holds the two together).
//!
//! End-to-end metrics come from the untraced run and are what a client
//! or a compiler user waits for, with timings scaled to reference machine
//! speed (see [`crate::speed`]; per-layer metrics are raw, and
//! `trace.speed_factor` says how the traced run's machine compared). Per-layer metrics come from the traced
//! run; every traced run reports every one of them, and a layer that
//! does no work on a workload reads 0 there — the "predicted no effect"
//! column of the interaction table, made visible.

use std::collections::BTreeMap;

use crate::json::Json;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("compile_geomean_ms", "ms"),
    ("query_geomean_ms", "ms"),
    ("run_wall_geomean_ms", "ms"),
];

/// Stage names of the level-5 stack as `CompiledQuery.stages` reports
/// them. `parallelize-scans` is in the registry but does not run at the
/// benchmark's `threads = 1`, so it has no stage to read.
pub const PASSES: &[&str] = &[
    "pipelining",
    "index-inference",
    "horizontal-fusion",
    "string-dictionaries",
    "hash-table-specialization",
    "list-specialization",
    "field-removal",
    "memory-hoisting",
    "branch-optimization",
    "storage-layout",
    "final",
];

pub const CRATES: &[&str] = &[
    "bench",
    "catalog",
    "codegen",
    "engine",
    "frontend",
    "interp",
    "ir",
    "legobase",
    "runtime",
    "server",
    "tpch",
    "transform",
];

const LAYERS: &[(&str, &str)] = &[
    ("runtime.load_ms", "ms"),
    ("runtime.load_mb_s", "MB/s"),
    ("codegen.jit_load_ms", "ms"),
    ("codegen.jit_query_ms.scan", "ms"),
    ("codegen.jit_query_ms.join", "ms"),
    ("codegen.jit_build_ms", "ms"),
    ("codegen.interp_build_ms", "ms"),
    ("codegen.native_spawn_load_ms", "ms"),
    ("codegen.native_query_ms.scan", "ms"),
    ("codegen.native_query_ms.join", "ms"),
    ("codegen.emit_c_ms", "ms"),
    ("codegen.emit_c_kb", "kB"),
    ("codegen.gcc_build_ms", "ms"),
    ("codegen.rustc_build_ms", "ms"),
    ("codegen.rustc_query_ms", "ms"),
    ("interp.query_ms", "ms"),
    ("transform.gen_cold_ms", "ms"),
    ("transform.gen_warm_ms", "ms"),
    ("transform.memo_hit_rate", "ratio"),
    ("transform.ir_stmts", "count"),
    ("transform.cost_scored_ms", "ms"),
    ("transform.pass_ms.pipelining-qmonad", "ms"),
    ("engine.prepare_ms", "ms"),
    ("engine.first_interp_share", "ratio"),
    ("engine.jit_swap_ms", "ms"),
    ("engine.native_swap_ms", "ms"),
    ("engine.execute_ms.interp", "ms"),
    ("engine.execute_ms.jit", "ms"),
    ("engine.execute_ms.native", "ms"),
    ("engine.self_ms.jit", "ms"),
    ("engine.self_ms.native", "ms"),
    ("engine.oracle_ms", "ms"),
    ("server.rtt_floor_ms", "ms"),
    ("server.self_ms.jit", "ms"),
    ("server.self_ms.native", "ms"),
    ("server.prepare_self_ms", "ms"),
    ("server.result_kb", "kB"),
    ("server.shed", "count"),
    ("server.timeouts", "count"),
    ("server.exec_errors", "count"),
    ("server.write_overflows", "count"),
    ("tpch.dbgen_s", "s"),
    ("trace.speed_factor", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(
        PASSES
            .iter()
            .map(|p| (format!("transform.pass_ms.{p}"), "ms")),
    );
    v.extend(CRATES.iter().map(|c| (format!("loc.{c}"), "count")));
    v.push(("loc.total".to_string(), "count"));
    v
}

/// Values measured by one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|(n, _)| *n == name)
                || per_layer().iter().any(|(n, _)| n == name),
            "undeclared metric `{name}`"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), in declared order.
    /// An end-to-end metric the workload failed to set is an error; a
    /// per-layer metric it did not touch is 0.
    pub fn report(&self, trace: bool) -> Result<Json, String> {
        let declared: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = Json::obj();
        for (name, unit) in declared {
            let value = match self.get(&name) {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            out = out.with(&name, Json::obj().with("value", value).with("unit", unit));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .expect("section")
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = crate::env::repo_root().join("BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            declared(&spec, "end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(declared(&spec, "per_layer"), own(per_layer()));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let own: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn report_fills_untouched_layers_and_rejects_missing_end_to_end() {
        let mut m = Metrics::default();
        m.set("runtime.load_ms", 1.5);
        let traced = m.report(true).unwrap();
        assert_eq!(traced.fields().len(), per_layer().len());
        assert_eq!(
            traced
                .get("runtime.load_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            traced
                .get("loc.total")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(m.report(false).is_err());
    }
}
