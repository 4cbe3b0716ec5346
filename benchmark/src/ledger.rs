//! The metric tables: four end-to-end metrics with their bounds, and every
//! per-layer metric with its unit, direction and the workload whose traced
//! run measures it ("home"). `BENCHMARK.json` lists the same names; a unit
//! test keeps the two in step.

use crate::stats::Bound;

/// Protocol labels as they appear in metric names.
pub const PROTOCOLS: [&str; 5] = ["timebounded", "htlc", "deals", "ilp_atomic", "ilp_untuned"];

/// The child spans of one `payment` span, in execution order.
pub const PHASES: [&str; 5] = ["faults", "instance", "build", "run", "classify"];

/// End-to-end metrics: name, unit, allowed worsening. Lower is better for
/// all four. The absolute floor is applied by `aa` only; the driver that
/// reads `BENCHMARK.json` knows the relative share alone. The wall-time
/// bounds have to cover `routed_net`'s seed-to-seed spread (the seed draws
/// its networks), not just host noise: see the README.
pub const END_TO_END: [(&str, &str, Bound); 4] = [
    (
        "wall_s_t1",
        "s",
        Bound {
            relative: 0.25,
            absolute_floor: 0.0,
        },
    ),
    (
        "wall_s_tn",
        "s",
        Bound {
            relative: 0.25,
            absolute_floor: 0.0,
        },
    ),
    (
        "peak_rss_mb",
        "MiB",
        Bound {
            relative: 0.15,
            absolute_floor: 0.0,
        },
    ),
    (
        "setup_s",
        "s",
        Bound {
            relative: 0.25,
            absolute_floor: 0.050,
        },
    ),
];

#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The workload whose traced run measures it.
    pub home: &'static str,
    /// A simulated statistic that repeats exactly for a seed (t1 values).
    pub exact: bool,
}

/// Every per-layer metric, in ledger order.
pub fn layer_metrics() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better, home, exact| {
        out.push(LayerMetric {
            name,
            unit,
            better,
            home,
            exact,
        })
    };
    let (lo, hi) = ("lower", "higher");

    for name in [
        "xcrypto.sha256_ns_per_block",
        "xcrypto.hmac_ns_per_call",
        "xcrypto.sign_ns_per_op",
        "xcrypto.verify_ns_per_op",
        "xcrypto.pki_register_ns_per_key",
        "anta.engine_ns_per_event_counters",
        "anta.engine_ns_per_event_full",
    ] {
        add(name.to_owned(), "ns", lo, "closed_mix", false);
    }
    for p in PROTOCOLS {
        for phase in PHASES {
            add(
                format!("harness.{p}.{phase}_us"),
                "us",
                lo,
                "closed_mix",
                false,
            );
        }
        add(
            format!("harness.{p}.events_per_payment"),
            "count",
            lo,
            "closed_mix",
            true,
        );
    }
    for p in PROTOCOLS {
        add(
            format!("runner.{p}.us_per_payment_t1"),
            "us",
            lo,
            "closed_mix",
            false,
        );
        add(
            format!("runner.{p}.overhead_us_per_payment"),
            "us",
            lo,
            "closed_mix",
            false,
        );
    }
    for (w, _) in crate::workloads::WORKLOADS {
        add(format!("sweep.speedup_tn.{w}"), "ratio", hi, w, false);
    }
    for (family, home) in [
        ("linear", "closed_mix"),
        ("hub", "open_hub"),
        ("scalefree", "routed_net"),
    ] {
        add(
            format!("workload.generate_us_per_spec.{family}"),
            "us",
            lo,
            home,
            false,
        );
    }
    add(
        "network.graph_generate_ms".to_owned(),
        "ms",
        lo,
        "routed_net",
        false,
    );
    for name in ["route", "route_multi", "shortest"] {
        add(
            format!("network.{name}_us_per_call"),
            "us",
            lo,
            "routed_net",
            false,
        );
    }
    add(
        "network.route_found_share".to_owned(),
        "ratio",
        hi,
        "routed_net",
        true,
    );
    for name in ["try_admit", "fits", "apply_lock"] {
        add(format!("liquidity.{name}_ns"), "ns", lo, "open_hub", false);
    }
    for w in ["open_hub", "routed_net"] {
        for (name, better) in [
            ("admitted", hi),
            ("rejected", lo),
            ("queued", lo),
            ("expired", lo),
            ("locks", lo),
            ("releases", lo),
            ("shards", hi),
        ] {
            add(format!("des.{w}.{name}"), "count", better, w, true);
        }
        add(format!("des.{w}.self_us_per_offered"), "us", lo, w, false);
    }
    add(
        "des.routed_over_static".to_owned(),
        "ratio",
        lo,
        "routed_net",
        false,
    );
    add(
        "des.shard_speedup_tn".to_owned(),
        "ratio",
        hi,
        "open_hub",
        false,
    );
    for (name, better) in [
        ("pathfind_calls", lo),
        ("routed", hi),
        ("rerouted", lo),
        ("split", lo),
        ("no_path", lo),
        ("rebalances", lo),
    ] {
        add(
            format!("router.{name}"),
            "count",
            better,
            "routed_net",
            true,
        );
    }
    add(
        "router.admitted_per_pathfind_call".to_owned(),
        "ratio",
        hi,
        "routed_net",
        true,
    );
    for name in [
        "generation_ms",
        "simulation_ms",
        "merge_ms",
        "checkpoint_ms_per_epoch",
        "resume_ms",
    ] {
        add(format!("campaign.{name}"), "ms", lo, "open_hub", false);
    }
    add(
        "campaign.resume_digest_match".to_owned(),
        "bool",
        hi,
        "open_hub",
        true,
    );
    add(
        "telemetry.jsonl_ns_per_event".to_owned(),
        "ns",
        lo,
        "closed_mix",
        false,
    );
    add(
        "telemetry.ring_ns_per_event".to_owned(),
        "ns",
        lo,
        "closed_mix",
        false,
    );
    for name in ["runs", "dedup_hits", "dead_branch_prunes", "resplits"] {
        add(format!("explore.{name}"), "count", lo, "explore_e4", true);
    }
    add(
        "explore.us_per_attempt".to_owned(),
        "us",
        lo,
        "explore_e4",
        false,
    );
    add(
        "explore.full_n2_schedules_per_s".to_owned(),
        "1/s",
        hi,
        "explore_e4",
        false,
    );
    for (w, _) in crate::workloads::WORKLOADS {
        add(format!("trace.overhead_ratio.{w}"), "ratio", lo, w, false);
    }
    out
}

/// Per-layer values measured by one traced run, by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    entries: Vec<(String, f64)>,
}

impl Ledger {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Names homed on `workload` that the traced run did not produce, and
    /// names it produced that no table lists: either is a bug here.
    pub fn mismatches(&self, workload: &str) -> Vec<String> {
        let defs = layer_metrics();
        let mut out = Vec::new();
        for d in defs.iter().filter(|d| d.home == workload) {
            if self.get(&d.name).is_none() {
                out.push(format!("ledger is missing {}", d.name));
            }
        }
        for (name, _) in &self.entries {
            if !defs.iter().any(|d| &d.name == name && d.home == workload) {
                out.push(format!("ledger has unlisted entry {name}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let defs = layer_metrics();
        assert!(defs.len() <= 128, "{} per-layer metrics", defs.len());
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _)| *n));
        names.extend(crate::workloads::WORKLOADS.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_owned();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(workloads.iter().all(|(_, why)| why.chars().count() <= 200));

        let e2e: Vec<(String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(field(m, "better"), "lower");
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (field(m, "name"), field(m, "unit"), bound)
            })
            .collect();
        let expected: Vec<(String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.relative))
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = layer_metrics()
            .into_iter()
            .map(|d| (d.name, d.unit.to_owned(), d.better.to_owned()))
            .collect();
        assert_eq!(layers, expected);
    }
}
