//! Tests of the benchmark's own code: the workloads do what they claim,
//! the deterministic figures repeat exactly, and `BENCHMARK.json` names
//! the metrics the code prints.

use std::time::Duration;
use utp_perfbench::fleet::Fleet;
use utp_perfbench::report::{Metrics, Spec, END_TO_END, PER_LAYER};
use utp_perfbench::settle::{Settle, CACHE, CLIENTS, FORGE_EVERY, GENUINE};
use utp_perfbench::{run_traced, run_untraced, Bench, WORKLOADS};

/// A short measured phase: the tests check outcomes and counts, not
/// speed.
const SHORT: Duration = Duration::from_millis(300);

/// The per-layer counts of `fleet_flash`: everything the program counts,
/// as opposed to host times.
const FLEET_COUNTS: &[&str] = &[
    "netsim.events_per_order",
    "netsim.retries_per_order",
    "netsim.replays_per_order",
    "netsim.shed_per_order",
    "netsim.timeouts_per_order",
    "netsim.dup_settles_per_order",
    "netsim.verify_jobs_per_settle",
    "netsim.worker_utilization",
    "netsim.queue_watermark",
    "netsim.link_drop_share",
    "e2e.fail_rate",
];

fn pick(m: &Metrics, names: &[&str]) -> Vec<(String, Option<f64>)> {
    names.iter().map(|n| (n.to_string(), m.get(n))).collect()
}

#[test]
fn fleet_flash_repeats_exactly_on_one_seed() {
    let a = run_untraced(&Fleet, 11, SHORT);
    let b = run_untraced(&Fleet, 11, SHORT);
    assert!(
        a.correct() && b.correct(),
        "{:?} {:?}",
        a.violations,
        b.violations
    );
    let virtual_e2e = ["confirm_mean_ms", "confirm_p99_ms", "success_rate"];
    assert_eq!(
        pick(&a.metrics, &virtual_e2e),
        pick(&b.metrics, &virtual_e2e)
    );
    assert!(a.metrics.get("confirm_mean_ms").unwrap_or(0.0) > 0.0);

    let a = run_traced(&Fleet, 11, SHORT, None);
    let b = run_traced(&Fleet, 11, SHORT, None);
    assert_eq!(
        pick(&a.metrics, FLEET_COUNTS),
        pick(&b.metrics, FLEET_COUNTS)
    );
    // The flash crowd exercises every overload path.
    for name in [
        "netsim.retries_per_order",
        "netsim.replays_per_order",
        "netsim.shed_per_order",
        "netsim.timeouts_per_order",
    ] {
        assert!(
            a.metrics.get(name).unwrap_or(0.0) > 0.0,
            "{name} never fired"
        );
    }
}

#[test]
fn fleet_flash_seeds_move_the_virtual_latency() {
    let a = run_untraced(&Fleet, 11, SHORT);
    let b = run_untraced(&Fleet, 12, SHORT);
    assert_ne!(
        a.metrics.get("confirm_mean_ms"),
        b.metrics.get("confirm_mean_ms")
    );
}

const MIX: &[&str] = &[
    "service.accepted_per_op",
    "service.replayed_per_op",
    "service.rejected_per_op",
    "service.shed_per_op",
    "service.cert_cache_lookups_per_op",
    "journal.appends_per_op",
];

#[test]
fn settle_mix_is_the_same_on_every_seed() {
    let a = run_traced(&Settle::HOT, 21, SHORT, None);
    let b = run_traced(&Settle::HOT, 22, SHORT, None);
    assert!(
        a.correct() && b.correct(),
        "{:?} {:?}",
        a.violations,
        b.violations
    );
    assert_eq!(pick(&a.metrics, MIX), pick(&b.metrics, MIX));
    let get = |n: &str| a.metrics.get(n).unwrap_or(0.0);
    assert!(get("service.replayed_per_op") > 0.0);
    assert!(get("service.rejected_per_op") > 0.0);
}

#[test]
fn settle_hot_hits_the_cache_and_settle_cold_misses() {
    let hot = run_traced(&Settle::HOT, 31, SHORT, None);
    let cold = run_traced(&Settle::COLD, 31, SHORT, None);
    assert!(hot.correct(), "{:?}", hot.violations);
    assert!(cold.correct(), "{:?}", cold.violations);
    // A fresh service per round: one miss per client, every other
    // lookup of the round hits.
    let lookups_per_round = (GENUINE + GENUINE / FORGE_EVERY) as f64;
    let hot_hits = hot
        .metrics
        .get("service.cert_cache_hit_ratio")
        .unwrap_or(0.0);
    assert!(
        hot_hits >= 1.0 - CLIENTS as f64 / lookups_per_round,
        "hot hit ratio {hot_hits}"
    );
    assert_eq!(cold.metrics.get("service.cert_cache_hit_ratio"), Some(0.0));
    assert_eq!(
        cold.metrics.get("service.cert_cache_misses_per_op"),
        cold.metrics.get("service.cert_cache_lookups_per_op")
    );
}

#[test]
fn settle_cold_overflows_the_cache_and_evicts_the_oldest_certificate() {
    // A cold round looks up more distinct certificates than the cache
    // holds (checked where the sizes are defined). A certificate
    // followed by as many others as the cache holds is gone, while one
    // followed by one fewer is still there.
    let world = Settle::COLD.setup(41);
    assert!(Settle::COLD.cert_cached_after(&world, CACHE - 1));
    assert!(!Settle::COLD.cert_cached_after(&world, CACHE));
}

/// The `name`, `unit` and `better` fields of each entry of one array of
/// `BENCHMARK.json` (empty where an entry has no such field).
fn declared(json: &str, key: &str) -> Vec<[String; 3]> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, name: &str| -> String {
        let Some(at) = entry.find(&format!("\"{name}\"")) else {
            return String::new();
        };
        let rest = &entry[at + name.len() + 2..];
        let open = rest.find('"').expect("a string value") + 1;
        let close = open + rest[open..].find('"').expect("the string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            [
                field(entry, "name"),
                field(entry, "unit"),
                field(entry, "better"),
            ]
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expect = |specs: &[Spec]| -> Vec<[String; 3]> {
        specs
            .iter()
            .map(|s| [s.name.to_string(), s.unit.to_string(), s.better.to_string()])
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), expect(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|[name, _, _]| name)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
