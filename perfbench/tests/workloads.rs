//! The benchmark's own checks: the generated workloads load the routes
//! they claim to, the metric catalogue is well formed, and
//! `BENCHMARK.json` agrees with both.

use std::collections::{BTreeMap, BTreeSet};

use dynring_campaign::{route_unit, CampaignSpec, PlannedUnit};
use perfbench::catalog::{is_valid_name, END_TO_END, PER_LAYER};
use perfbench::workloads::{by_name, route_class, specs, RouteClass, WORKLOADS};
use serde::Deserialize;

fn planned(workload: &str, seed: u64) -> Vec<PlannedUnit> {
    let w = by_name(workload).expect("known workload");
    specs(w, seed)
        .iter()
        .flat_map(|s| s.plan().expect("generated specs plan").units)
        .collect()
}

fn classes(units: &[PlannedUnit]) -> BTreeMap<RouteClass, usize> {
    let mut counts = BTreeMap::new();
    for u in units {
        *counts.entry(route_class(&u.unit)).or_insert(0) += 1;
    }
    counts
}

#[test]
fn batch_bernoulli_is_all_batch_at_256_lanes_with_both_fill_modes() {
    for seed in [0, 1, 7] {
        let units = planned("batch-bernoulli", seed);
        assert!(units
            .iter()
            .all(|u| route_class(&u.unit) == RouteClass::Batch));
        assert!(units
            .iter()
            .all(|u| route_unit(&u.unit).arity().map(|a| a.lanes()) == Some(256)));
        let modes: BTreeSet<bool> = units
            .iter()
            .map(|u| dynring_engine::sparse_fill_default(u.unit.robots, u.unit.ring_size))
            .collect();
        assert_eq!(
            modes.len(),
            2,
            "both the full and the sparse fill must be exercised"
        );
    }
}

#[test]
fn serial_mix_has_one_spec_per_serial_route_and_no_batch_units() {
    let w = by_name("serial-mix").expect("known");
    let specs = specs(w, 3);
    let per_spec: Vec<Vec<RouteClass>> = specs
        .iter()
        .map(|s| {
            let units = s.plan().expect("generated specs plan").units;
            classes(&units).keys().copied().collect()
        })
        .collect();
    assert_eq!(
        per_spec,
        vec![vec![RouteClass::Scenario], vec![RouteClass::Async]]
    );
    let units = planned("serial-mix", 3);
    assert!(units.iter().all(|u| route_unit(&u.unit).name() == "serial"));
    assert!(w.ledger);
    assert_eq!(w.shards, 2);
}

#[test]
fn the_l2_samples_cover_every_route() {
    // Each workload's level-2 sample is drawn from its own stores, so
    // together they must re-execute batch, scenario and async units.
    let covered: BTreeSet<RouteClass> = WORKLOADS
        .iter()
        .filter(|w| w.l2_sample > 0)
        .flat_map(|w| classes(&planned(w.name, 3)).into_keys())
        .collect();
    assert_eq!(
        covered,
        BTreeSet::from([RouteClass::Batch, RouteClass::Scenario, RouteClass::Async])
    );
}

#[test]
fn the_seed_changes_only_the_seeds_axis() {
    for w in WORKLOADS {
        let a = specs(w, 1);
        let b = specs(w, 2);
        assert_eq!(
            a,
            specs(w, 1),
            "{}: the same seed must give the same specs",
            w.name
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seeds, y.seeds, "{}", w.name);
            let strip = |s: &CampaignSpec| CampaignSpec {
                seeds: Vec::new(),
                ..s.clone()
            };
            assert_eq!(strip(x), strip(y), "{}", w.name);
        }
    }
}

#[test]
fn metric_names_are_valid_and_per_layer_metrics_name_real_targets() {
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut seen = BTreeSet::new();
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in &workloads {
        assert!(is_valid_name(w), "{w}");
    }
    for m in PER_LAYER {
        assert!(
            !m.moves.is_empty() || m.name.starts_with("trace."),
            "{} moves nothing",
            m.name
        );
        for (metric, workload) in m.moves {
            assert!(
                e2e.contains(metric),
                "{} names unknown metric {metric}",
                m.name
            );
            assert!(
                workloads.contains(workload),
                "{} names unknown workload {workload}",
                m.name
            );
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[derive(Debug, Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

#[derive(Debug, Deserialize)]
struct Benchmark {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<BTreeMap<String, String>>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<BTreeMap<String, String>>,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_mirrors_the_catalogue_and_the_workloads() {
    let b = benchmark_json();
    assert_eq!(b.paths, vec!["perfbench".to_string()]);
    assert!(
        b.command.iter().any(|a| a == "perfbench/Cargo.toml"),
        "{:?}",
        b.command
    );
    assert!((1..=60).contains(&b.run_seconds));

    let names: Vec<&str> = b.workloads.iter().map(|w| w["name"].as_str()).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for (entry, w) in b.workloads.iter().zip(WORKLOADS) {
        assert_eq!(
            entry.keys().map(String::as_str).collect::<Vec<_>>(),
            ["name", "why"]
        );
        assert_eq!(entry["why"], w.why, "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    assert_eq!(b.end_to_end.len(), END_TO_END.len());
    for (entry, m) in b.end_to_end.iter().zip(END_TO_END) {
        assert_eq!(
            (
                entry.name.as_str(),
                entry.unit.as_str(),
                entry.better.as_str()
            ),
            (m.name, m.unit, m.better.name())
        );
        let bound = entry.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(valid_unit(m.unit), "{}", m.unit);
    }
    let setup_bound = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .and_then(|m| m.bound);
    let max_bound = b
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup_bound,
        Some(max_bound),
        "setup_s carries the largest bound"
    );

    assert_eq!(b.per_layer.len(), PER_LAYER.len());
    for (entry, m) in b.per_layer.iter().zip(PER_LAYER) {
        assert_eq!(
            entry.keys().map(String::as_str).collect::<Vec<_>>(),
            ["better", "name", "unit"]
        );
        assert_eq!(
            (
                entry["name"].as_str(),
                entry["unit"].as_str(),
                entry["better"].as_str()
            ),
            (m.name, m.unit, m.better.name())
        );
        assert!(valid_unit(m.unit), "{}", m.unit);
    }
}
