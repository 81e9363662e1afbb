//! Golden-file pin of the metrics snapshot schema: a registry loaded
//! with one instrument of each kind plus every pinned campaign metric
//! name must render byte-for-byte the committed JSON and Prometheus
//! text under `tests/golden/`. A diff here is a *schema change* — bump
//! [`dynring_obs::SNAPSHOT_SCHEMA`], regenerate the goldens (the
//! failure message prints the new text) and call it out in
//! docs/OBSERVABILITY.md.

use dynring_obs::{labeled, names, Registry, SNAPSHOT_SCHEMA};

/// Deterministic fixture: every pinned name registered, plus labeled
/// variants and a histogram with values spanning several buckets.
fn fixture() -> Registry {
    let r = Registry::new();
    r.counter(&labeled(names::CAMPAIGN_UNITS, &[("route", "batch")])).add(120);
    r.counter(&labeled(names::CAMPAIGN_UNITS, &[("route", "serial")])).add(120);
    r.counter(&labeled(names::CAMPAIGN_REPLICA_ROUNDS, &[("route", "batch")])).add(6871);
    r.counter(&labeled(names::CAMPAIGN_BATCH_ARITY_UNITS, &[("arity", "64")])).add(120);
    r.counter(&labeled(names::CAMPAIGN_SPARSE_GATHER_UNITS, &[("mode", "full")])).add(120);
    r.counter(&labeled(names::CAMPAIGN_COT_VIOLATIONS, &[("dynamics", "ssync-blocker")])).add(2);
    r.counter(names::CAMPAIGN_WAVES).add(15);
    r.counter(names::STORE_BYTES_APPENDED).add(107_219);
    r.counter(names::STORE_FSYNCS).add(16);
    r.counter(names::STORE_TORN_TAILS).add(1);
    r.counter(names::STORE_TORN_BYTES).add(24);
    r.counter(names::MERGE_UNITS).add(240);
    r.counter(names::MERGE_BYTES).add(107_219);
    r.counter(names::SUPERVISOR_SPAWNS).add(2);
    r.counter(names::SUPERVISOR_RETRIES).add(1);
    r.counter(names::SUPERVISOR_STALLS).add(1);
    r.counter(names::SUPERVISOR_STEALS).add(1);
    r.counter(names::SUPERVISOR_QUARANTINES).add(0);
    r.gauge("campaign_active_workers").set(4);
    let wall = r.histogram(&labeled(names::CAMPAIGN_UNIT_WALL_US, &[("route", "batch")]));
    for v in [0, 1, 2, 3, 100, 127, 255, 300, 4096, 300_464] {
        wall.record(v);
    }
    r.histogram(names::CAMPAIGN_WAVE_WALL_US).record(9000);
    r
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("golden file writable");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {path}: {e}"));
    assert!(
        expected == actual,
        "{name} drifted from the golden file — this is a snapshot SCHEMA \
         change. If intentional, bump SNAPSHOT_SCHEMA, regenerate with \
         UPDATE_GOLDEN=1, and call it out in docs/OBSERVABILITY.md.\n\
         New text:\n{actual}"
    );
}

#[test]
fn snapshot_json_matches_golden() {
    let snap = fixture().snapshot();
    assert_eq!(snap.schema, SNAPSHOT_SCHEMA);
    check_golden("snapshot.json", &snap.to_json_pretty());
}

#[test]
fn snapshot_prometheus_matches_golden() {
    check_golden("snapshot.prom", &fixture().snapshot().to_prometheus());
}

#[test]
fn pinned_metric_names_are_stable() {
    // The dashboards and the obs-smoke CI grep key on these exact
    // strings; renaming one is a breaking change for ledger consumers.
    assert_eq!(
        names::ALL,
        &[
            "campaign_units_total",
            "campaign_replica_rounds_total",
            "campaign_unit_wall_us",
            "campaign_batch_arity_units_total",
            "campaign_sparse_gather_units_total",
            "campaign_cot_violations_total",
            "campaign_waves_total",
            "campaign_wave_wall_us",
            "store_bytes_appended_total",
            "store_fsyncs_total",
            "store_torn_tails_total",
            "store_torn_bytes_total",
            "merge_units_total",
            "merge_bytes_total",
            "supervisor_spawns_total",
            "supervisor_retries_total",
            "supervisor_stalls_total",
            "supervisor_steals_total",
            "supervisor_quarantines_total",
        ]
    );
}
