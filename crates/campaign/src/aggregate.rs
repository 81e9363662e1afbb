//! Folding a result store into cover-time / survival summary reports.
//!
//! The aggregator groups completed units by `(algorithm, dynamics,
//! scheduler)` — the axes a reader compares — and folds the integer
//! accumulators of every [`UnitRecord`] in the group. All statistics
//! derive from integer sums, so a report is a pure function of the store
//! and byte-identical across machines (the property the pinned
//! campaign-smoke summary relies on).
//!
//! Route accounting is family-based: the stored route string only names
//! the engine family (`"batch"`/`"serial"`), and the report additionally
//! breaks the batch family down by lane arity. The arity is recomputed
//! from each unit via [`route_unit`] — it is a pure function of the unit,
//! deliberately never stored, so the breakdown costs no record bytes.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use dynring_analysis::stats::Summary;
use dynring_graph::Time;

use crate::executor::{route_unit, UnitRecord};
use crate::spec::CampaignPlan;

/// One `(algorithm, dynamics, scheduler)` cell of the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignGroup {
    /// Algorithm display name.
    pub algorithm: String,
    /// Dynamics display name.
    pub dynamics: String,
    /// Scheduler display name.
    pub scheduler: String,
    /// Completed units in the group.
    pub units: usize,
    /// Replicas executed across those units.
    pub replicas: usize,
    /// Replicas that completed a first cover within their horizon.
    pub covered: usize,
    /// `covered / replicas`.
    pub survival_rate: f64,
    /// Mean first-cover round over the covered replicas (0 when none).
    pub mean_cover_time: f64,
    /// Minimum first-cover round over the covered replicas.
    pub min_cover_time: Option<Time>,
    /// Maximum first-cover round over the covered replicas.
    pub max_cover_time: Option<Time>,
    /// Distribution of the per-unit survival rates (spread across the
    /// group's grid points and seeds).
    pub unit_survival: Summary,
}

/// The folded report of one campaign store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Spec content hash.
    pub spec_hash: String,
    /// Units in the plan.
    pub planned_units: usize,
    /// Units completed in the store.
    pub completed_units: usize,
    /// Completed units routed to the batch engine.
    pub batch_units: usize,
    /// The batch family broken down by lane arity: lanes per group (64,
    /// 128, 256) → completed units the engine runs at that width. Sums
    /// to `batch_units`; recomputed from the units, never stored in
    /// records.
    pub batch_units_by_arity: BTreeMap<u64, usize>,
    /// Completed units routed to the serial engines.
    pub serial_units: usize,
    /// Replicas executed across all completed units.
    pub total_replicas: usize,
    /// Covered replicas across all completed units.
    pub covered_replicas: usize,
    /// Whether the store carried a torn trailing write when it was
    /// loaded (the torn bytes are excluded from the aggregation).
    pub torn_tail: bool,
    /// How many trailing bytes the torn write carried.
    pub torn_bytes: u64,
    /// Whether the store ends in a verified seal (see
    /// [`crate::trace::StoreFooter`]).
    pub sealed: bool,
    /// `true` when the store covers only part of the plan. Rendered as a
    /// loud PARTIAL banner so an unmerged shard store is never mistaken
    /// for a finished (merely low-unit-count) campaign.
    pub partial: bool,
    /// `true` when the store's records are exactly the plan's first
    /// `completed_units` units. `false` marks a mid-plan slice — i.e. an
    /// unmerged shard store — whose totals are a window, not a prefix,
    /// of the campaign.
    pub plan_prefix: bool,
    /// Groups, sorted by `(algorithm, dynamics, scheduler)`.
    pub groups: Vec<CampaignGroup>,
}

impl CampaignReport {
    /// `true` when every planned unit has a record.
    pub fn is_complete(&self) -> bool {
        self.completed_units == self.planned_units
    }
}

/// Folds the plan and its completed records into the report. Records not
/// in the plan (a foreign store — normally rejected earlier via the spec
/// hash) are ignored; duplicate hashes count once, first record wins.
pub fn aggregate(plan: &CampaignPlan, records: &[UnitRecord]) -> CampaignReport {
    let planned: BTreeMap<&str, ()> =
        plan.units.iter().map(|u| (u.hash.as_str(), ())).collect();
    let mut seen: BTreeMap<&str, &UnitRecord> = BTreeMap::new();
    for record in records {
        if planned.contains_key(record.hash.as_str()) {
            seen.entry(record.hash.as_str()).or_insert(record);
        }
    }
    let mut batch_units = 0usize;
    let mut batch_units_by_arity: BTreeMap<u64, usize> = BTreeMap::new();
    let mut serial_units = 0usize;
    let mut total_replicas = 0usize;
    let mut covered_replicas = 0usize;

    struct Acc {
        units: usize,
        replicas: usize,
        covered: usize,
        total_cover_time: u64,
        min: Option<Time>,
        max: Option<Time>,
        unit_survivals: Vec<f64>,
    }
    let mut groups: BTreeMap<(String, String, String), Acc> = BTreeMap::new();
    // Iterate in plan order so the per-group survival vectors (and with
    // them the medians) are deterministic. Track whether the completed
    // units form a plan prefix — a gap followed by more records marks a
    // mid-plan slice (an unmerged shard store).
    let mut gap_seen = false;
    let mut plan_prefix = true;
    for planned_unit in &plan.units {
        let Some(record) = seen.get(planned_unit.hash.as_str()) else {
            gap_seen = true;
            continue;
        };
        if gap_seen {
            plan_prefix = false;
        }
        if record.route == "batch" {
            batch_units += 1;
            if let Some(arity) = route_unit(&record.unit).arity() {
                *batch_units_by_arity.entry(arity.lanes() as u64).or_insert(0) += 1;
            }
        } else {
            serial_units += 1;
        }
        total_replicas += record.result.replicas;
        covered_replicas += record.result.covered;
        let key = (
            record.unit.algorithm.name().to_string(),
            record.unit.dynamics.name().to_string(),
            record.unit.scheduler.name().to_string(),
        );
        let acc = groups.entry(key).or_insert(Acc {
            units: 0,
            replicas: 0,
            covered: 0,
            total_cover_time: 0,
            min: None,
            max: None,
            unit_survivals: Vec::new(),
        });
        acc.units += 1;
        acc.replicas += record.result.replicas;
        acc.covered += record.result.covered;
        acc.total_cover_time += record.result.total_cover_time;
        acc.min = match (acc.min, record.result.min_cover_time) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        acc.max = match (acc.max, record.result.max_cover_time) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        acc.unit_survivals.push(record.result.survival_rate());
    }
    let completed_units = batch_units + serial_units;
    let groups = groups
        .into_iter()
        .map(|((algorithm, dynamics, scheduler), acc)| CampaignGroup {
            algorithm,
            dynamics,
            scheduler,
            units: acc.units,
            replicas: acc.replicas,
            covered: acc.covered,
            survival_rate: if acc.replicas == 0 {
                0.0
            } else {
                acc.covered as f64 / acc.replicas as f64
            },
            mean_cover_time: if acc.covered == 0 {
                0.0
            } else {
                acc.total_cover_time as f64 / acc.covered as f64
            },
            min_cover_time: acc.min,
            max_cover_time: acc.max,
            unit_survival: Summary::of(&acc.unit_survivals),
        })
        .collect();
    CampaignReport {
        name: plan.name.clone(),
        spec_hash: plan.spec_hash.clone(),
        planned_units: plan.units.len(),
        completed_units,
        batch_units,
        batch_units_by_arity,
        serial_units,
        total_replicas,
        covered_replicas,
        // Store-level facts; `load_report` overrides them from the load.
        torn_tail: false,
        torn_bytes: 0,
        sealed: false,
        partial: completed_units < plan.units.len(),
        plan_prefix,
        groups,
    }
}

/// Renders the report as an aligned text table.
pub fn render(report: &CampaignReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign `{}` (spec {}): {}/{} units complete \
         ({} batch-routed, {} serial), {}/{} replicas covered",
        report.name,
        report.spec_hash,
        report.completed_units,
        report.planned_units,
        report.batch_units,
        report.serial_units,
        report.covered_replicas,
        report.total_replicas,
    );
    if !report.batch_units_by_arity.is_empty() {
        let mix: Vec<String> = report
            .batch_units_by_arity
            .iter()
            .map(|(arity, units)| format!("{units} @ {arity} lanes"))
            .collect();
        let _ = writeln!(out, "batch arity mix: {}", mix.join(", "));
    }
    if report.partial {
        let _ = writeln!(
            out,
            "PARTIAL: {} of {} planned units missing{}",
            report.planned_units - report.completed_units,
            report.planned_units,
            if report.plan_prefix {
                "; resume to continue"
            } else {
                "; this looks like an unmerged shard store — `campaign merge` it \
                 with its sibling shards"
            }
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:<22} {:<7} {:>5} {:>8} {:>9} {:>12} {:>8} {:>8}",
        "algorithm", "dynamics", "sched", "units", "replicas", "survival", "mean-cover", "min", "max"
    );
    for g in &report.groups {
        let _ = writeln!(
            out,
            "{:<22} {:<22} {:<7} {:>5} {:>8} {:>8.0}% {:>12.1} {:>8} {:>8}",
            g.algorithm,
            g.dynamics,
            g.scheduler,
            g.units,
            g.replicas,
            g.survival_rate * 100.0,
            g.mean_cover_time,
            g.min_cover_time.map_or_else(|| "-".to_string(), |t| t.to_string()),
            g.max_cover_time.map_or_else(|| "-".to_string(), |t| t.to_string()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_unit, UnitMeasurement};
    use crate::spec::{CampaignSpec, PlacementAxis, UnitScheduler};
    use dynring_analysis::{AlgorithmChoice, DynamicsChoice};

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "agg".into(),
            ring_sizes: vec![5],
            robots: vec![2],
            placements: vec![PlacementAxis::EvenlySpaced],
            algorithms: vec![AlgorithmChoice::Pef3Plus, AlgorithmChoice::KeepDirection],
            dynamics: vec![DynamicsChoice::Bernoulli { p: 0.6 }, DynamicsChoice::Static],
            schedulers: vec![UnitScheduler::Sync],
            seeds: vec![1, 2],
            horizon: 300,
            replicas: 4,
        }
    }

    #[test]
    fn aggregates_groups_and_totals() {
        let plan = spec().plan().expect("valid spec");
        let records: Vec<_> = plan
            .units
            .iter()
            .map(|u| execute_unit(u).expect("unit runs"))
            .collect();
        let report = aggregate(&plan, &records);
        assert!(report.is_complete());
        assert_eq!(report.completed_units, 8);
        // 2 algorithms × 2 dynamics × 1 scheduler groups.
        assert_eq!(report.groups.len(), 4);
        // Bernoulli×sync units are batch-routed, static ones serial;
        // 4-replica units all pick the 64-lane arity.
        assert_eq!(report.batch_units, 4);
        assert_eq!(report.serial_units, 4);
        assert_eq!(report.batch_units_by_arity.get(&64), Some(&4));
        assert_eq!(
            report.batch_units_by_arity.values().sum::<usize>(),
            report.batch_units
        );
        assert!(render(&report).contains("batch arity mix: 4 @ 64 lanes"));
        // Totals tie out against the groups.
        let group_replicas: usize = report.groups.iter().map(|g| g.replicas).sum();
        assert_eq!(group_replicas, report.total_replicas);
        let group_covered: usize = report.groups.iter().map(|g| g.covered).sum();
        assert_eq!(group_covered, report.covered_replicas);
        // Rendering mentions every group's algorithm.
        let text = render(&report);
        assert!(text.contains("PEF_3+"), "{text}");
        assert!(text.contains("keep-direction"), "{text}");
    }

    #[test]
    fn partial_stores_report_incomplete() {
        let plan = spec().plan().expect("valid spec");
        let records: Vec<_> = plan
            .units
            .iter()
            .take(3)
            .map(|u| execute_unit(u).expect("unit runs"))
            .collect();
        let report = aggregate(&plan, &records);
        assert!(!report.is_complete());
        assert_eq!(report.completed_units, 3);
        assert!(report.partial);
        assert!(report.plan_prefix, "first 3 units are a plan prefix");
        assert!(render(&report).contains("PARTIAL"), "partial must render loudly");
    }

    #[test]
    fn mid_plan_slices_are_labelled_as_unmerged_shards() {
        let plan = spec().plan().expect("valid spec");
        // Units 4.. of the plan: a shard store's slice, not a prefix.
        let records: Vec<_> = plan
            .units
            .iter()
            .skip(4)
            .map(|u| execute_unit(u).expect("unit runs"))
            .collect();
        let report = aggregate(&plan, &records);
        assert!(report.partial);
        assert!(!report.plan_prefix);
        let text = render(&report);
        assert!(text.contains("unmerged shard"), "{text}");
        // A complete store is neither partial nor a mere slice.
        let all: Vec<_> =
            plan.units.iter().map(|u| execute_unit(u).expect("unit runs")).collect();
        let full = aggregate(&plan, &all);
        assert!(!full.partial);
        assert!(full.plan_prefix);
        assert!(!render(&full).contains("PARTIAL"));
    }

    #[test]
    fn duplicate_and_foreign_records_do_not_double_count() {
        let plan = spec().plan().expect("valid spec");
        let record = execute_unit(&plan.units[0]).expect("unit runs");
        let mut foreign = record.clone();
        foreign.hash = "ffffffffffffffff".into();
        let report = aggregate(&plan, &[record.clone(), record, foreign]);
        assert_eq!(report.completed_units, 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let plan = spec().plan().expect("valid spec");
        let records: Vec<_> = plan
            .units
            .iter()
            .map(|u| execute_unit(u).expect("unit runs"))
            .collect();
        let report = aggregate(&plan, &records);
        let json = serde_json::to_string_pretty(&report).expect("serialize");
        let back: CampaignReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(report, back);
    }

    #[test]
    fn measurement_statistics_are_integer_derived() {
        let m = UnitMeasurement {
            replicas: 4,
            covered: 2,
            total_cover_time: 30,
            min_cover_time: Some(10),
            max_cover_time: Some(20),
        };
        assert_eq!(m.mean_cover_time(), 15.0);
        assert_eq!(m.survival_rate(), 0.5);
    }
}
