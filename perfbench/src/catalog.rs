//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and direction, and for each per-layer
//! metric the end-to-end metric and workload it is expected to move.
//!
//! `BENCHMARK.json` at the repository root mirrors the name, unit and
//! direction of every entry (a test pins the two together), and the
//! result line of a run must carry exactly the metrics listed here for
//! its mode.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, ratios of waste).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    /// The form used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of a campaign sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<quantity>`).
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

use Better::{Higher, Lower};

/// Every end-to-end metric, printed by each untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "units/s",
        better: Higher,
    },
    EndToEnd {
        name: "replica_rounds_per_s",
        unit: "replica-rounds/s",
        better: Higher,
    },
    EndToEnd {
        name: "disk_bytes_per_unit",
        unit: "B/unit",
        better: Lower,
    },
    EndToEnd {
        name: "report_mb_per_s",
        unit: "MB/s",
        better: Higher,
    },
    EndToEnd {
        name: "certify_l1_mb_per_s",
        unit: "MB/s",
        better: Higher,
    },
    EndToEnd {
        name: "certify_l2_units_per_s",
        unit: "units/s",
        better: Higher,
    },
    EndToEnd {
        name: "merge_mb_per_s",
        unit: "MB/s",
        better: Higher,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
    },
    EndToEnd {
        name: "ok_ratio",
        unit: "ratio",
        better: Higher,
    },
];

const ALL_SETUP: &[(&str, &str)] = &[("setup_s", "batch-bernoulli"), ("setup_s", "serial-mix")];
const BATCH: &[(&str, &str)] = &[("replica_rounds_per_s", "batch-bernoulli")];
const SCENARIO: &[(&str, &str)] = &[
    ("units_per_s", "serial-mix"),
    ("replica_rounds_per_s", "serial-mix"),
    ("certify_l2_units_per_s", "serial-mix"),
];
const ASYNC: &[(&str, &str)] = &[
    ("units_per_s", "serial-mix"),
    ("replica_rounds_per_s", "serial-mix"),
];
const RUNNER: &[(&str, &str)] = &[
    ("units_per_s", "serial-mix"),
    ("units_per_s", "batch-bernoulli"),
];
const STORE_WRITE: &[(&str, &str)] = &[
    ("units_per_s", "serial-mix"),
    ("disk_bytes_per_unit", "serial-mix"),
];
const STORE_READ: &[(&str, &str)] = &[
    ("report_mb_per_s", "serial-mix"),
    ("certify_l1_mb_per_s", "serial-mix"),
    ("peak_rss_mb", "serial-mix"),
];
const EVENTS: &[(&str, &str)] = &[
    ("units_per_s", "serial-mix"),
    ("disk_bytes_per_unit", "serial-mix"),
];
const AGGREGATE: &[(&str, &str)] = &[("report_mb_per_s", "serial-mix")];
const CERTIFY_L1: &[(&str, &str)] = &[("certify_l1_mb_per_s", "serial-mix")];
const CERTIFY_L2: &[(&str, &str)] = &[("certify_l2_units_per_s", "serial-mix")];
const MERGE: &[(&str, &str)] = &[("merge_mb_per_s", "serial-mix")];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, printed by each traced run.
pub const PER_LAYER: &[PerLayer] = &[
    layer("spec.plan_s", "s", Lower, ALL_SETUP),
    layer("spec.units", "count", Higher, ALL_SETUP),
    layer("executor.batch.busy_s", "s", Lower, BATCH),
    layer("executor.batch.units", "count", Higher, BATCH),
    layer("executor.batch.unit_p50_ms", "ms", Lower, BATCH),
    layer("executor.batch.unit_p99_ms", "ms", Lower, BATCH),
    layer("executor.batch.useful_rr", "replica-rounds", Higher, BATCH),
    layer("executor.batch.executed_rr", "replica-rounds", Lower, BATCH),
    layer("executor.batch.useful_ratio", "ratio", Higher, BATCH),
    layer("executor.scenario.busy_s", "s", Lower, SCENARIO),
    layer("executor.scenario.units", "count", Higher, SCENARIO),
    layer("executor.scenario.unit_p50_ms", "ms", Lower, SCENARIO),
    layer("executor.scenario.unit_p99_ms", "ms", Lower, SCENARIO),
    layer(
        "executor.scenario.useful_rr",
        "replica-rounds",
        Higher,
        SCENARIO,
    ),
    layer("executor.async.busy_s", "s", Lower, ASYNC),
    layer("executor.async.units", "count", Higher, ASYNC),
    layer("executor.async.unit_p50_us", "us", Lower, ASYNC),
    layer("runner.wall_s", "s", Lower, RUNNER),
    layer("runner.waves", "count", Lower, RUNNER),
    layer("store.syncs", "count", Lower, STORE_WRITE),
    layer("runner.worker_idle_ratio", "ratio", Lower, RUNNER),
    layer("runner.self_s", "s", Lower, RUNNER),
    layer("store.append_us_per_record", "us", Lower, STORE_WRITE),
    layer("store.bytes_per_record", "B", Lower, STORE_WRITE),
    layer("store.sync_ms_p50", "ms", Lower, STORE_WRITE),
    layer("store.sync_ms_p99", "ms", Lower, STORE_WRITE),
    layer("store.load_s", "s", Lower, STORE_READ),
    layer("store.load_mb_per_s", "MB/s", Higher, STORE_READ),
    layer("events.appends", "count", Lower, EVENTS),
    layer("events.append_us_per_event", "us", Lower, EVENTS),
    layer("events.bytes_per_unit", "B/unit", Lower, EVENTS),
    layer("events.overhead_ratio", "ratio", Lower, EVENTS),
    layer("aggregate.fold_s", "s", Lower, AGGREGATE),
    layer("certify.l1_self_s", "s", Lower, CERTIFY_L1),
    layer("certify.l2_s", "s", Lower, CERTIFY_L2),
    layer("certify.l2_units", "count", Higher, CERTIFY_L2),
    layer("merge.s", "s", Lower, MERGE),
    layer("merge.bytes", "B", Lower, MERGE),
    // Bounds what tracing costs; moves nothing by design.
    layer("trace.overhead_ratio", "ratio", Lower, &[]),
];

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a catalogued metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
