//! The seeded workload generator.
//!
//! Each workload is a fixed list of campaign specs. The only thing the
//! `--seed` argument changes is each spec's `seeds` axis; the program
//! under test receives nothing but the generated specs.

use std::collections::BTreeSet;

use dynring_analysis::seeds::derive_stream_seed;
use dynring_analysis::AlgorithmChoice;
use dynring_campaign::{
    route_unit, CampaignSpec, PlacementAxis, UnitDynamics, UnitScheduler, WorkUnit,
};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// Why it was chosen, which layer it loads and which it bypasses
    /// (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether campaigns write the events ledger.
    pub ledger: bool,
    /// Shard stores each spec is written as (merged on the read side).
    pub shards: usize,
    /// Units certify level 2 re-executes per merged store.
    pub l2_sample: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-bernoulli",
        why: "Loads executor.batch (256 lanes, both fill modes, both sampler ladders), where most wall time goes; \
              bypasses runner, store and events, whose per-unit cost is near zero here. Ledger off.",
        ledger: false,
        shards: 1,
        l2_sample: 6,
    },
    Workload {
        name: "serial-mix",
        why: "Loads executor.scenario and executor.async (every unit takes a serial route), events (ledger on), \
              merge of 2 shards and the read side; bypasses executor.batch.",
        ledger: true,
        shards: 2,
        l2_sample: 96,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `count` distinct values derived from `(seed, salt)`: the only
/// seed-dependent part of a generated spec.
fn seed_axis(seed: u64, salt: u64, count: usize) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    (0u64..)
        .map(|i| derive_stream_seed(seed ^ salt, i))
        .filter(|s| seen.insert(*s))
        .take(count)
        .collect()
}

/// A spec of the shape every workload shares: `Pef3Plus` from evenly
/// spaced placements. Callers fill in the grid.
fn base(name: &str, horizon: u64, replicas: usize, seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        ring_sizes: Vec::new(),
        robots: Vec::new(),
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef3Plus],
        dynamics: Vec::new(),
        schedulers: Vec::new(),
        seeds,
        horizon,
        replicas,
    }
}

/// The campaign specs of `workload` for `seed`, run one after another
/// in this order.
pub fn specs(workload: &Workload, seed: u64) -> Vec<CampaignSpec> {
    use UnitDynamics::*;
    use UnitScheduler::*;
    match workload.name {
        // n = 64 sits below the sparse-gather cutover for k = 3 and
        // n = 2048 above it; p = 0.5 samples on one ladder level, p = 0.3
        // on several.
        "batch-bernoulli" => vec![CampaignSpec {
            ring_sizes: vec![64, 2048],
            robots: vec![3],
            dynamics: vec![Bernoulli { p: 0.5 }, Bernoulli { p: 0.3 }],
            schedulers: vec![Sync, Ssync],
            ..base(
                "bench-batch-bernoulli",
                20_000,
                256,
                seed_axis(seed, 0xB0, 6),
            )
        }],
        // Two specs, one per serial route. The scenario spec records the
        // whole horizon on every unit although first cover comes within
        // tens of rounds; the async spec runs the phase-split simulator.
        // Neither has a batch-routed unit.
        "serial-mix" => vec![
            CampaignSpec {
                ring_sizes: vec![6, 8, 12],
                robots: vec![2, 3],
                dynamics: vec![
                    Static,
                    Markov {
                        p_off: 0.3,
                        p_on: 0.5,
                    },
                    SweepingOutage { dwell: 3 },
                    PointedBlocker { budget: 3 },
                    TwoConfiner { patience: 64 },
                ],
                schedulers: vec![Sync, Ssync],
                ..base("bench-serial-scenario", 4000, 2, seed_axis(seed, 0x5C, 8))
            },
            CampaignSpec {
                ring_sizes: vec![16, 32, 64],
                robots: vec![3],
                dynamics: vec![Bernoulli { p: 0.5 }],
                schedulers: vec![Async],
                ..base("bench-serial-async", 2000, 128, seed_axis(seed, 0x5A, 150))
            },
        ],
        other => unreachable!("workload {other} has no generator"),
    }
}

/// Which executor path a unit takes: the batch engine, the serial
/// scenario harness, or the serial async simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteClass {
    /// Lockstep batch engine.
    Batch,
    /// Serial scenario harness (generator schedules, adversaries,
    /// static rings under FSYNC/SSYNC).
    Scenario,
    /// Serial phase-split async simulator.
    Async,
}

/// The executor path of `unit`, derived from [`route_unit`].
pub fn route_class(unit: &WorkUnit) -> RouteClass {
    if route_unit(unit).is_batch() {
        RouteClass::Batch
    } else if unit.scheduler == UnitScheduler::Async {
        RouteClass::Async
    } else {
        RouteClass::Scenario
    }
}
