//! Unit execution and routing: batch engine when eligible, serial engine
//! otherwise — with bit-for-bit reproducible measurements either way.
//!
//! The routing rule is a pure function of the unit
//! ([`route_unit`]): a unit runs on the lane-parallel lockstep
//! [`dynring_engine::BatchSimulator`] iff its dynamics is the pure
//! Bernoulli stream **and** its scheduler is FSYNC or SSYNC — exactly
//! the combinations whose per-lane execution is proven bit-identical to
//! the serial engine (SSYNC rides the word-parallel round-robin
//! activation words, the same deterministic policy the serial engine
//! plays). Everything else (adaptive adversaries, repaired stochastic
//! classes, ASYNC scheduling) falls back to the serial engines, where
//! every non-Bernoulli unit plays one quiet loop that records nothing and
//! keeps the connected-over-time check online ([`run_unit`] reports its
//! violations beside the record, never in it). The
//! batch route also carries its lane arity
//! ([`dynring_analysis::BatchArity`], picked per unit by replica count)
//! — a pure throughput knob that never enters unit hashes or stored
//! record bytes, since every arity produces the same bytes. Because the
//! decision depends only on the unit, sharding a campaign over threads
//! cannot change any record's route or bytes.
//!
//! Replica seeds follow the Monte Carlo contract
//! ([`dynring_analysis::seeds::derive_stream_seed`]): replica `r` of a
//! Bernoulli unit is lane `r % 64` of the stream seeded
//! `derive_stream_seed(unit.seed, r / 64)`, so any replica of any store
//! can be replayed in isolation on the serial engine.

use serde::{Deserialize, Serialize};

use dynring_analysis::scenario::{build_dynamics, cot_recurrence_bound, SchedulerChoice};
use dynring_analysis::seeds::derive_stream_seed;
use dynring_analysis::{with_algorithm, BatchArity, BatchSweep, DynamicsChoice, ScenarioError};
use dynring_engine::async_exec::{AsyncSimulator, ObliviousAsync};
use dynring_engine::{
    Algorithm, CotTracking, Dynamics, Oblivious, RobotPlacement, RoundRobinSingle, Simulator,
    LANES,
};
use dynring_graph::classes::CotVerdict;
use dynring_graph::{AlwaysPresent, BernoulliReplicas, EdgeSchedule, NodeId, RingTopology, Time};

use crate::spec::{PlannedUnit, UnitScheduler, WorkUnit};
use crate::CampaignError;

/// Where a unit executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The lockstep batch engine at the given lane arity.
    Batch(BatchArity),
    /// The serial engines (round simulator or phase-split async
    /// simulator).
    Serial,
}

impl Route {
    /// Display name (also the form recorded in the store). The arity is
    /// deliberately *not* part of the name: stored route strings stay
    /// `"batch"`/`"serial"` at every arity, because every arity produces
    /// the same bytes.
    pub fn name(&self) -> &'static str {
        match self {
            Route::Batch(_) => "batch",
            Route::Serial => "serial",
        }
    }

    /// Whether this is the batch route (at any arity).
    pub fn is_batch(&self) -> bool {
        matches!(self, Route::Batch(_))
    }

    /// The lane arity of the batch route, `None` on the serial route.
    pub fn arity(&self) -> Option<BatchArity> {
        match self {
            Route::Batch(arity) => Some(*arity),
            Route::Serial => None,
        }
    }
}

/// The batch-eligibility rule: pure Bernoulli dynamics under the FSYNC or
/// SSYNC scheduler (the two whose activation is expressible as
/// deterministic lane-uniform activation words). A pure function of the
/// unit, so the decision is identical on every shard of every run; the
/// arity is [`BatchArity::for_replicas`] on the unit's replica budget.
pub fn route_unit(unit: &WorkUnit) -> Route {
    if matches!(unit.dynamics, DynamicsChoice::Bernoulli { .. })
        && matches!(unit.scheduler, UnitScheduler::Sync | UnitScheduler::Ssync)
    {
        Route::Batch(BatchArity::for_replicas(unit.replicas))
    } else {
        Route::Serial
    }
}

/// What one unit measured: first-cover statistics over its replicas.
/// Integer accumulators only (`total_cover_time` instead of a float sum),
/// so records are byte-identical across machines and worker counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitMeasurement {
    /// Replicas executed.
    pub replicas: usize,
    /// Replicas that completed a first cover within the horizon.
    pub covered: usize,
    /// Sum of first-cover rounds over the covered replicas.
    pub total_cover_time: u64,
    /// Minimum first-cover round over the covered replicas.
    pub min_cover_time: Option<Time>,
    /// Maximum first-cover round over the covered replicas.
    pub max_cover_time: Option<Time>,
}

impl UnitMeasurement {
    /// Folds per-replica first covers into the measurement.
    pub fn from_first_covers(firsts: &[Option<Time>]) -> Self {
        let covered: Vec<Time> = firsts.iter().filter_map(|&c| c).collect();
        UnitMeasurement {
            replicas: firsts.len(),
            covered: covered.len(),
            total_cover_time: covered.iter().sum(),
            min_cover_time: covered.iter().copied().min(),
            max_cover_time: covered.iter().copied().max(),
        }
    }

    /// `covered / replicas`.
    pub fn survival_rate(&self) -> f64 {
        if self.replicas == 0 {
            return 0.0;
        }
        self.covered as f64 / self.replicas as f64
    }

    /// Mean first-cover round over the covered replicas (0 when none).
    pub fn mean_cover_time(&self) -> f64 {
        if self.covered == 0 {
            return 0.0;
        }
        self.total_cover_time as f64 / self.covered as f64
    }

    /// Field-by-field comparison against another measurement:
    /// `(field, self's value, other's value)` per differing field, empty
    /// when equal. Certification uses this to name *which* field of a
    /// stored result diverges from a fresh re-execution.
    pub fn diff(&self, other: &UnitMeasurement) -> Vec<(&'static str, String, String)> {
        fn opt(t: Option<Time>) -> String {
            t.map_or_else(|| "none".to_string(), |t| t.to_string())
        }
        let mut diffs = Vec::new();
        if self.replicas != other.replicas {
            diffs.push(("replicas", self.replicas.to_string(), other.replicas.to_string()));
        }
        if self.covered != other.covered {
            diffs.push(("covered", self.covered.to_string(), other.covered.to_string()));
        }
        if self.total_cover_time != other.total_cover_time {
            diffs.push((
                "total_cover_time",
                self.total_cover_time.to_string(),
                other.total_cover_time.to_string(),
            ));
        }
        if self.min_cover_time != other.min_cover_time {
            diffs.push(("min_cover_time", opt(self.min_cover_time), opt(other.min_cover_time)));
        }
        if self.max_cover_time != other.max_cover_time {
            diffs.push(("max_cover_time", opt(self.max_cover_time), opt(other.max_cover_time)));
        }
        diffs
    }
}

/// One line of the result store: a unit, where it ran, what it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// [`WorkUnit::content_hash`] — the store key.
    pub hash: String,
    /// Position in the plan expansion.
    pub index: usize,
    /// `"batch"` or `"serial"` ([`Route::name`]).
    pub route: String,
    /// The unit itself (stores are self-describing).
    pub unit: WorkUnit,
    /// The measurement.
    pub result: UnitMeasurement,
}

/// First-cover ledger shared by the serial loops.
struct CoverLedger {
    seen: Vec<bool>,
    missing: usize,
    first_cover: Option<Time>,
}

impl CoverLedger {
    fn new(n: usize) -> Self {
        CoverLedger { seen: vec![false; n], missing: n, first_cover: None }
    }

    fn note(&mut self, positions: impl IntoIterator<Item = NodeId>, t: Time) {
        for p in positions {
            if !self.seen[p.index()] {
                self.seen[p.index()] = true;
                self.missing -= 1;
                if self.missing == 0 && self.first_cover.is_none() {
                    self.first_cover = Some(t);
                }
            }
        }
    }

    fn covered(&self) -> bool {
        self.missing == 0
    }
}

/// Whether a serial replica may end at its first cover. A replica whose
/// played schedule is certified online must play the whole horizon, so
/// the verdict covers the same window as the recording harness's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    AtFirstCover,
    AtHorizon,
}

/// One serial replica on the round simulator (FSYNC or SSYNC round-robin)
/// over any dynamics, on the quiet path: nothing is recorded.
fn serial_replica_sync<A: Algorithm, D: Dynamics>(
    ring: &RingTopology,
    algorithm: A,
    dynamics: D,
    placements: &[RobotPlacement],
    scheduler: SchedulerChoice,
    horizon: Time,
    stop: Stop,
) -> Result<Option<Time>, ScenarioError> {
    let mut sim = Simulator::new(ring.clone(), algorithm, dynamics, placements.to_vec())?;
    if scheduler == SchedulerChoice::SsyncRoundRobin {
        sim.set_activation(RoundRobinSingle);
    }
    let mut ledger = CoverLedger::new(ring.node_count());
    ledger.note(sim.position_iter(), 0);
    for t in 1..=horizon {
        if stop == Stop::AtFirstCover && ledger.covered() {
            break;
        }
        sim.step_quiet();
        ledger.note(sim.position_iter(), t);
    }
    Ok(ledger.first_cover)
}

/// One serial replica on the phase-split async simulator over a pure
/// schedule. Time is counted in *ticks*; the horizon buys `3 × horizon`
/// of them (one full Look-Compute-Move cycle per round).
fn serial_replica_async<A: Algorithm, S: EdgeSchedule>(
    ring: &RingTopology,
    algorithm: A,
    schedule: S,
    placements: &[RobotPlacement],
    horizon: Time,
) -> Result<Option<Time>, ScenarioError> {
    let mut sim = AsyncSimulator::new(
        ring.clone(),
        algorithm,
        ObliviousAsync::new(schedule),
        placements.to_vec(),
    )?;
    let mut ledger = CoverLedger::new(ring.node_count());
    ledger.note(sim.position_slice().iter().copied(), 0);
    let ticks = horizon.saturating_mul(3);
    for t in 1..=ticks {
        if ledger.covered() {
            break;
        }
        sim.tick_quiet();
        ledger.note(sim.position_slice().iter().copied(), t);
    }
    Ok(ledger.first_cover)
}

/// The scheduler choice a unit's scheduler names on the round simulator.
fn sync_scheduler(scheduler: UnitScheduler) -> SchedulerChoice {
    match scheduler {
        UnitScheduler::Sync => SchedulerChoice::Fsync,
        UnitScheduler::Ssync => SchedulerChoice::SsyncRoundRobin,
        UnitScheduler::Async => unreachable!("async units run on the async simulator"),
    }
}

/// Runs a pure-Bernoulli unit replica-by-replica on the serial engines:
/// the fallback for SSYNC/ASYNC scheduling, and the reference the batch
/// route is tested bit-identical against.
fn bernoulli_serial_first_covers(
    unit: &WorkUnit,
    p: f64,
    placements: &[RobotPlacement],
) -> Result<Vec<Option<Time>>, ScenarioError> {
    let ring = RingTopology::new(unit.ring_size)?;
    let mut firsts = Vec::with_capacity(unit.replicas);
    for r in 0..unit.replicas {
        let batch = (r / LANES) as u64;
        let lane = (r % LANES) as u32;
        let stream =
            BernoulliReplicas::new(ring.clone(), p, derive_stream_seed(unit.seed, batch))?;
        let schedule = stream.lane(lane);
        let first = with_algorithm!(unit.algorithm, |alg| match unit.scheduler {
            UnitScheduler::Sync | UnitScheduler::Ssync => serial_replica_sync(
                &ring,
                alg,
                Oblivious::new(schedule),
                placements,
                sync_scheduler(unit.scheduler),
                unit.horizon,
                Stop::AtFirstCover,
            )?,
            UnitScheduler::Async =>
                serial_replica_async(&ring, alg, schedule, placements, unit.horizon)?,
        });
        firsts.push(first);
    }
    Ok(firsts)
}

/// What one quiet serial replica measured.
#[derive(Debug)]
pub(crate) struct QuietReplica {
    /// Round (tick, under ASYNC) of the first complete cover.
    pub(crate) first_cover: Option<Time>,
    /// The connected-over-time verdict of the schedule played over the
    /// whole horizon, certified online. `None` under ASYNC, which the
    /// planner restricts to the static ring (trivially certified), so the
    /// async loop may end at first cover.
    pub(crate) cot: Option<CotVerdict>,
}

/// Replica `r` of a non-Bernoulli unit on the quiet serial loops: the
/// dynamics of [`build_dynamics`] seeded `derive_stream_seed(unit.seed, r)`,
/// played for the whole horizon with its connected-over-time check kept
/// online. It measures what the recording harness
/// ([`dynring_analysis::run_scenario`]) measures for the same scenario —
/// first cover and verdict — without recording the run.
pub(crate) fn quiet_replica(
    unit: &WorkUnit,
    ring: &RingTopology,
    placements: &[RobotPlacement],
    r: usize,
) -> Result<QuietReplica, ScenarioError> {
    if unit.scheduler == UnitScheduler::Async {
        assert!(
            matches!(unit.dynamics, DynamicsChoice::Static),
            "the planner restricts the async scheduler to oblivious dynamics"
        );
        let schedule = AlwaysPresent::new(ring.clone());
        let first_cover = with_algorithm!(unit.algorithm, |alg| {
            serial_replica_async(ring, alg, schedule, placements, unit.horizon)?
        });
        return Ok(QuietReplica { first_cover, cot: None });
    }
    let seed = derive_stream_seed(unit.seed, r as u64);
    let dynamics = build_dynamics(ring, unit.dynamics, unit.horizon, seed)?;
    let mut tracking = CotTracking::new(dynamics);
    let scheduler = unit.dynamics.effective_scheduler(sync_scheduler(unit.scheduler));
    let first_cover = with_algorithm!(unit.algorithm, |alg| serial_replica_sync(
        ring,
        alg,
        &mut tracking,
        placements,
        scheduler,
        unit.horizon,
        Stop::AtHorizon,
    )?);
    let cot = Some(tracking.verdict(cot_recurrence_bound(unit.horizon)));
    Ok(QuietReplica { first_cover, cot })
}

/// Runs a non-Bernoulli unit (generator-built schedules, the adaptive
/// proof adversaries, the static ring under any scheduler) replica by
/// replica on the quiet serial loops. Returns the first covers and the
/// number of replicas whose played schedule failed the online
/// connected-over-time check.
fn quiet_first_covers(
    unit: &WorkUnit,
    placements: &[RobotPlacement],
) -> Result<(Vec<Option<Time>>, usize), ScenarioError> {
    let ring = RingTopology::new(unit.ring_size)?;
    let mut firsts = Vec::with_capacity(unit.replicas);
    let mut violations = 0;
    for r in 0..unit.replicas {
        let replica = quiet_replica(unit, &ring, placements, r)?;
        if replica.cot.is_some_and(|v| !v.is_certified()) {
            violations += 1;
        }
        firsts.push(replica.first_cover);
    }
    Ok((firsts, violations))
}

/// A unit's record plus what its execution observed beside it. The
/// observations are out of band: they never enter the stored bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitExecution {
    /// The record appended to the store.
    pub record: UnitRecord,
    /// Replicas whose played schedule failed the online
    /// connected-over-time check (always 0 on the replica-lane routes,
    /// whose Bernoulli streams are not certified).
    pub cot_violations: usize,
}

/// Executes one planned unit on its natural route.
///
/// # Errors
///
/// [`CampaignError::Scenario`] when the unit is ill-formed for the
/// engines (placement/ring mismatch, invalid probability, …).
pub fn execute_unit(planned: &PlannedUnit) -> Result<UnitRecord, CampaignError> {
    run_unit(planned, route_unit(&planned.unit)).map(|run| run.record)
}

/// Executes one planned unit on an explicit route — the natural one, or
/// `Route::Serial` forced onto a batch-eligible unit (the lane-vs-serial
/// equivalence tests; both routes must measure identical results) — and
/// keeps the out-of-band observations, which the campaign runner's
/// telemetry counts.
///
/// # Errors
///
/// See [`execute_unit`]; additionally [`CampaignError::InvalidSpec`] when
/// `Route::Batch` is forced onto a unit that is not batch-eligible.
pub fn run_unit(planned: &PlannedUnit, route: Route) -> Result<UnitExecution, CampaignError> {
    let unit = &planned.unit;
    if route.is_batch() && !route_unit(unit).is_batch() {
        return Err(CampaignError::InvalidSpec(format!(
            "unit {} ({} × {}) is not batch-eligible",
            planned.hash,
            unit.dynamics.name(),
            unit.scheduler.name()
        )));
    }
    let placements = unit.placement.build(unit.ring_size);
    let (firsts, cot_violations) = match (route, unit.dynamics) {
        (Route::Batch(arity), DynamicsChoice::Bernoulli { p }) => {
            let ring = RingTopology::new(unit.ring_size).map_err(ScenarioError::from)?;
            let sweep = BatchSweep {
                algorithm: unit.algorithm,
                ring: &ring,
                placements: &placements,
                p,
                horizon: unit.horizon,
                replicas: unit.replicas,
                seed: unit.seed,
                scheduler: sync_scheduler(unit.scheduler),
            };
            // Thread-level sharding lives at the campaign layer (units in
            // parallel), so the sweep itself stays single-threaded.
            (sweep.first_covers_at(arity, 1)?, 0)
        }
        (Route::Serial, DynamicsChoice::Bernoulli { p }) => {
            (bernoulli_serial_first_covers(unit, p, &placements)?, 0)
        }
        (Route::Serial, _) => quiet_first_covers(unit, &placements)?,
        (Route::Batch(_), _) => unreachable!("eligibility checked above"),
    };
    let record = UnitRecord {
        hash: planned.hash.clone(),
        index: planned.index,
        route: route.name().to_string(),
        unit: unit.clone(),
        result: UnitMeasurement::from_first_covers(&firsts),
    };
    Ok(UnitExecution { record, cot_violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, ExplicitRobot, PlacementAxis};
    use dynring_analysis::{run_scenario, AlgorithmChoice, PlacementSpec, Scenario};
    use proptest::prelude::*;

    fn unit(dynamics: DynamicsChoice, scheduler: UnitScheduler) -> PlannedUnit {
        let unit = WorkUnit {
            ring_size: 6,
            robots: 3,
            placement: PlacementSpec::EvenlySpaced { count: 3 },
            algorithm: AlgorithmChoice::Pef3Plus,
            dynamics,
            scheduler,
            horizon: 400,
            seed: 0xFEED,
            replicas: if dynamics.is_stochastic() { 70 } else { 1 },
        };
        PlannedUnit { index: 0, hash: unit.content_hash(), unit }
    }

    #[test]
    fn routing_is_bernoulli_times_lane_uniform_schedulers_exactly() {
        // The unit-level routing-decision pin of the acceptance criteria:
        // batch iff (pure Bernoulli, FSYNC or SSYNC); every other
        // combination is serial. The 70-replica test units pad to two
        // 64-lane groups or one 128-lane group — the tie goes wide.
        let b = DynamicsChoice::Bernoulli { p: 0.5 };
        assert_eq!(
            route_unit(&unit(b, UnitScheduler::Sync).unit),
            Route::Batch(BatchArity::Lanes128)
        );
        assert_eq!(
            route_unit(&unit(b, UnitScheduler::Ssync).unit),
            Route::Batch(BatchArity::Lanes128)
        );
        assert_eq!(route_unit(&unit(b, UnitScheduler::Async).unit), Route::Serial);
        for dynamics in [
            DynamicsChoice::Static,
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
            DynamicsChoice::Markov { p_off: 0.15, p_on: 0.4 },
            DynamicsChoice::SweepingOutage { dwell: 3 },
            DynamicsChoice::TIntervalConnected { stability: 4 },
            DynamicsChoice::PointedBlocker { budget: 4 },
            DynamicsChoice::SingleConfiner,
            DynamicsChoice::TwoConfiner { patience: 64 },
            DynamicsChoice::SsyncBlocker,
            DynamicsChoice::EventualMissing { p: 0.5, bound: 8, edge: 0, from: 10 },
            DynamicsChoice::AlternatingHoles,
        ] {
            assert_eq!(
                route_unit(&unit(dynamics, UnitScheduler::Sync).unit),
                Route::Serial,
                "{}",
                dynamics.name()
            );
        }
        // And the executed record names its route — arity-free, so the
        // stored bytes of batch-eligible units never depend on the lane
        // width the engine happened to pick.
        let record = execute_unit(&unit(b, UnitScheduler::Sync)).expect("runs");
        assert_eq!(record.route, "batch");
        let record = execute_unit(&unit(DynamicsChoice::Static, UnitScheduler::Sync))
            .expect("runs");
        assert_eq!(record.route, "serial");
        // The arity accessor: observable on the route, absent serially.
        assert_eq!(
            route_unit(&unit(b, UnitScheduler::Sync).unit).arity(),
            Some(BatchArity::Lanes128)
        );
        assert_eq!(Route::Serial.arity(), None);
    }

    #[test]
    fn batch_route_equals_forced_serial_bit_for_bit() {
        // 70 replicas: ragged at every arity (one full 64-lane group plus
        // a partial one, or one padded wide group), so the ghost-lane
        // masking is exercised on the batch side while the serial side
        // never builds the padding lanes. Pinned at all three arities.
        let planned = unit(DynamicsChoice::Bernoulli { p: 0.5 }, UnitScheduler::Sync);
        let serial = run_unit(&planned, Route::Serial).expect("serial runs").record;
        for arity in BatchArity::ALL {
            let batch =
                run_unit(&planned, Route::Batch(arity)).expect("batch runs").record;
            assert_eq!(batch.result, serial.result, "arity={}", arity.name());
            assert_eq!(batch.result.replicas, 70);
            assert!(batch.result.covered > 0, "{:?}", batch.result);
        }
    }

    #[test]
    fn ssync_batch_route_equals_forced_serial_bit_for_bit() {
        // The widened route of this change: a pure-Bernoulli SSYNC unit
        // runs on the batch engine via round-robin activation words, and
        // its stored record must be byte-identical to the forced-serial
        // run (which plays `RoundRobinSingle` on the serial engine) — at
        // every arity, including the natural route.
        let planned = unit(DynamicsChoice::Bernoulli { p: 0.7 }, UnitScheduler::Ssync);
        let serial = run_unit(&planned, Route::Serial).expect("serial runs").record;
        assert_eq!(serial.route, "serial");
        for arity in BatchArity::ALL {
            let batch =
                run_unit(&planned, Route::Batch(arity)).expect("batch runs").record;
            assert_eq!(batch.result, serial.result, "arity={}", arity.name());
        }
        let natural = execute_unit(&planned).expect("runs");
        assert_eq!(natural.route, "batch");
        assert_eq!(natural.result, serial.result);
        let json_batch = serde_json::to_string(&natural.result).expect("serialize");
        let json_serial = serde_json::to_string(&serial.result).expect("serialize");
        assert_eq!(json_batch, json_serial, "stored measurement bytes drifted");
    }

    #[test]
    fn batch_route_equals_forced_serial_for_explicit_placements() {
        // The new spec axis: arbitrary (non-tower) placements with mixed
        // chirality and initial directions, lane-vs-serial equivalent.
        let robots = [
            ExplicitRobot { node: 0, mirrored: false, start_right: true },
            ExplicitRobot { node: 1, mirrored: true, start_right: false },
            ExplicitRobot { node: 4, mirrored: true, start_right: true },
        ];
        let placements: Vec<RobotPlacement> =
            robots.iter().map(ExplicitRobot::build).collect();
        let work = WorkUnit {
            ring_size: 7,
            robots: 3,
            placement: PlacementSpec::Explicit(placements),
            algorithm: AlgorithmChoice::Pef3Plus,
            dynamics: DynamicsChoice::Bernoulli { p: 0.5 },
            scheduler: UnitScheduler::Sync,
            horizon: 500,
            seed: 0xBEEF,
            replicas: 66,
        };
        let planned = PlannedUnit { index: 0, hash: work.content_hash(), unit: work };
        let batch = run_unit(&planned, route_unit(&planned.unit)).expect("batch runs").record;
        assert_eq!(batch.route, "batch");
        let serial = run_unit(&planned, Route::Serial).expect("serial runs").record;
        assert_eq!(batch.result, serial.result);
        assert!(batch.result.covered > 0, "{:?}", batch.result);
    }

    #[test]
    fn forcing_batch_onto_ineligible_units_errors() {
        let planned = unit(DynamicsChoice::Static, UnitScheduler::Sync);
        for arity in BatchArity::ALL {
            assert!(matches!(
                run_unit(&planned, Route::Batch(arity)),
                Err(CampaignError::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn ssync_and_async_schedulers_produce_plausible_covers() {
        let sync = execute_unit(&unit(DynamicsChoice::Bernoulli { p: 0.9 }, UnitScheduler::Sync))
            .expect("runs");
        let ssync =
            execute_unit(&unit(DynamicsChoice::Bernoulli { p: 0.9 }, UnitScheduler::Ssync))
                .expect("runs");
        let asynch =
            execute_unit(&unit(DynamicsChoice::Bernoulli { p: 0.9 }, UnitScheduler::Async))
                .expect("runs");
        assert_eq!(ssync.route, "batch");
        assert_eq!(asynch.route, "serial");
        assert!(sync.result.covered > 0);
        assert!(ssync.result.covered > 0);
        assert!(asynch.result.covered > 0);
        // One robot per round covers strictly later than all-at-once.
        assert!(
            ssync.result.mean_cover_time() > sync.result.mean_cover_time(),
            "{} vs {}",
            ssync.result.mean_cover_time(),
            sync.result.mean_cover_time()
        );
    }

    #[test]
    fn adversary_units_confine_and_report_zero_survival() {
        let work = WorkUnit {
            ring_size: 6,
            robots: 1,
            placement: PlacementSpec::EvenlySpaced { count: 1 },
            algorithm: AlgorithmChoice::Pef3Plus,
            dynamics: DynamicsChoice::SingleConfiner,
            scheduler: UnitScheduler::Sync,
            horizon: 400,
            seed: 1,
            replicas: 1,
        };
        let planned = PlannedUnit { index: 0, hash: work.content_hash(), unit: work };
        let record = execute_unit(&planned).expect("runs");
        assert_eq!(record.route, "serial");
        assert_eq!(record.result.covered, 0, "{:?}", record.result);
        assert_eq!(record.result.survival_rate(), 0.0);
    }

    #[test]
    fn campaign_replicas_match_the_monte_carlo_sweep() {
        // A batch-route unit over evenly-spaced placements is exactly a
        // Monte Carlo sweep point: same seeds, same first covers.
        use dynring_analysis::{run_replicas_with, MonteCarloConfig};
        let planned = unit(DynamicsChoice::Bernoulli { p: 0.5 }, UnitScheduler::Sync);
        let record = execute_unit(&planned).expect("runs");
        let cfg = MonteCarloConfig {
            ring_size: 6,
            robots: 3,
            presence_probability: 0.5,
            horizon: 400,
            replicas: 70,
            seed: 0xFEED,
            algorithm: AlgorithmChoice::Pef3Plus,
        };
        let summary = run_replicas_with(&cfg, 1).expect("valid config");
        assert_eq!(record.result.covered, summary.covered);
        assert_eq!(record.result.min_cover_time, summary.min_cover_time);
        assert_eq!(record.result.max_cover_time, summary.max_cover_time);
        assert_eq!(record.result.mean_cover_time(), summary.mean_cover_time);
    }

    #[test]
    fn scenario_route_units_replay_bit_for_bit() {
        for dynamics in [
            DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 8 },
            DynamicsChoice::Markov { p_off: 0.2, p_on: 0.4 },
            DynamicsChoice::PointedBlocker { budget: 3 },
        ] {
            let planned = unit(dynamics, UnitScheduler::Sync);
            let a = execute_unit(&planned).expect("runs");
            let b = execute_unit(&planned).expect("runs");
            assert_eq!(a, b, "{}", dynamics.name());
        }
    }

    #[test]
    fn a_spec_unit_executes_end_to_end_per_route() {
        // Smoke over the planner → executor seam, covering both routes
        // and all three schedulers from one spec.
        let spec = CampaignSpec {
            name: "seam".into(),
            ring_sizes: vec![5],
            robots: vec![2],
            placements: vec![PlacementAxis::EvenlySpaced, PlacementAxis::Adjacent { start: 1 }],
            algorithms: vec![AlgorithmChoice::Pef3Plus],
            dynamics: vec![DynamicsChoice::Bernoulli { p: 0.6 }, DynamicsChoice::Static],
            schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync, UnitScheduler::Async],
            seeds: vec![3],
            horizon: 300,
            replicas: 4,
        };
        let plan = spec.plan().expect("valid spec");
        assert_eq!(plan.units.len(), 12);
        for planned in &plan.units {
            let record = execute_unit(planned).expect("unit runs");
            let expected = route_unit(&planned.unit).name();
            assert_eq!(record.route, expected);
            assert_eq!(record.result.replicas, planned.unit.replicas);
        }
    }

    /// Every non-Bernoulli dynamics a campaign unit can name, with
    /// `param` (≥ 1) varying its knob. The dying edge of
    /// `EventualMissing` is below 3, so it exists on every ring tested.
    fn unit_dynamics(index: usize, param: u64) -> DynamicsChoice {
        match index % 11 {
            0 => DynamicsChoice::Static,
            1 => DynamicsChoice::BernoulliRecurrent { p: 0.5, bound: 2 + param },
            2 => DynamicsChoice::Markov { p_off: 0.3, p_on: 0.5 },
            3 => DynamicsChoice::SweepingOutage { dwell: param },
            4 => DynamicsChoice::TIntervalConnected { stability: param },
            5 => DynamicsChoice::PointedBlocker { budget: param },
            6 => DynamicsChoice::SingleConfiner,
            7 => DynamicsChoice::TwoConfiner { patience: 4 * param },
            8 => DynamicsChoice::EventualMissing {
                p: 0.5,
                bound: 2 + param,
                edge: param as usize % 3,
                from: 8 * param,
            },
            9 => DynamicsChoice::AlternatingHoles,
            _ => DynamicsChoice::SsyncBlocker,
        }
    }

    fn work_unit(
        n: usize,
        k: usize,
        algorithm: AlgorithmChoice,
        dynamics: DynamicsChoice,
        scheduler: UnitScheduler,
        horizon: Time,
        seed: u64,
    ) -> WorkUnit {
        WorkUnit {
            ring_size: n,
            robots: k,
            // The two-robot confiner expects adjacent robots; everything
            // else starts evenly spaced.
            placement: if matches!(dynamics, DynamicsChoice::TwoConfiner { .. }) {
                PlacementSpec::Adjacent { count: k, start: seed as usize % n }
            } else {
                PlacementSpec::EvenlySpaced { count: k }
            },
            algorithm,
            dynamics,
            scheduler,
            horizon,
            seed,
            replicas: if dynamics.is_stochastic() { 2 } else { 1 },
        }
    }

    /// Replays every replica of `unit` on the recording harness and on the
    /// quiet loop; returns the recorded verdicts once both agree.
    fn assert_quiet_equals_recorded(unit: &WorkUnit) -> Vec<CotVerdict> {
        let ring = RingTopology::new(unit.ring_size).expect("valid ring");
        let placements = unit.placement.build(unit.ring_size);
        let mut verdicts = Vec::new();
        for r in 0..unit.replicas {
            let scenario = Scenario::new(
                unit.ring_size,
                PlacementSpec::Explicit(placements.clone()),
                unit.algorithm,
                unit.dynamics,
                unit.horizon,
            )
            .with_seed(derive_stream_seed(unit.seed, r as u64))
            .with_scheduler(sync_scheduler(unit.scheduler));
            let recorded = run_scenario(&scenario).expect("recorded run");
            let quiet = quiet_replica(unit, &ring, &placements, r).expect("quiet run");
            assert_eq!(quiet.first_cover, recorded.first_cover, "{unit:?} replica {r}");
            assert_eq!(quiet.cot.as_ref(), Some(&recorded.cot), "{unit:?} replica {r}");
            verdicts.push(recorded.cot);
        }
        verdicts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The quiet scenario route measures what the recording harness
        /// measures — first cover and the whole-horizon COT verdict — for
        /// every dynamics, algorithm and sync scheduler, on horizons on
        /// both sides of the recurrence bound's floor of 16.
        #[test]
        fn quiet_route_equals_the_recording_harness(
            dynamics_index in 0usize..11,
            algorithm_index in 0usize..8,
            ssync in any::<bool>(),
            (n, k_raw) in (3usize..9, 0usize..64),
            horizon in 4u64..160,
            (param, seed) in (1u64..8, any::<u64>()),
        ) {
            let k = 1 + k_raw % (n - 1);
            let scheduler = if ssync { UnitScheduler::Ssync } else { UnitScheduler::Sync };
            let unit = work_unit(
                n,
                k,
                AlgorithmChoice::portfolio()[algorithm_index],
                unit_dynamics(dynamics_index, param),
                scheduler,
                horizon,
                seed,
            );
            assert_quiet_equals_recorded(&unit);
        }
    }

    #[test]
    fn quiet_route_reproduces_the_violated_cells() {
        // The cells whose played schedule fails the COT check: the SSYNC
        // blocker against one robot and the two-robot confiner against two.
        // The SSYNC blocker forces round-robin activation, so its FSYNC
        // units must agree with the harness too.
        let mut violated = 0;
        for n in 3..=8usize {
            for algorithm in AlgorithmChoice::portfolio() {
                for scheduler in [UnitScheduler::Sync, UnitScheduler::Ssync] {
                    for (dynamics, k) in [
                        (DynamicsChoice::SsyncBlocker, 1),
                        (DynamicsChoice::TwoConfiner { patience: 64 }, 2),
                    ] {
                        if k >= n {
                            continue;
                        }
                        let unit =
                            work_unit(n, k, algorithm, dynamics, scheduler, 120, n as u64);
                        violated += assert_quiet_equals_recorded(&unit)
                            .iter()
                            .filter(|v| !v.is_certified())
                            .count();
                    }
                }
            }
        }
        assert!(violated > 0, "the scan must reach Violated verdicts");
    }

    #[test]
    fn only_scenario_route_violations_are_counted() {
        let blocked = PlannedUnit {
            index: 0,
            hash: String::new(),
            unit: work_unit(
                6,
                1,
                AlgorithmChoice::Pef3Plus,
                DynamicsChoice::SsyncBlocker,
                UnitScheduler::Sync,
                200,
                1,
            ),
        };
        let run = run_unit(&blocked, Route::Serial).expect("runs");
        assert_eq!(run.cot_violations, 1);
        assert_eq!(run.record, execute_unit(&blocked).expect("runs"));
        let bernoulli = unit(DynamicsChoice::Bernoulli { p: 0.5 }, UnitScheduler::Sync);
        for route in [Route::Serial, route_unit(&bernoulli.unit)] {
            assert_eq!(run_unit(&bernoulli, route).expect("runs").cot_violations, 0);
        }
    }
}
