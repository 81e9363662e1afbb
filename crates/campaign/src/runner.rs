//! The campaign driver: plan → skip completed → shard pending units over
//! threads → append records in plan order.
//!
//! Execution is wave-based: pending units are split into fixed chunks,
//! each wave fans out over `workers` threads via
//! [`dynring_analysis::parallel::par_map`] (which returns results in
//! input order), and the wave's records are appended to the store in
//! plan order before the next wave starts. An interruption therefore
//! loses at most one wave of work, and the store is always a plan-order
//! prefix — the invariant behind byte-exact resume. Because unit
//! execution and routing are pure functions of the unit, the store bytes
//! are identical for every `workers` value.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynring_analysis::parallel::{available_workers, par_map};
use dynring_obs::{labeled, names};

use crate::events::{Event, EventLedger, LedgerAppender, EVENTS_SCHEMA};
use crate::executor::{route_unit, run_unit, UnitExecution};
use crate::fault::FailPlan;
use crate::shard::ShardSel;
use crate::spec::{CampaignSpec, PlannedUnit};
use crate::store::{ResultStore, StoreHeader};
use crate::CampaignError;

/// Knobs of one `run`/`resume` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (`1` = serial; the default is one per core).
    pub workers: usize,
    /// Stop after this many newly executed units (`None` = run to
    /// completion). The CI smoke uses this to simulate an interruption.
    pub max_units: Option<usize>,
    /// `run` semantics: refuse a store that already has content. `resume`
    /// semantics (`false`): continue wherever the store left off.
    pub fresh: bool,
    /// Test-only fault injection into the store's append path (see
    /// [`crate::fault`]). `None` — always, outside the crash-safety
    /// tests — appends normally.
    pub fault: Option<FailPlan>,
    /// Restrict execution to one shard's slice of the plan (`campaign
    /// work`). The store keeps the full-plan header and global plan
    /// indices — only *which* units this process executes changes — so
    /// `campaign merge` can re-chain shard stores into the serial bytes.
    pub shard: Option<ShardSel>,
    /// Test-only "poison unit": execute normally up to — but not
    /// including — the pending unit with this hash, sync, then return
    /// [`CampaignError::InjectedFault`]. Whatever process (or sub-shard)
    /// draws the unit dies; everything before it survives on disk. `None`
    /// outside the fault-injection tests.
    pub poison: Option<String>,
    /// Out-of-band telemetry: when set, per-unit and per-wave events
    /// are appended to the events ledger at this path (see
    /// [`crate::events`]; the CLI points it at `<store>.events.jsonl`).
    /// Registry counters update regardless. Telemetry never changes
    /// store bytes — see `docs/OBSERVABILITY.md`.
    pub events: Option<PathBuf>,
    /// Test-only deterministic straggler (`DYNRING_WORKER_FAULT=
    /// slow-unit:INDEX:MS`): sleep this many milliseconds before
    /// executing the unit with this hash. Shapes wall time only, never
    /// bytes — the straggler-stealing and latency-histogram tests use
    /// it to avoid flaky timing.
    pub slow_unit: Option<(String, u64)>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: available_workers(),
            max_units: None,
            fresh: true,
            fault: None,
            shard: None,
            poison: None,
            events: None,
            slow_unit: None,
        }
    }
}

/// What one invocation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Units in the plan (this shard's slice when [`RunOptions::shard`]
    /// is set).
    pub planned: usize,
    /// Units already in the store (skipped).
    pub skipped: usize,
    /// Units executed and appended by this invocation.
    pub executed: usize,
    /// Units still pending after this invocation (nonzero only when
    /// `max_units` stopped it early).
    pub pending: usize,
}

impl RunOutcome {
    /// `true` when the store now covers the whole plan.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }
}

/// Plans `spec`, skips units already in `store`, executes the rest over
/// `opts.workers` threads and appends their records in plan order.
///
/// # Errors
///
/// - [`CampaignError::InvalidSpec`] / [`CampaignError::EmptyPlan`] from
///   planning;
/// - [`CampaignError::SpecMismatch`] when the store belongs to a
///   different spec;
/// - [`CampaignError::CorruptStore`] / [`CampaignError::Io`] on store
///   damage or a store that is not this plan's (or this shard's), see
///   [`ResultStore::load_for`];
/// - [`CampaignError::StoreExists`] when `opts.fresh` and the store has
///   content (use `resume`);
/// - [`CampaignError::Scenario`] when a unit is ill-formed (the first
///   failing unit by plan order, matching serial execution).
pub fn run_campaign(
    spec: &CampaignSpec,
    store: &ResultStore,
    opts: &RunOptions,
) -> Result<RunOutcome, CampaignError> {
    let plan = spec.plan()?;
    // Restrict to one shard's slice of the plan when asked. Everything
    // else — header, record shape, chaining — is unchanged, so a shard
    // store is just a normal store whose records happen to be one
    // contiguous plan range.
    let shard_range = match &opts.shard {
        Some(sel) => {
            sel.validate(plan.units.len())?;
            sel.range(plan.units.len())
        }
        None => 0..plan.units.len(),
    };
    let loaded = store.load_for(&plan, shard_range.clone())?;
    if opts.fresh && !loaded.is_empty() {
        return Err(CampaignError::StoreExists(
            store.path().display().to_string(),
        ));
    }
    let slice = &plan.units[shard_range];
    let completed = loaded.completed_hashes();
    let pending: Vec<&PlannedUnit> = slice
        .iter()
        .filter(|u| !completed.contains(u.hash.as_str()))
        .collect();
    if loaded.sealed && !pending.is_empty() {
        return Err(CampaignError::CorruptStore(format!(
            "{}: sealed store is missing {} planned units",
            store.path().display(),
            pending.len()
        )));
    }
    let skipped = slice.len() - pending.len();
    let mut budget = opts.max_units.unwrap_or(pending.len()).min(pending.len());
    // A poison unit caps the budget at its own position: everything
    // before it executes and syncs, then the process dies on it.
    let poisoned = opts.poison.as_deref().and_then(|hash| {
        let at = pending[..budget].iter().position(|u| u.hash == hash)?;
        budget = at;
        Some(hash)
    });

    let mut appender = store.appender(&loaded)?;
    appender.set_fault(opts.fault);
    if loaded.is_empty() {
        appender.append_header(StoreHeader {
            name: plan.name.clone(),
            spec_hash: plan.spec_hash.clone(),
            planned_units: plan.units.len(),
        })?;
    }
    // Out-of-band telemetry: the process registry always counts; the
    // events ledger (when enabled) additionally records per-unit and
    // per-wave observations. Nothing here touches the store appender's
    // bytes.
    let obs = dynring_obs::global();
    let mut ledger = match &opts.events {
        Some(path) => {
            let mut app = EventLedger::new(path).appender()?;
            app.append(Event::RunStart {
                schema: EVENTS_SCHEMA.into(),
                name: plan.name.clone(),
                spec_hash: plan.spec_hash.clone(),
                planned: slice.len(),
                skipped,
            })?;
            Some(app)
        }
        None => None,
    };
    // Waves bound interruption loss; the wave size only shapes latency,
    // never bytes (records are appended in plan order either way). Each
    // wave is fsynced, so a power cut loses at most one wave.
    let workers = opts.workers.max(1);
    let wave_size = (workers * 4).max(8);
    let mut executed = 0usize;
    for wave in pending[..budget].chunks(wave_size) {
        let wave_start = Instant::now();
        let slow = opts.slow_unit.as_ref();
        let results = par_map(wave, workers, |planned| {
            let unit_start = Instant::now();
            // The injected delay counts as unit wall time: the whole
            // point of `slow-unit` is a unit that *measures* slow.
            if let Some((hash, ms)) = slow {
                if planned.hash == *hash {
                    std::thread::sleep(Duration::from_millis(*ms));
                }
            }
            (run_unit(planned, route_unit(&planned.unit)), unit_start.elapsed())
        });
        for (result, wall) in results {
            let execution = result?;
            observe_unit(obs, ledger.as_mut(), &execution, wall)?;
            appender.append_record(execution.record)?;
            executed += 1;
        }
        appender.sync()?;
        let wave_us = u64::try_from(wave_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        obs.counter(names::CAMPAIGN_WAVES).inc();
        obs.histogram(names::CAMPAIGN_WAVE_WALL_US).record(wave_us);
        if let Some(app) = ledger.as_mut() {
            app.append(Event::Wave { units: wave.len(), wall_us: wave_us })?;
            app.sync()?;
        }
    }
    if let Some(hash) = poisoned {
        return Err(CampaignError::InjectedFault(format!(
            "poison unit {hash} reached after {executed} units"
        )));
    }
    // Seal on completion. A complete-but-unsealed store (a run
    // interrupted between its last record and the seal) gets sealed by
    // the resume that finds it complete; a sealed resume is a pure no-op.
    if executed == pending.len() && !loaded.sealed {
        appender.seal()?;
        appender.sync()?;
    }
    if let Some(app) = ledger.as_mut() {
        app.append(Event::RunEnd { executed, pending: pending.len() - executed })?;
        app.sync()?;
    }
    Ok(RunOutcome {
        planned: slice.len(),
        skipped,
        executed,
        pending: pending.len() - executed,
    })
}

/// Records one executed unit into the process registry and (when
/// enabled) the events ledger. Strictly observational: the record is
/// appended to the store unchanged afterwards.
fn observe_unit(
    obs: &dynring_obs::Registry,
    ledger: Option<&mut LedgerAppender>,
    execution: &UnitExecution,
    wall: Duration,
) -> Result<(), CampaignError> {
    let record = &execution.record;
    let unit = &record.unit;
    let route = route_unit(unit);
    let route_name = route.name();
    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    let uncovered = record.result.replicas.saturating_sub(record.result.covered) as u64;
    let replica_rounds = record.result.total_cover_time + uncovered * unit.horizon;
    obs.counter(&labeled(names::CAMPAIGN_UNITS, &[("route", route_name)])).inc();
    obs.counter(&labeled(names::CAMPAIGN_REPLICA_ROUNDS, &[("route", route_name)]))
        .add(replica_rounds);
    obs.histogram(&labeled(names::CAMPAIGN_UNIT_WALL_US, &[("route", route_name)]))
        .record(wall_us);
    let arity = route.arity().map_or(0, |a| a.lanes() as u64);
    if route.is_batch() {
        obs.counter(&labeled(
            names::CAMPAIGN_BATCH_ARITY_UNITS,
            &[("arity", &arity.to_string())],
        ))
        .inc();
        // The batch-eligible dynamics (pure Bernoulli banks) all
        // support the sparse gather, so the engine's size cutover alone
        // decides the fill mode (a ring has as many edges as nodes).
        let mode = if dynring_engine::sparse_fill_default(unit.robots, unit.ring_size) {
            "sparse"
        } else {
            "full"
        };
        obs.counter(&labeled(names::CAMPAIGN_SPARSE_GATHER_UNITS, &[("mode", mode)])).inc();
    }
    if execution.cot_violations > 0 {
        obs.counter(&labeled(names::CAMPAIGN_COT_VIOLATIONS, &[("dynamics", unit.dynamics.name())]))
            .add(execution.cot_violations as u64);
    }
    if let Some(app) = ledger {
        app.append(Event::Unit {
            hash: record.hash.clone(),
            index: record.index,
            algorithm: unit.algorithm.name().into(),
            dynamics: unit.dynamics.name().into(),
            scheduler: unit.scheduler.name().into(),
            route: record.route.clone(),
            arity,
            replicas: record.result.replicas,
            covered: record.result.covered,
            replica_rounds,
            wall_us,
        })?;
    }
    Ok(())
}

/// Loads a store bound to `spec`'s plan ([`ResultStore::load_for`]) and
/// folds it into the report.
///
/// # Errors
///
/// See [`run_campaign`] (planning and store errors; nothing is executed).
pub fn load_report(
    spec: &CampaignSpec,
    store: &ResultStore,
) -> Result<crate::CampaignReport, CampaignError> {
    let plan = spec.plan()?;
    let loaded = store.load_for(&plan, 0..plan.units.len())?;
    let mut report = crate::aggregate::aggregate(&plan, &loaded.records);
    report.torn_tail = loaded.torn_tail;
    report.torn_bytes = loaded.torn_bytes;
    report.sealed = loaded.sealed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlacementAxis, UnitScheduler};
    use dynring_analysis::{AlgorithmChoice, DynamicsChoice};

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "runner".into(),
            ring_sizes: vec![4, 5],
            robots: vec![1, 2],
            placements: vec![PlacementAxis::EvenlySpaced],
            algorithms: vec![AlgorithmChoice::Pef3Plus],
            dynamics: vec![DynamicsChoice::Bernoulli { p: 0.6 }, DynamicsChoice::Static],
            schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync],
            seeds: vec![1, 2],
            horizon: 250,
            replicas: 3,
        }
    }

    fn temp(name: &str) -> ResultStore {
        let path = std::env::temp_dir().join(format!("dynring_runner_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        ResultStore::new(path)
    }

    fn cleanup(store: &ResultStore) {
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn run_interrupt_resume_is_byte_identical_to_one_shot() {
        let spec = spec();
        let total = spec.plan().expect("valid").units.len();
        assert_eq!(total, 32);

        let oneshot = temp("oneshot");
        let outcome = run_campaign(&spec, &oneshot, &RunOptions::default()).expect("runs");
        assert!(outcome.is_complete());
        assert_eq!(outcome.executed, total);

        let resumed = temp("resumed");
        let partial = run_campaign(
            &spec,
            &resumed,
            &RunOptions { max_units: Some(10), ..RunOptions::default() },
        )
        .expect("runs");
        assert_eq!(partial.executed, 10);
        assert_eq!(partial.pending, total - 10);
        let rest = run_campaign(
            &spec,
            &resumed,
            &RunOptions { fresh: false, ..RunOptions::default() },
        )
        .expect("resumes");
        assert_eq!(rest.skipped, 10);
        assert!(rest.is_complete());

        let a = std::fs::read(oneshot.path()).expect("read");
        let b = std::fs::read(resumed.path()).expect("read");
        assert_eq!(a, b, "resume must reproduce the uninterrupted store");
        cleanup(&oneshot);
        cleanup(&resumed);
    }

    #[test]
    fn parallel_and_serial_stores_are_byte_identical() {
        let spec = spec();
        let serial = temp("serial");
        run_campaign(
            &spec,
            &serial,
            &RunOptions { workers: 1, ..RunOptions::default() },
        )
        .expect("runs");
        for workers in [2usize, 4, 8] {
            let parallel = temp(&format!("parallel{workers}"));
            run_campaign(
                &spec,
                &parallel,
                &RunOptions { workers, ..RunOptions::default() },
            )
            .expect("runs");
            let a = std::fs::read(serial.path()).expect("read");
            let b = std::fs::read(parallel.path()).expect("read");
            assert_eq!(a, b, "workers = {workers}");
            cleanup(&parallel);
        }
        cleanup(&serial);
    }

    #[test]
    fn finished_campaigns_resume_as_a_no_op() {
        let spec = spec();
        let store = temp("noop");
        run_campaign(&spec, &store, &RunOptions::default()).expect("runs");
        let before = std::fs::read(store.path()).expect("read");
        let again = run_campaign(
            &spec,
            &store,
            &RunOptions { fresh: false, ..RunOptions::default() },
        )
        .expect("resumes");
        assert_eq!(again.executed, 0);
        assert_eq!(again.skipped, again.planned);
        assert!(again.is_complete());
        let after = std::fs::read(store.path()).expect("read");
        assert_eq!(before, after, "a finished campaign must be a no-op");
        cleanup(&store);
    }

    #[test]
    fn fresh_runs_refuse_existing_stores_and_resume_accepts_them() {
        let spec = spec();
        let store = temp("refuse");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(1), ..RunOptions::default() },
        )
        .expect("runs");
        assert!(matches!(
            run_campaign(&spec, &store, &RunOptions::default()),
            Err(CampaignError::StoreExists(_))
        ));
        cleanup(&store);
    }

    #[test]
    fn stores_are_bound_to_their_spec() {
        let spec = spec();
        let store = temp("bound");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(1), ..RunOptions::default() },
        )
        .expect("runs");
        let mut other = spec.clone();
        other.horizon += 1;
        assert!(matches!(
            run_campaign(
                &other,
                &store,
                &RunOptions { fresh: false, ..RunOptions::default() }
            ),
            Err(CampaignError::SpecMismatch { .. })
        ));
        assert!(matches!(
            load_report(&other, &store),
            Err(CampaignError::SpecMismatch { .. })
        ));
        cleanup(&store);
    }

    #[test]
    fn report_tracks_progress_across_resume() {
        let spec = spec();
        let store = temp("report");
        run_campaign(
            &spec,
            &store,
            &RunOptions { max_units: Some(5), ..RunOptions::default() },
        )
        .expect("runs");
        let partial = load_report(&spec, &store).expect("report");
        assert_eq!(partial.completed_units, 5);
        assert!(!partial.is_complete());
        run_campaign(
            &spec,
            &store,
            &RunOptions { fresh: false, ..RunOptions::default() },
        )
        .expect("resumes");
        let full = load_report(&spec, &store).expect("report");
        assert!(full.is_complete());
        assert!(full.batch_units > 0, "bernoulli×sync units must batch-route");
        assert!(full.serial_units > 0);
        cleanup(&store);
    }
}
