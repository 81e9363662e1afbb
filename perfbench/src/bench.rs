//! The benchmark's phases: set-up, the timed write and read sides, the
//! correctness gate, and the traced per-layer breakdown.
//!
//! Every call into the program goes through the public API of
//! `dynring-campaign`; every timing is taken here, around those calls.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dynring_analysis::parallel::{available_workers, par_map};
use dynring_campaign::{
    aggregate, certify, execute_unit, load_report, merge_stores, route_unit, run_campaign,
    CampaignError, CampaignPlan, CampaignSpec, CertifyOptions, Event, EventLedger, ResultStore,
    RunOptions, ShardSel, UnitRecord, EVENTS_SCHEMA,
};
use dynring_obs::names;

use crate::affinity::CpuHopper;
use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, route_class, RouteClass, Workload};

/// Share of a round spent on its write cycle; the read and level-2
/// passes split the rest.
const WRITE_SHARE: f64 = 0.6;
/// Minimum write cycles per run, whatever the budget.
const MIN_CYCLES: usize = 3;
/// Seed of the certify level-2 sample (fixed, so every run re-executes
/// the same units of the same store).
const L2_SEED: u64 = 0xCE47;

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: &'static Workload,
    /// Workload seed: the only input to the spec generator.
    pub seed: u64,
    /// Measurement budget of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// The result line of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// A failed operation or check; the run stops at the first one.
#[derive(Debug)]
pub struct Failure(pub String);

type Res<T> = Result<T, Failure>;

/// Counts operations and checks; the first failure ends the run.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn op<T>(&mut self, what: &str, r: Result<T, CampaignError>) -> Res<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            Failure(format!("{what}: {e}"))
        })
    }

    fn io<T>(&mut self, what: &str, r: std::io::Result<T>) -> Res<T> {
        self.op(what, r.map_err(CampaignError::from))
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> Res<()> {
        self.attempted += 1;
        if ok {
            Ok(())
        } else {
            self.failed += 1;
            Err(Failure(what()))
        }
    }
}

/// One spec of the workload, planned, with the shard count it is
/// written as.
struct Job {
    spec: CampaignSpec,
    plan: CampaignPlan,
    shards: usize,
}

/// Registry counters read around each `run_campaign` call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    units: u64,
    waves: u64,
    fsyncs: u64,
    bytes: u64,
}

impl Counters {
    fn read() -> Self {
        let snap = dynring_obs::global().snapshot();
        let sum = |base: &str| -> u64 {
            snap.metrics
                .iter()
                .filter(|m| m.name == base || m.name.starts_with(&format!("{base}{{")))
                .map(|m| match m.value {
                    dynring_obs::MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        };
        Counters {
            units: sum(names::CAMPAIGN_UNITS),
            waves: sum(names::CAMPAIGN_WAVES),
            fsyncs: sum(names::STORE_FSYNCS),
            bytes: sum(names::STORE_BYTES_APPENDED),
        }
    }

    fn delta(self, before: Counters) -> Counters {
        Counters {
            units: self.units - before.units,
            waves: self.waves - before.waves,
            fsyncs: self.fsyncs - before.fsyncs,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// One `run_campaign` call of a write cycle.
struct Written {
    job: usize,
    store: PathBuf,
    ledger: Option<PathBuf>,
    wall: Duration,
    executed: usize,
    counters: Counters,
}

/// A full write cycle: every job, every shard, in order.
struct Cycle {
    runs: Vec<Written>,
}

impl Cycle {
    fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    fn executed(&self) -> usize {
        self.runs.iter().map(|r| r.executed).sum()
    }

    fn shard_stores(&self, job: usize) -> Vec<ResultStore> {
        self.runs
            .iter()
            .filter(|r| r.job == job)
            .map(|r| ResultStore::new(&r.store))
            .collect()
    }

    fn disk_bytes(&self) -> u64 {
        self.runs
            .iter()
            .flat_map(|r| std::iter::once(&r.store).chain(r.ledger.as_ref()))
            .map(|p| file_len(p))
            .sum()
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Useful replica-rounds of one record: the definition behind
/// `campaign_replica_rounds_total` (cover times, plus the full horizon
/// for every replica that did not cover).
fn useful_rr(record: &UnitRecord) -> u64 {
    let uncovered = record.result.replicas.saturating_sub(record.result.covered) as u64;
    record.result.total_cover_time + uncovered * record.unit.horizon
}

/// Replica-rounds the batch engine steps for one record: every lane of
/// every lockstep group runs until the group's last lane covers, or to
/// the horizon. Exact for units of one group; for several groups the
/// unit's maximum stands in for each group's.
fn executed_rr(record: &UnitRecord) -> u64 {
    let Some(arity) = route_unit(&record.unit).arity() else {
        return 0;
    };
    let lanes = arity.lanes();
    let groups = record.result.replicas.div_ceil(lanes).max(1);
    let rounds = if record.result.covered == record.result.replicas {
        record.result.max_cover_time.unwrap_or(0)
    } else {
        record.unit.horizon
    };
    (groups * lanes) as u64 * rounds
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The benchmark run: owns the work directory, the gate and the tracer.
struct Bench {
    args: Args,
    workers: usize,
    dir: PathBuf,
    gate: Gate,
    tracer: Tracer,
    off: Tracer,
    hopper: CpuHopper,
}

impl Bench {
    /// Generates and plans the workload's specs.
    fn plan_jobs(&mut self, parent: Option<SpanId>) -> Res<(Vec<Job>, Duration)> {
        let (specs, _) = self.tracer.time("spec.generate", parent, || {
            workloads::specs(self.args.workload, self.args.seed)
        });
        let mut jobs = Vec::new();
        let mut plan_time = Duration::ZERO;
        for spec in specs {
            let (plan, d) = self.tracer.time("spec.plan", parent, || spec.plan());
            plan_time += d;
            let plan = self.gate.op("plan", plan)?;
            jobs.push(Job {
                spec,
                plan,
                shards: self.args.workload.shards,
            });
        }
        Ok((jobs, plan_time))
    }

    /// One timed set-up repetition (generation and plan), pushed onto
    /// `samples`. It first pins this thread to the next CPU in turn, so
    /// the set-up and the single-threaded pass that follows it run there.
    fn setup_once(&mut self, samples: &mut Vec<f64>) -> Res<Vec<Job>> {
        self.hopper.pin_next();
        let t = Instant::now();
        let jobs = self.plan_jobs(None)?.0;
        samples.push(t.elapsed().as_secs_f64());
        Ok(jobs)
    }

    /// Runs every job (every shard of it) into fresh stores under `dir`.
    fn write_cycle(
        &mut self,
        jobs: &[Job],
        dir: &Path,
        ledger: bool,
        traced: bool,
        parent: Option<SpanId>,
    ) -> Res<Cycle> {
        // Worker threads inherit this thread's mask: let them use every
        // CPU.
        self.hopper.release();
        let r = std::fs::create_dir_all(dir);
        self.gate.io("create cycle dir", r)?;
        let tracer = if traced { &self.tracer } else { &self.off };
        let mut runs = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            for s in 0..job.shards {
                let store = dir.join(format!("job{j}-shard{s}.jsonl"));
                let ledger_path = ledger.then(|| dir.join(format!("job{j}-shard{s}.events.jsonl")));
                let opts = RunOptions {
                    workers: self.workers,
                    shard: (job.shards > 1).then_some(ShardSel::Balanced {
                        index: s,
                        count: job.shards,
                    }),
                    events: ledger_path.clone(),
                    ..RunOptions::default()
                };
                let before = Counters::read();
                let (res, wall) = tracer.time("runner.run_campaign", parent, || {
                    run_campaign(&job.spec, &ResultStore::new(&store), &opts)
                });
                let counters = Counters::read().delta(before);
                let outcome = self.gate.op("run_campaign", res)?;
                self.gate.check(
                    outcome.is_complete() && outcome.executed == outcome.planned,
                    || {
                        format!(
                            "campaign {} left {} of {} units pending",
                            job.plan.name, outcome.pending, outcome.planned
                        )
                    },
                )?;
                runs.push(Written {
                    job: j,
                    store,
                    ledger: ledger_path,
                    wall,
                    executed: outcome.executed,
                    counters,
                });
            }
        }
        Ok(Cycle { runs })
    }

    /// Byte-compares every store of `cycle` against the reference cycle.
    fn check_identical(&mut self, cycle: &Cycle, reference: &Cycle) -> Res<()> {
        for (a, b) in cycle.runs.iter().zip(&reference.runs) {
            let (x, y) = (std::fs::read(&a.store), std::fs::read(&b.store));
            let x = self.gate.io("read store", x)?;
            let y = self.gate.io("read store", y)?;
            self.gate.check(x == y, || {
                format!(
                    "store {} differs from {} of the same seed",
                    a.store.display(),
                    b.store.display()
                )
            })?;
        }
        Ok(())
    }

    /// Certifies every complete (single-shard) store of a cycle at level 1.
    fn certify_stores(&mut self, jobs: &[Job], cycle: &Cycle) -> Res<()> {
        for run in cycle.runs.iter().filter(|r| jobs[r.job].shards == 1) {
            let opts = CertifyOptions {
                level: 1,
                ..CertifyOptions::default()
            };
            let verdict = certify(&jobs[run.job].spec, &ResultStore::new(&run.store), &opts);
            let verdict = self.gate.op("certify L1", verdict)?;
            self.gate.check(verdict.pass, || {
                format!(
                    "certify L1 failed on {}: {:?}",
                    run.store.display(),
                    verdict.failures.first()
                )
            })?;
        }
        Ok(())
    }

    /// Useful replica-rounds of every record a cycle stored.
    fn cycle_useful_rr(&mut self, cycle: &Cycle) -> Res<u64> {
        let mut total = 0;
        for run in &cycle.runs {
            let loaded = self
                .gate
                .op("load store", ResultStore::new(&run.store).load())?;
            total += loaded.records.iter().map(useful_rr).sum::<u64>();
        }
        Ok(total)
    }

    /// One read pass: merge each job's shard stores into `out_dir`, then
    /// report and certify the merged store at level 1. Traced passes also
    /// time the report's two halves apart: parse+verify, then fold.
    fn read_pass(
        &mut self,
        jobs: &[Job],
        cycle: &Cycle,
        out_dir: &Path,
        traced: bool,
        parent: Option<SpanId>,
    ) -> Res<ReadPass> {
        let r = std::fs::create_dir_all(out_dir);
        self.gate.io("create read dir", r)?;
        let mut t = ReadPass::default();
        for (j, job) in jobs.iter().enumerate() {
            let tracer = if traced { &self.tracer } else { &self.off };
            let shards = cycle.shard_stores(j);
            let merged = ResultStore::new(out_dir.join(format!("merged{j}.jsonl")));
            if merged.path().exists() {
                let r = std::fs::remove_file(merged.path());
                self.gate.io("remove previous merge", r)?;
            }
            let (res, d) = tracer.time("merge.merge_stores", parent, || {
                merge_stores(&job.spec, &shards, &merged)
            });
            t.merge += d;
            let m = self.gate.op("merge_stores", res)?;
            self.gate.check(
                m.sealed && m.missing == 0 && m.merged == job.plan.units.len(),
                || {
                    format!(
                        "merge of {} kept {} of {} units",
                        job.plan.name,
                        m.merged,
                        job.plan.units.len()
                    )
                },
            )?;
            t.bytes += file_len(merged.path());

            let (res, d) = tracer.time("runner.load_report", parent, || {
                load_report(&job.spec, &merged)
            });
            t.report += d;
            let report = self.gate.op("load_report", res)?;
            self.gate.check(
                report.is_complete() && report.completed_units == job.plan.units.len(),
                || format!("report of {} is incomplete", job.plan.name),
            )?;

            let l1 = CertifyOptions {
                level: 1,
                ..CertifyOptions::default()
            };
            let (res, d) = tracer.time("certify.l1", parent, || certify(&job.spec, &merged, &l1));
            t.l1 += d;
            let v = self.gate.op("certify L1", res)?;
            self.gate.check(v.pass, || {
                format!("certify L1 failed: {:?}", v.failures.first())
            })?;

            if traced {
                let (loaded, d) = tracer.time("store.load", parent, || merged.load());
                t.load += d;
                let loaded = self.gate.op("load", loaded)?;
                let (_, d) = tracer.time("aggregate.aggregate", parent, || {
                    aggregate(&job.plan, &loaded.records)
                });
                t.fold += d;
            }

            // A complete single store merges to itself; sharded inputs
            // must merge to the same bytes on every pass.
            let reference = if job.shards == 1 {
                shards[0].path().to_path_buf()
            } else {
                self.dir
                    .join("merged-reference")
                    .join(format!("merged{j}.jsonl"))
            };
            if !reference.exists() {
                let r =
                    std::fs::create_dir_all(reference.parent().expect("reference has a parent"))
                        .and_then(|()| std::fs::copy(merged.path(), &reference).map(|_| ()));
                self.gate.io("keep merged reference", r)?;
            }
            let (x, y) = (std::fs::read(merged.path()), std::fs::read(&reference));
            let x = self.gate.io("read merged", x)?;
            let y = self.gate.io("read reference", y)?;
            self.gate.check(x == y, || {
                format!(
                    "merged store {} differs from {}",
                    merged.path().display(),
                    reference.display()
                )
            })?;
        }
        Ok(t)
    }

    /// Certifies every merged store of the last read pass at level 2 on
    /// the workload's fixed sample; returns `(units re-executed, time)`.
    fn l2_pass(
        &mut self,
        jobs: &[Job],
        out_dir: &Path,
        traced: bool,
        parent: Option<SpanId>,
    ) -> Res<(usize, Duration)> {
        let mut replayed = 0;
        let mut time = Duration::ZERO;
        for (j, job) in jobs.iter().enumerate() {
            let tracer = if traced { &self.tracer } else { &self.off };
            let merged = ResultStore::new(out_dir.join(format!("merged{j}.jsonl")));
            let l2 = CertifyOptions {
                level: 2,
                sample: self.args.workload.l2_sample,
                seed: L2_SEED,
            };
            let (res, d) = tracer.time("certify.l2", parent, || certify(&job.spec, &merged, &l2));
            time += d;
            let v = self.gate.op("certify L2", res)?;
            self.gate.check(v.pass && v.replayed > 0, || {
                format!("certify L2 failed: {:?}", v.failures.first())
            })?;
            replayed += v.replayed;
        }
        Ok((replayed, time))
    }
}

/// Durations and sizes of read passes, summed over jobs (and over the
/// passes of a run).
#[derive(Debug, Default, Clone, Copy)]
struct ReadPass {
    merge: Duration,
    report: Duration,
    l1: Duration,
    load: Duration,
    fold: Duration,
    bytes: u64,
}

impl ReadPass {
    fn add(&mut self, other: &ReadPass) {
        self.merge += other.merge;
        self.report += other.report;
        self.l1 += other.l1;
        self.load += other.load;
        self.fold += other.fold;
        self.bytes += other.bytes;
    }
}

/// Write-side totals over the cycles of a run.
#[derive(Debug, Default, Clone, Copy)]
struct WriteTotals {
    cycles: usize,
    units: u64,
    useful_rr: u64,
    disk_bytes: u64,
    wall_s: f64,
}

impl WriteTotals {
    /// Adds one cycle of `useful` replica-rounds; returns its wall time.
    fn add(&mut self, cycle: &Cycle, useful: u64) -> f64 {
        let wall = cycle.wall_s();
        let units = cycle.executed() as u64;
        eprintln!(
            "perfbench: write cycle {wall:.3} s, {:.1} units/s",
            units as f64 / wall
        );
        self.cycles += 1;
        self.units += units;
        self.useful_rr += useful;
        self.disk_bytes += cycle.disk_bytes();
        self.wall_s += wall;
        wall
    }
}

/// Runs one invocation. Errors only when the work directory cannot be
/// prepared; failed operations and checks are reported in the outcome.
///
/// # Errors
///
/// I/O errors preparing or removing the work directory.
pub fn run(args: Args, work_root: &Path) -> std::io::Result<Outcome> {
    let dir = work_root.join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let mut bench = Bench {
        args,
        workers: available_workers(),
        dir: dir.clone(),
        gate: Gate::default(),
        tracer: Tracer::new(args.trace),
        off: Tracer::new(false),
        hopper: CpuHopper::new(),
    };
    let result = if args.trace {
        bench.traced()
    } else {
        bench.timed()
    };
    if args.trace {
        let traces = work_root.join("traces");
        std::fs::create_dir_all(&traces)?;
        let path = traces.join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name, args.seed
        ));
        bench.tracer.write_jsonl(&path)?;
        eprintln!(
            "perfbench: {} spans written to {}",
            bench.tracer.len(),
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir)?;
    let (correct, metrics) = match result {
        Ok(metrics) => (bench.gate.failed == 0, metrics),
        Err(Failure(msg)) => {
            eprintln!("perfbench: FAIL {msg}");
            (false, Vec::new())
        }
    };
    Ok(Outcome {
        correct,
        attempted: bench.gate.attempted,
        failed: bench.gate.failed,
        metrics,
    })
}

impl Bench {
    /// The timed run: every end-to-end metric, tracing off.
    ///
    /// A warm-up round comes first and is not timed: it writes the
    /// reference cycle (certified at level 1), the reference merge and
    /// one level-2 pass, so lazy set-up and the page cache are settled
    /// before timing starts. Then rounds run until `--seconds` have
    /// passed since the start; a round is not begun when the previous
    /// one would no longer fit. Each round sets up, runs one write cycle,
    /// then read passes (merge, report, certify L1) and level-2 passes
    /// for the read side's share of that cycle's wall time, half each,
    /// with one more set-up repetition before every pass. Interleaving
    /// spreads every metric's samples over the whole run, so a drift of
    /// the machine's speed falls on all of them alike. `setup_s` is the
    /// median repetition; every rate is the run's total work over the
    /// total time of its calls, which moves smoothly when the machine
    /// flips between a fast and a slow state, where a median jumps
    /// between the two.
    fn timed(&mut self) -> Res<Vec<(&'static str, f64)>> {
        let wl = self.args.workload;
        let budget = Duration::from_secs_f64(self.args.seconds);
        let start = Instant::now();
        let read_dir = self.dir.join("read");

        let mut jobs = self.plan_jobs(None)?.0;
        let reference =
            self.write_cycle(&jobs, &self.dir.join("reference"), wl.ledger, false, None)?;
        self.certify_stores(&jobs, &reference)?;
        let useful = self.cycle_useful_rr(&reference)?;
        self.read_pass(&jobs, &reference, &read_dir, false, None)?;
        self.l2_pass(&jobs, &read_dir, false, None)?;

        let mut setup = Vec::new();
        let (mut writes, mut reads) = (WriteTotals::default(), ReadPass::default());
        let (mut replayed, mut l2_time) = (0, Duration::ZERO);
        let mut round = Duration::ZERO;
        while writes.cycles < MIN_CYCLES || start.elapsed() + round < budget {
            let round_start = Instant::now();
            jobs = self.setup_once(&mut setup)?;
            let dir = self.dir.join(format!("cycle{}", writes.cycles));
            let cycle = self.write_cycle(&jobs, &dir, wl.ledger, false, None)?;
            let wall = writes.add(&cycle, useful);
            self.check_identical(&cycle, &reference)?;
            let r = std::fs::remove_dir_all(&dir);
            self.gate.io("remove cycle dir", r)?;
            let quota = wall * (1.0 - WRITE_SHARE) / WRITE_SHARE / 2.0;
            let (t, before) = (Instant::now(), reads.bytes);
            while reads.bytes == before || t.elapsed().as_secs_f64() < quota {
                self.setup_once(&mut setup)?;
                reads.add(&self.read_pass(&jobs, &reference, &read_dir, false, None)?);
            }
            let (t, before) = (Instant::now(), replayed);
            while replayed == before || t.elapsed().as_secs_f64() < quota {
                self.setup_once(&mut setup)?;
                let (n, d) = self.l2_pass(&jobs, &read_dir, false, None)?;
                replayed += n;
                l2_time += d;
            }
            round = round_start.elapsed();
        }

        let rss = peak_rss_mb();
        self.gate.check(rss.is_some(), || {
            "peak RSS unavailable (/proc/self/status)".into()
        })?;
        let mb_per_s = |d: Duration| reads.bytes as f64 / 1e6 / d.as_secs_f64();
        let ok = (self.gate.attempted - self.gate.failed) as f64 / self.gate.attempted as f64;
        Ok(vec![
            ("setup_s", median(&setup)),
            ("units_per_s", writes.units as f64 / writes.wall_s),
            (
                "replica_rounds_per_s",
                writes.useful_rr as f64 / writes.wall_s,
            ),
            (
                "disk_bytes_per_unit",
                writes.disk_bytes as f64 / writes.units as f64,
            ),
            ("report_mb_per_s", mb_per_s(reads.report)),
            ("certify_l1_mb_per_s", mb_per_s(reads.l1)),
            (
                "certify_l2_units_per_s",
                replayed as f64 / l2_time.as_secs_f64(),
            ),
            ("merge_mb_per_s", mb_per_s(reads.merge)),
            ("peak_rss_mb", rss.unwrap_or(0.0)),
            ("ok_ratio", ok),
        ])
    }
}

/// Per-route figures of the re-execution.
#[derive(Debug, Default)]
struct RouteStats {
    durations: Vec<f64>,
    useful_rr: u64,
    executed_rr: u64,
}

impl RouteStats {
    fn busy_s(&self) -> f64 {
        self.durations.iter().fold(0.0, |a, b| a + b)
    }
}

fn span_name(class: RouteClass) -> &'static str {
    match class {
        RouteClass::Batch => "executor.batch",
        RouteClass::Scenario => "executor.scenario",
        RouteClass::Async => "executor.async",
    }
}

impl Bench {
    /// The traced run: every per-layer metric.
    ///
    /// Runs the write cycle untraced, traced (reading the registry
    /// around each `run_campaign`) and with the ledger toggled; then
    /// re-executes every planned unit through `execute_unit`, re-appends
    /// the stored records to a scratch store and a scratch ledger, and
    /// runs the read cycle with its report split into load and fold.
    fn traced(&mut self) -> Res<Vec<(&'static str, f64)>> {
        let wl = self.args.workload;
        let root = self.tracer.open("bench.traced_run", None);
        let rid = root.id();
        let setup = self.tracer.open("bench.setup", rid);
        let (jobs, plan_time) = self.plan_jobs(setup.id())?;
        self.tracer.close(setup);
        let planned: usize = jobs.iter().map(|j| j.plan.units.len()).sum();

        let plain = self.write_cycle(&jobs, &self.dir.join("plain"), wl.ledger, false, None)?;
        let traced = self.write_cycle(&jobs, &self.dir.join("traced"), wl.ledger, true, rid)?;
        let toggled =
            self.write_cycle(&jobs, &self.dir.join("toggled"), !wl.ledger, false, None)?;
        self.check_identical(&traced, &plain)?;
        self.check_identical(&toggled, &plain)?;
        let wall = traced.wall_s();
        let (with_ledger, without_ledger) = if wl.ledger {
            (&plain, &toggled)
        } else {
            (&toggled, &plain)
        };

        // Registry invariants, whatever the runner's policy.
        let delta = traced
            .runs
            .iter()
            .fold(Counters::default(), |acc, r| Counters {
                units: acc.units + r.counters.units,
                waves: acc.waves + r.counters.waves,
                fsyncs: acc.fsyncs + r.counters.fsyncs,
                bytes: acc.bytes + r.counters.bytes,
            });
        let executed = traced.executed() as u64;
        self.gate.check(delta.units == executed, || {
            format!(
                "campaign_units_total moved by {} for {executed} executed units",
                delta.units
            )
        })?;
        let store_bytes: u64 = traced.runs.iter().map(|r| file_len(&r.store)).sum();
        self.gate.check(delta.bytes == store_bytes, || {
            format!(
                "store_bytes_appended_total moved by {} for {store_bytes} store bytes",
                delta.bytes
            )
        })?;
        let mut ledger_events = 0usize;
        let mut ledger_units = 0usize;
        let mut ledger_bytes = 0u64;
        for run in &with_ledger.runs {
            let path = run.ledger.as_ref().expect("ledger cycle writes ledgers");
            let loaded = self.gate.op("load ledger", EventLedger::new(path).load())?;
            ledger_events += loaded.events.len();
            ledger_units += loaded
                .events
                .iter()
                .filter(|e| matches!(e.event, Event::Unit { .. }))
                .count();
            ledger_bytes += file_len(path);
        }
        self.gate.check(ledger_units == executed as usize, || {
            format!("ledger holds {ledger_units} Unit events for {executed} units")
        })?;

        let (mut routes, unit_us) = self.reexecute(&jobs, &traced, rid)?;
        let writes = self.replay_writes(&jobs, &traced, &unit_us, rid)?;

        // Read side, with the report split into parse+verify and fold.
        let read_dir = self.dir.join("read");
        let read = self.read_pass(&jobs, &traced, &read_dir, true, rid)?;
        let (replayed, l2_time) = self.l2_pass(&jobs, &read_dir, true, rid)?;
        self.tracer.close(root);

        let sum = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b);
        let (appends, syncs) = (&writes.appends, &writes.syncs);
        let store_s = sum(appends) + sum(syncs);
        let events_s = if wl.ledger {
            sum(&writes.event_appends) + sum(&writes.event_syncs)
        } else {
            0.0
        };
        let busy: f64 = routes
            .values()
            .map(RouteStats::busy_s)
            .fold(0.0, |a, b| a + b);
        let workers = self.workers as f64;
        let mut route = |class| routes.remove(&class).unwrap_or_default();
        let (batch, scenario, asynch) = (
            route(RouteClass::Batch),
            route(RouteClass::Scenario),
            route(RouteClass::Async),
        );
        let records = appends.len().max(1) as f64;
        let events = writes.event_appends.len().max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let ms = |v: f64| v * 1e3;
        Ok(vec![
            ("spec.plan_s", plan_time.as_secs_f64()),
            ("spec.units", planned as f64),
            ("executor.batch.busy_s", batch.busy_s()),
            ("executor.batch.units", batch.durations.len() as f64),
            (
                "executor.batch.unit_p50_ms",
                ms(quantile(&batch.durations, 0.5)),
            ),
            (
                "executor.batch.unit_p99_ms",
                ms(quantile(&batch.durations, 0.99)),
            ),
            ("executor.batch.useful_rr", batch.useful_rr as f64),
            ("executor.batch.executed_rr", batch.executed_rr as f64),
            (
                "executor.batch.useful_ratio",
                ratio(batch.useful_rr as f64, batch.executed_rr as f64),
            ),
            ("executor.scenario.busy_s", scenario.busy_s()),
            ("executor.scenario.units", scenario.durations.len() as f64),
            (
                "executor.scenario.unit_p50_ms",
                ms(quantile(&scenario.durations, 0.5)),
            ),
            (
                "executor.scenario.unit_p99_ms",
                ms(quantile(&scenario.durations, 0.99)),
            ),
            ("executor.scenario.useful_rr", scenario.useful_rr as f64),
            ("executor.async.busy_s", asynch.busy_s()),
            ("executor.async.units", asynch.durations.len() as f64),
            (
                "executor.async.unit_p50_us",
                quantile(&asynch.durations, 0.5) * 1e6,
            ),
            ("runner.wall_s", wall),
            ("runner.waves", delta.waves as f64),
            ("store.syncs", delta.fsyncs as f64),
            ("runner.worker_idle_ratio", 1.0 - busy / (workers * wall)),
            ("runner.self_s", wall - busy / workers - store_s - events_s),
            ("store.append_us_per_record", sum(appends) / records * 1e6),
            (
                "store.bytes_per_record",
                writes.record_bytes as f64 / records,
            ),
            ("store.sync_ms_p50", ms(quantile(syncs, 0.5))),
            ("store.sync_ms_p99", ms(quantile(syncs, 0.99))),
            ("store.load_s", read.load.as_secs_f64()),
            (
                "store.load_mb_per_s",
                read.bytes as f64 / 1e6 / read.load.as_secs_f64(),
            ),
            ("events.appends", ledger_events as f64),
            (
                "events.append_us_per_event",
                sum(&writes.event_appends) / events * 1e6,
            ),
            (
                "events.bytes_per_unit",
                ledger_bytes as f64 / executed.max(1) as f64,
            ),
            (
                "events.overhead_ratio",
                with_ledger.wall_s() / without_ledger.wall_s() - 1.0,
            ),
            ("aggregate.fold_s", read.fold.as_secs_f64()),
            (
                "certify.l1_self_s",
                (read.l1.saturating_sub(read.load)).as_secs_f64(),
            ),
            ("certify.l2_s", l2_time.as_secs_f64()),
            ("certify.l2_units", replayed as f64),
            ("merge.s", read.merge.as_secs_f64()),
            ("merge.bytes", read.bytes as f64),
            ("trace.overhead_ratio", wall / plain.wall_s() - 1.0),
        ])
    }
}

/// Each re-executed unit's wall time in µs, keyed by `(job, plan index)`.
type UnitTimes = BTreeMap<(usize, usize), u64>;

/// Timings of the store and ledger writes replayed by the traced run.
#[derive(Debug, Default)]
struct Replay {
    appends: Vec<f64>,
    syncs: Vec<f64>,
    record_bytes: u64,
    event_appends: Vec<f64>,
    event_syncs: Vec<f64>,
}

impl Bench {
    /// Re-executes every planned unit through `execute_unit` on the
    /// run's worker count and checks each record against the stored one.
    /// Returns per-route figures and each unit's wall time in µs, keyed
    /// by `(job, plan index)`.
    fn reexecute(
        &mut self,
        jobs: &[Job],
        traced: &Cycle,
        parent: Option<SpanId>,
    ) -> Res<(BTreeMap<RouteClass, RouteStats>, UnitTimes)> {
        let reexec = self.tracer.open("executor.reexecute", parent);
        let mut routes: BTreeMap<RouteClass, RouteStats> = BTreeMap::new();
        let mut unit_us = BTreeMap::new();
        for (j, job) in jobs.iter().enumerate() {
            let mut stored = BTreeMap::new();
            for run in traced.runs.iter().filter(|r| r.job == j) {
                let loaded = self
                    .gate
                    .op("load store", ResultStore::new(&run.store).load())?;
                stored.extend(loaded.records.into_iter().map(|r| (r.index, r)));
            }
            let results = par_map(&job.plan.units, self.workers, |unit| {
                let start = Instant::now();
                let record = execute_unit(unit);
                (record, start, Instant::now())
            });
            for (unit, (record, start, end)) in job.plan.units.iter().zip(results) {
                let record = self.gate.op("execute_unit", record)?;
                let class = route_class(&unit.unit);
                self.tracer
                    .record_at(span_name(class), reexec.id(), start, end);
                self.gate
                    .check(stored.get(&unit.index) == Some(&record), || {
                        format!(
                            "re-executed unit {} differs from its stored record",
                            unit.hash
                        )
                    })?;
                let d = end - start;
                unit_us.insert(
                    (j, unit.index),
                    u64::try_from(d.as_micros()).unwrap_or(u64::MAX),
                );
                let stats = routes.entry(class).or_default();
                stats.durations.push(d.as_secs_f64());
                stats.useful_rr += useful_rr(&record);
                stats.executed_rr += executed_rr(&record);
            }
        }
        self.tracer.close(reexec);
        Ok((routes, unit_us))
    }

    /// Replays each traced run's writes into scratch files: its records
    /// through `StoreAppender::append_record`, with the registry's fsync
    /// count spread over them, then the matching event stream through
    /// `LedgerAppender::append`, with one `Wave` event and one sync per
    /// registry wave. The scratch store must equal the campaign's.
    fn replay_writes(
        &mut self,
        jobs: &[Job],
        traced: &Cycle,
        unit_us: &UnitTimes,
        parent: Option<SpanId>,
    ) -> Res<Replay> {
        let scratch = self.dir.join("scratch");
        let r = std::fs::create_dir_all(&scratch);
        self.gate.io("create scratch dir", r)?;
        let mut out = Replay::default();
        for (i, run) in traced.runs.iter().enumerate() {
            let loaded = self
                .gate
                .op("load store", ResultStore::new(&run.store).load())?;
            let header = loaded.header.clone().ok_or_else(|| {
                CampaignError::CorruptStore(format!("{} has no header", run.store.display()))
            });
            let header = self.gate.op("store header", header)?;
            let target = ResultStore::new(scratch.join(format!("store{i}.jsonl")));
            let empty = self.gate.op("load scratch", target.load())?;
            let mut app = self.gate.op("open scratch", target.appender(&empty))?;
            self.gate.op("append header", app.append_header(header))?;
            let after_header = file_len(target.path());
            let records = loaded.records.len();
            let inner_syncs = (run.counters.fsyncs as usize).saturating_sub(1);
            let mut done = 0;
            for (n, record) in loaded.records.iter().enumerate() {
                let record = record.clone();
                let (res, d) = self
                    .tracer
                    .time("store.append_record", parent, || app.append_record(record));
                self.gate.op("append_record", res)?;
                out.appends.push(d.as_secs_f64());
                if (n + 1) * inner_syncs / records.max(1) > done {
                    done += 1;
                    let (res, d) = self.tracer.time("store.sync", parent, || app.sync());
                    self.gate.op("sync", res)?;
                    out.syncs.push(d.as_secs_f64());
                }
            }
            out.record_bytes += file_len(target.path()) - after_header;
            self.gate.op("seal", app.seal())?;
            let (res, d) = self.tracer.time("store.sync", parent, || app.sync());
            self.gate.op("sync", res)?;
            out.syncs.push(d.as_secs_f64());
            drop(app);
            let (x, y) = (std::fs::read(target.path()), std::fs::read(&run.store));
            let x = self.gate.io("read scratch", x)?;
            let y = self.gate.io("read store", y)?;
            self.gate.check(x == y, || {
                format!("scratch store {i} differs from the campaign's store")
            })?;

            // `(event, sync after it)`, in the runner's order.
            let per_wave = records
                .div_ceil((run.counters.waves as usize).max(1))
                .max(1);
            let mut events = vec![(
                Event::RunStart {
                    schema: EVENTS_SCHEMA.into(),
                    name: jobs[run.job].plan.name.clone(),
                    spec_hash: jobs[run.job].plan.spec_hash.clone(),
                    planned: records,
                    skipped: 0,
                },
                false,
            )];
            for (n, record) in loaded.records.iter().enumerate() {
                let unit = &record.unit;
                let unit_event = Event::Unit {
                    hash: record.hash.clone(),
                    index: record.index,
                    algorithm: unit.algorithm.name().into(),
                    dynamics: unit.dynamics.name().into(),
                    scheduler: unit.scheduler.name().into(),
                    route: record.route.clone(),
                    arity: route_unit(unit).arity().map_or(0, |a| a.lanes() as u64),
                    replicas: record.result.replicas,
                    covered: record.result.covered,
                    replica_rounds: useful_rr(record),
                    wall_us: unit_us.get(&(run.job, record.index)).copied().unwrap_or(0),
                };
                events.push((unit_event, false));
                if (n + 1) % per_wave == 0 || n + 1 == records {
                    let units = (n % per_wave) + 1;
                    events.push((Event::Wave { units, wall_us: 0 }, true));
                }
            }
            events.push((
                Event::RunEnd {
                    executed: records,
                    pending: 0,
                },
                true,
            ));
            let ledger = EventLedger::new(scratch.join(format!("store{i}.events.jsonl")));
            let mut lapp = self.gate.op("open ledger", ledger.appender())?;
            for (event, sync) in events {
                let (res, d) = self
                    .tracer
                    .time("events.append", parent, || lapp.append(event));
                self.gate.op("ledger append", res)?;
                out.event_appends.push(d.as_secs_f64());
                if sync {
                    let (res, d) = self.tracer.time("events.sync", parent, || lapp.sync());
                    self.gate.op("ledger sync", res)?;
                    out.event_syncs.push(d.as_secs_f64());
                }
            }
        }
        Ok(out)
    }
}
