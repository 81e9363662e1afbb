//! Command-line interface: `dynring table1 | scenario | sweep`.
//!
//! Hand-rolled argument parsing (no CLI dependency): the grammar is small
//! and fixed. See `dynring --help` or [`USAGE`].

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use dynring_analysis::grid::{default_seeds, evaluate_point};
use dynring_analysis::{
    run_on_schedule, run_replicas, run_scenario, run_scenario_capturing, run_table1,
    AlgorithmChoice, DynamicsChoice, MonteCarloConfig, PlacementSpec, Scenario, ScenarioReport,
    SuccessCriteria, Table1Options,
};
use dynring_graph::ScriptedSchedule;

/// The usage string printed by `--help`.
pub const USAGE: &str = "\
dynring — perpetual exploration of highly dynamic rings (ICDCS 2017 repro)

USAGE:
    dynring table1   [--horizon N] [--min-covers C] [--seed S]
    dynring scenario --n N --k K [--algorithm A] [--dynamics D]
                     [--horizon H] [--seed S] [--min-covers C] [--p P]
    dynring capture  --n N --k K --out FILE [scenario flags]
    dynring replay   --file FILE
    dynring sweep-p  [--n N] [--k K] [--horizon H] [--seeds S]
    dynring coverage [--n N] [--k K] [--horizon H] [--seed S]
    dynring montecarlo [--n N] [--k K] [--p P] [--replicas R]
                       [--horizon H] [--seed S] [--algorithm A] [--out FILE]
    dynring campaign run    --spec FILE --store FILE [--workers W] [--max-units N]
                            [--procs P] [--max-retries R] [--backoff-ms B]
                            [--heartbeat-timeout-ms T] [--no-steal]
                            [--steal-after-ms T] [--manifest FILE] [--dir DIR]
                            [--progress] [--json] [--metrics-out FILE]
    dynring campaign resume --spec FILE --store FILE [same flags as run]
    dynring campaign report --spec FILE --store FILE [--out FILE]
    dynring campaign shard  --spec FILE --shards N [--index I] [--dir DIR]
                            [--manifest FILE]
    dynring campaign work   --spec FILE --manifest FILE --index I
                            [--workers W] [--max-units N] [--metrics-out FILE]
    dynring campaign merge  --spec FILE --store OUT (--manifest FILE | STORE…)
                            [--metrics-out FILE]
    dynring campaign status [--manifest FILE] [STORE…] [--json]
    dynring metrics show LEDGER… [--json]
    dynring metrics top  LEDGER… [--limit N] [--json]
    dynring metrics diff LEDGER_A LEDGER_B [--json]
    dynring certify STORE --spec FILE [--level 1|2] [--sample N] [--seed S]
                    [--out FILE]
    dynring bench-report [--out FILE] [--quick] [--check SNAPSHOT]
    dynring --help

Each command accepts only the flags listed for it above; any other flag
(a misspelling, or a flag of another command) is a usage error.
`capture` runs a scenario, records the exact snapshot sequence the
(possibly adaptive) dynamics played, and writes a JSON artifact. `replay`
re-runs the artifact's algorithm on the recorded schedule and verifies the
stored report bit for bit. `coverage` runs the full algorithm portfolio
against the benign dynamics suite in parallel. `montecarlo` runs R
independent Bernoulli replicas of one (n, k, p) point on the 64-lane
lockstep batch engine (batches fan out over all cores) and prints the
cover-time histogram and survival rate; --out writes the summary JSON.
`campaign` drives a declarative experiment campaign (see
docs/CAMPAIGNS.md for the JSON spec format): `run` plans the spec's grid
into content-hashed work units, shards them over all cores (batch-eligible
units ride the 64-lane lockstep engine) and appends one JSONL record per
unit to the store; `resume` continues an interrupted store, skipping
completed units, and reproduces the uninterrupted store byte for byte;
`report` folds the store into grouped survival / cover-time summaries
(a store covering only part of the plan is labelled PARTIAL, and a
mid-plan slice is flagged as an unmerged shard store).
With --procs, `run`/`resume` become a *supervisor*: the plan is split
into P disjoint shard ranges (manifest at <store>.manifest.json, shard
stores under <store>.shards/), each shard runs as an independent
`campaign work` child process, dead or hung workers (heartbeat = shard
store mtime) are restarted with bounded exponential backoff, and on
success the shards are merged into --store — byte-identical to a
single-process run. A shard that exhausts --max-retries is not given up
on: its remaining range is *stolen* — the shard is retired at the
plan-order prefix its store holds and the rest is re-sharded onto fresh
child sub-shards (recorded as manifest generations, fsynced before any
child spawns, announced by a `SHARD-STEAL` line) — so an arbitrarily
killed supervisor resumes the re-sharded topology exactly. Only a shard
that can no longer shrink (a single poisoned unit, typically) is
quarantined with a `SHARD-FAIL … range=X..Y …` line naming exactly the
lost units. --no-steal restores the quarantine-on-exhaustion behaviour;
--steal-after-ms T additionally steals from a straggler still running
T ms after the rest of the fleet settled. Supervisor exit codes are
distinct: 0 = complete, 3 = quarantined-but-partial (the other shards
finished; resume to continue), 1 = spawn/config failure, 2 = usage
error. `shard` writes the manifest (with --index I it also prints that
shard's unit range); `work` runs one shard by manifest index; `merge`
folds shard stores — generation splits included — into one canonical
store, refusing overlapping/foreign/out-of-range/gapped shards with
`MERGE-CONFLICT` diagnostics and sealing only when every planned unit is
present; `status` prints per-store progress (one table row per store,
or JSON with --json; rows carry torn-tail bytes, and with
--manifest FILE they come from the shard manifest with per-shard ranges
and attempt counts).
With --metrics-out FILE, `run`/`resume`/`work`/`merge` additionally
record *out-of-band* telemetry (see docs/OBSERVABILITY.md): per-unit
wall time, route and arity, wave timing, store/merge I/O counters and
supervisor lifecycle events land in an append-only events ledger at
<store>.events.jsonl, and an aggregate metrics snapshot is written to
FILE on exit (Prometheus text format when FILE ends in .prom, pretty
JSON otherwise). Telemetry never changes store bytes: a telemetered
run is byte-identical to a plain one and certifies unchanged. `metrics
show` aggregates one or more ledgers into per-(algorithm × dynamics ×
scheduler × route) unit counts, wall-time quantiles (p50/p90/p99) and
throughput plus a retry/steal/quarantine fault summary; `top` ranks
groups by total wall time; `diff` compares two ledgers group by group.
`certify` verifies a completed store as a replay bundle (see
docs/CERTIFY.md): level 1 re-validates the header, every record's hash
chain, plan membership, ordering and the seal without executing anything;
level 2 additionally re-executes a deterministic sample of units
(--sample, --seed; both engine routes covered) and compares the stored
measurements field by field, printing one `CERTIFY-FAIL` line per
divergence and exiting nonzero; --out writes the JSON verdict.
`bench-report` measures the round engine (quiet vs recording path), the
batch engine vs 64 serial replica runs, the Bernoulli p-sweep and the
parallel sweep layer and writes a BENCH_engine.json performance snapshot;
with --check it additionally compares Bernoulli, batch and static-
flatness throughput against a committed snapshot and fails on a
regression of more than 20% (the CI bench-smoke gate).

ALGORITHMS (for --algorithm):
    pef3+ (default) | pef2 | pef1 | keep | bounce | turn-on-tower |
    alternate | random

DYNAMICS (for --dynamics):
    static | bernoulli (default) | markov | missing-edge | sweep |
    t-interval | blocker | confiner1 | confiner2 | ssync
";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Reproduce Table 1.
    Table1(Table1Options),
    /// Run one scenario and print its report.
    Scenario(Scenario),
    /// Sweep the Bernoulli presence probability.
    SweepPresence {
        /// Ring size.
        n: usize,
        /// Robot count.
        k: usize,
        /// Rounds per run.
        horizon: u64,
        /// Seeds per point.
        seeds: usize,
    },
    /// Run a scenario and write a replayable JSON artifact.
    Capture {
        /// The scenario to run.
        scenario: Scenario,
        /// Output path.
        out: String,
    },
    /// Verify a previously captured artifact.
    Replay {
        /// Artifact path.
        file: String,
    },
    /// Run the portfolio × benign-suite coverage matrix in parallel.
    Coverage {
        /// Ring size.
        n: usize,
        /// Robot count.
        k: usize,
        /// Rounds per run.
        horizon: u64,
        /// Base seed.
        seed: u64,
    },
    /// Run a Monte Carlo replica sweep on the batch engine.
    MonteCarlo {
        /// The sweep configuration.
        config: MonteCarloConfig,
        /// Optional summary JSON output path.
        out: Option<String>,
    },
    /// Drive a declarative experiment campaign.
    Campaign {
        /// Which campaign verb.
        verb: CampaignVerb,
        /// Path of the JSON campaign spec (every verb except `status`).
        spec: Option<String>,
        /// Path of the JSONL result store (canonical/output store for
        /// `merge` and the supervisor).
        store: Option<String>,
        /// Positional store paths (`status STORE…`, `merge … STORE…`).
        stores: Vec<String>,
        /// Worker threads (default: one per core; per child process
        /// under `--procs`).
        workers: Option<usize>,
        /// Stop after this many newly executed units (run/resume/work).
        max_units: Option<usize>,
        /// Optional report JSON output path (report only).
        out: Option<String>,
        /// Shard manifest path (`work`/`merge`; supervisor default:
        /// `<store>.manifest.json`).
        manifest: Option<String>,
        /// Supervisor mode: split the plan into this many shard
        /// processes.
        procs: Option<usize>,
        /// Shard count (`shard`).
        shards: Option<usize>,
        /// Shard index (`work`; optional range printout for `shard`).
        index: Option<usize>,
        /// Shard store directory (`shard`; supervisor default:
        /// `<store>.shards/`).
        dir: Option<String>,
        /// Supervisor: restarts allowed per shard before quarantine.
        max_retries: usize,
        /// Supervisor: base backoff between restarts.
        backoff_ms: u64,
        /// Supervisor: a shard store idle this long is declared hung.
        heartbeat_timeout_ms: u64,
        /// Supervisor: quarantine exhausted shards instead of stealing
        /// their remaining range into sub-shards.
        no_steal: bool,
        /// Supervisor: steal from a shard still running this long after
        /// the rest of the fleet settled.
        steal_after_ms: Option<u64>,
        /// Supervisor: print a per-shard progress table while running.
        progress: bool,
        /// `status`/`--progress`: emit JSON instead of the table.
        json: bool,
        /// Out-of-band telemetry (run/resume/work/merge): write a
        /// metrics snapshot to this path on completion (Prometheus text
        /// when it ends in `.prom`, pretty JSON otherwise) and append
        /// events to `<store>.events.jsonl`. Never changes store bytes.
        metrics_out: Option<String>,
    },
    /// Aggregate campaign events ledgers into metrics summaries.
    Metrics {
        /// Which metrics verb.
        verb: MetricsVerb,
        /// Events ledger paths (`<store>.events.jsonl`).
        ledgers: Vec<String>,
        /// Emit the summary as JSON instead of the table.
        json: bool,
        /// Row cap for `top`.
        limit: usize,
    },
    /// Certify a campaign store as a replay bundle.
    Certify {
        /// Path of the JSONL result store.
        store: String,
        /// Path of the JSON campaign spec.
        spec: String,
        /// Certification level (1 = structural, 2 = sampled re-execution).
        level: u8,
        /// Units to re-execute at level 2.
        sample: usize,
        /// Seed of the level-2 sample.
        seed: u64,
        /// Optional verdict JSON output path.
        out: Option<String>,
    },
    /// Measure the engine and sweep layer, writing a JSON snapshot.
    BenchReport {
        /// Output path for the snapshot.
        out: String,
        /// Shrink workloads for a CI smoke run.
        quick: bool,
        /// Committed snapshot to compare Bernoulli quiet throughput
        /// against; a regression beyond the tolerance fails the command.
        check: Option<String>,
    },
}

/// The JSON artifact written by `capture` and verified by `replay`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The exact snapshot sequence the dynamics played.
    pub schedule: ScriptedSchedule,
    /// The report the original run produced.
    pub report: ScenarioReport,
}

/// The metrics sub-verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsVerb {
    /// Aggregate one or more ledgers into per-group time/throughput
    /// plus a fault summary.
    Show,
    /// Compare two ledgers group by group (A → B wall time and rates).
    Diff,
    /// Rank groups by total wall time, slowest first.
    Top,
}

/// The campaign sub-verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignVerb {
    /// Start a fresh campaign (refuses an existing store).
    Run,
    /// Continue an interrupted store, skipping completed units.
    Resume,
    /// Fold the store into a summary report.
    Report,
    /// Partition the plan into disjoint shard ranges and write the
    /// manifest.
    Shard,
    /// Run one shard (by manifest index) as an independent process.
    Work,
    /// Fold shard stores into one canonical store.
    Merge,
    /// Print per-store progress (completed/total, torn/sealed state).
    Status,
}

impl CampaignVerb {
    /// The `--key value` flags and switches this verb accepts.
    fn flags(self) -> Flags {
        match self {
            CampaignVerb::Run | CampaignVerb::Resume => (
                &[
                    "spec",
                    "store",
                    "workers",
                    "max-units",
                    "procs",
                    "max-retries",
                    "backoff-ms",
                    "heartbeat-timeout-ms",
                    "steal-after-ms",
                    "manifest",
                    "dir",
                    "metrics-out",
                ],
                &["no-steal", "progress", "json"],
            ),
            CampaignVerb::Report => (&["spec", "store", "out"], &[]),
            CampaignVerb::Shard => (&["spec", "shards", "index", "dir", "manifest"], &[]),
            CampaignVerb::Work => {
                (&["spec", "manifest", "index", "workers", "max-units", "metrics-out"], &[])
            }
            CampaignVerb::Merge => (&["spec", "store", "manifest", "metrics-out"], &[]),
            CampaignVerb::Status => (&["manifest"], &["json"]),
        }
    }
}

/// A CLI parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for CliError {}

/// A supervised campaign that finished with quarantined shards: every
/// other shard completed and merged, only the quarantined ranges are
/// missing. `main` maps this to its own exit code
/// ([`EXIT_PARTIAL_CAMPAIGN`]) so scripts can tell "resume me" from a
/// spawn/config failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialCampaign(pub String);

impl fmt::Display for PartialCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for PartialCampaign {}

/// Exit code for [`PartialCampaign`]: quarantined-but-partial. Distinct
/// from 1 (runtime/spawn/config failure) and 2 (usage error).
pub const EXIT_PARTIAL_CAMPAIGN: u8 = 3;

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Positional arguments (switches included, as `--name`) and `--key
/// value` pairs, borrowed from the input.
type SplitArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// The flags of one command: `--key value` flags, then value-less
/// switches.
type Flags = (&'static [&'static str], &'static [&'static str]);

const SCENARIO_FLAGS: Flags =
    (&["n", "k", "algorithm", "dynamics", "horizon", "seed", "min-covers", "p"], &[]);
const CAPTURE_FLAGS: Flags =
    (&["n", "k", "algorithm", "dynamics", "horizon", "seed", "min-covers", "p", "out"], &[]);

/// Splits `args` into positional words and `--key value` pairs, accepting
/// only the flags `command` takes; any other flag is a usage error naming
/// the command.
fn split_flags<'a>(
    args: &'a [String],
    command: &str,
    (values, switches): Flags,
) -> Result<SplitArgs<'a>, CliError> {
    let mut positional = Vec::new();
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        i += 1;
        let Some(key) = arg.strip_prefix("--") else {
            positional.push(arg);
            continue;
        };
        if switches.contains(&key) {
            positional.push(arg);
        } else if values.contains(&key) {
            let value = args
                .get(i)
                .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
            pairs.push((key, value.as_str()));
            i += 1;
        } else {
            return Err(err(format!("unknown flag --{key} for {command}")));
        }
    }
    Ok((positional, pairs))
}

fn lookup<'a>(pairs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn parse_num<T: std::str::FromStr>(pairs: &[(&str, &str)], key: &str, default: T) -> Result<T, CliError> {
    match lookup(pairs, key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| err(format!("invalid value for --{key}: {raw}"))),
    }
}

fn parse_opt_num<T: std::str::FromStr>(
    pairs: &[(&str, &str)],
    key: &str,
) -> Result<Option<T>, CliError> {
    match lookup(pairs, key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| err(format!("invalid value for --{key}: {raw}"))),
    }
}

fn parse_algorithm(name: &str) -> Result<AlgorithmChoice, CliError> {
    Ok(match name {
        "pef3+" | "pef3" => AlgorithmChoice::Pef3Plus,
        "pef2" => AlgorithmChoice::Pef2,
        "pef1" => AlgorithmChoice::Pef1,
        "keep" => AlgorithmChoice::KeepDirection,
        "bounce" => AlgorithmChoice::BounceOnMissingEdge,
        "turn-on-tower" => AlgorithmChoice::AlwaysTurnOnTower,
        "alternate" => AlgorithmChoice::AlternateDirection,
        "random" => AlgorithmChoice::RandomDirection { seed: 0xD1CE },
        other => return Err(err(format!("unknown algorithm: {other}"))),
    })
}

fn parse_dynamics(name: &str, n: usize, horizon: u64, p: f64) -> Result<DynamicsChoice, CliError> {
    Ok(match name {
        "static" => DynamicsChoice::Static,
        "bernoulli" => DynamicsChoice::BernoulliRecurrent { p, bound: 8 },
        "markov" => DynamicsChoice::Markov {
            p_off: 0.15,
            p_on: 0.4,
        },
        "missing-edge" => DynamicsChoice::EventualMissing {
            p,
            bound: 8,
            edge: n / 2,
            from: horizon / 10,
        },
        "sweep" => DynamicsChoice::SweepingOutage { dwell: 3 },
        "t-interval" => DynamicsChoice::TIntervalConnected { stability: 4 },
        "blocker" => DynamicsChoice::PointedBlocker { budget: 4 },
        "confiner1" => DynamicsChoice::SingleConfiner,
        "confiner2" => DynamicsChoice::TwoConfiner { patience: 64 },
        "ssync" => DynamicsChoice::SsyncBlocker,
        other => return Err(err(format!("unknown dynamics: {other}"))),
    })
}

/// The scenario named by the flags of `scenario` and `capture`.
fn parse_scenario(pairs: &[(&str, &str)]) -> Result<Scenario, CliError> {
    let n: usize = parse_num(pairs, "n", 0)?;
    let k: usize = parse_num(pairs, "k", 0)?;
    if n == 0 || k == 0 {
        return Err(err("scenario requires --n and --k"));
    }
    let horizon: u64 = parse_num(pairs, "horizon", 1000)?;
    let p: f64 = parse_num(pairs, "p", 0.5)?;
    let algorithm = parse_algorithm(lookup(pairs, "algorithm").unwrap_or("pef3+"))?;
    let dynamics =
        parse_dynamics(lookup(pairs, "dynamics").unwrap_or("bernoulli"), n, horizon, p)?;
    let placement = if matches!(dynamics, DynamicsChoice::TwoConfiner { .. }) {
        PlacementSpec::Adjacent { count: k, start: 0 }
    } else {
        PlacementSpec::EvenlySpaced { count: k }
    };
    let min_covers: u64 = parse_num(pairs, "min-covers", 3)?;
    Ok(Scenario::new(n, placement, algorithm, dynamics, horizon)
        .with_seed(parse_num(pairs, "seed", 0xDECADEu64)?)
        .with_criteria(SuccessCriteria::covers(min_covers)))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// [`CliError`] with a human-readable message.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    if args.is_empty() || args.iter().any(|a| a == "--help") {
        return Ok(Command::Help);
    }
    let command = args[0].as_str();
    let split = |flags: Flags| split_flags(args, command, flags);
    match command {
        "capture" => {
            let (_, pairs) = split(CAPTURE_FLAGS)?;
            let out = lookup(&pairs, "out")
                .ok_or_else(|| err("capture requires --out FILE"))?
                .to_string();
            Ok(Command::Capture { scenario: parse_scenario(&pairs)?, out })
        }
        "replay" => {
            let (_, pairs) = split((&["file"], &[]))?;
            let file = lookup(&pairs, "file")
                .ok_or_else(|| err("replay requires --file FILE"))?
                .to_string();
            Ok(Command::Replay { file })
        }
        "table1" => {
            let (_, pairs) = split((&["horizon", "min-covers", "seed"], &[]))?;
            let mut opts = Table1Options::default();
            opts.horizon = parse_num(&pairs, "horizon", opts.horizon)?;
            opts.min_covers = parse_num(&pairs, "min-covers", opts.min_covers)?;
            opts.seed = parse_num(&pairs, "seed", opts.seed)?;
            Ok(Command::Table1(opts))
        }
        "scenario" => {
            let (_, pairs) = split(SCENARIO_FLAGS)?;
            Ok(Command::Scenario(parse_scenario(&pairs)?))
        }
        "coverage" => {
            let (_, pairs) = split((&["n", "k", "horizon", "seed"], &[]))?;
            Ok(Command::Coverage {
                n: parse_num(&pairs, "n", 8)?,
                k: parse_num(&pairs, "k", 3)?,
                horizon: parse_num(&pairs, "horizon", 800)?,
                seed: parse_num(&pairs, "seed", 0xC0FFEEu64)?,
            })
        }
        "montecarlo" => {
            let (_, pairs) = split((
                &["n", "k", "p", "replicas", "horizon", "seed", "algorithm", "out"],
                &[],
            ))?;
            let config = MonteCarloConfig {
                ring_size: parse_num(&pairs, "n", 16)?,
                robots: parse_num(&pairs, "k", 3)?,
                presence_probability: parse_num(&pairs, "p", 0.5)?,
                horizon: parse_num(&pairs, "horizon", 2000)?,
                replicas: parse_num(&pairs, "replicas", 256)?,
                seed: parse_num(&pairs, "seed", 0xDECADEu64)?,
                algorithm: parse_algorithm(lookup(&pairs, "algorithm").unwrap_or("pef3+"))?,
            };
            Ok(Command::MonteCarlo {
                config,
                out: lookup(&pairs, "out").map(str::to_string),
            })
        }
        "campaign" => {
            let verb = match args.get(1).map(String::as_str) {
                Some("run") => CampaignVerb::Run,
                Some("resume") => CampaignVerb::Resume,
                Some("report") => CampaignVerb::Report,
                Some("shard") => CampaignVerb::Shard,
                Some("work") => CampaignVerb::Work,
                Some("merge") => CampaignVerb::Merge,
                Some("status") => CampaignVerb::Status,
                Some(other) if !other.starts_with("--") => {
                    return Err(err(format!(
                        "unknown campaign verb: {other} (expected run | resume | \
                         report | shard | work | merge | status)"
                    )))
                }
                _ => {
                    return Err(err(
                        "campaign requires a verb: run | resume | report | shard | \
                         work | merge | status",
                    ))
                }
            };
            let (positional, pairs) =
                split_flags(args, &format!("campaign {}", args[1]), verb.flags())?;
            // Everything positional past the verb (minus value-less
            // flags) is a store path — `status STORE…`, `merge … STORE…`.
            let stores: Vec<String> = positional[2..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(|a| a.to_string())
                .collect();
            let spec = lookup(&pairs, "spec").map(str::to_string);
            if spec.is_none() && verb != CampaignVerb::Status {
                return Err(err("campaign requires --spec FILE"));
            }
            let store = lookup(&pairs, "store").map(str::to_string);
            let needs_store = matches!(
                verb,
                CampaignVerb::Run
                    | CampaignVerb::Resume
                    | CampaignVerb::Report
                    | CampaignVerb::Merge
            );
            if store.is_none() && needs_store {
                return Err(err("campaign requires --store FILE"));
            }
            let manifest = lookup(&pairs, "manifest").map(str::to_string);
            if verb == CampaignVerb::Status && stores.is_empty() && manifest.is_none() {
                return Err(err(
                    "campaign status requires at least one STORE path or --manifest FILE",
                ));
            }
            let procs = parse_opt_num(&pairs, "procs")?;
            if procs == Some(0) {
                return Err(err("--procs must be at least 1"));
            }
            let shards = parse_opt_num(&pairs, "shards")?;
            if verb == CampaignVerb::Shard && shards.is_none() {
                return Err(err("campaign shard requires --shards N"));
            }
            let index = parse_opt_num(&pairs, "index")?;
            if verb == CampaignVerb::Work {
                if manifest.is_none() {
                    return Err(err("campaign work requires --manifest FILE"));
                }
                if index.is_none() {
                    return Err(err("campaign work requires --index I"));
                }
            }
            if verb == CampaignVerb::Merge && manifest.is_none() && stores.is_empty() {
                return Err(err(
                    "campaign merge needs --manifest FILE or shard STORE… paths",
                ));
            }
            Ok(Command::Campaign {
                verb,
                spec,
                store,
                stores,
                workers: parse_opt_num(&pairs, "workers")?,
                max_units: parse_opt_num(&pairs, "max-units")?,
                out: lookup(&pairs, "out").map(str::to_string),
                manifest,
                procs,
                shards,
                index,
                dir: lookup(&pairs, "dir").map(str::to_string),
                max_retries: parse_num(&pairs, "max-retries", 3)?,
                backoff_ms: parse_num(&pairs, "backoff-ms", 250)?,
                heartbeat_timeout_ms: parse_num(&pairs, "heartbeat-timeout-ms", 30_000)?,
                no_steal: positional.contains(&"--no-steal"),
                steal_after_ms: parse_opt_num(&pairs, "steal-after-ms")?,
                progress: positional.contains(&"--progress"),
                json: positional.contains(&"--json"),
                metrics_out: lookup(&pairs, "metrics-out").map(str::to_string),
            })
        }
        "metrics" => {
            let verb = match args.get(1).map(String::as_str) {
                Some("show") => MetricsVerb::Show,
                Some("diff") => MetricsVerb::Diff,
                Some("top") => MetricsVerb::Top,
                Some(other) if !other.starts_with("--") => {
                    return Err(err(format!(
                        "unknown metrics verb: {other} (expected show | diff | top)"
                    )))
                }
                _ => return Err(err("metrics requires a verb: show | diff | top")),
            };
            let values: &'static [&'static str] =
                if verb == MetricsVerb::Top { &["limit"] } else { &[] };
            let (positional, pairs) =
                split_flags(args, &format!("metrics {}", args[1]), (values, &["json"]))?;
            let ledgers: Vec<String> = positional[2..]
                .iter()
                .filter(|a| !a.starts_with("--"))
                .map(|a| a.to_string())
                .collect();
            match verb {
                MetricsVerb::Diff if ledgers.len() != 2 => {
                    return Err(err(
                        "metrics diff needs exactly two ledger paths: LEDGER_A LEDGER_B",
                    ))
                }
                _ if ledgers.is_empty() => {
                    return Err(err(
                        "metrics needs at least one events ledger path \
                         (<store>.events.jsonl)",
                    ))
                }
                _ => {}
            }
            Ok(Command::Metrics {
                verb,
                ledgers,
                json: positional.contains(&"--json"),
                limit: parse_num(&pairs, "limit", 10)?,
            })
        }
        "certify" => {
            let (positional, pairs) =
                split((&["spec", "level", "sample", "seed", "out"], &[]))?;
            let store = positional
                .get(1)
                .ok_or_else(|| err("certify requires a store path: certify STORE --spec FILE"))?
                .to_string();
            let spec = lookup(&pairs, "spec")
                .ok_or_else(|| err("certify requires --spec FILE"))?
                .to_string();
            let level: u8 = parse_num(&pairs, "level", 1)?;
            if !(1..=2).contains(&level) {
                return Err(err(format!("--level must be 1 or 2, not {level}")));
            }
            if level == 1 && (lookup(&pairs, "sample").is_some() || lookup(&pairs, "seed").is_some())
            {
                return Err(err("--sample/--seed are only valid with --level 2"));
            }
            Ok(Command::Certify {
                store,
                spec,
                level,
                sample: parse_num(&pairs, "sample", 8)?,
                seed: parse_num(&pairs, "seed", 0xCE47u64)?,
                out: lookup(&pairs, "out").map(str::to_string),
            })
        }
        "bench-report" => {
            let (positional, pairs) = split((&["out", "check"], &["quick"]))?;
            Ok(Command::BenchReport {
                out: lookup(&pairs, "out").unwrap_or("BENCH_engine.json").to_string(),
                quick: positional.contains(&"--quick"),
                check: lookup(&pairs, "check").map(str::to_string),
            })
        }
        "sweep-p" => {
            let (_, pairs) = split((&["n", "k", "horizon", "seeds"], &[]))?;
            Ok(Command::SweepPresence {
                n: parse_num(&pairs, "n", 10)?,
                k: parse_num(&pairs, "k", 3)?,
                horizon: parse_num(&pairs, "horizon", 1500)?,
                seeds: parse_num(&pairs, "seeds", 5)?,
            })
        }
        other => Err(err(format!("unknown command: {other}"))),
    }
}

/// Reads and parses a campaign spec file.
fn load_spec(path: &str) -> Result<dynring_campaign::CampaignSpec, Box<dyn Error>> {
    let json = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&json)
        .map_err(|e| CliError(format!("cannot parse campaign spec {path}: {e}")))?)
}

/// Appends a merge's `Merge` event to the events ledger beside
/// `store_path` (the `--metrics-out` record of `campaign merge` and of
/// the supervisor's final merge).
fn log_merge(
    store_path: &str,
    outcome: &dynring_campaign::MergeOutcome,
) -> Result<(), Box<dyn Error>> {
    use dynring_campaign::{Event, EventLedger};

    let mut app = EventLedger::for_store(std::path::Path::new(store_path)).appender()?;
    app.append(Event::Merge {
        shards: outcome.shards,
        merged: outcome.merged,
        sealed: outcome.sealed,
    })?;
    app.sync()?;
    Ok(())
}

/// Writes the process-global metrics registry to `path`: Prometheus
/// text exposition when the path ends in `.prom`, pretty JSON
/// otherwise. Called at the end of a `--metrics-out` campaign verb, so
/// the snapshot reflects everything the verb did.
fn write_metrics_snapshot(path: &str) -> Result<(), Box<dyn Error>> {
    let snap = dynring_obs::global().snapshot();
    let text = if path.ends_with(".prom") {
        snap.to_prometheus()
    } else {
        snap.to_json_pretty()
    };
    std::fs::write(path, text)?;
    println!("metrics snapshot written to {path}");
    Ok(())
}

/// Executes a parsed command, printing results to stdout.
///
/// # Errors
///
/// Boxed scenario/graph errors from the harness.
pub fn run(command: Command) -> Result<(), Box<dyn Error>> {
    match command {
        Command::Help => {
            println!("{USAGE}");
        }
        Command::Table1(opts) => {
            println!(
                "reproducing Table 1: k ∈ {:?} × n ∈ {:?}, {} rounds per run…\n",
                opts.robot_counts, opts.ring_sizes, opts.horizon
            );
            let report = run_table1(&opts)?;
            println!("{}", report.render());
            if report.all_match() {
                println!("every cell matches the paper.");
            } else {
                println!("MISMATCHES: {:#?}", report.mismatches());
            }
        }
        Command::Scenario(scenario) => {
            println!(
                "running {} on {} (n={}, k={}, horizon={})…\n",
                scenario.algorithm.name(),
                scenario.dynamics.name(),
                scenario.ring_size,
                scenario.placement.count(),
                scenario.horizon
            );
            let report = run_scenario(&scenario)?;
            println!("outcome        : {}", report.outcome);
            println!("covers         : {}", report.covers);
            println!("max revisit gap: {}", report.max_gap);
            println!("visited nodes  : {}/{}", report.visited_nodes, scenario.ring_size);
            println!("max tower      : {}", report.max_tower);
            println!("total moves    : {}", report.moves);
            println!("schedule       : {:?}", report.cot);
        }
        Command::Capture { scenario, out } => {
            let (report, schedule) = run_scenario_capturing(&scenario)?;
            println!("outcome: {}", report.outcome);
            let artifact = Artifact {
                scenario,
                schedule,
                report,
            };
            let json = serde_json::to_string(&artifact)?;
            std::fs::write(&out, json)?;
            println!("artifact written to {out} (replay with: dynring replay --file {out})");
        }
        Command::Replay { file } => {
            let json = std::fs::read_to_string(&file)?;
            let artifact: Artifact = serde_json::from_str(&json)?;
            println!(
                "replaying {} on the recorded schedule ({} frames)…",
                artifact.scenario.algorithm.name(),
                artifact.schedule.frame_count()
            );
            let replayed = run_on_schedule(&artifact.scenario, artifact.schedule)?;
            if replayed == artifact.report {
                println!("artifact verified: replay reproduces the stored report");
                println!("outcome: {}", replayed.outcome);
            } else {
                println!("ARTIFACT MISMATCH");
                println!("stored  : {:?}", artifact.report.outcome);
                println!("replayed: {:?}", replayed.outcome);
                return Err(Box::new(CliError("artifact verification failed".into())));
            }
        }
        Command::Coverage { n, k, horizon, seed } => {
            use dynring_analysis::parallel::{available_workers, coverage_matrix};
            println!(
                "portfolio × benign suite on n={n}, k={k} ({} workers)…\n",
                available_workers()
            );
            let matrix = coverage_matrix(n, k, horizon, seed)?;
            for row in &matrix.rows {
                let cells: Vec<String> = row
                    .cells
                    .iter()
                    .map(|c| {
                        format!(
                            "{}={}",
                            c.dynamics,
                            if c.perpetual { format!("✓{}cv", c.covers) } else { "✗".to_string() }
                        )
                    })
                    .collect();
                println!("{:<22} {}", row.algorithm, cells.join("  "));
            }
            println!(
                "\nsurvival rate: {:.0}%",
                matrix.survival_rate() * 100.0
            );
        }
        Command::MonteCarlo { config, out } => {
            use dynring_analysis::parallel::available_workers;
            println!(
                "{} × {} Bernoulli replicas on n={}, k={}, p={} (64 lanes/batch, {} workers)…\n",
                config.batches(),
                64,
                config.ring_size,
                config.robots,
                config.presence_probability,
                available_workers()
            );
            let summary = run_replicas(&config)?;
            println!(
                "replicas : {} ({} batches of 64 lanes)",
                summary.config.replicas, summary.batches
            );
            println!(
                "covered  : {} ({:.1}% within {} rounds)",
                summary.covered,
                summary.survival_rate * 100.0,
                summary.config.horizon
            );
            println!(
                "cover t  : mean {:.1}, min {:?}, max {:?}",
                summary.mean_cover_time, summary.min_cover_time, summary.max_cover_time
            );
            println!("histogram:");
            let peak = summary.histogram.iter().map(|b| b.count).max().unwrap_or(1).max(1);
            for bucket in &summary.histogram {
                let bar = "#".repeat(bucket.count * 40 / peak);
                println!(
                    "  [{:>6}, {:>6})  {:>6}  {bar}",
                    bucket.lower, bucket.upper, bucket.count
                );
            }
            if let Some(path) = out {
                let json = serde_json::to_string_pretty(&summary)?;
                std::fs::write(&path, json + "\n")?;
                println!("\nsummary written to {path}");
            }
        }
        Command::Campaign {
            verb,
            spec,
            store,
            stores,
            workers,
            max_units,
            out,
            manifest,
            procs,
            shards,
            index,
            dir,
            max_retries,
            backoff_ms,
            heartbeat_timeout_ms,
            no_steal,
            steal_after_ms,
            progress,
            json,
            metrics_out,
        } => {
            use std::path::Path;

            use dynring_analysis::parallel::available_workers;
            use dynring_campaign::fault::{
                ProcessFault, SHARD_ATTEMPT_ENV, WORKER_FAULT_EXIT_CODE,
            };
            use dynring_campaign::{
                load_report, merge_manifest, merge_stores, render, render_progress,
                run_campaign, shard_progress, supervise, CampaignError, EventLedger, FailPlan,
                FaultKind, ResultStore, RunOptions, RunOutcome, ShardManifest, ShardProgress,
                ShardSel, SuperviseOptions,
            };

            // With `--metrics-out`, events go to the ledger beside a store.
            let events_for = |store_path: &str| {
                metrics_out
                    .as_ref()
                    .map(|_| EventLedger::for_store(Path::new(store_path)).path().to_path_buf())
            };

            // `status` is spec-free: each store is read on its own terms
            // (totals come from its header). With --manifest the rows come
            // from the shard manifest instead: per-shard ranges, attempt
            // counts, and generation splits included.
            if verb == CampaignVerb::Status {
                let mut rows = Vec::new();
                if let Some(mpath) = &manifest {
                    let man = ShardManifest::load(Path::new(mpath))?;
                    for e in &man.entries {
                        let mut row = shard_progress(
                            &ResultStore::new(&e.store),
                            e.index,
                            Some(e.units),
                        )
                        .unwrap_or_else(|_| ShardProgress::corrupt(e.index, &e.store, e.units));
                        row.attempts = Some(e.attempts);
                        rows.push(row);
                    }
                }
                let base = rows.len();
                for (i, s) in stores.iter().enumerate() {
                    rows.push(shard_progress(&ResultStore::new(s), base + i, None)?);
                }
                if json {
                    println!("{}", serde_json::to_string_pretty(&rows)?);
                } else {
                    print!("{}", render_progress(&rows));
                }
                return Ok(());
            }
            let spec_path = spec.expect("parse guarantees --spec outside status");
            let campaign = load_spec(&spec_path)?;
            match verb {
                CampaignVerb::Status => unreachable!("handled above"),
                CampaignVerb::Shard => {
                    let plan = campaign.plan()?;
                    let count = shards.expect("parse guarantees --shards");
                    let dir_path = dir.unwrap_or_else(|| ".".to_string());
                    std::fs::create_dir_all(&dir_path)?;
                    let man = ShardManifest::build(&plan, count, Path::new(&dir_path));
                    if let Some(i) = index {
                        let e = man.entry(i)?;
                        println!(
                            "shard {i} of {}: units {}..{} → {}",
                            man.shards,
                            e.start,
                            e.start + e.units,
                            e.store
                        );
                    }
                    let manifest_path = manifest
                        .unwrap_or_else(|| format!("{}.manifest.json", plan.name));
                    man.write(Path::new(&manifest_path))?;
                    println!(
                        "campaign `{}`: {} units split into {} shards (manifest {manifest_path})",
                        plan.name,
                        plan.units.len(),
                        man.shards
                    );
                    for e in &man.entries {
                        println!(
                            "  shard {}: units {}..{} → {}",
                            e.index,
                            e.start,
                            e.start + e.units,
                            e.store
                        );
                    }
                }
                CampaignVerb::Work => {
                    let manifest_path = manifest.expect("parse guarantees --manifest");
                    let man = ShardManifest::load(Path::new(&manifest_path))?;
                    let plan = campaign.plan()?;
                    man.matches(&plan)?;
                    let idx = index.expect("parse guarantees --index");
                    let entry = man.entry(idx)?.clone();
                    let shard_store = ResultStore::new(&entry.store);
                    let attempt: usize = std::env::var(SHARD_ATTEMPT_ENV)
                        .ok()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    let fault =
                        ProcessFault::from_env(idx, attempt).map_err(CliError)?;
                    // The shard runs its manifest *range*, not a balanced
                    // index: after a steal the entry may be a generation
                    // child covering an arbitrary sub-range.
                    let mut base = RunOptions {
                        workers: workers.unwrap_or_else(available_workers),
                        max_units,
                        fresh: false,
                        fault: None,
                        shard: Some(ShardSel::Range {
                            start: entry.start,
                            units: entry.units,
                        }),
                        poison: None,
                        events: events_for(&entry.store),
                        slow_unit: None,
                    };
                    if let Some(ProcessFault::SlowUnit { index: i, ms }) = &fault {
                        let hash = plan
                            .units
                            .get(*i)
                            .ok_or_else(|| {
                                CliError(format!(
                                    "slow-unit index {i} out of range ({} units)",
                                    plan.units.len()
                                ))
                            })?
                            .hash
                            .clone();
                        base.slow_unit = Some((hash, *ms));
                    }
                    println!(
                        "shard {idx}/{}: {} units, attempt {attempt} (store {})",
                        man.shards, entry.units, entry.store
                    );
                    let print_outcome = |outcome: &RunOutcome| {
                        println!(
                            "shard {idx}: {} executed, {} skipped, {} pending",
                            outcome.executed, outcome.skipped, outcome.pending
                        );
                    };
                    match &fault {
                        None | Some(ProcessFault::SlowUnit { .. }) => {
                            print_outcome(&run_campaign(&campaign, &shard_store, &base)?);
                        }
                        Some(ProcessFault::KillAfterBytes(after_bytes)) => {
                            let opts = RunOptions {
                                fault: Some(FailPlan::new(FaultKind::Kill {
                                    after_bytes: *after_bytes,
                                })),
                                ..base
                            };
                            match run_campaign(&campaign, &shard_store, &opts) {
                                Err(CampaignError::InjectedFault(_)) => {
                                    // Die like `kill -9` would: no unwind,
                                    // no cleanup, torn tail left behind.
                                    std::process::abort();
                                }
                                other => {
                                    other?;
                                }
                            }
                        }
                        Some(ProcessFault::IoErrorAfterUnits(k)) => {
                            // The fault counts units appended *by this
                            // invocation*; the store trigger is an absolute
                            // record index, so offset by what's there.
                            let existing = shard_store
                                .load()
                                .map(|l| l.records.len())
                                .unwrap_or(0);
                            let opts = RunOptions {
                                fault: Some(FailPlan::new(FaultKind::IoError {
                                    record: existing + k,
                                })),
                                ..base
                            };
                            // The injected io::Error surfaces as a plain
                            // runtime error: worker exits 1, nothing torn.
                            print_outcome(&run_campaign(&campaign, &shard_store, &opts)?);
                        }
                        Some(ProcessFault::PoisonUnit(_))
                        | Some(ProcessFault::PoisonIndex(_)) => {
                            let hash = match &fault {
                                Some(ProcessFault::PoisonUnit(h)) => h.clone(),
                                Some(ProcessFault::PoisonIndex(i)) => plan
                                    .units
                                    .get(*i)
                                    .ok_or_else(|| {
                                        CliError(format!(
                                            "poison-index {i} out of range ({} units)",
                                            plan.units.len()
                                        ))
                                    })?
                                    .hash
                                    .clone(),
                                _ => unreachable!(),
                            };
                            let opts = RunOptions { poison: Some(hash), ..base };
                            match run_campaign(&campaign, &shard_store, &opts) {
                                Err(CampaignError::InjectedFault(_)) => {
                                    // Whoever draws the poisoned unit dies
                                    // on the spot, wherever the steal moved
                                    // it: everything before it is fsynced.
                                    std::process::abort();
                                }
                                other => print_outcome(&other?),
                            }
                        }
                        Some(ProcessFault::ExitAfterUnits(k))
                        | Some(ProcessFault::StallAfterUnits(k)) => {
                            // Execute exactly k units (store fsynced per
                            // wave), then die or hang as instructed.
                            let head = RunOptions {
                                max_units: Some((*k).min(max_units.unwrap_or(usize::MAX))),
                                ..base
                            };
                            let outcome = run_campaign(&campaign, &shard_store, &head)?;
                            if !outcome.is_complete() {
                                if matches!(fault, Some(ProcessFault::StallAfterUnits(_))) {
                                    loop {
                                        std::thread::sleep(
                                            std::time::Duration::from_secs(3600),
                                        );
                                    }
                                }
                                std::process::exit(WORKER_FAULT_EXIT_CODE);
                            }
                        }
                    }
                    if let Some(path) = &metrics_out {
                        write_metrics_snapshot(path)?;
                    }
                }
                CampaignVerb::Merge => {
                    let out_path = store.expect("parse guarantees --store");
                    let out_store = ResultStore::new(&out_path);
                    let outcome = if stores.is_empty() {
                        let manifest_path =
                            manifest.expect("parse guarantees manifest or stores");
                        let man = ShardManifest::load(Path::new(&manifest_path))?;
                        merge_manifest(&campaign, &man, &out_store)?
                    } else {
                        let shard_stores: Vec<ResultStore> =
                            stores.iter().map(ResultStore::new).collect();
                        merge_stores(&campaign, &shard_stores, &out_store)?
                    };
                    if metrics_out.is_some() {
                        log_merge(&out_path, &outcome)?;
                    }
                    println!(
                        "merged {} units from {} shard stores into {out_path}",
                        outcome.merged, outcome.shards
                    );
                    if outcome.sealed {
                        println!(
                            "canonical store sealed (certify with: dynring certify \
                             {out_path} --spec {spec_path} --level 2)"
                        );
                    } else {
                        println!(
                            "partial merge: {} units missing, {} held back past the \
                             first gap (unsealed; re-merge once the missing shards \
                             finish)",
                            outcome.missing, outcome.held_back
                        );
                    }
                    if let Some(path) = &metrics_out {
                        write_metrics_snapshot(path)?;
                    }
                }
                CampaignVerb::Run | CampaignVerb::Resume => {
                    let store_path = store.expect("parse guarantees --store");
                    let result_store = ResultStore::new(&store_path);
                    let fresh = verb == CampaignVerb::Run;
                    if let Some(procs) = procs {
                        // Supervisor mode: shard the plan over child
                        // processes, restart the dead, merge at the end.
                        let plan = campaign.plan()?;
                        let manifest_path = manifest
                            .unwrap_or_else(|| format!("{store_path}.manifest.json"));
                        let mpath = Path::new(&manifest_path).to_path_buf();
                        let mut man = if mpath.exists() {
                            if fresh {
                                return Err(Box::new(CliError(format!(
                                    "shard manifest {manifest_path} already exists; \
                                     use `campaign resume --procs` to continue it"
                                ))));
                            }
                            let m = ShardManifest::load(&mpath)?;
                            m.matches(&plan)?;
                            m
                        } else {
                            if fresh
                                && std::fs::metadata(&store_path)
                                    .map(|m| m.len() > 0)
                                    .unwrap_or(false)
                            {
                                return Err(Box::new(CliError(format!(
                                    "store {store_path} already has content; use \
                                     `campaign resume`"
                                ))));
                            }
                            let dir_path =
                                dir.unwrap_or_else(|| format!("{store_path}.shards"));
                            std::fs::create_dir_all(&dir_path)?;
                            ShardManifest::build(&plan, procs, Path::new(&dir_path))
                        };
                        let sopts = SuperviseOptions {
                            workers_per_proc: workers.unwrap_or_else(|| {
                                (available_workers() / man.shards.max(1)).max(1)
                            }),
                            max_retries,
                            backoff_ms,
                            heartbeat_timeout_ms,
                            poll_ms: 50,
                            steal: !no_steal,
                            steal_after_ms,
                            progress,
                            progress_json: json,
                            events: events_for(&store_path),
                        };
                        println!(
                            "campaign `{}`: {} shards × {} workers over {} units \
                             (manifest {manifest_path})…",
                            plan.name,
                            man.shards,
                            sopts.workers_per_proc,
                            plan.units.len()
                        );
                        let exe = std::env::current_exe()?;
                        let outcome =
                            supervise(&exe, Path::new(&spec_path), &mpath, &mut man, &sopts)?;
                        println!(
                            "supervisor: {}/{} shards complete, {} restart(s), \
                             {} steal(s)",
                            outcome.completed, outcome.shards, outcome.restarts,
                            outcome.steals
                        );
                        if !outcome.is_complete() {
                            if let Some(path) = &metrics_out {
                                write_metrics_snapshot(path)?;
                            }
                            // Distinct exit code (3): the campaign ran, most
                            // shards finished, only quarantined ranges are
                            // missing — unlike a spawn/config failure (1).
                            return Err(Box::new(PartialCampaign(format!(
                                "campaign partial: {} shard(s) quarantined; continue \
                                 with: dynring campaign resume --spec {spec_path} \
                                 --store {store_path} --procs {procs}",
                                outcome.quarantined.len()
                            ))));
                        }
                        if matches!(result_store.load(), Ok(l) if l.sealed) {
                            println!(
                                "canonical store {store_path} already sealed; \
                                 skipping merge"
                            );
                        } else {
                            let merged = merge_manifest(&campaign, &man, &result_store)?;
                            if metrics_out.is_some() {
                                log_merge(&store_path, &merged)?;
                            }
                            println!(
                                "merged {} units into {store_path} (sealed: {}); \
                                 certify with: dynring certify {store_path} --spec \
                                 {spec_path} --level 2",
                                merged.merged, merged.sealed
                            );
                        }
                        if let Some(path) = &metrics_out {
                            write_metrics_snapshot(path)?;
                        }
                        return Ok(());
                    }
                    let opts = RunOptions {
                        workers: workers.unwrap_or_else(available_workers),
                        max_units,
                        fresh,
                        fault: None,
                        shard: None,
                        poison: None,
                        events: events_for(&store_path),
                        slow_unit: None,
                    };
                    println!(
                        "campaign `{}`: {} over {} workers (store {store_path})…",
                        campaign.name,
                        if fresh { "run" } else { "resume" },
                        opts.workers
                    );
                    let outcome = run_campaign(&campaign, &result_store, &opts)?;
                    println!(
                        "planned {} units: {} already stored, {} executed, {} pending",
                        outcome.planned, outcome.skipped, outcome.executed, outcome.pending
                    );
                    if outcome.is_complete() {
                        println!(
                            "campaign complete (report with: dynring campaign report \
                             --spec {spec_path} --store {store_path})"
                        );
                    } else {
                        println!(
                            "campaign interrupted (finish with: dynring campaign resume \
                             --spec {spec_path} --store {store_path})"
                        );
                    }
                    if let Some(path) = &metrics_out {
                        write_metrics_snapshot(path)?;
                    }
                }
                CampaignVerb::Report => {
                    let store_path = store.expect("parse guarantees --store");
                    let result_store = ResultStore::new(&store_path);
                    let report = load_report(&campaign, &result_store)?;
                    if report.torn_tail {
                        eprintln!(
                            "WARNING: torn tail truncated ({} bytes)",
                            report.torn_bytes
                        );
                    }
                    print!("{}", render(&report));
                    if let Some(path) = out {
                        let json = serde_json::to_string_pretty(&report)?;
                        std::fs::write(&path, json + "\n")?;
                        println!("\nreport written to {path}");
                    }
                }
            }
        }
        Command::Metrics { verb, ledgers, json, limit } => {
            use std::path::Path;

            use dynring_campaign::{
                render_diff, render_summary, render_top, summarize, EventLedger, LoadedLedger,
            };

            let load = |path: &String| -> Result<LoadedLedger, Box<dyn Error>> {
                let ledger = EventLedger::new(Path::new(path));
                if !ledger.exists() {
                    return Err(Box::new(CliError(format!(
                        "no events ledger at {path} (run the campaign with \
                         --metrics-out to record one)"
                    ))));
                }
                Ok(ledger.load()?)
            };
            match verb {
                MetricsVerb::Show | MetricsVerb::Top => {
                    let loaded: Vec<LoadedLedger> =
                        ledgers.iter().map(&load).collect::<Result<_, _>>()?;
                    let summary = summarize(&loaded);
                    if json {
                        println!("{}", serde_json::to_string_pretty(&summary)?);
                    } else if verb == MetricsVerb::Top {
                        print!("{}", render_top(&summary, limit));
                    } else {
                        print!("{}", render_summary(&summary));
                    }
                }
                MetricsVerb::Diff => {
                    let a = summarize(&[load(&ledgers[0])?]);
                    let b = summarize(&[load(&ledgers[1])?]);
                    if json {
                        #[derive(Serialize)]
                        struct DiffPair {
                            a: dynring_campaign::LedgerSummary,
                            b: dynring_campaign::LedgerSummary,
                        }
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&DiffPair { a, b })?
                        );
                    } else {
                        print!("{}", render_diff(&a, &b));
                    }
                }
            }
        }
        Command::Certify { store, spec, level, sample, seed, out } => {
            use dynring_campaign::{certify, render_verdict, CertifyOptions, ResultStore};

            let campaign = load_spec(&spec)?;
            println!(
                "certifying {store} against spec {spec} at level {level}{}…",
                if level >= 2 {
                    format!(" (sample {sample}, seed {seed:#x})")
                } else {
                    String::new()
                }
            );
            let verdict = certify(
                &campaign,
                &ResultStore::new(&store),
                &CertifyOptions { level, sample, seed },
            )?;
            print!("{}", render_verdict(&verdict));
            if let Some(path) = out {
                let json = serde_json::to_string_pretty(&verdict)?;
                std::fs::write(&path, json + "\n")?;
                println!("verdict written to {path}");
            }
            if !verdict.pass {
                return Err(Box::new(CliError(format!(
                    "certification failed: {} divergence(s) in {store}",
                    verdict.failures.len()
                ))));
            }
        }
        Command::BenchReport { out, quick, check } => {
            println!(
                "measuring round engine + sweep layer{}…\n",
                if quick { " (quick)" } else { "" }
            );
            let report = crate::bench_report::collect(quick);
            println!("{}", crate::bench_report::render(&report));
            let json = serde_json::to_string_pretty(&report)?;
            std::fs::write(&out, json + "\n")?;
            println!("snapshot written to {out}");
            if let Some(snapshot_path) = check {
                let committed: crate::bench_report::BenchReport =
                    serde_json::from_str(&std::fs::read_to_string(&snapshot_path)?).map_err(
                        |e| {
                            CliError(format!(
                                "cannot read committed snapshot {snapshot_path}: {e} \
                                 (older schema? regenerate with `dynring bench-report`)"
                            ))
                        },
                    )?;
                match crate::bench_report::check_regression(&committed, &report) {
                    Ok(table) => {
                        println!("\nregression check against {snapshot_path}: OK");
                        print!("{table}");
                    }
                    Err(message) => {
                        println!("\nregression check against {snapshot_path}: FAILED");
                        return Err(Box::new(CliError(message)));
                    }
                }
            }
        }
        Command::SweepPresence { n, k, horizon, seeds } => {
            println!("PEF_3+ cover time vs presence probability (n={n}, k={k})\n");
            println!("p      success  mean-cover-time  mean-max-gap");
            for p in [0.2f64, 0.35, 0.5, 0.65, 0.8, 0.95] {
                let scenario = Scenario::new(
                    n,
                    PlacementSpec::EvenlySpaced { count: k },
                    AlgorithmChoice::Pef3Plus,
                    DynamicsChoice::BernoulliRecurrent { p, bound: 10 },
                    horizon,
                );
                let point = evaluate_point(&scenario, p, &default_seeds(seeds))?;
                println!(
                    "{p:<6} {:<8} {:<16.1} {:.1}",
                    format!("{:.0}%", point.success_rate * 100.0),
                    point.mean_cover_time,
                    point.mean_max_gap
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&args(&[])), Ok(Command::Help));
        assert_eq!(parse(&args(&["--help"])), Ok(Command::Help));
        assert_eq!(parse(&args(&["table1", "--help"])), Ok(Command::Help));
    }

    #[test]
    fn table1_with_flags() {
        let cmd = parse(&args(&["table1", "--horizon", "500", "--min-covers", "2"]))
            .expect("parses");
        match cmd {
            Command::Table1(opts) => {
                assert_eq!(opts.horizon, 500);
                assert_eq!(opts.min_covers, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scenario_requires_n_and_k() {
        assert!(parse(&args(&["scenario", "--n", "8"])).is_err());
        let cmd = parse(&args(&[
            "scenario", "--n", "8", "--k", "3", "--dynamics", "missing-edge",
        ]))
        .expect("parses");
        match cmd {
            Command::Scenario(s) => {
                assert_eq!(s.ring_size, 8);
                assert_eq!(s.placement.count(), 3);
                assert_eq!(s.dynamics.name(), "eventual-missing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn confiner2_forces_adjacent_placement() {
        let cmd = parse(&args(&[
            "scenario", "--n", "7", "--k", "2", "--dynamics", "confiner2",
        ]))
        .expect("parses");
        match cmd {
            Command::Scenario(s) => {
                assert!(matches!(s.placement, PlacementSpec::Adjacent { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_tokens() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["scenario", "--n", "8", "--k", "3", "--algorithm", "nope"]))
            .is_err());
        assert!(parse(&args(&["scenario", "--n"])).is_err());
        assert!(parse(&args(&["table1", "--horizon", "abc"])).is_err());
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_command() {
        for (argv, command) in [
            (&["scenario", "--n", "6", "--k", "3", "--horizn", "50"][..], "scenario"),
            (&["montecarlo", "--replica", "64"][..], "montecarlo"),
            (&["table1", "--quick"][..], "table1"),
            // A campaign flag on the wrong campaign verb.
            (
                &["campaign", "report", "--spec", "s", "--store", "t", "--procs", "2"][..],
                "campaign report",
            ),
            (&["campaign", "status", "--manifest", "m", "--progress"][..], "campaign status"),
        ] {
            let e = parse(&args(argv)).expect_err("unknown flag");
            let flag = argv.iter().rev().find(|a| a.starts_with("--")).expect("a flag");
            assert_eq!(e.to_string(), format!("unknown flag {flag} for {command}"));
        }
    }

    /// Arguments that satisfy a command's required flags and positionals.
    fn required_args(command: &str) -> &'static [&'static str] {
        match command {
            "scenario" => &["--n", "6", "--k", "2"],
            "capture" => &["--n", "6", "--k", "2", "--out", "a.json"],
            "replay" => &["--file", "a.json"],
            "campaign run" | "campaign resume" | "campaign report" => {
                &["--spec", "s.json", "--store", "t.jsonl"]
            }
            "campaign shard" => &["--spec", "s.json", "--shards", "2"],
            "campaign work" => &["--spec", "s.json", "--manifest", "m.json", "--index", "0"],
            "campaign merge" => &["--spec", "s.json", "--store", "t.jsonl", "--manifest", "m"],
            "campaign status" => &["--manifest", "m.json"],
            "metrics show" | "metrics top" => &["l.jsonl"],
            "metrics diff" => &["a.jsonl", "b.jsonl"],
            "certify" => &["s.jsonl", "--spec", "c.json", "--level", "2"],
            _ => &[],
        }
    }

    #[test]
    fn every_flag_usage_lists_parses_for_its_command() {
        // The synopsis: one `dynring …` entry per command, continued on
        // more deeply indented lines. A flag written `[--x]` is a switch.
        let synopsis = USAGE.split("USAGE:\n").nth(1).and_then(|r| r.split("\n\n").next());
        let mut commands: Vec<(String, Vec<(String, bool)>)> = Vec::new();
        for line in synopsis.expect("USAGE has a synopsis").lines() {
            if let Some(rest) = line.trim().strip_prefix("dynring ") {
                let words: Vec<&str> = rest
                    .split_whitespace()
                    .take_while(|w| w.chars().all(|c| c.is_ascii_lowercase() || c == '-'))
                    .take_while(|w| !w.starts_with("--"))
                    .collect();
                commands.push((words.join(" "), Vec::new()));
            }
            let (command, flags) = commands.last_mut().expect("a command line first");
            for (at, _) in line.match_indices("--") {
                let name: String = line[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                let switch = line[at + name.len()..].starts_with(']');
                flags.push((name, switch));
            }
            let inherit = if line.contains("[same flags as run]") {
                Some("campaign run")
            } else if line.contains("[scenario flags]") && command != "scenario" {
                Some("scenario")
            } else {
                None
            };
            if let Some(from) = inherit {
                let (_, inherited) = commands
                    .iter()
                    .find(|(c, _)| c == from)
                    .expect("inherited command listed earlier")
                    .clone();
                commands.last_mut().expect("current command").1.extend(inherited);
            }
        }
        let mut checked = 0;
        for (command, flags) in commands.iter().filter(|(c, _)| !c.is_empty()) {
            for (flag, switch) in flags {
                let mut argv: Vec<&str> = command.split(' ').collect();
                argv.extend(required_args(command));
                argv.push(flag);
                if !switch {
                    argv.push(match flag.as_str() {
                        "--algorithm" => "pef2",
                        "--dynamics" => "static",
                        "--level" => "2",
                        _ => "1",
                    });
                }
                let parsed = parse(&args(&argv));
                assert!(
                    matches!(parsed, Ok(ref c) if *c != Command::Help),
                    "{argv:?}: {parsed:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 60, "only {checked} flags found in USAGE");
    }

    #[test]
    fn algorithm_names_round_trip() {
        for (name, expected) in [
            ("pef3+", "PEF_3+"),
            ("pef2", "PEF_2"),
            ("pef1", "PEF_1"),
            ("keep", "keep-direction"),
            ("bounce", "bounce-on-missing"),
        ] {
            assert_eq!(parse_algorithm(name).expect("known").name(), expected);
        }
    }

    #[test]
    fn capture_then_replay_round_trips() {
        let out = std::env::temp_dir().join("dynring_cli_artifact_test.json");
        let out_str = out.to_str().expect("utf-8 path").to_string();
        let cmd = parse(&args(&[
            "capture", "--n", "6", "--k", "1", "--dynamics", "confiner1", "--horizon", "200",
            "--out", &out_str,
        ]))
        .expect("parses");
        assert!(matches!(cmd, Command::Capture { .. }));
        run(cmd).expect("capture runs");
        let replay = parse(&args(&["replay", "--file", &out_str])).expect("parses");
        run(replay).expect("replay verifies");
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn bench_report_parses_with_defaults_and_flags() {
        let cmd = parse(&args(&["bench-report"])).expect("parses");
        assert_eq!(
            cmd,
            Command::BenchReport {
                out: "BENCH_engine.json".to_string(),
                quick: false,
                check: None
            }
        );
        let cmd = parse(&args(&[
            "bench-report", "--quick", "--out", "x.json", "--check", "BENCH_engine.json",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::BenchReport {
                out: "x.json".to_string(),
                quick: true,
                check: Some("BENCH_engine.json".to_string())
            }
        );
    }

    #[test]
    fn regression_check_flags_a_slowdown() {
        use crate::bench_report::{check_regression, BenchReport, EngineSample, SweepSample};

        let sample = |workload: &str, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: 256,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let report = |static_quiet: f64, bernoulli_quiet: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![
                sample("static", static_quiet),
                sample("bernoulli", bernoulli_quiet),
            ],
            batch: Vec::new(),
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        let committed = report(1_000_000.0, 1_000_000.0);
        // Within tolerance (and faster) passes…
        assert!(check_regression(&committed, &report(1e6, 900_000.0)).is_ok());
        assert!(check_regression(&committed, &report(1e6, 5_000_000.0)).is_ok());
        // …a Bernoulli-specific >20% drop fails…
        assert!(check_regression(&committed, &report(1e6, 700_000.0)).is_err());
        // …a uniformly slower machine is calibrated out (both workloads at
        // 40%: hardware, not a code regression)…
        assert!(check_regression(&committed, &report(400_000.0, 400_000.0)).is_ok());
        // …while the same Bernoulli drop on that slower machine still
        // fails (static at 40%, bernoulli at 40% · 70%).
        assert!(check_regression(&committed, &report(400_000.0, 280_000.0)).is_err());
        // Zero comparable samples is an error, not a silent pass.
        let mut alien = report(1e6, 1e6);
        alien.engine.clear();
        assert!(check_regression(&committed, &alien).is_err());
    }

    #[test]
    fn regression_failures_are_one_greppable_line_each() {
        use crate::bench_report::{
            check_regression, BenchReport, EngineSample, SweepSample, REGRESSION_TOLERANCE,
        };

        let sample = |workload: &str, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: 256,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let report = |bernoulli_quiet: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![sample("static", 1e6), sample("bernoulli", bernoulli_quiet)],
            batch: Vec::new(),
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        let message = check_regression(&report(1e6), &report(700_000.0))
            .expect_err("30% drop must fail");
        // Exactly one REGRESSION line, and that single line names the
        // workload, the measured value and the gate threshold — no JSON
        // digging required to identify the regressing sample.
        let lines: Vec<&str> = message
            .lines()
            .filter(|l| l.starts_with("REGRESSION "))
            .collect();
        assert_eq!(lines.len(), 1, "{message}");
        let line = lines[0];
        assert!(line.contains("workload=bernoulli"), "{line}");
        assert!(line.contains("n=256"), "{line}");
        assert!(line.contains("measured=700000"), "{line}");
        assert!(line.contains("committed=1000000"), "{line}");
        assert!(
            line.contains(&format!("gate={:.2}", 1.0 - REGRESSION_TOLERANCE)),
            "{line}"
        );
    }

    #[test]
    fn regression_check_gates_batch_and_flatness() {
        use crate::bench_report::{
            check_regression, BatchSample, BenchReport, EngineSample, SweepSample,
        };

        let engine_sample = |workload: &str, n: usize, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: n,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let batch_sample = |n: usize, rate: f64| BatchSample {
            workload: "bernoulli-batch".to_string(),
            ring_size: n,
            robots: 3,
            lanes: 64,
            p: 0.5,
            batch_replica_rounds_per_sec: rate,
            serial_replica_rounds_per_sec: rate / 10.0,
            speedup: 10.0,
        };
        let report = |n4096_quiet: f64, batch_rate: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![
                engine_sample("static", 64, 1e6),
                engine_sample("static", 4096, n4096_quiet),
                engine_sample("bernoulli", 64, 1e6),
            ],
            // The flat 64/4096 pair keeps the flatness gate satisfied so
            // this test isolates the vs-committed batch comparison.
            batch: vec![
                batch_sample(256, batch_rate),
                batch_sample(64, 1e8),
                batch_sample(4096, 1e8),
            ],
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        let committed = report(1e6, 6.4e7);
        // All flat and fast: passes (table mentions both new gates).
        let table = check_regression(&committed, &report(1e6, 6.4e7)).expect("no regression");
        assert!(table.contains("batch"), "{table}");
        assert!(table.contains("static flatness"), "{table}");
        // A batch-specific >20% drop fails…
        assert!(check_regression(&committed, &report(1e6, 4.0e7)).is_err());
        // …and so does losing static flatness in the *current* run, even
        // with an equally-degraded committed snapshot (no calibration).
        let sloped = report(0.5e6, 6.4e7);
        assert!(check_regression(&sloped, &sloped.clone()).is_err());
        // A committed snapshot without batch samples skips the
        // vs-committed batch gate (the within-run flatness pair is still
        // present and flat).
        let mut old = report(1e6, 6.4e7);
        old.batch.clear();
        assert!(check_regression(&old, &report(1e6, 1.0)).is_ok());
        // Losing one side of the flatness pair fails loudly instead of
        // silently skipping the gate.
        let mut missing_pair = report(1e6, 6.4e7);
        missing_pair.batch.retain(|b| b.ring_size != 4096);
        assert!(check_regression(&missing_pair.clone(), &missing_pair).is_err());
    }

    #[test]
    fn regression_check_gates_batch_flatness_across_ring_sizes() {
        use crate::bench_report::{
            check_regression, BatchSample, BenchReport, EngineSample, SweepSample,
        };

        let engine_sample = |workload: &str, n: usize, quiet: f64| EngineSample {
            workload: workload.to_string(),
            ring_size: n,
            robots: 3,
            quiet_rounds_per_sec: quiet,
            recorded_rounds_per_sec: quiet,
        };
        let batch_sample = |n: usize, rate: f64| BatchSample {
            workload: "bernoulli-batch".to_string(),
            ring_size: n,
            robots: 3,
            lanes: 64,
            p: 0.5,
            batch_replica_rounds_per_sec: rate,
            serial_replica_rounds_per_sec: rate / 5.0,
            speedup: 5.0,
        };
        let report = |n4096_rate: f64| BenchReport {
            schema: crate::bench_report::SCHEMA.to_string(),
            note: String::new(),
            baseline_note: String::new(),
            baseline: Vec::new(),
            engine: vec![engine_sample("static", 64, 1e6), engine_sample("bernoulli", 64, 1e6)],
            batch: vec![batch_sample(64, 1e8), batch_sample(4096, n4096_rate)],
            psweep: Vec::new(),
            sweep: SweepSample {
                cells: 0,
                workers: 1,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                speedup: 1.0,
            },
        };
        // n=4096 within 2x of n=64: passes, and the table names the gate.
        let committed = report(6e7);
        let table = check_regression(&committed, &report(6e7)).expect("flat enough");
        assert!(table.contains("batch flatness"), "{table}");
        // n=4096 below half of n=64 fails even against an equally-sloped
        // committed snapshot: the gate is within-run, not calibrated.
        let sloped = report(4e7);
        assert!(check_regression(&sloped, &sloped.clone()).is_err());
    }

    #[test]
    fn montecarlo_parses_with_defaults_and_flags() {
        let cmd = parse(&args(&["montecarlo"])).expect("parses");
        match cmd {
            Command::MonteCarlo { config, out } => {
                assert_eq!(config.ring_size, 16);
                assert_eq!(config.robots, 3);
                assert_eq!(config.replicas, 256);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&args(&[
            "montecarlo", "--n", "12", "--k", "4", "--p", "0.3", "--replicas", "128",
            "--horizon", "900", "--seed", "7", "--algorithm", "bounce", "--out", "mc.json",
        ]))
        .expect("parses");
        match cmd {
            Command::MonteCarlo { config, out } => {
                assert_eq!(config.ring_size, 12);
                assert_eq!(config.robots, 4);
                assert_eq!(config.presence_probability, 0.3);
                assert_eq!(config.replicas, 128);
                assert_eq!(config.horizon, 900);
                assert_eq!(config.seed, 7);
                assert_eq!(config.algorithm.name(), "bounce-on-missing");
                assert_eq!(out, Some("mc.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn running_a_small_montecarlo_through_the_cli_path() {
        let out = std::env::temp_dir().join("dynring_cli_montecarlo_test.json");
        let out_str = out.to_str().expect("utf-8 path").to_string();
        let cmd = parse(&args(&[
            "montecarlo", "--n", "6", "--k", "3", "--replicas", "64", "--horizon", "300",
            "--out", &out_str,
        ]))
        .expect("parses");
        run(cmd).expect("runs");
        let json = std::fs::read_to_string(&out).expect("summary written");
        let summary: dynring_analysis::MonteCarloSummary =
            serde_json::from_str(&json).expect("valid summary JSON");
        assert_eq!(summary.config.replicas, 64);
        assert_eq!(summary.covered, 64, "PEF_3+ covers the small point");
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn coverage_parses_with_defaults() {
        let cmd = parse(&args(&["coverage", "--n", "6", "--horizon", "100"])).expect("parses");
        match cmd {
            Command::Coverage { n, k, horizon, .. } => {
                assert_eq!((n, k, horizon), (6, 3, 100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn capture_requires_out_and_replay_requires_file() {
        assert!(parse(&args(&["capture", "--n", "6", "--k", "1"])).is_err());
        assert!(parse(&args(&["replay"])).is_err());
    }

    #[test]
    fn running_a_small_scenario_through_the_cli_path() {
        let cmd = parse(&args(&[
            "scenario", "--n", "6", "--k", "3", "--dynamics", "static", "--horizon", "100",
        ]))
        .expect("parses");
        run(cmd).expect("runs");
    }

    #[test]
    fn certify_parses_with_defaults_and_flags() {
        let cmd = parse(&args(&["certify", "s.jsonl", "--spec", "c.json"])).expect("parses");
        assert_eq!(
            cmd,
            Command::Certify {
                store: "s.jsonl".into(),
                spec: "c.json".into(),
                level: 1,
                sample: 8,
                seed: 0xCE47,
                out: None,
            }
        );
        let cmd = parse(&args(&[
            "certify", "s.jsonl", "--spec", "c.json", "--level", "2", "--sample", "16",
            "--seed", "9", "--out", "v.json",
        ]))
        .expect("parses");
        assert_eq!(
            cmd,
            Command::Certify {
                store: "s.jsonl".into(),
                spec: "c.json".into(),
                level: 2,
                sample: 16,
                seed: 9,
                out: Some("v.json".into()),
            }
        );
    }

    #[test]
    fn certify_rejects_bad_levels_and_misplaced_sampling_flags() {
        assert!(parse(&args(&["certify", "--spec", "c.json"])).is_err(), "store is required");
        assert!(parse(&args(&["certify", "s.jsonl"])).is_err(), "spec is required");
        assert!(
            parse(&args(&["certify", "s.jsonl", "--spec", "c.json", "--level", "3"])).is_err()
        );
        assert!(
            parse(&args(&["certify", "s.jsonl", "--spec", "c.json", "--sample", "4"])).is_err(),
            "--sample without --level 2 must be rejected"
        );
    }
}
