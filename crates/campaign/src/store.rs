//! The append-only JSONL result store.
//!
//! A store is one file: a header line naming the campaign and its spec
//! hash, then one line per completed unit, appended in plan order.
//! Append order + deterministic execution is what makes resume
//! byte-exact: an interrupted store is a plan-order prefix of the
//! uninterrupted one, so `resume` — which appends exactly the missing
//! units, in plan order — reproduces the uninterrupted file bit for bit.
//!
//! Every record is a [`crate::trace::ChainedRecord`]: the unit record
//! plus its result digest and a hash-chain link committing it to the
//! whole prefix, and a completed store ends in a sealed [`StoreFooter`]
//! line. A v1 record line (a bare `{"Unit":…}`, no chain) is refused by
//! name (`reason=v1-record`), wherever it sits in the file.
//!
//! Loading is crash-tolerant but corruption-strict: a trailing partial
//! (or unparseable) line — the write an interruption cut short — is
//! detected and truncated away before appending resumes, while any
//! damage *before* the tail (an unparseable interior line, a broken
//! chain link, a duplicated or reordered record, a forged seal) refuses
//! with one greppable `STORE-CORRUPT line=… offset=… reason=…`
//! diagnostic.
//!
//! A store is evidence for one plan only: [`plan_violations`] is the one
//! rule for which records belong to a plan (header spec hash, name and
//! unit count; every record the plan's unit at its own index, inside the
//! caller's range, on its own route). Run, resume and report apply it
//! through [`ResultStore::load_for`]; merge and certify call it on what
//! they loaded and map its violations to their own refusal classes.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use dynring_obs::names as obs_names;
use serde::{Deserialize, Serialize};

use crate::executor::{route_unit, UnitRecord};
use crate::fault::{FailPlan, FaultKind};
use crate::spec::CampaignPlan;
use crate::trace::{chain_seed, chain_step, result_digest, ChainedRecord, StoreFooter, STORE_SCHEMA};
use crate::CampaignError;

/// The store's first line: which campaign this file belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Campaign name (informational).
    pub name: String,
    /// [`crate::CampaignSpec::content_hash`] of the owning spec.
    pub spec_hash: String,
    /// Planned unit count (informational; the plan is re-derived from the
    /// spec on every run).
    pub planned_units: usize,
}

/// One line of the store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreLine {
    /// The header (first line).
    Header(StoreHeader),
    /// A completed unit with its digest and chain link.
    Chained(ChainedRecord),
    /// The sealed footer of a completed campaign.
    Seal(StoreFooter),
}

impl StoreLine {
    /// Short display name, for diagnostics.
    fn describe(&self) -> &'static str {
        match self {
            StoreLine::Header(_) => "header",
            StoreLine::Chained(_) => "record",
            StoreLine::Seal(_) => "seal",
        }
    }
}

/// How a v1 record line begins (the externally tagged `Unit` variant
/// that schema v2 replaced with `Chained`).
const V1_RECORD_PREFIX: &[u8] = b"{\"Unit\":";

/// A parsed store: everything valid on disk plus where valid bytes end.
#[derive(Debug)]
pub struct LoadedStore {
    /// The header, when the file has one.
    pub header: Option<StoreHeader>,
    /// Completed unit records, in file order.
    pub records: Vec<UnitRecord>,
    /// Byte offset just past the last valid line. Anything after this is
    /// a torn write and is truncated before appending resumes.
    pub valid_len: u64,
    /// Whether the file carried bytes past `valid_len`.
    pub torn_tail: bool,
    /// How many bytes past `valid_len` the file carried.
    pub torn_bytes: u64,
    /// The chain head over the loaded lines: the header's seed advanced
    /// by every record. `None` for headerless (empty) stores.
    pub chain_head: Option<String>,
    /// Whether the store ends in a verified seal.
    pub sealed: bool,
}

impl LoadedStore {
    /// The hashes of all completed units.
    pub fn completed_hashes(&self) -> HashSet<&str> {
        self.records.iter().map(|r| r.hash.as_str()).collect()
    }

    /// Whether the store holds nothing yet. A loaded store has records
    /// only under a header (a record before one breaks the chain), so
    /// the header alone decides.
    pub fn is_empty(&self) -> bool {
        self.header.is_none()
    }
}

/// One scanned line of the file's newline-terminated region.
#[derive(Debug)]
pub(crate) enum ScanLine {
    /// A line that parsed as a [`StoreLine`].
    Parsed {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the line start.
        offset: u64,
        /// The parsed line (boxed: a record line dwarfs a corrupt entry).
        store_line: Box<StoreLine>,
    },
    /// An interior line that failed UTF-8 or JSON parsing, or a v1
    /// record line anywhere. (Any other *final* unparseable line is a
    /// torn tail, not a scan entry.)
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the line start.
        offset: u64,
        /// `invalid-utf8`, `unparseable-json` or `v1-record`.
        reason: &'static str,
    },
}

/// The tolerant pass under [`ResultStore::load`] and certification: every
/// line of the valid region with its position, parse failures included.
#[derive(Debug)]
pub(crate) struct StoreScan {
    /// Lines in file order.
    pub lines: Vec<ScanLine>,
    /// Byte offset just past the last newline-terminated line.
    pub valid_len: u64,
    /// Bytes past `valid_len` (a torn trailing write).
    pub torn_bytes: u64,
}

/// One semantic rule violated by an otherwise-parseable line. `reason`,
/// `expected` and `got` are space-free tokens, so both the
/// `STORE-CORRUPT` and `CERTIFY-FAIL` renderings stay one greppable line.
#[derive(Debug)]
pub(crate) struct Violation {
    /// The offending unit's hash, or `-` for non-record lines.
    pub unit: String,
    /// Greppable token naming the broken rule.
    pub reason: &'static str,
    /// What the verifier computed (empty when not applicable).
    pub expected: String,
    /// What the store carried (empty when not applicable).
    pub got: String,
}

impl Violation {
    fn new(unit: &str, reason: &'static str, expected: String, got: String) -> Self {
        Violation { unit: unit.to_string(), reason, expected, got }
    }

    /// `reason=… unit=… expected=… got=…`: the body of the
    /// `STORE-CORRUPT` and `MERGE-CONFLICT` renderings of a plan
    /// violation.
    pub(crate) fn tokens(&self) -> String {
        format!(
            "reason={} unit={} expected={} got={}",
            self.reason, self.unit, self.expected, self.got
        )
    }
}

/// The store–plan binding: every way `header` and `records` fail to be
/// `plan`'s store restricted to the plan indices in `range`, header
/// violations first, then each record's in file order.
///
/// - `spec-mismatch`: the header's spec hash is not the plan's;
/// - `plan-mismatch`: the header's name or planned-unit count is not
///   the plan's;
/// - `foreign-unit`: a record is not the plan's unit at its own index
///   (or its index is past the plan's end);
/// - `shard-membership`: a record's index lies outside `range`;
/// - `route-mismatch`: a record's stored route is not the one
///   [`route_unit`] picks for its unit.
///
/// A missing header binds nothing (an empty store belongs to every
/// plan); the verifier already refuses records without one.
pub(crate) fn plan_violations(
    plan: &CampaignPlan,
    range: &Range<usize>,
    header: Option<&StoreHeader>,
    records: &[UnitRecord],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let Some(header) = header {
        if header.spec_hash != plan.spec_hash {
            violations.push(Violation::new(
                "-",
                "spec-mismatch",
                plan.spec_hash.clone(),
                header.spec_hash.clone(),
            ));
        }
        if header.name != plan.name || header.planned_units != plan.units.len() {
            violations.push(Violation::new(
                "-",
                "plan-mismatch",
                format!("{}/{}", plan.name, plan.units.len()),
                format!("{}/{}", header.name, header.planned_units),
            ));
        }
    }
    for record in records {
        match plan.units.get(record.index) {
            Some(planned) if planned.hash == record.hash => {}
            planned => violations.push(Violation::new(
                &record.hash,
                "foreign-unit",
                planned.map_or_else(|| format!("index<{}", plan.units.len()), |p| p.hash.clone()),
                format!("{}@{}", record.hash, record.index),
            )),
        }
        if !range.contains(&record.index) {
            violations.push(Violation::new(
                &record.hash,
                "shard-membership",
                format!("{}..{}", range.start, range.end),
                record.index.to_string(),
            ));
        }
        let route = route_unit(&record.unit).name();
        if record.route != route {
            violations.push(Violation::new(
                &record.hash,
                "route-mismatch",
                route.to_string(),
                record.route.clone(),
            ));
        }
    }
    violations
}

/// The shared semantic checker behind [`ResultStore::load`] (stop at the
/// first violation) and `dynring certify` (collect them all). Feeding it
/// lines in file order recomputes the content hashes, digests and chain
/// links, and tracks ordering, duplication and the seal.
#[derive(Debug)]
pub(crate) struct StoreVerifier {
    /// The header, once seen.
    pub header: Option<StoreHeader>,
    /// The chain head after every accepted line.
    pub chain_head: Option<String>,
    /// Unit records in file order.
    pub records: Vec<UnitRecord>,
    /// Whether a seal line was seen.
    pub sealed: bool,
    seen: HashSet<String>,
    last_index: Option<usize>,
}

impl StoreVerifier {
    pub(crate) fn new() -> Self {
        StoreVerifier {
            header: None,
            chain_head: None,
            records: Vec::new(),
            sealed: false,
            seen: HashSet::new(),
            last_index: None,
        }
    }

    /// Accepts the next line, returning every rule it violates (empty =
    /// clean). State advances even on violations — using the *stored*
    /// values — so one corrupt line yields its own violations instead of
    /// cascading over the rest of the file.
    pub(crate) fn accept(&mut self, line: StoreLine) -> Vec<Violation> {
        let mut violations = Vec::new();
        if self.sealed {
            violations.push(Violation::new(
                "-",
                "line-after-seal",
                "end-of-file".into(),
                line.describe().into(),
            ));
        }
        match line {
            StoreLine::Header(header) => {
                if self.header.is_some() {
                    violations.push(Violation::new(
                        "-",
                        "duplicate-header",
                        "one-header".into(),
                        "second-header".into(),
                    ));
                } else {
                    if !self.records.is_empty() {
                        violations.push(Violation::new(
                            "-",
                            "header-not-first",
                            "line-1".into(),
                            format!("after-{}-records", self.records.len()),
                        ));
                    }
                    self.chain_head = Some(chain_seed(&header));
                    self.header = Some(header);
                }
            }
            StoreLine::Chained(chained) => {
                self.check_record(&chained, &mut violations);
                self.records.push(chained.record);
            }
            StoreLine::Seal(footer) => {
                if !self.sealed {
                    self.check_seal(&footer, &mut violations);
                    self.sealed = true;
                }
            }
        }
        violations
    }

    fn check_record(&mut self, chained: &ChainedRecord, violations: &mut Vec<Violation>) {
        let record = &chained.record;
        let computed = record.unit.content_hash();
        if record.hash != computed {
            violations.push(Violation::new(
                &record.hash,
                "unit-hash-mismatch",
                computed,
                record.hash.clone(),
            ));
        }
        if !self.seen.insert(record.hash.clone()) {
            violations.push(Violation::new(
                &record.hash,
                "duplicate-unit",
                "one-record-per-unit".into(),
                record.hash.clone(),
            ));
        }
        if let Some(last) = self.last_index {
            if record.index <= last {
                violations.push(Violation::new(
                    &record.hash,
                    "order",
                    format!("index>{last}"),
                    record.index.to_string(),
                ));
            }
        }
        self.last_index = Some(record.index);
        let digest = result_digest(record);
        if chained.digest != digest {
            violations.push(Violation::new(
                &record.hash,
                "digest-mismatch",
                digest,
                chained.digest.clone(),
            ));
        }
        // The chain consumes the *stored* digest: a corrupt result breaks
        // the digest check alone, a corrupt chain field breaks the chain
        // check alone.
        match &self.chain_head {
            Some(head) => {
                let expected = chain_step(head, &record.hash, &chained.digest);
                if chained.chain != expected {
                    violations.push(Violation::new(
                        &record.hash,
                        "chain-mismatch",
                        expected,
                        chained.chain.clone(),
                    ));
                }
            }
            None => violations.push(Violation::new(
                &record.hash,
                "chain-unseeded",
                "header-before-records".into(),
                "no-header".into(),
            )),
        }
        self.chain_head = Some(chained.chain.clone());
    }

    fn check_seal(&mut self, footer: &StoreFooter, violations: &mut Vec<Violation>) {
        if footer.seal != footer.expected_seal() {
            violations.push(Violation::new(
                "-",
                "seal-mismatch",
                footer.expected_seal(),
                footer.seal.clone(),
            ));
        }
        if footer.schema != STORE_SCHEMA {
            violations.push(Violation::new(
                "-",
                "schema-mismatch",
                STORE_SCHEMA.into(),
                footer.schema.clone(),
            ));
        }
        if footer.units != self.records.len() {
            violations.push(Violation::new(
                "-",
                "unit-count-mismatch",
                self.records.len().to_string(),
                footer.units.to_string(),
            ));
        }
        match (&self.header, &self.chain_head) {
            (Some(header), Some(head)) => {
                if footer.chain_head != *head {
                    violations.push(Violation::new(
                        "-",
                        "chain-head-mismatch",
                        head.clone(),
                        footer.chain_head.clone(),
                    ));
                }
                if footer.spec_hash != header.spec_hash {
                    violations.push(Violation::new(
                        "-",
                        "seal-spec-mismatch",
                        header.spec_hash.clone(),
                        footer.spec_hash.clone(),
                    ));
                }
                if footer.planned_units != header.planned_units {
                    violations.push(Violation::new(
                        "-",
                        "seal-plan-mismatch",
                        header.planned_units.to_string(),
                        footer.planned_units.to_string(),
                    ));
                }
            }
            _ => violations.push(Violation::new(
                "-",
                "seal-without-header",
                "header-before-seal".into(),
                "no-header".into(),
            )),
        }
    }
}

/// The store handle: a path, plus load/append primitives.
#[derive(Debug, Clone)]
pub struct ResultStore {
    path: PathBuf,
}

impl ResultStore {
    /// A store at `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ResultStore { path: path.into() }
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Builds the one-line `STORE-CORRUPT` diagnostic.
    fn corrupt(
        &self,
        line: usize,
        offset: u64,
        reason: &str,
        expected: &str,
        got: &str,
    ) -> CampaignError {
        let mut msg = format!("STORE-CORRUPT line={line} offset={offset} reason={reason}");
        if !expected.is_empty() {
            msg.push_str(&format!(" expected={expected}"));
        }
        if !got.is_empty() {
            msg.push_str(&format!(" got={got}"));
        }
        msg.push_str(&format!(" file={}", self.path.display()));
        CampaignError::CorruptStore(msg)
    }

    /// The tolerant line pass: splits the file into newline-terminated
    /// lines, parses each, and records interior parse failures instead of
    /// erroring (certification reports them all; [`ResultStore::load`]
    /// refuses at the first). A missing file is an empty scan; an
    /// unparseable *final* line (or an unterminated tail) is torn, not
    /// corrupt — an interruption can cut a buffer flush anywhere,
    /// including just after a newline. The exception is a v1 record
    /// line: it is `v1-record` corruption even as the final line, so a
    /// resume refuses it instead of truncating the record away.
    ///
    /// Bytes, not a `String`: a torn write can split a multi-byte UTF-8
    /// character, and that tail must be truncated like any other torn
    /// line, not fail the whole pass.
    pub(crate) fn scan(&self) -> Result<StoreScan, CampaignError> {
        let mut bytes = Vec::new();
        match File::open(&self.path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(StoreScan { lines: Vec::new(), valid_len: 0, torn_bytes: 0 });
            }
            Err(e) => return Err(e.into()),
        }
        let mut lines = Vec::new();
        let mut offset = 0usize;
        let mut valid_len = 0u64;
        let mut line_no = 0usize;
        while offset < bytes.len() {
            let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
                // No terminating newline: a torn trailing write.
                break;
            };
            let text = &bytes[offset..offset + nl];
            line_no += 1;
            let parsed = match std::str::from_utf8(text) {
                Err(_) => Err("invalid-utf8"),
                Ok(text) => serde_json::from_str::<StoreLine>(text).map_err(|_| "unparseable-json"),
            };
            let entry = match parsed {
                Ok(store_line) => ScanLine::Parsed {
                    line: line_no,
                    offset: offset as u64,
                    store_line: Box::new(store_line),
                },
                Err(_) if text.starts_with(V1_RECORD_PREFIX) => ScanLine::Corrupt {
                    line: line_no,
                    offset: offset as u64,
                    reason: "v1-record",
                },
                Err(_) if offset + nl + 1 == bytes.len() => break,
                Err(reason) => ScanLine::Corrupt { line: line_no, offset: offset as u64, reason },
            };
            lines.push(entry);
            offset += nl + 1;
            valid_len = offset as u64;
        }
        Ok(StoreScan {
            lines,
            valid_len,
            torn_bytes: bytes.len() as u64 - valid_len,
        })
    }

    /// Parses and verifies the file (missing file = empty store). A torn
    /// tail ends the valid region; everything before it must parse *and*
    /// satisfy the semantic rules — content hashes, digests, chain
    /// continuity, record ordering, no duplicates, a valid seal if one is
    /// present. It does not bind the store to a plan: see
    /// [`ResultStore::load_for`].
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] on unreadable files,
    /// [`CampaignError::CorruptStore`] — one `STORE-CORRUPT line=…
    /// offset=… reason=…` line — when a non-trailing line fails to parse
    /// or verify (truncating the tail cannot repair it), or when any line
    /// is a v1 record.
    pub fn load(&self) -> Result<LoadedStore, CampaignError> {
        let scan = self.scan()?;
        let mut verifier = StoreVerifier::new();
        for entry in scan.lines {
            match entry {
                ScanLine::Corrupt { line, offset, reason } => {
                    return Err(self.corrupt(line, offset, reason, "", ""));
                }
                ScanLine::Parsed { line, offset, store_line } => {
                    if let Some(v) = verifier.accept(*store_line).into_iter().next() {
                        return Err(self.corrupt(line, offset, v.reason, &v.expected, &v.got));
                    }
                }
            }
        }
        Ok(LoadedStore {
            header: verifier.header,
            records: verifier.records,
            valid_len: scan.valid_len,
            torn_tail: scan.torn_bytes > 0,
            torn_bytes: scan.torn_bytes,
            chain_head: verifier.chain_head,
            sealed: verifier.sealed,
        })
    }

    /// [`ResultStore::load`], then the store–plan binding
    /// ([`plan_violations`]) against `plan` restricted to `range`: the
    /// loader behind `run`, `resume` and `report`.
    ///
    /// # Errors
    ///
    /// Everything [`ResultStore::load`] returns;
    /// [`CampaignError::SpecMismatch`] when the header names another
    /// spec; otherwise, for the first violation, one
    /// `STORE-CORRUPT reason=… unit=… expected=… got=… file=…` line.
    pub fn load_for(
        &self,
        plan: &CampaignPlan,
        range: Range<usize>,
    ) -> Result<LoadedStore, CampaignError> {
        let loaded = self.load()?;
        let violations = plan_violations(plan, &range, loaded.header.as_ref(), &loaded.records);
        match violations.into_iter().next() {
            None => Ok(loaded),
            Some(v) if v.reason == "spec-mismatch" => {
                Err(CampaignError::SpecMismatch { expected: v.expected, found: v.got })
            }
            Some(v) => Err(CampaignError::CorruptStore(format!(
                "STORE-CORRUPT {} file={}",
                v.tokens(),
                self.path.display()
            ))),
        }
    }

    /// Opens the file for appending at `valid_len`, truncating any torn
    /// tail first. Creates the file when missing. When bytes were
    /// actually truncated, the truncation is fsynced before the handle is
    /// returned — a power loss must not be able to reorder the truncation
    /// against the appends that follow it.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn open_for_append(&self, valid_len: u64) -> Result<File, CampaignError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&self.path)?;
        let on_disk = file.metadata()?.len();
        file.set_len(valid_len)?;
        if on_disk != valid_len {
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(file)
    }

    /// Serializes one line and appends it (newline-terminated). Writes
    /// no chain metadata (tests only — campaign execution goes through
    /// [`ResultStore::appender`]).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] / [`CampaignError::Json`].
    pub fn append_line(file: &mut File, line: &StoreLine) -> Result<(), CampaignError> {
        let mut json = serde_json::to_string(line)?;
        json.push('\n');
        file.write_all(json.as_bytes())?;
        Ok(())
    }

    /// A chain-maintaining appender positioned at `loaded.valid_len`
    /// (truncating any torn tail, see [`ResultStore::open_for_append`]).
    /// The appender continues `loaded`'s chain head, so records appended
    /// across any number of interruptions form one continuous chain.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn appender(&self, loaded: &LoadedStore) -> Result<StoreAppender, CampaignError> {
        let file = self.open_for_append(loaded.valid_len)?;
        // Out-of-band I/O accounting (see `docs/OBSERVABILITY.md`):
        // instruments resolve once per appender, counts never feed back
        // into what gets written.
        let obs = dynring_obs::global();
        if loaded.torn_bytes > 0 {
            obs.counter(obs_names::STORE_TORN_TAILS).inc();
            obs.counter(obs_names::STORE_TORN_BYTES).add(loaded.torn_bytes);
        }
        Ok(StoreAppender {
            file,
            header: loaded.header.clone(),
            chain_head: loaded.chain_head.clone(),
            records: loaded.records.len(),
            bytes: loaded.valid_len,
            fault: None,
            bytes_appended: obs.counter(obs_names::STORE_BYTES_APPENDED),
            fsyncs: obs.counter(obs_names::STORE_FSYNCS),
        })
    }
}

/// The schema-v2 append path: wraps each record in its
/// [`ChainedRecord`], tracks the chain head, writes the seal, and hosts
/// the deterministic fault-injection hook the crash-safety proptests
/// drive.
#[derive(Debug)]
pub struct StoreAppender {
    file: File,
    header: Option<StoreHeader>,
    chain_head: Option<String>,
    records: usize,
    bytes: u64,
    fault: Option<FailPlan>,
    bytes_appended: std::sync::Arc<dynring_obs::Counter>,
    fsyncs: std::sync::Arc<dynring_obs::Counter>,
}

impl StoreAppender {
    /// Arms a fault plan (test-only; see [`crate::fault`]).
    pub fn set_fault(&mut self, fault: Option<FailPlan>) {
        self.fault = fault;
    }

    /// Records appended so far (loaded ones included).
    pub fn records(&self) -> usize {
        self.records
    }

    /// The current chain head (`None` until a header exists).
    pub fn chain_head(&self) -> Option<&str> {
        self.chain_head.as_deref()
    }

    /// Appends the header line and seeds the chain.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] when a header already exists;
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::InjectedFault`] from the write.
    pub fn append_header(&mut self, header: StoreHeader) -> Result<(), CampaignError> {
        if self.header.is_some() {
            return Err(CampaignError::CorruptStore(
                "cannot append a second header".into(),
            ));
        }
        let mut json = serde_json::to_string(&StoreLine::Header(header.clone()))?;
        json.push('\n');
        self.write_line(json.into_bytes(), false)?;
        self.chain_head = Some(chain_seed(&header));
        self.header = Some(header);
        Ok(())
    }

    /// Wraps `record` as the chain's next [`ChainedRecord`] and appends
    /// it.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] when no header seeded the chain;
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::InjectedFault`] from the write.
    pub fn append_record(&mut self, record: UnitRecord) -> Result<(), CampaignError> {
        let Some(head) = self.chain_head.clone() else {
            return Err(CampaignError::CorruptStore(
                "cannot append a record before the header seeds the chain".into(),
            ));
        };
        let chained = ChainedRecord::next(&head, record);
        let next_head = chained.chain.clone();
        let mut json = serde_json::to_string(&StoreLine::Chained(chained))?;
        json.push('\n');
        self.write_line(json.into_bytes(), true)?;
        self.chain_head = Some(next_head);
        self.records += 1;
        Ok(())
    }

    /// Appends the sealed footer for the current chain head and record
    /// count.
    ///
    /// # Errors
    ///
    /// [`CampaignError::CorruptStore`] without a header;
    /// [`CampaignError::Io`] / [`CampaignError::Json`] /
    /// [`CampaignError::InjectedFault`] from the write.
    pub fn seal(&mut self) -> Result<(), CampaignError> {
        let (Some(header), Some(head)) = (self.header.clone(), self.chain_head.clone()) else {
            return Err(CampaignError::CorruptStore(
                "cannot seal a store without a header".into(),
            ));
        };
        let footer = StoreFooter::new(&header, self.records, head);
        let mut json = serde_json::to_string(&StoreLine::Seal(footer))?;
        json.push('\n');
        self.write_line(json.into_bytes(), false)?;
        Ok(())
    }

    /// Flushes written records to disk (`fdatasync`); the runner calls
    /// this at every wave boundary so an interruption loses at most one
    /// wave even across a power cut.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn sync(&mut self) -> Result<(), CampaignError> {
        self.file.sync_data()?;
        self.fsyncs.inc();
        Ok(())
    }

    /// The write primitive every append funnels through, and the single
    /// point where an armed [`FailPlan`] fires. Crash faults write a
    /// prefix and error; corruption faults damage `buf` (or write it
    /// twice) and let the append proceed.
    fn write_line(&mut self, mut buf: Vec<u8>, is_record: bool) -> Result<(), CampaignError> {
        if let Some(plan) = self.fault {
            match plan.kind() {
                FaultKind::Kill { after_bytes }
                    if self.bytes + buf.len() as u64 > after_bytes =>
                {
                    let keep = after_bytes.saturating_sub(self.bytes) as usize;
                    self.file.write_all(&buf[..keep.min(buf.len())])?;
                    self.file.sync_data()?;
                    return Err(CampaignError::InjectedFault(format!(
                        "kill after {after_bytes} bytes"
                    )));
                }
                FaultKind::TornRecord { record, keep } if is_record && self.records == record => {
                    let keep = keep.min(buf.len() - 1);
                    self.file.write_all(&buf[..keep])?;
                    self.file.sync_data()?;
                    return Err(CampaignError::InjectedFault(format!(
                        "torn write of record {record} ({keep} of {} bytes)",
                        buf.len()
                    )));
                }
                FaultKind::BitFlip { record, byte, xor } if is_record && self.records == record => {
                    let position = byte % buf.len();
                    buf[position] ^= xor;
                }
                FaultKind::DuplicateAppend { record } if is_record && self.records == record => {
                    self.file.write_all(&buf)?;
                    self.bytes += buf.len() as u64;
                    self.bytes_appended.add(buf.len() as u64);
                }
                FaultKind::IoError { record } if is_record && self.records == record => {
                    return Err(CampaignError::Io(format!(
                        "injected io error appending record {record}"
                    )));
                }
                _ => {}
            }
        }
        self.file.write_all(&buf)?;
        self.bytes += buf.len() as u64;
        self.bytes_appended.add(buf.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::UnitMeasurement;
    use crate::spec::{UnitScheduler, WorkUnit};
    use dynring_analysis::{AlgorithmChoice, DynamicsChoice, PlacementSpec};

    fn record(i: usize) -> UnitRecord {
        let unit = WorkUnit {
            ring_size: 4 + i,
            robots: 1,
            placement: PlacementSpec::EvenlySpaced { count: 1 },
            algorithm: AlgorithmChoice::Pef1,
            dynamics: DynamicsChoice::Bernoulli { p: 0.5 },
            scheduler: UnitScheduler::Sync,
            horizon: 10,
            seed: i as u64,
            replicas: 1,
        };
        UnitRecord {
            hash: unit.content_hash(),
            index: i,
            route: "batch".into(),
            unit,
            result: UnitMeasurement {
                replicas: 1,
                covered: 1,
                total_cover_time: 5,
                min_cover_time: Some(5),
                max_cover_time: Some(5),
            },
        }
    }

    fn temp_store(name: &str) -> ResultStore {
        let path = std::env::temp_dir().join(format!("dynring_store_test_{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        ResultStore::new(path)
    }

    fn header() -> StoreHeader {
        StoreHeader {
            name: "t".into(),
            spec_hash: "0123456789abcdef".into(),
            planned_units: 2,
        }
    }

    /// Writes a chained store (header + n records), unsealed.
    fn write_chained(store: &ResultStore, n: usize) {
        let loaded = store.load().expect("loads");
        let mut appender = store.appender(&loaded).expect("appender");
        appender.append_header(header()).expect("header");
        for i in 0..n {
            appender.append_record(record(i)).expect("record");
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let store = temp_store("roundtrip");
        write_chained(&store, 2);
        let loaded = store.load().expect("loads");
        assert_eq!(loaded.header.as_ref().map(|h| h.planned_units), Some(2));
        assert_eq!(loaded.records, vec![record(0), record(1)]);
        assert!(!loaded.torn_tail);
        assert!(!loaded.sealed);
        assert!(!loaded.is_empty());
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let store = temp_store("missing");
        let loaded = store.load().expect("loads");
        assert!(loaded.header.is_none());
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.valid_len, 0);
        assert!(loaded.chain_head.is_none());
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_append() {
        let store = temp_store("torn");
        write_chained(&store, 1);
        let clean_len = store.load().expect("loads").valid_len;
        // Simulate an interrupted write: half a record, no newline.
        let torn = b"{\"Chained\":{\"record\":{\"hash\":\"dead";
        let mut file = store.open_for_append(clean_len).expect("open");
        file.write_all(torn).expect("write");
        drop(file);
        let loaded = store.load().expect("loads");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.torn_bytes, torn.len() as u64);
        assert_eq!(loaded.valid_len, clean_len);
        assert_eq!(loaded.records.len(), 1);
        // Appending after truncation yields the same file as never having
        // torn it.
        let mut appender = store.appender(&loaded).expect("appender");
        appender.append_record(record(1)).expect("append");
        drop(appender);
        let reference = temp_store("torn_ref");
        write_chained(&reference, 2);
        let a = std::fs::read(store.path()).expect("read");
        let b = std::fs::read(reference.path()).expect("read");
        assert_eq!(a, b);
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(reference.path());
    }

    #[test]
    fn corrupt_interior_lines_error_with_line_and_offset() {
        let store = temp_store("corrupt");
        std::fs::write(
            store.path(),
            "not json\n{\"also\": \"not a store line\"}\n",
        )
        .expect("write");
        let err = store.load().expect_err("interior corruption must refuse");
        let CampaignError::CorruptStore(msg) = &err else {
            panic!("unexpected {err:?}");
        };
        // The satellite diagnostic contract: one greppable line naming
        // the position.
        assert!(msg.contains("STORE-CORRUPT line=1 offset=0"), "{msg}");
        assert!(msg.contains("reason=unparseable-json"), "{msg}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn torn_tail_splitting_a_multibyte_character_is_truncated_not_fatal() {
        // A campaign name with non-ASCII characters lands in every line;
        // an interruption can cut the file mid-character. That tail must
        // be truncated like any other torn write.
        let store = temp_store("torn_utf8");
        write_chained(&store, 1);
        let clean_len = store.load().expect("loads").valid_len;
        let mut file = store.open_for_append(clean_len).expect("open");
        let torn = "{\"Chained\":{\"record\":{\"hash\":\"café".as_bytes();
        // Cut inside the two-byte 'é'.
        file.write_all(&torn[..torn.len() - 1]).expect("write");
        drop(file);
        let loaded = store.load().expect("a mid-character cut must still load");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.valid_len, clean_len);
        assert_eq!(loaded.records.len(), 1);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn unparseable_final_line_counts_as_torn() {
        let store = temp_store("torn_final");
        write_chained(&store, 0);
        let clean_len = store.load().expect("loads").valid_len;
        let mut file = store.open_for_append(clean_len).expect("open");
        file.write_all(b"{\"Chained\":{\"record\"\n").expect("write");
        drop(file);
        let loaded = store.load().expect("loads");
        assert!(loaded.torn_tail);
        assert_eq!(loaded.valid_len, clean_len);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn v1_record_lines_are_refused_by_name_even_as_the_final_line() {
        let store = temp_store("v1");
        write_chained(&store, 0);
        let clean_len = store.load().expect("loads").valid_len;
        let v1 = format!("{{\"Unit\":{}}}\n", serde_json::to_string(&record(0)).expect("json"));
        let mut file = store.open_for_append(clean_len).expect("open");
        file.write_all(v1.as_bytes()).expect("write");
        drop(file);
        let err = store.load().expect_err("a v1 line must refuse, not truncate");
        let msg = err.to_string();
        let expected = format!("STORE-CORRUPT line=2 offset={clean_len} reason=v1-record");
        assert!(msg.contains(&expected), "{msg}");
        // An interior v1 line refuses the same way.
        let text = std::fs::read_to_string(store.path()).expect("read");
        std::fs::write(store.path(), text + &v1).expect("write");
        let msg = store.load().expect_err("an interior v1 line must refuse").to_string();
        assert!(msg.contains("line=2") && msg.contains("reason=v1-record"), "{msg}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn appender_chains_records_and_seals_verifiably() {
        let store = temp_store("chained");
        write_chained(&store, 2);
        let loaded = store.load().expect("loads");
        assert_eq!(loaded.records.len(), 2);
        assert!(!loaded.sealed);
        // Seal it through a fresh appender (as a resume would).
        let mut appender = store.appender(&loaded).expect("appender");
        appender.seal().expect("seal");
        let sealed = store.load().expect("loads");
        assert!(sealed.sealed);
        assert_eq!(sealed.chain_head, loaded.chain_head);
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn chained_resume_continues_the_chain_across_interruptions() {
        // One appender writing 3 records must equal two appenders writing
        // 2 + 1, byte for byte — the chain head survives the reload.
        let oneshot = temp_store("chain_oneshot");
        write_chained(&oneshot, 3);
        let staged = temp_store("chain_staged");
        write_chained(&staged, 2);
        let loaded = staged.load().expect("loads");
        let mut appender = staged.appender(&loaded).expect("appender");
        appender.append_record(record(2)).expect("record");
        let a = std::fs::read(oneshot.path()).expect("read");
        let b = std::fs::read(staged.path()).expect("read");
        assert_eq!(a, b, "a resumed chain must match an uninterrupted one");
        let _ = std::fs::remove_file(oneshot.path());
        let _ = std::fs::remove_file(staged.path());
    }

    #[test]
    fn broken_chain_links_and_duplicates_refuse_with_named_reasons() {
        // A record transplanted out of order (its chain link no longer
        // follows the previous head).
        let store = temp_store("verify");
        write_chained(&store, 3);
        let text = std::fs::read_to_string(store.path()).expect("read");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        std::fs::write(store.path(), lines.join("\n") + "\n").expect("write");
        let err = store.load().expect_err("reordered records must refuse");
        assert!(err.to_string().contains("reason="), "{err}");

        // A duplicated record line.
        let store = temp_store("verify_dup");
        write_chained(&store, 2);
        let text = std::fs::read_to_string(store.path()).expect("read");
        let last = text.lines().last().expect("has lines").to_string();
        std::fs::write(store.path(), text + &last + "\n").expect("write");
        let err = store.load().expect_err("duplicated records must refuse");
        assert!(err.to_string().contains("reason=duplicate-unit"), "{err}");
        let _ = std::fs::remove_file(store.path());

        // A forged seal (unit count lies).
        let store = temp_store("verify_seal");
        write_chained(&store, 2);
        let loaded = store.load().expect("loads");
        let footer = StoreFooter::new(
            &loaded.header.clone().expect("header"),
            7,
            loaded.chain_head.clone().expect("head"),
        );
        let mut file = store.open_for_append(loaded.valid_len).expect("open");
        ResultStore::append_line(&mut file, &StoreLine::Seal(footer)).expect("append");
        drop(file);
        let err = store.load().expect_err("a lying seal must refuse");
        assert!(err.to_string().contains("reason=unit-count-mismatch"), "{err}");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn lines_after_the_seal_refuse() {
        let store = temp_store("after_seal");
        write_chained(&store, 1);
        let loaded = store.load().expect("loads");
        let mut appender = store.appender(&loaded).expect("appender");
        appender.seal().expect("seal");
        appender.append_record(record(1)).expect("append still writes");
        let err = store.load().expect_err("records after the seal must refuse");
        assert!(err.to_string().contains("reason=line-after-seal"), "{err}");
        let _ = std::fs::remove_file(store.path());
    }
}
