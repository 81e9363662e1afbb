//! Replay bundles: per-record result digests, the running hash chain and
//! the sealed footer that turn an append-only store into a *certifiable*
//! artifact.
//!
//! Every record appended by the [`crate::store::StoreAppender`] is
//! wrapped in a [`ChainedRecord`] carrying two hashes:
//!
//! - `digest` — [`result_digest`], an FNV-1a64 over the record's
//!   `hash|index|route|result` payload: a fingerprint of *what this unit
//!   measured*, cheap to recompute from a fresh execution;
//! - `chain` — [`chain_step`]: `fnv1a(prev_chain ‖ unit_hash ‖ digest)`,
//!   seeded from the header via [`chain_seed`]. The chain commits every
//!   record to its whole prefix, so records cannot be reordered, dropped
//!   or spliced without breaking every subsequent link.
//!
//! A complete campaign is *sealed*: a [`StoreFooter`] line names the
//! final chain head, the engine/schema versions and the plan hash, and
//! carries its own integrity hash (`seal`) so a flipped bit inside the
//! footer itself is caught. Store + footer = a replay bundle: `dynring
//! certify` re-validates the chain (level 1) and re-executes a seeded
//! sample of units against their digests (level 2). See
//! `docs/CERTIFY.md`.

use serde::{Deserialize, Serialize};

use crate::executor::UnitRecord;
use crate::spec::fnv1a64;
use crate::store::StoreHeader;

/// The store schema generation written into [`StoreFooter::schema`].
/// Bumped when the line format changes shape (v1 stores carried bare
/// `Unit` lines and no footer; v2 added `Chained` records and the seal).
pub const STORE_SCHEMA: &str = "dynring-store-v2";

/// The engine version written into [`StoreFooter::engine`] (the campaign
/// crate's package version).
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");

fn hex16(hash: u64) -> String {
    format!("{hash:016x}")
}

/// The record's result digest: FNV-1a64 over
/// `hash|index|route|<result JSON>`. Everything that identifies what the
/// unit measured — and nothing that depends on *when* or *where* it ran —
/// so a certifying re-execution reproduces it bit for bit.
pub fn result_digest(record: &UnitRecord) -> String {
    let result = serde_json::to_string(&record.result)
        .expect("measurement serialization is infallible");
    let payload =
        format!("{}|{}|{}|{result}", record.hash, record.index, record.route);
    hex16(fnv1a64(payload.as_bytes()))
}

/// The chain's seed: FNV-1a64 over the header's canonical JSON. Seeding
/// from the header (name, spec hash, planned unit count) binds the chain
/// to the campaign, so a chain head is only meaningful for its own store.
pub fn chain_seed(header: &StoreHeader) -> String {
    let json =
        serde_json::to_string(header).expect("header serialization is infallible");
    hex16(fnv1a64(json.as_bytes()))
}

/// One chain link: `fnv1a(prev_chain ‖ unit_hash ‖ digest)` (all three as
/// their 16-hex spellings). The inputs are the *stored* hash and digest,
/// so the chain certifies the stored metadata's continuity while
/// [`result_digest`] separately certifies the data — one corrupted field
/// produces one named divergence, not a cascade.
pub fn chain_step(prev_chain: &str, unit_hash: &str, digest: &str) -> String {
    let mut bytes =
        Vec::with_capacity(prev_chain.len() + unit_hash.len() + digest.len());
    bytes.extend_from_slice(prev_chain.as_bytes());
    bytes.extend_from_slice(unit_hash.as_bytes());
    bytes.extend_from_slice(digest.as_bytes());
    hex16(fnv1a64(&bytes))
}

/// A v2 store line: the record plus its digest and chain link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainedRecord {
    /// The completed unit.
    pub record: UnitRecord,
    /// [`result_digest`] of `record`.
    pub digest: String,
    /// [`chain_step`] over the previous chain head, `record.hash` and
    /// `digest`.
    pub chain: String,
}

impl ChainedRecord {
    /// Wraps `record` as the successor of `prev_chain`.
    pub fn next(prev_chain: &str, record: UnitRecord) -> Self {
        let digest = result_digest(&record);
        let chain = chain_step(prev_chain, &record.hash, &digest);
        ChainedRecord { record, digest, chain }
    }
}

/// The bundle seal: the store's final line once every planned unit has a
/// record. Names what a verifier needs without replaying anything — the
/// final chain head, the schema/engine that wrote the store, the plan
/// hash — and carries its own integrity hash so footer corruption is as
/// detectable as record corruption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreFooter {
    /// [`STORE_SCHEMA`] at write time.
    pub schema: String,
    /// [`ENGINE_VERSION`] at write time.
    pub engine: String,
    /// The owning spec's content hash (must match the header).
    pub spec_hash: String,
    /// Planned unit count (must match the header).
    pub planned_units: usize,
    /// Records in the store (must equal `planned_units` for a seal).
    pub units: usize,
    /// The final chain head over all records.
    pub chain_head: String,
    /// FNV-1a64 over the other six fields ([`StoreFooter::expected_seal`]).
    pub seal: String,
}

impl StoreFooter {
    /// Builds the sealed footer for a completed store.
    pub fn new(header: &StoreHeader, units: usize, chain_head: String) -> Self {
        let mut footer = StoreFooter {
            schema: STORE_SCHEMA.to_string(),
            engine: ENGINE_VERSION.to_string(),
            spec_hash: header.spec_hash.clone(),
            planned_units: header.planned_units,
            units,
            chain_head,
            seal: String::new(),
        };
        footer.seal = footer.expected_seal();
        footer
    }

    /// What `seal` must be for the other fields: FNV-1a64 over
    /// `schema|engine|spec_hash|planned_units|units|chain_head`.
    pub fn expected_seal(&self) -> String {
        let payload = format!(
            "{}|{}|{}|{}|{}|{}",
            self.schema,
            self.engine,
            self.spec_hash,
            self.planned_units,
            self.units,
            self.chain_head
        );
        hex16(fnv1a64(payload.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::UnitMeasurement;
    use crate::spec::{UnitScheduler, WorkUnit};
    use dynring_analysis::{AlgorithmChoice, DynamicsChoice, PlacementSpec};

    fn record(index: usize) -> UnitRecord {
        let unit = WorkUnit {
            ring_size: 5,
            robots: 1,
            placement: PlacementSpec::EvenlySpaced { count: 1 },
            algorithm: AlgorithmChoice::Pef1,
            dynamics: DynamicsChoice::Bernoulli { p: 0.5 },
            scheduler: UnitScheduler::Sync,
            horizon: 10,
            seed: index as u64,
            replicas: 1,
        };
        UnitRecord {
            hash: unit.content_hash(),
            index,
            route: "batch".into(),
            unit,
            result: UnitMeasurement {
                replicas: 1,
                covered: 1,
                total_cover_time: 4,
                min_cover_time: Some(4),
                max_cover_time: Some(4),
            },
        }
    }

    fn header() -> StoreHeader {
        StoreHeader {
            name: "trace".into(),
            spec_hash: "0123456789abcdef".into(),
            planned_units: 2,
        }
    }

    #[test]
    fn digests_depend_on_every_identifying_field() {
        let base = record(0);
        let d0 = result_digest(&base);
        assert_eq!(d0, result_digest(&base), "digests are deterministic");
        let mut other = record(0);
        other.result.covered = 0;
        assert_ne!(d0, result_digest(&other), "result is covered");
        let mut other = record(0);
        other.route = "serial".into();
        assert_ne!(d0, result_digest(&other), "route is covered");
        let mut other = record(0);
        other.index = 7;
        assert_ne!(d0, result_digest(&other), "index is covered");
    }

    #[test]
    fn chains_commit_each_record_to_its_prefix() {
        let seed = chain_seed(&header());
        let a = ChainedRecord::next(&seed, record(0));
        let b = ChainedRecord::next(&a.chain, record(1));
        // Re-deriving reproduces the links…
        assert_eq!(a.chain, chain_step(&seed, &a.record.hash, &a.digest));
        assert_eq!(b.chain, chain_step(&a.chain, &b.record.hash, &b.digest));
        // …and any prefix change breaks every later link.
        let other_seed = chain_seed(&StoreHeader { name: "other".into(), ..header() });
        assert_ne!(other_seed, seed);
        let a2 = ChainedRecord::next(&other_seed, record(0));
        assert_ne!(a2.chain, a.chain);
        assert_ne!(
            ChainedRecord::next(&a2.chain, record(1)).chain,
            b.chain
        );
    }

    #[test]
    fn footers_seal_their_own_fields() {
        let footer = StoreFooter::new(&header(), 2, "aaaaaaaaaaaaaaaa".into());
        assert_eq!(footer.schema, STORE_SCHEMA);
        assert_eq!(footer.seal, footer.expected_seal());
        // Any field change invalidates the seal.
        let mut bad = footer.clone();
        bad.units = 3;
        assert_ne!(bad.seal, bad.expected_seal());
        let mut bad = footer.clone();
        bad.engine = "0.0.0-forged".into();
        assert_ne!(bad.seal, bad.expected_seal());
        let mut bad = footer;
        bad.chain_head = "bbbbbbbbbbbbbbbb".into();
        assert_ne!(bad.seal, bad.expected_seal());
    }
}
