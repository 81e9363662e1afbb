//! Crash-safety properties under deterministic fault injection: for
//! *every* injected fault, a subsequent `campaign resume` either
//! reproduces the uninterrupted store byte for byte or refuses with a
//! named diagnostic — it never silently drops, duplicates or alters a
//! unit.
//!
//! Crash faults (`Kill`, `TornRecord`) leave a torn tail the resume
//! truncates and re-executes, so they must *always* converge to the
//! reference bytes. Corruption faults (`BitFlip`, `DuplicateAppend`)
//! leave a fully-written but damaged store; resume must detect the
//! damage (`STORE-CORRUPT …`) unless the damage sits in the torn-tail
//! region, where truncation provably heals it back to the reference.

use proptest::prelude::*;

use dynring_analysis::{AlgorithmChoice, DynamicsChoice};
use dynring_campaign::{
    run_campaign, CampaignError, CampaignSpec, CertifyOptions, FailPlan, FaultKind,
    PlacementAxis, ResultStore, RunOptions, StoreLine, UnitScheduler,
};

/// Four units (two batch-routed Bernoulli, two serial static), cheap
/// enough to re-run hundreds of times.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "faults".into(),
        ring_sizes: vec![4],
        robots: vec![1],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef1],
        dynamics: vec![DynamicsChoice::Bernoulli { p: 0.6 }, DynamicsChoice::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: vec![1, 2],
        horizon: 100,
        replicas: 2,
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let path = std::env::temp_dir().join(format!("dynring_faults_{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    ResultStore::new(path)
}

fn remove(store: &ResultStore) {
    let _ = std::fs::remove_file(store.path());
}

/// The uninterrupted reference bytes for [`spec`] (serial, no faults).
fn reference_bytes(tag: &str) -> Vec<u8> {
    let store = temp_store(tag);
    run_campaign(
        &spec(),
        &store,
        &RunOptions { workers: 1, max_units: None, fresh: true, fault: None, shard: None, poison: None, events: None, slow_unit: None },
    )
    .expect("reference campaign runs");
    let bytes = std::fs::read(store.path()).expect("store readable");
    remove(&store);
    bytes
}

/// Runs with `fault` armed, then resumes without it; returns the faulted
/// run's result and the final store bytes (when resume succeeded) or the
/// resume error.
fn run_faulted_then_resume(
    tag: &str,
    fault: FailPlan,
) -> (Result<(), CampaignError>, Result<Vec<u8>, CampaignError>) {
    let store = temp_store(tag);
    let faulted = run_campaign(
        &spec(),
        &store,
        &RunOptions { workers: 1, max_units: None, fresh: true, fault: Some(fault), shard: None, poison: None, events: None, slow_unit: None },
    )
    .map(|_| ());
    let resumed = run_campaign(
        &spec(),
        &store,
        &RunOptions { workers: 1, max_units: None, fresh: false, fault: None, shard: None, poison: None, events: None, slow_unit: None },
    )
    .map(|_| std::fs::read(store.path()).expect("store readable"));
    remove(&store);
    (faulted, resumed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill at any byte position: the run aborts with the injected-fault
    /// error and resume converges to the reference bytes.
    #[test]
    fn kill_at_any_byte_resumes_byte_identically(position in 0.0f64..1.0) {
        let expected = reference_bytes("kill_ref");
        let after_bytes = (expected.len() as f64 * position) as u64;
        let (faulted, resumed) = run_faulted_then_resume(
            &format!("kill_{after_bytes}"),
            FailPlan::new(FaultKind::Kill { after_bytes }),
        );
        prop_assert!(
            matches!(faulted, Err(CampaignError::InjectedFault(_))),
            "a kill inside the written region must abort the run: {faulted:?}"
        );
        let bytes = resumed.expect("resume after a kill must succeed");
        prop_assert_eq!(&bytes, &expected, "kill after {} bytes", after_bytes);
    }

    /// A torn single-record write: same contract as a kill.
    #[test]
    fn torn_record_writes_resume_byte_identically(record in 0usize..4, keep in 0usize..200) {
        let expected = reference_bytes("torn_ref");
        let (faulted, resumed) = run_faulted_then_resume(
            &format!("torn_{record}_{keep}"),
            FailPlan::new(FaultKind::TornRecord { record, keep }),
        );
        prop_assert!(
            matches!(faulted, Err(CampaignError::InjectedFault(_))),
            "a torn record write must abort the run: {faulted:?}"
        );
        let bytes = resumed.expect("resume after a torn write must succeed");
        prop_assert_eq!(&bytes, &expected, "record {} torn at {} bytes", record, keep);
    }

    /// A silent bit flip inside a record line: the faulted run completes,
    /// and resume either refuses with the named diagnostic or — when the
    /// flip hit the final record's newline, merging it into the seal and
    /// turning both into a torn tail — heals back to the reference bytes.
    #[test]
    fn bit_flips_are_detected_or_healed(
        record in 0usize..4,
        byte in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let expected = reference_bytes("flip_ref");
        let (faulted, resumed) = run_faulted_then_resume(
            &format!("flip_{record}_{byte}_{xor}"),
            FailPlan::new(FaultKind::BitFlip { record, byte, xor }),
        );
        prop_assert!(faulted.is_ok(), "a bit flip must not abort the run: {faulted:?}");
        match resumed {
            Ok(bytes) => prop_assert_eq!(
                &bytes,
                &expected,
                "a resume that accepts a flipped store must have healed it \
                 (record {}, byte {}, xor {:#04x})",
                record,
                byte,
                xor
            ),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("STORE-CORRUPT"),
                    "refusal must carry the named diagnostic, got: {}",
                    msg
                );
            }
        }
    }

    /// A duplicated record append: the faulted run completes, and resume
    /// must refuse naming the duplicated unit — never absorb or
    /// double-count it.
    #[test]
    fn duplicate_appends_refuse_with_a_named_diagnostic(record in 0usize..4) {
        let (faulted, resumed) = run_faulted_then_resume(
            &format!("dup_{record}"),
            FailPlan::new(FaultKind::DuplicateAppend { record }),
        );
        prop_assert!(faulted.is_ok(), "a duplicate append must not abort the run: {faulted:?}");
        let err = resumed.expect_err("a duplicated record must refuse to resume");
        let msg = err.to_string();
        prop_assert!(
            msg.contains("reason=duplicate-unit"),
            "refusal must name the duplicate, got: {}",
            msg
        );
    }

    /// The universal contract over seeded plans of all four kinds:
    /// byte-identity or a named refusal, nothing else.
    #[test]
    fn every_seeded_fault_resumes_identically_or_refuses_by_name(seed in 0u64..64) {
        let expected = reference_bytes("seeded_ref");
        let plan = FailPlan::from_seed(seed, 4, expected.len() as u64 + 64);
        let (_, resumed) = run_faulted_then_resume(&format!("seeded_{seed}"), plan);
        match resumed {
            Ok(bytes) => prop_assert_eq!(&bytes, &expected, "seed {} ({:?})", seed, plan.kind()),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("STORE-CORRUPT"),
                    "seed {} ({:?}): refusal must be named, got: {}",
                    seed,
                    plan.kind(),
                    msg
                );
            }
        }
    }

    /// Satellite pin: flipping a random byte of a random *interior*
    /// record (any record line but the last, newline included) makes load
    /// fail with the positional `STORE-CORRUPT line=… offset=…`
    /// diagnostic — interior damage is never absorbed by truncation.
    #[test]
    fn interior_record_flips_always_refuse_load(pick in 0.0f64..1.0, xor in 1u8..=255) {
        let store = temp_store("interior_flip");
        run_campaign(
            &spec(),
            &store,
            &RunOptions { workers: 1, max_units: None, fresh: true, fault: None, shard: None, poison: None, events: None, slow_unit: None },
        )
        .expect("campaign runs");
        let mut bytes = std::fs::read(store.path()).expect("store readable");
        // Region: from the start of the first record line to the start of
        // the last record line — every flip there is interior damage
        // (later lines follow), so truncation cannot repair it.
        let newlines: Vec<usize> =
            bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i).collect();
        let start = newlines[0] + 1; // past the header line
        let end = newlines[newlines.len() - 3] + 1; // start of the last record line
        let target = start + ((end - start - 1) as f64 * pick) as usize;
        bytes[target] ^= xor;
        std::fs::write(store.path(), &bytes).expect("write flipped store");
        let err = store.load().expect_err("interior damage must refuse");
        let msg = err.to_string();
        prop_assert!(
            msg.contains("STORE-CORRUPT line=") && msg.contains("offset="),
            "diagnostic must be positional, got: {}",
            msg
        );
        remove(&store);
    }
}

/// Satellite pin: a result altered *consistently* (digest, chain and seal
/// all recomputed, so the structure is intact) passes level 1 but is
/// caught by a level-2 re-execution naming the diverging field.
#[test]
fn certify_level_2_catches_a_consistently_altered_result() {
    use dynring_campaign::trace::{chain_seed, ChainedRecord, StoreFooter};
    use dynring_campaign::{certify, render_verdict};

    let spec = spec();
    let store = temp_store("altered");
    run_campaign(
        &spec,
        &store,
        &RunOptions { workers: 1, max_units: None, fresh: true, fault: None, shard: None, poison: None, events: None, slow_unit: None },
    )
    .expect("campaign runs");

    // Rewrite the store: bump one record's total_cover_time, then rebuild
    // every digest, chain link and the seal so the bundle is internally
    // consistent — the forgery a replay (and only a replay) can catch.
    let text = std::fs::read_to_string(store.path()).expect("store readable");
    let mut header = None;
    let mut head = String::new();
    let mut records = Vec::new();
    let mut forged_unit = String::new();
    for line in text.lines() {
        match serde_json::from_str::<StoreLine>(line).expect("store line parses") {
            StoreLine::Header(h) => {
                head = chain_seed(&h);
                header = Some(h);
            }
            StoreLine::Chained(chained) => records.push(chained.record),
            StoreLine::Seal(_) => {}
        }
    }
    records[1].result.total_cover_time += 1;
    forged_unit.push_str(&records[1].hash);
    let header = header.expect("store has a header");
    let mut out = serde_json::to_string(&StoreLine::Header(header.clone())).expect("json");
    out.push('\n');
    let n = records.len();
    for record in records {
        let chained = ChainedRecord::next(&head, record);
        head = chained.chain.clone();
        out.push_str(&serde_json::to_string(&StoreLine::Chained(chained)).expect("json"));
        out.push('\n');
    }
    let footer = StoreFooter::new(&header, n, head);
    out.push_str(&serde_json::to_string(&StoreLine::Seal(footer)).expect("json"));
    out.push('\n');
    std::fs::write(store.path(), out).expect("write forged store");

    let v1 = certify(&spec, &store, &CertifyOptions { level: 1, sample: 0, seed: 0 })
        .expect("certifies");
    assert!(v1.pass, "a consistent forgery must pass level 1: {:?}", v1.failures);
    let v2 = certify(&spec, &store, &CertifyOptions { level: 2, sample: 64, seed: 3 })
        .expect("certifies");
    assert!(!v2.pass, "level 2 must catch the forgery");
    let caught = v2
        .failures
        .iter()
        .any(|f| f.unit == forged_unit && f.field == "total_cover_time");
    assert!(caught, "the diverging field must be named: {:?}", v2.failures);
    let text = render_verdict(&v2);
    assert!(text.contains("CERTIFY-FAIL unit="), "{text}");
    remove(&store);
}
