//! The store–plan binding under every verb: a store that is not the
//! plan's — a record at the wrong plan index, a header naming another
//! plan shape, a record on the wrong route, a header of another spec —
//! is refused by `resume` and `report` (`STORE-CORRUPT reason=…`, or the
//! typed spec mismatch), by `merge` (`MERGE-CONFLICT reason=…`) and by
//! certify level 1 (a `CERTIFY-FAIL` with the same token), and a refused
//! resume leaves the file's bytes alone. Each forgery recomputes
//! digests and the chain, so only the binding can catch it.

use dynring_analysis::{AlgorithmChoice, DynamicsChoice};
use dynring_campaign::trace::{chain_seed, ChainedRecord};
use dynring_campaign::{
    certify, load_report, merge_stores, run_campaign, CampaignError, CampaignSpec,
    CertifyOptions, PlacementAxis, ResultStore, RunOptions, ShardSel, StoreHeader, StoreLine,
    UnitRecord, UnitScheduler,
};

/// Four units: two batch-routed Bernoulli, two serial static.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "binding".into(),
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
    let path = std::env::temp_dir().join(format!("dynring_binding_{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    ResultStore::new(path)
}

fn resume() -> RunOptions {
    RunOptions { workers: 1, fresh: false, ..RunOptions::default() }
}

/// A complete store of [`spec`], split into its header and records.
fn honest(tag: &str) -> (StoreHeader, Vec<UnitRecord>) {
    let store = temp_store(tag);
    run_campaign(&spec(), &store, &RunOptions { workers: 1, ..RunOptions::default() })
        .expect("campaign runs");
    let loaded = store.load().expect("loads");
    let _ = std::fs::remove_file(store.path());
    (loaded.header.expect("header"), loaded.records)
}

/// Writes `header` and `records` as an internally consistent, unsealed
/// store: every digest and chain link recomputed from `header`.
fn write_forged(store: &ResultStore, header: &StoreHeader, records: Vec<UnitRecord>) {
    let mut head = chain_seed(header);
    let mut out = serde_json::to_string(&StoreLine::Header(header.clone())).expect("json") + "\n";
    for record in records {
        let chained = ChainedRecord::next(&head, record);
        head = chained.chain.clone();
        out += &(serde_json::to_string(&StoreLine::Chained(chained)).expect("json") + "\n");
    }
    std::fs::write(store.path(), out).expect("write forged store");
}

type Forgery = fn(&mut StoreHeader, &mut Vec<UnitRecord>);

#[test]
fn every_verb_refuses_a_store_that_is_not_the_plans_with_the_shared_token() {
    let cases: [(&str, Forgery); 4] = [
        // Record 1 moved to plan index 2 (record 2 dropped, so order and
        // uniqueness still hold).
        ("foreign-unit", |_, records| {
            let moved = records.remove(1);
            records[1] = UnitRecord { index: 2, ..moved };
        }),
        ("plan-mismatch", |header, _| header.planned_units += 1),
        ("route-mismatch", |_, records| {
            let batch = records.iter_mut().find(|r| r.route == "batch").expect("a batch unit");
            batch.route = "serial".into();
        }),
        ("spec-mismatch", |header, _| header.spec_hash = "0123456789abcdef".into()),
    ];
    let spec = spec();
    for (token, forge) in cases {
        let (mut header, mut records) = honest(token);
        forge(&mut header, &mut records);
        let store = temp_store(&format!("{token}_forged"));
        write_forged(&store, &header, records);
        let before = std::fs::read(store.path()).expect("read");

        // run/resume and report: STORE-CORRUPT with the token, or the
        // typed mismatch for a foreign spec.
        let resumed = run_campaign(&spec, &store, &resume()).map(|_| ());
        let reported = load_report(&spec, &store).map(|_| ());
        for (verb, result) in [("resume", resumed), ("report", reported)] {
            match result {
                Err(CampaignError::SpecMismatch { .. }) if token == "spec-mismatch" => {}
                Err(CampaignError::CorruptStore(msg)) => assert!(
                    msg.contains("STORE-CORRUPT") && msg.contains(&format!("reason={token} ")),
                    "{verb}/{token}: {msg}"
                ),
                other => panic!("{verb} must refuse a {token} store, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read(store.path()).expect("read"), before, "{token}: resume wrote");

        // merge: MERGE-CONFLICT with the token.
        let out = temp_store(&format!("{token}_merged"));
        let err = merge_stores(&spec, std::slice::from_ref(&store), &out)
            .expect_err("merge must refuse");
        let msg = err.to_string();
        assert!(msg.starts_with(&format!("MERGE-CONFLICT reason={token} ")), "{token}: {msg}");

        // certify level 1: a CERTIFY-FAIL naming the token.
        let verdict = certify(&spec, &store, &CertifyOptions::default()).expect("certifies");
        assert!(!verdict.pass);
        assert!(
            verdict.failures.iter().any(|f| f.field == token),
            "{token}: {:?}",
            verdict.failures
        );
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(out.path());
    }
}

#[test]
fn a_shard_resume_refuses_records_outside_its_range() {
    let spec = spec();
    let store = temp_store("shard_range");
    run_campaign(&spec, &store, &RunOptions { workers: 1, ..RunOptions::default() })
        .expect("campaign runs");
    let shard = RunOptions { shard: Some(ShardSel::Range { start: 0, units: 2 }), ..resume() };
    let err = run_campaign(&spec, &store, &shard).expect_err("out-of-range records refuse");
    let msg = err.to_string();
    assert!(msg.contains("STORE-CORRUPT reason=shard-membership"), "{msg}");
    let _ = std::fs::remove_file(store.path());
}

#[test]
fn a_v1_record_line_is_refused_by_name_and_never_truncated() {
    let spec = spec();
    let (header, records) = honest("v1_source");
    let store = temp_store("v1");
    let v1_line = format!("{{\"Unit\":{}}}\n", serde_json::to_string(&records[0]).expect("json"));
    let header_line = serde_json::to_string(&StoreLine::Header(header)).expect("json") + "\n";
    std::fs::write(store.path(), header_line + &v1_line).expect("write v1 store");
    let before = std::fs::read(store.path()).expect("read");

    let loaded = store.load().expect_err("load refuses").to_string();
    let resumed = run_campaign(&spec, &store, &resume()).expect_err("resume refuses").to_string();
    for (verb, msg) in [("load", loaded), ("resume", resumed)] {
        assert!(
            msg.contains("STORE-CORRUPT line=2") && msg.contains("reason=v1-record"),
            "{verb}: {msg}"
        );
    }
    assert_eq!(std::fs::read(store.path()).expect("read"), before, "the refused resume wrote");

    let verdict = certify(&spec, &store, &CertifyOptions::default()).expect("certifies");
    assert!(!verdict.pass);
    assert!(
        verdict.failures.iter().any(|f| f.got.starts_with("v1-record")),
        "{:?}",
        verdict.failures
    );
    let _ = std::fs::remove_file(store.path());
}
