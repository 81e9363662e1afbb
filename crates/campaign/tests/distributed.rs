//! Distributed-campaign properties: arbitrary kill points across shard
//! workers, followed by per-shard resume and a merge, must reproduce the
//! uninterrupted serial store byte for byte — and the merged bundle must
//! certify at level 1 and level 2. Shard stores that cannot belong
//! together (overlapping ranges, foreign specs) must always refuse with
//! a named `MERGE-CONFLICT` / spec-mismatch diagnostic, never merge
//! silently.

use proptest::prelude::*;

use dynring_analysis::{AlgorithmChoice, DynamicsChoice};
use dynring_campaign::{
    certify, merge_stores, run_campaign, CampaignError, CampaignSpec, CertifyOptions,
    FailPlan, FaultKind, PlacementAxis, ResultStore, RunOptions, ShardSel, UnitScheduler,
};

/// Twelve units (batch-routed Bernoulli and serial static), cheap enough
/// to re-run per proptest case.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "distributed".into(),
        ring_sizes: vec![4, 5],
        robots: vec![1],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef1],
        dynamics: vec![DynamicsChoice::Bernoulli { p: 0.6 }, DynamicsChoice::Static],
        schedulers: vec![UnitScheduler::Sync],
        seeds: vec![1, 2, 3],
        horizon: 100,
        replicas: 2,
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let path = std::env::temp_dir().join(format!("dynring_distributed_{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    ResultStore::new(path)
}

fn remove(store: &ResultStore) {
    let _ = std::fs::remove_file(store.path());
}

fn shard_opts(sel: ShardSel, fault: Option<FailPlan>) -> RunOptions {
    RunOptions { workers: 1, max_units: None, fresh: false, fault, shard: Some(sel), poison: None, events: None, slow_unit: None }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One shard worker killed at an arbitrary byte position, resumed,
    /// then merged with its siblings: the canonical store is
    /// byte-identical to a serial run and certifies at level 1 and 2.
    #[test]
    fn killed_shard_workers_resume_and_merge_byte_identically(
        count in 1usize..4,
        victim in 0usize..4,
        position in 0.0f64..1.0,
    ) {
        let victim = victim % count;
        let spec = spec();
        let tag = format!("{count}_{victim}_{}", (position * 1000.0) as u64);

        let serial = temp_store(&format!("serial_{tag}"));
        run_campaign(&spec, &serial, &RunOptions {
            workers: 1, max_units: None, fresh: true, fault: None, shard: None, poison: None, events: None, slow_unit: None,
        }).expect("serial reference runs");
        let expected = std::fs::read(serial.path()).expect("readable");

        let shards: Vec<ResultStore> =
            (0..count).map(|i| temp_store(&format!("shard{i}_{tag}"))).collect();
        for (i, store) in shards.iter().enumerate() {
            let sel = ShardSel::Balanced { index: i, count };
            if i == victim {
                // Kill mid-write at a position scaled to the reference
                // size; the tear lands in this shard's own store. The
                // fault may also land past the shard's end and never
                // fire — then the shard simply completes.
                let after_bytes =
                    (expected.len() as f64 / count as f64 * position) as u64;
                let kill = FailPlan::new(FaultKind::Kill { after_bytes });
                match run_campaign(&spec, store, &shard_opts(sel, Some(kill))) {
                    Err(CampaignError::InjectedFault(_)) | Ok(_) => {}
                    Err(e) => prop_assert!(false, "unexpected shard error: {e}"),
                }
                // Crash-safe resume of just this shard.
                run_campaign(&spec, store, &shard_opts(sel, None))
                    .expect("killed shard resumes");
            } else {
                run_campaign(&spec, store, &shard_opts(sel, None))
                    .expect("healthy shard runs");
            }
        }

        let merged = temp_store(&format!("merged_{tag}"));
        let outcome = merge_stores(&spec, &shards, &merged).expect("merge succeeds");
        prop_assert!(outcome.sealed);
        let bytes = std::fs::read(merged.path()).expect("readable");
        prop_assert_eq!(&bytes, &expected, "merge must reproduce the serial bytes");

        for level in [1u8, 2] {
            let verdict = certify(
                &spec,
                &merged,
                &CertifyOptions { level, sample: 4, seed: 0xCE47 },
            ).expect("certification runs");
            prop_assert!(verdict.pass, "merged bundle must certify at level {level}");
        }

        remove(&serial);
        remove(&merged);
        for s in &shards { remove(s); }
    }

    /// Shard 0 of N and shard 0 of M both own plan unit 0: merging them
    /// must always refuse with the named overlap conflict.
    #[test]
    fn overlapping_shards_always_refuse_by_name(
        count_a in 2usize..5,
        count_b in 2usize..5,
    ) {
        let spec = spec();
        let tag = format!("overlap_{count_a}_{count_b}");
        let a = temp_store(&format!("a_{tag}"));
        let b = temp_store(&format!("b_{tag}"));
        run_campaign(&spec, &a, &shard_opts(ShardSel::Balanced { index: 0, count: count_a }, None))
            .expect("shard a runs");
        run_campaign(&spec, &b, &shard_opts(ShardSel::Balanced { index: 0, count: count_b }, None))
            .expect("shard b runs");
        let merged = temp_store(&format!("m_{tag}"));
        let err = merge_stores(&spec, &[a.clone(), b.clone()], &merged)
            .expect_err("overlap must refuse");
        let msg = err.to_string();
        prop_assert!(msg.contains("MERGE-CONFLICT"), "{msg}");
        prop_assert!(msg.contains("reason=overlap"), "{msg}");
        remove(&a);
        remove(&b);
        remove(&merged);
    }

    /// A shard store of a mutated spec never merges under the original
    /// spec: refused by hash with the named spec-mismatch conflict.
    #[test]
    fn spec_mismatched_shards_always_refuse_by_name(delta in 1u64..6) {
        let spec = spec();
        let mut other = spec.clone();
        other.horizon += delta;
        let tag = format!("mismatch_{delta}");
        let foreign = temp_store(&format!("f_{tag}"));
        run_campaign(&other, &foreign, &shard_opts(ShardSel::Balanced { index: 0, count: 2 }, None))
            .expect("foreign shard runs");
        let merged = temp_store(&format!("m_{tag}"));
        let err = merge_stores(&spec, std::slice::from_ref(&foreign), &merged)
            .expect_err("foreign spec must refuse");
        let msg = err.to_string();
        prop_assert!(msg.contains("reason=spec-mismatch"), "{msg}");
        remove(&foreign);
        remove(&merged);
    }
}
