//! Campaign determinism properties: `run` → interrupt (either a polite
//! `--max-units` stop or a byte-level truncation mid-record) → `resume`
//! reproduces the uninterrupted store bit for bit, and parallel execution
//! equals serial execution bytewise.

use proptest::prelude::*;

use dynring_analysis::{AlgorithmChoice, DynamicsChoice};
use dynring_campaign::{
    run_campaign, CampaignSpec, PlacementAxis, ResultStore, RunOptions, UnitScheduler,
};

/// A small but varied spec family: every case mixes batch-routed
/// (bernoulli × sync) and serial units.
fn spec_for(ring: usize, robots: usize, p_milli: u64, seeds: usize, replicas: usize) -> CampaignSpec {
    CampaignSpec {
        name: format!("prop-{ring}-{robots}-{p_milli}-{seeds}-{replicas}"),
        ring_sizes: vec![ring, ring + 2],
        robots: vec![1, robots],
        placements: vec![PlacementAxis::EvenlySpaced],
        algorithms: vec![AlgorithmChoice::Pef3Plus, AlgorithmChoice::BounceOnMissingEdge],
        dynamics: vec![
            DynamicsChoice::Bernoulli { p: p_milli as f64 / 1000.0 },
            DynamicsChoice::Static,
        ],
        schedulers: vec![UnitScheduler::Sync, UnitScheduler::Ssync],
        seeds: (0..seeds as u64).collect(),
        horizon: 150,
        replicas,
    }
}

fn temp_store(tag: &str) -> ResultStore {
    let path = std::env::temp_dir().join(format!("dynring_determinism_{tag}.jsonl"));
    let _ = std::fs::remove_file(&path);
    ResultStore::new(path)
}

fn remove(store: &ResultStore) {
    let _ = std::fs::remove_file(store.path());
}

fn run_to_completion(spec: &CampaignSpec, store: &ResultStore, workers: usize) -> Vec<u8> {
    run_campaign(
        spec,
        store,
        &RunOptions { workers, max_units: None, fresh: true, fault: None, shard: None, poison: None, events: None, slow_unit: None },
    )
    .expect("campaign runs");
    std::fs::read(store.path()).expect("store readable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn truncated_store_resumes_to_identical_bytes(
        ring in 4usize..6,
        robots in 2usize..4,
        p_milli in 350u64..750,
        seeds in 1usize..3,
        replicas in 1usize..6,
        cut_fraction in 0.05f64..0.95,
    ) {
        let spec = spec_for(ring, robots, p_milli, seeds, replicas);
        let tag = format!("trunc_{ring}_{robots}_{p_milli}_{seeds}_{replicas}");

        let reference = temp_store(&format!("{tag}_ref"));
        let expected = run_to_completion(&spec, &reference, 1);

        // Interrupt by chopping the finished store at an arbitrary byte —
        // mid-line cuts model a torn write, line-aligned cuts model a
        // clean kill between records.
        let interrupted = temp_store(&format!("{tag}_cut"));
        let cut = ((expected.len() as f64 * cut_fraction) as usize).max(1);
        std::fs::write(interrupted.path(), &expected[..cut]).expect("write truncated store");

        let outcome = run_campaign(
            &spec,
            &interrupted,
            &RunOptions { workers: 2, max_units: None, fresh: false, fault: None, shard: None, poison: None, events: None, slow_unit: None },
        );
        // A cut inside the header line leaves no header: the runner then
        // rebuilds the store from scratch, which must also converge.
        prop_assert!(outcome.is_ok(), "resume failed: {:?}", outcome);
        let resumed = std::fs::read(interrupted.path()).expect("store readable");
        prop_assert_eq!(
            &resumed,
            &expected,
            "resume after a {cut}-byte truncation diverged"
        );
        remove(&reference);
        remove(&interrupted);
    }

    #[test]
    fn parallel_execution_equals_serial_bytewise(
        ring in 4usize..6,
        robots in 2usize..4,
        p_milli in 350u64..750,
        replicas in 1usize..6,
        workers in 2usize..9,
    ) {
        let spec = spec_for(ring, robots, p_milli, 1, replicas);
        let tag = format!("par_{ring}_{robots}_{p_milli}_{replicas}_{workers}");
        let serial = temp_store(&format!("{tag}_serial"));
        let parallel = temp_store(&format!("{tag}_par"));
        let a = run_to_completion(&spec, &serial, 1);
        let b = run_to_completion(&spec, &parallel, workers);
        prop_assert_eq!(&a, &b, "workers = {}", workers);
        remove(&serial);
        remove(&parallel);
    }

    #[test]
    fn interrupt_points_compose_with_resume(
        stop_a in 1usize..6,
        stop_b in 1usize..6,
    ) {
        // Polite interruptions (--max-units) at two successive points,
        // then a finishing resume: still byte-identical to one shot.
        let spec = spec_for(4, 2, 500, 1, 3);
        let reference = temp_store("compose_ref");
        let expected = run_to_completion(&spec, &reference, 1);

        let staged = temp_store("compose_staged");
        run_campaign(
            &spec,
            &staged,
            &RunOptions { workers: 1, max_units: Some(stop_a), fresh: true, fault: None, shard: None, poison: None, events: None, slow_unit: None },
        )
        .expect("first stage runs");
        run_campaign(
            &spec,
            &staged,
            &RunOptions { workers: 3, max_units: Some(stop_b), fresh: false, fault: None, shard: None, poison: None, events: None, slow_unit: None },
        )
        .expect("second stage runs");
        run_campaign(
            &spec,
            &staged,
            &RunOptions { workers: 2, max_units: None, fresh: false, fault: None, shard: None, poison: None, events: None, slow_unit: None },
        )
        .expect("finishing stage runs");
        let staged_bytes = std::fs::read(staged.path()).expect("store readable");
        prop_assert_eq!(&staged_bytes, &expected);
        remove(&reference);
        remove(&staged);
    }
}
