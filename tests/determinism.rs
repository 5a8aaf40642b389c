//! Golden determinism guards for the campaign layer.
//!
//! Two invariants, locked to bit patterns:
//!
//! 1. **Refactor safety** — the fixed-seed `mtrt` campaign produces this
//!    exact record stream per scenario. The table was captured from the
//!    pre-`CrossRunOptimizer` campaign loop; the scenario-agnostic loop
//!    must reproduce it bit-for-bit (floats compared via `to_bits`). A
//!    fixed-seed `antlr` Evolve stream does the same for categorical
//!    features, and a hash of each Evolve campaign's final exported state
//!    pins the learned history byte for byte.
//! 2. **Parallel == sequential** — a [`CampaignService`] with a wide
//!    worker pool yields outcomes bit-identical to a one-worker service
//!    over the same submissions, because every campaign seeds its own
//!    generator and the shared oracle memoizes only deterministic
//!    baseline cycles.
//!
//! Regenerate the tables and hashes with `cargo run --release --example
//! golden_capture` after an *intentional* behavior change.

use evolvable_vm::evovm::{
    Bench, Campaign, CampaignConfig, CampaignOutcome, CampaignService, DefaultOracle, MemoryStore,
    ModelStore, RunRecord, Scenario, ShardedStore, ShutdownMode,
};
use evolvable_vm::workloads;
use std::sync::Arc;

/// (run_index, input_index, cycles, default_cycles, speedup bits,
/// confidence bits, accuracy bits, predicted, overhead_fraction bits).
type Golden = (usize, usize, u64, u64, u64, u64, u64, bool, u64);

const RUNS: usize = 12;
const SEED: u64 = 7;

const GOLDEN_DEFAULT: [Golden; RUNS] = [
    (
        0,
        61,
        4964841,
        4964841,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        1,
        16,
        2313745,
        2313745,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        2,
        78,
        2619710,
        2619710,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        3,
        56,
        4286785,
        4286785,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        4,
        42,
        5170870,
        5170870,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        5,
        65,
        4120991,
        4120991,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        6,
        8,
        6080013,
        6080013,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        7,
        72,
        5338154,
        5338154,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        8,
        65,
        4120991,
        4120991,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        9,
        69,
        4843909,
        4843909,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        10,
        41,
        5762342,
        5762342,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        11,
        90,
        4697215,
        4697215,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
];

const GOLDEN_REP: [Golden; RUNS] = [
    (
        0,
        61,
        4964841,
        4964841,
        0x3ff0000000000000,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x0000000000000000,
    ),
    (
        1,
        16,
        1838660,
        2313745,
        0x3ff42259ed538398,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        2,
        78,
        2065041,
        2619710,
        0x3ff44c2effda74d6,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        3,
        56,
        3186503,
        4286785,
        0x3ff5865389eb9254,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        4,
        42,
        3621410,
        5170870,
        0x3ff6d884beee0f35,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        5,
        65,
        2708404,
        4120991,
        0x3ff8584c20ae1028,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        6,
        8,
        4755568,
        6080013,
        0x3ff474c0ac978b8b,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        7,
        72,
        3674362,
        5338154,
        0x3ff73eb6e17cdb66,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        8,
        65,
        2644684,
        4120991,
        0x3ff8ee74b93f1adb,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        9,
        69,
        3717952,
        4843909,
        0x3ff4d87241f379e0,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        10,
        41,
        4426671,
        5762342,
        0x3ff4d3e59317ae33,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
    (
        11,
        90,
        3531707,
        4697215,
        0x3ff547bb593ed9bc,
        0x0000000000000000,
        0x0000000000000000,
        true,
        0x0000000000000000,
    ),
];

const GOLDEN_EVOLVE: [Golden; RUNS] = [
    (
        0,
        61,
        5039136,
        4964841,
        0x3fef87386e9c67ff,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x3f019553908984e7,
    ),
    (
        1,
        16,
        2309736,
        2313745,
        0x3ff0071c0266b0ac,
        0x3fe58602abda9a0b,
        0x3feebf7187ca92ec,
        false,
        0x3f132e41dd4ddd2a,
    ),
    (
        2,
        78,
        2670500,
        2619710,
        0x3fef64327445eef3,
        0x3fecdb67338e616a,
        0x3ff0000000000000,
        false,
        0x3f1096eb57ddeda3,
    ),
    (
        3,
        56,
        3188245,
        4286785,
        0x3ff58350c9d2af16,
        0x3fef0e9ef5ddea06,
        0x3ff0000000000000,
        true,
        0x3f41e762a05a4c3c,
    ),
    (
        4,
        42,
        3584146,
        5170870,
        0x3ff7155332712cae,
        0x3fed06d14c0c5ef4,
        0x3fec280b70fbb5a2,
        true,
        0x3f3fe394a14d755b,
    ),
    (
        5,
        65,
        2646948,
        4120991,
        0x3ff8e8ff337d7008,
        0x3fef1ba5306a1c7c,
        0x3ff0000000000000,
        true,
        0x3f459704e8ac02b8,
    ),
    (
        6,
        8,
        4763232,
        6080013,
        0x3ff46c53a56b5ff4,
        0x3fefa366433af074,
        0x3fefdd946fdd9470,
        true,
        0x3f37f7bb23387a54,
    ),
    (
        7,
        72,
        3676626,
        5338154,
        0x3ff73b0ccf213627,
        0x3fefe438475e7b56,
        0x3ff0000000000000,
        true,
        0x3f3f163cecd65f04,
    ),
    (
        8,
        65,
        2646948,
        4120991,
        0x3ff8e8ff337d7008,
        0x3feff7aa7bcf8b66,
        0x3ff0000000000000,
        true,
        0x3f459704e8ac02b8,
    ),
    (
        9,
        69,
        3719696,
        4843909,
        0x3ff4d5f1bd6abcaf,
        0x3feffd7ff1f1769e,
        0x3ff0000000000000,
        true,
        0x3f3eba171f4cf597,
    ),
    (
        10,
        41,
        4386739,
        5762342,
        0x3ff5046eb48bc6d8,
        0x3fefff3ffbc87062,
        0x3ff0000000000000,
        true,
        0x3f3a0dfb12b6358e,
    ),
    (
        11,
        90,
        3533449,
        4697215,
        0x3ff5450bcc270537,
        0x3fefffc66522881e,
        0x3ff0000000000000,
        true,
        0x3f40279b4c9073dd,
    ),
];

/// The fixed-seed antlr Evolve campaign. antlr has categorical features,
/// so this stream also pins the order in which categories are interned
/// (tree splits on equal-gain categories break toward the lower id).
const ANTLR_RUNS: usize = 12;

const GOLDEN_ANTLR_EVOLVE: [Golden; ANTLR_RUNS] = [
    (
        0,
        21,
        1568508,
        1573457,
        0x3ff00cec7f0160cf,
        0x0000000000000000,
        0x0000000000000000,
        false,
        0x3f1c94431d95797a,
    ),
    (
        1,
        36,
        5644093,
        5639725,
        0x3feff9a90022de7f,
        0x3fd4e40a2ad92566,
        0x3fddd80e865ac7b7,
        false,
        0x3f0011fa07431b38,
    ),
    (
        2,
        18,
        17735606,
        17736633,
        0x3ff0003cb80dc3e3,
        0x3fd4ff98b90d38cd,
        0x3fd50b681a91411e,
        false,
        0x3ee474d903ed4ca2,
    ),
    (
        3,
        36,
        5644093,
        5639725,
        0x3feff9a90022de7f,
        0x3fe98cbd4ef52eeb,
        0x3ff0000000000000,
        false,
        0x3f0011fa07431b38,
    ),
    (
        4,
        22,
        9268456,
        9547725,
        0x3ff07b6ac618ceff,
        0x3fe53c4d5c6a2d51,
        0x3fe362f8cfe575c5,
        true,
        0x3f311e5a33a271cb,
    ),
    (
        5,
        25,
        9010955,
        9040018,
        0x3ff00d35f7e36b7f,
        0x3fecc54a688640cb,
        0x3ff0000000000000,
        false,
        0x3ef421a720f78625,
    ),
    (
        6,
        8,
        8923670,
        9843429,
        0x3ff1a62c4c251568,
        0x3fef07fcb8f51370,
        0x3ff0000000000000,
        true,
        0x3f31c7aca2db3106,
    ),
    (
        7,
        32,
        23386438,
        24656842,
        0x3ff0de8102bbfa2f,
        0x3fefb324ba17db10,
        0x3feffc7f03b90c0b,
        true,
        0x3f1b28f3acc38acb,
    ),
    (
        8,
        5,
        1981633,
        2298747,
        0x3ff28f780e80c34e,
        0x3fef58228ca4e4e2,
        0x3fef31219dbcc486,
        true,
        0x3f54196df7eecdc2,
    ),
    (
        9,
        29,
        3655145,
        4302708,
        0x3ff2d5aabf75918c,
        0x3fefcda3f6fe44aa,
        0x3ff0000000000000,
        true,
        0x3f45b8d17bbac1f6,
    ),
    (
        10,
        1,
        16998322,
        17957057,
        0x3ff0e70583c6eec1,
        0x3feff0e463b2ae33,
        0x3ff0000000000000,
        true,
        0x3f22bec1e7b11ed0,
    ),
    (
        11,
        30,
        2177251,
        2436322,
        0x3ff1e762030359f3,
        0x3feb217469e2329c,
        0x3fe911b2236446c9,
        true,
        0x3f523bb8629aa0e6,
    ),
];

/// 64-bit FNV-1a of the state each fixed-seed Evolve campaign persists
/// at its end (`EvolvableVm::export_state`): mtrt over `RUNS` runs and
/// antlr over `ANTLR_RUNS` runs.
const EXPORT_FNV_MTRT: u64 = 0xbdc5e9d6aa17fcb0;
const EXPORT_FNV_ANTLR: u64 = 0x7e1aeb92800f65eb;

fn golden_for(scenario: Scenario) -> &'static [Golden; RUNS] {
    match scenario {
        Scenario::Default => &GOLDEN_DEFAULT,
        Scenario::Rep => &GOLDEN_REP,
        Scenario::Evolve => &GOLDEN_EVOLVE,
    }
}

fn run_sequential(scenario: Scenario) -> CampaignOutcome {
    let bench = workloads::by_name("mtrt").expect("bundled workload");
    Campaign::new(&bench, CampaignConfig::new(scenario).runs(RUNS).seed(SEED))
        .expect("campaign")
        .run()
        .expect("runs succeed")
}

/// Run a fixed-seed Evolve campaign against a fresh store and return its
/// outcome plus the FNV-1a of the state it persisted.
fn run_evolve_with_export(workload: &str, runs: usize) -> (CampaignOutcome, u64) {
    let bench = workloads::by_name(workload).expect("bundled workload");
    let config = CampaignConfig::new(Scenario::Evolve)
        .runs(runs)
        .seed(SEED)
        .model_key("golden");
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let store = MemoryStore::new();
    let outcome = Campaign::new(&bench, config)
        .expect("campaign")
        .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
        .expect("runs succeed");
    let state = store.load("golden").expect("state persisted");
    (outcome, fnv1a64(state.as_bytes()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Submit every campaign to a fresh service with `workers` workers (and
/// `store`, if any), then wait each handle in submission order.
fn run_on_service(
    workers: usize,
    store: Option<Arc<dyn ModelStore>>,
    campaigns: &[(Arc<Bench>, CampaignConfig)],
) -> Vec<CampaignOutcome> {
    let mut builder = CampaignService::builder().workers(workers);
    if let Some(store) = store {
        builder = builder.store(store);
    }
    let service = builder.spawn();
    let handles: Vec<_> = campaigns
        .iter()
        .map(|(bench, config)| {
            service
                .submit(Arc::clone(bench), config.clone())
                .expect("a fresh service accepts submissions")
        })
        .collect();
    let outcomes = handles
        .into_iter()
        .map(|handle| handle.wait().expect("campaign succeeds"))
        .collect();
    service.shutdown(ShutdownMode::Drain);
    outcomes
}

fn assert_record_matches(scenario: Scenario, record: &RunRecord, golden: &Golden) {
    let (
        run_index,
        input_index,
        cycles,
        default_cycles,
        speedup,
        confidence,
        accuracy,
        predicted,
        overhead,
    ) = *golden;
    let context = format!("{scenario} run {run_index}");
    assert_eq!(record.run_index, run_index, "{context}: run_index");
    assert_eq!(record.input_index, input_index, "{context}: input_index");
    assert_eq!(record.cycles, cycles, "{context}: cycles");
    assert_eq!(
        record.default_cycles, default_cycles,
        "{context}: default_cycles"
    );
    assert_eq!(record.speedup.to_bits(), speedup, "{context}: speedup bits");
    assert_eq!(
        record.confidence.to_bits(),
        confidence,
        "{context}: confidence bits"
    );
    assert_eq!(
        record.accuracy.to_bits(),
        accuracy,
        "{context}: accuracy bits"
    );
    assert_eq!(record.predicted, predicted, "{context}: predicted");
    assert_eq!(
        record.overhead_fraction.to_bits(),
        overhead,
        "{context}: overhead_fraction bits"
    );
}

fn assert_outcomes_identical(a: &CampaignOutcome, b: &CampaignOutcome) {
    assert_eq!(a.scenario, b.scenario);
    assert_eq!(a.raw_features, b.raw_features);
    assert_eq!(a.used_features, b.used_features);
    assert_eq!(a.state_recovered, b.state_recovered);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.run_index, rb.run_index);
        assert_eq!(ra.input_index, rb.input_index);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.default_cycles, rb.default_cycles);
        assert_eq!(ra.speedup.to_bits(), rb.speedup.to_bits());
        assert_eq!(ra.confidence.to_bits(), rb.confidence.to_bits());
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        assert_eq!(ra.predicted, rb.predicted);
        assert_eq!(
            ra.overhead_fraction.to_bits(),
            rb.overhead_fraction.to_bits()
        );
    }
    let seconds = |o: &CampaignOutcome| {
        o.default_seconds_per_input
            .iter()
            .map(|s| s.map(f64::to_bits))
            .collect::<Vec<_>>()
    };
    assert_eq!(seconds(a), seconds(b));
}

#[test]
fn fixed_seed_campaigns_match_the_golden_records() {
    for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
        let outcome = run_sequential(scenario);
        let golden = golden_for(scenario);
        assert_eq!(
            outcome.records.len(),
            golden.len(),
            "{scenario}: record count"
        );
        for (record, expected) in outcome.records.iter().zip(golden.iter()) {
            assert_record_matches(scenario, record, expected);
        }
    }
}

#[test]
fn fixed_seed_antlr_campaign_matches_its_golden_records() {
    let (outcome, export) = run_evolve_with_export("antlr", ANTLR_RUNS);
    assert_eq!(outcome.records.len(), ANTLR_RUNS, "antlr: record count");
    for (record, expected) in outcome.records.iter().zip(GOLDEN_ANTLR_EVOLVE.iter()) {
        assert_record_matches(Scenario::Evolve, record, expected);
    }
    assert_eq!(export, EXPORT_FNV_ANTLR, "antlr: exported state hash");
}

#[test]
fn fixed_seed_mtrt_export_matches_its_pinned_hash() {
    let (outcome, export) = run_evolve_with_export("mtrt", RUNS);
    for (record, expected) in outcome.records.iter().zip(GOLDEN_EVOLVE.iter()) {
        assert_record_matches(Scenario::Evolve, record, expected);
    }
    assert_eq!(export, EXPORT_FNV_MTRT, "mtrt: exported state hash");
}

#[test]
fn parallel_engine_is_bit_identical_to_sequential() {
    let scenarios = [Scenario::Default, Scenario::Rep, Scenario::Evolve];
    let campaigns: Vec<(Arc<Bench>, CampaignConfig)> = ["mtrt", "compress"]
        .iter()
        .flat_map(|name| {
            let bench = Arc::new(workloads::by_name(name).expect("bundled workload"));
            scenarios.iter().map(move |&scenario| {
                (
                    Arc::clone(&bench),
                    CampaignConfig::new(scenario).runs(RUNS).seed(SEED),
                )
            })
        })
        .collect();

    let sequential = run_on_service(1, None, &campaigns);
    let parallel = run_on_service(4, None, &campaigns);

    assert_eq!(sequential.len(), parallel.len());
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_outcomes_identical(seq, par);
    }

    // The service's mtrt outcomes must also match plain Campaign::run —
    // the shared oracle changes nothing.
    for (i, &scenario) in scenarios.iter().enumerate() {
        assert_outcomes_identical(&run_sequential(scenario), &parallel[i]);
    }
}

#[test]
fn model_store_round_trip_is_deterministic() {
    let bench = Arc::new(workloads::by_name("mtrt").expect("bundled workload"));
    let store = Arc::new(MemoryStore::new());

    // One 12-run campaign, split as 6 + 6 with state persisted between
    // the halves, must end with the same learned-state export as running
    // the 12 runs straight through. (Record streams differ — the second
    // half reseeds its arrival order — but learning must survive.)
    let config = |runs: usize| {
        CampaignConfig::new(Scenario::Evolve)
            .runs(runs)
            .seed(SEED)
            .model_key("mtrt-evolve")
    };
    let half = [(Arc::clone(&bench), config(6))];
    run_on_service(1, Some(store.clone()), &half);
    let saved_midpoint = store.load("mtrt-evolve").expect("state persisted");
    assert!(!saved_midpoint.is_empty());

    run_on_service(1, Some(store.clone()), &half);
    let saved_end = store.load("mtrt-evolve").expect("state persisted");
    assert_ne!(saved_midpoint, saved_end, "second session added history");

    // Replaying the same two sessions against a fresh store reproduces
    // the exact same persisted state.
    let replay_store = Arc::new(MemoryStore::new());
    for _ in 0..2 {
        run_on_service(1, Some(replay_store.clone()), &half);
    }
    assert_eq!(
        replay_store.load("mtrt-evolve").as_deref(),
        Some(saved_end.as_str())
    );
}

#[test]
fn sharded_store_split_sessions_match_single_process_state() {
    let bench = Arc::new(workloads::by_name("mtrt").expect("bundled workload"));
    let config = CampaignConfig::new(Scenario::Evolve)
        .runs(6)
        .seed(SEED)
        .model_key("mtrt/evolve");
    let run_half = |store: Arc<dyn ModelStore>| {
        run_on_service(1, Some(store), &[(Arc::clone(&bench), config.clone())]);
    };

    // Single-process reference: both halves in one process over a
    // MemoryStore.
    let memory = Arc::new(MemoryStore::new());
    run_half(memory.clone());
    run_half(memory.clone());
    let reference = memory.load("mtrt/evolve").expect("state persisted");

    // The same split over a ShardedStore, with a *fresh store instance
    // per session* (separate processes sharing one root directory), a
    // simulated torn write between the sessions, and a compaction at
    // the end. Learned state must come out bit-identical.
    let root =
        std::env::temp_dir().join(format!("evovm-sharded-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let first = Arc::new(ShardedStore::new(&root));
    run_half(Arc::clone(&first) as Arc<dyn ModelStore>);

    // Kill-mid-write simulation: a later writer crashed leaving a
    // truncated blob under the next version name.
    let latest = *first
        .version_numbers("mtrt/evolve")
        .last()
        .expect("first session saved a version");
    let intact = std::fs::read(first.version_path("mtrt/evolve", latest)).expect("readable");
    std::fs::write(
        first.version_path("mtrt/evolve", latest + 1),
        &intact[..intact.len() / 2],
    )
    .expect("plant torn version");

    let second = Arc::new(ShardedStore::new(&root));
    run_half(Arc::clone(&second) as Arc<dyn ModelStore>);
    assert!(
        second.metrics().snapshot().recoveries >= 1,
        "the torn version must be detected and skipped"
    );
    assert_eq!(
        second.load("mtrt/evolve").as_deref(),
        Some(reference.as_str()),
        "split sessions over ShardedStore must reproduce single-process state"
    );

    // Compaction keeps exactly the newest intact version — and the
    // state it serves is unchanged.
    let reopened = ShardedStore::new(&root);
    reopened.compact();
    assert_eq!(reopened.version_numbers("mtrt/evolve").len(), 1);
    assert_eq!(
        reopened.load("mtrt/evolve").as_deref(),
        Some(reference.as_str()),
        "compaction must not change the served state"
    );
    let _ = std::fs::remove_dir_all(&root);
}
