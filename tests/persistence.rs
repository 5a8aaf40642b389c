//! Cross-invocation persistence: the evolvable VM's learned state
//! (history + confidence) survives serialization, so a later VM process
//! resumes evolving instead of starting over — the paper's "repository"
//! aspect of cross-run learning.

use proptest::prelude::*;

use evolvable_vm::evovm::{EvolvableVm, EvolveConfig, EvolveState};
use evolvable_vm::learn::ConfidenceTracker;
use evolvable_vm::workloads;

fn trained_vm(runs: usize) -> (EvolvableVm, evolvable_vm::evovm::Bench) {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    for i in 0..runs {
        let input = &bench.inputs[i % bench.inputs.len()];
        vm.run_once(input).expect("runs succeed");
    }
    (vm, bench)
}

#[test]
fn state_roundtrips_through_json() {
    let (vm, bench) = trained_vm(10);
    let json = vm.export_state();
    assert!(json.contains("history"));

    let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    restored.import_state(&json).expect("state imports");
    assert_eq!(restored.runs_observed(), vm.runs_observed());
    // JSON may lose the last bit of the decayed float.
    assert!((restored.confidence() - vm.confidence()).abs() < 1e-12);
    assert_eq!(
        restored.used_feature_indices(),
        vm.used_feature_indices(),
        "rebuilt models must agree"
    );
}

#[test]
fn restored_vm_continues_predicting() {
    let (vm, bench) = trained_vm(12);
    assert!(vm.confidence() > 0.7, "training should reach confidence");
    let json = vm.export_state();

    let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    restored.import_state(&json).expect("state imports");
    // The very first run of the restored process predicts immediately —
    // no warmup replay needed.
    let record = restored
        .run_once(&bench.inputs[0])
        .expect("restored vm runs");
    assert!(
        record.predicted,
        "restored confidence should enable prediction"
    );
    assert!(record.accuracy > 0.5);
}

#[test]
fn corrupt_state_degrades_to_fresh_learning() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    vm.import_state("this is not json")
        .expect("corrupt state is tolerated");
    assert_eq!(vm.runs_observed(), 0);
    assert_eq!(vm.confidence(), 0.0);
    // And it still learns normally afterwards.
    vm.run_once(&bench.inputs[0]).expect("runs succeed");
    assert_eq!(vm.runs_observed(), 1);
}

#[test]
fn predictions_match_between_original_and_restored() {
    let (vm, bench) = trained_vm(14);
    let json = vm.export_state();
    let mut restored = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    restored.import_state(&json).expect("state imports");

    for input in bench.inputs.iter().take(4) {
        let (fv, _) = bench
            .translator
            .translate(&input.args, &input.vfs)
            .expect("legal input");
        let n = input.program.functions().len();
        // Note: trained predictions include runtime features published
        // during runs; command-line-only vectors may be unpredictable for
        // programs that publish. Search publishes nothing, so both sides
        // must agree exactly.
        assert_eq!(vm.predict(&fv, n), restored.predict(&fv, n));
    }
}

/// Valid JSON in the `EvolveState` shape whose history rows have
/// mismatched feature schemas: it parses, but cannot be imported.
const UNIMPORTABLE_STATE: &str = r#"{"history":[
  {"features":[["a",{"Num":1.0}]],"ideal":[0]},
  {"features":[["a",{"Num":1.0}],["b",{"Num":2.0}]],"ideal":[0]}
],"confidence":null}"#;

#[test]
fn failed_import_leaves_the_state_unchanged() {
    let (mut vm, _) = trained_vm(12);
    let before = vm.export_state();
    assert!(vm.import_state(UNIMPORTABLE_STATE).is_err());
    assert_eq!(
        vm.export_state(),
        before,
        "a rejected import changes nothing"
    );
    assert_eq!(vm.runs_observed(), 12);
}

#[test]
fn garbage_import_resets_a_trained_vm_to_fresh() {
    let (mut vm, _) = trained_vm(12);
    assert!(vm.confidence() > 0.0);
    vm.import_state("not json")
        .expect("malformed state is tolerated");
    assert_eq!(vm.runs_observed(), 0);
    assert_eq!(vm.confidence(), 0.0);
}

#[test]
fn ragged_ideal_rows_are_rejected() {
    let bench = workloads::by_name("search").expect("bundled workload");
    let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
    let ragged = r#"{"history":[
      {"features":[["a",{"Num":1.0}]],"ideal":[0]},
      {"features":[["a",{"Num":2.0}]],"ideal":[1,2]}
    ],"confidence":null}"#;
    assert!(vm.import_state(ragged).is_err());
    assert_eq!(vm.runs_observed(), 0);
}

/// A stored confidence whose γ, threshold and value are all out of
/// range.
const FOREIGN_CONFIDENCE: &str = r#"{"history":[],
  "confidence":{"conf":7.5,"gamma":3.0,"threshold":0.1,"updates":1}}"#;

fn configured_vm() -> EvolvableVm {
    let bench = workloads::by_name("search").expect("bundled workload");
    let config = EvolveConfig::default().with_threshold(0.9).with_gamma(0.5);
    EvolvableVm::new(bench.translator.clone(), config)
}

fn exported_confidence(vm: &EvolvableVm) -> Option<ConfidenceTracker> {
    let state: EvolveState = serde_json::from_str(&vm.export_state()).expect("exports parse");
    state.confidence
}

#[test]
fn the_vm_config_governs_an_imported_confidence() {
    let mut vm = configured_vm();
    vm.import_state(FOREIGN_CONFIDENCE).expect("state imports");
    assert_eq!(
        exported_confidence(&vm),
        Some(ConfidenceTracker::new(0.5, 0.9))
    );

    // An in-range value is kept, still under the VM's own γ and TH_c.
    vm.import_state(
        r#"{"history":[],"confidence":{"conf":0.95,"gamma":3.0,"threshold":0.1,"updates":4}}"#,
    )
    .expect("state imports");
    assert_eq!(vm.confidence(), 0.95);
    assert_eq!(
        exported_confidence(&vm),
        ConfidenceTracker::new(0.5, 0.9).resumed(0.95, 4)
    );
}

#[test]
fn an_out_of_range_confidence_restarts_fresh() {
    let mut vm = configured_vm();
    vm.import_state(FOREIGN_CONFIDENCE).expect("state imports");
    assert_eq!(vm.confidence(), 0.0);
}

/// One generated history row as JSON: up to three features drawn from a
/// small name pool (so kinds and layouts collide across rows), each
/// numeric (possibly `null`, which reads back as NaN) or categorical,
/// and up to three ideal levels.
fn row_json() -> impl Strategy<Value = String> {
    let value = prop_oneof![
        (-3i32..4).prop_map(|n| format!(r#"{{"Num":{n}.5}}"#)),
        Just(r#"{"Num":null}"#.to_owned()),
        (0u8..3).prop_map(|c| format!(r#"{{"Cat":"c{c}"}}"#)),
    ];
    let feature = (0u8..3, value).prop_map(|(name, v)| format!(r#"["f{name}",{v}]"#));
    (
        proptest::collection::vec(feature, 0..4),
        proptest::collection::vec(-1i8..3, 0..4),
    )
        .prop_map(|(features, ideal)| {
            let ideal: Vec<String> = ideal.iter().map(i8::to_string).collect();
            format!(
                r#"{{"features":[{}],"ideal":[{}]}}"#,
                features.join(","),
                ideal.join(",")
            )
        })
}

fn state_json() -> impl Strategy<Value = String> {
    // Stored values in and out of range, `null` reading back as NaN.
    let number = || {
        prop_oneof![
            (0u8..=10).prop_map(|c| format!("0.{c}")),
            Just("1.0".to_owned()),
            Just("-0.5".to_owned()),
            Just("7.5".to_owned()),
            Just("1e308".to_owned()),
            Just("null".to_owned()),
        ]
    };
    let confidence = prop_oneof![
        Just("null".to_owned()),
        (number(), number(), number(), 0u8..=10).prop_map(|(conf, gamma, threshold, n)| format!(
            r#"{{"conf":{conf},"gamma":{gamma},"threshold":{threshold},"updates":{n}}}"#
        )),
    ];
    (proptest::collection::vec(row_json(), 0..6), confidence).prop_map(|(rows, confidence)| {
        format!(
            r#"{{"history":[{}],"confidence":{confidence}}}"#,
            rows.join(",")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Stored model blobs come from outside the process, so importing
    /// one is total: it never panics, and it either imports every row
    /// or leaves the learned state exactly as it was.
    #[test]
    fn import_is_all_or_nothing(json in state_json()) {
        let bench = workloads::by_name("search").expect("bundled workload");
        let mut vm = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
        vm.import_state(
            r#"{"history":[{"features":[["f0",{"Num":1.5}]],"ideal":[0,1]}],
                "confidence":{"conf":0.5,"gamma":0.7,"threshold":0.7,"updates":1}}"#,
        )
        .expect("the base state imports");
        let before = vm.export_state();
        let rows = json.matches(r#""ideal""#).count();
        let imported = vm.import_state(&json);
        prop_assert!((0.0..=1.0).contains(&vm.confidence()), "confidence {}", vm.confidence());
        match imported {
            Ok(()) => {
                prop_assert_eq!(vm.runs_observed(), rows);
                let exported = vm.export_state();
                let mut again = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
                again.import_state(&exported).expect("an export re-imports");
                prop_assert_eq!(again.export_state(), exported);
            }
            Err(_) => prop_assert_eq!(vm.export_state(), before),
        }
    }
}
