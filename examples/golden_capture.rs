//! Golden-record regeneration tool: prints the fixed-seed mtrt RunRecord
//! stream per scenario, the fixed-seed antlr Evolve stream, and a 64-bit
//! FNV-1a of each Evolve campaign's final exported state, as Rust
//! literals for embedding in `tests/determinism.rs`. Re-run this (and
//! paste the output over the `GOLDEN_*` consts) only when a change is
//! *meant* to alter the fixed-seed trace or the learned state.

use evolvable_vm::evovm::{
    Campaign, CampaignConfig, DefaultOracle, MemoryStore, ModelStore, RunRecord, Scenario,
};
use evolvable_vm::workloads;

/// Runs of the antlr golden: enough for confidence to pass `TH_c`, so
/// the stream contains predicted runs.
const ANTLR_RUNS: usize = 12;

fn print_records(records: &[RunRecord]) {
    for r in records {
        println!(
            "({}, {}, {}, {}, 0x{:016x}, 0x{:016x}, 0x{:016x}, {}, 0x{:016x}),",
            r.run_index,
            r.input_index,
            r.cycles,
            r.default_cycles,
            r.speedup.to_bits(),
            r.confidence.to_bits(),
            r.accuracy.to_bits(),
            r.predicted,
            r.overhead_fraction.to_bits()
        );
    }
}

/// Run an Evolve campaign against a fresh store and return its records
/// plus the FNV-1a of the state it persisted.
fn evolve_with_export(workload: &str, runs: usize) -> (Vec<RunRecord>, u64) {
    let bench = workloads::by_name(workload).expect("bundled workload");
    let config = CampaignConfig::new(Scenario::Evolve)
        .runs(runs)
        .seed(7)
        .model_key("golden");
    let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
    let store = MemoryStore::new();
    let outcome = Campaign::new(&bench, config)
        .expect("campaign")
        .run_with_sink(&oracle, Some(&store), &mut |_: &RunRecord| {})
        .expect("runs");
    let state = store.load("golden").expect("state persisted");
    (outcome.records, fnv1a64(state.as_bytes()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
        let bench = workloads::by_name("mtrt").expect("bundled workload");
        let outcome = Campaign::new(&bench, CampaignConfig::new(scenario).runs(12).seed(7))
            .expect("campaign")
            .run()
            .expect("runs");
        println!("// mtrt {scenario}");
        print_records(&outcome.records);
    }
    let (_, mtrt_hash) = evolve_with_export("mtrt", 12);
    let (antlr, antlr_hash) = evolve_with_export("antlr", ANTLR_RUNS);
    println!("// antlr Evolve ({ANTLR_RUNS} runs)");
    print_records(&antlr);
    println!("// export_state FNV-1a: mtrt Evolve, antlr Evolve");
    println!("0x{mtrt_hash:016x}");
    println!("0x{antlr_hash:016x}");
}
