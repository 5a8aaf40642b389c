//! Differential suite for the forkable run-state refactor.
//!
//! The VM now splits into an immutable program context and a
//! snapshotable `RunState`; `Vm::snapshot()` captures the run at any
//! host-control boundary and `Vm::resume` re-enters it. The virtual
//! clock is the reproduction's measurement instrument, so a snapshotted
//! and resumed run must be **bit-identical** to the straight-through
//! run — output, every cycle counter, sample attribution, recompilation
//! events — in both interpreter modes, on every Table I workload.
//!
//! Layers of proof:
//!
//! 1. **VM level, budget boundary** — trip a cycle budget mid-run,
//!    snapshot, lift the budget, resume; the finished `RunResult` must
//!    equal the uninterrupted run's, field for field.
//! 2. **VM level, feature pause** — snapshot at a `FeaturesReady`
//!    pause, drop the original machine, resume the copy to completion.
//! 3. **Campaign level** — record streams with fork capture on vs off
//!    must be identical across all workloads × scenarios × modes (the
//!    data factory observes runs, never perturbs them), and replaying
//!    the collected fork points must reproduce the factual run exactly
//!    at the chosen level.
//! 4. **Property** — the window boundary is arbitrary: for random
//!    budgets the snapshot/resume run equals the straight run.

use std::sync::Arc;

use proptest::prelude::*;

use evolvable_vm::evovm::{
    Campaign, CampaignConfig, DefaultOracle, EvolveError, ForkPoint, ForkSample, RunRecord,
    RunSink, Scenario,
};
use evolvable_vm::opt::OptLevel;
use evolvable_vm::vm::{CostBenefitPolicy, InterpMode, Outcome, RunResult, Vm, VmConfig, VmError};
use evolvable_vm::workloads;

/// The Table I benchmark order (kept in sync with `evovm-bench`, which
/// the façade crate deliberately does not depend on).
const TABLE1: [&str; 11] = [
    "mtrt",
    "compress",
    "db",
    "antlr",
    "bloat",
    "fop",
    "euler",
    "moldyn",
    "montecarlo",
    "search",
    "raytracer",
];

fn adaptive_config(mode: InterpMode) -> VmConfig {
    VmConfig {
        sample_interval_cycles: 10_000,
        interp: mode,
        ..VmConfig::default()
    }
}

/// Run one program to completion under `mode`, resuming through feature
/// pauses like the campaign loop does.
fn straight_run(program: &Arc<evolvable_vm::bytecode::Program>, mode: InterpMode) -> RunResult {
    let mut vm = Vm::new(
        Arc::clone(program),
        Box::new(CostBenefitPolicy::new()),
        adaptive_config(mode),
    )
    .expect("workload programs verify");
    loop {
        match vm.run().expect("workload programs do not trap") {
            Outcome::Finished(result) => return *result,
            Outcome::FeaturesReady => continue,
        }
    }
}

/// The same run, interrupted once at `budget` cycles: the tripped
/// machine is snapshotted, the snapshot's budget lifted, and a resumed
/// machine carries the run to completion.
fn interrupted_run(
    program: &Arc<evolvable_vm::bytecode::Program>,
    mode: InterpMode,
    budget: u64,
) -> RunResult {
    let mut vm = Vm::new(
        Arc::clone(program),
        Box::new(CostBenefitPolicy::new()),
        VmConfig {
            cycle_budget: Some(budget),
            ..adaptive_config(mode)
        },
    )
    .expect("workload programs verify");
    loop {
        match vm.run() {
            Ok(Outcome::Finished(result)) => return *result,
            Ok(Outcome::FeaturesReady) => continue,
            Err(VmError::CycleBudgetExceeded { .. }) => {
                let mut snapshot = vm.snapshot();
                snapshot.set_cycle_budget(None);
                vm = Vm::resume(snapshot).expect("snapshot resumes");
            }
            Err(e) => panic!("workload trapped: {e}"),
        }
    }
}

fn assert_results_identical(workload: &str, resumed: &RunResult, straight: &RunResult) {
    assert_eq!(resumed.output, straight.output, "{workload}: output");
    assert_eq!(
        resumed.published, straight.published,
        "{workload}: published"
    );
    assert_eq!(
        resumed.total_cycles, straight.total_cycles,
        "{workload}: total_cycles"
    );
    assert_eq!(
        resumed.exec_cycles, straight.exec_cycles,
        "{workload}: exec_cycles"
    );
    assert_eq!(
        resumed.compile_cycles, straight.compile_cycles,
        "{workload}: compile_cycles"
    );
    assert_eq!(
        resumed.instructions, straight.instructions,
        "{workload}: instructions"
    );
    assert_eq!(
        resumed.profile.samples, straight.profile.samples,
        "{workload}: sample attribution"
    );
    assert_eq!(
        resumed.profile.invocations, straight.profile.invocations,
        "{workload}: invocations"
    );
    assert_eq!(
        resumed.profile.final_levels, straight.profile.final_levels,
        "{workload}: final levels"
    );
    assert_eq!(
        resumed.profile.recompilations, straight.profile.recompilations,
        "{workload}: recompilation events"
    );
}

#[test]
fn snapshot_resume_at_a_budget_boundary_is_bit_identical() {
    for name in TABLE1 {
        let bench = workloads::by_name(name).expect("bundled workload");
        let program = &bench.inputs[0].program;
        for mode in [InterpMode::Fast, InterpMode::Reference] {
            let straight = straight_run(program, mode);
            let budget = straight.total_cycles / 2;
            assert!(budget > 0, "{name}: run too short to interrupt");
            let resumed = interrupted_run(program, mode, budget);
            assert_results_identical(name, &resumed, &straight);
        }
    }
}

#[test]
fn snapshot_at_a_feature_pause_resumes_identically() {
    for name in TABLE1 {
        let bench = workloads::by_name(name).expect("bundled workload");
        let program = &bench.inputs[0].program;
        let straight = straight_run(program, InterpMode::Fast);
        let mut vm = Vm::new(
            Arc::clone(program),
            Box::new(CostBenefitPolicy::new()),
            adaptive_config(InterpMode::Fast),
        )
        .expect("workload programs verify");
        // Run to the first interactive pause; workloads that finish
        // without one are already covered by the budget-boundary test.
        let resumed = match vm.run().expect("workload programs do not trap") {
            Outcome::Finished(result) => *result,
            Outcome::FeaturesReady => {
                // Capture, then abandon the original machine: the
                // copy alone must carry the run home.
                let snapshot = vm.snapshot();
                drop(vm);
                let mut copy = Vm::resume(snapshot).expect("snapshot resumes");
                loop {
                    match copy.run().expect("resumed run does not trap") {
                        Outcome::Finished(result) => break *result,
                        Outcome::FeaturesReady => continue,
                    }
                }
            }
        };
        assert_results_identical(name, &resumed, &straight);
    }
}

/// Bit-pattern view of a record (floats via `to_bits`).
fn record_bits(r: &RunRecord) -> (usize, usize, u64, u64, u64, u64, u64, bool, u64) {
    (
        r.run_index,
        r.input_index,
        r.cycles,
        r.default_cycles,
        r.speedup.to_bits(),
        r.confidence.to_bits(),
        r.accuracy.to_bits(),
        r.predicted,
        r.overhead_fraction.to_bits(),
    )
}

/// A sink that collects the records and fork points a campaign streams,
/// replaying nothing.
#[derive(Default)]
struct CollectSink {
    records: Vec<RunRecord>,
    points: Vec<ForkPoint>,
}

impl RunSink for CollectSink {
    fn on_record(&mut self, record: &RunRecord) {
        self.records.push(record.clone());
    }

    fn on_fork_point(&mut self, point: ForkPoint) -> Result<(), EvolveError> {
        self.points.push(point);
        Ok(())
    }
}

fn campaign_records(
    name: &str,
    scenario: Scenario,
    mode: InterpMode,
    fork_snapshots: usize,
) -> CollectSink {
    let bench = workloads::by_name(name).expect("bundled workload");
    let config = CampaignConfig::new(scenario)
        .runs(3)
        .seed(7)
        .interp(mode)
        .fork_snapshots(fork_snapshots);
    let oracle =
        DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles).with_interp(mode);
    let mut sink = CollectSink::default();
    Campaign::new(&bench, config)
        .expect("workload programs verify")
        .run_with_sink(&oracle, None, &mut sink)
        .expect("campaign runs");
    sink
}

#[test]
fn fork_capture_never_perturbs_the_measured_run() {
    for name in TABLE1 {
        for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
            for mode in [InterpMode::Fast, InterpMode::Reference] {
                let off = campaign_records(name, scenario, mode, 0);
                let on = campaign_records(name, scenario, mode, 2);
                assert!(off.points.is_empty(), "{name}: forking off captured points");
                assert_eq!(
                    off.records.iter().map(record_bits).collect::<Vec<_>>(),
                    on.records.iter().map(record_bits).collect::<Vec<_>>(),
                    "{name}/{scenario:?}/{mode:?}: fork capture changed the record stream"
                );
            }
        }
    }
}

#[test]
fn inline_replays_reproduce_the_factual_run_at_the_chosen_level() {
    // Evolve campaigns execute real VMs whose policies recompile; every
    // fork point's four counterfactuals must include exactly one chosen
    // replay, and that replay must land on the factual run's clock.
    let mut points_seen = 0usize;
    for name in TABLE1 {
        let sink = campaign_records(name, Scenario::Evolve, InterpMode::Fast, 2);
        let samples: Vec<ForkSample> = sink
            .points
            .iter()
            .flat_map(|point| point.replay().expect("fork point replays"))
            .collect();
        assert_eq!(samples.len() % OptLevel::ALL.len(), 0, "{name}");
        for group in samples.chunks(OptLevel::ALL.len()) {
            points_seen += 1;
            let levels: Vec<OptLevel> = group.iter().map(|s| s.level).collect();
            assert_eq!(levels, OptLevel::ALL.to_vec(), "{name}: level coverage");
            let chosen: Vec<&ForkSample> = group.iter().filter(|s| s.chosen).collect();
            assert_eq!(chosen.len(), 1, "{name}: exactly one factual replay");
            assert_eq!(
                chosen[0].total_cycles, chosen[0].base_total_cycles,
                "{name}: the chosen replay must reproduce the factual run"
            );
            assert!(
                !group[0].features.is_empty(),
                "{name}: samples must carry the XICL feature row"
            );
        }
    }
    assert!(
        points_seen > 0,
        "no Table I Evolve campaign captured a fork point; the factory is dead"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The snapshot boundary is arbitrary: interrupting the run at any
    /// budget and resuming reproduces the straight run bit for bit.
    #[test]
    fn snapshot_resume_equivalence_holds_at_random_boundaries(
        numerator in 1u64..100,
        mode_fast in proptest::bool::ANY,
    ) {
        let mode = if mode_fast { InterpMode::Fast } else { InterpMode::Reference };
        let bench = workloads::by_name("euler").expect("bundled workload");
        let program = &bench.inputs[0].program;
        let straight = straight_run(program, mode);
        let budget = (straight.total_cycles * numerator / 100).max(1);
        let resumed = interrupted_run(program, mode, budget);
        prop_assert_eq!(resumed.total_cycles, straight.total_cycles);
        prop_assert_eq!(resumed.instructions, straight.instructions);
        prop_assert_eq!(&resumed.output, &straight.output);
        prop_assert_eq!(&resumed.profile.samples, &straight.profile.samples);
        prop_assert_eq!(&resumed.profile.recompilations, &straight.profile.recompilations);
    }
}
