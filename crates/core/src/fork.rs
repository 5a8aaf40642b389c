//! The compilation-forking counterfactual data factory.
//!
//! A production run configured with
//! [`CampaignConfig::fork_snapshots`](crate::CampaignConfig::fork_snapshots)
//! self-captures a [`RunSnapshot`] at each recompilation decision (up to
//! the configured limit). Each captured snapshot becomes a [`ForkPoint`]:
//! the frozen run state, the method and level the live policy chose, and
//! the XICL feature row of the input that drove the run.
//!
//! The campaign hands each point to its [`RunSink`](crate::RunSink),
//! which may replay it with [`ForkPoint::replay`]: one run under *every*
//! optimization level — overriding the captured decision via
//! [`RunSnapshot::override_decision`] and resuming with [`Vm::resume`] —
//! reporting one [`ForkSample`] per level carrying the counterfactual
//! total cost. Because the VM clock is virtual and deterministic, the
//! replay of the *chosen* level reproduces the original run bit-for-bit
//! (`tests/fork_equiv.rs` proves it), so the other levels' costs are
//! exactly the costs the original run *would* have paid.
//!
//! One campaign run thus yields up to `fork_snapshots × 4` labelled
//! `(features, level, cost)` training samples instead of one posterior
//! ideal strategy — the data factory the paper's cross-input learner is
//! starved without. Samples convert to
//! [`evovm_learn::dataset::CostSample`]s via [`ForkSample::cost_sample`]
//! and accumulate in a [`CostDataset`](evovm_learn::CostDataset).
//!
//! The same machinery doubles as a what-if debugger for the oracle:
//! `examples/what_if.rs` prints the counterfactual cost table of a run's
//! fork points under all four levels.
//!
//! # Determinism contract
//!
//! A replay runs the remainder of the snapshot under the snapshot's own
//! forked policy ([`AosPolicy::fork_box`](evovm_vm::AosPolicy::fork_box)).
//! Interactive `FeaturesReady` pauses are skipped — no host re-prediction
//! happens inside a counterfactual continuation — so a replay is a pure
//! function of (snapshot, override level). Resumed forks never self-
//! capture (the VM zeroes `fork_snapshots` on resume), so forking cannot
//! recurse.

use evovm_bytecode::FuncId;
use evovm_learn::dataset::{CostSample, Raw};
use evovm_opt::OptLevel;
use evovm_vm::{Outcome, RunSnapshot, Vm};

use crate::error::EvolveError;

/// One captured recompilation decision: the frozen run state plus
/// everything needed to label the counterfactual samples replayed from
/// it.
#[derive(Debug, Clone)]
pub struct ForkPoint {
    /// Campaign-wide fork counter (groups this point's samples).
    pub fork_index: u64,
    /// The campaign run the point was captured in.
    pub run_index: usize,
    /// Which input drove that run.
    pub input_index: usize,
    /// The method the live policy decided to recompile.
    pub method: FuncId,
    /// Its name (resolved from the program at capture).
    pub method_name: String,
    /// The method's compiled level at capture.
    pub from_level: OptLevel,
    /// The level the live policy chose.
    pub decided_level: OptLevel,
    /// Total cycles of the real (unforked) run, for reference.
    pub base_total_cycles: u64,
    /// XICL feature row of the run's input (static features merged with
    /// the run's published runtime features).
    pub features: Vec<(String, Raw)>,
    /// The frozen run state, decision pending.
    pub snapshot: RunSnapshot,
}

impl ForkPoint {
    /// Replay this point once per [`OptLevel`], overriding the captured
    /// decision each time, and return the four counterfactual samples in
    /// level order. Overriding to a level at or below `from_level` is a
    /// natural no-op (recompilation is upward-only), which is precisely
    /// the "what if we had not upgraded" counterfactual.
    ///
    /// # Errors
    ///
    /// Propagates VM errors from the resumed runs (e.g. a pipeline
    /// miscompilation surfaced while replaying the overridden decision).
    pub fn replay(&self) -> Result<Vec<ForkSample>, EvolveError> {
        let mut samples = Vec::with_capacity(OptLevel::ALL.len());
        for level in OptLevel::ALL {
            let mut snapshot = self.snapshot.clone();
            snapshot.override_decision(Some(level));
            let mut vm = Vm::resume(snapshot)?;
            let result = loop {
                match vm.run()? {
                    Outcome::Finished(result) => break *result,
                    // Counterfactual continuations run under the
                    // snapshot's own policy; interactive pauses pass.
                    Outcome::FeaturesReady => continue,
                }
            };
            samples.push(ForkSample {
                fork_index: self.fork_index,
                run_index: self.run_index,
                input_index: self.input_index,
                method: self.method_name.clone(),
                level,
                total_cycles: result.total_cycles,
                base_total_cycles: self.base_total_cycles,
                chosen: level == self.decided_level,
                features: self.features.clone(),
            });
        }
        Ok(samples)
    }
}

/// One counterfactual observation: what the run's total cost would have
/// been had the captured decision resolved to `level`.
#[derive(Debug, Clone)]
pub struct ForkSample {
    /// The originating fork point's campaign-wide index.
    pub fork_index: u64,
    /// The campaign run the fork point was captured in.
    pub run_index: usize,
    /// Which input drove that run.
    pub input_index: usize,
    /// Name of the method the decision concerned.
    pub method: String,
    /// The level this replay resolved the decision to.
    pub level: OptLevel,
    /// Total virtual cycles of the replayed run.
    pub total_cycles: u64,
    /// Total cycles of the real run (the `chosen` replay equals this).
    pub base_total_cycles: u64,
    /// Whether this replay's level is the one the live policy chose.
    pub chosen: bool,
    /// The fork point's feature row, repeated per sample so each sample
    /// is a self-contained training unit.
    pub features: Vec<(String, Raw)>,
}

impl ForkSample {
    /// This sample as a learning-layer cost observation: grouped by fork
    /// point, labelled with the level (shifted to `0..=3`), costed with
    /// the replay's total cycles.
    pub fn cost_sample(&self) -> CostSample {
        CostSample {
            group: self.fork_index,
            features: self.features.clone(),
            level: (self.level.as_i8() + 1) as u16,
            cost: self.total_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use evovm_learn::CostDataset;
    use evovm_minijava::compile;
    use evovm_vm::{CostBenefitPolicy, VmConfig};

    use super::*;

    fn hot_program() -> Arc<evovm_bytecode::Program> {
        Arc::new(
            compile(
                "fn work(n) { let s = 0; for (let i = 0; i < n; i = i + 1) { s = s + i * i; } return s; }
                 fn main() { print work(60000); }",
            )
            .unwrap(),
        )
    }

    fn run_to_end(vm: &mut Vm) -> evovm_vm::RunResult {
        loop {
            match vm.run().unwrap() {
                Outcome::Finished(result) => return *result,
                Outcome::FeaturesReady => continue,
            }
        }
    }

    fn first_fork_point() -> (ForkPoint, u64) {
        let program = hot_program();
        let mut vm = Vm::new(
            program.clone(),
            Box::new(CostBenefitPolicy::new()),
            VmConfig {
                fork_snapshots: 4,
                ..VmConfig::default()
            },
        )
        .unwrap();
        let result = run_to_end(&mut vm);
        let snapshot = vm
            .take_fork_snapshots()
            .into_iter()
            .next()
            .expect("hot loop triggers at least one recompilation");
        let (method, decided_level) = snapshot.pending_decision().unwrap();
        let point = ForkPoint {
            fork_index: 0,
            run_index: 0,
            input_index: 0,
            method,
            method_name: program.function(method).name.clone(),
            from_level: snapshot.level_of(method),
            decided_level,
            base_total_cycles: result.total_cycles,
            features: vec![("input.N".to_owned(), Raw::Num(60_000.0))],
            snapshot,
        };
        (point, result.total_cycles)
    }

    #[test]
    fn replay_covers_all_levels_and_chosen_matches_the_real_run() {
        let (point, base_cycles) = first_fork_point();
        let samples = point.replay().unwrap();
        assert_eq!(samples.len(), OptLevel::ALL.len());
        let levels: Vec<OptLevel> = samples.iter().map(|s| s.level).collect();
        assert_eq!(levels, OptLevel::ALL.to_vec());
        let chosen: Vec<&ForkSample> = samples.iter().filter(|s| s.chosen).collect();
        assert_eq!(chosen.len(), 1);
        // The chosen-level replay IS the original run's remainder: the
        // counterfactual factory's costs are exact, not approximate.
        assert_eq!(chosen[0].total_cycles, base_cycles);
        assert_eq!(chosen[0].base_total_cycles, base_cycles);
        // The counterfactuals genuinely diverge from one another.
        let distinct: std::collections::BTreeSet<u64> =
            samples.iter().map(|s| s.total_cycles).collect();
        assert!(distinct.len() > 1, "all levels cost the same: {samples:?}");
    }

    #[test]
    fn samples_feed_the_learning_layer_as_cost_rows() {
        let (point, _) = first_fork_point();
        let samples = point.replay().unwrap();
        let mut costs = CostDataset::new();
        for s in &samples {
            costs.push(s.cost_sample());
        }
        assert_eq!(costs.len(), 4);
        assert_eq!(costs.groups(), vec![0]);
        let classification = costs.to_classification().unwrap();
        assert_eq!(classification.len(), 1);
        // The argmin label is a valid shifted level.
        assert!(classification.labels()[0] <= 3);
    }
}
