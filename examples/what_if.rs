//! The compilation-forking counterfactual data factory as a what-if
//! debugger: the `BENCH_fork.json` trajectory.
//!
//! Runs one Evolve campaign per Table I workload with fork capture on.
//! Every recompilation decision the live policy takes snapshots the run
//! (`RunSnapshot`); the campaign replays each snapshot under **all
//! four** optimization levels and streams the counterfactual costs.
//! This example prints those costs as a what-if table — "had the oracle
//! decided differently at this exact point, the run would have cost X" —
//! and reports how many labelled `(features, level, cost)` training
//! samples the factory mints per campaign compared to the unforked
//! pipeline's one-posterior-per-run.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example what_if [-- --out BENCH_fork.json] [--runs N] [--forks K]
//! ```
//!
//! The chosen-level replay reproduces the factual run bit for bit
//! (`tests/fork_equiv.rs` proves it), so the table's deltas are exact
//! virtual-cycle counterfactuals, not estimates.

use serde::{Deserialize, Serialize};

use evolvable_vm::evovm::{
    Campaign, CampaignConfig, DefaultOracle, EvolveError, ForkPoint, ForkSample, RunRecord,
    RunSink, Scenario,
};
use evolvable_vm::learn::CostDataset;
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

/// Per-workload sample yield of one forked campaign.
#[derive(Debug, Serialize, Deserialize)]
struct WorkloadRow {
    workload: String,
    runs: usize,
    /// Training samples the unforked pipeline yields: one posterior
    /// ideal strategy per production run.
    unforked_samples: usize,
    fork_points: usize,
    fork_samples: usize,
    total_samples: usize,
    multiplier: f64,
}

/// Suite-wide totals.
#[derive(Debug, Serialize, Deserialize)]
struct Aggregate {
    unforked_samples: usize,
    fork_points: usize,
    fork_samples: usize,
    total_samples: usize,
    multiplier: f64,
}

/// The whole report, as committed to `BENCH_fork.json`.
#[derive(Debug, Serialize, Deserialize)]
struct Report {
    generated_by: String,
    scenario: String,
    runs: usize,
    fork_snapshots: usize,
    table1: Vec<WorkloadRow>,
    aggregate: Aggregate,
    notes: Vec<String>,
}

/// Streams the campaign while keeping every fork point and the
/// counterfactual samples replayed from it.
#[derive(Default)]
struct FactorySink {
    records: Vec<RunRecord>,
    points: Vec<ForkPoint>,
    samples: Vec<ForkSample>,
}

impl RunSink for FactorySink {
    fn on_record(&mut self, record: &RunRecord) {
        self.records.push(record.clone());
    }

    fn on_fork_point(&mut self, point: ForkPoint) -> Result<(), EvolveError> {
        self.samples.extend(point.replay()?);
        self.points.push(point);
        Ok(())
    }
}

fn main() {
    let mut out_path = "BENCH_fork.json".to_string();
    let mut runs: usize = 4;
    let mut forks: usize = 2;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--runs" => {
                runs = args
                    .next()
                    .expect("--runs needs a number")
                    .parse()
                    .expect("--runs needs a number");
            }
            "--forks" => {
                forks = args
                    .next()
                    .expect("--forks needs a number")
                    .parse()
                    .expect("--forks needs a number");
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let mut table1 = Vec::new();
    let mut cost_rows = 0usize;
    let mut classification_rows = 0usize;
    println!("counterfactual data factory (Evolve, {runs} runs, {forks} fork points/run):");
    for name in TABLE1 {
        let bench = workloads::by_name(name).expect("bundled workload");
        let config = CampaignConfig::new(Scenario::Evolve)
            .runs(runs)
            .seed(7)
            .fork_snapshots(forks);
        let oracle = DefaultOracle::for_bench(&bench, config.evolve.sample_interval_cycles);
        let mut sink = FactorySink::default();
        Campaign::new(&bench, config)
            .expect("workload programs verify")
            .run_with_sink(&oracle, None, &mut sink)
            .expect("campaign runs");

        println!("\n{name}: {} fork points", sink.points.len());
        for point in &sink.points {
            println!(
                "  run {:>2}  {}  {:?} -> {:?}  (factual run: {} cycles)",
                point.run_index,
                point.method_name,
                point.from_level,
                point.decided_level,
                point.base_total_cycles,
            );
            for sample in sink
                .samples
                .iter()
                .filter(|s| s.fork_index == point.fork_index)
            {
                let delta = sample.total_cycles as i128 - sample.base_total_cycles as i128;
                println!(
                    "      what if {:>8?}: {:>12} cycles  ({:+} vs factual){}",
                    sample.level,
                    sample.total_cycles,
                    delta,
                    if sample.chosen { "  <- chosen" } else { "" },
                );
            }
        }
        // One cost dataset per workload: feature schemas are uniform
        // within a bench but differ across benches.
        let mut costs = CostDataset::new();
        for sample in &sink.samples {
            costs.push(sample.cost_sample());
        }
        cost_rows += costs.len();
        if !costs.is_empty() {
            classification_rows += costs
                .to_classification()
                .expect("fork samples form a consistent dataset")
                .len();
        }

        let fork_samples = sink.samples.len();
        let unforked = sink.records.len();
        table1.push(WorkloadRow {
            workload: name.to_string(),
            runs: sink.records.len(),
            unforked_samples: unforked,
            fork_points: sink.points.len(),
            fork_samples,
            total_samples: unforked + fork_samples,
            multiplier: (unforked + fork_samples) as f64 / unforked as f64,
        });
    }

    let unforked: usize = table1.iter().map(|r| r.unforked_samples).sum();
    let fork_points: usize = table1.iter().map(|r| r.fork_points).sum();
    let fork_samples: usize = table1.iter().map(|r| r.fork_samples).sum();
    let aggregate = Aggregate {
        unforked_samples: unforked,
        fork_points,
        fork_samples,
        total_samples: unforked + fork_samples,
        multiplier: (unforked + fork_samples) as f64 / unforked as f64,
    };
    println!(
        "\naggregate: {} unforked samples -> {} with forking ({:.2}x); \
         {} cost rows reduce to {} argmin-labelled classification rows",
        aggregate.unforked_samples,
        aggregate.total_samples,
        aggregate.multiplier,
        cost_rows,
        classification_rows,
    );
    assert!(
        aggregate.multiplier >= 3.0,
        "the factory must yield at least 3x the unforked pipeline's samples \
         (got {:.2}x)",
        aggregate.multiplier
    );

    let report = Report {
        generated_by: "cargo run --release --example what_if".to_string(),
        scenario: "Evolve".to_string(),
        runs,
        fork_snapshots: forks,
        table1,
        aggregate,
        notes: vec![
            "costs are deterministic virtual cycles; the chosen-level replay \
             reproduces the factual run bit for bit (tests/fork_equiv.rs)"
                .to_string(),
            "unforked_samples counts the legacy pipeline's yield: one posterior \
             ideal strategy per production run"
                .to_string(),
            "fork samples carry the same XICL feature vector the evolvable \
             optimizer predicts from, and reduce to argmin-labelled \
             classification rows via CostDataset::to_classification"
                .to_string(),
        ],
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");
}
