//! The workloads: which benches they materialize and which campaigns
//! they run.
//!
//! The workload seed picks the input arrival order of every campaign.
//! Each program's input set is the canonical one (the seed
//! `evovm_workloads::by_name` uses), so seeds differ in which inputs
//! arrive when, not in the programs' sizes; generated input sets vary
//! the work of a `paper-suite` pass about twice as much between seeds.

use std::time::Instant;

use evovm::{Bench, Scenario};

/// Seed of every program's input set.
const INPUT_SET_SEED: u64 = 42;

/// Programs of `long-evolve`: short runs, many methods (mtrt has 7,
/// antlr 10 with categorical features), so model rebuilds dominate.
const LONG_EVOLVE_PROGRAMS: [&str; 2] = ["mtrt", "antlr"];
/// Campaigns of `long-evolve` as (program index, scenario, runs). The
/// short Rep campaign keeps the `rep` layer measured; it is one campaign
/// of three, so `campaign_ms_p50` falls inside the cluster of the two
/// Evolve campaigns (within about 15% of each other) rather than on the
/// gap between clusters. With Rep at 300 runs its interpretation
/// outweighed `evolve.observe`.
const LONG_EVOLVE: [(usize, Scenario, usize); 3] = [
    (0, Scenario::Evolve, 400),
    (1, Scenario::Evolve, 400),
    (0, Scenario::Rep, 100),
];

/// Programs of `service-store`: the short-run Table I programs.
const SERVICE_PROGRAMS: [&str; 4] = ["mtrt", "antlr", "search", "euler"];
/// Keys per program in `service-store`; campaigns rotate over
/// `SERVICE_PROGRAMS.len() * KEYS_PER_PROGRAM` model keys.
const KEYS_PER_PROGRAM: usize = 2;
/// Campaigns per `service-store` pass.
const SERVICE_CAMPAIGNS: usize = 160;
/// Runs per `service-store` campaign.
const SERVICE_RUNS: usize = 5;

/// How a workload's campaigns are driven.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// One thread, campaigns in order through `Campaign::run_with_sink`;
    /// each bench's campaigns share one `DefaultOracle`.
    Sequential,
    /// One submitting thread feeding a `CampaignService` backed by a
    /// fresh `ShardedStore`, blocking at the queue bound.
    Service { workers: usize, queue_bound: usize },
}

/// One campaign of a workload.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Index into [`Workload::programs`] (and the materialized benches).
    pub bench: usize,
    pub scenario: Scenario,
    pub runs: usize,
    /// Arrival-order seed.
    pub seed: u64,
    pub model_key: Option<String>,
}

impl CampaignPlan {
    /// Campaigns that must run in order relative to each other (same
    /// oracle, or same model key) share a group; distinct groups are
    /// independent.
    pub fn group(&self) -> String {
        match &self.model_key {
            Some(key) => key.clone(),
            None => self.bench.to_string(),
        }
    }
}

/// A named workload: programs to materialize and campaigns to run.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub programs: Vec<&'static str>,
    pub campaigns: Vec<CampaignPlan>,
    pub shape: Shape,
}

pub const WORKLOADS: [&str; 3] = ["paper-suite", "long-evolve", "service-store"];

/// Build the named workload for `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let mut campaigns = Vec::new();
    let (name, programs, shape) = match name {
        "paper-suite" => {
            let programs = evovm_workloads::names();
            for (bench, program) in programs.iter().enumerate() {
                let runs = evovm_workloads::info(program)?.campaign_runs;
                for scenario in [Scenario::Default, Scenario::Rep, Scenario::Evolve] {
                    campaigns.push(CampaignPlan {
                        bench,
                        scenario,
                        runs,
                        seed,
                        model_key: None,
                    });
                }
            }
            (WORKLOADS[0], programs, Shape::Sequential)
        }
        "long-evolve" => {
            for (bench, scenario, runs) in LONG_EVOLVE {
                campaigns.push(CampaignPlan {
                    bench,
                    scenario,
                    runs,
                    seed,
                    model_key: None,
                });
            }
            (
                WORKLOADS[1],
                LONG_EVOLVE_PROGRAMS.to_vec(),
                Shape::Sequential,
            )
        }
        "service-store" => {
            for i in 0..SERVICE_CAMPAIGNS {
                let bench = i % SERVICE_PROGRAMS.len();
                let lane = (i / SERVICE_PROGRAMS.len()) % KEYS_PER_PROGRAM;
                campaigns.push(CampaignPlan {
                    bench,
                    scenario: Scenario::Evolve,
                    runs: SERVICE_RUNS,
                    seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                    model_key: Some(format!("{}-{lane}", SERVICE_PROGRAMS[bench])),
                });
            }
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let shape = Shape::Service {
                workers,
                queue_bound: 2 * workers,
            };
            (WORKLOADS[2], SERVICE_PROGRAMS.to_vec(), shape)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        seed,
        programs,
        campaigns,
        shape,
    })
}

impl Workload {
    /// Materialize every bench the workload uses (MiniJava compile of
    /// each input plus the XICL spec parse), returning the benches and
    /// the wall time it took.
    pub fn materialize(&self) -> (Vec<Bench>, f64) {
        let start = Instant::now();
        let benches = self
            .programs
            .iter()
            .map(|p| {
                evovm_workloads::materialize(p, INPUT_SET_SEED).expect("workload program exists")
            })
            .collect();
        (benches, start.elapsed().as_secs_f64())
    }
}
