//! Untraced passes: the timed production path through
//! `Campaign::run_with_sink` or `CampaignService`, and the untimed
//! reference pass the output check compares against.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use evovm::{
    Bench, Campaign, CampaignConfig, CampaignHandle, CampaignService, DefaultOracle, EvolveConfig,
    MemoryStore, ModelStore, RunEvent, RunRecord, ServiceMetricsSnapshot, ShutdownMode,
};
use evovm_vm::InterpMode;

use crate::check::{digest, CampaignLog, Digest};
use crate::plan::{CampaignPlan, Shape, Workload};

impl CampaignPlan {
    pub fn config(&self, interp: InterpMode) -> CampaignConfig {
        let config = CampaignConfig::new(self.scenario)
            .runs(self.runs)
            .seed(self.seed)
            .interp(interp)
            .retain_records(false);
        match &self.model_key {
            Some(key) => config.model_key(key.clone()),
            None => config,
        }
    }
}

/// The sampling interval every campaign runs with (the paper default).
pub fn sample_interval() -> u64 {
    EvolveConfig::default().sample_interval_cycles
}

/// Host-side observation of one campaign.
#[derive(Debug)]
pub struct CampaignObs {
    /// Campaign start, or acceptance of its submission by the service.
    pub start: Instant,
    /// Delivery time of each record, in run order.
    pub records: Vec<Instant>,
    /// Delivery of the outcome.
    pub end: Instant,
    pub log: CampaignLog,
    pub error: Option<String>,
}

impl CampaignObs {
    fn new(start: Instant) -> CampaignObs {
        CampaignObs {
            start,
            records: Vec::new(),
            end: start,
            log: CampaignLog::default(),
            error: None,
        }
    }

    fn failed(error: String) -> CampaignObs {
        CampaignObs {
            error: Some(error),
            ..CampaignObs::new(Instant::now())
        }
    }
}

/// One pass over every campaign of a workload.
#[derive(Debug)]
pub struct PassObs {
    pub campaigns: Vec<CampaignObs>,
    pub wall_s: f64,
    pub service: Option<ServiceMetricsSnapshot>,
}

impl PassObs {
    pub fn digest(&self) -> Digest {
        digest(self.campaigns.iter().map(|c| &c.log))
    }

    pub fn runs(&self) -> usize {
        self.campaigns.iter().map(|c| c.records.len()).sum()
    }

    pub fn failures(&self) -> usize {
        self.campaigns.iter().filter(|c| c.error.is_some()).count()
    }
}

/// Run one campaign through `Campaign::run_with_sink`, timestamping
/// every record as the sink receives it.
pub fn run_campaign(
    bench: &Bench,
    plan: &CampaignPlan,
    oracle: &DefaultOracle,
    store: Option<&dyn ModelStore>,
    interp: InterpMode,
) -> CampaignObs {
    let mut obs = CampaignObs::new(Instant::now());
    let result = Campaign::new(bench, plan.config(interp)).and_then(|campaign| {
        campaign.run_with_sink(oracle, store, &mut |r: &RunRecord| {
            obs.records.push(Instant::now());
            obs.log.record(plan.scenario, r);
        })
    });
    obs.end = Instant::now();
    obs.error = result.err().map(|e| e.to_string());
    obs
}

/// One oracle per bench, fresh, so every pass pays the same default runs.
pub fn fresh_oracles(benches: &[Bench], interp: InterpMode) -> Vec<DefaultOracle> {
    benches
        .iter()
        .map(|b| DefaultOracle::for_bench(b, sample_interval()).with_interp(interp))
        .collect()
}

/// A sequential pass: campaigns in order on this thread.
pub fn sequential_pass(w: &Workload, benches: &[Bench]) -> PassObs {
    let oracles = fresh_oracles(benches, InterpMode::Fast);
    let start = Instant::now();
    let campaigns = w
        .campaigns
        .iter()
        .map(|p| {
            run_campaign(
                &benches[p.bench],
                p,
                &oracles[p.bench],
                None,
                InterpMode::Fast,
            )
        })
        .collect();
    PassObs {
        campaigns,
        wall_s: start.elapsed().as_secs_f64(),
        service: None,
    }
}

/// Drain one handle, timestamping each event as it arrives.
fn collect(handle: CampaignHandle, plan: &CampaignPlan, accepted: Instant) -> CampaignObs {
    let mut obs = CampaignObs::new(accepted);
    loop {
        match handle.next_event() {
            Some(RunEvent::Record(r)) => {
                obs.records.push(Instant::now());
                obs.log.record(plan.scenario, &r);
            }
            Some(RunEvent::ForkSample(_)) => {}
            Some(RunEvent::Finished(result)) => {
                obs.error = result.err().map(|e| e.to_string());
                break;
            }
            None => {
                obs.error = Some("event stream ended without an outcome".into());
                break;
            }
        }
    }
    obs.end = Instant::now();
    obs
}

/// A service pass: one thread submits every campaign to a fresh
/// `CampaignService` over `store`, blocking at the queue bound. Each
/// handle is drained by its own blocked receiver so every record is
/// timestamped on arrival; those receivers do no campaign work.
pub fn service_pass(w: &Workload, benches: &[Arc<Bench>], store: Arc<dyn ModelStore>) -> PassObs {
    let Shape::Service {
        workers,
        queue_bound,
    } = w.shape
    else {
        panic!("{} is not a service workload", w.name);
    };
    let service = CampaignService::builder()
        .workers(workers)
        .queue_bound(queue_bound)
        .store(store)
        .spawn();
    let start = Instant::now();
    let campaigns = thread::scope(|s| {
        let pending: Vec<_> = w
            .campaigns
            .iter()
            .map(|plan| {
                let config = plan.config(InterpMode::Fast);
                service
                    .submit(Arc::clone(&benches[plan.bench]), config)
                    .map(|handle| {
                        let accepted = Instant::now();
                        s.spawn(move || collect(handle, plan, accepted))
                    })
                    .map_err(|e| e.to_string())
            })
            .collect();
        pending
            .into_iter()
            .map(|p| match p {
                Ok(collector) => collector.join().expect("collector thread panicked"),
                Err(e) => CampaignObs::failed(e),
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let metrics = service.metrics();
    service.shutdown(ShutdownMode::Drain);
    PassObs {
        campaigns,
        wall_s,
        service: Some(metrics),
    }
}

/// The untimed reference pass: every campaign under
/// `InterpMode::Reference`, sequentially within each group (a bench's
/// shared oracle, or a model key's store lane), groups spread over the
/// available cores. Keyed campaigns persist through a `MemoryStore`.
pub fn reference_pass(w: &Workload, benches: &[Bench]) -> Digest {
    let oracles = fresh_oracles(benches, InterpMode::Reference);
    let store = MemoryStore::new();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, plan) in w.campaigns.iter().enumerate() {
        groups.entry(plan.group()).or_default().push(i);
    }
    // Largest groups first, so one long group does not start last.
    let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
    let work = |g: &Vec<usize>| -> usize { g.iter().map(|&i| w.campaigns[i].runs).sum() };
    groups.sort_by_key(|g| std::cmp::Reverse(work(g)));
    let logs: Vec<Mutex<Option<CampaignLog>>> =
        w.campaigns.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let threads = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(groups.len());
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(group) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                    for &i in group {
                        let plan = &w.campaigns[i];
                        let keyed = plan.model_key.as_ref().map(|_| &store as &dyn ModelStore);
                        let obs = run_campaign(
                            &benches[plan.bench],
                            plan,
                            &oracles[plan.bench],
                            keyed,
                            InterpMode::Reference,
                        );
                        let log = match obs.error {
                            // A failed campaign hashes as empty, so it
                            // cannot match a successful timed pass.
                            Some(e) => {
                                eprintln!("reference campaign {i} failed: {e}");
                                CampaignLog::default()
                            }
                            None => obs.log,
                        };
                        *logs[i].lock().expect("no reference thread panics") = Some(log);
                    }
                }
            });
        }
    });
    let logs: Vec<CampaignLog> = logs
        .into_iter()
        .map(|l| {
            l.into_inner()
                .expect("no reference thread panics")
                .expect("every campaign ran")
        })
        .collect();
    digest(&logs)
}

/// A directory for one measurement's `ShardedStore`, under the
/// checkout's `.bench_tmp/`. Removed on drop, so also when a pass fails.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn fresh(tag: &str) -> std::io::Result<ScratchDir> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::current_dir()?.join(".bench_tmp");
        let dir = root.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other measurement uses the root.
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}
