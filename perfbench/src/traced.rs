//! The traced run: spans recorded around calls into each layer's public
//! functions, from outside the program.
//!
//! For sequential workloads the campaign loop of `Campaign::run_with_sink`
//! is re-driven from public calls (oracle lookup, `prepare`, `Vm::new` and
//! `Vm::run` with `features_ready` as a child, `observe`), so each layer
//! gets its own span. The re-driven loop must reproduce the untraced
//! record hash bit for bit; the caller rejects its numbers otherwise.
//! For the service workload, spans come from a timing `ModelStore`
//! decorator and from the handles' event streams.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use evovm::optimizer::{for_scenario, EvolveOptimizer};
use evovm::{
    ideal_levels, Bench, CrossRunOptimizer, DefaultOracle, EvolvableVm, EvolveConfig, EvolveError,
    ModelStore, RunPlan, RunRecord, Scenario, ShardedStore, StoreMetrics,
};
use evovm_bytecode::FuncId;
use evovm_opt::{OptLevel, Optimizer};
use evovm_vm::{AosContext, AosPolicy, Outcome, Vm, VmConfig};

use crate::check::{digest, CampaignLog, Digest};
use crate::plan::{CampaignPlan, Workload};
use crate::runner::{fresh_oracles, service_pass, PassObs, ScratchDir};

const NONE: u32 = u32::MAX;

/// Spans that time a side call the production loop does not make; they
/// are excluded from the traced pass's wall time.
const SIDE: [&str; 4] = [
    "xicl.translate",
    "evolve.predict",
    "strategy.ideal",
    "evolve.export",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub campaign: u32,
    pub run: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    campaign: u32,
    run: u32,
}

impl Tracer {
    fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
            campaign: NONE,
            run: NONE,
        }
    }

    fn now(&self) -> u64 {
        ns(self.t0, Instant::now())
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            campaign: self.campaign,
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in nesting order");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NONE {
                own[s.parent as usize] -= s.dur_ns();
            }
        }
        own
    }
}

fn ns(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// Counts every decision request the VM makes of the launch policy.
#[derive(Debug)]
struct CountingPolicy {
    inner: Box<dyn AosPolicy>,
    decisions: Arc<AtomicU64>,
}

impl AosPolicy for CountingPolicy {
    fn on_first_compile(&mut self, method: FuncId, ctx: AosContext<'_>) -> Option<OptLevel> {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.inner.on_first_compile(method, ctx)
    }

    fn on_sample(&mut self, method: FuncId, ctx: AosContext<'_>) -> Option<OptLevel> {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.inner.on_sample(method, ctx)
    }

    fn fork_box(&self) -> Box<dyn AosPolicy> {
        Box::new(CountingPolicy {
            inner: self.inner.fork_box(),
            decisions: Arc::clone(&self.decisions),
        })
    }
}

/// Counts that must repeat exactly between traced passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub instructions: u64,
    pub virtual_cycles: u64,
    pub samples: u64,
    pub decisions: u64,
    pub recompiles: u64,
    pub oracle_lookups: u64,
    pub default_runs: u64,
    pub bytes_written: u64,
    pub saves: u64,
    pub loads: u64,
    pub compactions: u64,
}

/// One traced pass.
#[derive(Debug)]
pub struct TracedPass {
    pub tracer: Tracer,
    pub logs: Vec<CampaignLog>,
    pub counters: Counters,
    /// Wall time of the pass, minus the side calls.
    pub wall_s: f64,
    pub runs: usize,
    pub failures: usize,
    /// Size of each exported final state.
    pub state_bytes: Vec<usize>,
    /// Milliseconds per `import_state` on the restore path.
    pub import_ms: Vec<f64>,
    pub store_load_ms: Vec<f64>,
    pub store_save_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub worker_balance: f64,
}

impl TracedPass {
    pub fn digest(&self) -> Digest {
        digest(&self.logs)
    }

    /// Write the spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.tracer.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"campaign\":{},\"run\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt_id(s.parent),
                opt_id(s.campaign),
                opt_id(s.run)
            )?;
        }
        out.flush()
    }
}

fn opt_id(id: u32) -> String {
    if id == NONE {
        "null".into()
    } else {
        id.to_string()
    }
}

enum Backend {
    Evolve(Box<EvolveOptimizer>),
    Other(Box<dyn CrossRunOptimizer>),
}

impl Backend {
    fn get(&mut self) -> &mut dyn CrossRunOptimizer {
        match self {
            Backend::Evolve(o) => o.as_mut(),
            Backend::Other(o) => o.as_mut(),
        }
    }
}

/// Span names per scenario: `(prepare, features_ready, observe)`.
fn phase_names(scenario: Scenario) -> (&'static str, &'static str, &'static str) {
    match scenario {
        Scenario::Default => (
            "default.prepare",
            "default.features_ready",
            "default.observe",
        ),
        Scenario::Rep => ("rep.prepare", "rep.features_ready", "rep.observe"),
        Scenario::Evolve => ("evolve.prepare", "evolve.features_ready", "evolve.observe"),
    }
}

/// Per-pass state the re-driven campaign loop updates.
struct LoopState<'a> {
    tr: &'a mut Tracer,
    counters: &'a mut Counters,
    decisions: Arc<AtomicU64>,
    state_bytes: &'a mut Vec<usize>,
}

/// The campaign loop of `Campaign::run_with_sink` (no store, no forks),
/// re-driven from public calls with a span around each.
fn traced_campaign(
    bench: &Bench,
    plan: &CampaignPlan,
    oracle: &DefaultOracle,
    seen: &mut [bool],
    st: &mut LoopState<'_>,
    log: &mut CampaignLog,
) -> Result<(), EvolveError> {
    let config = EvolveConfig::default();
    let interval = config.sample_interval_cycles;
    let scenario = plan.scenario;
    let (prepare_name, ready_name, observe_name) = phase_names(scenario);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let inputs = &bench.inputs;
    let mut backend = match scenario {
        Scenario::Evolve => Backend::Evolve(Box::new(EvolveOptimizer::new(
            bench.translator.clone(),
            config,
        ))),
        _ => Backend::Other(for_scenario(scenario, bench, &config)),
    };
    for run_index in 0..plan.runs {
        st.tr.run = run_index as u32;
        let input_index = rng.gen_range(0..inputs.len());
        let input = &inputs[input_index];
        let span = st.tr.enter("oracle.default_cycles");
        let default_cycles = oracle.default_cycles(input_index, input)?;
        st.tr.exit(span);
        st.counters.oracle_lookups += 1;
        if !std::mem::replace(&mut seen[input_index], true) {
            st.counters.default_runs += 1;
        }

        if let Backend::Evolve(evolve) = &backend {
            let span = st.tr.enter("xicl.translate");
            let (vector, _) = bench.translator.translate(&input.args, &input.vfs)?;
            st.tr.exit(span);
            let span = st.tr.enter("evolve.predict");
            black_box(
                evolve
                    .evolvable()
                    .predict(&vector, input.program.functions().len()),
            );
            st.tr.exit(span);
        }

        let span = st.tr.enter(prepare_name);
        let run_plan = backend.get().prepare(input)?;
        st.tr.exit(span);
        let record = match run_plan {
            RunPlan::Baseline => RunRecord {
                run_index,
                input_index,
                cycles: default_cycles,
                default_cycles,
                speedup: 1.0,
                confidence: 0.0,
                accuracy: 0.0,
                predicted: false,
                overhead_fraction: 0.0,
            },
            RunPlan::Execute {
                policy,
                overhead_cycles,
            } => {
                let policy = Box::new(CountingPolicy {
                    inner: policy,
                    decisions: Arc::clone(&st.decisions),
                });
                let vm_span = st.tr.enter("vm.run");
                let mut vm = Vm::new(
                    Arc::clone(&input.program),
                    policy,
                    VmConfig {
                        sample_interval_cycles: interval,
                        ..VmConfig::default()
                    },
                )?;
                vm.charge_overhead(overhead_cycles)?;
                let result = loop {
                    match vm.run()? {
                        Outcome::Finished(result) => break result,
                        Outcome::FeaturesReady => {
                            let span = st.tr.enter(ready_name);
                            backend.get().features_ready(&mut vm)?;
                            st.tr.exit(span);
                        }
                    }
                };
                st.tr.exit(vm_span);
                st.counters.instructions += result.instructions;
                st.counters.virtual_cycles += result.total_cycles;
                st.counters.samples += result.profile.total_samples();
                st.counters.recompiles += result.profile.recompilations.len() as u64;

                let span = st.tr.enter("strategy.ideal");
                black_box(ideal_levels(&input.program, &result.profile, interval));
                st.tr.exit(span);

                let cycles = result.total_cycles;
                let span = st.tr.enter(observe_name);
                let report = backend.get().observe(input, *result)?;
                st.tr.exit(span);
                RunRecord {
                    run_index,
                    input_index,
                    cycles,
                    default_cycles,
                    speedup: default_cycles as f64 / cycles as f64,
                    confidence: report.confidence,
                    accuracy: report.accuracy,
                    predicted: report.predicted,
                    overhead_fraction: if cycles == 0 {
                        0.0
                    } else {
                        report.overhead_cycles as f64 / cycles as f64
                    },
                }
            }
        };
        log.record(scenario, &record);
    }
    st.tr.run = NONE;
    if let Backend::Evolve(evolve) = &backend {
        let span = st.tr.enter("evolve.export");
        let state = evolve.evolvable().export_state();
        st.tr.exit(span);
        st.state_bytes.push(state.len());
    }
    Ok(())
}

/// A traced pass of a sequential workload.
pub fn traced_sequential(w: &Workload, benches: &[Bench]) -> TracedPass {
    let oracles = fresh_oracles(benches, evovm_vm::InterpMode::Fast);
    let mut seen: Vec<Vec<bool>> = benches
        .iter()
        .map(|b| vec![false; b.inputs.len()])
        .collect();
    let mut tracer = Tracer::new(Instant::now());
    let mut counters = Counters::default();
    let mut state_bytes = Vec::new();
    let decisions = Arc::new(AtomicU64::new(0));
    let mut logs = Vec::with_capacity(w.campaigns.len());
    let mut failures = 0;
    for (ci, plan) in w.campaigns.iter().enumerate() {
        tracer.campaign = ci as u32;
        let root = tracer.enter("campaign");
        let mut log = CampaignLog::default();
        let mut st = LoopState {
            tr: &mut tracer,
            counters: &mut counters,
            decisions: Arc::clone(&decisions),
            state_bytes: &mut state_bytes,
        };
        let result = traced_campaign(
            &benches[plan.bench],
            plan,
            &oracles[plan.bench],
            &mut seen[plan.bench],
            &mut st,
            &mut log,
        );
        if let Err(e) = result {
            eprintln!("traced campaign {ci} failed: {e}");
            failures += 1;
            // Close the spans the error left open.
            while let Some(&open) = tracer.stack.last() {
                tracer.exit(open);
            }
        } else {
            tracer.exit(root);
        }
        logs.push(log);
    }
    counters.decisions = decisions.load(Ordering::Relaxed);
    let total_ns = tracer.now();
    let side_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| SIDE.contains(&s.name))
        .map(Span::dur_ns)
        .sum();
    TracedPass {
        runs: logs.iter().map(|l| l.runs).sum(),
        tracer,
        logs,
        counters,
        wall_s: (total_ns - side_ns) as f64 / 1e9,
        failures,
        state_bytes,
        import_ms: Vec::new(),
        store_load_ms: Vec::new(),
        store_save_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        worker_balance: 0.0,
    }
}

/// What the timing store decorator saw.
#[derive(Debug, Default)]
struct StoreLog {
    spans: Vec<(&'static str, u64, u64)>,
    saved_bytes: Vec<usize>,
    loaded: Vec<(String, String)>,
}

/// A `ModelStore` decorator that times every call into the wrapped
/// `ShardedStore` and keeps each loaded state for the import side-call.
#[derive(Debug)]
struct TimedStore {
    inner: ShardedStore,
    t0: Instant,
    log: Mutex<StoreLog>,
}

impl ModelStore for TimedStore {
    fn save(&self, key: &str, state: &str) {
        let start = ns(self.t0, Instant::now());
        self.inner.save(key, state);
        let end = ns(self.t0, Instant::now());
        let mut log = self.log.lock().expect("store log lock");
        log.spans.push(("store.save", start, end));
        log.saved_bytes.push(state.len());
    }

    fn load(&self, key: &str) -> Option<String> {
        let start = ns(self.t0, Instant::now());
        let state = self.inner.load(key);
        let end = ns(self.t0, Instant::now());
        let mut log = self.log.lock().expect("store log lock");
        log.spans.push(("store.load", start, end));
        if let Some(state) = &state {
            log.loaded.push((key.to_owned(), state.clone()));
        }
        state
    }

    fn metrics(&self) -> &StoreMetrics {
        self.inner.metrics()
    }
}

/// A traced pass of the service workload: the untraced service pass
/// with a timing decorator around its fresh `ShardedStore`, spans from
/// the handles' event streams, and the restore path's `import_state`
/// timed afterwards on every state the store handed out.
pub fn traced_service(w: &Workload, benches: &[Arc<Bench>]) -> std::io::Result<TracedPass> {
    let dir = ScratchDir::fresh(w.name)?;
    let t0 = Instant::now();
    let store = Arc::new(TimedStore {
        inner: ShardedStore::new(dir.path()),
        t0,
        log: Mutex::new(StoreLog::default()),
    });
    let pass: PassObs = service_pass(w, benches, Arc::clone(&store) as Arc<dyn ModelStore>);
    let snapshot = store.inner.metrics().snapshot();
    let log = std::mem::take(&mut *store.log.lock().expect("store log lock"));
    drop(dir);

    let mut tracer = Tracer::new(t0);
    let mut queue_wait_ms = Vec::new();
    for (ci, obs) in pass.campaigns.iter().enumerate() {
        let campaign = ci as u32;
        let root = tracer.spans.len() as u32;
        tracer.spans.push(Span {
            name: "service.campaign",
            start_ns: ns(t0, obs.start),
            end_ns: ns(t0, obs.end),
            parent: NONE,
            campaign,
            run: NONE,
        });
        let mut prev = obs.start;
        for (run, &at) in obs.records.iter().enumerate() {
            let name = if run == 0 {
                queue_wait_ms.push(at.duration_since(obs.start).as_secs_f64() * 1e3);
                "service.queue_wait"
            } else {
                "service.run"
            };
            tracer.spans.push(Span {
                name,
                start_ns: ns(t0, prev),
                end_ns: ns(t0, at),
                parent: root,
                campaign,
                run: run as u32,
            });
            prev = at;
        }
    }
    let mut store_load_ms = Vec::new();
    let mut store_save_ms = Vec::new();
    for &(name, start_ns, end_ns) in &log.spans {
        let ms = (end_ns - start_ns) as f64 / 1e6;
        if name == "store.load" {
            store_load_ms.push(ms);
        } else {
            store_save_ms.push(ms);
        }
        tracer.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: NONE,
            campaign: NONE,
            run: NONE,
        });
    }

    let mut import_ms = Vec::with_capacity(log.loaded.len());
    for (key, state) in &log.loaded {
        let plan = w
            .campaigns
            .iter()
            .find(|p| p.model_key.as_deref() == Some(key.as_str()))
            .expect("loaded keys belong to the workload");
        let bench = &benches[plan.bench];
        let mut fresh = EvolvableVm::new(bench.translator.clone(), EvolveConfig::default());
        let start = Instant::now();
        let imported = fresh.import_state(state);
        import_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = imported {
            eprintln!("import of stored state for {key} failed: {e}");
        }
    }
    let busy = &pass.service.as_ref().expect("service pass").per_worker_busy;
    let worker_balance = match (busy.iter().min(), busy.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 0.0,
    };
    Ok(TracedPass {
        logs: pass.campaigns.iter().map(|c| c.log.clone()).collect(),
        runs: pass.runs(),
        failures: pass.failures(),
        tracer,
        counters: Counters {
            bytes_written: log.saved_bytes.iter().sum::<usize>() as u64,
            saves: snapshot.saves,
            loads: snapshot.loads,
            compactions: snapshot.compactions,
            ..Counters::default()
        },
        wall_s: pass.wall_s,
        state_bytes: log.saved_bytes,
        import_ms,
        store_load_ms,
        store_save_ms,
        queue_wait_ms,
        worker_balance,
    })
}

/// Host µs per `Optimizer::compile` call at O0, O1 and O2, over every
/// method of each bench's first input, in a side loop.
pub fn compile_us(benches: &[Bench]) -> [f64; 3] {
    const SWEEPS: usize = 5;
    let optimizer = Optimizer::new();
    [OptLevel::O0, OptLevel::O1, OptLevel::O2].map(|level| {
        let mut calls = 0u32;
        let start = Instant::now();
        for _ in 0..SWEEPS {
            for bench in benches {
                let program = &bench.inputs[0].program;
                for id in 0..program.functions().len() {
                    black_box(optimizer.compile(program, FuncId(id as u32), level));
                    calls += 1;
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
    })
}

/// Self time and span durations aggregated by span name.
#[derive(Debug, Default)]
pub struct Aggregate {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub durations_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Aggregate {
    pub fn of(tracer: &Tracer, filter: impl Fn(&Span) -> bool) -> Aggregate {
        let own = tracer.self_ns();
        let mut agg = Aggregate::default();
        for (s, own) in tracer.spans.iter().zip(own) {
            if !filter(s) {
                continue;
            }
            *agg.self_ns.entry(s.name).or_default() += own;
            agg.durations_ns.entry(s.name).or_default().push(s.dur_ns());
        }
        agg
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Self seconds of every production-path span whose name starts
    /// with `layer.`.
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer) && !SIDE.contains(name))
            .map(|(_, &v)| v)
            .sum::<u64>() as f64
            / 1e9
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations_ns
            .get(name)
            .map(|v| v.iter().map(|&d| d as f64).collect())
            .unwrap_or_default()
    }
}
