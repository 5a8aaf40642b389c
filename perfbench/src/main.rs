//! Campaign benchmark of the evolvable VM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-suite|long-evolve|service-store> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole passes of the workload for `--seconds`
//! seconds and prints the end-to-end metrics. `--trace 1` is the separate
//! traced run: one untraced pass, then two traced passes whose spans give
//! the per-layer metrics. Both check outputs: every pass must hash its
//! run records identically to an untimed pass under
//! `InterpMode::Reference`, and the traced passes must reproduce the
//! untraced hash and repeat every exact counter. Each metric is printed
//! as a `metric <name> <value> <unit>` line; the last line of standard
//! output is one JSON object with the result. The exit code is 0 only
//! when every check passed.

mod check;
mod plan;
mod runner;
mod traced;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evovm::{Bench, ShardedStore};

use check::{digest, Digest};
use plan::{Shape, Workload};
use runner::{PassObs, ScratchDir};
use traced::{Aggregate, TracedPass};

/// Materializations per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                plan::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = plan::workload(&args.workload, args.seed) else {
        eprintln!(
            "unknown workload `{}` (known: {})",
            args.workload,
            plan::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced_run(&w)
    } else {
        timed_run(&w, Duration::from_secs(args.seconds))
    };
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median, the mean of the middle two for an even count; 0 for none.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Materialize the workload's benches `reps` times; returns the last
/// set and the median set-up time.
fn setup(w: &Workload, reps: usize) -> (Vec<Bench>, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut benches = Vec::new();
    for _ in 0..reps {
        let (b, secs) = w.materialize();
        benches = b;
        times.push(secs);
    }
    (benches, median(&times))
}

/// One untraced pass. Service passes get a fresh `ShardedStore` in a
/// scratch directory that is removed when the pass ends.
fn untraced_pass(w: &Workload, benches: &[Bench], shared: &[Arc<Bench>]) -> PassObs {
    match w.shape {
        Shape::Sequential => runner::sequential_pass(w, benches),
        Shape::Service { .. } => {
            let dir = ScratchDir::fresh(w.name).expect("create the store's scratch directory");
            runner::service_pass(w, shared, Arc::new(ShardedStore::new(dir.path())))
        }
    }
}

/// Count failures of one pass against the reference: failed campaigns,
/// or one mismatch when every campaign succeeded but the records differ.
fn failures(pass_failures: usize, got: &Digest, reference: &Digest, what: &str) -> usize {
    if pass_failures > 0 {
        eprintln!("{what}: {pass_failures} campaign(s) failed");
        pass_failures
    } else if got != reference {
        eprintln!(
            "{what}: records differ from the reference pass ({:016x} vs {:016x})",
            got.hash, reference.hash
        );
        1
    } else {
        0
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn timed_run(w: &Workload, budget: Duration) -> Report {
    let (benches, setup_s) = setup(w, SETUP_REPS);
    let shared: Vec<Arc<Bench>> = benches.iter().cloned().map(Arc::new).collect();

    // Whole passes until the next one would overrun the budget.
    let start = Instant::now();
    let mut passes: Vec<PassObs> = Vec::new();
    loop {
        let pass = untraced_pass(w, &benches, &shared);
        let last = Duration::from_secs_f64(pass.wall_s);
        passes.push(pass);
        if start.elapsed() + last > budget {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mib();

    let reference = runner::reference_pass(w, &benches);
    let mut failed = 0;
    for (i, pass) in passes.iter().enumerate() {
        failed += failures(
            pass.failures(),
            &pass.digest(),
            &reference,
            &format!("pass {i}"),
        );
    }
    let attempted: usize = passes.iter().map(|p| p.campaigns.len()).sum();

    // Latency percentiles are taken per pass and their median across
    // passes is reported, so one pass hit by a host stall moves them
    // little, and the rank a percentile picks does not depend on how
    // many passes fitted in the budget.
    let service = matches!(w.shape, Shape::Service { .. });
    let (mut p50, mut p95, mut campaign_p50) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    for pass in &passes {
        let mut run_ms = Vec::new();
        let mut campaign_ms = Vec::new();
        for c in &pass.campaigns {
            let mut prev = c.start;
            for (i, &at) in c.records.iter().enumerate() {
                // A service campaign's first gap includes its queue wait.
                if !(service && i == 0) {
                    run_ms.push(ms(at - prev));
                }
                prev = at;
            }
            campaign_ms.push(ms(c.end - c.start));
        }
        samples += run_ms.len();
        p50.push(percentile(&run_ms, 0.50));
        p95.push(percentile(&run_ms, 0.95));
        campaign_p50.push(median(&campaign_ms));
    }
    let runs: usize = passes.iter().map(PassObs::runs).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    let exact = passes[0].digest().exact;
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    eprintln!(
        "{}: seed {} | pass walls (s) [{}], {runs} runs, {} run-latency samples, {} campaigns | record hash {:016x}",
        w.name,
        w.seed,
        walls.join(", "),
        samples,
        attempted,
        reference.hash
    );
    println!(
        "metric failed_frac {} fraction",
        failed as f64 / attempted.max(1) as f64
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("runs_per_s", runs as f64 / wall, "runs/s"),
            ("run_ms_p50", median(&p50), "ms"),
            ("run_ms_p95", median(&p95), "ms"),
            ("campaign_ms_p50", median(&campaign_p50), "ms"),
            (
                "evolve_speedup_geomean",
                exact.evolve_speedup_geomean,
                "ratio",
            ),
            ("rep_speedup_geomean", exact.rep_speedup_geomean, "ratio"),
            ("accuracy_mean", exact.accuracy_mean, "fraction"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    }
}

fn traced_pass(w: &Workload, benches: &[Bench], shared: &[Arc<Bench>]) -> TracedPass {
    match w.shape {
        Shape::Sequential => traced::traced_sequential(w, benches),
        Shape::Service { .. } => {
            traced::traced_service(w, shared).expect("create the store's scratch directory")
        }
    }
}

fn traced_run(w: &Workload) -> Report {
    let (benches, _) = setup(w, 1);
    let shared: Vec<Arc<Bench>> = benches.iter().cloned().map(Arc::new).collect();
    // The first traced pass warms the process up and gives the counters
    // the second one must repeat; times come from the second, which runs
    // right after the untraced pass it is compared with.
    let first = traced_pass(w, &benches, &shared);
    let untraced = untraced_pass(w, &benches, &shared);
    let traced = traced_pass(w, &benches, &shared);
    let reference = runner::reference_pass(w, &benches);
    eprintln!(
        "{}: seed {} | untraced pass {:.3} s, traced pass {:.3} s (side calls excluded)",
        w.name, w.seed, untraced.wall_s, traced.wall_s
    );

    let mut failed = failures(
        untraced.failures(),
        &untraced.digest(),
        &reference,
        "untraced pass",
    );
    for (what, t) in [("first traced pass", &first), ("traced pass", &traced)] {
        // Fidelity: the re-driven loop must reproduce the untraced records.
        failed += failures(t.failures, &t.digest(), &untraced.digest(), what);
    }
    if first.counters != traced.counters {
        eprintln!(
            "exact counters differ between traced passes:\n  {:?}\n  {:?}",
            first.counters, traced.counters
        );
        failed += 1;
    }

    let untraced_rps = untraced.runs() as f64 / untraced.wall_s;
    let metrics = layer_metrics(&traced, untraced_rps, traced::compile_us(&benches));
    if matches!(w.shape, Shape::Sequential) {
        print_layers(w, &traced);
    }
    print_checks(w, &traced, &metrics);
    let path =
        std::path::Path::new(".bench_out").join(format!("spans-{}-seed{}.jsonl", w.name, w.seed));
    if let Err(e) = traced.write_spans(&path) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        eprintln!("spans written to {}", path.display());
    }
    Report {
        correct: failed == 0,
        attempted: 3 * w.campaigns.len(),
        failed,
        metrics,
    }
}

fn layer_metrics(t: &TracedPass, untraced_rps: f64, compile: [f64; 3]) -> Vec<Metric> {
    let agg = Aggregate::of(&t.tracer, |_| true);
    let c = &t.counters;
    let us = |name: &str| median(&agg.durations(name)) / 1e3;
    let vm_busy_s = agg.self_s("vm.run");
    vec![
        ("oracle.busy_s", agg.self_s("oracle.default_cycles"), "s"),
        ("oracle.default_runs", c.default_runs as f64, "count"),
        (
            "oracle.hit_ratio",
            if c.oracle_lookups == 0 {
                0.0
            } else {
                1.0 - c.default_runs as f64 / c.oracle_lookups as f64
            },
            "fraction",
        ),
        ("vm.busy_s", vm_busy_s, "s"),
        ("vm.instructions", c.instructions as f64, "count"),
        ("vm.virtual_cycles", c.virtual_cycles as f64, "count"),
        ("vm.samples", c.samples as f64, "count"),
        (
            "vm.ns_per_instr",
            if c.instructions == 0 {
                0.0
            } else {
                vm_busy_s * 1e9 / c.instructions as f64
            },
            "ns",
        ),
        ("aos.decisions", c.decisions as f64, "count"),
        ("aos.recompiles", c.recompiles as f64, "count"),
        ("opt.compile_us.O0", compile[0], "us"),
        ("opt.compile_us.O1", compile[1], "us"),
        ("opt.compile_us.O2", compile[2], "us"),
        ("xicl.translate_us", us("xicl.translate"), "us"),
        ("evolve.prepare_us", us("evolve.prepare"), "us"),
        ("evolve.predict_us", us("evolve.predict"), "us"),
        ("evolve.observe_s", agg.self_s("evolve.observe"), "s"),
        (
            "evolve.observe_ms_p95",
            percentile(&agg.durations("evolve.observe"), 0.95) / 1e6,
            "ms",
        ),
        ("evolve.import_ms", median(&t.import_ms), "ms"),
        (
            "evolve.state_kb",
            mean(&t.state_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()) / 1024.0,
            "KiB",
        ),
        ("strategy.ideal_us", us("strategy.ideal"), "us"),
        ("rep.observe_s", agg.self_s("rep.observe"), "s"),
        ("store.load_ms", median(&t.store_load_ms), "ms"),
        ("store.save_ms", median(&t.store_save_ms), "ms"),
        ("store.bytes_written", c.bytes_written as f64, "bytes"),
        ("store.saves", c.saves as f64, "count"),
        ("store.loads", c.loads as f64, "count"),
        ("store.compactions", c.compactions as f64, "count"),
        ("service.queue_wait_ms_p50", median(&t.queue_wait_ms), "ms"),
        ("service.worker_balance", t.worker_balance, "ratio"),
        (
            "trace.overhead_frac",
            1.0 - (t.runs as f64 / t.wall_s) / untraced_rps,
            "fraction",
        ),
    ]
}

/// Production-path layers of the traced loop; `campaign` is the loop
/// itself.
const LAYERS: [&str; 6] = ["campaign", "oracle", "vm", "evolve", "rep", "default"];

/// Self time per layer, and for `paper-suite` one row per Table I
/// program (speedups averaged by geometric mean).
fn print_layers(w: &Workload, t: &TracedPass) {
    let all = Aggregate::of(&t.tracer, |_| true);
    println!("layer self-time (s):");
    for layer in LAYERS {
        println!("  {layer:<10} {:>9.4}", all.layer_s(layer));
    }
    if w.name != "paper-suite" {
        return;
    }
    println!(
        "{:<11} {:>5} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "program", "runs", "evolve_x", "rep_x", "acc", "oracle_s", "vm_s", "evolve_s", "rep_s"
    );
    for (b, program) in w.programs.iter().enumerate() {
        let campaigns: Vec<usize> = (0..w.campaigns.len())
            .filter(|&c| w.campaigns[c].bench == b)
            .collect();
        let d = digest(campaigns.iter().map(|&c| &t.logs[c]));
        let runs: usize = campaigns.iter().map(|&c| t.logs[c].runs).sum();
        let agg = Aggregate::of(&t.tracer, |s| campaigns.contains(&(s.campaign as usize)));
        println!(
            "{program:<11} {runs:>5} {:>8.4} {:>8.4} {:>8.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            d.exact.evolve_speedup_geomean,
            d.exact.rep_speedup_geomean,
            d.exact.accuracy_mean,
            agg.layer_s("oracle"),
            agg.layer_s("vm"),
            agg.layer_s("evolve"),
            agg.layer_s("rep"),
        );
    }
}

/// Whether the workload stresses the layer it was chosen for. Printed,
/// not enforced: a later change may legitimately shrink a layer.
fn print_checks(w: &Workload, t: &TracedPass, metrics: &[Metric]) {
    let agg = Aggregate::of(&t.tracer, |_| true);
    let layer = |name: &str| agg.layer_s(name);
    let mut checks: Vec<(String, bool)> = Vec::new();
    match w.name {
        "paper-suite" => {
            let vm_oracle = layer("vm") + layer("oracle");
            checks.push((
                "vm.busy_s + oracle.busy_s is the largest self time".into(),
                LAYERS
                    .iter()
                    .all(|&l| l == "vm" || l == "oracle" || vm_oracle > layer(l)),
            ));
        }
        "long-evolve" => {
            let observe = agg.self_s("evolve.observe");
            let rest_of_evolve = layer("evolve") - observe;
            checks.push((
                "evolve.observe_s is the largest self time".into(),
                observe > rest_of_evolve
                    && LAYERS.iter().all(|&l| l == "evolve" || observe > layer(l)),
            ));
        }
        _ => {}
    }
    let service = w.name == "service-store";
    for name in [
        "store.load_ms",
        "store.save_ms",
        "store.bytes_written",
        "store.saves",
        "store.loads",
        "store.compactions",
        "evolve.import_ms",
    ] {
        let value = metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        let expect = if service { "non-zero" } else { "zero" };
        checks.push((format!("{name} is {expect}"), (value != 0.0) == service));
    }
    for (what, ok) in checks {
        println!("layer-check {what}: {}", if ok { "ok" } else { "FAILED" });
    }
}
