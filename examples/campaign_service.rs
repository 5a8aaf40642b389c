//! Smoke-drive the long-lived [`CampaignService`]: submit the Table I
//! workloads incrementally, stream per-run records as they are
//! produced, and report service throughput.
//!
//! Where `examples/evolve_campaign.rs` runs campaigns one at a time with
//! `Campaign::run`, this example shows the service, the one way to run a
//! batch: campaigns are submitted one at a time while earlier ones are
//! already running, each handle streams its records live, and the pool
//! outlives every submission. The throughput summary at the
//! end (campaigns/sec, time-to-first-record queue latency) is the
//! wall-clock companion to the bit-identical determinism contract —
//! what the service buys, not just what it preserves.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example campaign_service
//! ```

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evolvable_vm::evovm::{
    CampaignConfig, CampaignService, EvolveError, RunEvent, Scenario, ShutdownMode,
};
use evolvable_vm::workloads;

const RUNS: usize = 6;
const SEED: u64 = 11;

fn main() -> Result<(), EvolveError> {
    println!("=== campaign service: Table I under Scenario::Evolve ===");
    let service = CampaignService::builder().spawn();
    println!(
        "worker pool: {} threads, {} campaigns of {RUNS} runs each\n",
        service.worker_count(),
        workloads::names().len()
    );

    let started = Instant::now();
    let mut collectors = Vec::new();
    for name in workloads::names() {
        // Incremental submission: each workload is loaded and submitted
        // as it is "discovered" — earlier campaigns are already running
        // (and streaming) while later ones are still being prepared.
        let bench = Arc::new(workloads::by_name(name).expect("bundled workload"));
        let config = CampaignConfig::new(Scenario::Evolve)
            .runs(RUNS)
            .seed(SEED)
            .retain_records(false); // records escape through the stream
        let submitted = Instant::now();
        let handle = service.submit(bench, config)?;
        let name = name.to_string();
        collectors.push(thread::spawn(move || {
            let mut first_record: Option<Duration> = None;
            let mut speedups: Vec<f64> = Vec::new();
            loop {
                match handle.next_event() {
                    Some(RunEvent::Record(record)) => {
                        first_record.get_or_insert_with(|| submitted.elapsed());
                        println!(
                            "  {name:<12} run {:>2}: input {:>3}  speedup {:>6.3}  confidence {:.3}",
                            record.run_index, record.input_index, record.speedup, record.confidence
                        );
                        speedups.push(record.speedup);
                    }
                    Some(RunEvent::ForkSample(_)) => continue,
                    Some(RunEvent::Finished(result)) => {
                        let outcome = result.expect("campaign succeeds");
                        assert!(
                            outcome.records.is_empty(),
                            "retention is off; records arrive only via the stream"
                        );
                        break (name, speedups, first_record);
                    }
                    None => panic!("stream for {name} ended without a terminal event"),
                }
            }
        }));
    }

    let mut total_records = 0usize;
    let mut summaries = Vec::new();
    for collector in collectors {
        let (name, speedups, first_record) = collector.join().expect("collector thread");
        total_records += speedups.len();
        let mean = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
        let latency = first_record.map_or_else(
            || "(no records)".to_owned(),
            |d| format!("{:8.1} ms", d.as_secs_f64() * 1e3),
        );
        summaries.push(format!(
            "{name:<12} {:>2} records   first record after {latency}   mean speedup {mean:.3}",
            speedups.len()
        ));
    }
    let elapsed = started.elapsed();

    println!("\n--- per-campaign summary (queue latency = submit → first record) ---");
    for line in summaries {
        println!("{line}");
    }
    let campaigns = workloads::names().len();
    println!(
        "\n{campaigns} campaigns / {total_records} records in {:.2} s  =>  {:.2} campaigns/sec",
        elapsed.as_secs_f64(),
        campaigns as f64 / elapsed.as_secs_f64()
    );
    println!("service metrics: {}", service.metrics());
    service.shutdown(ShutdownMode::Drain);
    Ok(())
}
