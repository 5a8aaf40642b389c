//! # Evolvable Virtual Machine
//!
//! Workspace façade crate re-exporting the public API of the evolvable
//! virtual machine — a reproduction of Mao & Shen, *Cross-Input Learning and
//! Discriminative Prediction in Evolvable Virtual Machines* (CGO 2009).
//!
//! The heavy lifting lives in the member crates:
//!
//! - [`bytecode`] — the stack-machine instruction set, program model,
//!   assembler, disassembler and verifier.
//! - [`opt`] — the multi-level optimizing JIT (constant folding, DCE,
//!   peephole, inlining, LICM, unrolling) and the level cost model.
//! - [`vm`] — the execution engine: interpreter, virtual cycle clock,
//!   sampling profiler, and the default (reactive) adaptive optimizer.
//! - [`minijava`] — a small Java-like language compiled to the bytecode,
//!   used to author the benchmark workloads.
//! - [`xicl`] — the Extensible Input Characterization Language: spec parser,
//!   translator and feature-extraction machinery.
//! - [`learn`] — classification trees, cost datasets and the decayed
//!   confidence tracker.
//! - [`evovm`] — the paper's contribution: the evolvable controller with
//!   discriminative prediction, plus the `Rep` and `Default` baselines and
//!   the campaign runner used by every experiment.
//! - [`workloads`] — the eleven benchmark analogs with input generators and
//!   XICL specs.
//!
//! ## Quickstart
//!
//! ```
//! use evolvable_vm::evovm::{Campaign, CampaignConfig, Scenario};
//! use evolvable_vm::workloads;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = workloads::by_name("mtrt").expect("bundled workload");
//! let config = CampaignConfig::new(Scenario::Evolve).runs(8).seed(7);
//! let outcome = Campaign::new(&workload, config)?.run()?;
//! assert_eq!(outcome.records.len(), 8);
//! # Ok(())
//! # }
//! ```

pub use evovm;
pub use evovm_bytecode as bytecode;
pub use evovm_learn as learn;
pub use evovm_minijava as minijava;
pub use evovm_opt as opt;
pub use evovm_vm as vm;
pub use evovm_workloads as workloads;
pub use evovm_xicl as xicl;
