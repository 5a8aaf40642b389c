#![allow(missing_docs)] // criterion_group! expands undocumented items

//! Criterion microbenchmarks of the substrate itself: interpreter
//! throughput, JIT compilation at each level, classification-tree
//! training and XICL translation. These are not paper figures; they keep
//! the infrastructure's own performance visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

use evovm_bytecode::asm::parse;
use evovm_learn::dataset::{Dataset, Raw};
use evovm_learn::tree::{ClassificationTree, TreeParams};
use evovm_opt::{OptLevel, Optimizer};
use evovm_vm::{BaselineOnlyPolicy, CostBenefitPolicy, Outcome, Vm, VmConfig};
use evovm_xicl::{extract::Registry, spec, Translator, Vfs};

fn interpreter_program() -> Arc<evovm_bytecode::Program> {
    let src = "
entry func main/0 locals=1 {
  const 0
  store 0
top:
  load 0
  const 20000
  icmpge
  jumpif end
  load 0
  call mix
  pop
  load 0
  const 1
  iadd
  store 0
  jump top
end:
  null
  return
}
func mix/1 locals=2 {
  load 0
  const 2654435761
  imul
  const 1048575
  band
  store 1
  load 1
  load 0
  iadd
  return
}";
    Arc::new(parse(src).expect("valid asm"))
}

fn bench_interpreter(c: &mut Criterion) {
    let program = interpreter_program();
    c.bench_function("interp_20k_iterations_baseline", |b| {
        b.iter_batched(
            || {
                Vm::new(
                    Arc::clone(&program),
                    Box::new(BaselineOnlyPolicy),
                    VmConfig::default(),
                )
                .expect("verified")
            },
            |mut vm| match vm.run().expect("runs") {
                Outcome::Finished(r) => r.total_cycles,
                Outcome::FeaturesReady => unreachable!(),
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("interp_20k_iterations_adaptive", |b| {
        b.iter_batched(
            || {
                Vm::new(
                    Arc::clone(&program),
                    Box::new(CostBenefitPolicy::new()),
                    VmConfig::default(),
                )
                .expect("verified")
            },
            |mut vm| match vm.run().expect("runs") {
                Outcome::Finished(r) => r.total_cycles,
                Outcome::FeaturesReady => unreachable!(),
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_optimizer(c: &mut Criterion) {
    let program = interpreter_program();
    let optimizer = Optimizer::new();
    for level in [OptLevel::O1, OptLevel::O2] {
        c.bench_function(&format!("jit_compile_{level}"), |b| {
            b.iter(|| optimizer.compile(&program, program.entry(), level));
        });
    }
}

fn bench_tree_training(c: &mut Criterion) {
    let mut data = Dataset::new();
    let mut labels = Vec::new();
    let mut s: u64 = 7;
    for _ in 0..200 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let x = (s % 1000) as f64;
        let y = ((s >> 10) % 100) as f64;
        labels.push(u16::from(x > 500.0) + u16::from(y > 50.0));
        data.push(&[("x".to_owned(), Raw::Num(x)), ("y".to_owned(), Raw::Num(y))])
            .expect("consistent schema");
    }
    c.bench_function("tree_fit_200_rows", |b| {
        b.iter(|| ClassificationTree::fit(&data, &labels, &TreeParams::default()));
    });

    // Shaped like one method's refit late in a long Evolve campaign: 400
    // runs, three numeric features (one a runtime feature some runs never
    // publish, so NaN), one categorical option and four levels.
    let mut data = Dataset::new();
    let mut labels = Vec::new();
    for _ in 0..400 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let size = (s >> 33) % 5000;
        let depth = (s >> 20) % 12;
        let published = if (s >> 8).is_multiple_of(4) {
            f64::NAN
        } else {
            ((s >> 40) % 64) as f64
        };
        let mode = ["fast", "exact", "trace"][(s % 3) as usize];
        labels.push(u16::from(size > 1200) + u16::from(size > 3500) + u16::from(mode == "exact"));
        data.push(&[
            ("input.SIZE".to_owned(), Raw::Num(size as f64)),
            ("input.DEPTH".to_owned(), Raw::Num(depth as f64)),
            ("runtime.objects".to_owned(), Raw::Num(published)),
            ("option.mode".to_owned(), Raw::Cat(mode.to_owned())),
        ])
        .expect("consistent schema");
    }
    c.bench_function("tree_fit_400_rows_mixed", |b| {
        b.iter(|| ClassificationTree::fit(&data, &labels, &TreeParams::default()));
    });
}

fn bench_xicl(c: &mut Criterion) {
    let xicl_spec = spec::parse(
        "option {name=-n; type=num; attr=VAL; default=1; has_arg=y}
option {name=-e:--echo; type=bin; attr=VAL; default=0; has_arg=n}
operand {position=1:$; type=file; attr=SIZE:LINES:WORDS}",
    )
    .expect("valid spec");
    let translator = Translator::new(xicl_spec, Registry::with_predefined());
    let mut vfs = Vfs::new();
    vfs.write("input.dat", "lorem ipsum dolor\n".repeat(500));
    let args: Vec<String> = vec!["-n".into(), "3".into(), "input.dat".into()];
    c.bench_function("xicl_translate", |b| {
        b.iter(|| translator.translate(&args, &vfs).expect("legal input"));
    });
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_optimizer,
    bench_tree_training,
    bench_xicl
);
criterion_main!(benches);
