//! Cross-crate pipeline tests: XICL feature vectors flow into learning
//! datasets, trees select the informative features, and the evolvable VM
//! exposes the paper's Table-I feature accounting.

use evolvable_vm::learn::dataset::{Dataset, Raw};
use evolvable_vm::learn::tree::{ClassificationTree, TreeParams};
use evolvable_vm::xicl::extract::Registry;
use evolvable_vm::xicl::{spec, FeatureValue, Translator, Vfs};

fn translator() -> Translator {
    let s = spec::parse(
        "option {name=-n; type=num; attr=VAL; default=1; has_arg=y}
option {name=-v; type=bin; attr=VAL; default=0; has_arg=n}
option {name=-f; type=str; attr=VAL; default=text; has_arg=y}
operand {position=1; type=file; attr=SIZE}",
    )
    .expect("valid spec");
    Translator::new(s, Registry::with_predefined())
}

fn vector_to_raw(fv: &evolvable_vm::xicl::FeatureVector) -> Vec<(String, Raw)> {
    fv.iter()
        .map(|(n, v)| {
            (
                n.to_owned(),
                match v {
                    FeatureValue::Num(x) => Raw::Num(*x),
                    FeatureValue::Cat(s) => Raw::Cat(s.clone()),
                },
            )
        })
        .collect()
}

#[test]
fn xicl_vectors_train_trees_that_select_informative_features() {
    let t = translator();
    let mut vfs = Vfs::new();
    let mut dataset = Dataset::new();
    let mut labels = Vec::new();
    // Label rule the tree must discover: big files → class 2, otherwise
    // the categorical -f flips between classes 0 and 1. Small-file sizes
    // repeat across formats so SIZE alone *cannot* separate classes 0 and
    // 1 — the tree is forced to split on -f. The -n and -v options never
    // vary (always defaults), mirroring the paper's unused options that
    // must not appear in the tree.
    for (i, (size, fmt, label)) in [
        (100usize, "text", 0u16),
        (100, "html", 1),
        (140, "text", 0),
        (140, "html", 1),
        (90, "text", 0),
        (90, "html", 1),
        (9_000, "text", 2),
        (12_000, "html", 2),
        (15_000, "text", 2),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("f{i}");
        vfs.write(name.clone(), "x".repeat(*size));
        let args: Vec<String> = vec!["-f".into(), (*fmt).to_owned(), name];
        let (fv, _) = t.translate(&args, &vfs).expect("legal input");
        dataset
            .push(&vector_to_raw(&fv))
            .expect("consistent schema");
        labels.push(*label);
    }
    let tree = ClassificationTree::fit(&dataset, &labels, &TreeParams::default());
    let used = tree.used_features();
    let names: Vec<&str> = dataset.columns().iter().map(|c| c.name.as_str()).collect();
    let used_names: Vec<&str> = used.iter().map(|&i| names[i]).collect();
    assert!(
        used_names.contains(&"operand0.SIZE"),
        "size must be split on: {used_names:?}"
    );
    assert!(
        used_names.contains(&"-f.VAL"),
        "format must be split on: {used_names:?}"
    );
    assert!(
        !used_names.contains(&"-n.VAL") && !used_names.contains(&"-v.VAL"),
        "constant options must be excluded: {used_names:?}"
    );

    // And it predicts fresh inputs correctly.
    vfs.write("fresh_small", "y".repeat(110));
    let (fv, _) = t
        .translate(
            &["-f".to_owned(), "html".to_owned(), "fresh_small".to_owned()],
            &vfs,
        )
        .expect("legal input");
    let encoded = dataset.encode(&vector_to_raw(&fv)).expect("same schema");
    assert_eq!(tree.predict(&encoded), 1);

    vfs.write("fresh_big", "y".repeat(20_000));
    let (fv, _) = t
        .translate(&["fresh_big".to_owned()], &vfs)
        .expect("legal input");
    let encoded = dataset.encode(&vector_to_raw(&fv)).expect("same schema");
    assert_eq!(tree.predict(&encoded), 2);
}

#[test]
fn workload_feature_accounting_matches_table_one_semantics() {
    use evolvable_vm::evovm::{Campaign, CampaignConfig, Scenario};
    let bench = evolvable_vm::workloads::by_name("fop").expect("bundled workload");
    let outcome = Campaign::new(
        &bench,
        CampaignConfig::new(Scenario::Evolve).runs(10).seed(5),
    )
    .expect("campaign")
    .run()
    .expect("runs succeed");
    assert!(outcome.raw_features >= outcome.used_features);
    assert!(outcome.raw_features > 0);
    // fop's format option and LINES both matter, so at least one feature
    // must be selected once models exist.
    assert!(outcome.used_features >= 1);
}
