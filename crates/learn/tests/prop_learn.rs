//! Property tests for the learning substrate: tree training invariants
//! and confidence dynamics.

use proptest::prelude::*;

use evovm_learn::confidence::ConfidenceTracker;
use evovm_learn::dataset::{Dataset, Raw};
use evovm_learn::tree::{ClassificationTree, TreeParams};

fn arb_rows() -> impl Strategy<Value = Vec<(f64, f64, u16)>> {
    proptest::collection::vec(
        (
            (-1000i32..1000).prop_map(f64::from),
            (-1000i32..1000).prop_map(f64::from),
            0u16..4,
        ),
        1..40,
    )
}

fn dataset(rows: &[(f64, f64, u16)]) -> (Dataset, Vec<u16>) {
    let mut d = Dataset::new();
    for &(x, y, _) in rows {
        d.push(&[("x".to_owned(), Raw::Num(x)), ("y".to_owned(), Raw::Num(y))])
            .expect("consistent schema");
    }
    (d, rows.iter().map(|&(_, _, label)| label).collect())
}

proptest! {
    /// With unlimited depth, a tree memorizes any dataset whose labels
    /// are a function of the features (resubstitution accuracy 1.0).
    #[test]
    fn trees_memorize_functional_data(rows in arb_rows()) {
        // Deduplicate conflicting rows: make the label a function of x,y.
        let rows: Vec<(f64, f64, u16)> = rows
            .into_iter()
            .map(|(x, y, _)| (x, y, (((x as i64).unsigned_abs() + (y as i64).unsigned_abs()) % 3) as u16))
            .collect();
        let (d, labels) = dataset(&rows);
        let tree = ClassificationTree::fit(
            &d,
            &labels,
            &TreeParams { max_depth: 24, ..TreeParams::default() },
        );
        for (row, &label) in d.rows().iter().zip(&labels) {
            prop_assert_eq!(tree.predict(row), label);
        }
    }

    /// Predictions always come from the training label set.
    #[test]
    fn predictions_are_seen_labels(rows in arb_rows(), probe_x in -2000.0..2000.0f64, probe_y in -2000.0..2000.0f64) {
        let (d, labels) = dataset(&rows);
        let tree = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        let encoded = d
            .encode(&[
                ("x".to_owned(), Raw::Num(probe_x)),
                ("y".to_owned(), Raw::Num(probe_y)),
            ])
            .expect("same schema");
        prop_assert!(labels.contains(&tree.predict(&encoded)));
    }

    /// Used features are always valid column indices, and a tree never
    /// splits on more features than the schema has.
    #[test]
    fn used_features_are_well_formed(rows in arb_rows()) {
        let (d, labels) = dataset(&rows);
        let tree = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        let used = tree.used_features();
        prop_assert!(used.len() <= d.columns().len());
        prop_assert!(used.iter().all(|&i| i < d.columns().len()));
    }

    /// Confidence stays in [0, 1] under any accuracy sequence and is
    /// monotone in each individual update's accuracy.
    #[test]
    fn confidence_is_bounded_and_monotone(accs in proptest::collection::vec(0.0..=1.0f64, 1..30)) {
        let mut c = ConfidenceTracker::default();
        for &a in &accs {
            let before = c.value();
            c.update(a);
            prop_assert!((0.0..=1.0).contains(&c.value()));
            // A perfect run never lowers confidence; a zero run never
            // raises it.
            if a == 1.0 {
                prop_assert!(c.value() >= before);
            }
            if a == 0.0 {
                prop_assert!(c.value() <= before);
            }
        }
        prop_assert_eq!(c.updates(), accs.len() as u64);
    }

    /// Tree serialization round-trips and preserves predictions.
    #[test]
    fn tree_serde_roundtrip(rows in arb_rows()) {
        let (d, labels) = dataset(&rows);
        let tree = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        let json = serde_json::to_string(&tree).expect("serializes");
        let back: ClassificationTree = serde_json::from_str(&json).expect("deserializes");
        for row in d.rows() {
            prop_assert_eq!(tree.predict(row), back.predict(row));
        }
    }
}
