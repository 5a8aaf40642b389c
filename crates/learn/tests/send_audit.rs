//! Thread-safety audit: the campaign service moves learned state across
//! worker threads, so every type that ends up inside an optimizer
//! backend — datasets, fitted trees, the confidence tracker — must be
//! `Send`, and the read-shared ones `Sync`. Compile-time only; a
//! regression (e.g. an `Rc` slipping into a tree node) fails the build
//! of this test, not just the service crate.

use evovm_learn::{
    ClassificationTree, ConfidenceTracker, Dataset, DatasetError, Encoded, MajorityClassifier,
    TreeParams,
};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn learned_state_crosses_threads() {
    assert_send::<Dataset>();
    assert_send::<ClassificationTree>();
    assert_send::<ConfidenceTracker>();
    assert_send::<MajorityClassifier>();
    assert_send::<TreeParams>();
    assert_send::<Encoded>();
    assert_send::<DatasetError>();

    assert_sync::<Dataset>();
    assert_sync::<ClassificationTree>();
    assert_sync::<TreeParams>();
}
