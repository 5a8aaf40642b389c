//! Training datasets: encoded feature rows plus class labels.
//!
//! A [`Dataset`] owns a *schema* — the ordered feature names and kinds —
//! and encodes every row against it, interning categorical values to
//! integer ids. The schema is fixed by the first row (in the evolvable VM
//! it comes from the XICL spec, so all runs of an application agree).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Kind of a feature column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Ordered, threshold-splittable.
    Numeric,
    /// Unordered, equality-splittable.
    Categorical,
}

/// An encoded feature value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Encoded {
    /// Numeric value.
    Num(f64),
    /// Interned category id ([`UNSEEN_CATEGORY`] for values never seen in
    /// training).
    Cat(u32),
}

/// Category id used for values absent from the training data.
pub const UNSEEN_CATEGORY: u32 = u32::MAX;

/// One column of the schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Feature name.
    pub name: String,
    /// Feature kind.
    pub kind: FeatureKind,
    /// Interned categories (empty for numeric columns).
    pub categories: Vec<String>,
}

/// Errors from dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A row's layout does not match the schema.
    SchemaMismatch {
        /// Expected column count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// A row mixed kinds within a column.
    KindMismatch {
        /// The column name.
        column: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::SchemaMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            DatasetError::KindMismatch { column } => {
                write!(
                    f,
                    "column `{column}` saw both numeric and categorical values"
                )
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A raw (not yet interned) feature value.
#[derive(Debug, Clone, PartialEq)]
pub enum Raw {
    /// Numeric.
    Num(f64),
    /// Categorical.
    Cat(String),
}

/// An encoded training set.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    columns: Vec<Column>,
    rows: Vec<Vec<Encoded>>,
    labels: Vec<u16>,
}

impl Dataset {
    /// An empty dataset; the schema is fixed by the first pushed row.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// The schema columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The encoded rows.
    pub fn rows(&self) -> &[Vec<Encoded>] {
        &self.rows
    }

    /// The labels, parallel to [`Dataset::rows`].
    pub fn labels(&self) -> &[u16] {
        &self.labels
    }

    /// Distinct labels present, sorted.
    pub fn classes(&self) -> Vec<u16> {
        let mut v = self.labels.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Append a row of named raw values and its label.
    ///
    /// # Errors
    ///
    /// [`DatasetError::SchemaMismatch`] if the layout differs from the
    /// schema, [`DatasetError::KindMismatch`] if a column changes kind.
    pub fn push(&mut self, values: &[(String, Raw)], label: u16) -> Result<(), DatasetError> {
        if self.columns.is_empty() && self.rows.is_empty() {
            self.columns = values
                .iter()
                .map(|(name, v)| Column {
                    name: name.clone(),
                    kind: match v {
                        Raw::Num(_) => FeatureKind::Numeric,
                        Raw::Cat(_) => FeatureKind::Categorical,
                    },
                    categories: Vec::new(),
                })
                .collect();
        }
        if values.len() != self.columns.len() {
            return Err(DatasetError::SchemaMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        let mut row = Vec::with_capacity(values.len());
        for (col_idx, (_, raw)) in values.iter().enumerate() {
            let column = &mut self.columns[col_idx];
            let encoded = match (column.kind, raw) {
                (FeatureKind::Numeric, Raw::Num(v)) => Encoded::Num(*v),
                (FeatureKind::Categorical, Raw::Cat(s)) => {
                    Encoded::Cat(intern(&mut column.categories, s))
                }
                _ => {
                    return Err(DatasetError::KindMismatch {
                        column: column.name.clone(),
                    })
                }
            };
            row.push(encoded);
        }
        self.rows.push(row);
        self.labels.push(label);
        Ok(())
    }

    /// Encode a prediction-time row against the schema (unseen categories
    /// map to [`UNSEEN_CATEGORY`]; layout mismatches are an error).
    ///
    /// # Errors
    ///
    /// [`DatasetError::SchemaMismatch`] / [`DatasetError::KindMismatch`]
    /// as in [`Dataset::push`].
    pub fn encode(&self, values: &[(String, Raw)]) -> Result<Vec<Encoded>, DatasetError> {
        if values.len() != self.columns.len() {
            return Err(DatasetError::SchemaMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        values
            .iter()
            .zip(&self.columns)
            .map(|((_, raw), column)| match (column.kind, raw) {
                (FeatureKind::Numeric, Raw::Num(v)) => Ok(Encoded::Num(*v)),
                (FeatureKind::Categorical, Raw::Cat(s)) => Ok(Encoded::Cat(
                    column
                        .categories
                        .iter()
                        .position(|c| c == s)
                        .map_or(UNSEEN_CATEGORY, |i| i as u32),
                )),
                _ => Err(DatasetError::KindMismatch {
                    column: column.name.clone(),
                }),
            })
            .collect()
    }

    /// Encode a prediction-time row by *name*, tolerating missing and
    /// extra features: schema columns absent from `values` encode as
    /// `NaN` (numeric) or [`UNSEEN_CATEGORY`] (categorical), which trees
    /// route down their right/else branches; features not in the schema
    /// are ignored. This is what lets the evolvable VM predict at an
    /// interactive point before all runtime features have been published.
    pub fn encode_by_name(&self, values: &[(String, Raw)]) -> Vec<Encoded> {
        self.columns
            .iter()
            .map(|column| {
                let found = values.iter().find(|(n, _)| *n == column.name);
                match (column.kind, found) {
                    (FeatureKind::Numeric, Some((_, Raw::Num(v)))) => Encoded::Num(*v),
                    (FeatureKind::Categorical, Some((_, Raw::Cat(s)))) => Encoded::Cat(
                        column
                            .categories
                            .iter()
                            .position(|c| c == s)
                            .map_or(UNSEEN_CATEGORY, |i| i as u32),
                    ),
                    (FeatureKind::Numeric, _) => Encoded::Num(f64::NAN),
                    (FeatureKind::Categorical, _) => Encoded::Cat(UNSEEN_CATEGORY),
                }
            })
            .collect()
    }
}

/// One counterfactual cost observation from the compilation-forking data
/// factory: a feature row, the optimization level the forked run executed
/// under, and the run's total virtual cost under that level.
///
/// Samples sharing a `group` come from the *same* fork point (the same
/// snapshot replayed under different levels), so their costs are directly
/// comparable — the group's argmin is the empirically ideal level for
/// that input, which is exactly the label the classification trees train
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSample {
    /// Fork-point group id; samples with equal groups replay one snapshot.
    pub group: u64,
    /// The feature row (XICL features of the run's input).
    pub features: Vec<(String, Raw)>,
    /// The level label, shifted to `0..=3` (Jikes level + 1).
    pub level: u16,
    /// Total virtual cycles of the whole run under this level.
    pub cost: u64,
}

/// An accumulating set of [`CostSample`]s — the training-data side of the
/// counterfactual fork factory. Unlike [`Dataset`], rows here carry a
/// *cost* rather than a class; [`CostDataset::to_classification`] reduces
/// each fork group to its cheapest level and emits ordinary labelled rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostDataset {
    samples: Vec<CostSample>,
}

impl CostDataset {
    /// An empty cost dataset.
    pub fn new() -> CostDataset {
        CostDataset::default()
    }

    /// Append one cost observation.
    pub fn push(&mut self, sample: CostSample) {
        self.samples.push(sample);
    }

    /// Number of cost samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in insertion order.
    pub fn samples(&self) -> &[CostSample] {
        &self.samples
    }

    /// Distinct group ids, in first-seen order.
    pub fn groups(&self) -> Vec<u64> {
        let mut groups = Vec::new();
        for s in &self.samples {
            if !groups.contains(&s.group) {
                groups.push(s.group);
            }
        }
        groups
    }

    /// Reduce every fork group to its argmin-cost level (ties break to the
    /// lower level, keeping the reduction deterministic) and emit one
    /// classification row per group: the group's feature row labelled with
    /// its empirically best level. The result feeds
    /// [`ClassificationTree::fit`](crate::tree::ClassificationTree::fit)
    /// exactly like the posterior ideal strategies do.
    ///
    /// # Errors
    ///
    /// [`DatasetError`] when groups disagree on the feature schema.
    pub fn to_classification(&self) -> Result<Dataset, DatasetError> {
        let mut dataset = Dataset::new();
        for group in self.groups() {
            let mut best: Option<&CostSample> = None;
            for s in self.samples.iter().filter(|s| s.group == group) {
                let better = match best {
                    None => true,
                    Some(b) => s.cost < b.cost || (s.cost == b.cost && s.level < b.level),
                };
                if better {
                    best = Some(s);
                }
            }
            if let Some(b) = best {
                dataset.push(&b.features, b.level)?;
            }
        }
        Ok(dataset)
    }
}

fn intern(categories: &mut Vec<String>, s: &str) -> u32 {
    match categories.iter().position(|c| c == s) {
        Some(i) => i as u32,
        None => {
            categories.push(s.to_owned());
            (categories.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: f64, cat: &str) -> Vec<(String, Raw)> {
        vec![
            ("size".to_owned(), Raw::Num(n)),
            ("format".to_owned(), Raw::Cat(cat.to_owned())),
        ]
    }

    #[test]
    fn schema_fixed_by_first_row() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml"), 0).unwrap();
        d.push(&row(2.0, "pdf"), 1).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.columns()[0].kind, FeatureKind::Numeric);
        assert_eq!(d.columns()[1].kind, FeatureKind::Categorical);
        assert_eq!(d.columns()[1].categories, vec!["xml", "pdf"]);
        assert_eq!(d.classes(), vec![0, 1]);
    }

    #[test]
    fn categories_are_interned() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml"), 0).unwrap();
        d.push(&row(2.0, "xml"), 0).unwrap();
        d.push(&row(3.0, "pdf"), 1).unwrap();
        assert_eq!(d.rows()[0][1], Encoded::Cat(0));
        assert_eq!(d.rows()[1][1], Encoded::Cat(0));
        assert_eq!(d.rows()[2][1], Encoded::Cat(1));
    }

    #[test]
    fn encode_maps_unseen_to_sentinel() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml"), 0).unwrap();
        let enc = d.encode(&row(9.0, "docx")).unwrap();
        assert_eq!(enc[0], Encoded::Num(9.0));
        assert_eq!(enc[1], Encoded::Cat(UNSEEN_CATEGORY));
    }

    #[test]
    fn mismatches_are_errors() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml"), 0).unwrap();
        assert!(matches!(
            d.push(&[("size".to_owned(), Raw::Num(1.0))], 0),
            Err(DatasetError::SchemaMismatch { .. })
        ));
        let bad = vec![
            ("size".to_owned(), Raw::Cat("oops".to_owned())),
            ("format".to_owned(), Raw::Cat("xml".to_owned())),
        ];
        assert!(matches!(
            d.push(&bad, 0),
            Err(DatasetError::KindMismatch { .. })
        ));
    }

    #[test]
    fn encode_by_name_tolerates_missing_and_extra() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml"), 0).unwrap();
        // Missing the categorical column, extra unknown column, shuffled.
        let partial = vec![
            ("unrelated".to_owned(), Raw::Num(9.0)),
            ("size".to_owned(), Raw::Num(5.0)),
        ];
        let enc = d.encode_by_name(&partial);
        assert_eq!(enc[0], Encoded::Num(5.0));
        assert_eq!(enc[1], Encoded::Cat(UNSEEN_CATEGORY));
        // Fully absent numeric becomes NaN.
        let none = d.encode_by_name(&[]);
        match none[0] {
            Encoded::Num(v) => assert!(v.is_nan()),
            ref other => panic!("expected NaN, got {other:?}"),
        }
    }

    fn cost(group: u64, n: f64, level: u16, cost: u64) -> CostSample {
        CostSample {
            group,
            features: vec![("size".to_owned(), Raw::Num(n))],
            level,
            cost,
        }
    }

    #[test]
    fn cost_dataset_reduces_groups_to_argmin_levels() {
        let mut d = CostDataset::new();
        // Group 0: level 2 is cheapest. Group 1: level 0 is cheapest.
        for (lvl, c) in [(0u16, 900), (1, 500), (2, 100), (3, 400)] {
            d.push(cost(0, 10.0, lvl, c));
        }
        for (lvl, c) in [(0u16, 50), (1, 80), (2, 120), (3, 700)] {
            d.push(cost(1, 99.0, lvl, c));
        }
        assert_eq!(d.len(), 8);
        assert_eq!(d.groups(), vec![0, 1]);
        let c = d.to_classification().unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.labels(), &[2, 0]);
        assert_eq!(c.rows()[0][0], Encoded::Num(10.0));
        assert_eq!(c.rows()[1][0], Encoded::Num(99.0));
    }

    #[test]
    fn cost_dataset_ties_break_to_the_lower_level() {
        let mut d = CostDataset::new();
        d.push(cost(7, 1.0, 3, 100));
        d.push(cost(7, 1.0, 1, 100));
        d.push(cost(7, 1.0, 2, 100));
        let c = d.to_classification().unwrap();
        assert_eq!(c.labels(), &[1]);
    }
}
