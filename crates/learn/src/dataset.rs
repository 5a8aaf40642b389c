//! The training table: encoded feature rows.
//!
//! A [`Dataset`] owns a *schema* — the ordered feature names and kinds —
//! and encodes every row against it, interning categorical values to
//! integer ids. The schema is fixed by the first row (in the evolvable VM
//! it comes from the XICL spec, so all runs of an application agree).
//! Labels live beside the table, one column per prediction target, so
//! several trees can share one encoding of the same rows
//! ([`ClassificationTree::fit`](crate::tree::ClassificationTree::fit)
//! takes the label column as a slice). For every numeric column the table
//! also keeps its rows presorted by value, so fitting a tree never sorts.

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Raw {
    /// Numeric.
    Num(f64),
    /// Categorical.
    Cat(String),
}

/// An encoded feature table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    columns: Vec<Column>,
    rows: Vec<Vec<Encoded>>,
    /// Per column: for a numeric column, the ids of its non-NaN rows
    /// sorted by [`f64::total_cmp`], ties by row id; empty for a
    /// categorical column.
    sorted: Vec<Vec<usize>>,
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

    /// The ids of the non-NaN rows of numeric column `column`, sorted by
    /// [`f64::total_cmp`] with ties by row id (empty for a categorical
    /// column).
    pub(crate) fn sorted_rows(&self, column: usize) -> &[usize] {
        &self.sorted[column]
    }

    /// Append a row of named raw values. A rejected row leaves the table
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`DatasetError::SchemaMismatch`] if the layout differs from the
    /// schema, [`DatasetError::KindMismatch`] if a column changes kind.
    pub fn push(&mut self, values: &[(String, Raw)]) -> Result<(), DatasetError> {
        if self.columns.is_empty() && self.rows.is_empty() {
            self.columns = values
                .iter()
                .map(|(name, v)| Column {
                    name: name.clone(),
                    kind: kind_of(v),
                    categories: Vec::new(),
                })
                .collect();
            self.sorted = vec![Vec::new(); self.columns.len()];
        }
        if values.len() != self.columns.len() {
            return Err(DatasetError::SchemaMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        // Check every kind before interning anything.
        if let Some(column) = self
            .columns
            .iter()
            .zip(values)
            .find_map(|(column, (_, raw))| (kind_of(raw) != column.kind).then_some(column))
        {
            return Err(DatasetError::KindMismatch {
                column: column.name.clone(),
            });
        }
        let id = self.rows.len();
        let row = values
            .iter()
            .zip(&mut self.columns)
            .map(|((_, raw), column)| match raw {
                Raw::Num(v) => Encoded::Num(*v),
                Raw::Cat(s) => Encoded::Cat(intern(&mut column.categories, s)),
            })
            .collect();
        for (col, (sorted, (_, raw))) in self.sorted.iter_mut().zip(values).enumerate() {
            let Raw::Num(v) = *raw else { continue };
            if v.is_nan() {
                continue;
            }
            // `id` is the largest row id, so it goes after every equal value.
            let rows = &self.rows;
            let at = sorted.partition_point(|&r| match rows[r][col] {
                Encoded::Num(w) => w.total_cmp(&v).is_le(),
                Encoded::Cat(_) => unreachable!("numeric column holds a category"),
            });
            sorted.insert(at, id);
        }
        self.rows.push(row);
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

fn kind_of(raw: &Raw) -> FeatureKind {
    match raw {
        Raw::Num(_) => FeatureKind::Numeric,
        Raw::Cat(_) => FeatureKind::Categorical,
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
        d.push(&row(1.0, "xml")).unwrap();
        d.push(&row(2.0, "pdf")).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.columns()[0].kind, FeatureKind::Numeric);
        assert_eq!(d.columns()[1].kind, FeatureKind::Categorical);
        assert_eq!(d.columns()[1].categories, vec!["xml", "pdf"]);
    }

    #[test]
    fn categories_are_interned() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml")).unwrap();
        d.push(&row(2.0, "xml")).unwrap();
        d.push(&row(3.0, "pdf")).unwrap();
        assert_eq!(d.rows()[0][1], Encoded::Cat(0));
        assert_eq!(d.rows()[1][1], Encoded::Cat(0));
        assert_eq!(d.rows()[2][1], Encoded::Cat(1));
    }

    #[test]
    fn encode_maps_unseen_to_sentinel() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml")).unwrap();
        let enc = d.encode(&row(9.0, "docx")).unwrap();
        assert_eq!(enc[0], Encoded::Num(9.0));
        assert_eq!(enc[1], Encoded::Cat(UNSEEN_CATEGORY));
    }

    #[test]
    fn mismatches_are_errors() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml")).unwrap();
        assert!(matches!(
            d.push(&[("size".to_owned(), Raw::Num(1.0))]),
            Err(DatasetError::SchemaMismatch { .. })
        ));
        let bad = vec![
            ("size".to_owned(), Raw::Cat("oops".to_owned())),
            ("format".to_owned(), Raw::Cat("xml".to_owned())),
        ];
        assert!(matches!(
            d.push(&bad),
            Err(DatasetError::KindMismatch { .. })
        ));
    }

    #[test]
    fn a_rejected_row_interns_nothing() {
        let mut d = Dataset::new();
        for size in [3.0, 1.0] {
            d.push(&[
                ("format".to_owned(), Raw::Cat("xml".to_owned())),
                ("size".to_owned(), Raw::Num(size)),
                ("pages".to_owned(), Raw::Num(size)),
            ])
            .unwrap();
        }
        let before = d.clone();
        // The numeric `size` precedes the bad `pages` cell, so a push
        // that sorted before checking every kind would move its order.
        let bad = vec![
            ("format".to_owned(), Raw::Cat("pdf".to_owned())),
            ("size".to_owned(), Raw::Num(2.0)),
            ("pages".to_owned(), Raw::Cat("oops".to_owned())),
        ];
        assert!(matches!(
            d.push(&bad),
            Err(DatasetError::KindMismatch { .. })
        ));
        assert_eq!(d, before);
        assert_eq!(d.sorted_rows(1), [1, 0]);
        assert_eq!(d.sorted_rows(2), [1, 0]);
    }

    #[test]
    fn numeric_columns_stay_sorted_by_value_then_row() {
        let mut d = Dataset::new();
        for v in [2.0, f64::NAN, 0.0, -0.0, 2.0, f64::NEG_INFINITY, -f64::NAN] {
            d.push(&row(v, "xml")).unwrap();
        }
        // NaN rows stay out; `-0.0` sorts before `0.0`; ties keep row order.
        assert_eq!(d.sorted_rows(0), [5, 3, 2, 0, 4]);
        assert!(d.sorted_rows(1).is_empty());
    }

    #[test]
    fn encode_by_name_tolerates_missing_and_extra() {
        let mut d = Dataset::new();
        d.push(&row(1.0, "xml")).unwrap();
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
}
