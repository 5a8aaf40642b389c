//! Classification trees (the paper's §IV-B learning technique).
//!
//! A CART-style tree over mixed numeric/categorical features, selecting
//! splits by information gain (entropy reduction). Numeric columns split
//! on thresholds (midpoints between distinct sorted values); categorical
//! columns split one-vs-rest on a category.
//!
//! Two properties the paper relies on fall out of the construction:
//!
//! - **automatic feature selection** — features that never reduce
//!   impurity (e.g. options that always hold their default) simply never
//!   appear in the tree ([`ClassificationTree::used_features`]);
//! - **interpretability** — the tree renders as nested if/else questions
//!   ([`ClassificationTree::render`]).

use serde::{Deserialize, Serialize};

use crate::dataset::{Column, Dataset, Encoded, FeatureKind};

/// Tree construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Ignore splits with information gain below this.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 8,
            min_samples_split: 2,
            // Zero-gain splits are allowed (bounded by max_depth): greedy
            // gain alone cannot enter XOR-shaped interactions, where the
            // first split is uninformative but its children are pure.
            min_gain: 0.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: u16,
    },
    SplitNum {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
    SplitCat {
        feature: usize,
        category: u32,
        eq: Box<Node>,
        ne: Box<Node>,
    },
}

/// A trained classification tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassificationTree {
    root: Node,
    columns: Vec<Column>,
}

impl ClassificationTree {
    /// Fit a tree to the rows of `data` labelled by `labels` (one label
    /// per row, in row order).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty — fit trees only after at least one
    /// training example exists — or if `labels` is not parallel to its
    /// rows.
    pub fn fit(data: &Dataset, labels: &[u16], params: &TreeParams) -> ClassificationTree {
        assert!(!data.is_empty(), "cannot fit a tree to an empty dataset");
        assert_eq!(labels.len(), data.len(), "one label per row");
        let indices: Vec<usize> = (0..data.len()).collect();
        let root = build(data, labels, &indices, params, 0);
        ClassificationTree {
            root,
            columns: data.columns().to_vec(),
        }
    }

    /// Predict the label of an encoded row.
    pub fn predict(&self, row: &[Encoded]) -> u16 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::SplitNum {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = match row[*feature] {
                        Encoded::Num(v) => v,
                        Encoded::Cat(_) => f64::NAN,
                    };
                    node = if v <= *threshold { left } else { right };
                }
                Node::SplitCat {
                    feature,
                    category,
                    eq,
                    ne,
                } => {
                    let c = match row[*feature] {
                        Encoded::Cat(c) => c,
                        Encoded::Num(_) => u32::MAX,
                    };
                    node = if c == *category { eq } else { ne };
                }
            }
        }
    }

    /// Column indices of features the tree actually splits on — the
    /// paper's "used features" (Table I).
    pub fn used_features(&self) -> Vec<usize> {
        let mut v = Vec::new();
        collect_features(&self.root, &mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of nodes (decision + leaf).
    pub fn node_count(&self) -> usize {
        count(&self.root)
    }

    /// Render the tree as indented if/else questions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, &self.columns, 0, &mut out);
        out
    }
}

fn collect_features(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Leaf { .. } => {}
        Node::SplitNum {
            feature,
            left,
            right,
            ..
        } => {
            out.push(*feature);
            collect_features(left, out);
            collect_features(right, out);
        }
        Node::SplitCat {
            feature, eq, ne, ..
        } => {
            out.push(*feature);
            collect_features(eq, out);
            collect_features(ne, out);
        }
    }
}

fn count(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 1,
        Node::SplitNum { left, right, .. } => 1 + count(left) + count(right),
        Node::SplitCat { eq, ne, .. } => 1 + count(eq) + count(ne),
    }
}

fn render_node(node: &Node, columns: &[Column], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match node {
        Node::Leaf { label } => out.push_str(&format!("{pad}=> class {label}\n")),
        Node::SplitNum {
            feature,
            threshold,
            left,
            right,
        } => {
            out.push_str(&format!(
                "{pad}{} <= {threshold}?\n",
                columns[*feature].name
            ));
            render_node(left, columns, depth + 1, out);
            out.push_str(&format!("{pad}else:\n"));
            render_node(right, columns, depth + 1, out);
        }
        Node::SplitCat {
            feature,
            category,
            eq,
            ne,
        } => {
            let cat_name = columns[*feature]
                .categories
                .get(*category as usize)
                .map_or("<unseen>", String::as_str);
            out.push_str(&format!(
                "{pad}{} == {cat_name:?}?\n",
                columns[*feature].name
            ));
            render_node(eq, columns, depth + 1, out);
            out.push_str(&format!("{pad}else:\n"));
            render_node(ne, columns, depth + 1, out);
        }
    }
}

fn build(
    data: &Dataset,
    labels: &[u16],
    indices: &[usize],
    params: &TreeParams,
    depth: usize,
) -> Node {
    let majority = majority_label(labels, indices);
    if depth >= params.max_depth
        || indices.len() < params.min_samples_split
        || is_pure(labels, indices)
    {
        return Node::Leaf { label: majority };
    }
    let parent_entropy = entropy(labels, indices);
    let mut best: Option<(f64, Split)> = None;
    for feature in 0..data.columns().len() {
        for split in candidate_splits(data, indices, feature) {
            let (l, r) = partition(data, indices, &split);
            if l.is_empty() || r.is_empty() {
                continue;
            }
            let n = indices.len() as f64;
            let children = (l.len() as f64 / n) * entropy(labels, &l)
                + (r.len() as f64 / n) * entropy(labels, &r);
            let gain = parent_entropy - children;
            if gain >= params.min_gain && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                best = Some((gain, split));
            }
        }
    }
    match best {
        None => Node::Leaf { label: majority },
        Some((_, split)) => {
            let (l, r) = partition(data, indices, &split);
            let left = Box::new(build(data, labels, &l, params, depth + 1));
            let right = Box::new(build(data, labels, &r, params, depth + 1));
            match split {
                Split::Num { feature, threshold } => Node::SplitNum {
                    feature,
                    threshold,
                    left,
                    right,
                },
                Split::Cat { feature, category } => Node::SplitCat {
                    feature,
                    category,
                    eq: left,
                    ne: right,
                },
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Split {
    Num { feature: usize, threshold: f64 },
    Cat { feature: usize, category: u32 },
}

fn partition(data: &Dataset, indices: &[usize], split: &Split) -> (Vec<usize>, Vec<usize>) {
    let mut l = Vec::new();
    let mut r = Vec::new();
    for &i in indices {
        let goes_left = match split {
            Split::Num { feature, threshold } => match data.rows()[i][*feature] {
                Encoded::Num(v) => v <= *threshold,
                Encoded::Cat(_) => false,
            },
            Split::Cat { feature, category } => match data.rows()[i][*feature] {
                Encoded::Cat(c) => c == *category,
                Encoded::Num(_) => false,
            },
        };
        if goes_left {
            l.push(i);
        } else {
            r.push(i);
        }
    }
    (l, r)
}

fn candidate_splits(data: &Dataset, indices: &[usize], feature: usize) -> Vec<Split> {
    match data.columns()[feature].kind {
        FeatureKind::Numeric => {
            let mut values: Vec<f64> = indices
                .iter()
                .filter_map(|&i| match data.rows()[i][feature] {
                    Encoded::Num(v) => Some(v),
                    Encoded::Cat(_) => None,
                })
                .collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            values
                .windows(2)
                .map(|w| Split::Num {
                    feature,
                    threshold: (w[0] + w[1]) / 2.0,
                })
                .collect()
        }
        FeatureKind::Categorical => {
            let mut cats: Vec<u32> = indices
                .iter()
                .filter_map(|&i| match data.rows()[i][feature] {
                    Encoded::Cat(c) => Some(c),
                    Encoded::Num(_) => None,
                })
                .collect();
            cats.sort_unstable();
            cats.dedup();
            cats.into_iter()
                .map(|category| Split::Cat { feature, category })
                .collect()
        }
    }
}

fn is_pure(labels: &[u16], indices: &[usize]) -> bool {
    let first = labels[indices[0]];
    indices.iter().all(|&i| labels[i] == first)
}

fn majority_label(labels: &[u16], indices: &[usize]) -> u16 {
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for &i in indices {
        let label = labels[i];
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => counts.push((label, 1)),
        }
    }
    // Ties break toward the smaller label for determinism.
    counts.sort_by_key(|&(l, c)| (std::cmp::Reverse(c), l));
    counts[0].0
}

fn entropy(labels: &[u16], indices: &[usize]) -> f64 {
    let mut counts: Vec<(u16, usize)> = Vec::new();
    for &i in indices {
        let label = labels[i];
        match counts.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => counts.push((label, 1)),
        }
    }
    let n = indices.len() as f64;
    -counts
        .iter()
        .map(|&(_, c)| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Raw;

    fn make_dataset(rows: &[(f64, &str, u16)]) -> (Dataset, Vec<u16>) {
        let mut d = Dataset::new();
        for &(n, c, _) in rows {
            d.push(&[
                ("x".to_owned(), Raw::Num(n)),
                ("kind".to_owned(), Raw::Cat(c.to_owned())),
            ])
            .unwrap();
        }
        (d, rows.iter().map(|&(_, _, label)| label).collect())
    }

    #[test]
    fn learns_a_numeric_threshold() {
        let (d, labels) = make_dataset(&[
            (1.0, "a", 0),
            (2.0, "a", 0),
            (3.0, "a", 0),
            (10.0, "a", 1),
            (11.0, "a", 1),
            (12.0, "a", 1),
        ]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        assert_eq!(
            t.predict(
                &d.encode(&[
                    ("x".to_owned(), Raw::Num(2.5)),
                    ("kind".to_owned(), Raw::Cat("a".into()))
                ])
                .unwrap()
            ),
            0
        );
        assert_eq!(
            t.predict(
                &d.encode(&[
                    ("x".to_owned(), Raw::Num(100.0)),
                    ("kind".to_owned(), Raw::Cat("a".into()))
                ])
                .unwrap()
            ),
            1
        );
        // Only feature 0 is informative.
        assert_eq!(t.used_features(), vec![0]);
    }

    #[test]
    fn learns_a_categorical_split() {
        let (d, labels) = make_dataset(&[
            (5.0, "xml", 0),
            (5.0, "xml", 0),
            (5.0, "pdf", 1),
            (5.0, "pdf", 1),
        ]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        assert_eq!(t.used_features(), vec![1]);
        let enc = d
            .encode(&[
                ("x".to_owned(), Raw::Num(5.0)),
                ("kind".to_owned(), Raw::Cat("pdf".to_owned())),
            ])
            .unwrap();
        assert_eq!(t.predict(&enc), 1);
    }

    #[test]
    fn pure_dataset_is_a_single_leaf() {
        let (d, labels) = make_dataset(&[(1.0, "a", 3), (2.0, "b", 3), (9.0, "c", 3)]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        assert_eq!(t.node_count(), 1);
        assert!(t.used_features().is_empty());
        let enc = d
            .encode(&[
                ("x".to_owned(), Raw::Num(42.0)),
                ("kind".to_owned(), Raw::Cat("zzz".to_owned())),
            ])
            .unwrap();
        assert_eq!(t.predict(&enc), 3);
    }

    #[test]
    fn constant_features_never_appear() {
        // Feature 0 is constant (a disabled option at its default);
        // feature 1 fully determines the label.
        let (d, labels) =
            make_dataset(&[(7.0, "s", 0), (7.0, "m", 1), (7.0, "s", 0), (7.0, "m", 1)]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        assert_eq!(t.used_features(), vec![1]);
    }

    #[test]
    fn max_depth_limits_growth() {
        let rows: Vec<(f64, &str, u16)> =
            (0..64).map(|i| (i as f64, "a", (i % 4) as u16)).collect();
        let (d, labels) = make_dataset(&rows);
        let shallow = ClassificationTree::fit(
            &d,
            &labels,
            &TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
        );
        let deep = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        assert!(shallow.node_count() <= 3);
        assert!(deep.node_count() > shallow.node_count());
    }

    #[test]
    fn xor_requires_depth_two() {
        let (d, labels) = make_dataset(&[
            (0.0, "a", 0),
            (0.0, "b", 1),
            (1.0, "a", 1),
            (1.0, "b", 0),
            (0.0, "a", 0),
            (0.0, "b", 1),
            (1.0, "a", 1),
            (1.0, "b", 0),
        ]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        for (x, k, want) in [
            (0.0, "a", 0u16),
            (0.0, "b", 1),
            (1.0, "a", 1),
            (1.0, "b", 0),
        ] {
            let enc = d
                .encode(&[
                    ("x".to_owned(), Raw::Num(x)),
                    ("kind".to_owned(), Raw::Cat(k.to_owned())),
                ])
                .unwrap();
            assert_eq!(t.predict(&enc), want, "xor({x}, {k})");
        }
        assert_eq!(t.used_features(), vec![0, 1]);
    }

    #[test]
    fn render_mentions_feature_names() {
        let (d, labels) = make_dataset(&[(1.0, "a", 0), (9.0, "a", 1)]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        let text = t.render();
        assert!(text.contains("x <="), "{text}");
        assert!(text.contains("class 0"), "{text}");
    }

    #[test]
    fn serde_roundtrip() {
        let (d, labels) = make_dataset(&[(1.0, "a", 0), (9.0, "b", 1)]);
        let t = ClassificationTree::fit(&d, &labels, &TreeParams::default());
        let json = serde_json::to_string(&t).unwrap();
        let back: ClassificationTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
