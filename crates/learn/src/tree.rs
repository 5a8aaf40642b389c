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
//!
//! # Split search
//!
//! Each node keeps the candidate split with the largest gain; ties go to
//! the first, in feature order and then ascending threshold or category.
//! Candidates are not evaluated one by one. For a numeric feature the
//! node holds its rows in value order — the [`Dataset`] keeps every
//! numeric column presorted, and a split stable-partitions each order
//! into its children — so one sweep over that list tries every threshold,
//! moving rows from the right side to the left and updating per-label
//! counts. A categorical feature takes one pass over the node's rows in
//! category order, counting labels per category. A node of `n` rows
//! thus costs about O(`n` × features × labels) instead of O(`n` ×
//! features × distinct values), and a fit O(depth × rows × features ×
//! labels).
//!
//! The gains are bit-identical to scoring each candidate on its own: a
//! subset's entropy sums its labels in the order they first appear in
//! ascending row order, so the sweep tracks each label's smallest row id
//! on both sides of the threshold.

use serde::{Deserialize, Serialize};

use crate::dataset::{Column, Dataset, Encoded, FeatureKind, UNSEEN_CATEGORY};

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
        let root = Builder::new(data, labels, params).build(0, data.len(), 0);
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

/// The values of one feature column, unpacked for the split search.
enum Values {
    Num(Vec<f64>),
    Cat(Vec<u32>),
}

/// A candidate split.
#[derive(Debug, Clone, Copy)]
enum Split {
    Num { feature: usize, threshold: f64 },
    Cat { feature: usize, category: u32 },
}

impl Split {
    fn feature(self) -> usize {
        match self {
            Split::Num { feature, .. } | Split::Cat { feature, .. } => feature,
        }
    }
}

/// The best split found so far at a node, with its information gain.
type Best = Option<(f64, Split)>;

/// Per-label row counts of one set of rows, with each label's smallest
/// row id: a subset's entropy sums its labels in the order they first
/// appear among its rows in ascending id order.
struct Tally {
    count: Vec<usize>,
    first: Vec<usize>,
    total: usize,
}

impl Tally {
    fn new(classes: usize) -> Tally {
        Tally {
            count: vec![0; classes],
            first: vec![usize::MAX; classes],
            total: 0,
        }
    }

    fn clear(&mut self) {
        self.count.fill(0);
        self.first.fill(usize::MAX);
        self.total = 0;
    }

    fn add(&mut self, class: usize, row: usize) {
        self.count[class] += 1;
        self.first[class] = self.first[class].min(row);
        self.total += 1;
    }

    fn entropy(&self, terms: &mut Vec<(usize, usize)>) -> f64 {
        terms.clear();
        terms.extend(
            self.first
                .iter()
                .zip(&self.count)
                .filter(|&(_, &c)| c > 0)
                .map(|(&first, &c)| (first, c)),
        );
        entropy_of(terms, self.total)
    }
}

/// Entropy of a set of `n` rows from `(first row id, count)` terms, one
/// per label present; sorts `terms` by first row id to fix the order of
/// the sum.
fn entropy_of(terms: &mut [(usize, usize)], n: usize) -> f64 {
    terms.sort_unstable();
    let n = n as f64;
    -terms
        .iter()
        .map(|&(_, c)| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Keep `split` if it beats `best` (strictly: the first best wins ties).
fn consider(
    best: &mut Best,
    params: &TreeParams,
    parent_entropy: f64,
    (n_left, h_left): (usize, f64),
    (n_right, h_right): (usize, f64),
    split: Split,
) {
    let n = (n_left + n_right) as f64;
    let children = (n_left as f64 / n) * h_left + (n_right as f64 / n) * h_right;
    let gain = parent_entropy - children;
    if gain >= params.min_gain && best.as_ref().is_none_or(|(g, _)| gain > *g) {
        *best = Some((gain, split));
    }
}

/// Stable-partition `ids` into the rows marked in `go_left`, then the
/// rest; returns the size of the first part.
fn stable_partition(ids: &mut [usize], go_left: &[bool], scratch: &mut Vec<usize>) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for i in 0..ids.len() {
        let row = ids[i];
        if go_left[row] {
            ids[n_left] = row;
            n_left += 1;
        } else {
            scratch.push(row);
        }
    }
    ids[n_left..].copy_from_slice(scratch);
    n_left
}

/// One tree fit. Every node owns one range `lo..hi` of `rows` and of
/// each numeric feature's `orders` list; splitting a node
/// stable-partitions that range into its children's two ranges, so no
/// list is ever re-sorted.
struct Builder<'a> {
    params: &'a TreeParams,
    /// The distinct labels, ascending.
    classes: Vec<u16>,
    /// Per row: its label's index in `classes`.
    class: Vec<usize>,
    columns: Vec<Values>,
    /// Each node's rows in ascending id order.
    rows: Vec<usize>,
    /// Per numeric feature: each node's non-NaN rows in value order (as
    /// the dataset presorts them), then its NaN rows in id order. Empty
    /// for a categorical feature.
    orders: Vec<Vec<usize>>,
    go_left: Vec<bool>,
    scratch: Vec<usize>,
    terms: Vec<(usize, usize)>,
    left: Tally,
    right: Tally,
    /// Numeric sweep: each candidate's threshold, left-side size and
    /// right-side entropy.
    candidates: Vec<(f64, usize, f64)>,
}

impl<'a> Builder<'a> {
    fn new(data: &Dataset, labels: &[u16], params: &'a TreeParams) -> Builder<'a> {
        let n = data.len();
        let mut classes = labels.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let class = labels
            .iter()
            .map(|l| classes.binary_search(l).expect("every label is a class"))
            .collect();
        let mut columns = Vec::with_capacity(data.columns().len());
        let mut orders = Vec::with_capacity(data.columns().len());
        for (feature, column) in data.columns().iter().enumerate() {
            let cells = data.rows().iter().map(|row| row[feature]);
            match column.kind {
                FeatureKind::Numeric => {
                    let values: Vec<f64> = cells
                        .map(|e| match e {
                            Encoded::Num(v) => v,
                            Encoded::Cat(_) => unreachable!("a numeric column holds a category"),
                        })
                        .collect();
                    let mut order = data.sorted_rows(feature).to_vec();
                    order.extend((0..n).filter(|&r| values[r].is_nan()));
                    columns.push(Values::Num(values));
                    orders.push(order);
                }
                FeatureKind::Categorical => {
                    let cats: Vec<u32> = cells
                        .map(|e| match e {
                            Encoded::Cat(c) => c,
                            Encoded::Num(_) => unreachable!("a categorical column holds a number"),
                        })
                        .collect();
                    columns.push(Values::Cat(cats));
                    orders.push(Vec::new());
                }
            }
        }
        let k = classes.len();
        Builder {
            params,
            classes,
            class,
            columns,
            rows: (0..n).collect(),
            orders,
            go_left: vec![false; n],
            scratch: Vec::with_capacity(n),
            terms: Vec::with_capacity(k),
            left: Tally::new(k),
            right: Tally::new(k),
            candidates: Vec::new(),
        }
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let mut node = Tally::new(self.classes.len());
        for &row in &self.rows[lo..hi] {
            node.add(self.class[row], row);
        }
        // Ties break toward the smaller label for determinism.
        let top = (0..self.classes.len())
            .max_by_key(|&c| (node.count[c], std::cmp::Reverse(c)))
            .expect("a node has rows");
        let majority = Node::Leaf {
            label: self.classes[top],
        };
        if depth >= self.params.max_depth
            || hi - lo < self.params.min_samples_split
            || node.count[top] == hi - lo
        {
            return majority;
        }
        let parent_entropy = node.entropy(&mut self.terms);
        let mut best = None;
        for feature in 0..self.columns.len() {
            if matches!(self.columns[feature], Values::Num(_)) {
                self.sweep_numeric(feature, lo, hi, parent_entropy, &mut best);
            } else {
                self.sweep_categorical(feature, lo, hi, &node, parent_entropy, &mut best);
            }
        }
        let Some((_, split)) = best else {
            return majority;
        };
        let mid = lo + self.partition(lo, hi, split);
        let left = Box::new(self.build(lo, mid, depth + 1));
        let right = Box::new(self.build(mid, hi, depth + 1));
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

    /// Try every threshold of numeric `feature` in one pass over the
    /// node's rows in value order. The candidates are the midpoints
    /// `(a + b) / 2` of consecutive distinct values (under `==`, so
    /// `-0.0` and `0.0` are one value); rows with `v <= threshold` go
    /// left, NaN rows always go right.
    fn sweep_numeric(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
        parent_entropy: f64,
        best: &mut Best,
    ) {
        let Values::Num(values) = &self.columns[feature] else {
            unreachable!("numeric feature")
        };
        let order = &self.orders[feature][lo..hi];
        let n = order.len();
        let m = order.partition_point(|&r| !values[r].is_nan());

        // Thresholds ascend with the values, so the left side only grows.
        // It is found by comparing values, not by counting distinct ones:
        // a midpoint can round up to the larger value, or overflow.
        self.candidates.clear();
        let mut distinct = order[..m].iter().map(|&r| values[r]);
        let Some(mut a) = distinct.next() else {
            return;
        };
        let mut n_left = 0;
        for b in distinct {
            if b == a {
                continue;
            }
            let threshold = (a + b) / 2.0;
            a = b;
            // `-inf + inf` is NaN, and no value is `<=` NaN.
            if threshold.is_nan() {
                continue;
            }
            while n_left < m && values[order[n_left]] <= threshold {
                n_left += 1;
            }
            if n_left > 0 && n_left < n {
                self.candidates.push((threshold, n_left, 0.0));
            }
        }
        if self.candidates.is_empty() {
            return;
        }

        // Right sides, largest first: the NaN rows, then the value-order
        // suffix.
        self.right.clear();
        for &row in &order[m..] {
            self.right.add(self.class[row], row);
        }
        let mut at = m;
        for (_, n_left, h_right) in self.candidates.iter_mut().rev() {
            while at > *n_left {
                at -= 1;
                self.right.add(self.class[order[at]], order[at]);
            }
            *h_right = self.right.entropy(&mut self.terms);
        }

        // Left sides, smallest first, in candidate order.
        self.left.clear();
        let mut at = 0;
        for &(threshold, n_left, h_right) in &self.candidates {
            while at < n_left {
                self.left.add(self.class[order[at]], order[at]);
                at += 1;
            }
            let h_left = self.left.entropy(&mut self.terms);
            consider(
                best,
                self.params,
                parent_entropy,
                (n_left, h_left),
                (n - n_left, h_right),
                Split::Num { feature, threshold },
            );
        }
    }

    /// Try every one-vs-rest split of categorical `feature`, in ascending
    /// category id, from one pass over the node's rows in category order.
    fn sweep_categorical(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
        node: &Tally,
        parent_entropy: f64,
        best: &mut Best,
    ) {
        let Values::Cat(cats) = &self.columns[feature] else {
            unreachable!("categorical feature")
        };
        let k = self.classes.len();
        let mut cells: Vec<(u32, usize)> = self.rows[lo..hi]
            .iter()
            .map(|&row| (cats[row], row))
            .collect();
        cells.sort_unstable();
        let tallies: Vec<(u32, Tally)> = cells
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let mut tally = Tally::new(k);
                for &(_, row) in run {
                    tally.add(self.class[row], row);
                }
                (run[0].0, tally)
            })
            .collect();
        if tallies.len() < 2 {
            return;
        }

        // Per label: the category of its first row in the node, and its
        // first row outside that category (the first row on the `ne` side
        // when that category is the candidate).
        let first_cat: Vec<u32> = node
            .first
            .iter()
            .map(|&row| cats.get(row).copied().unwrap_or(UNSEEN_CATEGORY))
            .collect();
        let mut runner_up = vec![usize::MAX; k];
        for (cat, tally) in &tallies {
            for c in 0..k {
                if *cat != first_cat[c] {
                    runner_up[c] = runner_up[c].min(tally.first[c]);
                }
            }
        }

        let n = hi - lo;
        for (category, eq) in &tallies {
            let h_eq = eq.entropy(&mut self.terms);
            self.terms.clear();
            self.terms.extend((0..k).filter_map(|c| {
                let rest = node.count[c] - eq.count[c];
                let first = if first_cat[c] == *category {
                    runner_up[c]
                } else {
                    node.first[c]
                };
                (rest > 0).then_some((first, rest))
            }));
            let h_ne = entropy_of(&mut self.terms, n - eq.total);
            consider(
                best,
                self.params,
                parent_entropy,
                (eq.total, h_eq),
                (n - eq.total, h_ne),
                Split::Cat {
                    feature,
                    category: *category,
                },
            );
        }
    }

    /// Send each of the node's rows to its side of `split`, keeping every
    /// list's order within each side; returns the left side's size.
    fn partition(&mut self, lo: usize, hi: usize, split: Split) -> usize {
        let rows = &self.rows[lo..hi];
        match (split, &self.columns[split.feature()]) {
            (Split::Num { threshold, .. }, Values::Num(values)) => {
                for &row in rows {
                    self.go_left[row] = values[row] <= threshold;
                }
            }
            (Split::Cat { category, .. }, Values::Cat(cats)) => {
                for &row in rows {
                    self.go_left[row] = cats[row] == category;
                }
            }
            _ => unreachable!("a split matches its feature's kind"),
        }
        let n_left = stable_partition(&mut self.rows[lo..hi], &self.go_left, &mut self.scratch);
        for order in self.orders.iter_mut().filter(|o| !o.is_empty()) {
            stable_partition(&mut order[lo..hi], &self.go_left, &mut self.scratch);
        }
        n_left
    }
}

/// The candidate-by-candidate split search the sweep replaced, kept
/// verbatim as the oracle `fit_matches_reference` compares against.
#[cfg(test)]
mod reference {
    use super::{Node, Split, TreeParams};
    use crate::dataset::{Dataset, Encoded, FeatureKind};

    pub(super) fn build(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Raw;
    use proptest::prelude::*;

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

    /// Values that stress the split search: ties, both zeros, NaN of
    /// both signs, infinities, midpoints that overflow (`MAX` next to
    /// its neighbour) or round up to the larger value (`1.0` next to its
    /// two successors).
    fn awkward_number() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 12] = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
            f64::MAX.next_down(),
            1.0,
            1.0f64.next_up(),
            1.0f64.next_up().next_up(),
        ];
        prop_oneof![
            (-3i32..4).prop_map(f64::from),
            (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        ]
    }

    fn label() -> impl Strategy<Value = u16> {
        const LABELS: [u16; 5] = [0, 1, 2, 7, 65535];
        (0..LABELS.len()).prop_map(|i| LABELS[i])
    }

    fn params() -> impl Strategy<Value = TreeParams> {
        (1usize..=10, 1usize..4, prop_oneof![Just(0.0), Just(0.05)]).prop_map(
            |(max_depth, min_samples_split, min_gain)| TreeParams {
                max_depth,
                min_samples_split,
                min_gain,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

        /// The sweep builds exactly the tree the candidate-by-candidate
        /// search builds: same splits, same thresholds to the bit, same
        /// leaves.
        #[test]
        fn fit_matches_reference(
            rows in proptest::collection::vec(
                (awkward_number(), 0u8..5, awkward_number(), label()),
                1..40,
            ),
            params in params(),
        ) {
            let mut d = Dataset::new();
            for &(x, kind, y, _) in &rows {
                d.push(&[
                    ("x".to_owned(), Raw::Num(x)),
                    ("kind".to_owned(), Raw::Cat(format!("k{kind}"))),
                    ("y".to_owned(), Raw::Num(y)),
                ])
                .unwrap();
            }
            let labels: Vec<u16> = rows.iter().map(|&(_, _, _, l)| l).collect();
            let indices: Vec<usize> = (0..rows.len()).collect();
            let want = reference::build(&d, &labels, &indices, &params, 0);
            let got = ClassificationTree::fit(&d, &labels, &params).root;
            // `Debug` tells `-0.0` from `0.0`, which `==` does not.
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            prop_assert_eq!(got, want);
        }
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
