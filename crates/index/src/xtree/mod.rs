//! A from-scratch X-tree (Berchtold, Keim, Kriegel — VLDB'96).
//!
//! The X-tree is an R-tree derivative designed for high-dimensional
//! data: when splitting a directory node would create siblings whose
//! bounding boxes overlap too much (making every query visit both),
//! the node instead becomes a **supernode** — a directory node of
//! extended capacity that is scanned linearly. The tree thereby
//! degrades gracefully from hierarchical to sequential organisation as
//! dimensionality (and thus unavoidable overlap) grows.
//!
//! Faithfulness notes relative to the original paper:
//!
//! * Topological split = R*-tree split (margin-based axis choice,
//!   overlap-minimal distribution) — same as the original.
//! * The overlap-minimal split is realised through the split-history
//!   bias in `split::topological_split`: a history axis with an
//!   overlap-free distribution is taken outright. The original's
//!   additional unbalanced-split bookkeeping is subsumed by the
//!   min-fill bound plus the supernode fallback.
//! * Supernodes grow by whole blocks (`max_dir` entries each), exactly
//!   as described; data (leaf) nodes always split.
//!
//! Subspace k-NN uses best-first search with MINDIST lower bounds
//! computed only over the queried dimensions — this is what the
//! paper's "X-tree Indexing module ... to facilitate k-NN search in
//! every subspace" requires.

mod mbr;
mod node;
mod split;

pub use mbr::Mbr;
pub use node::{Node, NodeId};

use crate::error::{validate_insert, validate_remove, IndexError};
use crate::knn::{KnnEngine, Neighbor};
use hos_data::{Dataset, Metric, PointId, Subspace};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// X-tree construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct XTreeConfig {
    /// Maximum points per leaf.
    pub max_leaf: usize,
    /// Maximum children per directory block.
    pub max_dir: usize,
    /// Minimum fill fraction per split side (R*: 0.4).
    pub min_fill_frac: f64,
    /// Maximum tolerated sibling overlap ratio before a directory
    /// split is abandoned in favour of a supernode (paper: ~0.2).
    pub max_overlap: f64,
    /// Hard cap on supernode size in blocks (a safety valve; the
    /// original X-tree lets supernodes grow without bound).
    pub max_blocks: usize,
}

impl Default for XTreeConfig {
    fn default() -> Self {
        XTreeConfig {
            max_leaf: 32,
            max_dir: 16,
            min_fill_frac: 0.4,
            max_overlap: 0.2,
            max_blocks: 1 << 16,
        }
    }
}

/// Structural statistics, exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XTreeStats {
    /// Total nodes in the arena.
    pub nodes: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Supernode count.
    pub supernodes: usize,
    /// Largest supernode size, in blocks.
    pub max_supernode_blocks: usize,
    /// Tree height (leaf = 1).
    pub height: usize,
}

/// The X-tree k-NN engine.
pub struct XTree {
    dataset: Dataset,
    metric: Metric,
    cfg: XTreeConfig,
    nodes: Vec<Node>,
    root: NodeId,
    /// Tombstoned points still sitting in leaf nodes — reset by
    /// [`XTree::rebulk`], unlike the dataset's own dead count (the
    /// dataset is never compacted here, so gating the rebuild on it
    /// would re-trigger on every removal once the fraction is
    /// crossed).
    stale: usize,
    evals: AtomicU64,
}

impl XTree {
    /// Builds the tree by sequential insertion of every dataset row:
    /// the paper's construction, and the only one that forms
    /// supernodes. Kept for the experiments and tests that study
    /// supernodes and insertion-grown shapes; whole-dataset builds
    /// that serve queries ([`crate::knn::build_engine`]) go through
    /// [`XTree::bulk_load`], which is many times faster and answers
    /// identically.
    pub fn build(dataset: Dataset, metric: Metric, cfg: XTreeConfig) -> Self {
        assert!(cfg.max_leaf >= 4, "max_leaf must be >= 4");
        assert!(cfg.max_dir >= 4, "max_dir must be >= 4");
        assert!(
            (0.1..=0.5).contains(&cfg.min_fill_frac),
            "min_fill_frac must be in [0.1, 0.5]"
        );
        let d = dataset.dim();
        let root_node = Node::Leaf {
            points: Vec::new(),
            mbr: Mbr::unset(d.max(1)),
        };
        let mut tree = XTree {
            dataset,
            metric,
            cfg,
            nodes: vec![root_node],
            root: 0,
            stale: 0,
            evals: AtomicU64::new(0),
        };
        for pid in 0..tree.dataset.len() {
            if tree.dataset.is_live(pid) {
                tree.tree_insert(pid);
            }
        }
        tree
    }

    /// Share of `max_leaf` a bulk-loaded leaf is filled to, leaving
    /// room for inserts. Measured on a durable-churn-shaped recovery
    /// (5000 × 8 snapshot, 2000-op WAL tail, 2 vCPUs, medians of 10
    /// starts): fully packed leaves rebuilt in 2.0 ms but made early
    /// inserts split, so the replay took 23 ms; ¾-packed leaves
    /// rebuilt in 2.4 ms and replayed in 10 ms (sequential insertion:
    /// 55 and 12 ms). Over the default config (`min_fill_frac` 0.4) ¾
    /// also keeps every non-root leaf at or above the insertion path's
    /// min-fill bound.
    pub const BULK_LEAF_FILL: f64 = 0.75;

    /// Builds the tree by top-down bulk loading (OMT-style): points
    /// are recursively partitioned along the dimension of widest
    /// spread into equal slabs of a balanced tree of minimal height.
    /// Leaves hold at most [`XTree::BULK_LEAF_FILL`] of `max_leaf`,
    /// spread evenly (sizes differ by at most one); each directory
    /// spreads its leaves evenly over the fewest children that reach
    /// them, so every child holds at least half the leaves it could
    /// reach. Much faster than sequential insertion and produces
    /// low-overlap sibling boxes (so bulk-loaded trees contain no
    /// supernodes). Queries are identical in semantics to
    /// an insertion-built tree.
    pub fn bulk_load(dataset: Dataset, metric: Metric, cfg: XTreeConfig) -> Self {
        assert!(cfg.max_leaf >= 4, "max_leaf must be >= 4");
        assert!(cfg.max_dir >= 4, "max_dir must be >= 4");
        let mut tree = XTree {
            dataset,
            metric,
            cfg,
            nodes: Vec::new(),
            root: 0,
            stale: 0,
            evals: AtomicU64::new(0),
        };
        tree.rebulk();
        tree
    }

    /// (Re)builds the whole tree structure by bulk-loading the
    /// **live** points; tombstoned rows drop out of the nodes (ids and
    /// the dataset itself are untouched). This is the incremental
    /// path's compaction valve: `remove` calls it once the fraction of
    /// tombstones *in the tree* crosses [`XTree::REBULK_DEAD_FRACTION`],
    /// so the cost amortises to O(log n) per removal while scans never
    /// wade through more than that fraction of dead entries.
    fn rebulk(&mut self) {
        let d = self.dataset.dim();
        self.stale = 0;
        self.nodes.clear();
        let mut ids: Vec<PointId> = self.dataset.live_ids().collect();
        if ids.is_empty() {
            self.nodes.push(Node::Leaf {
                points: Vec::new(),
                mbr: Mbr::unset(d.max(1)),
            });
            self.root = 0;
            return;
        }
        // Fewest leaves that keep each under the bulk fill, with the
        // points spread evenly over them; then the least height whose
        // directories reach that many leaves.
        let n = ids.len();
        let leaves = n.div_ceil(self.bulk_leaf_capacity());
        let leaf_sizes: Vec<usize> = (0..leaves)
            .map(|j| n * (j + 1) / leaves - n * j / leaves)
            .collect();
        let mut height = 1usize; // leaf level
        let mut reach = 1usize; // leaves reachable from one node at this height
        while reach < leaves {
            reach *= self.cfg.max_dir;
            height += 1;
        }
        self.root = self.bulk_build(&mut ids, &leaf_sizes, height);
    }

    /// Most points a bulk-loaded leaf holds.
    fn bulk_leaf_capacity(&self) -> usize {
        (self.cfg.max_leaf as f64 * Self::BULK_LEAF_FILL) as usize
    }

    /// Recursively builds a subtree of the given height over `ids`,
    /// whose leaves (in slab order) hold `leaf_sizes` points each.
    fn bulk_build(&mut self, ids: &mut [PointId], leaf_sizes: &[usize], height: usize) -> NodeId {
        let d = self.dataset.dim();
        if height == 1 {
            debug_assert_eq!(leaf_sizes, [ids.len()]);
            let mut mbr = Mbr::unset(d.max(1));
            for &p in ids.iter() {
                if mbr.is_unset() {
                    mbr = Mbr::of_point(self.dataset.row(p));
                } else {
                    mbr.include_point(self.dataset.row(p));
                }
            }
            let id = self.nodes.len();
            self.nodes.push(Node::Leaf {
                points: ids.to_vec(),
                mbr,
            });
            return id;
        }
        // Spread the leaves evenly over the fewest children that can
        // reach them; every child then gets at least half its reach,
        // so no directory below the root has a single child.
        let child_reach = self.cfg.max_dir.pow(height as u32 - 2);
        let fanout = leaf_sizes.len().div_ceil(child_reach);
        // Split along the dimension of widest spread.
        let mut best_dim = 0;
        let mut best_span = -1.0f64;
        for dim in 0..d {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &p in ids.iter() {
                let v = self.dataset.get(p, dim);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo > best_span {
                best_span = hi - lo;
                best_dim = dim;
            }
        }
        ids.sort_unstable_by(|&a, &b| {
            self.dataset
                .get(a, best_dim)
                .partial_cmp(&self.dataset.get(b, best_dim))
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut children = Vec::with_capacity(fanout);
        let mut rest: &mut [PointId] = ids;
        for i in 0..fanout {
            let sizes =
                &leaf_sizes[leaf_sizes.len() * i / fanout..leaf_sizes.len() * (i + 1) / fanout];
            let (head, tail) = rest.split_at_mut(sizes.iter().sum());
            children.push(self.bulk_build(head, sizes, height - 1));
            rest = tail;
        }
        let mut mbr = Mbr::unset(d.max(1));
        for &c in &children {
            mbr.merge(self.nodes[c].mbr());
        }
        let id = self.nodes.len();
        self.nodes.push(Node::Dir {
            children,
            mbr,
            split_history: 1u64 << best_dim,
            blocks: 1,
        });
        id
    }

    /// Construction parameters.
    pub fn config(&self) -> XTreeConfig {
        self.cfg
    }

    /// Tombstoned points still held in tree nodes (dropped at the
    /// next bounded re-bulk-load). Exposed so tests can pin the
    /// rebuild cadence.
    pub fn stale_points(&self) -> usize {
        self.stale
    }

    /// Structural statistics of the built tree.
    pub fn stats(&self) -> XTreeStats {
        let mut s = XTreeStats {
            nodes: self.nodes.len(),
            ..Default::default()
        };
        for n in &self.nodes {
            match n {
                Node::Leaf { .. } => s.leaves += 1,
                Node::Dir { blocks, .. } => {
                    if *blocks > 1 {
                        s.supernodes += 1;
                        s.max_supernode_blocks = s.max_supernode_blocks.max(*blocks);
                    }
                }
            }
        }
        s.height = self.height_of(self.root);
        s
    }

    fn height_of(&self, id: NodeId) -> usize {
        match &self.nodes[id] {
            Node::Leaf { .. } => 1,
            Node::Dir { children, .. } => {
                1 + children
                    .iter()
                    .map(|&c| self.height_of(c))
                    .max()
                    .unwrap_or(0)
            }
        }
    }

    fn min_fill(&self, capacity: usize) -> usize {
        ((capacity as f64 * self.cfg.min_fill_frac).floor() as usize).max(1)
    }

    fn tree_insert(&mut self, pid: PointId) {
        if let Some(right) = self.insert_rec(self.root, pid) {
            // Root split: grow the tree by one level.
            let left = self.root;
            let mbr = self.nodes[left].mbr().union(self.nodes[right].mbr());
            let new_root = self.nodes.len();
            self.nodes.push(Node::Dir {
                children: vec![left, right],
                mbr,
                split_history: 0,
                blocks: 1,
            });
            self.root = new_root;
        }
    }

    /// Inserts into the subtree at `id`; returns the id of a new right
    /// sibling if the node had to split (the left half stays in `id`).
    fn insert_rec(&mut self, id: NodeId, pid: PointId) -> Option<NodeId> {
        let row: Vec<f64> = self.dataset.row(pid).to_vec();
        match &mut self.nodes[id] {
            Node::Leaf { points, mbr } => {
                points.push(pid);
                if mbr.is_unset() {
                    *mbr = Mbr::of_point(&row);
                } else {
                    mbr.include_point(&row);
                }
                if points.len() > self.cfg.max_leaf {
                    Some(self.split_leaf(id))
                } else {
                    None
                }
            }
            Node::Dir { children, mbr, .. } => {
                // Choose the child needing least area enlargement
                // (ties: smaller area, then smaller id for determinism).
                let children_snapshot = children.clone();
                mbr.include_point(&row);
                let point_box = Mbr::of_point(&row);
                let mut best: Option<(NodeId, f64, f64)> = None;
                for &c in &children_snapshot {
                    let cm = self.nodes[c].mbr();
                    let enl = cm.enlargement(&point_box);
                    let area = cm.area();
                    best = match best {
                        None => Some((c, enl, area)),
                        Some((_, be, ba)) if (enl, area) < (be, ba) => Some((c, enl, area)),
                        other => other,
                    };
                }
                let (chosen, _, _) = best.expect("directory nodes are never empty");
                if let Some(new_right) = self.insert_rec(chosen, pid) {
                    if let Node::Dir { children, .. } = &mut self.nodes[id] {
                        children.push(new_right);
                    }
                    let (len, capacity) = match &self.nodes[id] {
                        Node::Dir {
                            children, blocks, ..
                        } => (children.len(), blocks * self.cfg.max_dir),
                        _ => unreachable!(),
                    };
                    if len > capacity {
                        return self.split_dir(id);
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, id: NodeId) -> NodeId {
        let (points, d) = match &self.nodes[id] {
            Node::Leaf { points, mbr } => (points.clone(), mbr.dim()),
            _ => unreachable!("split_leaf on a directory node"),
        };
        let mbrs: Vec<Mbr> = points
            .iter()
            .map(|&p| Mbr::of_point(self.dataset.row(p)))
            .collect();
        let min_fill = self.min_fill(self.cfg.max_leaf);
        let r = split::topological_split(&mbrs, min_fill, 0);
        let left_pts: Vec<PointId> = r.left.iter().map(|&i| points[i]).collect();
        let right_pts: Vec<PointId> = r.right.iter().map(|&i| points[i]).collect();
        debug_assert_eq!(left_pts.len() + right_pts.len(), points.len());
        let _ = d;
        self.nodes[id] = Node::Leaf {
            points: left_pts,
            mbr: r.left_mbr,
        };
        let right_id = self.nodes.len();
        self.nodes.push(Node::Leaf {
            points: right_pts,
            mbr: r.right_mbr,
        });
        right_id
    }

    /// Splits a directory node or, when the best split overlaps too
    /// much, upgrades it to a supernode (returns `None`).
    fn split_dir(&mut self, id: NodeId) -> Option<NodeId> {
        let (children, history, blocks) = match &self.nodes[id] {
            Node::Dir {
                children,
                split_history,
                blocks,
                ..
            } => (children.clone(), *split_history, *blocks),
            _ => unreachable!("split_dir on a leaf"),
        };
        let mbrs: Vec<Mbr> = children
            .iter()
            .map(|&c| self.nodes[c].mbr().clone())
            .collect();
        let min_fill = self.min_fill(self.cfg.max_dir);
        let r = split::topological_split(&mbrs, min_fill, history);
        if r.overlap_ratio > self.cfg.max_overlap && blocks < self.cfg.max_blocks {
            // X-tree decision: no good split exists — extend the node
            // into (or grow) a supernode instead.
            if let Node::Dir { blocks, .. } = &mut self.nodes[id] {
                *blocks += 1;
            }
            return None;
        }
        let left_children: Vec<NodeId> = r.left.iter().map(|&i| children[i]).collect();
        let right_children: Vec<NodeId> = r.right.iter().map(|&i| children[i]).collect();
        let new_history = history | (1u64 << r.axis);
        self.nodes[id] = Node::Dir {
            children: left_children,
            mbr: r.left_mbr,
            split_history: new_history,
            blocks: 1,
        };
        let right_id = self.nodes.len();
        self.nodes.push(Node::Dir {
            children: right_children,
            mbr: r.right_mbr,
            split_history: new_history,
            blocks: 1,
        });
        Some(right_id)
    }

    /// Validates structural invariants (testing aid): every **live**
    /// point in exactly one leaf, every MBR covers its subtree.
    /// Tombstoned points may still sit in leaves (they are skipped at
    /// query time and dropped at the next re-bulk-load) but must not
    /// appear twice.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = vec![false; self.dataset.len()];
        self.check_node(self.root, &mut seen)?;
        if let Some(missing) =
            (0..self.dataset.len()).find(|&i| self.dataset.is_live(i) && !seen[i])
        {
            return Err(format!("live point {missing} not reachable from the root"));
        }
        Ok(())
    }

    fn check_node(&self, id: NodeId, seen: &mut [bool]) -> Result<(), String> {
        match &self.nodes[id] {
            Node::Leaf { points, mbr } => {
                for &p in points {
                    if seen[p] {
                        return Err(format!("point {p} appears in two leaves"));
                    }
                    seen[p] = true;
                    if !mbr.contains_point(self.dataset.row(p)) {
                        return Err(format!("leaf {id} MBR does not cover point {p}"));
                    }
                }
                Ok(())
            }
            Node::Dir { children, mbr, .. } => {
                if children.is_empty() {
                    return Err(format!("directory {id} is empty"));
                }
                for &c in children {
                    let cm = self.nodes[c].mbr();
                    if !cm.is_unset() {
                        let covered = mbr.union(cm);
                        if &covered != mbr {
                            return Err(format!("dir {id} MBR does not cover child {c}"));
                        }
                    }
                    self.check_node(c, seen)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
impl XTree {
    /// Checks the shape [`XTree::bulk_load`] promises: the structural
    /// invariants, every non-root leaf between the insertion path's
    /// min-fill and the bulk fill, and the least height whose
    /// directories reach that many leaves.
    pub(crate) fn check_bulk_shape(&self) -> Result<(), String> {
        self.check_invariants()?;
        let cap = self.bulk_leaf_capacity();
        let lo = self.min_fill(self.cfg.max_leaf);
        for (id, node) in self.nodes.iter().enumerate() {
            if let Node::Leaf { points, .. } = node {
                if id != self.root && !(lo..=cap).contains(&points.len()) {
                    return Err(format!("leaf {id} holds {} points", points.len()));
                }
            }
        }
        let leaves = self.dataset.live_len().div_ceil(cap).max(1);
        let mut height = 1;
        while self.cfg.max_dir.pow(height as u32 - 1) < leaves {
            height += 1;
        }
        match self.stats().height {
            h if h == height => Ok(()),
            h => Err(format!("height {h}, minimal is {height}")),
        }
    }
}

/// Finite f64 ordering wrapper for priority queues.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("finite distance")
    }
}

impl KnnEngine for XTree {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn into_dataset(self: Box<Self>) -> Dataset {
        self.dataset
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn knn(&self, query: &[f64], k: usize, s: Subspace, exclude: Option<PointId>) -> Vec<Neighbor> {
        if k == 0 || self.dataset.is_empty() {
            return Vec::new();
        }
        let mut evals = 0u64;
        // Max-heap of the best k candidates by pre-distance.
        let mut best: BinaryHeap<(OrdF64, PointId)> = BinaryHeap::with_capacity(k + 1);
        // Min-heap of frontier nodes by MINDIST.
        let mut frontier: BinaryHeap<Reverse<(OrdF64, NodeId)>> = BinaryHeap::new();
        frontier.push(Reverse((
            OrdF64(
                self.nodes[self.root]
                    .mbr()
                    .mindist_pre(query, s, self.metric),
            ),
            self.root,
        )));
        while let Some(Reverse((OrdF64(mind), id))) = frontier.pop() {
            if best.len() == k {
                let worst = best.peek().expect("k > 0").0 .0;
                if mind > worst {
                    break; // every remaining node is farther than the kth NN
                }
            }
            match &self.nodes[id] {
                Node::Leaf { points, .. } => {
                    for &p in points {
                        if Some(p) == exclude || !self.dataset.is_live(p) {
                            continue;
                        }
                        let pre = self.metric.pre_dist_sub(query, self.dataset.row(p), s);
                        evals += 1;
                        if best.len() < k {
                            best.push((OrdF64(pre), p));
                        } else if (OrdF64(pre), p) < *best.peek().expect("k > 0") {
                            // Full (pre, id) eviction order — the same
                            // tie-break as TopK — so the kept set is
                            // independent of traversal order and thus
                            // of tree structure; X-tree neighbour
                            // lists equal LinearScan's bit for bit.
                            best.pop();
                            best.push((OrdF64(pre), p));
                        }
                    }
                }
                Node::Dir { children, .. } => {
                    for &c in children {
                        let cm = self.nodes[c].mbr();
                        if cm.is_unset() {
                            continue;
                        }
                        let cd = cm.mindist_pre(query, s, self.metric);
                        if best.len() < k || cd <= best.peek().expect("k > 0").0 .0 {
                            frontier.push(Reverse((OrdF64(cd), c)));
                        }
                    }
                }
            }
        }
        self.evals.fetch_add(evals, AtomicOrdering::Relaxed);
        let mut out: Vec<Neighbor> = best
            .into_iter()
            .map(|(OrdF64(pre), id)| Neighbor {
                id,
                dist: self.metric.finish(pre),
            })
            .collect();
        out.sort_by(|a, b| {
            a.dist
                .partial_cmp(&b.dist)
                .expect("finite")
                .then(a.id.cmp(&b.id))
        });
        out
    }

    fn range(
        &self,
        query: &[f64],
        radius: f64,
        s: Subspace,
        exclude: Option<PointId>,
    ) -> Vec<Neighbor> {
        if self.dataset.is_empty() {
            return Vec::new();
        }
        let pre_radius = self.metric.pre_of(radius);
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        let mut evals = 0u64;
        while let Some(id) = stack.pop() {
            match &self.nodes[id] {
                Node::Leaf { points, .. } => {
                    for &p in points {
                        if Some(p) == exclude || !self.dataset.is_live(p) {
                            continue;
                        }
                        evals += 1;
                        let d = self.metric.dist_sub(query, self.dataset.row(p), s);
                        if d <= radius {
                            out.push(Neighbor { id: p, dist: d });
                        }
                    }
                }
                Node::Dir { children, .. } => {
                    for &c in children {
                        let cm = self.nodes[c].mbr();
                        if !cm.is_unset() && cm.mindist_pre(query, s, self.metric) <= pre_radius {
                            stack.push(c);
                        }
                    }
                }
            }
        }
        self.evals.fetch_add(evals, AtomicOrdering::Relaxed);
        out
    }

    fn distance_evals(&self) -> u64 {
        self.evals.load(AtomicOrdering::Relaxed)
    }

    // Incremental maintenance:
    //
    // * Insert — the native R*-style insertion path (choose subtree →
    //   split or supernode), the routine sequential `XTree::build`
    //   uses per point. It runs on whatever shape the tree has: a
    //   bulk-loaded one (every served build) or an insertion-grown
    //   one. Bulk-loaded leaves keep a quarter of their capacity free
    //   (`XTree::BULK_LEAF_FILL`), so early inserts do not split.
    // * Remove — tombstone; leaf scans skip dead points (their MBRs
    //   stay conservative, so the MINDIST bounds stay valid), and a
    //   bounded re-bulk-load rebuilds the structure over the live
    //   points once the dead fraction crosses
    //   `XTree::REBULK_DEAD_FRACTION`.
    //
    // Either way, queries stay exact: best-first search with valid
    // lower bounds plus the full `(distance, id)` eviction order
    // returns the true top-k regardless of tree shape, which is why
    // incremental results match a cold rebuild bit for bit.
    fn insert(&mut self, row: &[f64]) -> Result<PointId, IndexError> {
        validate_insert(&self.dataset, row)?;
        let was_dimless = self.dataset.dim() == 0;
        let pid = self.dataset.push_row(row)?;
        if was_dimless {
            // First row fixed the arity: the placeholder root leaf has
            // the wrong MBR dimensionality, so rebuild from scratch.
            self.rebulk();
        } else {
            self.tree_insert(pid);
        }
        Ok(pid)
    }

    fn remove(&mut self, id: PointId) -> Result<(), IndexError> {
        validate_remove(&self.dataset, id)?;
        self.dataset.remove_row(id)?;
        self.stale += 1;
        let in_tree = (self.dataset.live_len() + self.stale) as f64;
        if self.stale as f64 >= Self::REBULK_DEAD_FRACTION * in_tree {
            self.rebulk();
        }
        Ok(())
    }

    fn as_xtree(&self) -> Option<&XTree> {
        Some(self)
    }
}

impl XTree {
    /// Removals trigger a re-bulk-load once tombstones reach a quarter
    /// of the points *held in the tree* (live + not-yet-dropped dead):
    /// scans then never wade through more than 25% dead leaf entries,
    /// and the O(n log n) rebuild amortises to O(log n) per removal.
    /// The gate counts tombstones since the last rebuild — not the
    /// dataset's cumulative dead count, which never resets here and
    /// would re-trigger a full rebuild on every removal once crossed.
    pub const REBULK_DEAD_FRACTION: f64 = 0.25;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(0.0..100.0)).collect();
        Dataset::from_flat(flat, d).unwrap()
    }

    #[test]
    fn empty_and_tiny_trees() {
        let t = XTree::build(Dataset::empty(), Metric::L2, XTreeConfig::default());
        assert!(t.knn(&[], 3, Subspace::empty(), None).is_empty());
        let one = Dataset::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let t = XTree::build(one, Metric::L2, XTreeConfig::default());
        let nn = t.knn(&[0.0, 0.0], 5, Subspace::full(2), None);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].id, 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_after_many_inserts() {
        for seed in 0..3 {
            let ds = random_dataset(500, 6, seed);
            let t = XTree::build(ds, Metric::L2, XTreeConfig::default());
            t.check_invariants().unwrap();
            let s = t.stats();
            assert!(s.height >= 2, "stats {s:?}");
            assert!(s.leaves > 1);
        }
    }

    #[test]
    fn knn_matches_linear_scan_full_space() {
        let ds = random_dataset(400, 5, 7);
        let t = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        let lin = LinearScan::new(ds, Metric::L2);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let q: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..100.0)).collect();
            let a = t.knn(&q, 7, Subspace::full(5), None);
            let b = lin.knn(&q, 7, Subspace::full(5), None);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x.dist - y.dist).abs() < 1e-9, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn knn_matches_linear_scan_subspaces() {
        let ds = random_dataset(300, 8, 3);
        for metric in [Metric::L1, Metric::L2, Metric::LInf] {
            let t = XTree::build(ds.clone(), metric, XTreeConfig::default());
            let lin = LinearScan::new(ds.clone(), metric);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..10 {
                let q: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..100.0)).collect();
                let mask = rng.gen_range(1u64..(1 << 8));
                let s = Subspace::from_mask(mask);
                let a = t.knn(&q, 5, s, None);
                let b = lin.knn(&q, 5, s, None);
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x.dist - y.dist).abs() < 1e-9,
                        "metric {metric:?} subspace {s}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exclusion_respected() {
        let ds = random_dataset(100, 3, 1);
        let t = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        let q: Vec<f64> = ds.row(42).to_vec();
        let nn = t.knn(&q, 3, Subspace::full(3), Some(42));
        assert!(nn.iter().all(|n| n.id != 42));
        // Without exclusion the point finds itself at distance 0.
        let nn2 = t.knn(&q, 1, Subspace::full(3), None);
        assert_eq!(nn2[0].id, 42);
        assert_eq!(nn2[0].dist, 0.0);
    }

    #[test]
    fn range_matches_linear_scan() {
        let ds = random_dataset(300, 4, 11);
        let t = XTree::build(ds.clone(), Metric::L1, XTreeConfig::default());
        let lin = LinearScan::new(ds, Metric::L1);
        let q = [50.0, 50.0, 50.0, 50.0];
        for s in [Subspace::full(4), Subspace::from_dims(&[1, 3])] {
            for radius in [5.0, 20.0, 60.0] {
                let mut a: Vec<_> = t.range(&q, radius, s, None).iter().map(|n| n.id).collect();
                let mut b: Vec<_> = lin
                    .range(&q, radius, s, None)
                    .iter()
                    .map(|n| n.id)
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "radius {radius} subspace {s}");
            }
        }
    }

    #[test]
    fn clustered_data_produces_supernodes_or_clean_tree() {
        // Heavily overlapping high-d data: the X-tree must survive and
        // stay correct; supernodes may or may not appear depending on
        // geometry, but invariants always hold.
        let mut rng = StdRng::seed_from_u64(21);
        let d = 12;
        let n = 800;
        let flat: Vec<f64> = (0..n * d).map(|_| rng.gen_range(0.0..1.0)).collect();
        let ds = Dataset::from_flat(flat, d).unwrap();
        let t = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        t.check_invariants().unwrap();
        let lin = LinearScan::new(ds, Metric::L2);
        let q = vec![0.5; d];
        let a = t.knn(&q, 10, Subspace::full(d), None);
        let b = lin.knn(&q, 10, Subspace::full(d), None);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.dist - y.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn pruning_reduces_distance_evals_on_low_dim_queries() {
        let ds = random_dataset(4000, 8, 17);
        let t = XTree::build(ds.clone(), Metric::L2, XTreeConfig::default());
        let q: Vec<f64> = ds.row(0).to_vec();
        let before = t.distance_evals();
        t.knn(&q, 5, Subspace::full(8), None);
        let used = t.distance_evals() - before;
        assert!(
            used < 4000,
            "X-tree looked at every point ({used} evals) — no pruning at all"
        );
    }

    #[test]
    fn stats_reflect_structure() {
        let ds = random_dataset(2000, 4, 23);
        let t = XTree::build(ds, Metric::L2, XTreeConfig::default());
        let s = t.stats();
        assert_eq!(s.nodes, t.nodes.len());
        assert!(s.height >= 2);
        assert!(s.leaves >= 2000 / 33);
    }

    #[test]
    fn bulk_load_matches_insertion_build() {
        for (n, d) in [(0usize, 3usize), (1, 3), (40, 3), (700, 6), (3000, 10)] {
            let ds = random_dataset(n, d, n as u64 + d as u64);
            let bulk = XTree::bulk_load(ds.clone(), Metric::L2, XTreeConfig::default());
            bulk.check_invariants().unwrap();
            let lin = LinearScan::new(ds.clone(), Metric::L2);
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..8 {
                let q: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..100.0)).collect();
                let mask = rng.gen_range(1u64..(1 << d));
                let s = Subspace::from_mask(mask);
                let a = bulk.knn(&q, 5, s, None);
                let b = lin.knn(&q, 5, s, None);
                assert_eq!(a.len(), b.len(), "n={n}");
                for (x, y) in a.iter().zip(&b) {
                    assert!((x.dist - y.dist).abs() < 1e-9, "n={n} {s}");
                }
            }
        }
    }

    #[test]
    fn bulk_load_is_balanced_and_supernode_free() {
        let ds = random_dataset(5000, 8, 77);
        let bulk = XTree::bulk_load(ds.clone(), Metric::L2, XTreeConfig::default());
        let s = bulk.stats();
        assert_eq!(s.supernodes, 0);
        // Balanced height: ceil(log_16(ceil(5000/32))) + 1 = 3.
        assert!(s.height <= 3, "bulk height {}", s.height);
        let inserted = XTree::build(ds, Metric::L2, XTreeConfig::default());
        assert!(s.height <= inserted.stats().height);
    }

    /// Regression: the greedy slab split packed every leaf full and
    /// left the remainder in the last one — at n = 5000 a leaf of 8
    /// points, below the min-fill of 12 the insertion path keeps.
    #[test]
    fn bulk_load_spreads_points_evenly_under_the_fill_bound() {
        for n in [1usize, 31, 33, 700, 5000, 20000] {
            let ds = random_dataset(n, 8, n as u64);
            let bulk = XTree::bulk_load(ds, Metric::L2, XTreeConfig::default());
            bulk.check_bulk_shape()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    /// The compaction valve re-packs with the same fill.
    #[test]
    fn rebulk_after_removals_keeps_the_bulk_shape() {
        let ds = random_dataset(2000, 6, 41);
        let mut t = XTree::build(ds, Metric::L2, XTreeConfig::default());
        for id in 0.. {
            t.remove(id).unwrap();
            if t.stale_points() == 0 {
                break;
            }
        }
        assert!(t.dataset().live_len() < 1600, "no rebuild before 25% dead");
        t.check_bulk_shape().unwrap();
    }

    #[test]
    fn rebulk_cadence_is_bounded_not_per_removal() {
        // Regression: the rebuild gate counts tombstones in the TREE
        // (reset by each re-bulk-load), not the dataset's cumulative
        // dead count — otherwise, once the dead fraction crossed 25%,
        // every later removal would rebuild the whole tree.
        let ds = random_dataset(400, 4, 31);
        let mut t = XTree::build(ds, Metric::L2, XTreeConfig::default());
        let mut rebuilds = 0usize;
        let mut gaps_without_rebuild = 0usize;
        let mut prev_stale = 0usize;
        for id in 0..300usize {
            t.remove(id).unwrap();
            if t.stale_points() == 0 {
                rebuilds += 1;
            } else {
                assert_eq!(
                    t.stale_points(),
                    prev_stale + 1,
                    "stale must only grow by 1"
                );
                gaps_without_rebuild += 1;
            }
            prev_stale = t.stale_points();
            t.check_invariants().unwrap();
        }
        // Far fewer rebuilds than removals, and plenty of removals
        // that did not rebuild — the amortisation actually happens.
        assert!(rebuilds >= 2, "gate never fired: {rebuilds}");
        assert!(
            rebuilds <= 20,
            "rebuilding nearly every removal: {rebuilds} rebuilds / 300 removals"
        );
        assert!(gaps_without_rebuild > 250);
        // Queries stay exact throughout (spot check at the end).
        let lin = LinearScan::new(t.dataset().clone(), Metric::L2);
        let q: Vec<f64> = t.dataset().row(350).to_vec();
        assert_eq!(
            t.knn(&q, 5, Subspace::full(4), Some(350)),
            lin.knn(&q, 5, Subspace::full(4), Some(350))
        );
    }

    #[test]
    #[should_panic]
    fn config_validation() {
        let _ = XTree::build(
            Dataset::empty(),
            Metric::L2,
            XTreeConfig {
                max_leaf: 1,
                ..XTreeConfig::default()
            },
        );
    }
}
