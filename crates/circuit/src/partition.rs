//! Die-region partitioning for hierarchical SSTA.
//!
//! [`Partition`] extends the recursive-bisection placement into a block
//! decomposition: the same DFS post-order and alternating median cuts
//! that drive [`Placement`](crate::Placement) are stopped early, leaving
//! `blocks` contiguous index ranges, each owning one rectangular die
//! region. Because the partition tree is a prefix of the placement tree,
//! every node's placement location falls inside its block's rectangle,
//! and the block rectangles tile the die exactly.
//!
//! Each block exposes its boundary: *cut inputs* (nodes in other blocks
//! feeding a gate in this block) and *cut outputs* (nodes in this block
//! feeding a gate elsewhere). A per-block content hash over the region
//! rectangle and the contained netlist arcs gives the hierarchical
//! engine a content-addressed cache key; callers fold in gate-parameter
//! bits so an edit re-keys exactly one block.

use crate::placement::bfs_order;
use crate::{Circuit, NodeId};
use klest_geometry::{Point2, Rect};
use klest_rng::{fnv1a64_extend, FNV1A64_OFFSET};

/// One die-region block of a [`Partition`].
#[derive(Debug, Clone)]
struct Block {
    rect: Rect,
    nodes: Vec<NodeId>,
    cut_inputs: Vec<NodeId>,
    cut_outputs: Vec<NodeId>,
    content_hash: u64,
}

/// A decomposition of a circuit into die-region blocks, produced by the
/// same recursive bisection as [`Placement`](crate::Placement) but
/// stopped at a target block count.
#[derive(Debug, Clone)]
pub struct Partition {
    die: Rect,
    blocks: Vec<Block>,
    node_block: Vec<u32>,
}

impl Partition {
    /// Partitions `circuit` into at most `blocks` die-region blocks on
    /// the normalized `[-1, 1]²` die.
    ///
    /// `blocks` is clamped to `[1, node_count]`. The decomposition is a
    /// pure function of the circuit and the block count — deterministic
    /// across runs and processes.
    pub fn build(circuit: &Circuit, blocks: usize) -> Self {
        Self::build_on(circuit, blocks, Rect::unit_die())
    }

    /// Partitions `circuit` on an arbitrary rectangular die.
    pub fn build_on(circuit: &Circuit, blocks: usize, die: Rect) -> Self {
        let order = bfs_order(circuit);
        let n = order.len();
        let target = blocks.clamp(1, n.max(1));
        // Leaves of the (partial) bisection tree: (lo, hi, rect,
        // vertical-cut flag). Splitting always picks the most populous
        // leaf (ties: lowest lo), so the leaf set is a deterministic
        // prefix of the full placement recursion tree.
        let mut leaves: Vec<(usize, usize, Rect, bool)> = vec![(0, n, die, true)];
        while leaves.len() < target {
            let (pos, _) = leaves
                .iter()
                .enumerate()
                .max_by_key(|(i, (lo, hi, _, _))| (hi - lo, usize::MAX - i))
                .expect("leaves is non-empty");
            let (lo, hi, rect, vertical) = leaves.remove(pos);
            let count = hi - lo;
            if count <= 1 {
                // Every leaf is a single node already; cannot split further.
                leaves.push((lo, hi, rect, vertical));
                break;
            }
            let mid = lo + count / 2;
            let bbox = rect.bbox();
            if vertical {
                let cut = bbox.min.x + bbox.width() * (mid - lo) as f64 / count as f64;
                let left = Rect::new(bbox.min, Point2::new(cut, bbox.max.y));
                let right = Rect::new(Point2::new(cut, bbox.min.y), bbox.max);
                leaves.push((lo, mid, left, false));
                leaves.push((mid, hi, right, false));
            } else {
                let cut = bbox.min.y + bbox.height() * (mid - lo) as f64 / count as f64;
                let bottom = Rect::new(bbox.min, Point2::new(bbox.max.x, cut));
                let top = Rect::new(Point2::new(bbox.min.x, cut), bbox.max);
                leaves.push((lo, mid, bottom, true));
                leaves.push((mid, hi, top, true));
            }
        }
        // Stable block numbering: by index range, independent of the
        // order splits happened to be applied in.
        leaves.sort_by_key(|&(lo, _, _, _)| lo);

        let mut node_block = vec![0u32; n];
        let mut blocks: Vec<Block> = leaves
            .iter()
            .enumerate()
            .map(|(b, &(lo, hi, rect, _))| {
                let mut nodes: Vec<NodeId> = order[lo..hi].to_vec();
                // Ascending node-id order inside the block: node ids are
                // topological, so iterating a block's nodes visits every
                // fanin-before-fanout pair in order.
                nodes.sort_by_key(|id| id.index());
                for &id in &nodes {
                    node_block[id.index()] = b as u32;
                }
                Block {
                    rect,
                    nodes,
                    cut_inputs: Vec::new(),
                    cut_outputs: Vec::new(),
                    content_hash: 0,
                }
            })
            .collect();

        // Boundary sets: one pass over all arcs. A cross-block arc u→v
        // makes u a cut output of block(u) and a cut input of block(v).
        for (b, block) in blocks.iter_mut().enumerate() {
            let mut cut_inputs = Vec::new();
            let mut cut_outputs = Vec::new();
            for &id in &block.nodes {
                let mut crosses_out = false;
                for &f in circuit.fanins(id) {
                    if node_block[f.index()] as usize != b && !cut_inputs.contains(&f) {
                        cut_inputs.push(f);
                    }
                }
                for &o in circuit.fanouts(id) {
                    if node_block[o.index()] as usize != b {
                        crosses_out = true;
                    }
                }
                if crosses_out {
                    cut_outputs.push(id);
                }
            }
            cut_inputs.sort_by_key(|id| id.index());
            block.cut_inputs = cut_inputs;
            block.cut_outputs = cut_outputs;
        }

        // Content hash: region rect bits × contained netlist arcs (node
        // id, gate kind, fanin ids). Exact f64 bit patterns, same
        // discipline as the artifact-cache keys.
        for block in &mut blocks {
            let bbox = block.rect.bbox();
            let mut h = FNV1A64_OFFSET;
            for v in [bbox.min.x, bbox.min.y, bbox.max.x, bbox.max.y] {
                h = fnv1a64_extend(h, &v.to_bits().to_le_bytes());
            }
            h = fnv1a64_extend(h, &(block.nodes.len() as u64).to_le_bytes());
            for &id in &block.nodes {
                h = fnv1a64_extend(h, &(id.index() as u64).to_le_bytes());
                h = fnv1a64_extend(h, &(circuit.kind(id) as u64).to_le_bytes());
                for &f in circuit.fanins(id) {
                    h = fnv1a64_extend(h, &(f.index() as u64).to_le_bytes());
                }
            }
            block.content_hash = h;
        }

        Partition {
            die,
            blocks,
            node_block,
        }
    }

    /// The die rectangle the blocks tile.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block owning node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_of(&self, id: NodeId) -> usize {
        self.node_block[id.index()] as usize
    }

    /// The die region of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn rect(&self, b: usize) -> Rect {
        self.blocks[b].rect
    }

    /// The nodes of block `b`, in ascending node-id (topological) order.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn nodes(&self, b: usize) -> &[NodeId] {
        &self.blocks[b].nodes
    }

    /// Nodes in *other* blocks that feed a gate in block `b`, in
    /// ascending node-id order.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn cut_inputs(&self, b: usize) -> &[NodeId] {
        &self.blocks[b].cut_inputs
    }

    /// Nodes of block `b` that feed a gate in another block, in
    /// ascending node-id order.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn cut_outputs(&self, b: usize) -> &[NodeId] {
        &self.blocks[b].cut_outputs
    }

    /// Total number of distinct cut nodes (nodes with at least one
    /// cross-block arc on either side).
    pub fn cut_node_count(&self) -> usize {
        let mut cut = vec![false; self.node_block.len()];
        for b in 0..self.blocks.len() {
            for &id in &self.blocks[b].cut_outputs {
                cut[id.index()] = true;
            }
            for &id in &self.blocks[b].cut_inputs {
                cut[id.index()] = true;
            }
        }
        cut.iter().filter(|&&c| c).count()
    }

    /// Content hash of block `b`: region rect × contained netlist arcs
    /// (node ids, gate kinds, fanin ids), over exact f64 bit patterns.
    /// Fold per-gate parameter bits in with [`Partition::fold_params`]
    /// to get an edit-sensitive cache key.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn content_hash(&self, b: usize) -> u64 {
        self.blocks[b].content_hash
    }

    /// Folds caller-supplied words (gate-parameter bits, basis rank,
    /// …) into block `b`'s content hash, producing the region hash used
    /// as an artifact-cache key component.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn fold_params(&self, b: usize, words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = self.blocks[b].content_hash;
        for w in words {
            h = fnv1a64_extend(h, &w.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig, Placement};

    fn circuit(n: usize) -> Circuit {
        generate("p", GeneratorConfig::combinational(n, 5)).unwrap()
    }

    #[test]
    fn every_node_in_exactly_one_block() {
        let c = circuit(400);
        let p = Partition::build(&c, 8);
        assert_eq!(p.block_count(), 8);
        let mut seen = vec![0usize; c.node_count()];
        for b in 0..p.block_count() {
            for &id in p.nodes(b) {
                seen[id.index()] += 1;
                assert_eq!(p.block_of(id), b);
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "every node exactly once");
    }

    #[test]
    fn rects_tile_the_die_and_contain_placement() {
        let c = circuit(600);
        let p = Partition::build(&c, 6);
        let die_area = p.die().bbox().area();
        let total: f64 = (0..p.block_count()).map(|b| p.rect(b).bbox().area()).sum();
        assert!(
            (total - die_area).abs() < 1e-9 * die_area,
            "areas {total} vs die {die_area}"
        );
        // The partition tree is a prefix of the placement tree, so every
        // placed node lands inside its block's rectangle.
        let place = Placement::recursive_bisection(&c);
        for b in 0..p.block_count() {
            for &id in p.nodes(b) {
                assert!(
                    p.rect(b).contains(place.location(id)),
                    "node {id} outside block {b}"
                );
            }
        }
    }

    #[test]
    fn cut_sets_consistent_from_both_sides() {
        let c = circuit(500);
        let p = Partition::build(&c, 5);
        for id in c.topological_order() {
            let b = p.block_of(id);
            for &f in c.fanins(id) {
                let fb = p.block_of(f);
                if fb != b {
                    assert!(
                        p.cut_inputs(b).contains(&f),
                        "{f} missing from inputs of {b}"
                    );
                    assert!(
                        p.cut_outputs(fb).contains(&f),
                        "{f} missing from outputs of {fb}"
                    );
                }
            }
        }
        assert!(
            p.cut_node_count() > 0,
            "multi-block partition must have cuts"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let c = circuit(300);
        let a = Partition::build(&c, 7);
        let b = Partition::build(&c, 7);
        assert_eq!(a.block_count(), b.block_count());
        for i in 0..a.block_count() {
            assert_eq!(a.content_hash(i), b.content_hash(i));
            assert_eq!(a.nodes(i), b.nodes(i));
            assert_eq!(a.rect(i), b.rect(i));
        }
    }

    #[test]
    fn single_block_has_no_cuts() {
        let c = circuit(64);
        let p = Partition::build(&c, 1);
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.cut_node_count(), 0);
        assert_eq!(p.nodes(0).len(), c.node_count());
    }

    #[test]
    fn block_count_clamped() {
        let c = circuit(16);
        let p = Partition::build(&c, 0);
        assert_eq!(p.block_count(), 1);
        let q = Partition::build(&c, 10_000);
        assert!(q.block_count() <= c.node_count());
    }

    #[test]
    fn param_fold_changes_hash() {
        let c = circuit(128);
        let p = Partition::build(&c, 4);
        let base = p.fold_params(0, []);
        assert_eq!(base, p.content_hash(0));
        let edited = p.fold_params(0, [0x3ff0_0000_0000_0000]);
        assert_ne!(base, edited);
    }
}
