//! Recursive-bisection placement (the Capo [23] stand-in).
//!
//! Capo is a min-cut recursive bisector; this module implements the same
//! strategy in simplified form: nodes are ordered by a depth-first
//! post-order from the primary outputs (so each logic cone occupies a
//! contiguous index range), then the ordered list is recursively split in
//! half with alternating vertical/horizontal cuts of the die. Connected
//! gates end up spatially near each other, which is exactly the property
//! the spatial-correlation experiments need.

use crate::{Circuit, NodeId};
use klest_geometry::{Point2, Rect};

/// A placement: one die location per circuit node, on the normalized die.
#[derive(Debug, Clone)]
pub struct Placement {
    die: Rect,
    locations: Vec<Point2>,
}

impl Placement {
    /// Places `circuit` on the normalized `[-1, 1]²` die with recursive
    /// bisection.
    pub fn recursive_bisection(circuit: &Circuit) -> Self {
        Self::recursive_bisection_on(circuit, Rect::unit_die())
    }

    /// Places `circuit` on an arbitrary rectangular die.
    pub fn recursive_bisection_on(circuit: &Circuit, die: Rect) -> Self {
        let order = bfs_order(circuit);
        let n = order.len();
        let mut locations = vec![Point2::ORIGIN; n];
        // Recursive split of the ordered slice into halves, assigning
        // sub-rectangles with alternating cut directions.
        let mut stack: Vec<(usize, usize, Rect, bool)> = vec![(0, n, die, true)];
        while let Some((lo, hi, rect, vertical)) = stack.pop() {
            let count = hi - lo;
            if count == 0 {
                continue;
            }
            if count == 1 {
                locations[order[lo].index()] = rect.bbox().center();
                continue;
            }
            let mid = lo + count / 2;
            let bbox = rect.bbox();
            if vertical {
                let cut = bbox.min.x + bbox.width() * (mid - lo) as f64 / count as f64;
                let left = Rect::new(bbox.min, Point2::new(cut, bbox.max.y));
                let right = Rect::new(Point2::new(cut, bbox.min.y), bbox.max);
                stack.push((lo, mid, left, false));
                stack.push((mid, hi, right, false));
            } else {
                let cut = bbox.min.y + bbox.height() * (mid - lo) as f64 / count as f64;
                let bottom = Rect::new(bbox.min, Point2::new(bbox.max.x, cut));
                let top = Rect::new(Point2::new(bbox.min.x, cut), bbox.max);
                stack.push((lo, mid, bottom, true));
                stack.push((mid, hi, top, true));
            }
        }
        Placement { die, locations }
    }

    /// The die rectangle.
    pub fn die(&self) -> Rect {
        self.die
    }

    /// Location of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn location(&self, id: NodeId) -> Point2 {
        self.locations[id.index()]
    }

    /// All locations, indexed by node.
    pub fn locations(&self) -> &[Point2] {
        &self.locations
    }

    /// Number of placed nodes.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Total half-perimeter wirelength over all nets (driver + fanouts).
    pub fn total_hpwl(&self, circuit: &Circuit) -> f64 {
        let mut total = 0.0;
        for id in circuit.topological_order() {
            let fanouts = circuit.fanouts(id);
            if fanouts.is_empty() {
                continue;
            }
            let pins =
                std::iter::once(self.location(id)).chain(fanouts.iter().map(|&f| self.location(f)));
            if let Some(bbox) = klest_geometry::BBox::from_points(pins) {
                total += bbox.half_perimeter();
            }
        }
        total
    }
}

/// Depth-first post-order over the DAG from the primary outputs, walking
/// fanins. Each output's fan-in cone gets a contiguous index range, so
/// the recursive bisection keeps logic cones — i.e. connected gates —
/// spatially together (the property min-cut placers optimise for).
/// Unreachable nodes (none, in generated circuits) are appended at the
/// end.
pub(crate) fn bfs_order(circuit: &Circuit) -> Vec<NodeId> {
    let n = circuit.node_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Iterative DFS with an explicit (node, next-fanin) stack.
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    for &out in circuit.outputs() {
        if seen[out.index()] {
            continue;
        }
        seen[out.index()] = true;
        stack.push((out, 0));
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            let fanins = circuit.fanins(id);
            if *next < fanins.len() {
                let f = fanins[*next];
                *next += 1;
                if !seen[f.index()] {
                    seen[f.index()] = true;
                    stack.push((f, 0));
                }
            } else {
                order.push(id);
                stack.pop();
            }
        }
    }
    for (i, &was_seen) in seen.iter().enumerate() {
        if !was_seen {
            order.push(NodeId(i as u32));
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    fn circuit(n: usize) -> Circuit {
        generate("p", GeneratorConfig::combinational(n, 5)).unwrap()
    }

    #[test]
    fn all_nodes_inside_die() {
        let c = circuit(500);
        let p = Placement::recursive_bisection(&c);
        assert_eq!(p.len(), c.node_count());
        assert!(!p.is_empty());
        for id in c.topological_order() {
            assert!(p.die().contains(p.location(id)), "node {id} off-die");
        }
    }

    #[test]
    fn placement_spreads_over_die() {
        // Not all in one corner: the bounding box of locations should
        // cover most of the die.
        let c = circuit(1000);
        let p = Placement::recursive_bisection(&c);
        let bbox = klest_geometry::BBox::from_points(p.locations().iter().copied()).unwrap();
        assert!(bbox.width() > 1.5, "width {}", bbox.width());
        assert!(bbox.height() > 1.5, "height {}", bbox.height());
    }

    #[test]
    fn connected_gates_are_nearby() {
        // The whole point of recursive bisection: average edge length is
        // much shorter than the average random-pair distance (~1.09 for
        // uniform points on [-1,1]²).
        let c = circuit(2000);
        let p = Placement::recursive_bisection(&c);
        let mut total = 0.0;
        let mut edges = 0usize;
        for id in c.topological_order() {
            for &f in c.fanins(id) {
                total += p.location(id).distance(p.location(f));
                edges += 1;
            }
        }
        let avg = total / edges as f64;
        assert!(avg < 0.7, "average edge length {avg} too long");
    }

    #[test]
    fn distinct_cells_for_most_nodes() {
        let c = circuit(300);
        let p = Placement::recursive_bisection(&c);
        let mut locs: Vec<(i64, i64)> = p
            .locations()
            .iter()
            .map(|l| ((l.x * 1e9) as i64, (l.y * 1e9) as i64))
            .collect();
        locs.sort_unstable();
        locs.dedup();
        assert!(
            locs.len() as f64 > 0.95 * p.len() as f64,
            "{} unique of {}",
            locs.len(),
            p.len()
        );
    }

    #[test]
    fn hpwl_is_positive_and_scales() {
        let small = circuit(100);
        let large = circuit(1000);
        let ps = Placement::recursive_bisection(&small);
        let pl = Placement::recursive_bisection(&large);
        let hs = ps.total_hpwl(&small);
        let hl = pl.total_hpwl(&large);
        assert!(hs > 0.0);
        assert!(hl > hs, "HPWL should grow with size: {hs} vs {hl}");
    }

    #[test]
    fn custom_die_respected() {
        let c = circuit(64);
        let die = Rect::new(Point2::new(0.0, 0.0), Point2::new(10.0, 5.0));
        let p = Placement::recursive_bisection_on(&c, die);
        for id in c.topological_order() {
            assert!(die.contains(p.location(id)));
        }
        assert_eq!(p.die(), die);
    }
}
