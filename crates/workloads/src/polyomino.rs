//! Polyomino boundary tracing: build workload shapes as *cell regions* and
//! derive the closed chain as the region's boundary curve.
//!
//! Cell `(x, y)` occupies the unit square `[x, x+1] × [y, y+1]`. For a
//! 4-connected region without holes or diagonal pinch points, the directed
//! boundary edges (region kept on the left) form a single cycle over
//! lattice vertices — exactly a valid closed chain, validated through
//! [`ClosedChain::new`]. The region families of [`crate::extra`] write
//! their boundary walks as step codes directly; their tests check them
//! against this trace.

use chain_sim::ClosedChain;
use grid_geom::Point;
use std::collections::{HashMap, HashSet};

/// A growable cell region.
#[derive(Clone, Debug, Default)]
pub struct CellRegion {
    cells: HashSet<(i64, i64)>,
}

impl CellRegion {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn insert(&mut self, x: i64, y: i64) {
        self.cells.insert((x, y));
    }

    pub fn insert_rect(&mut self, x0: i64, y0: i64, w: i64, h: i64) {
        for x in x0..x0 + w {
            for y in y0..y0 + h {
                self.insert(x, y);
            }
        }
    }

    #[inline]
    pub fn contains(&self, x: i64, y: i64) -> bool {
        self.cells.contains(&(x, y))
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Trace the boundary into a closed chain (counterclockwise; region on
    /// the left of each directed edge).
    ///
    /// Panics if the region is empty or its boundary is not a single
    /// simple cycle (holes or diagonal pinches).
    pub fn boundary_chain(&self) -> ClosedChain {
        assert!(!self.cells.is_empty(), "empty region");
        // Directed boundary edges keyed by start vertex.
        let mut edges: HashMap<(i64, i64), Vec<(i64, i64)>> = HashMap::new();
        let mut edge_count = 0usize;
        for &(x, y) in &self.cells {
            if !self.contains(x, y - 1) {
                edges.entry((x, y)).or_default().push((x + 1, y));
                edge_count += 1;
            }
            if !self.contains(x + 1, y) {
                edges.entry((x + 1, y)).or_default().push((x + 1, y + 1));
                edge_count += 1;
            }
            if !self.contains(x, y + 1) {
                edges.entry((x + 1, y + 1)).or_default().push((x, y + 1));
                edge_count += 1;
            }
            if !self.contains(x - 1, y) {
                edges.entry((x, y + 1)).or_default().push((x, y));
                edge_count += 1;
            }
        }
        // Walk from the lexicographically smallest start vertex.
        let start = *edges
            .keys()
            .min()
            .expect("non-empty region has boundary edges");
        let mut pts: Vec<Point> = Vec::with_capacity(edge_count);
        let mut at = start;
        loop {
            pts.push(Point::new(at.0, at.1));
            let outs = edges
                .get_mut(&at)
                .unwrap_or_else(|| panic!("boundary dead-ends at {at:?}"));
            assert!(
                outs.len() == 1,
                "diagonal pinch at {at:?}: region boundary is not a simple cycle"
            );
            at = outs.pop().expect("checked non-empty");
            if at == start {
                break;
            }
        }
        assert_eq!(
            pts.len(),
            edge_count,
            "region has holes or multiple boundary components"
        );
        ClosedChain::new(pts).expect("boundary trace is a valid closed chain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_sim::invariant;

    #[test]
    fn single_cell_is_unit_square() {
        let mut r = CellRegion::new();
        r.insert(0, 0);
        let c = r.boundary_chain();
        assert_eq!(c.len(), 4);
        assert!(c.is_gathered());
    }

    #[test]
    fn domino_is_2x1_rect() {
        let mut r = CellRegion::new();
        r.insert(0, 0);
        r.insert(1, 0);
        let c = r.boundary_chain();
        assert_eq!(c.len(), 6);
        assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
    }

    #[test]
    fn rect_region_matches_formula() {
        let mut r = CellRegion::new();
        r.insert_rect(0, 0, 5, 3);
        let c = r.boundary_chain();
        // Perimeter of a 5×3 cell block = 2(5+3) = 16 vertices.
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn l_shape_boundary() {
        let mut r = CellRegion::new();
        r.insert_rect(0, 0, 3, 1);
        r.insert_rect(0, 1, 1, 2);
        let c = r.boundary_chain();
        assert!(invariant::is_taut(&c));
        assert_eq!(invariant::signed_turning_quarters(&c).abs(), 4);
        // L-shape with arms 3/3: perimeter 12 edges.
        assert_eq!(c.len(), 12);
    }

    #[test]
    #[should_panic(expected = "diagonal pinch")]
    fn pinch_is_rejected() {
        let mut r = CellRegion::new();
        r.insert(0, 0);
        r.insert(1, 1);
        let _ = r.boundary_chain();
    }

    #[test]
    #[should_panic(expected = "holes")]
    fn hole_is_rejected() {
        let mut r = CellRegion::new();
        r.insert_rect(0, 0, 3, 3);
        r.cells.remove(&(1, 1));
        let _ = r.boundary_chain();
    }
}
