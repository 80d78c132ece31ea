//! f64 points in the plane and the Euclidean `ChainGeometry` backend.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use geom_core::ChainGeometry;

use crate::chain::EDGE_EPS;

/// Relative half-width of the band around a tie inside which
/// [`Vec2::norm_le`] compares `hypot` lengths instead of squared ones.
const NORM_BAND: f64 = 1e-12;

/// The least squared length [`Vec2::norm_le`] decides on: below the
/// normal range, underflow takes a square's relative precision.
const NORM_TINY: f64 = f64::MIN_POSITIVE;

/// The longest viable chain edge, as a displacement.
const UNIT_REACH: Vec2 = Vec2::new(1.0 + EDGE_EPS, 0.0);

/// A point (or displacement) in the continuous plane. Equality is exact
/// bitwise f64 equality — the merge pass relies on folds *copying* a
/// neighbor's coordinates rather than recomputing them, so coincidence is
/// never a tolerance question.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Vec2 {
    /// The origin / zero displacement.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// A point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    #[inline]
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// `self.length() <= other.length()`, the same decision, mostly
    /// without `hypot`. A normal squared length is within 2⁻⁵¹ of its
    /// true value and `hypot` within one ulp, so when the squares differ
    /// by more than a 10⁻¹² relative band, both comparisons agree with
    /// the true order (an overflowed square is decided only against a
    /// finite one, which is then truly shorter). Inside the band, or when
    /// a square is tiny or NaN, it compares the `hypot` lengths.
    #[inline]
    pub fn norm_le(self, other: Vec2) -> bool {
        let (a, b) = (self.dot(self), other.dot(other));
        if a >= NORM_TINY && b >= NORM_TINY {
            if a < b * (1.0 - NORM_BAND) {
                return true;
            }
            if a > b * (1.0 + NORM_BAND) {
                return false;
            }
        }
        self.length() <= other.length()
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The total order the fold rule breaks ties with: lexicographic on
    /// `(x + y, x, y)`. Distinct points always compare unequal (distinct
    /// `(x, y)` differ in one of the later components).
    #[inline]
    pub fn key(self) -> (f64, f64, f64) {
        (self.x + self.y, self.x, self.y)
    }

    /// The reflection of `self` across the line through `a` and `b`
    /// (callers guarantee `a != b`). Distances from the reflected point to
    /// `a` and to `b` are preserved — the safety of the chord hop.
    #[inline]
    pub fn reflect_across(self, a: Vec2, b: Vec2) -> Vec2 {
        let d = b - a;
        let v = self - a;
        let t = v.dot(d) / d.dot(d);
        let foot = a + d * t;
        foot * 2.0 - self
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, o: Vec2) {
        self.x += o.x;
        self.y += o.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, o: Vec2) {
        self.x -= o.x;
        self.y -= o.y;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

/// The continuous plane as a geometry backend: unit-distance chain edges,
/// chord hops (length ≤ 2, like the grid hop's two-step mirror), exact
/// coincidence, and the extent-≤-1 gathering box.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EuclidSpace;

impl ChainGeometry for EuclidSpace {
    type Point = Vec2;
    type Hop = Vec2;

    const NAME: &'static str = "euclid";

    #[inline]
    fn zero_hop() -> Vec2 {
        Vec2::ZERO
    }

    #[inline]
    fn is_hop(hop: Vec2) -> bool {
        // A chord reflection moves at most twice the unit chain-edge
        // length; folds and midpoints move strictly less.
        hop.length() <= 2.0 + EDGE_EPS
    }

    #[inline]
    fn apply(p: Vec2, hop: Vec2) -> Vec2 {
        p + hop
    }

    #[inline]
    fn edge_viable(a: Vec2, b: Vec2) -> bool {
        // `a.dist(b) <= 1 + EDGE_EPS`: `hypot(1 + EDGE_EPS, 0)` is exact.
        (a - b).norm_le(UNIT_REACH)
    }

    #[inline]
    fn coincident(a: Vec2, b: Vec2) -> bool {
        a == b
    }

    #[inline]
    fn distance(a: Vec2, b: Vec2) -> f64 {
        a.dist(b)
    }

    #[inline]
    fn extent(points: &[Vec2]) -> (f64, f64) {
        let Some(&first) = points.first() else {
            return (0.0, 0.0);
        };
        let (mut min, mut max) = (first, first);
        for &p in &points[1..] {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        (max.x - min.x, max.y - min.y)
    }

    #[inline]
    fn gathered(points: &[Vec2]) -> bool {
        let (w, h) = Self::extent(points);
        w <= 1.0 + EDGE_EPS && h <= 1.0 + EDGE_EPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflection_preserves_chord_distances() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.3, 0.4);
        let p = Vec2::new(0.7, 0.9);
        let r = p.reflect_across(a, b);
        assert!((r.dist(a) - p.dist(a)).abs() < 1e-12);
        assert!((r.dist(b) - p.dist(b)).abs() < 1e-12);
        // Reflecting twice returns (within float error).
        let rr = r.reflect_across(a, b);
        assert!(rr.dist(p) < 1e-12);
    }

    #[test]
    fn collinear_points_reflect_to_themselves() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 0.0);
        let p = Vec2::new(0.5, 0.0);
        assert!(p.reflect_across(a, b).dist(p) < 1e-12);
    }

    #[test]
    fn keys_order_distinct_points_totally() {
        let a = Vec2::new(0.0, 1.0);
        let b = Vec2::new(1.0, 0.0); // same x + y, larger x
        assert!(a.key() < b.key());
        assert_eq!(a.key(), a.key());
        assert!(Vec2::new(0.0, 0.0).key() < a.key());
    }

    /// `norm_le` and the predicates built on it decide exactly as the
    /// `hypot` comparisons they replace: on random pairs across scales,
    /// on near-ties (a vector against its rotation), on lengths within
    /// ±64 ulps of the edge threshold, on exact ties, on coincident
    /// points, and on subnormal, huge and non-finite offsets.
    #[test]
    fn squared_predicates_match_hypot() {
        use chain_sim::rng::SplitMix64;

        let mut rng = SplitMix64::new(0x5e1f);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut checked = 0usize;
        let mut check = |u: Vec2, v: Vec2| {
            assert_eq!(u.norm_le(v), u.length() <= v.length(), "{u:?} vs {v:?}");
            checked += 1;
        };
        let reach = 1.0 + EDGE_EPS;
        let viable = |a: Vec2, b: Vec2| {
            assert_eq!(
                EuclidSpace::edge_viable(a, b),
                a.dist(b) <= reach,
                "{a:?} to {b:?}"
            );
        };

        for case in 0..100_000 {
            // Random pairs across scales (every eighth where the squares
            // underflow or overflow), and a vector against itself
            // rotated: the same length up to rounding, so the squares
            // sit inside the band and the hypot fallback decides.
            let exp = match case % 16 {
                0 => -560.0 + unit() * 50.0,
                1 => 490.0 + unit() * 30.0,
                _ => -40.0 + unit() * 80.0,
            };
            let scale = (2f64).powi(exp as i32);
            let u = Vec2::new(unit() - 0.5, unit() - 0.5) * scale;
            let v = Vec2::new(unit() - 0.5, unit() - 0.5) * scale;
            check(u, v);
            let (sin, cos) = (unit() * std::f64::consts::TAU).sin_cos();
            let r = Vec2::new(u.x * cos - u.y * sin, u.x * sin + u.y * cos);
            check(u, r);
            check(r, u);
            // Edges of random length around 1 at random positions.
            let a = Vec2::new(unit() * 8.0 - 4.0, unit() * 8.0 - 4.0);
            let len = 0.99 + unit() * 0.02;
            viable(a, a + Vec2::new(len * cos, len * sin));
        }

        // Lengths within ±64 ulps of 1 + EDGE_EPS, in every direction.
        for k in -64i64..=64 {
            let len = f64::from_bits((reach.to_bits() as i64 + k) as u64);
            for step in 0..64 {
                let (sin, cos) = (f64::from(step) * std::f64::consts::TAU / 64.0).sin_cos();
                let d = Vec2::new(len * cos, len * sin);
                check(d, UNIT_REACH);
                check(Vec2::new(len, 0.0), d);
                let a = Vec2::new(unit() * 8.0 - 4.0, unit() * 8.0 - 4.0);
                viable(a, a + d);
                viable(Vec2::ZERO, d);
            }
        }

        // Exact ties, coincident points, subnormal and huge offsets.
        let tiny = f64::from_bits(1);
        let specials = [
            0.0,
            -0.0,
            tiny,
            3.0 * tiny,
            f64::MIN_POSITIVE,
            1e-160,
            1.5e-154,
            0.5,
            1.0,
            reach,
            3.0,
            1e150,
            1.4e154,
            1e200,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &specials {
            for &y in &specials {
                let u = Vec2::new(x, y);
                for v in [
                    Vec2::new(y, x),
                    Vec2::new(-x, y),
                    Vec2::new(x, -y),
                    u,
                    Vec2::ZERO,
                    UNIT_REACH,
                ] {
                    check(u, v);
                    check(v, u);
                }
                for &z in &specials {
                    check(u, Vec2::new(z, x));
                    check(u, Vec2::new(y, z));
                }
                viable(u, u);
                viable(u, Vec2::ZERO);
                viable(Vec2::new(x, 1.0), Vec2::new(0.0, y));
            }
        }
        assert!(checked > 300_000, "{checked} comparisons");
    }

    #[test]
    fn space_predicates() {
        let a = Vec2::new(0.0, 0.0);
        assert!(EuclidSpace::edge_viable(a, Vec2::new(1.0, 0.0)));
        assert!(!EuclidSpace::edge_viable(a, Vec2::new(1.1, 0.0)));
        assert!(EuclidSpace::coincident(a, Vec2::new(0.0, 0.0)));
        assert!(!EuclidSpace::coincident(a, Vec2::new(1e-15, 0.0)));
        assert!(EuclidSpace::is_hop(Vec2::new(1.4, 1.4)));
        assert!(!EuclidSpace::is_hop(Vec2::new(2.1, 0.0)));
        assert_eq!(EuclidSpace::distance(a, Vec2::new(3.0, 4.0)), 5.0);
        assert!(EuclidSpace::gathered(&[a, Vec2::new(0.9, 0.9)]));
        assert!(!EuclidSpace::gathered(&[a, Vec2::new(0.9, 1.2)]));
        assert_eq!(EuclidSpace::extent(&[]), (0.0, 0.0));
    }
}
