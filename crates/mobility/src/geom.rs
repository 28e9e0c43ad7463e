//! Planar geometry over the mobility square.

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dg_mobility::Point;
    /// let a = Point::new(0.0, 0.0);
    /// let b = Point::new(3.0, 4.0);
    /// assert_eq!(a.distance(b), 5.0);
    /// ```
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in hot loops).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Clamps the point into the square `[0, side]²`.
    pub fn clamped(self, side: f64) -> Point {
        Point {
            x: self.x.clamp(0.0, side),
            y: self.y.clamp(0.0, side),
        }
    }

    /// Moves `step` units from `self` toward `target`, stopping exactly at
    /// the target if it is closer than `step`. Returns the new point and
    /// whether the target was reached.
    pub fn advance_toward(self, target: Point, step: f64) -> (Point, bool) {
        let d = self.distance(target);
        if d <= step {
            return (target, true);
        }
        let frac = step / d;
        (
            Point {
                x: self.x + (target.x - self.x) * frac,
                y: self.y + (target.y - self.y) * frac,
            },
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = Point::new(1.0, 1.0);
        assert_eq!(a.distance(a), 0.0);
        assert_eq!(a.distance_sq(Point::new(4.0, 5.0)), 25.0);
        // Symmetry.
        let b = Point::new(-2.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn clamp() {
        let p = Point::new(-1.0, 11.0).clamped(10.0);
        assert_eq!(p, Point::new(0.0, 10.0));
    }

    #[test]
    fn advance_partial_and_arrival() {
        let a = Point::new(0.0, 0.0);
        let t = Point::new(10.0, 0.0);
        let (p, arrived) = a.advance_toward(t, 4.0);
        assert!(!arrived);
        assert!((p.x - 4.0).abs() < 1e-12);
        let (p, arrived) = p.advance_toward(t, 100.0);
        assert!(arrived);
        assert_eq!(p, t);
    }

    #[test]
    fn advance_zero_distance_target() {
        let a = Point::new(3.0, 3.0);
        let (p, arrived) = a.advance_toward(a, 1.0);
        assert!(arrived);
        assert_eq!(p, a);
    }
}
