//! Axes of the grid.
//!
//! The robots have no compass: an axis names *our* description of a
//! configuration (the paper uses directions the same way, "to be
//! understood in a mirrored or rotated manner"). The algorithm only asks
//! whether two unit steps lie on the same axis.

use crate::point::Offset;

/// The two grid axes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    X,
    Y,
}

impl Axis {
    /// The axis a unit step lies on. Panics (debug) on non-unit steps.
    #[inline]
    pub fn of_step(step: Offset) -> Axis {
        debug_assert!(step.is_unit_step(), "axis of non-unit step {step:?}");
        if step.dy == 0 {
            Axis::X
        } else {
            Axis::Y
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_of_step() {
        assert_eq!(Axis::of_step(Offset::RIGHT), Axis::X);
        assert_eq!(Axis::of_step(Offset::LEFT), Axis::X);
        assert_eq!(Axis::of_step(Offset::UP), Axis::Y);
        assert_eq!(Axis::of_step(Offset::DOWN), Axis::Y);
    }
}
