//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Var(i as u32)
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// A literal of this variable with the given sign (`true` = positive).
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | negated`, the MiniSat convention, so literals
/// index watch lists directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The literal's variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive (non-negated).
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index (distinct for each polarity), suitable for watch lists.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::index`].
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Lit(i as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "~x{}", self.var().0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrips() {
        let v = Var::from_index(7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        let a = Var::from_index(0);
        let b = Var::from_index(1);
        let idx: Vec<usize> = [a.positive(), a.negative(), b.positive(), b.negative()]
            .iter()
            .map(|l| l.index())
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
        assert_eq!(Lit::from_index(3), b.negative());
    }

    #[test]
    fn display_is_readable() {
        let v = Var::from_index(3);
        assert_eq!(v.positive().to_string(), "x3");
        assert_eq!(v.negative().to_string(), "~x3");
    }
}
