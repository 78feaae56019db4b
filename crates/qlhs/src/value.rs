//! Runtime values and errors for the QL interpreters.

use crate::ast::LoopKind;
use recdb_core::{FuelError, Tuple};
use std::collections::BTreeSet;
use std::fmt;

/// A term value: a finite set of tuples of a common rank. For QLhs the
/// tuples are class representatives from `T_B`; for finitary QL they
/// are ordinary database tuples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Val {
    /// The common rank.
    pub rank: usize,
    /// The tuples.
    pub tuples: BTreeSet<Tuple>,
}

impl Val {
    /// The empty relation of a given rank.
    pub fn empty(rank: usize) -> Self {
        Val {
            rank,
            tuples: BTreeSet::new(),
        }
    }

    /// A value from tuples, checking the common rank.
    ///
    /// # Panics
    /// Panics if a tuple's rank differs.
    pub fn new(rank: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples: BTreeSet<Tuple> = tuples.into_iter().collect();
        for t in &tuples {
            assert_eq!(t.rank(), rank, "value tuples must share the rank");
        }
        Val { rank, tuples }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty? (The `|Y| = 0` test.)
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Does it hold exactly one tuple? (The `|Y| = 1` test.)
    pub fn is_singleton(&self) -> bool {
        self.tuples.len() == 1
    }

    /// Intersection `self ∩ y`; ranks must agree (Fin and Hs share it).
    pub(crate) fn and(&self, y: &Val) -> Result<Val, RunError> {
        same_rank(self.rank, y.rank)?;
        Ok(Val {
            rank: self.rank,
            tuples: self.tuples.intersection(&y.tuples).cloned().collect(),
        })
    }
}

/// What the statement executor and the delta engine need from a
/// backend's value type. `Val` (Fin/Hs) is always finite; `FcfVal`
/// exposes its indicator.
pub trait DeltaValue: Clone {
    /// The value's rank.
    fn rank(&self) -> usize;
    /// Stored size: the tuples the backend materializes for the value
    /// (the finite part, or the stored complement of a co-finite
    /// value). This is the unit the cost pass bounds and the work
    /// meter counts.
    fn size(&self) -> usize;
    /// Is the relation finite?
    fn is_finite(&self) -> bool;
    /// The tuples, if the relation is finite.
    fn finite_tuples(&self) -> Option<&BTreeSet<Tuple>>;
    /// Builds a finite value.
    fn from_tuples(rank: usize, tuples: BTreeSet<Tuple>) -> Self;
    /// The default for unbound variables: the empty rank-0 relation.
    fn empty0() -> Self;
    /// Does the `while` test `kind` hold for this value?
    fn holds(&self, kind: LoopKind) -> bool {
        kind.holds(self.size(), self.is_finite())
    }
}

impl DeltaValue for Val {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.tuples.len()
    }
    fn is_finite(&self) -> bool {
        true
    }
    fn finite_tuples(&self) -> Option<&BTreeSet<Tuple>> {
        Some(&self.tuples)
    }
    fn from_tuples(rank: usize, tuples: BTreeSet<Tuple>) -> Self {
        Val { rank, tuples }
    }
    fn empty0() -> Self {
        Val::empty(0)
    }
}

/// `Err(RankMismatch)` unless the two operands of `∩` agree in rank.
pub(crate) fn same_rank(left: usize, right: usize) -> Result<(), RunError> {
    if left == right {
        Ok(())
    } else {
        Err(RunError::RankMismatch { left, right })
    }
}

/// Every tuple without its first coordinate (the plain `↓`).
pub(crate) fn drop_first(ts: &BTreeSet<Tuple>) -> Result<BTreeSet<Tuple>, RunError> {
    ts.iter()
        .map(|u| {
            u.drop_first()
                .ok_or(RunError::Internal("↓ on a tuple shorter than its rank"))
        })
        .collect()
}

/// Every tuple with its two rightmost coordinates exchanged (the plain
/// `~`).
pub(crate) fn swap_last_two(ts: &BTreeSet<Tuple>) -> Result<BTreeSet<Tuple>, RunError> {
    ts.iter()
        .map(|u| {
            u.swap_last_two()
                .ok_or(RunError::Internal("swap on a tuple shorter than its rank"))
        })
        .collect()
}

/// An interpretation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// `e ∩ f` with different ranks.
    RankMismatch {
        /// Left operand's rank.
        left: usize,
        /// Right operand's rank.
        right: usize,
    },
    /// A term referenced a relation index outside the schema.
    NoSuchRelation(usize),
    /// The construct is not part of the dialect being interpreted
    /// (e.g. `while |Y|=1` under plain QL).
    DialectViolation(&'static str),
    /// The step budget ran out (the program may diverge).
    Fuel(FuelError),
    /// QLf+: `↑` applied to a co-finite (infinite) value.
    UpOnInfinite,
    /// An interpreter invariant failed (e.g. a tuple shorter than its
    /// value's declared rank) — a bug report, not a query error.
    Internal(&'static str),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RankMismatch { left, right } => {
                write!(f, "rank mismatch: {left} vs {right}")
            }
            RunError::NoSuchRelation(i) => write!(f, "no relation R{}", i + 1),
            RunError::DialectViolation(msg) => write!(f, "dialect violation: {msg}"),
            RunError::Fuel(e) => write!(f, "{e}"),
            RunError::UpOnInfinite => write!(f, "up() applied to a co-finite relation"),
            RunError::Internal(msg) => write!(f, "interpreter invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<FuelError> for RunError {
    fn from(e: FuelError) -> Self {
        RunError::Fuel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::tuple;

    #[test]
    fn singleton_and_empty_tests() {
        let v = Val::empty(2);
        assert!(v.is_empty());
        assert!(!v.is_singleton());
        let s = Val::new(1, [tuple![4]]);
        assert!(s.is_singleton());
        let d = Val::new(1, [tuple![4], tuple![5]]);
        assert!(!d.is_singleton() && !d.is_empty());
    }

    #[test]
    #[should_panic(expected = "share the rank")]
    fn mixed_ranks_rejected() {
        Val::new(1, [tuple![1], tuple![1, 2]]);
    }

    #[test]
    fn error_display() {
        let e = RunError::RankMismatch { left: 2, right: 3 };
        assert!(e.to_string().contains("2 vs 3"));
        assert!(RunError::NoSuchRelation(0).to_string().contains("R1"));
    }
}
