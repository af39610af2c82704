//! Compact per-task label answer vectors.

use std::fmt;

/// A fixed-length vector of binary label verdicts, bit-packed into a `u64`.
///
/// Each POI labelling task presents `|L_t|` candidate labels; a worker's
/// answer (and the ground truth, and the inferred result) is one bit per
/// label — `1` = "this label applies to the POI". The paper uses
/// `|L_t| = 10`; we support up to [`LabelBits::MAX_LABELS`].
///
/// Bit `k` corresponds to label `l_{t,k}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LabelBits {
    bits: u64,
    len: u8,
}

impl LabelBits {
    /// Maximum number of labels a single task may carry.
    pub const MAX_LABELS: usize = 64;

    /// An all-zero ("no label applies") vector of length `len`.
    ///
    /// # Panics
    /// Panics if `len > MAX_LABELS`.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        assert!(
            len <= Self::MAX_LABELS,
            "at most {} labels per task, got {len}",
            Self::MAX_LABELS
        );
        Self {
            bits: 0,
            len: len as u8,
        }
    }

    /// Builds a vector from a slice of booleans.
    ///
    /// # Panics
    /// Panics if the slice is longer than `MAX_LABELS`.
    #[must_use]
    pub fn from_slice(values: &[bool]) -> Self {
        let mut out = Self::zeros(values.len());
        for (k, &v) in values.iter().enumerate() {
            out.set(k, v);
        }
        out
    }

    /// Builds a vector of length `len` with the listed positions set.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    #[must_use]
    pub fn from_positions(len: usize, positions: &[usize]) -> Self {
        let mut out = Self::zeros(len);
        for &k in positions {
            out.set(k, true);
        }
        out
    }

    /// Number of labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when the task carries no labels (degenerate but permitted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The verdict for label `k`.
    ///
    /// # Panics
    /// Panics if `k >= len()`.
    #[must_use]
    pub fn get(&self, k: usize) -> bool {
        assert!(
            k < self.len(),
            "label index {k} out of range 0..{}",
            self.len()
        );
        (self.bits >> k) & 1 == 1
    }

    /// Sets the verdict for label `k`.
    ///
    /// # Panics
    /// Panics if `k >= len()`.
    pub fn set(&mut self, k: usize, value: bool) {
        assert!(
            k < self.len(),
            "label index {k} out of range 0..{}",
            self.len()
        );
        if value {
            self.bits |= 1 << k;
        } else {
            self.bits &= !(1 << k);
        }
    }

    /// Number of positive verdicts.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Number of positions where `self` and `other` agree.
    ///
    /// # Panics
    /// Panics if lengths differ.
    #[must_use]
    pub fn agreement(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "cannot compare different label counts");
        let mask = if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        };
        (!(self.bits ^ other.bits) & mask).count_ones() as usize
    }

    /// The verdicts as one word: bit `k` is label `k`'s verdict, and the
    /// bits from `len()` up are zero.
    pub(crate) fn word(&self) -> u64 {
        self.bits
    }

    /// Iterates over the verdicts in label order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(move |k| (self.bits >> k) & 1 == 1)
    }

    /// Collects into a `Vec<bool>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl fmt::Display for LabelBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, b) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", u8::from(b))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_ones() {
        let b = LabelBits::zeros(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.count_ones(), 0);
        assert!(b.iter().all(|v| !v));
    }

    #[test]
    fn set_get_round_trip() {
        let mut b = LabelBits::zeros(10);
        b.set(0, true);
        b.set(9, true);
        b.set(0, false);
        assert!(!b.get(0));
        assert!(b.get(9));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn from_slice_and_to_vec_round_trip() {
        let v = vec![true, false, true, true, false];
        let b = LabelBits::from_slice(&v);
        assert_eq!(b.to_vec(), v);
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn from_positions_sets_exactly_those() {
        let b = LabelBits::from_positions(10, &[1, 2, 5]);
        assert_eq!(b.count_ones(), 3);
        assert!(b.get(1) && b.get(2) && b.get(5));
        assert!(!b.get(0) && !b.get(9));
    }

    #[test]
    fn agreement_counts_matching_positions() {
        let a = LabelBits::from_slice(&[true, true, false, false]);
        let b = LabelBits::from_slice(&[true, false, false, true]);
        // positions 0 and 2 agree.
        assert_eq!(a.agreement(&b), 2);
        assert_eq!(a.agreement(&a), 4);
    }

    #[test]
    fn agreement_full_width_mask() {
        let a = LabelBits::zeros(64);
        let mut b = LabelBits::zeros(64);
        b.set(63, true);
        assert_eq!(a.agreement(&b), 63);
    }

    #[test]
    fn empty_vector_is_permitted() {
        let b = LabelBits::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.agreement(&b), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 labels")]
    fn too_many_labels_rejected() {
        let _ = LabelBits::zeros(65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = LabelBits::zeros(3).get(3);
    }

    #[test]
    #[should_panic(expected = "different label counts")]
    fn agreement_length_mismatch_panics() {
        let _ = LabelBits::zeros(3).agreement(&LabelBits::zeros(4));
    }

    #[test]
    fn display_matches_paper_notation() {
        let b = LabelBits::from_slice(&[true, true, false]);
        assert_eq!(b.to_string(), "[1,1,0]");
    }
}
