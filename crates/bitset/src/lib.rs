//! Compressed bitmaps for ad-audience arithmetic.
//!
//! Every audience in the simulated advertising platforms is a set of user
//! ids (`u32`). The audit pipeline continuously intersects, unions, and
//! counts such sets — e.g. `|TA ∩ RAₛ|` in the representation-ratio metric —
//! so the set representation is the hottest data structure in the workspace.
//!
//! [`Bitset`] is a two-level, chunked bitmap in the spirit of Roaring
//! bitmaps: the 32-bit key space is split into 2¹⁶ chunks of 2¹⁶ values,
//! and every non-empty chunk stores its low 16 bits in one of three
//! container layouts:
//!
//! * **Array** — a sorted `Vec<u16>` for sparse chunks (≤ 4096 values),
//! * **Bitmap** — a fixed 8 KiB bit array for dense chunks,
//! * **Run** — sorted, coalesced intervals for heavily clustered chunks
//!   (produced only by explicit [`Bitset::run_optimize`]).
//!
//! The representation is *canonical* after every operation (arrays never
//! exceed 4096 entries, bitmaps never fall below 4097, adjacent runs are
//! coalesced), which makes `Eq` structural and keeps memory predictable.
//!
//! # Example
//!
//! ```
//! use adcomp_bitset::Bitset;
//!
//! let interested_in_cars: Bitset = (0..10_000).filter(|u| u % 3 == 0).collect();
//! let interested_in_ee: Bitset = (0..10_000).filter(|u| u % 5 == 0).collect();
//!
//! // AND-composition of the two targeting attributes.
//! let both = interested_in_cars.and(&interested_in_ee);
//! assert_eq!(both.len(), interested_in_cars.intersection_len(&interested_in_ee));
//! assert!(both.contains(15) && !both.contains(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
mod iter;
mod ops;
mod serialize;

pub use iter::Iter;
pub use serialize::{DecodeError, FORMAT_VERSION};

use container::Container;

/// A compressed set of `u32` values.
///
/// See the [crate docs](crate) for the representation. All binary set
/// operations allocate a new `Bitset`; the counting variants
/// ([`intersection_len`](Bitset::intersection_len) etc.) avoid
/// materialising the result and should be preferred when only a size is
/// needed. Audience size estimation counts through the k-way kernel
/// [`and_not_len`](Bitset::and_not_len), which sizes a whole
/// AND-with-exclusions in one pass without allocating a result.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bitset {
    /// Sorted by key; no empty containers.
    chunks: Vec<(u16, Container)>,
}

#[inline]
fn split(value: u32) -> (u16, u16) {
    ((value >> 16) as u16, value as u16)
}

#[inline]
fn join(key: u16, low: u16) -> u32 {
    ((key as u32) << 16) | low as u32
}

impl Bitset {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from an iterator of strictly increasing values.
    ///
    /// This is the fastest way to construct a set and is used by the
    /// population generator when materialising attribute audiences.
    ///
    /// # Panics
    ///
    /// Panics if the values are not strictly increasing.
    pub fn from_sorted_iter<I: IntoIterator<Item = u32>>(values: I) -> Self {
        let mut set = Self::new();
        let mut last: Option<u32> = None;
        let mut key: Option<u16> = None;
        let mut pending: Vec<u16> = Vec::new();
        for v in values {
            if let Some(prev) = last {
                assert!(
                    v > prev,
                    "from_sorted_iter: values must be strictly increasing"
                );
            }
            last = Some(v);
            let (hi, lo) = split(v);
            match key {
                Some(k) if k == hi => pending.push(lo),
                Some(k) => {
                    set.chunks.push((k, Container::from_sorted_slice(&pending)));
                    pending.clear();
                    pending.push(lo);
                    key = Some(hi);
                }
                None => {
                    pending.push(lo);
                    key = Some(hi);
                }
            }
        }
        if let Some(k) = key {
            set.chunks.push((k, Container::from_sorted_slice(&pending)));
        }
        set
    }

    /// Number of values in the set.
    pub fn len(&self) -> u64 {
        self.chunks.iter().map(|(_, c)| c.len() as u64).sum()
    }

    /// Returns `true` when the set contains no values.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Inserts `value`, returning `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(idx) => self.chunks[idx].1.insert(low),
            Err(idx) => {
                self.chunks.insert(idx, (key, Container::singleton(low)));
                true
            }
        }
    }

    /// Removes `value`, returning `true` if it was present.
    pub fn remove(&mut self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(idx) => {
                let removed = self.chunks[idx].1.remove(low);
                if self.chunks[idx].1.is_empty() {
                    self.chunks.remove(idx);
                }
                removed
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, value: u32) -> bool {
        let (key, low) = split(value);
        match self.chunks.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(idx) => self.chunks[idx].1.contains(low),
            Err(_) => false,
        }
    }

    /// Smallest value, if any.
    pub fn min(&self) -> Option<u32> {
        self.chunks
            .first()
            .map(|(k, c)| join(*k, c.min().expect("non-empty container")))
    }

    /// Largest value, if any.
    pub fn max(&self) -> Option<u32> {
        self.chunks
            .last()
            .map(|(k, c)| join(*k, c.max().expect("non-empty container")))
    }

    /// Number of values `<= value` (1-based rank).
    pub fn rank(&self, value: u32) -> u64 {
        let (key, low) = split(value);
        let mut rank = 0u64;
        for (k, c) in &self.chunks {
            if *k < key {
                rank += c.len() as u64;
            } else if *k == key {
                rank += c.rank(low) as u64;
                break;
            } else {
                break;
            }
        }
        rank
    }

    /// The `n`-th smallest value (0-based), if `n < len`.
    pub fn select(&self, mut n: u64) -> Option<u32> {
        for (k, c) in &self.chunks {
            let clen = c.len() as u64;
            if n < clen {
                return Some(join(*k, c.select(n as u32)));
            }
            n -= clen;
        }
        None
    }

    /// Iterates over the values in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.chunks)
    }

    /// Set intersection (`self ∧ other`).
    pub fn and(&self, other: &Bitset) -> Bitset {
        ops::binary(self, other, ops::Op::And)
    }

    /// Set union (`self ∨ other`).
    pub fn or(&self, other: &Bitset) -> Bitset {
        ops::binary(self, other, ops::Op::Or)
    }

    /// Set difference (`self ∧ ¬other`). This is how the audit models
    /// *exclusion* targeting ("exclude users with attribute X").
    pub fn and_not(&self, other: &Bitset) -> Bitset {
        ops::binary(self, other, ops::Op::AndNot)
    }

    /// Symmetric difference.
    pub fn xor(&self, other: &Bitset) -> Bitset {
        ops::binary(self, other, ops::Op::Xor)
    }

    /// `|self ∧ other|` without materialising the intersection.
    pub fn intersection_len(&self, other: &Bitset) -> u64 {
        ops::intersection_len(self, other)
    }

    /// `|self ∧ o|` for every `o` in `others`, in order: the counting
    /// kernel for many sets against one lead.
    ///
    /// Each chunk of `self` that some other set shares is read as an
    /// 8 KiB bitmap once per call, and every other set's chunk is counted
    /// against it by bit tests (arrays) or AND-popcount (bitmaps, and
    /// runs expanded to bitmaps), with no merge.
    ///
    /// ```
    /// use adcomp_bitset::Bitset;
    ///
    /// let lead: Bitset = (0..1000).collect();
    /// let evens: Bitset = (0..2000).step_by(2).collect();
    /// let far: Bitset = (1 << 20..(1 << 20) + 10).collect();
    /// assert_eq!(lead.intersection_lens(&[&evens, &far, &lead]), [500, 0, 1000]);
    /// ```
    pub fn intersection_lens(&self, others: &[&Bitset]) -> Vec<u64> {
        ops::intersection_lens(self, others)
    }

    /// `|∧include ∧ ¬∨exclude|` without materialising anything: the
    /// k-way AND-count kernel behind every reach estimate.
    ///
    /// One merge walks the chunks of all operands; per chunk it counts
    /// with word loops when every include is a bitmap, or a branchless
    /// merge of the two smallest arrays whose matches are tested against
    /// the other operands. Nothing is allocated per chunk. A two-set AND
    /// is [`intersection_len`](Bitset::intersection_len).
    ///
    /// # Panics
    ///
    /// Panics if `include` is empty: the AND of no sets is unbounded.
    ///
    /// ```
    /// use adcomp_bitset::Bitset;
    ///
    /// let a: Bitset = (0..1000).collect();
    /// let b: Bitset = (0..1000).step_by(2).collect();
    /// let c: Bitset = (0..1000).step_by(3).collect();
    /// let e: Bitset = (0..100).collect();
    /// // Multiples of 6 in 100..1000.
    /// assert_eq!(Bitset::and_not_len(&[&a, &b, &c], &[&e]), 150);
    /// ```
    pub fn and_not_len(include: &[&Bitset], exclude: &[&Bitset]) -> u64 {
        ops::and_not_len(include, exclude)
    }

    /// `|self ∨ other|` without materialising the union.
    pub fn union_len(&self, other: &Bitset) -> u64 {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// `|self ∧ ¬other|` without materialising the difference.
    pub fn difference_len(&self, other: &Bitset) -> u64 {
        self.len() - self.intersection_len(other)
    }

    /// Returns `true` if the sets share no value.
    pub fn is_disjoint(&self, other: &Bitset) -> bool {
        ops::is_disjoint(self, other)
    }

    /// Returns `true` if every value of `self` is in `other`.
    pub fn is_subset(&self, other: &Bitset) -> bool {
        self.intersection_len(other) == self.len()
    }

    /// Converts clustered containers to run encoding where that is smaller.
    ///
    /// Run containers are read-optimised: any subsequent mutation of a
    /// chunk converts it back to a dense layout first.
    pub fn run_optimize(&mut self) {
        for (_, c) in &mut self.chunks {
            c.run_optimize();
        }
    }

    /// Approximate heap footprint in bytes (containers only).
    pub fn memory_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|(_, c)| 2 + c.memory_bytes())
            .sum::<usize>()
            + self.chunks.capacity() * std::mem::size_of::<(u16, Container)>()
    }

    /// Number of internal chunk containers (diagnostics/benchmarks).
    pub fn container_count(&self) -> usize {
        self.chunks.len()
    }

    pub(crate) fn chunks(&self) -> &[(u16, Container)] {
        &self.chunks
    }

    pub(crate) fn push_chunk(&mut self, key: u16, container: Container) {
        debug_assert!(self.chunks.last().is_none_or(|(k, _)| *k < key));
        debug_assert!(!container.is_empty());
        self.chunks.push((key, container));
    }
}

impl std::fmt::Debug for Bitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.len();
        write!(f, "Bitset(len={len}")?;
        if len <= 16 {
            write!(f, ", values=")?;
            f.debug_set().entries(self.iter()).finish()?;
        }
        write!(f, ")")
    }
}

impl FromIterator<u32> for Bitset {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut values: Vec<u32> = iter.into_iter().collect();
        values.sort_unstable();
        values.dedup();
        Bitset::from_sorted_iter(values)
    }
}

impl Extend<u32> for Bitset {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a Bitset {
    type Item = u32;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_basics() {
        let s = Bitset::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.select(0), None);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Bitset::new();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.contains(42));
        assert!(s.insert(1 << 20));
        assert_eq!(s.len(), 2);
        assert!(s.remove(42));
        assert!(!s.remove(42));
        assert!(!s.contains(42));
        assert_eq!(s.len(), 1);
        assert_eq!(s.container_count(), 1, "empty chunk must be dropped");
    }

    #[test]
    fn from_sorted_iter_matches_inserts() {
        let values = [0u32, 1, 2, 65_535, 65_536, 65_537, 1 << 30, u32::MAX];
        let a = Bitset::from_sorted_iter(values.iter().copied());
        let mut b = Bitset::new();
        for v in values {
            b.insert(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_iter_rejects_duplicates() {
        let _ = Bitset::from_sorted_iter([1, 1]);
    }

    #[test]
    fn array_to_bitmap_promotion_and_back() {
        // Fill a single chunk past the array limit.
        let s: Bitset = (0u32..5000).collect();
        assert_eq!(s.len(), 5000);
        assert_eq!(s.container_count(), 1);
        // Removing back below the threshold keeps correctness (representation
        // may stay bitmap; equality is canonical so compare against rebuilt).
        let mut t = s.clone();
        for v in 4096..5000 {
            assert!(t.remove(v));
        }
        let expect: Bitset = (0u32..4096).collect();
        assert_eq!(t.len(), 4096);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            expect.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn rank_and_select_are_inverse() {
        let s: Bitset = (0..100_000u32).filter(|v| v % 7 == 0).collect();
        for n in [0u64, 1, 100, 2000, s.len() - 1] {
            let v = s.select(n).unwrap();
            assert_eq!(s.rank(v), n + 1, "rank(select(n)) == n+1 for n={n}");
        }
        assert_eq!(s.select(s.len()), None);
        assert_eq!(s.rank(u32::MAX), s.len());
        assert_eq!(s.rank(0), 1); // 0 is a member (0 % 7 == 0).
    }

    #[test]
    fn binary_ops_small() {
        let a: Bitset = [1u32, 2, 3, 100_000, 200_000].into_iter().collect();
        let b: Bitset = [2u32, 3, 4, 200_000, 300_000].into_iter().collect();
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![2, 3, 200_000]);
        assert_eq!(
            a.or(&b).iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 100_000, 200_000, 300_000]
        );
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![1, 100_000]);
        assert_eq!(
            a.xor(&b).iter().collect::<Vec<_>>(),
            vec![1, 4, 100_000, 300_000]
        );
        assert_eq!(a.intersection_len(&b), 3);
        assert_eq!(a.union_len(&b), 7);
        assert_eq!(a.difference_len(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.and(&b).is_subset(&a));
    }

    #[test]
    fn run_optimize_preserves_contents_and_shrinks() {
        let mut s: Bitset = (0..60_000u32).collect();
        let dense_bytes = s.memory_bytes();
        let before: Vec<u32> = s.iter().collect();
        s.run_optimize();
        assert!(
            s.memory_bytes() < dense_bytes,
            "one long run must be smaller"
        );
        assert_eq!(s.iter().collect::<Vec<_>>(), before);
        assert_eq!(s.len(), 60_000);
        assert!(s.contains(59_999) && !s.contains(60_000));
        // Mutation after run-encoding still works.
        assert!(s.insert(70_000));
        assert!(s.remove(0));
        assert_eq!(s.len(), 60_000);
    }

    #[test]
    fn debug_format_small_and_large() {
        let s: Bitset = [1u32, 2].into_iter().collect();
        let d = format!("{s:?}");
        assert!(d.contains("len=2") && d.contains('1') && d.contains('2'));
        let big: Bitset = (0..100u32).collect();
        assert!(format!("{big:?}").contains("len=100"));
    }

    #[test]
    fn extend_and_from_iterator_dedupe() {
        let mut s: Bitset = [5u32, 5, 1, 3].into_iter().collect();
        assert_eq!(s.len(), 3);
        s.extend([3u32, 7]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
    }
}
