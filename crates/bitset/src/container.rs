//! Chunk containers: the low-16-bit sets stored per 65 536-value chunk.
//!
//! Canonical form invariants (upheld by every constructor and mutation):
//!
//! * `Array` holds 1..=4096 sorted, distinct values.
//! * `Bitmap` holds 4097..=65536 values; `len` caches the population count.
//! * `Run` holds sorted, non-overlapping, non-adjacent inclusive intervals
//!   and only exists after an explicit `run_optimize` call; mutations
//!   convert back to a dense layout first.

/// Maximum cardinality stored as a sorted array.
pub(crate) const ARRAY_MAX: usize = 4096;
/// Number of `u64` words in a bitmap container.
pub(crate) const BITMAP_WORDS: usize = 1024;

/// An inclusive interval of `u16` values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interval {
    pub start: u16,
    pub end: u16,
}

impl Interval {
    #[inline]
    pub fn len(self) -> u32 {
        self.end as u32 - self.start as u32 + 1
    }
}

#[derive(Clone)]
pub(crate) enum Container {
    /// Sorted distinct values; ≤ [`ARRAY_MAX`] entries.
    Array(Vec<u16>),
    /// Fixed bit array with cached population count; > [`ARRAY_MAX`] entries.
    Bitmap {
        /// 65 536 bits.
        bits: Box<[u64; BITMAP_WORDS]>,
        /// Cached cardinality.
        len: u32,
    },
    /// Sorted, coalesced inclusive intervals (read-optimised encoding).
    Run(Vec<Interval>),
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Container::Array(v) => write!(f, "Array(len={})", v.len()),
            Container::Bitmap { len, .. } => write!(f, "Bitmap(len={len})"),
            Container::Run(runs) => write!(f, "Run(runs={}, len={})", runs.len(), self.len()),
        }
    }
}

impl PartialEq for Container {
    fn eq(&self, other: &Self) -> bool {
        // Equality is semantic: Run containers are an opt-in re-encoding, so
        // compare by contents rather than layout.
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.iter_values();
        let mut b = other.iter_values();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (x, y) if x == y => continue,
                _ => return false,
            }
        }
    }
}

impl Eq for Container {}

impl Container {
    /// A container holding exactly one value.
    pub fn singleton(value: u16) -> Self {
        Container::Array(vec![value])
    }

    /// Builds a canonical container from sorted distinct values.
    pub fn from_sorted_slice(values: &[u16]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(!values.is_empty());
        if values.len() <= ARRAY_MAX {
            Container::Array(values.to_vec())
        } else {
            let mut bits = Box::new([0u64; BITMAP_WORDS]);
            for &v in values {
                bits[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
            Container::Bitmap {
                bits,
                len: values.len() as u32,
            }
        }
    }

    /// Builds a canonical container from a bitmap with known cardinality.
    pub fn from_bitmap(bits: Box<[u64; BITMAP_WORDS]>, len: u32) -> Self {
        debug_assert_eq!(
            len as usize,
            bits.iter().map(|w| w.count_ones() as usize).sum::<usize>()
        );
        if len as usize <= ARRAY_MAX {
            let mut values = Vec::with_capacity(len as usize);
            for (word_idx, &word) in bits.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let bit = w.trailing_zeros();
                    values.push(((word_idx as u32) << 6 | bit) as u16);
                    w &= w - 1;
                }
            }
            Container::Array(values)
        } else {
            Container::Bitmap { bits, len }
        }
    }

    pub fn len(&self) -> u32 {
        match self {
            Container::Array(values) => values.len() as u32,
            Container::Bitmap { len, .. } => *len,
            Container::Run(runs) => runs.iter().map(|r| r.len()).sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        match self {
            Container::Array(values) => values.is_empty(),
            Container::Bitmap { len, .. } => *len == 0,
            Container::Run(runs) => runs.is_empty(),
        }
    }

    pub fn contains(&self, value: u16) -> bool {
        match self {
            Container::Array(values) => values.binary_search(&value).is_ok(),
            Container::Bitmap { bits, .. } => {
                bits[(value >> 6) as usize] & (1u64 << (value & 63)) != 0
            }
            Container::Run(runs) => runs
                .binary_search_by(|r| {
                    if r.end < value {
                        std::cmp::Ordering::Less
                    } else if r.start > value {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Inserts `value`; converts to a dense layout when needed.
    pub fn insert(&mut self, value: u16) -> bool {
        self.undo_runs();
        match self {
            Container::Array(values) => match values.binary_search(&value) {
                Ok(_) => false,
                Err(idx) => {
                    values.insert(idx, value);
                    if values.len() > ARRAY_MAX {
                        *self = Container::from_sorted_slice(&std::mem::take(values));
                    }
                    true
                }
            },
            Container::Bitmap { bits, len } => {
                let word = &mut bits[(value >> 6) as usize];
                let mask = 1u64 << (value & 63);
                if *word & mask != 0 {
                    false
                } else {
                    *word |= mask;
                    *len += 1;
                    true
                }
            }
            Container::Run(_) => unreachable!("undo_runs converted runs away"),
        }
    }

    /// Removes `value`; demotes bitmap to array at the threshold.
    pub fn remove(&mut self, value: u16) -> bool {
        self.undo_runs();
        match self {
            Container::Array(values) => match values.binary_search(&value) {
                Ok(idx) => {
                    values.remove(idx);
                    true
                }
                Err(_) => false,
            },
            Container::Bitmap { bits, len } => {
                let word = &mut bits[(value >> 6) as usize];
                let mask = 1u64 << (value & 63);
                if *word & mask == 0 {
                    false
                } else {
                    *word &= !mask;
                    *len -= 1;
                    if (*len as usize) <= ARRAY_MAX {
                        let bits = std::mem::replace(bits, Box::new([0u64; BITMAP_WORDS]));
                        let len = *len;
                        *self = Container::from_bitmap(bits, len);
                    }
                    true
                }
            }
            Container::Run(_) => unreachable!("undo_runs converted runs away"),
        }
    }

    pub fn min(&self) -> Option<u16> {
        match self {
            Container::Array(values) => values.first().copied(),
            Container::Bitmap { bits, .. } => {
                for (i, &w) in bits.iter().enumerate() {
                    if w != 0 {
                        return Some(((i as u32) << 6 | w.trailing_zeros()) as u16);
                    }
                }
                None
            }
            Container::Run(runs) => runs.first().map(|r| r.start),
        }
    }

    pub fn max(&self) -> Option<u16> {
        match self {
            Container::Array(values) => values.last().copied(),
            Container::Bitmap { bits, .. } => {
                for (i, &w) in bits.iter().enumerate().rev() {
                    if w != 0 {
                        return Some(((i as u32) << 6 | (63 - w.leading_zeros())) as u16);
                    }
                }
                None
            }
            Container::Run(runs) => runs.last().map(|r| r.end),
        }
    }

    /// Number of values `<= value` within this container.
    pub fn rank(&self, value: u16) -> u32 {
        match self {
            Container::Array(values) => match values.binary_search(&value) {
                Ok(idx) => idx as u32 + 1,
                Err(idx) => idx as u32,
            },
            Container::Bitmap { bits, .. } => {
                let word_idx = (value >> 6) as usize;
                let mut rank: u32 = bits[..word_idx].iter().map(|w| w.count_ones()).sum();
                let within = value & 63;
                // Mask keeps bits [0, within] of the boundary word.
                let mask = if within == 63 {
                    u64::MAX
                } else {
                    (1u64 << (within + 1)) - 1
                };
                rank += (bits[word_idx] & mask).count_ones();
                rank
            }
            Container::Run(runs) => {
                let mut rank = 0u32;
                for r in runs {
                    if r.end <= value {
                        rank += r.len();
                    } else if r.start <= value {
                        rank += value as u32 - r.start as u32 + 1;
                        break;
                    } else {
                        break;
                    }
                }
                rank
            }
        }
    }

    /// The `n`-th smallest value (0-based). Caller guarantees `n < len`.
    pub fn select(&self, mut n: u32) -> u16 {
        match self {
            Container::Array(values) => values[n as usize],
            Container::Bitmap { bits, .. } => {
                for (word_idx, &word) in bits.iter().enumerate() {
                    let ones = word.count_ones();
                    if n < ones {
                        let mut w = word;
                        for _ in 0..n {
                            w &= w - 1;
                        }
                        return ((word_idx as u32) << 6 | w.trailing_zeros()) as u16;
                    }
                    n -= ones;
                }
                unreachable!("select index out of bounds")
            }
            Container::Run(runs) => {
                for r in runs {
                    let rl = r.len();
                    if n < rl {
                        return (r.start as u32 + n) as u16;
                    }
                    n -= rl;
                }
                unreachable!("select index out of bounds")
            }
        }
    }

    /// Re-encodes as runs when that is strictly smaller.
    pub fn run_optimize(&mut self) {
        if matches!(self, Container::Run(_)) {
            return;
        }
        let mut runs: Vec<Interval> = Vec::new();
        for v in self.iter_values() {
            match runs.last_mut() {
                Some(last) if last.end as u32 + 1 == v as u32 => last.end = v,
                _ => runs.push(Interval { start: v, end: v }),
            }
        }
        let run_bytes = runs.len() * std::mem::size_of::<Interval>();
        if run_bytes < self.memory_bytes() {
            *self = Container::Run(runs);
        }
    }

    /// Converts a run container back to canonical dense form.
    pub fn undo_runs(&mut self) {
        if let Container::Run(runs) = self {
            let len: u32 = runs.iter().map(|r| r.len()).sum();
            if len as usize <= ARRAY_MAX {
                let mut values = Vec::with_capacity(len as usize);
                for r in runs.iter() {
                    values.extend(r.start..=r.end);
                }
                *self = Container::Array(values);
            } else {
                let mut bits = Box::new([0u64; BITMAP_WORDS]);
                for r in runs.iter() {
                    set_range(&mut bits, r.start, r.end);
                }
                *self = Container::Bitmap { bits, len };
            }
        }
    }

    /// A dense (array-or-bitmap) copy for the operation kernels.
    pub fn to_dense(&self) -> std::borrow::Cow<'_, Container> {
        match self {
            Container::Run(_) => {
                let mut c = self.clone();
                c.undo_runs();
                std::borrow::Cow::Owned(c)
            }
            _ => std::borrow::Cow::Borrowed(self),
        }
    }

    pub fn memory_bytes(&self) -> usize {
        match self {
            Container::Array(values) => values.capacity() * 2,
            Container::Bitmap { .. } => BITMAP_WORDS * 8,
            Container::Run(runs) => runs.capacity() * std::mem::size_of::<Interval>(),
        }
    }

    /// Iterates the contained values in increasing order.
    pub fn iter_values(&self) -> ContainerIter<'_> {
        ContainerIter::new(self)
    }
}

/// Sets bits `[start, end]` (inclusive) with whole-word fills.
///
/// Long runs dominate `undo_runs` on run-encoded audiences (the
/// `everyone` audience is one 65 536-value run per chunk), so interior
/// words are written as `u64::MAX` instead of bit-by-bit.
pub(crate) fn set_range(bits: &mut [u64; BITMAP_WORDS], start: u16, end: u16) {
    let (sw, ew) = ((start >> 6) as usize, (end >> 6) as usize);
    let head = u64::MAX << (start & 63);
    // Mask keeping bits [0, end % 64] of the last word.
    let tail = u64::MAX >> (63 - (end & 63));
    if sw == ew {
        bits[sw] |= head & tail;
        return;
    }
    bits[sw] |= head;
    for w in &mut bits[sw + 1..ew] {
        *w = u64::MAX;
    }
    bits[ew] |= tail;
}

/// Iterator over one container's values.
pub(crate) enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitmap {
        bits: &'a [u64; BITMAP_WORDS],
        word_idx: usize,
        word: u64,
    },
    Run {
        runs: std::slice::Iter<'a, Interval>,
        current: Option<(u32, u32)>,
    },
}

impl<'a> ContainerIter<'a> {
    fn new(container: &'a Container) -> Self {
        match container {
            Container::Array(values) => ContainerIter::Array(values.iter()),
            Container::Bitmap { bits, .. } => ContainerIter::Bitmap {
                bits,
                word_idx: 0,
                word: bits[0],
            },
            Container::Run(runs) => ContainerIter::Run {
                runs: runs.iter(),
                current: None,
            },
        }
    }
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(iter) => iter.next().copied(),
            ContainerIter::Bitmap {
                bits,
                word_idx,
                word,
            } => loop {
                if *word != 0 {
                    let bit = word.trailing_zeros();
                    *word &= *word - 1;
                    return Some(((*word_idx as u32) << 6 | bit) as u16);
                }
                *word_idx += 1;
                if *word_idx >= BITMAP_WORDS {
                    return None;
                }
                *word = bits[*word_idx];
            },
            ContainerIter::Run { runs, current } => loop {
                if let Some((next, end)) = current {
                    if *next <= *end {
                        let v = *next as u16;
                        *next += 1;
                        return Some(v);
                    }
                    *current = None;
                }
                let r = runs.next()?;
                *current = Some((r.start as u32, r.end as u32));
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(values: &[u16]) -> Container {
        Container::from_sorted_slice(values)
    }

    #[test]
    fn array_bitmap_boundary() {
        let small: Vec<u16> = (0..ARRAY_MAX as u16).collect();
        assert!(matches!(dense(&small), Container::Array(_)));
        let big: Vec<u16> = (0..=ARRAY_MAX as u16).collect();
        assert!(matches!(dense(&big), Container::Bitmap { .. }));
    }

    #[test]
    fn from_bitmap_demotes_sparse() {
        let mut bits = Box::new([0u64; BITMAP_WORDS]);
        bits[0] = 0b1011;
        let c = Container::from_bitmap(bits, 3);
        assert!(matches!(c, Container::Array(_)));
        assert_eq!(c.iter_values().collect::<Vec<_>>(), vec![0, 1, 3]);
    }

    #[test]
    fn bitmap_rank_select_edges() {
        let values: Vec<u16> = (0..=u16::MAX).step_by(3).collect();
        let c = dense(&values);
        assert!(matches!(c, Container::Bitmap { .. }));
        assert_eq!(c.rank(0), 1);
        assert_eq!(c.rank(2), 1);
        assert_eq!(c.rank(3), 2);
        assert_eq!(c.rank(u16::MAX), values.len() as u32);
        for n in [0u32, 1, 1000, values.len() as u32 - 1] {
            assert_eq!(c.select(n), values[n as usize]);
        }
        // Boundary word mask when value % 64 == 63.
        assert_eq!(c.rank(63), 22);
    }

    #[test]
    fn run_iteration_and_rank() {
        let mut c = dense(&(100..200).chain(500..600).collect::<Vec<u16>>());
        c.run_optimize();
        assert!(matches!(c, Container::Run(ref r) if r.len() == 2));
        assert_eq!(c.len(), 200);
        assert_eq!(c.min(), Some(100));
        assert_eq!(c.max(), Some(599));
        assert!(c.contains(150) && !c.contains(300));
        assert_eq!(c.rank(99), 0);
        assert_eq!(c.rank(150), 51);
        assert_eq!(c.rank(450), 100);
        assert_eq!(c.select(0), 100);
        assert_eq!(c.select(100), 500);
        assert_eq!(c.iter_values().count(), 200);
    }

    #[test]
    fn run_optimize_keeps_dense_when_fragmented() {
        // Alternating values: runs would be 2 bytes/value * 2 = same as array
        // values * 2... every value its own run => 4 bytes per value > 2.
        let values: Vec<u16> = (0..100).map(|i| i * 2).collect();
        let mut c = dense(&values);
        c.run_optimize();
        assert!(matches!(c, Container::Array(_)), "fragmented stays array");
    }

    #[test]
    fn semantic_equality_across_layouts() {
        let values: Vec<u16> = (0..5000).collect();
        let a = dense(&values);
        let mut b = dense(&values);
        b.run_optimize();
        assert!(matches!(b, Container::Run(_)));
        assert_eq!(a, b);
    }

    #[test]
    fn undo_runs_word_fill_matches_per_value() {
        // Runs chosen to hit every set_range case: within one word,
        // word-aligned boundaries, straddling many words, and the two
        // chunk extremes.
        let spans: [(u16, u16); 6] = [
            (0, 0),
            (3, 17),
            (64, 127),
            (100, 4_500),
            (60_000, u16::MAX),
            (63, 64),
        ];
        for (start, end) in spans {
            let mut c = Container::Run(vec![Interval { start, end }]);
            c.undo_runs();
            let got: Vec<u16> = c.iter_values().collect();
            let want: Vec<u16> = (start..=end).collect();
            assert_eq!(got, want, "span {start}..={end}");
        }
        // Multiple runs in one container, dense enough to become a bitmap.
        let mut c = Container::Run(vec![
            Interval {
                start: 0,
                end: 4999,
            },
            Interval {
                start: 10_000,
                end: 10_063,
            },
        ]);
        c.undo_runs();
        assert!(matches!(c, Container::Bitmap { .. }));
        assert_eq!(c.len(), 5064);
        assert!(c.contains(4999) && !c.contains(5000));
        assert!(c.contains(10_000) && c.contains(10_063) && !c.contains(10_064));
    }

    #[test]
    fn mutation_on_run_container() {
        let mut c = dense(&(0..5000).collect::<Vec<u16>>());
        c.run_optimize();
        assert!(c.insert(6000));
        assert!(!matches!(c, Container::Run(_)), "insert de-optimises runs");
        assert!(c.contains(6000));
        assert!(c.remove(0));
        assert_eq!(c.len(), 5000);
    }
}
