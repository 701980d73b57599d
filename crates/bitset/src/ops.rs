//! Set operation kernels.
//!
//! Binary operations walk the two sorted chunk lists in a merge,
//! dispatching to a per-layout kernel for chunks present in both sets.
//! Run containers are densified on the fly (they are a read-only
//! re-encoding; see the crate docs), so the kernels only handle
//! Array×Array, Array×Bitmap and Bitmap×Bitmap.
//!
//! [`and_not_len`] is the k-way counting kernel behind every reach
//! estimate: `|∧include ∧ ¬∨exclude|` from one merge over the chunks of
//! all operands, counted per chunk without building a result — word
//! loops when every include is a bitmap (one fused pass for three), or a
//! branchless merge of the two smallest arrays with each match
//! bit-tested against the bitmaps, then looked up in the remaining
//! arrays by galloping. A two-set AND is the pairwise
//! [`intersection_len`], whose array×array kernel is the same branchless
//! merge.

use crate::container::{Container, BITMAP_WORDS};
use crate::Bitset;

/// The four supported binary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    And,
    Or,
    AndNot,
    Xor,
}

impl Op {
    /// Whether a chunk present only in the left operand survives.
    fn keeps_left_only(self) -> bool {
        matches!(self, Op::Or | Op::AndNot | Op::Xor)
    }

    /// Whether a chunk present only in the right operand survives.
    fn keeps_right_only(self) -> bool {
        matches!(self, Op::Or | Op::Xor)
    }
}

/// Evaluates `a op b` into a new canonical bitset.
pub(crate) fn binary(a: &Bitset, b: &Bitset, op: Op) -> Bitset {
    let mut out = Bitset::new();
    let (ac, bc) = (a.chunks(), b.chunks());
    let (mut i, mut j) = (0, 0);
    while i < ac.len() && j < bc.len() {
        let (ka, ca) = &ac[i];
        let (kb, cb) = &bc[j];
        match ka.cmp(kb) {
            std::cmp::Ordering::Less => {
                if op.keeps_left_only() {
                    out.push_chunk(*ka, ca.clone());
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if op.keeps_right_only() {
                    out.push_chunk(*kb, cb.clone());
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let result = container_op(ca, cb, op);
                if let Some(c) = result {
                    out.push_chunk(*ka, c);
                }
                i += 1;
                j += 1;
            }
        }
    }
    if op.keeps_left_only() {
        for (k, c) in &ac[i..] {
            out.push_chunk(*k, c.clone());
        }
    }
    if op.keeps_right_only() {
        for (k, c) in &bc[j..] {
            out.push_chunk(*k, c.clone());
        }
    }
    out
}

/// `|a ∧ b|` without materialising.
pub(crate) fn intersection_len(a: &Bitset, b: &Bitset) -> u64 {
    let mut total = 0u64;
    for_each_common_chunk(a, b, |ca, cb| {
        total += container_intersection_len(ca, cb) as u64;
    });
    total
}

/// Upper bound on `|a ∧ b|` from per-chunk cardinalities alone.
///
/// `Σ min(|ca|, |cb|)` over chunks present in both sets — the container
/// payloads are never inspected, so this is O(chunks) regardless of
/// density. Exact when one operand's chunks are subsets of the other's;
/// never less than the true intersection size.
pub(crate) fn intersection_len_bound(a: &Bitset, b: &Bitset) -> u64 {
    let mut bound = 0u64;
    for_each_common_chunk(a, b, |ca, cb| {
        bound += ca.len().min(cb.len()) as u64;
    });
    bound
}

/// Decides `|a ∧ b| >= threshold` without computing the full size.
///
/// Two-phase: the per-chunk cardinality bound settles the question for
/// free when it already falls below `threshold`; otherwise a merge walk
/// counts exact per-chunk intersections, exiting as soon as the
/// accumulated count reaches `threshold` or the accumulated count plus
/// the bound over the remaining chunks can no longer reach it. This is
/// the kernel behind the discovery search's min-reach pruning: most
/// failing candidate pairs are rejected here after a few chunks.
pub(crate) fn intersection_len_at_least(a: &Bitset, b: &Bitset, threshold: u64) -> bool {
    if threshold == 0 {
        return true;
    }
    let (ac, bc) = (a.chunks(), b.chunks());
    // Phase 1: pair up common chunks and total their cardinality bound.
    let mut common: Vec<(&Container, &Container, u64)> = Vec::new();
    let mut bound = 0u64;
    {
        let (mut i, mut j) = (0, 0);
        while i < ac.len() && j < bc.len() {
            let (ka, ca) = &ac[i];
            let (kb, cb) = &bc[j];
            match ka.cmp(kb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let chunk_bound = ca.len().min(cb.len()) as u64;
                    bound += chunk_bound;
                    common.push((ca, cb, chunk_bound));
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    if bound < threshold {
        return false;
    }
    // Phase 2: exact counts with both-sided early exit. `remaining` is
    // the bound over chunks not yet counted.
    let mut acc = 0u64;
    let mut remaining = bound;
    for (ca, cb, chunk_bound) in common {
        remaining -= chunk_bound;
        acc += container_intersection_len(ca, cb) as u64;
        if acc >= threshold {
            return true;
        }
        if acc + remaining < threshold {
            return false;
        }
    }
    acc >= threshold
}

/// Disjointness test with early exit.
pub(crate) fn is_disjoint(a: &Bitset, b: &Bitset) -> bool {
    let (ac, bc) = (a.chunks(), b.chunks());
    let (mut i, mut j) = (0, 0);
    while i < ac.len() && j < bc.len() {
        let (ka, ca) = &ac[i];
        let (kb, cb) = &bc[j];
        match ka.cmp(kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if container_intersection_len(ca, cb) != 0 {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
    }
    true
}

/// `|∧include ∧ ¬∨exclude|` without materialising anything.
///
/// Only chunks present in every include operand can contribute, so the
/// include operand with the fewest chunks leads one merge over all
/// operands, whose cursors only move forward; each chunk is then counted
/// by [`Chunk::len`].
pub(crate) fn and_not_len(include: &[&Bitset], exclude: &[&Bitset]) -> u64 {
    match (include, exclude) {
        ([], _) => panic!("and_not_len: at least one include operand"),
        ([only], []) => return only.len(),
        ([a, b], []) => return intersection_len(a, b),
        _ => {}
    }
    let include: Vec<Dense<'_>> = include.iter().map(|set| Dense::new(set)).collect();
    let exclude: Vec<Dense<'_>> = exclude.iter().map(|set| Dense::new(set)).collect();
    let lead = include
        .iter()
        .min_by_key(|op| op.chunks.len())
        .expect("non-empty");
    let mut inc_at = vec![0usize; include.len()];
    let mut exc_at = vec![0usize; exclude.len()];
    let mut chunk = Chunk::default();
    let mut total = 0u64;
    'chunks: for (key, _) in lead.chunks {
        for (op, at) in include.iter().zip(&mut inc_at) {
            if !seek(op.chunks, at, *key) {
                continue 'chunks;
            }
        }
        chunk.clear();
        for (op, &at) in include.iter().zip(&inc_at) {
            chunk.include(op.container(at));
        }
        for (op, at) in exclude.iter().zip(&mut exc_at) {
            if seek(op.chunks, at, *key) {
                chunk.exclude(op.container(*at));
            }
        }
        total += u64::from(chunk.len());
    }
    total
}

/// An operand's chunks as the counting kernel reads them: run containers
/// densified up front, once per call, so every chunk is an array or a
/// bitmap.
struct Dense<'a> {
    chunks: &'a [(u16, Container)],
    /// Per chunk, the densified copy of a run container; empty when the
    /// set has no runs.
    runs: Vec<Option<Container>>,
}

impl<'a> Dense<'a> {
    fn new(set: &'a Bitset) -> Self {
        let chunks = set.chunks();
        let is_run = |c: &Container| matches!(c, Container::Run(_));
        let runs = if chunks.iter().any(|(_, c)| is_run(c)) {
            chunks
                .iter()
                .map(|(_, c)| is_run(c).then(|| c.to_dense().into_owned()))
                .collect()
        } else {
            Vec::new()
        };
        Dense { chunks, runs }
    }

    fn container(&self, at: usize) -> &Container {
        match self.runs.get(at) {
            Some(Some(dense)) => dense,
            _ => &self.chunks[at].1,
        }
    }
}

/// Advances `at` to the first chunk with key `>= key`; whether that
/// chunk's key is `key`.
fn seek(chunks: &[(u16, Container)], at: &mut usize, key: u16) -> bool {
    while chunks.get(*at).is_some_and(|(k, _)| *k < key) {
        *at += 1;
    }
    chunks.get(*at).is_some_and(|(k, _)| *k == key)
}

/// One chunk's operands, by layout. The buffers are refilled for every
/// chunk of one call, so counting a chunk allocates nothing.
#[derive(Default)]
struct Chunk<'a> {
    arrays: Vec<&'a [u16]>,
    bitmaps: Vec<&'a [u64; BITMAP_WORDS]>,
    exclude_arrays: Vec<&'a [u16]>,
    exclude_bitmaps: Vec<&'a [u64; BITMAP_WORDS]>,
    /// Array probes' cursors: the other include arrays', then the
    /// exclusions'.
    cursors: Vec<usize>,
}

impl<'a> Chunk<'a> {
    fn clear(&mut self) {
        self.arrays.clear();
        self.bitmaps.clear();
        self.exclude_arrays.clear();
        self.exclude_bitmaps.clear();
    }

    fn include(&mut self, c: &'a Container) {
        match c {
            Container::Array(values) => self.arrays.push(values),
            Container::Bitmap { bits, .. } => self.bitmaps.push(bits),
            Container::Run(_) => unreachable!("operands were densified"),
        }
    }

    fn exclude(&mut self, c: &'a Container) {
        match c {
            Container::Array(values) => self.exclude_arrays.push(values),
            Container::Bitmap { bits, .. } => self.exclude_bitmaps.push(bits),
            Container::Run(_) => unreachable!("operands were densified"),
        }
    }

    /// `|∧include ∧ ¬∨exclude|` within the chunk (at least one include):
    /// word loops when every include is a bitmap, otherwise a branchless
    /// merge of the two smallest arrays whose matches are tested against
    /// the rest.
    fn len(&mut self) -> u32 {
        if self.arrays.is_empty() {
            return self.bitmaps_len();
        }
        self.arrays.sort_unstable_by_key(|values| values.len());
        let (leads, probes) = self.arrays.split_at(self.arrays.len().min(2));
        let (bitmaps, exclude_bitmaps) = (&self.bitmaps[..], &self.exclude_bitmaps[..]);
        // Bit tests are cheap and branchless, so every candidate takes
        // them all; array probes run only for the candidates that pass.
        let bits_keep = |v: u16| {
            bitmaps.iter().fold(true, |keep, bits| keep & get(bits, v))
                & !exclude_bitmaps
                    .iter()
                    .fold(false, |hit, bits| hit | get(bits, v))
        };
        if probes.is_empty() && self.exclude_arrays.is_empty() {
            return leads_len(leads, bits_keep);
        }
        self.cursors.clear();
        self.cursors
            .resize(probes.len() + self.exclude_arrays.len(), 0);
        let (probe_at, exclude_at) = self.cursors.split_at_mut(probes.len());
        let exclude_arrays = &self.exclude_arrays[..];
        leads_len(leads, |v| {
            bits_keep(v)
                && probes
                    .iter()
                    .zip(probe_at.iter_mut())
                    .all(|(values, at)| holds(values, at, v))
                && !exclude_arrays
                    .iter()
                    .zip(exclude_at.iter_mut())
                    .any(|(values, at)| holds(values, at, v))
        })
    }

    /// Every include is a bitmap: one fused word loop for the
    /// three-bitmap AND, otherwise the includes ANDed word-parallel into
    /// a stack copy with the exclusions cleared from it.
    fn bitmaps_len(&self) -> u32 {
        let no_exclusions = self.exclude_arrays.is_empty() && self.exclude_bitmaps.is_empty();
        if let ([a, b, c], true) = (&self.bitmaps[..], no_exclusions) {
            return (0..BITMAP_WORDS)
                .map(|k| (a[k] & b[k] & c[k]).count_ones())
                .sum();
        }
        let mut acc = *self.bitmaps[0];
        for bits in &self.bitmaps[1..] {
            for (w, x) in acc.iter_mut().zip(bits.iter()) {
                *w &= x;
            }
        }
        for bits in &self.exclude_bitmaps {
            for (w, x) in acc.iter_mut().zip(bits.iter()) {
                *w &= !x;
            }
        }
        for values in &self.exclude_arrays {
            for &v in *values {
                acc[(v >> 6) as usize] &= !(1u64 << (v & 63));
            }
        }
        acc.iter().map(|w| w.count_ones()).sum()
    }
}

/// Values of the one lead array, or of both lead arrays' merge,
/// that pass `keep`.
#[inline]
fn leads_len(leads: &[&[u16]], mut keep: impl FnMut(u16) -> bool) -> u32 {
    match leads {
        [x, y] => merge_len(x, y, keep),
        [x] => x.iter().map(|&v| u32::from(keep(v))).sum(),
        _ => unreachable!("one or two lead arrays"),
    }
}

/// Values in both sorted arrays that pass `keep`. Branchless merge:
/// compare once and advance both cursors by the comparison; only a match
/// reaches `keep`, in increasing order.
#[inline]
fn merge_len(x: &[u16], y: &[u16], mut keep: impl FnMut(u16) -> bool) -> u32 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u32);
    while i < x.len() && j < y.len() {
        let (u, w) = (x[i], y[j]);
        if u == w && keep(u) {
            n += 1;
        }
        i += usize::from(u <= w);
        j += usize::from(w <= u);
    }
    n
}

fn array_bitmap_len(values: &[u16], bits: &[u64; BITMAP_WORDS]) -> u32 {
    values.iter().map(|&v| u32::from(get(bits, v))).sum()
}

fn bitmap_bitmap_len(a: &[u64; BITMAP_WORDS], b: &[u64; BITMAP_WORDS]) -> u32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x & y).count_ones())
        .sum()
}

/// Membership of `v` in a sorted array, for probes in increasing order:
/// `at` is the array's cursor, which only moves forward. It gallops
/// (1, 2, 4, … ahead) to a bracket holding `v`'s position, then binary
/// searches the bracket, so sparse probes skip most of the array.
#[inline]
fn holds(values: &[u16], at: &mut usize, v: u16) -> bool {
    let rest = &values[*at..];
    let mut hi = 1;
    while hi < rest.len() && rest[hi] < v {
        hi *= 2;
    }
    let lo = hi / 2;
    let end = (hi + 1).min(rest.len());
    *at += lo + rest[lo..end].partition_point(|&x| x < v);
    values.get(*at) == Some(&v)
}

fn for_each_common_chunk(a: &Bitset, b: &Bitset, mut f: impl FnMut(&Container, &Container)) {
    let (ac, bc) = (a.chunks(), b.chunks());
    let (mut i, mut j) = (0, 0);
    while i < ac.len() && j < bc.len() {
        let (ka, ca) = &ac[i];
        let (kb, cb) = &bc[j];
        match ka.cmp(kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(ca, cb);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Applies `op` to two same-key containers; `None` when the result is empty.
fn container_op(a: &Container, b: &Container, op: Op) -> Option<Container> {
    let a = a.to_dense();
    let b = b.to_dense();
    let result = match (a.as_ref(), b.as_ref(), op) {
        (Container::Array(x), Container::Array(y), _) => array_array(x, y, op),
        (Container::Bitmap { bits: x, .. }, Container::Bitmap { bits: y, .. }, _) => {
            bitmap_bitmap(x, y, op)
        }
        (Container::Array(x), Container::Bitmap { bits: y, .. }, Op::And) => {
            array_filter(x, |v| get(y, v))
        }
        (Container::Array(x), Container::Bitmap { bits: y, .. }, Op::AndNot) => {
            array_filter(x, |v| !get(y, v))
        }
        (Container::Bitmap { bits: x, len }, Container::Array(y), Op::And) => {
            let _ = len;
            array_filter(y, |v| get(x, v))
        }
        (Container::Bitmap { bits: x, len }, Container::Array(y), Op::AndNot) => {
            // bitmap minus array: clear the array's bits.
            let mut bits = x.clone();
            let mut n = *len;
            for &v in y {
                let word = &mut bits[(v >> 6) as usize];
                let mask = 1u64 << (v & 63);
                if *word & mask != 0 {
                    *word &= !mask;
                    n -= 1;
                }
            }
            some_if_nonempty(Container::from_bitmap(bits, n))
        }
        (Container::Array(x), Container::Bitmap { bits: y, len }, Op::Or) => {
            let mut bits = y.clone();
            let mut n = *len;
            for &v in x {
                let word = &mut bits[(v >> 6) as usize];
                let mask = 1u64 << (v & 63);
                if *word & mask == 0 {
                    *word |= mask;
                    n += 1;
                }
            }
            some_if_nonempty(Container::from_bitmap(bits, n))
        }
        (Container::Bitmap { bits: x, len }, Container::Array(y), Op::Or) => {
            let mut bits = x.clone();
            let mut n = *len;
            for &v in y {
                let word = &mut bits[(v >> 6) as usize];
                let mask = 1u64 << (v & 63);
                if *word & mask == 0 {
                    *word |= mask;
                    n += 1;
                }
            }
            some_if_nonempty(Container::from_bitmap(bits, n))
        }
        (Container::Array(x), Container::Bitmap { bits: y, .. }, Op::Xor) => {
            let mut bits = y.clone();
            xor_array_into(&mut bits, x)
        }
        (Container::Bitmap { bits: x, .. }, Container::Array(y), Op::Xor) => {
            let mut bits = x.clone();
            xor_array_into(&mut bits, y)
        }
        (Container::Run(_), _, _) | (_, Container::Run(_), _) => {
            unreachable!("operands were densified")
        }
    };
    result
}

fn xor_array_into(bits: &mut Box<[u64; BITMAP_WORDS]>, values: &[u16]) -> Option<Container> {
    for &v in values {
        bits[(v >> 6) as usize] ^= 1u64 << (v & 63);
    }
    let len: u32 = bits.iter().map(|w| w.count_ones()).sum();
    some_if_nonempty(Container::from_bitmap(bits.clone(), len))
}

#[inline]
fn get(bits: &[u64; BITMAP_WORDS], v: u16) -> bool {
    bits[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
}

fn some_if_nonempty(c: Container) -> Option<Container> {
    if c.is_empty() {
        None
    } else {
        Some(c)
    }
}

fn array_filter(values: &[u16], keep: impl Fn(u16) -> bool) -> Option<Container> {
    let out: Vec<u16> = values.iter().copied().filter(|&v| keep(v)).collect();
    if out.is_empty() {
        None
    } else {
        Some(Container::Array(out))
    }
}

fn array_array(a: &[u16], b: &[u16], op: Op) -> Option<Container> {
    let mut out = Vec::with_capacity(match op {
        Op::And => a.len().min(b.len()),
        _ => a.len() + b.len(),
    });
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                if op.keeps_left_only() {
                    out.push(a[i]);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if op.keeps_right_only() {
                    out.push(b[j]);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if matches!(op, Op::And | Op::Or) {
                    out.push(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    if op.keeps_left_only() {
        out.extend_from_slice(&a[i..]);
    }
    if op.keeps_right_only() {
        out.extend_from_slice(&b[j..]);
    }
    if out.is_empty() {
        None
    } else {
        Some(Container::from_sorted_slice(&out))
    }
}

fn bitmap_bitmap(a: &[u64; BITMAP_WORDS], b: &[u64; BITMAP_WORDS], op: Op) -> Option<Container> {
    let mut bits = Box::new([0u64; BITMAP_WORDS]);
    let mut len = 0u32;
    for k in 0..BITMAP_WORDS {
        let w = match op {
            Op::And => a[k] & b[k],
            Op::Or => a[k] | b[k],
            Op::AndNot => a[k] & !b[k],
            Op::Xor => a[k] ^ b[k],
        };
        bits[k] = w;
        len += w.count_ones();
    }
    some_if_nonempty(Container::from_bitmap(bits, len))
}

/// `|a ∧ b|` for two same-key containers.
fn container_intersection_len(a: &Container, b: &Container) -> u32 {
    let a = a.to_dense();
    let b = b.to_dense();
    match (a.as_ref(), b.as_ref()) {
        // Galloping would help for very skewed sizes; the merge is fine
        // for the ≤4096-entry arrays we produce.
        (Container::Array(x), Container::Array(y)) => merge_len(x, y, |_| true),
        (Container::Array(x), Container::Bitmap { bits, .. })
        | (Container::Bitmap { bits, .. }, Container::Array(x)) => array_bitmap_len(x, bits),
        (Container::Bitmap { bits: x, .. }, Container::Bitmap { bits: y, .. }) => {
            bitmap_bitmap_len(x, y)
        }
        _ => unreachable!("operands were densified"),
    }
}

#[cfg(test)]
mod tests {
    use crate::Bitset;

    /// Reference implementation on `std` sets.
    fn check(a_vals: &[u32], b_vals: &[u32]) {
        use std::collections::BTreeSet;
        let a: Bitset = a_vals.iter().copied().collect();
        let b: Bitset = b_vals.iter().copied().collect();
        let sa: BTreeSet<u32> = a_vals.iter().copied().collect();
        let sb: BTreeSet<u32> = b_vals.iter().copied().collect();

        let and: Vec<u32> = sa.intersection(&sb).copied().collect();
        let or: Vec<u32> = sa.union(&sb).copied().collect();
        let and_not: Vec<u32> = sa.difference(&sb).copied().collect();
        let xor: Vec<u32> = sa.symmetric_difference(&sb).copied().collect();

        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), and);
        assert_eq!(a.or(&b).iter().collect::<Vec<_>>(), or);
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), and_not);
        assert_eq!(a.xor(&b).iter().collect::<Vec<_>>(), xor);
        assert_eq!(a.intersection_len(&b), and.len() as u64);
        assert_eq!(a.union_len(&b), or.len() as u64);
        assert_eq!(a.is_disjoint(&b), and.is_empty());
    }

    #[test]
    fn dense_sparse_mixes() {
        let dense: Vec<u32> = (0..10_000).collect();
        let sparse: Vec<u32> = (0..10_000).step_by(97).collect();
        check(&dense, &sparse);
        check(&sparse, &dense);
    }

    #[test]
    fn cross_chunk() {
        let a: Vec<u32> = vec![1, 65_536, 65_537, 200_000, 1 << 24];
        let b: Vec<u32> = vec![65_537, 131_072, 200_000, (1 << 24) + 1];
        check(&a, &b);
    }

    #[test]
    fn empty_operands() {
        check(&[], &[]);
        check(&[1, 2, 3], &[]);
        check(&[], &[1, 2, 3]);
    }

    #[test]
    fn bitmap_bitmap_all_ops() {
        let a: Vec<u32> = (0..30_000).filter(|v| v % 2 == 0).collect();
        let b: Vec<u32> = (0..30_000).filter(|v| v % 3 == 0).collect();
        check(&a, &b);
    }

    #[test]
    fn run_operands_densified() {
        let mut a: Bitset = (0..20_000u32).collect();
        let mut b: Bitset = (10_000..30_000u32).collect();
        a.run_optimize();
        b.run_optimize();
        assert_eq!(a.and(&b).len(), 10_000);
        assert_eq!(a.or(&b).len(), 30_000);
        assert_eq!(a.and_not(&b).len(), 10_000);
        assert_eq!(a.xor(&b).len(), 20_000);
        assert_eq!(a.intersection_len(&b), 10_000);
    }

    #[test]
    fn intersection_bound_and_threshold() {
        let a: Bitset = (0..50_000u32).collect();
        let b: Bitset = (0..50_000u32).step_by(5).collect();
        let exact = a.intersection_len(&b);
        assert_eq!(exact, 10_000);
        // The bound dominates the exact size and equals Σ min per chunk.
        assert!(a.intersection_len_bound(&b) >= exact);
        assert_eq!(a.intersection_len_bound(&b), b.len());
        // Threshold test agrees with the exact size on both sides.
        for t in [0u64, 1, 9_999, 10_000, 10_001, 1 << 40] {
            assert_eq!(
                a.intersection_len_at_least(&b, t),
                exact >= t,
                "threshold {t}"
            );
        }
        // Disjoint chunks: bound is zero, so any positive threshold is a
        // free rejection.
        let far: Bitset = ((1 << 24)..(1 << 24) + 1000).collect();
        assert_eq!(a.intersection_len_bound(&far), 0);
        assert!(!a.intersection_len_at_least(&far, 1));
        assert!(a.intersection_len_at_least(&far, 0));
        // Run containers go through the same kernels.
        let mut ra = a.clone();
        ra.run_optimize();
        assert!(ra.intersection_len_at_least(&b, exact));
        assert!(!ra.intersection_len_at_least(&b, exact + 1));
        // Empty operands.
        assert_eq!(Bitset::new().intersection_len_bound(&a), 0);
        assert!(!Bitset::new().intersection_len_at_least(&a, 1));
    }

    #[test]
    fn identical_and_disjoint() {
        let a: Vec<u32> = (0..5000).map(|v| v * 3).collect();
        check(&a, &a);
        let b: Vec<u32> = a.iter().map(|v| v + 1).collect();
        check(&a, &b);
        let far: Vec<u32> = a.iter().map(|v| v + (1 << 28)).collect();
        check(&a, &far);
        let ba: Bitset = a.iter().copied().collect();
        let bf: Bitset = far.iter().copied().collect();
        assert!(ba.is_disjoint(&bf));
    }
}
