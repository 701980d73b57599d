//! Property-based tests: `Bitset` must agree with `BTreeSet<u32>` on every
//! operation, for arbitrary value distributions (sparse, dense, clustered).

use adcomp_bitset::Bitset;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Value sets drawn from a few regimes so all container layouts get hit:
/// uniformly random u32s (sparse arrays), small ranges (dense bitmaps), and
/// contiguous blocks (run candidates).
fn value_vec() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        proptest::collection::vec(any::<u32>(), 0..400),
        proptest::collection::vec(0u32..100_000, 0..2000),
        (0u32..1_000_000, 0u32..20_000)
            .prop_map(|(start, len)| (start..start.saturating_add(len)).collect()),
    ]
}

/// One operand of the k-way kernel, confined to the first four chunks
/// so chunk keys recur across operands yet each one misses some: sparse
/// values (arrays), dense draws over two chunks (bitmaps), contiguous
/// blocks (runs, when run-optimised) and the empty set.
fn operand() -> impl Strategy<Value = (Vec<u32>, bool)> {
    let values = prop_oneof![
        proptest::collection::vec(0u32..4 << 16, 0..600),
        proptest::collection::vec(0u32..2 << 16, 0..30_000),
        (0u32..4 << 16, 0u32..80_000)
            .prop_map(|(start, len)| (start..start.saturating_add(len).min(4 << 16)).collect()),
        Just(Vec::new()),
    ];
    (values, any::<bool>())
}

/// An operand dense in the same two chunks as every other one, so
/// chunks meet only bitmaps (run-optimised ones densify to bitmaps too).
fn dense_operand() -> impl Strategy<Value = (Vec<u32>, bool)> {
    (
        proptest::collection::vec(0u32..2 << 16, 10_000..30_000),
        any::<bool>(),
    )
}

fn operand_set((values, optimize): (Vec<u32>, bool)) -> (Bitset, BTreeSet<u32>) {
    let (mut set, reference) = to_pair(values);
    if optimize {
        set.run_optimize();
    }
    (set, reference)
}

/// Checks the k-way kernel against the `BTreeSet` reference, against the
/// materialised fold, and under a reversed include order.
fn check_and_not_len(include: Vec<(Vec<u32>, bool)>, exclude: Vec<(Vec<u32>, bool)>) {
    let include: Vec<_> = include.into_iter().map(operand_set).collect();
    let exclude: Vec<_> = exclude.into_iter().map(operand_set).collect();
    let mut expected = include[0].1.clone();
    for (_, reference) in &include[1..] {
        expected.retain(|v| reference.contains(v));
    }
    for (_, reference) in &exclude {
        expected.retain(|v| !reference.contains(v));
    }
    let expected = expected.len() as u64;
    let inc: Vec<&Bitset> = include.iter().map(|(set, _)| set).collect();
    let exc: Vec<&Bitset> = exclude.iter().map(|(set, _)| set).collect();
    assert_eq!(Bitset::and_not_len(&inc, &exc), expected);
    let mut folded = inc[1..]
        .iter()
        .fold(inc[0].clone(), |acc, set| acc.and(set));
    for set in &exc {
        folded = folded.and_not(set);
    }
    assert_eq!(folded.len(), expected);
    let reversed: Vec<&Bitset> = inc.iter().rev().copied().collect();
    assert_eq!(Bitset::and_not_len(&reversed, &exc), expected);
}

fn to_pair(values: Vec<u32>) -> (Bitset, BTreeSet<u32>) {
    let reference: BTreeSet<u32> = values.iter().copied().collect();
    let set: Bitset = values.into_iter().collect();
    (set, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_matches_reference(values in value_vec()) {
        let (set, reference) = to_pair(values);
        prop_assert_eq!(set.len(), reference.len() as u64);
        prop_assert_eq!(set.iter().collect::<Vec<_>>(),
                        reference.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(set.min(), reference.first().copied());
        prop_assert_eq!(set.max(), reference.last().copied());
    }

    #[test]
    fn binary_ops_match_reference(a in value_vec(), b in value_vec()) {
        let (sa, ra) = to_pair(a);
        let (sb, rb) = to_pair(b);
        prop_assert_eq!(
            sa.and(&sb).iter().collect::<Vec<_>>(),
            ra.intersection(&rb).copied().collect::<Vec<_>>());
        prop_assert_eq!(
            sa.or(&sb).iter().collect::<Vec<_>>(),
            ra.union(&rb).copied().collect::<Vec<_>>());
        prop_assert_eq!(
            sa.and_not(&sb).iter().collect::<Vec<_>>(),
            ra.difference(&rb).copied().collect::<Vec<_>>());
        prop_assert_eq!(
            sa.xor(&sb).iter().collect::<Vec<_>>(),
            ra.symmetric_difference(&rb).copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.intersection_len(&sb),
                        ra.intersection(&rb).count() as u64);
        prop_assert_eq!(sa.is_disjoint(&sb), ra.is_disjoint(&rb));
        prop_assert_eq!(sa.is_subset(&sb), ra.is_subset(&rb));
    }

    #[test]
    fn counting_consistent_with_materialised(a in value_vec(), b in value_vec()) {
        let (sa, _) = to_pair(a);
        let (sb, _) = to_pair(b);
        prop_assert_eq!(sa.intersection_len(&sb), sa.and(&sb).len());
        prop_assert_eq!(sa.union_len(&sb), sa.or(&sb).len());
        prop_assert_eq!(sa.difference_len(&sb), sa.and_not(&sb).len());
    }

    #[test]
    fn algebraic_identities(a in value_vec(), b in value_vec()) {
        let (sa, _) = to_pair(a);
        let (sb, _) = to_pair(b);
        // Commutativity.
        prop_assert_eq!(sa.and(&sb), sb.and(&sa));
        prop_assert_eq!(sa.or(&sb), sb.or(&sa));
        prop_assert_eq!(sa.xor(&sb), sb.xor(&sa));
        // A = (A∧B) ∨ (A∧¬B).
        prop_assert_eq!(sa.and(&sb).or(&sa.and_not(&sb)), sa.clone());
        // XOR = (A∨B) ∧ ¬(A∧B).
        prop_assert_eq!(sa.xor(&sb), sa.or(&sb).and_not(&sa.and(&sb)));
        // Idempotence / annihilation.
        prop_assert_eq!(sa.and(&sa), sa.clone());
        prop_assert_eq!(sa.or(&sa), sa.clone());
        prop_assert!(sa.xor(&sa).is_empty());
    }

    #[test]
    fn insert_remove_agree_with_reference(values in value_vec(),
                                          edits in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..100)) {
        let (mut set, mut reference) = to_pair(values);
        for (v, insert) in edits {
            if insert {
                prop_assert_eq!(set.insert(v), reference.insert(v));
            } else {
                prop_assert_eq!(set.remove(v), reference.remove(&v));
            }
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(),
                        reference.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn rank_select_consistency(values in value_vec()) {
        let (set, reference) = to_pair(values);
        let sorted: Vec<u32> = reference.iter().copied().collect();
        for (n, &v) in sorted.iter().enumerate().take(50) {
            prop_assert_eq!(set.select(n as u64), Some(v));
            prop_assert_eq!(set.rank(v), n as u64 + 1);
        }
        prop_assert_eq!(set.select(set.len()), None);
    }

    #[test]
    fn serialization_roundtrips(values in value_vec(), optimize in any::<bool>()) {
        let (mut set, _) = to_pair(values);
        if optimize {
            set.run_optimize();
        }
        let back = Bitset::from_bytes(&set.to_bytes()).unwrap();
        prop_assert_eq!(back, set);
    }

    #[test]
    fn deserializer_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Must never panic; any error is acceptable.
        let _ = Bitset::from_bytes(&bytes);
    }

    #[test]
    fn concatenated_stream_roundtrips(sets in proptest::collection::vec((value_vec(), any::<bool>()), 1..5)) {
        // Segment files are back-to-back serialised audiences (some
        // run-encoded); prefix decoding must recover each one exactly.
        let mut originals = Vec::new();
        let mut stream = Vec::new();
        for (values, optimize) in sets {
            let (mut set, _) = to_pair(values);
            if optimize {
                set.run_optimize();
            }
            set.write_into(&mut stream);
            originals.push(set);
        }
        let mut off = 0usize;
        for original in &originals {
            let (decoded, used) = Bitset::from_bytes_prefix(&stream[off..]).unwrap();
            prop_assert_eq!(&decoded, original);
            prop_assert_eq!(used, original.to_bytes().len());
            off += used;
        }
        prop_assert_eq!(off, stream.len());
    }

    #[test]
    fn run_optimize_is_semantically_invisible(values in value_vec(), probe in any::<u32>()) {
        let (mut set, reference) = to_pair(values);
        let other: Bitset = reference.iter().map(|v| v ^ 1).collect();
        let before_and = set.and(&other);
        set.run_optimize();
        prop_assert_eq!(set.len(), reference.len() as u64);
        prop_assert_eq!(set.contains(probe), reference.contains(&probe));
        prop_assert_eq!(set.and(&other), before_and);
        prop_assert_eq!(set.iter().collect::<Vec<_>>(),
                        reference.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn and_not_len_matches_reference(
        include in proptest::collection::vec(operand(), 1..=5),
        exclude in proptest::collection::vec(operand(), 0..=3),
    ) {
        check_and_not_len(include, exclude);
    }

    #[test]
    fn and_not_len_over_bitmaps_matches_reference(
        include in proptest::collection::vec(dense_operand(), 2..=4),
        dense_exclude in proptest::collection::vec(dense_operand(), 0..=1),
        sparse_exclude in proptest::collection::vec(operand(), 0..=2),
    ) {
        // The fused word loops: bitmap-only includes, bitmap and array
        // exclusions.
        check_and_not_len(include, [dense_exclude, sparse_exclude].concat());
    }

    #[test]
    fn pairwise_counts_match_reference(a in operand(), b in operand(), slack in 0u64..3) {
        // The pairwise kernel (and its branchless array merge) behind
        // `intersection_len`, `is_disjoint` and the thresholded count.
        let (sa, ra) = operand_set(a);
        let (sb, rb) = operand_set(b);
        let exact = ra.intersection(&rb).count() as u64;
        prop_assert_eq!(sa.intersection_len(&sb), exact);
        prop_assert_eq!(Bitset::and_not_len(&[&sa, &sb], &[]), exact);
        prop_assert_eq!(sa.is_disjoint(&sb), exact == 0);
        for threshold in [exact.saturating_sub(slack), exact, exact + 1 + slack] {
            prop_assert_eq!(sa.intersection_len_at_least(&sb, threshold), exact >= threshold);
        }
    }
}
