//! Property tests for inclusion–exclusion union-recall estimation.
//!
//! The mock platform is a 64-individual world where every audience is a
//! `u64` bitmask, so exact union sizes are a `count_ones()` away and the
//! estimator's algebra can be checked against ground truth:
//!
//! * the full-order expansion is **permutation-invariant** in the
//!   composition order (the paper sums over subsets, so order must not
//!   matter);
//! * on exact inputs it reproduces the union exactly, hence the recall
//!   fraction never exceeds 1.0;
//! * on rounded inputs (round-down to a granularity `g`, like the
//!   platforms' ladders) each of the `< 2^k` terms errs by less than
//!   `g`, so the estimate stays within `2^k · g` of the class
//!   population.

use std::sync::Arc;

use adcomp_core::{
    union_recall, AuditTarget, EstimateSource, Selector, SensitiveClass, SourceError,
};
use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{AttributeId, FeatureId, TargetingSpec};
use proptest::prelude::*;

const FEMALE: Selector = Selector::Class(SensitiveClass::Gender(Gender::Female));

/// A 64-individual world: attribute memberships and gender are bitmasks,
/// ages cycle `i % 4`, estimates are exact counts rounded *down* to a
/// multiple of `granularity`.
struct MockWorld {
    attrs: Vec<u64>,
    female: u64,
    granularity: u64,
}

impl MockWorld {
    fn age_mask(bucket: AgeBucket) -> u64 {
        0x1111_1111_1111_1111u64 << bucket.index()
    }

    /// The exact audience bitmask of a spec.
    fn audience(&self, spec: &TargetingSpec) -> u64 {
        let mut mask = u64::MAX;
        for group in &spec.include {
            let mut group_mask = 0u64;
            for id in &group.attributes {
                group_mask |= self.attrs[id.0 as usize];
            }
            mask &= group_mask;
        }
        for id in &spec.exclude {
            mask &= !self.attrs[id.0 as usize];
        }
        if let Some(genders) = &spec.demographics.genders {
            let mut allowed = 0u64;
            for g in genders {
                allowed |= match g {
                    Gender::Female => self.female,
                    Gender::Male => !self.female,
                };
            }
            mask &= allowed;
        }
        if let Some(ages) = &spec.demographics.ages {
            let mut allowed = 0u64;
            for a in ages {
                allowed |= MockWorld::age_mask(*a);
            }
            mask &= allowed;
        }
        mask
    }

    /// Exact count of `∪ specs ∧ female`.
    fn exact_union_female(&self, specs: &[TargetingSpec]) -> u64 {
        let mut union = 0u64;
        for spec in specs {
            union |= self.audience(spec);
        }
        (union & self.female).count_ones() as u64
    }
}

impl EstimateSource for MockWorld {
    fn label(&self) -> String {
        "MockWorld".into()
    }

    fn estimate_batch(&self, specs: &[TargetingSpec]) -> Vec<Result<u64, SourceError>> {
        specs
            .iter()
            .map(|spec| {
                let exact = self.audience(spec).count_ones() as u64;
                Ok(exact / self.granularity * self.granularity)
            })
            .collect()
    }

    fn check(&self, _spec: &TargetingSpec) -> Result<(), SourceError> {
        Ok(())
    }

    fn catalog_len(&self) -> u32 {
        self.attrs.len() as u32
    }

    fn attribute_name(&self, id: AttributeId) -> Option<String> {
        (id.0 < self.catalog_len()).then(|| format!("attr-{}", id.0))
    }

    fn attribute_feature(&self, id: AttributeId) -> Option<FeatureId> {
        // Every attribute its own feature: all distinct pairs compose.
        (id.0 < self.catalog_len()).then_some(FeatureId(id.0 as u16))
    }

    fn can_compose(&self, a: AttributeId, b: AttributeId) -> bool {
        a != b && a.0 < self.catalog_len() && b.0 < self.catalog_len()
    }

    fn supports_demographics(&self) -> bool {
        true
    }
}

fn world(attrs: Vec<u64>, female: u64, granularity: u64) -> (AuditTarget, Vec<TargetingSpec>) {
    let k = attrs.len();
    let source = Arc::new(MockWorld {
        attrs,
        female,
        granularity,
    });
    let target = AuditTarget::direct(source);
    // One single-attribute composition per attribute, plus one AND pair
    // when possible — the shapes §4.3 unions over.
    let mut specs: Vec<TargetingSpec> = (0..k)
        .map(|i| TargetingSpec::and_of([AttributeId(i as u32)]))
        .collect();
    if k >= 2 {
        specs.push(TargetingSpec::and_of([AttributeId(0), AttributeId(1)]));
    }
    (target, specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_recall_is_permutation_invariant(
        attrs in proptest::collection::vec(any::<u64>(), 2..5),
        female in any::<u64>(),
        rot in 0usize..6,
        granularity in 1u64..8,
    ) {
        let (target, specs) = world(attrs, female, granularity);
        let base = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();

        let mut reversed = specs.clone();
        reversed.reverse();
        let rev = union_recall(&target, &reversed, FEMALE, reversed.len()).unwrap();
        prop_assert_eq!(rev.recall, base.recall, "reversal changed the estimate");

        let mut rotated = specs.clone();
        let mid = rot % rotated.len();
        rotated.rotate_left(mid);
        let rot_est = union_recall(&target, &rotated, FEMALE, rotated.len()).unwrap();
        prop_assert_eq!(rot_est.recall, base.recall, "rotation changed the estimate");

        // The full expansions also agree term-for-term in query count.
        prop_assert_eq!(rev.queries, base.queries);
        prop_assert_eq!(rot_est.queries, base.queries);
    }

    #[test]
    fn exact_inputs_reproduce_the_union_exactly(
        attrs in proptest::collection::vec(any::<u64>(), 2..5),
        female in any::<u64>(),
    ) {
        let (target, specs) = world(attrs.clone(), female, 1);
        let est = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();
        let mock = MockWorld { attrs, female, granularity: 1 };
        let exact = mock.exact_union_female(&specs);
        prop_assert_eq!(est.recall, exact, "full-order IE must be exact");

        // Recall fraction against the class population never exceeds 1.0.
        let class_pop = female.count_ones() as u64;
        prop_assert!(est.recall <= class_pop.max(1),
                     "union {} exceeds class population {class_pop}", est.recall);
    }

    #[test]
    fn rounded_inputs_stay_within_granularity_slack(
        attrs in proptest::collection::vec(any::<u64>(), 2..5),
        female in any::<u64>(),
        granularity in 1u64..10,
    ) {
        let (target, specs) = world(attrs, female, granularity);
        let est = union_recall(&target, &specs, FEMALE, specs.len()).unwrap();
        // Round-down rounding perturbs each of the < 2^k IE terms by less
        // than g, so the estimate cannot exceed the class population by
        // 2^k · g or more — the recall fraction is bounded by
        // 1 + 2^k·g/pop, approaching 1.0 as granularity shrinks.
        let k = specs.len() as u32;
        let class_pop = female.count_ones() as u64;
        let slack = (1u64 << k) * granularity;
        prop_assert!(
            est.recall <= class_pop + slack,
            "union {} exceeds population {class_pop} + slack {slack}",
            est.recall
        );
    }
}
