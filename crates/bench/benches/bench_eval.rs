//! Targeting-evaluation benchmarks: the cost of one audience computation,
//! by spec shape, materialised (`exact_audience`) and counted
//! (`evaluate_len`, what one size-estimate query costs the platform),
//! and of the audit's estimate batches asked one request at a time and
//! as one `reach_estimates` call.

use adcomp_platform::{AdPlatform, SimScale, Simulation};
use adcomp_population::{AgeBucket, Gender};
use adcomp_targeting::{
    evaluate_len, AttributeId, AttributeResolver, Audience, EvalError, TargetingSpec,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// A resident platform's audiences as a resolver, so the counting
/// evaluator can be timed on the audiences `exact_audience` reads.
struct Resolver<'a>(&'a AdPlatform);

impl AttributeResolver for Resolver<'_> {
    fn attribute_audience(&self, id: AttributeId) -> Result<Audience<'_>, EvalError> {
        self.0
            .attribute_audience_raw(id.0 as usize)
            .map(Audience::Borrowed)
            .ok_or(EvalError::UnknownAttribute(id))
    }

    fn everyone(&self) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(self.0.universe().everyone()))
    }

    fn gender_audience(&self, gender: Gender) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(match self.0.inferred_view() {
            Some(view) => view.gender_audience(gender),
            None => self.0.universe().gender_audience(gender),
        }))
    }

    fn age_audience(&self, age: AgeBucket) -> Result<Audience<'_>, EvalError> {
        Ok(Audience::Borrowed(match self.0.inferred_view() {
            Some(view) => view.age_audience(age),
            None => self.0.universe().age_audience(age),
        }))
    }
}

fn bench_eval(c: &mut Criterion) {
    let sim = Simulation::build(80, SimScale::Test);
    let fb = &sim.facebook;
    let mut group = c.benchmark_group("evaluate");
    let specs = [
        ("individual", TargetingSpec::and_of([AttributeId(0)])),
        (
            "pair",
            TargetingSpec::and_of([AttributeId(0), AttributeId(1)]),
        ),
        (
            "triple",
            TargetingSpec::and_of([AttributeId(0), AttributeId(1), AttributeId(2)]),
        ),
        (
            "or_group",
            TargetingSpec::builder()
                .any_of((0..8).map(AttributeId))
                .build(),
        ),
        (
            "demographic_and",
            TargetingSpec::builder()
                .gender(Gender::Female)
                .age(AgeBucket::A25_34)
                .attribute(AttributeId(0))
                .build(),
        ),
        (
            "exclusion",
            TargetingSpec::builder()
                .attribute(AttributeId(0))
                .exclude([AttributeId(1)])
                .build(),
        ),
    ];
    let resolver = Resolver(fb);
    for (label, spec) in &specs {
        assert_eq!(
            evaluate_len(&resolver, spec).unwrap(),
            fb.exact_audience(spec).unwrap().len(),
            "{label}"
        );
        group.bench_function(*label, |bencher| {
            bencher.iter(|| std::hint::black_box(fb.exact_audience(spec).unwrap()))
        });
        group.bench_function(format!("{label}/evaluate_len"), |bencher| {
            bencher.iter(|| std::hint::black_box(evaluate_len(&resolver, spec).unwrap()))
        });
    }
    group.finish();
}

fn bench_estimate_endpoint(c: &mut Criterion) {
    // Full advertiser-visible path: validate → evaluate → scale → round.
    use adcomp_platform::EstimateRequest;
    let sim = Simulation::build(81, SimScale::Test);
    let fb = &sim.facebook;
    let spec = TargetingSpec::and_of([AttributeId(0), AttributeId(1)]);
    let req = EstimateRequest::new(spec, fb.config().default_objective);
    c.bench_function("reach_estimate_endpoint", |bencher| {
        bencher.iter(|| std::hint::black_box(fb.reach_estimate(&req).unwrap()))
    });
}

fn bench_batch(c: &mut Criterion) {
    // The audit's three batch shapes on paper-scale Facebook, asked one
    // request at a time and as one `reach_estimates` batch: one measured
    // targeting's seven requests, one Table 1 cell's overlap batch (every
    // pair of 20 compositions, AND-ed and constrained to the class) and
    // one inclusion–exclusion order (the triples of its top 10).
    use adcomp_platform::{build_facebook, EstimateRequest, SimScale};
    let fb = build_facebook(82, SimScale::Paper);
    let female = |spec: TargetingSpec| {
        let mut spec = spec;
        spec.demographics.genders = Some(vec![Gender::Female]);
        spec
    };
    let base = TargetingSpec::and_of([AttributeId(0), AttributeId(1)]);
    let mut seven = vec![base.clone()];
    for g in Gender::ALL {
        seven.push(
            TargetingSpec::builder()
                .gender(g)
                .build()
                .intersect(&base)
                .unwrap(),
        );
    }
    for a in AgeBucket::ALL {
        seven.push(
            TargetingSpec::builder()
                .age(a)
                .build()
                .intersect(&base)
                .unwrap(),
        );
    }
    let compositions: Vec<TargetingSpec> = (0..7u32)
        .flat_map(|a| {
            (a + 1..7).map(move |b| TargetingSpec::and_of([AttributeId(a), AttributeId(b)]))
        })
        .take(20)
        .collect();
    let overlap: Vec<TargetingSpec> = (0..20)
        .flat_map(|i| (i + 1..20).map(move |j| (i, j)))
        .map(|(i, j)| female(compositions[i].intersect(&compositions[j]).unwrap()))
        .collect();
    let mut union_order3 = Vec::new();
    for i in 0..10 {
        for j in i + 1..10 {
            for k in j + 1..10 {
                let ij = compositions[i].intersect(&compositions[j]).unwrap();
                union_order3.push(female(ij.intersect(&compositions[k]).unwrap()));
            }
        }
    }
    let objective = fb.config().default_objective;
    let mut group = c.benchmark_group("batch");
    for (label, specs) in [
        ("seven", &seven),
        ("overlap", &overlap),
        ("union_order3", &union_order3),
    ] {
        let requests: Vec<EstimateRequest> = specs
            .iter()
            .map(|spec| EstimateRequest::borrowed(spec, objective))
            .collect();
        let one_at_a_time = || {
            requests
                .iter()
                .map(|r| fb.reach_estimate(r))
                .collect::<Vec<_>>()
        };
        assert_eq!(fb.reach_estimates(&requests), one_at_a_time(), "{label}");
        group.bench_function(format!("{label}/loop"), |bencher| {
            bencher.iter(|| std::hint::black_box(one_at_a_time()))
        });
        group.bench_function(format!("{label}/reach_estimates"), |bencher| {
            bencher.iter(|| std::hint::black_box(fb.reach_estimates(&requests)))
        });
    }
    group.finish();
}

fn bench_lookalike(c: &mut Criterion) {
    use adcomp_platform::LookalikeConfig;
    let sim = Simulation::build(86, SimScale::Test);
    let fb = &sim.facebook;
    // Seed: first sufficiently large attribute audience.
    let seed = (0..fb.catalog().len())
        .map(|idx| fb.attribute_audience_raw(idx).unwrap())
        .find(|a| a.len() >= 500)
        .expect("large audience exists")
        .clone();
    let mut group = c.benchmark_group("lookalike");
    group.sample_size(20);
    group.bench_function("regular", |bencher| {
        bencher.iter(|| {
            std::hint::black_box(fb.lookalike(&seed, &LookalikeConfig::default()).unwrap())
        })
    });
    group.bench_function("special_ad_audience", |bencher| {
        bencher.iter(|| {
            std::hint::black_box(
                fb.lookalike(&seed, &LookalikeConfig::special_ad_audience())
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_eval,
    bench_estimate_endpoint,
    bench_batch,
    bench_lookalike
);
criterion_main!(benches);
