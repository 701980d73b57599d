//! Targeting-evaluation benchmarks: the cost of one audience computation,
//! by spec shape, materialised (`exact_audience`) and counted
//! (`evaluate_len`, what one size-estimate query costs the platform).

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
    bench_lookalike
);
criterion_main!(benches);
