//! Wire benchmarks: codec throughput and loopback query round-trips —
//! the measurement infrastructure's own overhead.

use adcomp_platform::{SimScale, Simulation};
use adcomp_targeting::{AttributeId, TargetingSpec};
use adcomp_wire::{from_bytes, serve, to_bytes, Client, Request, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_codec(c: &mut Criterion) {
    let spec = TargetingSpec::builder()
        .any_of((0..10).map(AttributeId))
        .all_of((10..14).map(AttributeId))
        .exclude([AttributeId(20)])
        .build();
    let request = Request::EstimateBatch { specs: vec![spec] };
    let bytes = to_bytes(&request);
    let mut group = c.benchmark_group("codec");
    group.bench_function("encode_request", |bencher| {
        bencher.iter(|| std::hint::black_box(to_bytes(&request)))
    });
    group.bench_function("decode_request", |bencher| {
        bencher.iter(|| std::hint::black_box(from_bytes::<Request>(&bytes).unwrap()))
    });
    group.finish();
}

fn bench_loopback(c: &mut Criterion) {
    let sim = Simulation::build(85, SimScale::Test);
    let handle = serve(sim.linkedin.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    let spec = TargetingSpec::and_of([AttributeId(0)]);
    let mut group = c.benchmark_group("loopback");
    group.sample_size(30);
    group.bench_function("estimate_roundtrip", |bencher| {
        bencher.iter(|| std::hint::black_box(client.estimate(&spec).unwrap()))
    });
    group.finish();
    drop(client);
    handle.shutdown();
}

criterion_group!(benches, bench_codec, bench_loopback);
criterion_main!(benches);
