//! Bitset micro-benchmarks and the container-strategy ablation.
//!
//! DESIGN.md §6: compare the chunked array/bitmap/run containers against
//! a plain sorted `Vec<u32>` representation on the audit's hot operation
//! (intersection counting between audience sets).

use adcomp_bitset::Bitset;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};

const UNIVERSE: u32 = 250_000;

fn sample(seed: u64, density: f64) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..UNIVERSE).filter(|_| rng.gen_bool(density)).collect()
}

fn bench_intersection_len(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection_len");
    for (label, da, db) in [
        ("sparse_sparse", 0.01, 0.01),
        ("sparse_dense", 0.01, 0.4),
        ("dense_dense", 0.4, 0.4),
    ] {
        let va = sample(1, da);
        let vb = sample(2, db);
        let ba: Bitset = va.iter().copied().collect();
        let bb: Bitset = vb.iter().copied().collect();
        group.bench_function(format!("bitset/{label}"), |bencher| {
            bencher.iter(|| std::hint::black_box(ba.intersection_len(&bb)))
        });
        // Baseline: sorted-vec merge.
        group.bench_function(format!("sorted_vec/{label}"), |bencher| {
            bencher.iter(|| {
                let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
                while i < va.len() && j < vb.len() {
                    match va[i].cmp(&vb[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            n += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                std::hint::black_box(n)
            })
        });
    }
    group.finish();
}

/// The k-way AND-count kernel against materialise-then-count, for the
/// audit's query shapes: `a ∧ class` (k = 2) and `a ∧ b ∧ class` (k = 3)
/// over sparse attributes and a dense demographic class.
fn bench_and_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("and_count");
    let sparse_a: Bitset = sample(7, 0.02).into_iter().collect();
    let sparse_b: Bitset = sample(8, 0.03).into_iter().collect();
    let dense_a: Bitset = sample(9, 0.3).into_iter().collect();
    let dense_b: Bitset = sample(10, 0.4).into_iter().collect();
    let class: Bitset = sample(11, 0.5).into_iter().collect();
    let shapes: [(&str, Vec<&Bitset>); 5] = [
        ("k2/sparse_dense", vec![&sparse_a, &class]),
        ("k2/dense_dense", vec![&dense_a, &class]),
        ("k3/sparse_sparse_dense", vec![&sparse_a, &sparse_b, &class]),
        ("k3/sparse_dense_dense", vec![&sparse_a, &dense_a, &class]),
        ("k3/dense_dense_dense", vec![&dense_a, &dense_b, &class]),
    ];
    for (label, sets) in &shapes {
        group.bench_function(format!("kernel/{label}"), |bencher| {
            bencher.iter(|| std::hint::black_box(Bitset::and_not_len(sets, &[])))
        });
        group.bench_function(format!("materialised/{label}"), |bencher| {
            bencher.iter(|| {
                let and = sets[2..]
                    .iter()
                    .fold(sets[0].and(sets[1]), |acc, s| acc.and(s));
                std::hint::black_box(and.len())
            })
        });
    }
    group.finish();
}

fn bench_materialised_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_ops");
    let a: Bitset = sample(3, 0.05).into_iter().collect();
    let b: Bitset = sample(4, 0.05).into_iter().collect();
    group.bench_function("and", |bencher| {
        bencher.iter(|| std::hint::black_box(a.and(&b)))
    });
    group.bench_function("or", |bencher| {
        bencher.iter(|| std::hint::black_box(a.or(&b)))
    });
    group.bench_function("and_not", |bencher| {
        bencher.iter(|| std::hint::black_box(a.and_not(&b)))
    });
    group.finish();
}

fn bench_run_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_encoding");
    // Clustered data (contiguous blocks) where run encoding shines.
    let clustered: Vec<u32> = (0..UNIVERSE).filter(|v| (v / 1000) % 3 == 0).collect();
    let dense: Bitset = clustered.iter().copied().collect();
    let mut run = dense.clone();
    run.run_optimize();
    let probe: Bitset = sample(5, 0.02).into_iter().collect();
    group.bench_function("dense_intersection", |bencher| {
        bencher.iter(|| std::hint::black_box(dense.intersection_len(&probe)))
    });
    group.bench_function("run_intersection", |bencher| {
        bencher.iter(|| std::hint::black_box(run.intersection_len(&probe)))
    });
    group.bench_function("run_optimize_cost", |bencher| {
        bencher.iter_batched(
            || dense.clone(),
            |mut s| {
                s.run_optimize();
                std::hint::black_box(s)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    let values = sample(6, 0.05);
    group.bench_function("from_sorted_iter", |bencher| {
        bencher.iter(|| std::hint::black_box(Bitset::from_sorted_iter(values.iter().copied())))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_intersection_len,
    bench_and_count,
    bench_materialised_ops,
    bench_run_encoding,
    bench_construction
);
criterion_main!(benches);
