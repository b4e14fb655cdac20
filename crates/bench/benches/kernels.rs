//! Criterion micro-benchmarks: the dense tile kernels (the per-core
//! GFlop/s these achieve is what the `KernelCostModel` abstracts).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flexdist_kernels::{gemm_nn, getrf_nopiv, potrf, syrk_ln, trsm_right_lower_trans, Tile};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_nn");
    for nb in [64usize, 128, 256] {
        let a = Tile::random(nb, 1);
        let b_t = Tile::random(nb, 2);
        let c0 = Tile::random(nb, 3);
        group.throughput(Throughput::Elements((2 * nb * nb * nb) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nb), &nb, |bch, &nb| {
            bch.iter_batched(
                || c0.clone(),
                |mut cc| {
                    gemm_nn(
                        -1.0,
                        black_box(a.as_slice()),
                        black_box(b_t.as_slice()),
                        1.0,
                        cc.as_mut_slice(),
                        nb,
                    );
                    cc
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn spd_tile(nb: usize, seed: u64) -> Tile {
    let r = Tile::random(nb, seed);
    Tile::from_fn(nb, |i, j| {
        let sym = 0.5 * (r.get(i, j) + r.get(j, i));
        if i == j {
            sym + nb as f64 + 1.0
        } else {
            sym
        }
    })
}

fn bench_factor_kernels(c: &mut Criterion) {
    let nb = 128;
    let spd = spd_tile(nb, 4);
    c.bench_function("potrf_128", |b| {
        b.iter_batched(
            || spd.clone(),
            |mut t| {
                potrf(t.as_mut_slice(), nb).unwrap();
                t
            },
            criterion::BatchSize::SmallInput,
        );
    });
    c.bench_function("getrf_nopiv_128", |b| {
        b.iter_batched(
            || spd.clone(),
            |mut t| {
                getrf_nopiv(t.as_mut_slice(), nb).unwrap();
                t
            },
            criterion::BatchSize::SmallInput,
        );
    });
    let mut l = spd.clone();
    potrf(l.as_mut_slice(), nb).unwrap();
    let x = Tile::random(nb, 9);
    c.bench_function("trsm_right_lower_trans_128", |b| {
        b.iter_batched(
            || x.clone(),
            |mut t| {
                trsm_right_lower_trans(l.as_slice(), t.as_mut_slice(), nb);
                t
            },
            criterion::BatchSize::SmallInput,
        );
    });
    let src = Tile::random(nb, 10);
    c.bench_function("syrk_ln_128", |b| {
        b.iter_batched(
            || spd.clone(),
            |mut t| {
                syrk_ln(-1.0, src.as_slice(), 1.0, t.as_mut_slice(), nb);
                t
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_gemm, bench_factor_kernels);
criterion_main!(benches);
