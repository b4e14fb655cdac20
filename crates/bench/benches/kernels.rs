//! Single-thread GF/s of every factorization kernel at the tile sizes the
//! benchmark workloads and the ROADMAP name — what `KernelCostModel`
//! abstracts — and single-thread GB/s of the frame codec (encode, decode,
//! checksum) at the benchmark's three tile sizes: the per-layer
//! before/after record of `BENCH_kernels.json`
//! (`scripts/bench_kernels.sh`).
//!
//! `cargo bench -p flexdist-bench --bench kernels` prints one JSON object
//! on stdout (reps, and per kernel × nb the median and the median absolute
//! deviation over the samples, one row per line — the script splices it
//! into the record as it is) and a table on stderr. It uses only public
//! functions the kernels and the codec have had since the frame carried a
//! checksum, so the same file measures an older commit when copied into
//! its checkout.

use flexdist_factor::net::codec::checksum_of;
use flexdist_factor::net::{decode, encode, MsgClass, TileMsg};
use flexdist_kernels::{
    gemm_nn, gemm_nt, getrf_nopiv, potrf, syrk_ln, trsm_left_lower_unit, trsm_right_lower_trans,
    trsm_right_upper, Kernel, Tile,
};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 6] = [8, 16, 64, 128, 192, 256];
/// Tile sizes of the benchmark workloads: what a frame carries there.
const CODEC_SIZES: [usize; 3] = [8, 16, 192];
/// Samples per kernel × nb.
const REPS: usize = 15;
/// One sample is a batch of calls at least this long, so that the clock
/// is read once per batch and not once per 100 ns call.
const SAMPLE_SECONDS: f64 = 0.005;

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median and median absolute deviation.
fn median_mad(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let m = median(&xs);
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    dev.sort_by(f64::total_cmp);
    (m, median(&dev))
}

/// [`REPS`] samples of `call`'s rate, `work` units a call, in 1e9 units
/// per second (GF/s for flops, GB/s for bytes).
fn rates(work: f64, call: &mut dyn FnMut()) -> Vec<f64> {
    let mut batch_seconds = |calls: u64| {
        let start = Instant::now();
        for _ in 0..calls {
            call();
        }
        start.elapsed().as_secs_f64()
    };
    let mut calls = 1;
    while batch_seconds(calls) < SAMPLE_SECONDS {
        calls *= 2;
    }
    (0..REPS)
        .map(|_| work * calls as f64 / batch_seconds(calls) / 1e9)
        .collect()
}

/// [`rates`] of a kernel in GF/s. Every call starts from the same
/// operand (copied back in, `nb²` against the kernel's `nb³`), so no value
/// drifts towards overflow or denormals.
fn gflops(flops: f64, from: &Tile, call: &mut dyn FnMut(&mut [f64])) -> Vec<f64> {
    let mut work = from.clone();
    rates(flops, &mut || {
        work.as_mut_slice().copy_from_slice(from.as_slice());
        call(black_box(work.as_mut_slice()));
    })
}

fn main() {
    let mut rows = Vec::new();
    for nb in SIZES {
        let r = Tile::random(nb, 1);
        let b = Tile::random(nb, 2);
        // Strictly diagonally dominant, and its symmetric part: safe to
        // factor without pivoting and positive definite.
        let shift = |i, j| if i == j { nb as f64 } else { 0.0 };
        let dd = Tile::from_fn(nb, |i, j| r.get(i, j) + shift(i, j));
        let spd = Tile::from_fn(nb, |i, j| (r.get(i, j) + r.get(j, i)) / 2.0 + shift(i, j));
        let mut lu = dd.clone();
        getrf_nopiv(lu.as_mut_slice(), nb).expect("diagonally dominant tile factors");
        let mut chol = spd.clone();
        potrf(chol.as_mut_slice(), nb).expect("SPD tile factors");
        let (ra, rb, lu, chol) = (r.as_slice(), b.as_slice(), lu.as_slice(), chol.as_slice());

        let mut rate = |name: &str,
                        kernel: Kernel,
                        from: &Tile,
                        call: &mut dyn FnMut(&mut [f64])| {
            let (median, mad) = median_mad(gflops(kernel.flops(nb), from, call));
            eprintln!("{name:<24} nb={nb:<4} {median:7.2} GF/s  (MAD {mad:.2})");
            rows.push(format!(
                "    {{\"kernel\": \"{name}\", \"nb\": {nb}, \"median_gflops\": {median:.3}, \"mad_gflops\": {mad:.3}}}"
            ));
        };
        rate("gemm_nn", Kernel::Gemm, &b, &mut |c| {
            gemm_nn(-1.0, ra, rb, 1.0, c, nb)
        });
        rate("gemm_nt", Kernel::Gemm, &b, &mut |c| {
            gemm_nt(-1.0, ra, rb, 1.0, c, nb)
        });
        rate("syrk_ln", Kernel::Syrk, &spd, &mut |c| {
            syrk_ln(-1.0, ra, 1.0, c, nb)
        });
        rate("trsm_right_upper", Kernel::Trsm, &b, &mut |x| {
            trsm_right_upper(lu, x, nb)
        });
        rate("trsm_left_lower_unit", Kernel::Trsm, &b, &mut |x| {
            trsm_left_lower_unit(lu, x, nb)
        });
        rate("trsm_right_lower_trans", Kernel::Trsm, &b, &mut |x| {
            trsm_right_lower_trans(chol, x, nb)
        });
        rate("potrf", Kernel::Potrf, &spd, &mut |a| {
            potrf(a, nb).expect("SPD tile factors")
        });
        rate("getrf_nopiv", Kernel::Getrf, &dd, &mut |a| {
            getrf_nopiv(a, nb).expect("dominant tile factors")
        });
    }

    let mut codec_rows = Vec::new();
    for nb in CODEC_SIZES {
        let msg = TileMsg {
            class: MsgClass::Panel,
            src: 0,
            i: 0,
            j: 0,
            epoch: 0,
            tile: Tile::random(nb, 1),
        };
        let frame = encode(&msg).expect("a benchmark tile size encodes");
        let mut rate = |name: &str, call: &mut dyn FnMut()| {
            let (median, mad) = median_mad(rates(frame.len() as f64, call));
            eprintln!("{name:<24} nb={nb:<4} {median:7.2} GB/s  (MAD {mad:.2})");
            codec_rows.push(format!(
                "    {{\"op\": \"{name}\", \"nb\": {nb}, \"median_gbps\": {median:.3}, \"mad_gbps\": {mad:.3}}}"
            ));
        };
        rate("codec.encode", &mut || {
            black_box(encode(black_box(&msg)).expect("encodes"));
        });
        rate("codec.decode", &mut || {
            black_box(decode(black_box(&frame)).expect("decodes"));
        });
        rate("codec.checksum", &mut || {
            black_box(checksum_of(black_box(&frame)));
        });
    }

    println!("{{");
    println!("  \"threads\": 1,");
    println!("  \"reps\": {REPS},");
    println!("  \"sample_seconds\": {SAMPLE_SECONDS},");
    println!("  \"kernels\": [\n{}\n  ],", rows.join(",\n"));
    println!("  \"codec\": [\n{}\n  ]", codec_rows.join(",\n"));
    println!("}}");
}
