//! **Conformance harness** — measured wire traffic of the distributed
//! executor against the exact counters and the paper's closed forms
//! (Eq. 1 for LU over G-2DBC/2DBC, Eq. 2 for Cholesky over SBC), over a
//! grid of tile counts. The `measured` and `exact` columns must agree
//! exactly at every point (the run aborts otherwise); the `eq_rel_err`
//! column shows the closed form converging from above as `t` grows —
//! the executed version of the §III-A discussion.
//!
//! `cargo run --release -p flexdist-bench --bin wire_volume [-- --p 23 --tiles 8,16,32]`

use flexdist_bench::{f3, tsv_header, tsv_row, Args};
use flexdist_core::{g2dbc, sbc, Pattern};
use flexdist_dist::comm::{cholesky_comm_estimate, lu_comm_estimate};
use flexdist_factor::{DexecOptions, Operation, Problem};

fn run_point(op: Operation, name: &str, pat: &Pattern, t: usize) {
    // 1x1 tiles: we are counting messages, not flops.
    let problem = Problem::new(op, pat, t, 1, 42)
        .unwrap_or_else(|e| panic!("{} {name} t={t}: {e}", op.name()));
    let exact = problem.volume.expect("LU and Cholesky have a closed form");
    let estimate = match op {
        Operation::Lu => lu_comm_estimate(pat, t),
        _ => cholesky_comm_estimate(pat, t),
    };
    let report = match problem.run(&DexecOptions::default()) {
        Ok(out) => out.report,
        Err(e) => {
            eprintln!("{} {name} t={t}: protocol error: {e}", op.name());
            std::process::exit(1);
        }
    };
    assert_eq!(
        report.wire,
        exact,
        "{} {name} t={t}: measured traffic diverges from exact counters",
        op.name()
    );
    let measured = report.wire.trailing as f64;
    tsv_row(&[
        op.name().to_string(),
        name.to_string(),
        t.to_string(),
        report.wire.panel.to_string(),
        report.wire.trailing.to_string(),
        exact.total().to_string(),
        f3(estimate),
        f3((estimate - measured).abs() / estimate.max(1.0)),
    ]);
}

fn main() {
    let args = Args::parse(&["p", "tiles"]);
    let p: u32 = args.get("p", 23);
    let tiles: String = args.get("tiles", "8,16,32".to_string());
    let tiles: Vec<usize> = tiles
        .split(',')
        .map(|s| s.trim().parse().expect("bad --tiles entry"))
        .collect();

    eprintln!("# Measured wire volume vs exact counters vs Eq. 1/2, P = {p}");
    tsv_header(&[
        "op",
        "distribution",
        "t",
        "measured_panel",
        "measured_trailing",
        "exact_total",
        "eq_estimate",
        "eq_rel_err",
    ]);

    let g = g2dbc::g2dbc(p);
    for &t in &tiles {
        run_point(Operation::Lu, "G-2DBC", &g, t);
    }
    if let Some(q) = sbc::largest_admissible_at_most(p) {
        let s = sbc::sbc_extended(q).expect("admissible by construction");
        for &t in &tiles {
            run_point(Operation::Cholesky, &format!("SBC(P={q})"), &s, t);
        }
    }
}
