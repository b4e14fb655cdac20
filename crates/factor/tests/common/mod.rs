//! The deployment matrix the differential suites of this crate share.

use flexdist_core::{g2dbc, gcrm, sbc, Pattern};

/// Node counts exercised: a degenerate pair, the paper's "one more than
/// a perfect square" case, primes, and a composite with several 2DBC
/// shapes.
pub const NODE_COUNTS: [u32; 5] = [2, 4, 5, 7, 12];

/// Every scheme that can serve `p` nodes (SBC falls back to the largest
/// admissible count at most `p`, as the paper's §V deployment story
/// prescribes).
pub fn schemes_for(p: u32) -> Vec<(String, Pattern)> {
    let mut out = vec![(format!("g2dbc(p{p})"), g2dbc::g2dbc(p))];
    let res = gcrm::search(
        p,
        &gcrm::GcrmConfig {
            n_seeds: 3,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("GCR&M covers P={p}: {e}"));
    out.push((format!("gcrm(p{p})"), res.best));
    let q = sbc::largest_admissible_at_most(p).expect("some admissible count <= p");
    out.push((
        format!("sbc(p{q}<=p{p})"),
        sbc::sbc_extended(q).expect("admissible by construction"),
    ));
    out
}
