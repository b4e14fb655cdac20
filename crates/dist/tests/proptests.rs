//! Property-based tests of tile assignment and communication counting.

use flexdist_core::{cost, g2dbc, sbc, twodbc};
use flexdist_dist::comm::{cholesky_comm_estimate, lu_comm_estimate};
use flexdist_dist::{
    cholesky_comm_volume, lu_comm_volume, spliced_chain, spliced_volume, TileAssignment, Walk,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Eq. 1 is an over-approximation of the exact LU volume and converges
    /// from above (domain shrinking only removes sends).
    #[test]
    fn lu_estimate_overapproximates(r in 1usize..6, c in 1usize..6, mult in 2usize..8) {
        let pat = twodbc::two_dbc(r, c);
        let t = mult * r.max(c);
        let a = TileAssignment::cyclic(&pat, t);
        let exact = lu_comm_volume(&a).trailing as f64;
        let est = lu_comm_estimate(&pat, t);
        prop_assert!(est >= exact - 1e-6, "estimate {} < exact {}", est, exact);
    }

    /// Same for Cholesky (Eq. 2) over SBC patterns.
    #[test]
    fn cholesky_estimate_overapproximates(pick in 0usize..6, mult in 2usize..6) {
        let admissible = [3u32, 6, 8, 10, 15, 21];
        let p = admissible[pick];
        let pat = sbc::sbc_basic(p).unwrap();
        let t = mult * pat.rows();
        let a = TileAssignment::extended(&pat, t);
        let exact = cholesky_comm_volume(&a).trailing as f64;
        let est = cholesky_comm_estimate(&pat, t);
        prop_assert!(est >= exact - 1e-6, "estimate {} < exact {}", est, exact);
    }

    /// Extended assignment: tiles on diagonal pattern cells always land on
    /// a node of the corresponding pattern colrow, and the map is symmetric.
    #[test]
    fn extended_respects_colrows(pick in 0usize..5, t in 4usize..30) {
        let admissible = [6u32, 10, 15, 21, 28];
        let p = admissible[pick];
        let pat = sbc::sbc_extended(p).unwrap();
        let r = pat.rows();
        let a = TileAssignment::extended(&pat, t);
        for i in 0..t {
            for j in 0..t {
                prop_assert_eq!(a.owner(i, j), a.owner(j, i));
                if i % r == j % r {
                    let cr = pat.colrow_nodes(i % r);
                    prop_assert!(cr.contains(&a.owner(i, j)));
                } else {
                    prop_assert_eq!(Some(a.owner(i, j)), pat.tile_owner(i, j));
                }
            }
        }
    }

    /// k-fold re-map composition (the cascade chain): after each of up
    /// to three crashes, every tile has exactly one live owner — never
    /// a casualty — surviving tiles never move, and each orphaned tile
    /// goes to the least-loaded live rank at its assignment step, ties
    /// to the lowest rank id (checked against an independent greedy
    /// replay of the documented rule).
    #[test]
    fn k_fold_remap_keeps_one_live_owner_and_the_greedy_tiebreak(
        p in 3u32..32,
        t in 4usize..16,
        k in 1usize..4,
        pick0 in 0u32..32,
        pick1 in 0u32..32,
        pick2 in 0u32..32,
    ) {
        let picks = [pick0, pick1, pick2];
        let a = TileAssignment::extended(&g2dbc::g2dbc(p), t);
        let mut cur = a.clone();
        let mut gone: Vec<u32> = Vec::new();
        for (step, pick) in picks.iter().enumerate().take(k.min((p - 1) as usize)) {
            // A casualty not yet dead, spread over the live range.
            let mut dead = pick % p;
            while gone.contains(&dead) {
                dead = (dead + 1) % p;
            }
            let next = cur.remap_excluding(dead, &gone);

            // Independent greedy replay: row-major orphans to the
            // least-loaded live rank, ties to the lowest id.
            let mut loads = vec![0usize; p as usize];
            for i in 0..t {
                for j in 0..t {
                    loads[cur.owner(i, j) as usize] += 1;
                }
            }
            let live = |n: u32| n != dead && !gone.contains(&n);
            for i in 0..t {
                for j in 0..t {
                    let before = cur.owner(i, j);
                    let after = next.owner(i, j);
                    if before != dead {
                        prop_assert_eq!(after, before, "surviving tile ({},{}) moved", i, j);
                        continue;
                    }
                    let heir = (0..p)
                        .filter(|&n| live(n))
                        .min_by_key(|&n| (loads[n as usize], n))
                        .unwrap();
                    prop_assert_eq!(after, heir, "tile ({},{}) skipped the greedy heir", i, j);
                    loads[heir as usize] += 1;
                }
            }

            gone.push(dead);
            cur = next;
            // Exactly one live owner per tile at this intermediate P-i.
            for i in 0..t {
                for j in 0..t {
                    prop_assert!(
                        !gone.contains(&cur.owner(i, j)),
                        "tile ({},{}) owned by casualty {} after step {}",
                        i, j, cur.owner(i, j), step
                    );
                }
            }
        }
    }

    /// An all-identical map chain (every re-map inactive) yields exactly
    /// the k = 0 stream, whatever the crash list, with nothing flagged
    /// recovered — for both walks, over fully-defined and extended
    /// patterns.
    #[test]
    fn identical_chain_is_the_crash_free_stream(
        symmetric in 0u32..2,
        pick in 0usize..5,
        p in 2u32..24,
        t in 2usize..14,
        raw in proptest::collection::vec((0u32..24, 0usize..16), 0..4),
    ) {
        let a = if symmetric == 1 {
            let admissible = [6u32, 10, 15, 21, 28];
            TileAssignment::extended(&sbc::sbc_extended(admissible[pick]).unwrap(), t)
        } else {
            TileAssignment::cyclic(&g2dbc::g2dbc(p), t)
        };
        // Distinct in-range ranks, sorted by (epoch, rank).
        let mut crashes: Vec<(u32, usize)> = Vec::new();
        for (rank, epoch) in raw {
            let rank = rank % a.n_nodes();
            if crashes.iter().all(|&(d, _)| d != rank) {
                crashes.push((rank, epoch));
            }
        }
        crashes.sort_unstable_by_key(|&(d, e)| (e, d));
        let maps = vec![a.clone(); crashes.len() + 1];
        for (walk, volume) in [
            (Walk::Lu, lu_comm_volume(&a)),
            (Walk::Cholesky, cholesky_comm_volume(&a)),
        ] {
            let plain = spliced_chain(walk, std::slice::from_ref(&a), &[]);
            prop_assert_eq!(&spliced_chain(walk, &maps, &crashes), &plain);
            prop_assert!(plain.iter().all(|m| m.recovered.iter().all(|&f| !f)));
            let v = spliced_volume(&plain);
            prop_assert_eq!(v.total, volume);
            prop_assert_eq!(v.recovered.total(), 0);
        }
    }

    /// Lower communication cost implies lower exact volume, across the
    /// 2DBC shape family at fixed P (monotonicity of Eq. 1 in T).
    #[test]
    fn cost_orders_volumes_within_2dbc_family(mult in 3usize..8) {
        let shapes = [(12usize, 1usize), (6, 2), (4, 3)];
        let t = 12 * mult;
        let mut last: Option<(f64, u64)> = None;
        for (r, c) in shapes {
            let pat = twodbc::two_dbc(r, c);
            let vol = lu_comm_volume(&TileAssignment::cyclic(&pat, t)).trailing;
            let tc = cost::lu_cost(&pat);
            if let Some((pt, pv)) = last {
                // Strictly smaller cost => strictly smaller volume.
                if tc < pt {
                    prop_assert!(vol < pv, "T {} < {} but volume {} >= {}", tc, pt, vol, pv);
                }
            }
            last = Some((tc, vol));
        }
    }

    /// Full tile counts are exactly balanced whenever t is a multiple of
    /// both pattern dimensions (each replica contributes one full pattern).
    #[test]
    fn cyclic_balance_on_multiples(p in 2u32..60, mult in 1usize..4) {
        let pat = g2dbc::g2dbc(p);
        let t_lcm = flexdist_core::cost::lcm(pat.rows(), pat.cols());
        prop_assume!(t_lcm * mult <= 400);
        let a = TileAssignment::cyclic(&pat, t_lcm * mult);
        let counts = a.tile_counts_full();
        let first = counts[0];
        prop_assert!(counts.iter().all(|&ct| ct == first), "{:?}", counts);
    }

    /// Panel volume is always dominated by trailing volume for big enough
    /// matrices (the paper's justification for dropping it from Eq. 1/2).
    #[test]
    fn panel_term_is_lower_order(p in 4u32..40, mult in 4usize..8) {
        let pat = g2dbc::g2dbc(p);
        let t = pat.rows().max(pat.cols()) * mult / 2;
        prop_assume!((8..=220).contains(&t));
        let a = TileAssignment::cyclic(&pat, t);
        let v = lu_comm_volume(&a);
        prop_assert!(v.panel <= v.trailing,
            "panel {} > trailing {} at t = {}", v.panel, v.trailing, t);
    }
}
