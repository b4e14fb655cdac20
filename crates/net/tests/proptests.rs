//! Property-based tests of the wire layer.
//!
//! Two families:
//!
//! * **Conformance** — for random node counts, tile counts and schemes,
//!   the traffic a full distributed run actually puts on the wire equals
//!   the exact communication-volume counters of `flexdist-dist`, panel
//!   and trailing classes separately. This is the paper's counting model
//!   validated against a real message-passing execution rather than
//!   against itself.
//! * **Codec** — `TileMsg` framing round-trips losslessly for arbitrary
//!   payload bit patterns (NaNs, signed zeros, infinities) and extreme
//!   header values, and every truncation and every single-byte change
//!   of a valid frame is rejected.

use flexdist_core::{g2dbc, sbc, twodbc};
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume};
use flexdist_factor::{DexecOptions, Operation, Problem};
use flexdist_kernels::Tile;
use flexdist_net::codec::CHECKSUM_OFFSET;
use flexdist_net::{decode, encode, frame_len, MsgClass, NetError, TileMsg, HEADER_LEN, MAX_NB};
use proptest::prelude::*;

/// Pick a pattern for `p` nodes: 0 = G-2DBC, 1 = best-shape 2DBC,
/// 2 = largest admissible SBC at most `p`.
fn pattern_for(p: u32, pick: usize) -> flexdist_core::Pattern {
    match pick {
        0 => g2dbc::g2dbc(p),
        1 => twodbc::best_2dbc(p),
        _ => {
            let q = sbc::largest_admissible_at_most(p).expect("q=1 always admissible");
            sbc::sbc_extended(q).expect("admissible by construction")
        }
    }
}

/// Deterministic bit expander for payload generation (splitmix64).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One full distributed run of `op`: measured traffic equals the exact
/// counters per class, all bytes are whole frames, and the per-rank
/// sends and receives both tally up to the same total.
fn check_wire_volume(op: Operation, p: u32, t: usize, pick: usize) -> Result<(), TestCaseError> {
    let nb = 2;
    let problem = Problem::new(op, &pattern_for(p, pick), t, nb, u64::from(p) ^ 0xa5)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let report = problem
        .run(&DexecOptions::default())
        .map_err(|e| TestCaseError::fail(e.to_string()))?
        .report;
    prop_assert!(report.error.is_none());
    let exact = match op {
        Operation::Lu => lu_comm_volume(&problem.assignment),
        _ => cholesky_comm_volume(&problem.assignment),
    };
    prop_assert_eq!(problem.volume, Some(exact), "Operation::comm_volume");
    prop_assert_eq!(report.wire.panel, exact.panel, "panel class");
    prop_assert_eq!(report.wire.trailing, exact.trailing, "trailing class");
    prop_assert_eq!(report.bytes, exact.total() * frame_len(nb).unwrap() as u64);
    let sent: u64 = report.per_rank.iter().map(|r| r.sent_msgs).sum();
    prop_assert_eq!(sent, exact.total());
    let recvd: u64 = report.per_rank.iter().map(|r| r.recv_msgs).sum();
    prop_assert_eq!(recvd, exact.total());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Measured LU wire traffic equals the exact counters for any
    /// (scheme, P, t).
    #[test]
    fn lu_wire_volume_is_conformant(p in 2u32..=64, t in 4usize..9, pick in 0usize..3) {
        check_wire_volume(Operation::Lu, p, t, pick)?;
    }

    /// Same for Cholesky.
    #[test]
    fn cholesky_wire_volume_is_conformant(p in 2u32..=64, t in 4usize..9, pick in 0usize..3) {
        check_wire_volume(Operation::Cholesky, p, t, pick)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The codec round-trips every payload bit pattern — including NaNs
    /// with arbitrary mantissas, signed zeros and infinities — and
    /// arbitrary header values up to the u32 maxima, bitwise.
    #[test]
    fn codec_round_trips_losslessly(
        nb in 1usize..7,
        seed in 0u64..=u64::MAX,
        class_bit in 0u32..2,
        i in 0u32..=u32::MAX,
        j in 0u32..=u32::MAX,
        epoch in 0u32..=u32::MAX,
        src in 0u32..=u32::MAX,
    ) {
        let specials = [f64::NAN, -f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE / 2.0];
        let tile = Tile::from_fn(nb, |r, c| {
            let bits = mix(seed ^ ((r as u64) << 32) ^ c as u64);
            // Sprinkle special values on a pseudo-random subset.
            if bits.is_multiple_of(7) {
                specials[(bits / 7 % specials.len() as u64) as usize]
            } else {
                f64::from_bits(bits)
            }
        });
        let class = if class_bit == 0 { MsgClass::Panel } else { MsgClass::Trailing };
        let msg = TileMsg { class, src, i, j, epoch, tile };
        let frame = encode(&msg).unwrap();
        prop_assert_eq!(frame.len(), frame_len(nb).unwrap());
        let back = decode(&frame).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.class, msg.class);
        prop_assert_eq!(back.src, msg.src);
        prop_assert_eq!(back.i, msg.i);
        prop_assert_eq!(back.j, msg.j);
        prop_assert_eq!(back.epoch, msg.epoch);
        prop_assert!(back.bitwise_eq(&msg), "payload bits changed in flight");
    }

    /// The encoder's size gate accepts exactly the codec domain
    /// `1 ..= MAX_NB` and rejects everything else with a **typed**
    /// `BadTileSize` — in particular sizes whose low 32 bits alias a
    /// valid `nb`, which the old unchecked `as u32` cast silently
    /// truncated into well-formed frames of the wrong tile.
    #[test]
    fn frame_len_accepts_exactly_the_codec_domain(nb in 0usize..200_000) {
        match frame_len(nb) {
            Ok(len) => {
                prop_assert!(nb >= 1 && nb <= MAX_NB as usize, "nb {nb} outside domain");
                prop_assert_eq!(len, HEADER_LEN + 8 * nb * nb);
            }
            Err(NetError::BadTileSize { nb: reported }) => {
                prop_assert!(nb == 0 || nb > MAX_NB as usize, "nb {nb} wrongly rejected");
                prop_assert_eq!(u64::from(reported), nb as u64, "reported size must not alias");
            }
            Err(other) => return Err(TestCaseError::fail(format!(
                "nb {nb}: expected BadTileSize, got {other:?}"
            ))),
        }
    }

    /// Sizes that wrap the 32-bit header field — `nb ≡ small (mod 2^32)`
    /// — are rejected, never truncated into a frame that decodes as a
    /// different (valid) tile size.
    #[test]
    fn frame_len_rejects_u32_aliasing_sizes(alias in 1u64..=65_536, wraps in 1u64..4) {
        let nb = usize::try_from(alias + (wraps << 32)).expect("64-bit platform");
        match frame_len(nb) {
            Err(NetError::BadTileSize { nb: reported }) => {
                // The clamp reports u32::MAX for anything beyond the
                // field, never the aliased low bits.
                prop_assert_eq!(reported, u32::MAX);
            }
            other => return Err(TestCaseError::fail(format!(
                "aliasing nb {nb}: expected BadTileSize, got {other:?}"
            ))),
        }
    }

    /// Every strict prefix of a valid frame is rejected as truncated —
    /// the decoder never reads past the bytes it was given and never
    /// fabricates a tile from a short read.
    #[test]
    fn codec_rejects_every_truncation(nb in 1usize..5, seed in 0u64..=u64::MAX, frac in 0u32..1000) {
        let tile = Tile::from_fn(nb, |r, c| f64::from_bits(mix(seed ^ ((r as u64) << 20) ^ c as u64)));
        let msg = TileMsg { class: MsgClass::Trailing, src: 3, i: 1, j: 2, epoch: 1, tile };
        let frame = encode(&msg).unwrap();
        let cut = (frac as usize * (frame.len() - 1)) / 1000;
        match decode(&frame[..cut]) {
            Err(NetError::Truncated { need, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(need > got);
            }
            other => return Err(TestCaseError::fail(format!(
                "truncated frame ({cut} of {} bytes) decoded as {other:?}",
                frame.len()
            ))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// XOR of any non-zero mask into any one byte of a frame — header,
    /// checksum field or payload, each region drawn as often as the
    /// others — is refused with a typed error; in the payload and the
    /// checksum field the refusal is the checksum's own.
    #[test]
    fn codec_rejects_every_single_byte_change(
        nb in 1usize..=12,
        seed in 0u64..=u64::MAX,
        region in 0usize..3,
        at in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let tile = Tile::from_fn(nb, |r, c| f64::from_bits(mix(seed ^ ((r as u64) << 20) ^ c as u64)));
        let msg = TileMsg { class: MsgClass::Panel, src: seed as u32, i: 4, j: 7, epoch: 4, tile };
        let mut frame = encode(&msg).unwrap();
        let (from, to) = [(0, CHECKSUM_OFFSET), (CHECKSUM_OFFSET, HEADER_LEN), (HEADER_LEN, frame.len())][region];
        let at = from + at % (to - from);
        frame[at] ^= mask;
        match decode(&frame) {
            Ok(_) => return Err(TestCaseError::fail(format!(
                "nb {nb}: byte {at} ^ {mask:#04x} decoded fine"
            ))),
            Err(NetError::ChecksumMismatch { .. }) => {}
            // Magic, class and `nb` are checked before the sum.
            Err(
                NetError::BadMagic { .. }
                | NetError::BadClass { .. }
                | NetError::BadTileSize { .. }
                | NetError::Truncated { .. }
                | NetError::FrameOverrun { .. },
            ) => prop_assert!(at < 5 || (21..25).contains(&at), "byte {at} is not structural"),
            Err(other) => return Err(TestCaseError::fail(format!("byte {at}: untyped {other:?}"))),
        }
    }
}
