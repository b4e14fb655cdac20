//! Wire format of a tile message.
//!
//! A frame is a header followed by the tile payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "FXT3"
//! 4       1     class  (0 = panel, 1 = trailing)
//! 5       4     src    sending rank,           u32 LE
//! 9       4     i      tile row,               u32 LE
//! 13      4     j      tile column,            u32 LE
//! 17      4     epoch  broadcast iteration ℓ,  u32 LE
//! 21      4     nb     tile dimension,         u32 LE
//! 25      8     checksum (lane checksum of the rest of the frame), u64 LE
//! 33      8·nb² payload, column-major f64 bits, LE
//! ```
//!
//! The checksum ([`checksum_of`]) covers every frame byte except its own
//! field and reads the frame as little-endian 64-bit words, not bytes.
//! With `mix(h, w) = x ^ (x >> 32)` where `x = (h ^ w) · PRIME mod 2^64`:
//!
//! * eight lanes start at `mix(PRIME, k)`, `k = 0..8`;
//! * the 25 header bytes, as four zero-padded words, go through lane 0;
//! * payload word `k` goes through lane `k mod 8`, so the eight multiply
//!   chains run side by side instead of one multiply per byte;
//! * the result is `mix(fold, frame length)`, `fold` being lane 0 with
//!   lanes 1..8 mixed in, in order.
//!
//! Any change confined to one byte is rejected with a typed decode
//! error. `mix` is a bijection of `h` for a fixed `w` and of `w` for a
//! fixed `h` (an XOR, a multiplication by an odd constant and an
//! xorshift are each invertible on 64 bits). A changed byte changes
//! exactly one word, hence the state of its lane right after that word;
//! every later step of the lane, and every step of the fold, maps
//! distinct states to distinct states, so the sum differs and the frame
//! fails with [`NetError::ChecksumMismatch`] — or with one of the
//! structural errors when the byte sits in the magic, the class or the
//! length-bearing `nb` field, which are checked first. The magic is at
//! version 3 because the checksum changed: an "FXT2" (FNV-1a) or "FXTM"
//! (unchecksummed) frame fails with `BadMagic` instead of being misread.
//!
//! Payload values travel as raw IEEE-754 bit patterns
//! (`f64::to_bits`/`from_bits`), so the round trip is the identity on
//! *every* bit pattern — including NaNs with arbitrary payloads, signed
//! zeros and subnormals. That is what lets the distributed executor
//! promise bitwise-identical results to the shared-memory one.

use crate::error::NetError;
use flexdist_kernels::Tile;

/// Frame magic: "FXT3" (FleXdist Tile message, version 3 — lane checksum).
pub const MAGIC: [u8; 4] = *b"FXT3";

/// Bytes before the payload (including the checksum field).
pub const HEADER_LEN: usize = 33;

/// Byte offset of the u64 checksum field inside the header.
pub const CHECKSUM_OFFSET: usize = 25;

/// Tiles above this dimension are rejected as implausible (a guard
/// against decoding garbage length fields into huge allocations).
pub const MAX_NB: u32 = 1 << 16;

/// Which phase of the Fig. 2 broadcast scheme a message belongs to.
/// Mirrors the two counters of
/// [`CommBreakdown`](flexdist_dist::CommBreakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Factorized diagonal tile to the panel solvers.
    Panel,
    /// Solved panel tile into the trailing-submatrix update.
    Trailing,
}

impl MsgClass {
    /// Wire byte of the class.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Self::Panel => 0,
            Self::Trailing => 1,
        }
    }

    /// Parse the wire byte.
    ///
    /// # Errors
    /// `BadClass` on unknown bytes.
    pub fn from_byte(b: u8) -> Result<Self, NetError> {
        match b {
            0 => Ok(Self::Panel),
            1 => Ok(Self::Trailing),
            got => Err(NetError::BadClass { got }),
        }
    }

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Panel => "panel",
            Self::Trailing => "trailing",
        }
    }
}

/// Identity of a broadcast replica: which tile, at which iteration.
///
/// In the right-looking panel/trailing scheme every tile is broadcast at
/// most once, at epoch `min(i, j)` — the iteration that finalizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileKey {
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Broadcast iteration.
    pub epoch: u32,
}

impl TileKey {
    /// The only epoch at which tile `(i, j)` is ever broadcast.
    #[must_use]
    pub fn expected_epoch(i: u32, j: u32) -> u32 {
        i.min(j)
    }
}

/// One tile in flight: header identity plus the payload.
#[derive(Debug, Clone)]
pub struct TileMsg {
    /// Panel or trailing broadcast.
    pub class: MsgClass,
    /// Sending rank.
    pub src: u32,
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Broadcast iteration.
    pub epoch: u32,
    /// The tile data.
    pub tile: Tile,
}

impl TileMsg {
    /// The replica identity of this message.
    #[must_use]
    pub fn key(&self) -> TileKey {
        TileKey {
            i: self.i,
            j: self.j,
            epoch: self.epoch,
        }
    }

    /// Bit-exact equality (headers equal, payloads equal as raw bits —
    /// NaN payloads compare by pattern, not by IEEE `==`).
    #[must_use]
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.src == other.src
            && self.i == other.i
            && self.j == other.j
            && self.epoch == other.epoch
            && self.tile.nb() == other.tile.nb()
            && self
                .tile
                .as_slice()
                .iter()
                .zip(other.tile.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The header's `nb` field and the frame length behind [`frame_len`].
fn checked_len(nb: usize) -> Result<(u32, usize), NetError> {
    let nb32 = u32::try_from(nb).unwrap_or(u32::MAX);
    if nb32 == 0 || nb32 > MAX_NB || nb32 as usize != nb {
        return Err(NetError::BadTileSize { nb: nb32 });
    }
    // nb <= MAX_NB = 2^16, so the payload is at most 8 * 2^32 = 2^35
    // bytes: exact in u64, but possibly outside usize on 32-bit targets.
    let len = HEADER_LEN as u64 + 8 * nb as u64 * nb as u64;
    let len = usize::try_from(len).map_err(|_| NetError::BadTileSize { nb: nb32 })?;
    Ok((nb32, len))
}

/// Exact frame length of a message carrying an `nb × nb` tile.
///
/// Applies the same plausibility guard as [`decode`] — `nb` must lie in
/// `[1, MAX_NB]` — and computes the length in 64-bit arithmetic, so an
/// absurd `nb` is rejected with a typed error instead of wrapping the
/// length (release) or panicking (debug) on 32-bit targets.
///
/// # Errors
/// `BadTileSize` when `nb` is zero or above [`MAX_NB`]. Sizes beyond
/// `u32::MAX` (unrepresentable in the header) saturate the reported
/// `nb` field to `u32::MAX`.
pub fn frame_len(nb: usize) -> Result<usize, NetError> {
    checked_len(nb).map(|(_, len)| len)
}

/// Independent checksum lanes: enough multiply chains in flight to keep
/// one core's multiplier busy.
const LANES: usize = 8;

/// Odd 64-bit multiplier of [`mix`] (the first xxHash64 prime).
const PRIME: u64 = 0x9e37_79b1_85eb_ca87;

/// One checksum step: a bijection of `h` for a fixed `w` and of `w` for
/// a fixed `h` (see the module docs for why that matters).
fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(PRIME);
    x ^ (x >> 32)
}

/// Up to eight bytes as a little-endian word, zero-padded.
fn padded_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Lane checksum over every frame byte except the checksum field itself
/// (the definition is in the module docs). Total on any byte string: a
/// short header is what there is of it, and payload bytes past the last
/// whole word go zero-padded to the next lane, the mixed-in length
/// telling the padding from data.
#[must_use]
pub fn checksum_of(frame: &[u8]) -> u64 {
    let (header, rest) = frame.split_at(frame.len().min(CHECKSUM_OFFSET));
    let payload = rest.get(HEADER_LEN - CHECKSUM_OFFSET..).unwrap_or(&[]);
    let mut lanes: [u64; LANES] = std::array::from_fn(|k| mix(PRIME, k as u64));
    for bytes in header.chunks(8) {
        lanes[0] = mix(lanes[0], padded_word(bytes));
    }
    let (words, tail) = payload.as_chunks::<8>();
    let (blocks, last) = words.as_chunks::<LANES>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let last = last.iter().map(|word| u64::from_le_bytes(*word));
    let tail = (!tail.is_empty()).then(|| padded_word(tail));
    for (lane, word) in lanes.iter_mut().zip(last.chain(tail)) {
        *lane = mix(*lane, word);
    }
    let fold = lanes[1..].iter().fold(lanes[0], |h, &lane| mix(h, lane));
    mix(fold, frame.len() as u64)
}

/// Serialize one tile into a frame without taking ownership of it: what
/// a broadcast calls once per receiver on the same borrowed tile.
///
/// Mirrors the guards of [`decode`]: a tile with `nb == 0` or
/// `nb > MAX_NB` is rejected *here*, with the same typed error, instead
/// of being encoded into a frame every peer must refuse.
///
/// # Errors
/// `BadTileSize` when the tile dimension fails the decode-side bounds.
pub fn encode_tile(
    class: MsgClass,
    src: u32,
    key: TileKey,
    tile: &Tile,
) -> Result<Vec<u8>, NetError> {
    let (nb, len) = checked_len(tile.nb())?;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&MAGIC);
    out.push(class.to_byte());
    for field in [src, key.i, key.j, key.epoch, nb] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&[0u8; 8]); // checksum placeholder
    let payload = tile.as_slice().iter();
    out.extend(payload.flat_map(|v| v.to_bits().to_le_bytes()));
    let sum = checksum_of(&out);
    out[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// Serialize a message into one frame: [`encode_tile`] on its parts.
///
/// # Errors
/// `BadTileSize` when the tile dimension fails the decode-side bounds.
pub fn encode(msg: &TileMsg) -> Result<Vec<u8>, NetError> {
    encode_tile(msg.class, msg.src, msg.key(), &msg.tile)
}

/// Deserialize exactly one frame.
///
/// # Errors
/// `Truncated` when bytes are missing, `FrameOverrun` when trailing
/// bytes follow the payload, `BadMagic`/`BadClass`/`BadTileSize` on a
/// corrupt header, `ChecksumMismatch` when any other byte was flipped
/// in flight.
pub fn decode(frame: &[u8]) -> Result<TileMsg, NetError> {
    let Some((header, payload)) = frame.split_first_chunk::<HEADER_LEN>() else {
        return Err(NetError::Truncated {
            need: HEADER_LEN,
            got: frame.len(),
        });
    };
    let u32_at = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(NetError::BadMagic { got: magic });
    }
    let class = MsgClass::from_byte(header[4])?;
    let [src, i, j, epoch, nb32] = [5, 9, 13, 17, 21].map(u32_at);
    if nb32 == 0 || nb32 > MAX_NB {
        return Err(NetError::BadTileSize { nb: nb32 });
    }
    let nb = nb32 as usize;
    let need = frame_len(nb)?;
    if frame.len() < need {
        return Err(NetError::Truncated {
            need,
            got: frame.len(),
        });
    }
    if frame.len() > need {
        return Err(NetError::FrameOverrun {
            expected: need,
            got: frame.len(),
        });
    }
    let want = padded_word(&header[CHECKSUM_OFFSET..]);
    let got = checksum_of(frame);
    if want != got {
        return Err(NetError::ChecksumMismatch { want, got });
    }
    let mut tile = Tile::zeros(nb);
    let (words, _) = payload.as_chunks::<8>();
    for (slot, word) in tile.as_mut_slice().iter_mut().zip(words) {
        *slot = f64::from_bits(u64::from_le_bytes(*word));
    }
    Ok(TileMsg {
        class,
        src,
        i,
        j,
        epoch,
        tile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nb: usize) -> TileMsg {
        TileMsg {
            class: MsgClass::Trailing,
            src: 3,
            i: 7,
            j: 2,
            epoch: 2,
            tile: Tile::from_fn(nb, |i, j| (i * 10 + j) as f64 - 4.5),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let msg = sample(4);
        let frame = encode(&msg).unwrap();
        assert_eq!(frame.len(), frame_len(4).unwrap());
        let back = decode(&frame).unwrap();
        assert!(msg.bitwise_eq(&back));
    }

    #[test]
    fn frame_len_guards_match_decode_bounds() {
        assert_eq!(frame_len(0).unwrap_err(), NetError::BadTileSize { nb: 0 });
        assert_eq!(frame_len(1).unwrap(), HEADER_LEN + 8);
        let max = MAX_NB as usize;
        assert_eq!(frame_len(max).unwrap(), HEADER_LEN + 8 * max * max);
        assert_eq!(
            frame_len(max + 1).unwrap_err(),
            NetError::BadTileSize { nb: MAX_NB + 1 }
        );
        // Beyond u32: the header cannot carry it; the error saturates.
        assert_eq!(
            frame_len(usize::MAX).unwrap_err(),
            NetError::BadTileSize { nb: u32::MAX }
        );
    }

    #[test]
    fn nan_and_signed_zero_payloads_survive() {
        let mut msg = sample(2);
        let s = msg.tile.as_mut_slice();
        s[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN with payload
        s[1] = -0.0;
        s[2] = f64::INFINITY;
        s[3] = f64::MIN_POSITIVE / 2.0; // subnormal
        let back = decode(&encode(&msg).unwrap()).unwrap();
        assert!(msg.bitwise_eq(&back));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = encode(&sample(3)).unwrap();
        for cut in 0..frame.len() {
            let err = decode(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, NetError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn overrun_and_corrupt_headers_are_rejected() {
        let frame = encode(&sample(2)).unwrap();
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode(&long).unwrap_err(),
            NetError::FrameOverrun { .. }
        ));
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'Z';
        assert!(matches!(
            decode(&bad_magic).unwrap_err(),
            NetError::BadMagic { .. }
        ));
        let mut bad_class = frame.clone();
        bad_class[4] = 9;
        assert!(matches!(
            decode(&bad_class).unwrap_err(),
            NetError::BadClass { got: 9 }
        ));
        let mut zero_nb = frame;
        zero_nb[21..25].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode(&zero_nb).unwrap_err(),
            NetError::BadTileSize { nb: 0 }
        ));
    }

    #[test]
    fn any_single_byte_flip_is_rejected_typed() {
        let frame = encode(&sample(3)).unwrap();
        for at in 0..frame.len() {
            for mask in [0x01u8, 0x80] {
                let mut bad = frame.clone();
                bad[at] ^= mask;
                let err = decode(&bad);
                assert!(
                    err.is_err(),
                    "byte {at} flipped with {mask:#x} decoded fine"
                );
            }
        }
        // Flips outside the length-bearing fields are caught by checksum.
        let mut bad = frame.clone();
        bad[HEADER_LEN + 3] ^= 0x40; // payload byte
        assert!(matches!(
            decode(&bad).unwrap_err(),
            NetError::ChecksumMismatch { .. }
        ));
        let mut bad = frame.clone();
        bad[CHECKSUM_OFFSET] ^= 0x10; // checksum field itself
        assert!(matches!(
            decode(&bad).unwrap_err(),
            NetError::ChecksumMismatch { .. }
        ));
        // A valid-looking class flip (0 <-> 1) is also caught.
        let mut bad = frame;
        bad[4] ^= 0x01;
        assert!(matches!(
            decode(&bad).unwrap_err(),
            NetError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn older_magics_are_rejected_not_misread() {
        for old in [b"FXT2", b"FXTM"] {
            let mut frame = encode(&sample(2)).unwrap();
            frame[..4].copy_from_slice(old);
            assert!(matches!(
                decode(&frame).unwrap_err(),
                NetError::BadMagic { got } if &got == old
            ));
        }
    }

    /// The definition in the module docs, one byte at a time: bytes are
    /// gathered into little-endian words; header words go to lane 0,
    /// payload word `k` to lane `k mod 8`; lanes are folded in order and
    /// the length goes in last.
    fn checksum_by_bytes(frame: &[u8]) -> u64 {
        let mut lanes = [0u64; 8];
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(PRIME, k as u64);
        }
        let (mut word, mut filled, mut payload_words) = (0u64, 0u32, 0usize);
        for (at, &byte) in frame.iter().enumerate() {
            if (CHECKSUM_OFFSET..HEADER_LEN).contains(&at) {
                continue;
            }
            word |= u64::from(byte) << (8 * filled);
            filled += 1;
            // The header's last word is the single byte before the
            // checksum field; every other word closes when full or when
            // the frame ends.
            if filled == 8 || at + 1 == CHECKSUM_OFFSET || at + 1 == frame.len() {
                let lane = if at < CHECKSUM_OFFSET {
                    0
                } else {
                    payload_words += 1;
                    (payload_words - 1) % 8
                };
                lanes[lane] = mix(lanes[lane], word);
                (word, filled) = (0, 0);
            }
        }
        let mut sum = lanes[0];
        for &lane in &lanes[1..] {
            sum = mix(sum, lane);
        }
        mix(sum, frame.len() as u64)
    }

    #[test]
    fn lane_checksum_equals_its_byte_serial_definition() {
        // Word counts below, at and off every multiple of the lane
        // count: nb = 1, 3, 5 leave 1, 1 and 1 words past a block,
        // nb = 2, 6 leave 4, nb = 4, 8 none.
        for nb in [1usize, 2, 3, 4, 5, 6, 8, 11] {
            for seed in 0..8u64 {
                let msg = TileMsg {
                    class: MsgClass::Panel,
                    src: seed as u32,
                    i: 9,
                    j: 4,
                    epoch: 4,
                    tile: Tile::random(nb, seed * 31 + nb as u64),
                };
                let frame = encode(&msg).unwrap();
                assert_eq!(checksum_of(&frame), checksum_by_bytes(&frame), "nb {nb}");
            }
        }
        // Not frames at all: every length up to a few words past the
        // header, so short headers and ragged tails agree too.
        let bytes: Vec<u8> = (0..HEADER_LEN + 100).map(|k| (k * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            assert_eq!(checksum_of(cut), checksum_by_bytes(cut), "length {len}");
        }
    }

    /// Pinned frames: the wire format cannot drift without these moving.
    #[test]
    fn known_answer_vectors() {
        let frame_of = |class, src, (i, j, epoch), nb, f: &dyn Fn(usize, usize) -> f64| {
            let tile = Tile::from_fn(nb, f);
            encode_tile(class, src, TileKey { i, j, epoch }, &tile).unwrap()
        };
        let one = frame_of(MsgClass::Panel, 0, (0, 0, 0), 1, &|_, _| 1.0);
        let three = frame_of(MsgClass::Trailing, 6, (5, 2, 2), 3, &|i, j| {
            (3 * i + j) as f64 - 0.5
        });
        let twelve = frame_of(MsgClass::Trailing, u32::MAX, (70_000, 9, 9), 12, &|i, j| {
            f64::from_bits(0x7ff8_0000_0000_0000 | (i * 12 + j) as u64)
        });
        let sums = [&one, &three, &twelve].map(|frame| checksum_of(frame));
        assert_eq!(sums, [KAT_ONE, KAT_THREE, KAT_TWELVE], "{sums:#018x?}");
        // The whole nb = 1 frame, byte for byte.
        let mut want = b"FXT3\0".to_vec();
        want.extend_from_slice(&[0; 16]); // src, i, j, epoch
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&KAT_ONE.to_le_bytes());
        want.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(one, want);
    }

    // Cross-checked against an independent implementation of the
    // module-doc definition (arbitrary-precision integers, no lanes).
    const KAT_ONE: u64 = 0xd81e_efee_5e38_599e;
    const KAT_THREE: u64 = 0x0581_3aaa_7ecd_f1ad;
    const KAT_TWELVE: u64 = 0xd5cc_e9e1_20dd_f4c5;

    #[test]
    fn max_coord_header_round_trips() {
        let msg = TileMsg {
            class: MsgClass::Panel,
            src: u32::MAX,
            i: u32::MAX,
            j: u32::MAX - 1,
            epoch: u32::MAX - 1,
            tile: Tile::zeros(1),
        };
        let back = decode(&encode(&msg).unwrap()).unwrap();
        assert!(msg.bitwise_eq(&back));
    }
}
