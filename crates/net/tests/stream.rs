//! Stream-reassembly fuzz: the [`Reassembler`] must rebuild the exact
//! frame sequence from **any** byte-chunking of the stream — every
//! single-byte split, every two-point split, random chunkings simulating
//! short reads/writes, and fully coalesced buffers — and must turn every
//! malformed prefix or mid-frame EOF into a typed error instead of a
//! panic, a hang, or a giant allocation.

use flexdist_kernels::Tile;
use flexdist_net::{encode, max_frame_len, MsgClass, NetError, Reassembler, TileMsg};

/// Deterministic bit mixer (splitmix64) for payloads and chunk sizes.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A few real frames of different sizes, as the socket layer sends them:
/// u32 LE length prefix + FXT3 frame.
fn sample_stream() -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut frames = Vec::new();
    let mut stream = Vec::new();
    for (k, nb) in [1usize, 2, 3].into_iter().enumerate() {
        let mut tile = Tile::zeros(nb);
        for (i, x) in tile.as_mut_slice().iter_mut().enumerate() {
            *x = f64::from_bits(mix((k * 31 + i) as u64));
        }
        let msg = TileMsg {
            class: MsgClass::Trailing,
            src: k as u32,
            i: k as u32,
            j: 2,
            epoch: 1,
            tile,
        };
        let frame = encode(&msg).unwrap();
        stream.extend_from_slice(&u32::try_from(frame.len()).unwrap().to_le_bytes());
        stream.extend_from_slice(&frame);
        frames.push(frame);
    }
    (stream, frames)
}

/// Drive a reassembler over `stream` cut at the given chunk boundaries
/// and collect every frame it produces.
fn reassemble_chunked(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut r = Reassembler::new();
    let mut got = Vec::new();
    let mut prev = 0;
    for &cut in cuts.iter().chain(std::iter::once(&stream.len())) {
        r.push(&stream[prev..cut]);
        prev = cut;
        while let Some(frame) = r.next_frame().expect("valid stream") {
            got.push(frame);
        }
    }
    r.finish().expect("no trailing bytes");
    assert_eq!(r.pending(), 0);
    got
}

#[test]
fn every_single_byte_split_reassembles() {
    let (stream, frames) = sample_stream();
    for cut in 0..=stream.len() {
        let got = reassemble_chunked(&stream, &[cut]);
        assert_eq!(got, frames, "split at byte {cut}");
    }
}

#[test]
fn byte_at_a_time_feed_reassembles() {
    let (stream, frames) = sample_stream();
    let cuts: Vec<usize> = (1..stream.len()).collect();
    assert_eq!(reassemble_chunked(&stream, &cuts), frames);
}

#[test]
fn coalesced_single_push_reassembles() {
    let (stream, frames) = sample_stream();
    assert_eq!(reassemble_chunked(&stream, &[]), frames);
}

#[test]
fn random_chunkings_reassemble() {
    // Short writes/reads of arbitrary sizes: 64 seeded chunkings.
    let (stream, frames) = sample_stream();
    for seed in 0..64u64 {
        let mut cuts = Vec::new();
        let mut at = 0usize;
        let mut s = seed;
        loop {
            s = mix(s);
            at += 1 + (s as usize) % 97;
            if at >= stream.len() {
                break;
            }
            cuts.push(at);
        }
        assert_eq!(reassemble_chunked(&stream, &cuts), frames, "seed {seed}");
    }
}

#[test]
fn eof_inside_prefix_and_inside_frame_is_typed_truncation() {
    let (stream, _) = sample_stream();
    // Cut the stream at every byte that is not a frame boundary; the
    // reassembler must report Truncated at end-of-stream, never panic.
    let mut boundaries = vec![0usize];
    {
        let mut at = 0usize;
        while at < stream.len() {
            let declared =
                u32::from_le_bytes([stream[at], stream[at + 1], stream[at + 2], stream[at + 3]])
                    as usize;
            at += 4 + declared;
            boundaries.push(at);
        }
    }
    for end in 1..stream.len() {
        let mut r = Reassembler::new();
        r.push(&stream[..end]);
        while let Some(_frame) = r.next_frame().expect("prefix of a valid stream") {}
        let fin = r.finish();
        if boundaries.contains(&end) {
            fin.expect("whole frames so far");
        } else {
            match fin {
                Err(NetError::Truncated { need, got }) => {
                    assert!(got < need, "cut at {end}: got {got} need {need}")
                }
                other => panic!("cut at {end}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn oversized_and_undersized_prefixes_are_rejected_before_allocating() {
    // A prefix declaring more than any codec frame must fail fast —
    // this is what keeps a corrupt 4-byte prefix from forcing a ~4 GiB
    // allocation.
    let mut r = Reassembler::new();
    r.push(&u32::MAX.to_le_bytes());
    match r.next_frame() {
        Err(NetError::FrameTooLarge { declared, max }) => {
            assert_eq!(declared, u32::MAX as usize);
            assert_eq!(max, max_frame_len());
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // A prefix smaller than any legal header is equally malformed.
    let mut r = Reassembler::new();
    r.push(&1u32.to_le_bytes());
    assert!(matches!(
        r.next_frame(),
        Err(NetError::Truncated { got: 1, .. })
    ));
    // Zero-length frames cannot exist either (header alone is 33 bytes).
    let mut r = Reassembler::new();
    r.push(&0u32.to_le_bytes());
    assert!(matches!(
        r.next_frame(),
        Err(NetError::Truncated { got: 0, .. })
    ));
}

#[test]
fn garbage_after_a_valid_frame_is_contained_to_the_stream_layer() {
    // The reassembler only delimits; a frame of plausible length but
    // corrupt content is handed up intact for the codec checksum to
    // reject. Flipping a payload byte must not disturb framing of the
    // frames around it.
    let (stream, frames) = sample_stream();
    let mut corrupted = stream.clone();
    // Flip one byte inside the second frame's payload.
    let first_len = 4 + frames[0].len();
    let target = first_len + 4 + frames[1].len() - 1;
    corrupted[target] ^= 0xff;
    let got = reassemble_chunked(&corrupted, &[first_len + 3, first_len + 40]);
    assert_eq!(got.len(), frames.len());
    assert_eq!(got[0], frames[0]);
    assert_ne!(got[1], frames[1], "corruption must surface in the frame");
    assert_eq!(got[2], frames[2], "later frames unaffected");
}
