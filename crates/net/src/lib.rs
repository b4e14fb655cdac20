//! # flexdist-net
//!
//! The wire under the distributed executor: an in-process message-passing
//! fabric that makes the paper's communication model (§III, Eq. 1/2)
//! something the test suite can measure in *bytes sent* rather than only
//! count analytically.
//!
//! Layers, bottom up:
//!
//! * [`codec`] — the serialized [`TileMsg`] frame (header: class, source
//!   rank, tile coordinates, epoch, tile size; payload: raw `f64` bits,
//!   lossless for every bit pattern including NaNs);
//! * [`transport`] — the [`Transport`] byte-mover seam with the
//!   in-process mpsc backend, per-link message/byte counters split panel
//!   vs. trailing, a pluggable [`Topology`] ([`FullMesh`] by default,
//!   [`Partition`] for negative tests), and ownership enforcement at
//!   both ends of every link;
//! * [`socket`] — the OS-backed [`Transport`]: Unix-domain or TCP
//!   streams carrying length-delimited frames through a
//!   [`Reassembler`](socket::Reassembler), so separate processes run the
//!   identical protocol stack;
//! * [`cache`] — the per-rank [`ReplicaCache`] with duplicate and
//!   epoch-staleness rejection (the dedup half of exactly-once delivery);
//! * [`fault`] — the seeded, fully deterministic [`FaultPlan`]: per-link
//!   drop/corrupt/duplicate/delay schedules and crash epochs driven by a
//!   counter-mode RNG, so one seed replays one schedule bit-for-bit;
//! * [`report`] — the measured [`NetReport`] (its `wire` field is the
//!   measured counterpart of `flexdist_dist::CommBreakdown`) and the
//!   [`NetTrace`] consumed by `flexdist verify` and the gantt renderers.
//!
//! The rank engine that drives kernels over this fabric lives in
//! `flexdist_factor::dexec` (it needs the task graphs); this crate
//! deliberately knows nothing about factorization algorithms beyond the
//! "one broadcast per tile, at epoch `min(i, j)`" invariant it enforces.

#![forbid(unsafe_code)]

pub mod cache;
pub mod codec;
pub mod error;
pub mod fault;
pub mod report;
pub mod socket;
pub mod transport;

pub use cache::ReplicaCache;
pub use codec::{
    decode, encode, encode_tile, frame_len, MsgClass, TileKey, TileMsg, HEADER_LEN, MAX_NB,
};
pub use error::NetError;
pub use fault::{FaultPlan, MsgKind, SendFate};
pub use report::{FaultStats, LinkIo, MsgEvent, NetReport, NetTrace, RankIo, RankPhases};
pub use socket::{
    build_socket_fabric, cleanup_socket_dir, max_frame_len, Reassembler, SocketConfig, SocketKind,
    SocketTransport, MAX_STREAM_NB,
};
pub use transport::{
    build_fabric, build_fabric_with, BufferConfig, ChannelTransport, Endpoint, FullMesh, LinkStats,
    Partition, RecvFaultStats, SendEvent, SendReceipt, Topology, Transport, TransportRecv,
    TransportSendError,
};
