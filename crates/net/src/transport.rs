//! The fabric: a byte-moving [`Transport`] seam under a protocol-aware
//! [`Endpoint`], with the in-process mpsc fabric as the default backend.
//!
//! The [`Transport`] trait is deliberately dumb — it moves opaque frames
//! between ranks and nothing else. Everything the paper's broadcast
//! scheme cares about (ownership gates, goodput/overhead accounting,
//! checksum rejection, the reliability layer, fault injection) lives in
//! [`Endpoint`] *above* the seam, so it runs unchanged over the
//! in-process channels here and the socket streams in
//! [`socket`](crate::socket). That is the backend-identity invariant:
//! same seed, same schedule, same counters, bitwise-same results on
//! either side of the seam.
//!
//! Frames travel as encoded byte vectors (the [`codec`](crate::codec)
//! format), so the byte counters measure the *serialized* message — the
//! wire-level size, not an in-memory shortcut. Outgoing counters are
//! owned by the sending endpoint, which keeps them plain (no atomics);
//! the per-source receive counters live in the receiving [`Endpoint`].
//!
//! Ownership is enforced at both ends: a rank can only put its *own*
//! tiles on the wire ([`NetError::NotOwner`]), and a received frame must
//! come from the rank that owns the carried tile
//! ([`NetError::UnexpectedSender`]). Together with the replica-cache
//! epoch checks this makes the transport reject any traffic outside the
//! paper's Fig. 2 broadcast scheme.
//!
//! ## Reliability layer
//!
//! When a [`FaultPlan`] is attached (via [`build_fabric_with`]), the
//! physical layer becomes imperfect and the endpoints compensate:
//!
//! * **sender** — [`Endpoint::send_tile_reliable`] asks the plan for the
//!   fate of each physical attempt. Dropped or corrupted frames are
//!   retransmitted with bounded exponential backoff, up to the plan's
//!   attempt budget; exhaustion is the typed
//!   [`NetError::RetryExhausted`]. Because the fate of attempt `k` of a
//!   given message is a pure function of the seed and the message
//!   identity, the retransmission counters are bit-reproducible.
//! * **receiver** — [`Endpoint::recv_deadline`] rejects corrupted frames
//!   by checksum (counted, not fatal, under a plan), stashes frames the
//!   plan marks delayed and re-injects them when the inbox idles
//!   (reordering without ever losing liveness), and bounds the wait so a
//!   silent stall surfaces as a timeout the engine can convert into
//!   [`NetError::Stalled`].
//!
//! Accounting is split: [`LinkStats`] `msgs/bytes/panel/trailing` count
//! **goodput only** (exactly one frame per logical message), so the §III
//! conformance invariant `wire == comm_volume` holds under any
//! survivable fault schedule; retransmitted, corrupted and duplicated
//! frames land in the separate overhead counters.

use crate::codec::{decode, encode_tile, MsgClass, TileKey, TileMsg};
use crate::error::NetError;
use crate::fault::{FaultPlan, MsgKind, SendFate};
use flexdist_dist::TileAssignment;
use flexdist_kernels::Tile;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which ordered rank pairs may talk directly.
pub trait Topology {
    /// Whether a direct link `from → to` exists.
    fn connected(&self, from: u32, to: u32) -> bool;

    /// Display name.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Every rank reaches every other rank directly (the default; what the
/// paper's broadcast scheme assumes).
#[derive(Debug, Clone, Copy, Default)]
pub struct FullMesh;

impl Topology for FullMesh {
    fn connected(&self, from: u32, to: u32) -> bool {
        from != to
    }

    fn name(&self) -> &'static str {
        "full-mesh"
    }
}

/// Ranks split into isolated groups; links exist only within a group.
/// Useful to test that the engine surfaces [`NetError::NoRoute`] instead
/// of silently dropping traffic.
#[derive(Debug, Clone)]
pub struct Partition {
    groups: Vec<u32>,
}

impl Partition {
    /// `groups[rank]` is the group id of each rank.
    #[must_use]
    pub fn new(groups: Vec<u32>) -> Self {
        Self { groups }
    }
}

impl Topology for Partition {
    fn connected(&self, from: u32, to: u32) -> bool {
        from != to
            && self.groups.get(from as usize).copied() == self.groups.get(to as usize).copied()
    }

    fn name(&self) -> &'static str {
        "partition"
    }
}

/// Message/byte counters of one direction of traffic.
///
/// `msgs/bytes/panel/trailing` are **goodput**: exactly one counted
/// frame per logical message, matching the analytic comm-volume model.
/// The remaining fields count the physical overhead a fault plan
/// injected on this link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Logical messages carried (goodput).
    pub msgs: u64,
    /// Serialized goodput bytes carried (headers + payloads).
    pub bytes: u64,
    /// Goodput messages of class [`MsgClass::Panel`].
    pub panel: u64,
    /// Goodput messages of class [`MsgClass::Trailing`].
    pub trailing: u64,
    /// Physical frames lost in flight (each forced a retransmission).
    pub dropped: u64,
    /// Physical frames delivered corrupted (rejected by checksum at the
    /// receiver; each forced a retransmission).
    pub corrupt: u64,
    /// Extra intact copies injected (deduplicated at the receiver).
    pub duplicated: u64,
    /// Serialized bytes of all non-goodput frames.
    pub overhead_bytes: u64,
}

impl LinkStats {
    fn record(&mut self, class: MsgClass, bytes: usize) {
        self.msgs += 1;
        self.bytes += bytes as u64;
        match class {
            MsgClass::Panel => self.panel += 1,
            MsgClass::Trailing => self.trailing += 1,
        }
    }

    fn record_overhead(&mut self, kind: MsgKind, bytes: usize) {
        match kind {
            MsgKind::Goodput => return,
            MsgKind::Dropped => self.dropped += 1,
            MsgKind::Corrupt => self.corrupt += 1,
            MsgKind::Duplicate => self.duplicated += 1,
        }
        self.overhead_bytes += bytes as u64;
    }

    /// Whether this link carried neither goodput nor overhead.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        self.msgs == 0 && self.dropped == 0 && self.corrupt == 0 && self.duplicated == 0
    }
}

/// One physical frame of a reliable send, for traces and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// Goodput, dropped, corrupt or duplicate.
    pub kind: MsgKind,
    /// Serialized frame size.
    pub bytes: u64,
    /// 0-based attempt this frame belonged to.
    pub attempt: u32,
}

/// What one reliable send did on the wire.
#[derive(Debug, Clone)]
pub struct SendReceipt {
    /// Goodput bytes of the delivered copy.
    pub goodput_bytes: usize,
    /// Physical attempts made (1 when the first copy got through).
    pub attempts: u32,
    /// Every physical frame, in wire order.
    pub events: Vec<SendEvent>,
}

/// Receiver-side fault counters of one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvFaultStats {
    /// Frames rejected by the checksum / decoder.
    pub corrupt_rejected: u64,
    /// Serialized bytes of rejected frames.
    pub corrupt_bytes: u64,
    /// Frames the plan stashed for reordering.
    pub delayed: u64,
    /// Well-formed duplicate frames found in the inbox after the rank
    /// finished (in-flight copies it no longer needed to consume).
    pub dups_drained: u64,
}

/// Why a transport could not put a frame on the wire.
#[derive(Debug)]
pub enum TransportSendError {
    /// The peer's receiving half is gone (exited, crashed, or closed the
    /// stream). Physically indistinguishable from a drop; the reliability
    /// layer retries it.
    PeerGone,
    /// The transport itself broke (an OS-level socket failure). Never
    /// retried — surfaces as a typed engine error.
    Fatal(NetError),
}

/// What a bounded receive produced.
#[derive(Debug)]
pub enum TransportRecv {
    /// One whole frame, exactly as a peer sent it.
    Frame(Vec<u8>),
    /// The timeout elapsed with no frame available.
    TimedOut,
    /// Every peer closed its sending half and the inbox is empty; no
    /// frame can ever arrive again.
    Closed,
}

/// Buffering model of a transport backend: how many frames a rank's
/// inbox holds before a sender would block.
///
/// Surfaced as queryable configuration so the static protocol verifier
/// (`flexdist-verify`) can prove deadlock-freedom against the *exact*
/// capacity a backend provides, instead of hard-coding "sends never
/// block" as folklore. Both shipped backends are unbounded — the mpsc
/// channel by construction, the socket transport because a dedicated
/// reader thread drains each stream into an unbounded queue — which is
/// precisely why the engine may send before receiving; a future bounded
/// backend must satisfy the verifier's minimum-capacity bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Frames a receiving inbox can hold before senders block;
    /// `None` means unbounded (sends never block on the receiver).
    pub inbox_frames: Option<u32>,
}

impl BufferConfig {
    /// Unbounded inbox: the model of both shipped backends.
    pub const UNBOUNDED: Self = Self { inbox_frames: None };

    /// A bounded inbox of `frames` frames.
    #[must_use]
    pub const fn bounded(frames: u32) -> Self {
        Self {
            inbox_frames: Some(frames),
        }
    }
}

/// A byte mover between ranks: the seam under [`Endpoint`].
///
/// Implementations carry opaque frames, whole and in per-sender order,
/// and know nothing of the tile protocol: ownership checks, goodput
/// accounting, checksums, retransmission and fault injection all live
/// above this trait, which is what makes the engine behave identically
/// over in-process channels and OS sockets.
///
/// Contract: frames are delivered intact (never split or coalesced) and
/// FIFO per ordered sender pair; after [`finish_sends`](Self::finish_sends)
/// the sender's peers eventually observe [`TransportRecv::Closed`] once
/// every frame sent before the close has been received.
pub trait Transport: Send {
    /// Backend name, for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Queue one frame to a peer. The route is pre-checked by the
    /// endpoint, so `to` is always a connected, in-range rank.
    ///
    /// # Errors
    /// [`TransportSendError::PeerGone`] when the peer's inbox is gone;
    /// [`TransportSendError::Fatal`] on a broken transport.
    fn send(&mut self, to: u32, frame: Vec<u8>) -> Result<(), TransportSendError>;

    /// Block until a frame arrives or every peer has closed.
    ///
    /// # Errors
    /// A typed error when the transport itself broke (socket stream
    /// failures); the in-process backend never errors.
    fn recv(&mut self) -> Result<TransportRecv, NetError>;

    /// Bounded receive: a frame, a timeout, or closure.
    ///
    /// # Errors
    /// Same as [`recv`](Self::recv).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<TransportRecv, NetError>;

    /// Close the outgoing half so peers can observe
    /// [`TransportRecv::Closed`]. Idempotent; the inbox stays readable.
    fn finish_sends(&mut self);

    /// Block until fabric bring-up is complete on the inbound side:
    /// every peer expected to dial into this rank has connected. A
    /// no-op for backends without a bring-up handshake (the in-process
    /// channel fabric is built fully wired).
    fn await_inbound(&mut self) {}

    /// The backend's buffering model — what the static protocol
    /// verifier checks deadlock-freedom against.
    fn buffer_config(&self) -> BufferConfig {
        BufferConfig::UNBOUNDED
    }
}

/// The in-process backend: one mpsc inbox per rank, sender clones for
/// every connected peer. The deterministic test double — infallible,
/// unbounded, and immune to OS scheduling beyond message interleaving.
pub struct ChannelTransport {
    txs: Vec<Option<Sender<Vec<u8>>>>,
    rx: Receiver<Vec<u8>>,
}

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn send(&mut self, to: u32, frame: Vec<u8>) -> Result<(), TransportSendError> {
        let tx = self
            .txs
            .get(to as usize)
            .and_then(Option::as_ref)
            .ok_or(TransportSendError::PeerGone)?;
        tx.send(frame).map_err(|_| TransportSendError::PeerGone)
    }

    fn recv(&mut self) -> Result<TransportRecv, NetError> {
        Ok(match self.rx.recv() {
            Ok(frame) => TransportRecv::Frame(frame),
            Err(_) => TransportRecv::Closed,
        })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<TransportRecv, NetError> {
        Ok(match self.rx.recv_timeout(timeout) {
            Ok(frame) => TransportRecv::Frame(frame),
            Err(RecvTimeoutError::Timeout) => TransportRecv::TimedOut,
            Err(RecvTimeoutError::Disconnected) => TransportRecv::Closed,
        })
    }

    fn finish_sends(&mut self) {
        for tx in &mut self.txs {
            *tx = None;
        }
    }

    fn buffer_config(&self) -> BufferConfig {
        // `std::sync::mpsc::channel` is the unbounded flavor; `send`
        // never blocks on a full inbox.
        BufferConfig::UNBOUNDED
    }
}

/// One rank's attachment to the fabric: its transport, the owner map
/// that gates what may cross the wire, and both directions of counters.
pub struct Endpoint {
    rank: u32,
    assignment: Arc<TileAssignment>,
    transport: Box<dyn Transport>,
    /// Outgoing counters; `None` marks a pair the topology does not
    /// connect (sends to it fail with `NoRoute` before reaching the
    /// transport).
    out_stats: Vec<Option<LinkStats>>,
    recv_from: Vec<LinkStats>,
    topology: &'static str,
    faults: Option<Arc<FaultPlan>>,
    stash: VecDeque<(TileMsg, usize)>,
    recv_faults: RecvFaultStats,
    /// Time inside [`decode`] (checksum included) and asleep in
    /// retransmit backoff: the two phases of a rank's wall time only the
    /// endpoint can see (see [`RankPhases`](crate::RankPhases)).
    decode_time: Duration,
    backoff_time: Duration,
    /// Pushed by [`adopt_remap`](Self::adopt_remap), one entry per
    /// crash in crash order: the casualty and the owner map in force
    /// *before* its re-map. Frames from any casualty carrying tiles it
    /// owned under its pre-crash map stay valid (they were sent before
    /// it died), even though the live assignment has re-homed those
    /// tiles — possibly several times, when an heir later dies too.
    legacy: Vec<(u32, Arc<TileAssignment>)>,
}

/// How long `recv_deadline` polls the inbox between stash-release
/// opportunities while delayed frames are pending.
const STASH_POLL: Duration = Duration::from_micros(500);

impl Endpoint {
    /// Attach a rank to the fabric over an arbitrary transport backend.
    ///
    /// The endpoint carries every protocol layer itself — ownership
    /// gates, goodput/overhead counters, checksum rejection, the
    /// reliability protocol, fault injection — so two endpoints built
    /// over different backends behave identically given the same seed.
    #[must_use]
    pub fn from_transport(
        rank: u32,
        assignment: Arc<TileAssignment>,
        topology: &dyn Topology,
        transport: Box<dyn Transport>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let n = assignment.n_nodes() as usize;
        let out_stats = (0..n)
            .map(|to| topology.connected(rank, to as u32).then(LinkStats::default))
            .collect();
        Self {
            rank,
            assignment,
            transport,
            out_stats,
            recv_from: vec![LinkStats::default(); n],
            topology: topology.name(),
            faults,
            stash: VecDeque::new(),
            recv_faults: RecvFaultStats::default(),
            decode_time: Duration::ZERO,
            backoff_time: Duration::ZERO,
            legacy: Vec::new(),
        }
    }

    /// Switch this endpoint to the post-crash re-mapped owner map.
    /// Sends are gated by `remapped` from here on; frames from `dead`
    /// carrying tiles it owned under the *previous* map remain
    /// acceptable (they left the wire before the crash). Membership
    /// change for a survivor of a crash-recovery run — the rank count
    /// never changes, the dead rank simply owns nothing.
    ///
    /// Calls chain: adopting a second re-map keeps the first casualty's
    /// frames acceptable under *its* pre-crash map, so a cascade of k
    /// crashes leaves k legacy generations live at once. A casualty
    /// that was itself an heir (inherited tiles from an earlier crash,
    /// then died) is validated against the map under which it sent —
    /// the one in force between the two crashes.
    pub fn adopt_remap(&mut self, remapped: Arc<TileAssignment>, dead: u32) {
        let old = std::mem::replace(&mut self.assignment, remapped);
        self.legacy.push((dead, old));
    }

    /// Close this endpoint's sending half without draining the inbox —
    /// the exit path of a *crashed* rank, which must disappear from the
    /// fabric immediately (its peers stop at the spliced schedule, so
    /// nothing is ever inbound for it after its last pre-crash task).
    pub fn finish_sends(&mut self) {
        self.transport.finish_sends();
    }

    /// Exit path of the *scheduled* casualty: close the sending half,
    /// then linger until fabric bring-up completes — every peer
    /// expected to dial this rank's listener has connected. The modeled
    /// crash happens mid-run, long after bring-up; a rank process that
    /// vanishes *during* bring-up tears the fabric down for everyone
    /// (late dialers get connection-refused until their timeout and die
    /// of an `Io` error instead of observing the modeled recovery, and
    /// their peers then block forever on a listener that will never
    /// fill). No drain: every scheduled frame *to* this rank gated one
    /// of its executed pre-crash tasks, so nothing is inbound anymore.
    pub fn leave_fabric(&mut self) {
        self.transport.finish_sends();
        self.transport.await_inbound();
    }

    /// The rank this endpoint belongs to.
    #[must_use]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Name of the transport backend underneath.
    #[must_use]
    pub fn backend(&self) -> &'static str {
        self.transport.name()
    }

    /// Buffering model of the backend underneath.
    #[must_use]
    pub fn buffer_config(&self) -> BufferConfig {
        self.transport.buffer_config()
    }

    /// The fault plan attached to this fabric, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// What both send paths start with: the ownership and addressing
    /// gates, then the frame, encoded straight from the borrowed tile.
    fn frame_for(
        &self,
        to: u32,
        class: MsgClass,
        key: TileKey,
        tile: &Tile,
    ) -> Result<Vec<u8>, NetError> {
        let (rank, TileKey { i, j, .. }) = (self.rank, key);
        let owner = self.assignment.owner(i as usize, j as usize);
        if owner != rank {
            return Err(NetError::NotOwner { rank, i, j, owner });
        }
        if to == rank {
            return Err(NetError::SelfSend { rank, i, j });
        }
        if !matches!(self.out_stats.get(to as usize), Some(Some(_))) {
            return Err(NetError::NoRoute {
                from: rank,
                to,
                topology: self.topology,
            });
        }
        encode_tile(class, rank, key, tile)
    }

    /// Encode and send one owned tile to a peer over a perfect wire
    /// (single attempt, any fault plan ignored). Returns the frame size
    /// in bytes.
    ///
    /// # Errors
    /// `NotOwner` when the tile belongs to another rank, `SelfSend` /
    /// `NoRoute` / `Disconnected` on addressing failures.
    pub fn send_tile(
        &mut self,
        to: u32,
        class: MsgClass,
        i: u32,
        j: u32,
        epoch: u32,
        tile: &Tile,
    ) -> Result<usize, NetError> {
        let frame = self.frame_for(to, class, TileKey { i, j, epoch }, tile)?;
        let bytes = frame.len();
        let from = self.rank;
        self.transport.send(to, frame).map_err(|e| match e {
            TransportSendError::PeerGone => NetError::Disconnected { from, to },
            TransportSendError::Fatal(e) => e,
        })?;
        self.record_sent(to, class, bytes);
        Ok(bytes)
    }

    /// Encode and send one owned tile, surviving whatever the attached
    /// [`FaultPlan`] does to the physical frames: dropped or corrupted
    /// copies are retransmitted (bounded exponential backoff), injected
    /// duplicates are counted as overhead. Without a plan this is
    /// exactly [`send_tile`](Self::send_tile).
    ///
    /// A send to a peer whose inbox is gone is treated as a drop and
    /// retried — under crash faults the peer may legitimately be dead —
    /// so it too ends in `RetryExhausted` rather than an instant
    /// `Disconnected`.
    ///
    /// # Errors
    /// The [`send_tile`](Self::send_tile) addressing errors, plus
    /// `RetryExhausted` when the attempt budget runs out.
    pub fn send_tile_reliable(
        &mut self,
        to: u32,
        class: MsgClass,
        i: u32,
        j: u32,
        epoch: u32,
        tile: &Tile,
    ) -> Result<SendReceipt, NetError> {
        let Some(plan) = self.faults.clone() else {
            let bytes = self.send_tile(to, class, i, j, epoch, tile)?;
            return Ok(SendReceipt {
                goodput_bytes: bytes,
                attempts: 1,
                events: vec![SendEvent {
                    kind: MsgKind::Goodput,
                    bytes: bytes as u64,
                    attempt: 0,
                }],
            });
        };
        let key = TileKey { i, j, epoch };
        let mut frame = self.frame_for(to, class, key, tile)?;
        let bytes = frame.len();
        let from = self.rank;
        let mut events = Vec::new();
        for attempt in 0..plan.max_attempts() {
            if attempt > 0 {
                let backoff = plan.backoff(attempt - 1);
                std::thread::sleep(backoff);
                self.backoff_time += backoff;
            }
            let fate = plan.send_fate(from, to, i, j, epoch, attempt);
            match fate {
                SendFate::Drop => {
                    self.record_overhead(to, MsgKind::Dropped, bytes);
                    events.push(SendEvent {
                        kind: MsgKind::Dropped,
                        bytes: bytes as u64,
                        attempt,
                    });
                }
                SendFate::Corrupt => {
                    let mut bad = frame.clone();
                    let (at, mask) = plan.corrupt_site(from, to, i, j, epoch, attempt, bytes);
                    bad[at] ^= mask;
                    // A corrupt frame occupies the wire whether or not the
                    // peer is alive to reject it; a gone peer is ignored so
                    // the counters stay schedule-deterministic. A broken
                    // transport is still fatal.
                    match self.transport.send(to, bad) {
                        Ok(()) | Err(TransportSendError::PeerGone) => {}
                        Err(TransportSendError::Fatal(e)) => return Err(e),
                    }
                    self.record_overhead(to, MsgKind::Corrupt, bytes);
                    events.push(SendEvent {
                        kind: MsgKind::Corrupt,
                        bytes: bytes as u64,
                        attempt,
                    });
                }
                SendFate::Deliver | SendFate::DeliverTwice => {
                    // The encoded frame itself goes on the wire, moved;
                    // only an injected duplicate costs a copy.
                    let dup = (fate == SendFate::DeliverTwice).then(|| frame.clone());
                    match self.transport.send(to, frame) {
                        Err(TransportSendError::PeerGone) => {
                            // Peer gone: physically indistinguishable from a
                            // drop; keep retrying until the budget runs out.
                            // The frame went down with the send, so the
                            // retry (crashed peers only) encodes it again.
                            frame = encode_tile(class, from, key, tile)?;
                            self.record_overhead(to, MsgKind::Dropped, bytes);
                            events.push(SendEvent {
                                kind: MsgKind::Dropped,
                                bytes: bytes as u64,
                                attempt,
                            });
                            continue;
                        }
                        Err(TransportSendError::Fatal(e)) => return Err(e),
                        Ok(()) => {}
                    }
                    self.record_sent(to, class, bytes);
                    events.push(SendEvent {
                        kind: MsgKind::Goodput,
                        bytes: bytes as u64,
                        attempt,
                    });
                    if let Some(dup) = dup {
                        // The duplicate may race the peer's exit; counted
                        // unconditionally for determinism.
                        match self.transport.send(to, dup) {
                            Ok(()) | Err(TransportSendError::PeerGone) => {}
                            Err(TransportSendError::Fatal(e)) => return Err(e),
                        }
                        self.record_overhead(to, MsgKind::Duplicate, bytes);
                        events.push(SendEvent {
                            kind: MsgKind::Duplicate,
                            bytes: bytes as u64,
                            attempt,
                        });
                    }
                    return Ok(SendReceipt {
                        goodput_bytes: bytes,
                        attempts: attempt + 1,
                        events,
                    });
                }
            }
        }
        Err(NetError::RetryExhausted {
            from,
            to,
            i,
            j,
            attempts: plan.max_attempts(),
        })
    }

    fn record_sent(&mut self, to: u32, class: MsgClass, bytes: usize) {
        if let Some(Some(stats)) = self.out_stats.get_mut(to as usize) {
            stats.record(class, bytes);
        }
    }

    fn record_overhead(&mut self, to: u32, kind: MsgKind, bytes: usize) {
        if let Some(Some(stats)) = self.out_stats.get_mut(to as usize) {
            stats.record_overhead(kind, bytes);
        }
    }

    /// [`decode`], on the endpoint's decode clock.
    fn timed_decode(&mut self, frame: &[u8]) -> Result<TileMsg, NetError> {
        let started = Instant::now();
        let msg = decode(frame);
        self.decode_time += started.elapsed();
        msg
    }

    /// Protocol checks on a decoded frame (always fatal, faults or not).
    fn validate(&self, msg: &TileMsg) -> Result<(), NetError> {
        let t = self.assignment.tiles();
        if msg.i as usize >= t || msg.j as usize >= t {
            return Err(NetError::CoordsOutOfRange {
                rank: self.rank,
                i: msg.i,
                j: msg.j,
                t,
            });
        }
        let owner = self.assignment.owner(msg.i as usize, msg.j as usize);
        if msg.src >= self.recv_from.len() as u32 || owner != msg.src {
            // Post-crash exception: a casualty's pre-crash broadcasts
            // of tiles it owned under its own pre-re-map assignment are
            // still in flight and still valid — one generation per
            // adopted re-map, so a cascade keeps every earlier
            // casualty's frames acceptable.
            for (dead, prev) in &self.legacy {
                if msg.src == *dead && prev.owner(msg.i as usize, msg.j as usize) == *dead {
                    return Ok(());
                }
            }
            return Err(NetError::UnexpectedSender {
                rank: self.rank,
                from: msg.src,
                owner,
                i: msg.i,
                j: msg.j,
            });
        }
        Ok(())
    }

    /// Block until the next frame arrives, decode and validate it.
    /// Returns the message and its wire size in bytes. Strict: any
    /// malformed frame is fatal and delayed frames are not reordered.
    ///
    /// # Errors
    /// `ChannelClosed` when every peer exited; decoding errors for
    /// malformed frames; `UnexpectedSender` / `CoordsOutOfRange` when the
    /// frame violates the ownership contract.
    pub fn recv(&mut self) -> Result<(TileMsg, usize), NetError> {
        let frame = match self.transport.recv()? {
            TransportRecv::Frame(frame) => frame,
            TransportRecv::TimedOut | TransportRecv::Closed => {
                return Err(NetError::ChannelClosed { rank: self.rank });
            }
        };
        let bytes = frame.len();
        let msg = self.timed_decode(&frame)?;
        self.validate(&msg)?;
        self.recv_from[msg.src as usize].record(msg.class, bytes);
        Ok((msg, bytes))
    }

    /// Receive with a progress deadline and the receiver half of the
    /// reliability protocol. Returns `Ok(None)` when `timeout` elapses
    /// with no consumable frame — the engine's watchdog signal.
    ///
    /// Under a fault plan, corrupted frames are rejected by checksum and
    /// *counted* instead of being fatal, and frames the plan marks
    /// delayed are stashed and re-injected as soon as the inbox idles
    /// (reordering that cannot starve: a stashed frame is released no
    /// later than the first empty poll). Without a plan the behavior is
    /// [`recv`](Self::recv) plus the deadline.
    ///
    /// # Errors
    /// `ChannelClosed` when every peer exited with nothing pending;
    /// decode errors only in strict (no-plan) mode; `UnexpectedSender` /
    /// `CoordsOutOfRange` always.
    pub fn recv_deadline(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(TileMsg, usize)>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Each poll is clamped to the time remaining, and a spent
            // budget times out *now* (after releasing any stashed frame)
            // instead of issuing one more fixed-width poll — the watchdog
            // must not overshoot its configured deadline.
            let budget = deadline.saturating_duration_since(Instant::now());
            if budget.is_zero() {
                if let Some((msg, bytes)) = self.stash.pop_front() {
                    self.recv_from[msg.src as usize].record(msg.class, bytes);
                    return Ok(Some((msg, bytes)));
                }
                return Ok(None);
            }
            let poll = if self.stash.is_empty() {
                budget
            } else {
                budget.min(STASH_POLL)
            };
            match self.transport.recv_timeout(poll)? {
                TransportRecv::Frame(frame) => {
                    let bytes = frame.len();
                    let msg = match self.timed_decode(&frame) {
                        Ok(m) => m,
                        Err(e) => {
                            if self.faults.is_some() {
                                self.recv_faults.corrupt_rejected += 1;
                                self.recv_faults.corrupt_bytes += bytes as u64;
                                continue;
                            }
                            return Err(e);
                        }
                    };
                    self.validate(&msg)?;
                    if let Some(plan) = &self.faults {
                        if plan.delays(msg.src, self.rank, msg.i, msg.j, msg.epoch) {
                            self.recv_faults.delayed += 1;
                            self.stash.push_back((msg, bytes));
                            continue;
                        }
                    }
                    self.recv_from[msg.src as usize].record(msg.class, bytes);
                    return Ok(Some((msg, bytes)));
                }
                TransportRecv::TimedOut => {
                    if let Some((msg, bytes)) = self.stash.pop_front() {
                        self.recv_from[msg.src as usize].record(msg.class, bytes);
                        return Ok(Some((msg, bytes)));
                    }
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                TransportRecv::Closed => {
                    if let Some((msg, bytes)) = self.stash.pop_front() {
                        self.recv_from[msg.src as usize].record(msg.class, bytes);
                        return Ok(Some((msg, bytes)));
                    }
                    return Err(NetError::ChannelClosed { rank: self.rank });
                }
            }
        }
    }

    /// Close this endpoint's sending half, then consume every frame
    /// still inbound until all peers have closed theirs, so the fault
    /// counters cover *all* injected frames (a duplicate still in flight
    /// when its receiver finished would otherwise make the report depend
    /// on thread timing). Called after the rank's last task; blocks
    /// until every peer has likewise finished sending, which keeps the
    /// inbox alive for peers still retransmitting. Returns the final
    /// counters.
    ///
    /// # Errors
    /// A typed transport error when the byte stream itself broke; the
    /// in-process backend never errors.
    pub fn finish_and_drain(&mut self) -> Result<RecvFaultStats, NetError> {
        self.transport.finish_sends();
        self.recv_faults.dups_drained += self.stash.len() as u64;
        self.stash.clear();
        loop {
            let frame = match self.transport.recv()? {
                TransportRecv::Frame(frame) => frame,
                TransportRecv::TimedOut => continue,
                TransportRecv::Closed => break,
            };
            let bytes = frame.len();
            match self.timed_decode(&frame) {
                Ok(msg) => {
                    // Any well-formed leftover is an unconsumed duplicate
                    // (all goodput was consumed before the rank finished).
                    // Apply the delay draw it never reached, so `delayed`
                    // counts the full schedule deterministically.
                    if let Some(plan) = &self.faults {
                        if plan.delays(msg.src, self.rank, msg.i, msg.j, msg.epoch) {
                            self.recv_faults.delayed += 1;
                        }
                    }
                    self.recv_faults.dups_drained += 1;
                }
                Err(_) => {
                    self.recv_faults.corrupt_rejected += 1;
                    self.recv_faults.corrupt_bytes += bytes as u64;
                }
            }
        }
        Ok(self.recv_faults)
    }

    /// Time spent decoding received frames so far, checksum included.
    #[must_use]
    pub fn decode_time(&self) -> Duration {
        self.decode_time
    }

    /// Time spent asleep between retransmissions so far.
    #[must_use]
    pub fn backoff_time(&self) -> Duration {
        self.backoff_time
    }

    /// Receiver-side fault counters so far.
    #[must_use]
    pub fn recv_fault_stats(&self) -> RecvFaultStats {
        self.recv_faults
    }

    /// Outgoing traffic: `(peer, stats)` for every link that exists.
    #[must_use]
    pub fn sent_stats(&self) -> Vec<(u32, LinkStats)> {
        self.out_stats
            .iter()
            .enumerate()
            .filter_map(|(to, s)| s.as_ref().map(|s| (to as u32, *s)))
            .collect()
    }

    /// Incoming traffic, indexed by source rank.
    #[must_use]
    pub fn recv_stats(&self) -> &[LinkStats] {
        &self.recv_from
    }
}

/// Build the fabric: one endpoint per node of the assignment, linked
/// according to the topology, over a perfect wire.
#[must_use]
pub fn build_fabric(assignment: &Arc<TileAssignment>, topology: &dyn Topology) -> Vec<Endpoint> {
    build_fabric_with(assignment, topology, None)
}

/// Build the fabric with an optional fault plan interposed on every
/// link. The plan is shared read-only; every endpoint consults it for
/// send fates, delay draws and crash schedules.
#[must_use]
pub fn build_fabric_with(
    assignment: &Arc<TileAssignment>,
    topology: &dyn Topology,
    faults: Option<Arc<FaultPlan>>,
) -> Vec<Endpoint> {
    let n = assignment.n_nodes() as usize;
    let mut txs: Vec<Sender<Vec<u8>>> = Vec::with_capacity(n);
    let mut rxs: Vec<Receiver<Vec<u8>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let mut out = Vec::with_capacity(n);
    for (rank, rx) in rxs.drain(..).enumerate() {
        let transport = ChannelTransport {
            txs: (0..n)
                .map(|to| {
                    topology
                        .connected(rank as u32, to as u32)
                        .then(|| txs[to].clone())
                })
                .collect(),
            rx,
        };
        out.push(Endpoint::from_transport(
            rank as u32,
            Arc::clone(assignment),
            topology,
            Box::new(transport),
            faults.clone(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexdist_core::twodbc;

    fn two_rank_fabric() -> Vec<Endpoint> {
        two_rank_fabric_with(None)
    }

    fn two_rank_fabric_with(faults: Option<Arc<FaultPlan>>) -> Vec<Endpoint> {
        // 2x2 tiles, pattern [0 1 / 1 0].
        let pat =
            flexdist_core::Pattern::from_rows(2, &[vec![Some(0), Some(1)], vec![Some(1), Some(0)]]);
        let a = Arc::new(TileAssignment::cyclic(&pat, 2));
        build_fabric_with(&a, &FullMesh, faults)
    }

    #[test]
    fn send_recv_counts_serialized_bytes() {
        let mut eps = two_rank_fabric();
        let tile = Tile::from_fn(3, |i, j| (i + j) as f64);
        let sent = eps[0]
            .send_tile(1, MsgClass::Panel, 0, 0, 0, &tile)
            .unwrap();
        assert_eq!(sent, crate::codec::frame_len(3).unwrap());
        let (msg, bytes) = eps[1].recv().unwrap();
        assert_eq!(bytes, sent);
        assert_eq!((msg.i, msg.j, msg.epoch), (0, 0, 0));
        assert_eq!(
            eps[0].sent_stats(),
            vec![(
                1,
                LinkStats {
                    msgs: 1,
                    bytes: sent as u64,
                    panel: 1,
                    trailing: 0,
                    ..LinkStats::default()
                }
            )]
        );
        assert_eq!(eps[1].recv_stats()[0].msgs, 1);
    }

    #[test]
    fn self_send_and_missing_route_are_rejected() {
        let mut eps = two_rank_fabric();
        let tile = Tile::zeros(1);
        assert!(matches!(
            eps[0].send_tile(0, MsgClass::Panel, 0, 0, 0, &tile),
            Err(NetError::SelfSend {
                rank: 0,
                i: 0,
                j: 0
            })
        ));
        let pat = twodbc::two_dbc(2, 1);
        let a = Arc::new(TileAssignment::cyclic(&pat, 2));
        let mut iso = build_fabric(&a, &Partition::new(vec![0, 1]));
        assert!(matches!(
            iso[0].send_tile(1, MsgClass::Panel, 0, 0, 0, &tile),
            Err(NetError::NoRoute {
                from: 0,
                to: 1,
                topology: "partition"
            })
        ));
    }

    #[test]
    fn reliable_send_retransmits_through_drops() {
        // Global drop rate 0 except a seed-picked schedule on the one
        // link; scan seeds for one that drops the first attempt.
        let seed = (0..200u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_drop(0.5);
                p.send_fate(0, 1, 0, 0, 0, 0) == SendFate::Drop
                    && p.send_fate(0, 1, 0, 0, 0, 1) == SendFate::Deliver
            })
            .unwrap();
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_drop(0.5)
                .with_backoff(Duration::from_micros(1), Duration::from_micros(10)),
        );
        let mut eps = two_rank_fabric_with(Some(Arc::clone(&plan)));
        let tile = Tile::zeros(2);
        let receipt = eps[0]
            .send_tile_reliable(1, MsgClass::Panel, 0, 0, 0, &tile)
            .unwrap();
        assert_eq!(receipt.attempts, 2);
        assert_eq!(receipt.events.len(), 2);
        assert_eq!(receipt.events[0].kind, MsgKind::Dropped);
        assert_eq!(receipt.events[1].kind, MsgKind::Goodput);
        let stats = eps[0].sent_stats()[0].1;
        assert_eq!((stats.msgs, stats.dropped), (1, 1));
        assert_eq!(stats.overhead_bytes, stats.bytes);
        // Exactly one copy arrives.
        let (msg, _) = eps[1]
            .recv_deadline(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!((msg.i, msg.j), (0, 0));
        assert!(eps[1]
            .recv_deadline(Duration::from_millis(10))
            .unwrap()
            .is_none());
    }

    #[test]
    fn total_drop_is_retry_exhausted_with_named_link() {
        let plan = Arc::new(
            FaultPlan::new(1)
                .with_link_drop(0, 1, 1.0)
                .with_max_attempts(3)
                .with_backoff(Duration::from_micros(1), Duration::from_micros(2)),
        );
        let mut eps = two_rank_fabric_with(Some(plan));
        let err = eps[0]
            .send_tile_reliable(1, MsgClass::Panel, 0, 0, 0, &Tile::zeros(2))
            .unwrap_err();
        assert_eq!(
            err,
            NetError::RetryExhausted {
                from: 0,
                to: 1,
                i: 0,
                j: 0,
                attempts: 3
            }
        );
        assert_eq!(eps[0].sent_stats()[0].1.dropped, 3);
    }

    #[test]
    fn a_gone_peer_is_retried_with_the_same_frame_until_the_budget_ends() {
        // A delivered frame is moved onto the wire, so the retry after a
        // gone peer re-encodes it: every attempt must still count one
        // whole frame, and the send must end typed, not short a frame.
        let plan = Arc::new(
            FaultPlan::new(7)
                .with_max_attempts(4)
                .with_backoff(Duration::from_micros(1), Duration::from_micros(2)),
        );
        let mut eps = two_rank_fabric_with(Some(plan));
        drop(eps.remove(1));
        let tile = Tile::from_fn(3, |i, j| (i + 3 * j) as f64);
        let err = eps[0]
            .send_tile_reliable(1, MsgClass::Panel, 0, 0, 0, &tile)
            .unwrap_err();
        assert!(matches!(err, NetError::RetryExhausted { attempts: 4, .. }));
        let stats = eps[0].sent_stats()[0].1;
        let frame = crate::codec::frame_len(3).unwrap() as u64;
        assert_eq!((stats.msgs, stats.dropped), (0, 4));
        assert_eq!(stats.overhead_bytes, 4 * frame);
        assert!(eps[0].backoff_time() >= Duration::from_micros(1 + 2 + 2));
    }

    #[test]
    fn corrupt_frames_are_counted_and_survived() {
        let seed = (0..500u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_corrupt(0.5);
                p.send_fate(0, 1, 0, 0, 0, 0) == SendFate::Corrupt
                    && p.send_fate(0, 1, 0, 0, 0, 1) == SendFate::Deliver
            })
            .unwrap();
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_corrupt(0.5)
                .with_backoff(Duration::from_micros(1), Duration::from_micros(10)),
        );
        let mut eps = two_rank_fabric_with(Some(plan));
        let tile = Tile::from_fn(2, |i, j| (i * 2 + j) as f64);
        let receipt = eps[0]
            .send_tile_reliable(1, MsgClass::Trailing, 0, 0, 0, &tile)
            .unwrap();
        assert_eq!(receipt.events[0].kind, MsgKind::Corrupt);
        // Receiver rejects the corrupt copy, consumes the clean one.
        let (msg, _) = eps[1]
            .recv_deadline(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert!(msg.tile.as_slice()[3].to_bits() == 3f64.to_bits());
        assert_eq!(eps[1].recv_fault_stats().corrupt_rejected, 1);
    }

    #[test]
    fn recv_deadline_times_out_instead_of_hanging() {
        let mut eps = two_rank_fabric();
        let got = eps[1].recv_deadline(Duration::from_millis(20)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn recv_deadline_does_not_overshoot_with_pending_stash() {
        // Regression: with delayed frames stashed, the idle inbox is
        // polled in STASH_POLL slices; the final slice must be clamped
        // to the remaining budget so the watchdog fires on time, not up
        // to one slice late. Run with a stash pending (slice path) and
        // without (single-poll path) and bound the elapsed time.
        let seed = (0..500u64)
            .find(|&s| FaultPlan::new(s).with_delay(1.0).delays(0, 1, 0, 0, 0))
            .unwrap();
        let plan = Arc::new(FaultPlan::new(seed).with_delay(1.0));
        let mut eps = two_rank_fabric_with(Some(plan));
        let tile = Tile::zeros(2);
        eps[0]
            .send_tile_reliable(1, MsgClass::Panel, 0, 0, 0, &tile)
            .unwrap();
        // Stash the delayed frame, then re-stash it so it stays pending.
        let (msg, bytes) = eps[1]
            .recv_deadline(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        for timeout_ms in [5u64, 20] {
            let timeout = Duration::from_millis(timeout_ms);
            eps[1].stash.push_back((msg.clone(), bytes));
            let t0 = Instant::now();
            // The stashed frame is released within the deadline...
            assert!(eps[1].recv_deadline(timeout).unwrap().is_some());
            assert!(t0.elapsed() <= timeout + Duration::from_millis(50));
            // ...and with nothing left, the timeout itself is honored.
            let t0 = Instant::now();
            assert!(eps[1].recv_deadline(timeout).unwrap().is_none());
            let elapsed = t0.elapsed();
            assert!(
                elapsed >= timeout && elapsed <= timeout + Duration::from_millis(50),
                "deadline overshoot: asked {timeout:?}, took {elapsed:?}"
            );
        }
    }

    #[test]
    fn finish_and_drain_counts_leftovers_and_unblocks_peers() {
        let seed = (0..500u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_duplicate(1.0);
                p.send_fate(0, 1, 0, 0, 0, 0) == SendFate::DeliverTwice
            })
            .unwrap();
        let plan = Arc::new(FaultPlan::new(seed).with_duplicate(1.0));
        let mut eps = two_rank_fabric_with(Some(plan));
        let mut ep1 = eps.remove(1);
        let mut ep0 = eps.remove(0);
        let tile = Tile::zeros(2);
        ep0.send_tile_reliable(1, MsgClass::Panel, 0, 0, 0, &tile)
            .unwrap();
        // Receiver consumes the goodput copy; the duplicate stays queued.
        let (msg, _) = ep1.recv_deadline(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!((msg.i, msg.j), (0, 0));
        // Sender closes first; the receiver's drain then terminates and
        // accounts for the in-flight duplicate.
        let h = std::thread::spawn(move || {
            let stats = ep0.finish_and_drain().unwrap();
            (ep0, stats)
        });
        let stats = ep1.finish_and_drain().unwrap();
        assert_eq!(stats.dups_drained, 1);
        let (_ep0, stats0) = h.join().unwrap();
        assert_eq!(stats0.dups_drained, 0);
    }

    #[test]
    fn delayed_frames_are_released_when_the_inbox_idles() {
        // Find a seed whose delay draw fires for the first message but
        // not the second on this link.
        let seed = (0..500u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_delay(0.5);
                p.delays(0, 1, 0, 0, 0) && !p.delays(0, 1, 1, 1, 1)
            })
            .unwrap();
        let plan = Arc::new(FaultPlan::new(seed).with_delay(0.5));
        let mut eps = two_rank_fabric_with(Some(plan));
        let tile = Tile::zeros(2);
        eps[0]
            .send_tile_reliable(1, MsgClass::Panel, 0, 0, 0, &tile)
            .unwrap();
        eps[0]
            .send_tile_reliable(1, MsgClass::Trailing, 1, 1, 1, &tile)
            .unwrap();
        // The undelayed frame overtakes the stashed one (reordering)...
        let (first, _) = eps[1]
            .recv_deadline(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!((first.i, first.j), (1, 1));
        // ...and the stashed frame is released on the next idle poll.
        let (second, _) = eps[1]
            .recv_deadline(Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!((second.i, second.j), (0, 0));
        assert_eq!(eps[1].recv_fault_stats().delayed, 1);
    }
}
