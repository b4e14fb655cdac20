//! Typed errors for the message-passing layer.
//!
//! Every failure names the rank and tile coordinates involved, so a
//! conformance violation in a test or the `dexec` CLI pinpoints the
//! offending message rather than a generic "protocol error".

use crate::codec::TileKey;
use std::fmt;

/// Everything that can go wrong on the wire or in the rank engine.
///
/// The variants split into three families:
///
/// * **send-side contract** (`NotOwner`, `SelfSend`, `NoRoute`,
///   `Disconnected`) — a rank tried to emit a message the owner-computes
///   broadcast scheme forbids, or the fabric cannot carry;
/// * **frame decoding** (`Truncated`, `FrameOverrun`, `BadMagic`,
///   `BadClass`, `BadTileSize`) — the byte stream is not a well-formed
///   [`TileMsg`](crate::TileMsg) frame;
/// * **receive-side protocol** (`UnexpectedSender`, `CoordsOutOfRange`,
///   `StaleEpoch`, `DuplicateMsg`, `UnexpectedMsg`, `PayloadShape`,
///   `ChannelClosed`) plus engine-internal guards (`MissingReplica`,
///   `MissingLocalTile`, `ShapeMismatch`, `Unsupported`,
///   `CounterOverflow`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A rank tried to send tile `(i, j)` it does not own.
    NotOwner {
        /// The offending sender.
        rank: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// The actual owner under the assignment.
        owner: u32,
    },
    /// A rank addressed a message to itself (local data never crosses the
    /// wire under owner-computes).
    SelfSend {
        /// The rank.
        rank: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// The topology has no link between the two ranks.
    NoRoute {
        /// Sending rank.
        from: u32,
        /// Intended receiver.
        to: u32,
        /// Name of the active [`Topology`](crate::Topology) variant, so a
        /// partition-induced failure is diagnosable from the error alone.
        topology: &'static str,
    },
    /// The receiving rank exited before this send (protocol violation:
    /// a correct schedule never sends to a finished rank).
    Disconnected {
        /// Sending rank.
        from: u32,
        /// Receiver whose inbox is gone.
        to: u32,
    },
    /// A rank blocked on `recv` but every peer has exited — the
    /// distributed schedule deadlocked or dropped a message.
    ChannelClosed {
        /// The starved rank.
        rank: u32,
    },
    /// Frame shorter than its header + declared payload.
    Truncated {
        /// Bytes required to finish decoding.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Frame longer than its header + declared payload.
    FrameOverrun {
        /// Exact frame length implied by the header.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The frame does not start with the `TileMsg` magic.
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// Unknown message-class byte.
    BadClass {
        /// The byte found.
        got: u8,
    },
    /// Declared tile size is zero or implausibly large.
    BadTileSize {
        /// The declared `nb`.
        nb: u32,
    },
    /// Message claims a source rank that does not own the carried tile.
    UnexpectedSender {
        /// Receiving rank.
        rank: u32,
        /// Claimed source.
        from: u32,
        /// Actual owner of the tile.
        owner: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// Tile coordinates outside the `t × t` grid.
    CoordsOutOfRange {
        /// Receiving rank.
        rank: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// Tiles per dimension.
        t: usize,
    },
    /// Message epoch is not the broadcast epoch of its tile (`min(i, j)`
    /// for the panel/trailing scheme) or is past the last iteration.
    StaleEpoch {
        /// Receiving rank.
        rank: u32,
        /// Source rank.
        from: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// Epoch carried by the message.
        epoch: u32,
        /// The only epoch at which this tile is ever broadcast.
        expected: u32,
    },
    /// The same `(tile, epoch)` replica arrived twice.
    DuplicateMsg {
        /// Receiving rank.
        rank: u32,
        /// Source rank.
        from: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// Epoch.
        epoch: u32,
    },
    /// A well-formed replica arrived that no local task consumes.
    UnexpectedMsg {
        /// Receiving rank.
        rank: u32,
        /// Source rank.
        from: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// Epoch.
        epoch: u32,
    },
    /// Payload tile size differs from the matrix tile size.
    PayloadShape {
        /// Receiving rank.
        rank: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// `nb` carried by the message.
        got_nb: usize,
        /// `nb` of the local matrix.
        want_nb: usize,
    },
    /// Engine bug guard: a task read a remote tile whose replica never
    /// arrived (the dependency tracking let it run too early).
    MissingReplica {
        /// Executing rank.
        rank: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
        /// Epoch.
        epoch: u32,
    },
    /// Engine bug guard: a rank's own tile store has a hole.
    MissingLocalTile {
        /// Executing rank.
        rank: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// Tile grid of the matrix does not match the task list.
    ShapeMismatch {
        /// Tiles per dimension expected by the graph.
        expected: usize,
        /// Tiles per dimension of the matrix.
        got: usize,
    },
    /// The operation has no distributed broadcast schedule (only LU and
    /// Cholesky move data with the Fig. 2 panel/trailing scheme).
    Unsupported {
        /// Name of the rejected operation.
        operation: String,
    },
    /// Frame checksum does not match its contents — the payload was
    /// corrupted in flight.
    ChecksumMismatch {
        /// Checksum carried in the header.
        want: u64,
        /// Checksum recomputed over the received bytes.
        got: u64,
    },
    /// A sender gave up on one message after the bounded retransmission
    /// schedule was exhausted (the link drops everything, or the peer is
    /// gone).
    RetryExhausted {
        /// Sending rank.
        from: u32,
        /// Intended receiver.
        to: u32,
        /// Tile row of the undeliverable message.
        i: u32,
        /// Tile column.
        j: u32,
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// The progress watchdog fired: a rank made no progress for the
    /// configured interval while replicas were still outstanding.
    Stalled {
        /// The stalled rank.
        rank: u32,
        /// Replica keys it was still waiting for, sorted.
        waiting_on: Vec<TileKey>,
    },
    /// A rank was killed by the fault plan before finishing its tasks.
    RankCrashed {
        /// The crashed rank.
        rank: u32,
        /// The iteration at which the crash fault fired.
        epoch: u32,
    },
    /// A fault plan schedules the same rank to crash twice. A rank
    /// dies exactly once, so the second entry can never fire; rejecting
    /// it typed keeps [`crate::FaultPlan::crash_epoch`]'s
    /// first-match-wins contract an invariant instead of a silent
    /// shadowing.
    DuplicateCrash {
        /// The rank scheduled to die twice.
        rank: u32,
        /// Epoch of the entry already in the plan.
        first_epoch: u32,
        /// Epoch of the rejected second entry.
        second_epoch: u32,
    },
    /// A fault plan schedules the crash of a rank the run does not
    /// have. Refused when the recovery is derived, so a mistyped crash
    /// point cannot silently turn into a crash-free run.
    CrashOutOfRange {
        /// The scheduled rank.
        rank: u32,
        /// Rank count `P` of the run; valid ranks are `0..P`.
        n_ranks: u32,
    },
    /// Recovery was requested under conditions the re-map cannot
    /// handle (e.g. a noisy fault plan whose goodput would stop being
    /// deterministic, or a single-node run with no survivor).
    RecoveryUnsupported {
        /// Human-readable reason.
        detail: String,
    },
    /// An operating-system I/O failure on the socket transport (bind,
    /// connect, handshake, or an unclassifiable stream error). The
    /// in-process channel fabric never produces this.
    Io {
        /// The rank whose transport failed.
        rank: u32,
        /// Human-readable description of the underlying OS error.
        detail: String,
    },
    /// A stream length prefix declares a frame larger than any legal
    /// `TileMsg` — the reassembler rejects it before allocating.
    FrameTooLarge {
        /// Length declared by the 4-byte prefix.
        declared: usize,
        /// Largest frame the codec can ever produce.
        max: usize,
    },
    /// Folding per-rank counters into a run-wide total overflowed: no
    /// real run counts that far, so a rank reported garbage.
    CounterOverflow {
        /// The rank whose row took the total past its width.
        rank: u32,
        /// The counter, by its field name in the rank's row.
        field: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotOwner { rank, i, j, owner } => write!(
                f,
                "rank {rank} tried to send tile ({i},{j}) owned by rank {owner}"
            ),
            Self::SelfSend { rank, i, j } => {
                write!(f, "rank {rank} addressed tile ({i},{j}) to itself")
            }
            Self::NoRoute { from, to, topology } => {
                write!(
                    f,
                    "topology ({topology}) has no link from rank {from} to rank {to}"
                )
            }
            Self::Disconnected { from, to } => {
                write!(f, "rank {from} sent to rank {to} after it exited")
            }
            Self::ChannelClosed { rank } => write!(
                f,
                "rank {rank} starved: all peers exited with receives outstanding"
            ),
            Self::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            Self::FrameOverrun { expected, got } => {
                write!(f, "frame overrun: expected {expected} bytes, got {got}")
            }
            Self::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            Self::BadClass { got } => write!(f, "unknown message class byte {got:#04x}"),
            Self::BadTileSize { nb } => write!(f, "implausible tile size nb = {nb}"),
            Self::UnexpectedSender {
                rank,
                from,
                owner,
                i,
                j,
            } => write!(
                f,
                "rank {rank} received tile ({i},{j}) from rank {from}, but rank {owner} owns it"
            ),
            Self::CoordsOutOfRange { rank, i, j, t } => write!(
                f,
                "rank {rank} received tile ({i},{j}) outside the {t}x{t} grid"
            ),
            Self::StaleEpoch {
                rank,
                from,
                i,
                j,
                epoch,
                expected,
            } => write!(
                f,
                "rank {rank} received tile ({i},{j}) from rank {from} at epoch {epoch}, \
                 but it is only broadcast at epoch {expected}"
            ),
            Self::DuplicateMsg {
                rank,
                from,
                i,
                j,
                epoch,
            } => write!(
                f,
                "rank {rank} received duplicate replica of tile ({i},{j}) epoch {epoch} \
                 from rank {from}"
            ),
            Self::UnexpectedMsg {
                rank,
                from,
                i,
                j,
                epoch,
            } => write!(
                f,
                "rank {rank} received unneeded tile ({i},{j}) epoch {epoch} from rank {from}"
            ),
            Self::PayloadShape {
                rank,
                i,
                j,
                got_nb,
                want_nb,
            } => write!(
                f,
                "rank {rank}: tile ({i},{j}) payload is {got_nb}x{got_nb}, matrix uses \
                 {want_nb}x{want_nb}"
            ),
            Self::MissingReplica { rank, i, j, epoch } => write!(
                f,
                "rank {rank} ran a task before its replica of tile ({i},{j}) epoch {epoch} arrived"
            ),
            Self::MissingLocalTile { rank, i, j } => {
                write!(f, "rank {rank} has no local copy of its own tile ({i},{j})")
            }
            Self::ShapeMismatch { expected, got } => write!(
                f,
                "matrix has {got}x{got} tiles but the task list expects {expected}x{expected}"
            ),
            Self::Unsupported { operation } => write!(
                f,
                "operation {operation} has no distributed broadcast schedule (LU and Cholesky only)"
            ),
            Self::ChecksumMismatch { want, got } => write!(
                f,
                "frame checksum mismatch: header says {want:#018x}, contents hash to {got:#018x}"
            ),
            Self::RetryExhausted {
                from,
                to,
                i,
                j,
                attempts,
            } => write!(
                f,
                "rank {from} gave up sending tile ({i},{j}) to rank {to} after {attempts} attempts"
            ),
            Self::Stalled { rank, waiting_on } => {
                write!(
                    f,
                    "rank {rank} stalled waiting on {} replica(s):",
                    waiting_on.len()
                )?;
                for k in waiting_on {
                    write!(f, " ({},{})@{}", k.i, k.j, k.epoch)?;
                }
                Ok(())
            }
            Self::RankCrashed { rank, epoch } => {
                write!(f, "rank {rank} crashed at iteration {epoch} (fault plan)")
            }
            Self::DuplicateCrash {
                rank,
                first_epoch,
                second_epoch,
            } => write!(
                f,
                "fault plan schedules rank {rank} to crash twice (iteration {first_epoch}, \
                 then again at {second_epoch}); a rank dies exactly once"
            ),
            Self::CrashOutOfRange { rank, n_ranks } => write!(
                f,
                "fault plan crashes rank {rank}, but the run has only ranks 0..{n_ranks} \
                 (P = {n_ranks})"
            ),
            Self::RecoveryUnsupported { detail } => {
                write!(f, "recovery unsupported: {detail}")
            }
            Self::Io { rank, detail } => {
                write!(f, "rank {rank} socket transport failed: {detail}")
            }
            Self::FrameTooLarge { declared, max } => write!(
                f,
                "stream declares a {declared}-byte frame, but no legal frame exceeds {max}"
            ),
            Self::CounterOverflow { rank, field } => write!(
                f,
                "rank {rank} reports a {field} count that overflows the run-wide total"
            ),
        }
    }
}

impl std::error::Error for NetError {}
