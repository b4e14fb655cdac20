//! What a distributed run measured: per-link and per-rank traffic, the
//! panel/trailing wire breakdown, and the optional message-level trace.

use crate::codec::MsgClass;
use crate::error::NetError;
use crate::fault::MsgKind;
use crate::transport::LinkStats;
use flexdist_dist::CommBreakdown;
use flexdist_json::Value;
use flexdist_kernels::KernelError;
use flexdist_runtime::TaskSpan;

/// Aggregate traffic of one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankIo {
    /// The rank.
    pub rank: u32,
    /// Tasks it executed.
    pub tasks: u64,
    /// Messages it put on the wire.
    pub sent_msgs: u64,
    /// Serialized bytes it put on the wire.
    pub sent_bytes: u64,
    /// Messages it consumed.
    pub recv_msgs: u64,
    /// Serialized bytes it consumed.
    pub recv_bytes: u64,
    /// Duplicate replicas it rejected (retransmitted or injected copies).
    pub dup_rejected: u64,
    /// Frames it rejected by checksum.
    pub corrupt_rejected: u64,
    /// Frames the fault plan reordered through its delay stash.
    pub delayed: u64,
    /// Goodput messages it sent only because of a crash re-map (subset
    /// of `sent_msgs`): re-mapped post-crash broadcasts and re-serves of
    /// finalized tiles to new owners.
    pub recovered_msgs: u64,
    /// Serialized bytes of those recovery sends (subset of `sent_bytes`).
    pub recovered_bytes: u64,
}

/// Where the wall time of one rank's progress loop went, in seconds:
/// five disjoint phases that sum to the loop's duration, stamped only
/// where the loop changes phase (never per task). Wall-clock figures, so
/// deliberately not part of [`RankIo`]: that row is compared for
/// equality by the replay clause and the golden fixtures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankPhases {
    /// Running tasks: the kernels and the scheduling between them —
    /// whatever the loop did outside the other four phases.
    pub kernel_s: f64,
    /// Inside broadcast send loops: encode, checksum and the hand-off to
    /// the transport, once per receiver.
    pub send_s: f64,
    /// Blocked on the inbox with no task ready.
    pub recv_wait_s: f64,
    /// Decoding received frames, checksum included.
    pub decode_s: f64,
    /// Asleep between retransmissions (fault plans only).
    pub backoff_s: f64,
}

impl RankPhases {
    /// Phase by phase, the longest any of `ranks` spent in it: the
    /// lower bound each phase alone puts on the run's wall time.
    #[must_use]
    pub fn longest(ranks: &[Self]) -> Self {
        ranks.iter().fold(Self::default(), |a, b| Self {
            kernel_s: a.kernel_s.max(b.kernel_s),
            send_s: a.send_s.max(b.send_s),
            recv_wait_s: a.recv_wait_s.max(b.recv_wait_s),
            decode_s: a.decode_s.max(b.decode_s),
            backoff_s: a.backoff_s.max(b.backoff_s),
        })
    }

    /// The phases with their display names, in declaration order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("kernel", self.kernel_s),
            ("send", self.send_s),
            ("recv-wait", self.recv_wait_s),
            ("decode", self.decode_s),
            ("backoff", self.backoff_s),
        ]
    }
}

/// Traffic of one ordered rank pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkIo {
    /// Sending rank.
    pub from: u32,
    /// Receiving rank.
    pub to: u32,
    /// Messages carried.
    pub msgs: u64,
    /// Serialized bytes carried.
    pub bytes: u64,
    /// Panel-class messages.
    pub panel: u64,
    /// Trailing-class messages.
    pub trailing: u64,
    /// Physical frames the fault plan dropped on this link.
    pub dropped: u64,
    /// Physical frames delivered corrupted on this link.
    pub corrupt: u64,
    /// Extra intact copies injected on this link.
    pub duplicated: u64,
    /// Serialized bytes of all non-goodput frames.
    pub overhead_bytes: u64,
}

/// Run-wide reliability counters, split from goodput so the §III
/// conformance invariant (`wire == comm_volume`) is checked on goodput
/// alone while the fault schedule stays fully accounted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Send attempts beyond the first per message (= dropped + corrupt,
    /// since each of those forced one retransmission).
    pub retransmits: u64,
    /// Physical frames lost in flight.
    pub dropped: u64,
    /// Corrupted frames injected by senders.
    pub corrupt_injected: u64,
    /// Duplicate frames injected by senders.
    pub duplicates_injected: u64,
    /// Frames receivers rejected by checksum.
    pub corrupt_rejected: u64,
    /// Duplicate replicas receivers rejected or drained.
    pub duplicates_rejected: u64,
    /// Frames reordered through receiver delay stashes.
    pub delayed: u64,
    /// Serialized bytes of every non-goodput frame senders emitted.
    pub overhead_bytes: u64,
}

impl FaultStats {
    /// Whether the run saw any injected fault at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Summary of a distributed execution — the measured counterpart of the
/// analytic [`CommBreakdown`] from `flexdist_dist::comm`.
#[derive(Debug, Clone, Default)]
pub struct NetReport {
    /// Ranks instantiated (= nodes of the assignment).
    pub n_ranks: u32,
    /// Tasks executed across all ranks.
    pub tasks: usize,
    /// Measured wire volume in tiles sent, split panel/trailing. The
    /// conformance guarantee is `wire == {lu,cholesky}_comm_volume(...)`,
    /// exactly.
    pub wire: CommBreakdown,
    /// Total serialized bytes on the wire.
    pub bytes: u64,
    /// Per-rank traffic, indexed by rank.
    pub per_rank: Vec<RankIo>,
    /// Per-link traffic (only links that carried at least one frame,
    /// goodput or overhead), sorted by `(from, to)`.
    pub links: Vec<LinkIo>,
    /// Reliability-layer counters, disjoint from `wire`/`bytes`.
    pub faults: FaultStats,
    /// Goodput messages attributable to crash recovery (subset of the
    /// `wire` totals): zero on a crash-free run, and on a recovered run
    /// exactly the flagged portion of the spliced closed-form stream
    /// (`flexdist_dist::splice`).
    pub recovered_msgs: u64,
    /// Serialized bytes of the recovery messages (subset of `bytes`).
    pub recovered_bytes: u64,
    /// First kernel failure (by task id) across all ranks, if any.
    pub error: Option<KernelError>,
}

impl NetReport {
    /// Assemble the report from per-rank link stats: `per_rank` holds
    /// the per-rank aggregate rows in rank order, `sent` the `(peer,
    /// stats)` pairs of the same ranks in the same order. Every run-wide
    /// total is a checked sum: the rows may come from another process.
    ///
    /// # Errors
    /// `CounterOverflow`, naming the rank whose row took a total past
    /// its width and the field.
    pub fn from_parts(
        n_ranks: u32,
        per_rank: Vec<RankIo>,
        sent: &[Vec<(u32, LinkStats)>],
        error: Option<KernelError>,
    ) -> Result<Self, NetError> {
        fn add(total: &mut u64, x: u64, rank: u32, field: &'static str) -> Result<(), NetError> {
            let sum = total.checked_add(x);
            *total = sum.ok_or(NetError::CounterOverflow { rank, field })?;
            Ok(())
        }
        let mut links = Vec::new();
        let mut wire = CommBreakdown::default();
        let mut total = 0;
        let mut bytes = 0;
        let mut faults = FaultStats::default();
        for (from, peers) in per_rank.iter().map(|r| r.rank).zip(sent) {
            for &(to, s) in peers {
                let overhead = [
                    (&mut faults.dropped, s.dropped, "dropped"),
                    (&mut faults.corrupt_injected, s.corrupt, "corrupt"),
                    (&mut faults.duplicates_injected, s.duplicated, "duplicated"),
                    (
                        &mut faults.overhead_bytes,
                        s.overhead_bytes,
                        "overhead_bytes",
                    ),
                ];
                for (total, x, field) in overhead {
                    add(total, x, from, field)?;
                }
                // Every drop and every corruption forced exactly one
                // extra send attempt of the same message, so the
                // retransmission count is their sum.
                add(&mut faults.retransmits, s.dropped, from, "dropped")?;
                add(&mut faults.retransmits, s.corrupt, from, "corrupt")?;
                if s.is_silent() {
                    continue;
                }
                // `CommBreakdown::total` adds the two classes unchecked.
                add(&mut total, s.panel, from, "panel")?;
                add(&mut total, s.trailing, from, "trailing")?;
                wire.panel += s.panel;
                wire.trailing += s.trailing;
                add(&mut bytes, s.bytes, from, "bytes")?;
                links.push(LinkIo {
                    from,
                    to,
                    msgs: s.msgs,
                    bytes: s.bytes,
                    panel: s.panel,
                    trailing: s.trailing,
                    dropped: s.dropped,
                    corrupt: s.corrupt,
                    duplicated: s.duplicated,
                    overhead_bytes: s.overhead_bytes,
                });
            }
        }
        let mut tasks = 0usize;
        let mut recovered_msgs = 0;
        let mut recovered_bytes = 0;
        for r in &per_rank {
            let mine = usize::try_from(r.tasks).ok();
            let sum = mine.and_then(|mine| tasks.checked_add(mine));
            tasks = sum.ok_or(NetError::CounterOverflow {
                rank: r.rank,
                field: "tasks",
            })?;
            let counters = [
                (
                    &mut faults.corrupt_rejected,
                    r.corrupt_rejected,
                    "corrupt_rejected",
                ),
                (
                    &mut faults.duplicates_rejected,
                    r.dup_rejected,
                    "dup_rejected",
                ),
                (&mut faults.delayed, r.delayed, "delayed"),
                (&mut recovered_msgs, r.recovered_msgs, "recovered_msgs"),
                (&mut recovered_bytes, r.recovered_bytes, "recovered_bytes"),
            ];
            for (total, x, field) in counters {
                add(total, x, r.rank, field)?;
            }
        }
        links.sort_by_key(|l| (l.from, l.to));
        Ok(Self {
            n_ranks,
            tasks,
            wire,
            bytes,
            per_rank,
            links,
            faults,
            recovered_msgs,
            recovered_bytes,
            error,
        })
    }
}

/// One message on the wire, as seen by the sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgEvent {
    /// Sending rank.
    pub from: u32,
    /// Receiving rank.
    pub to: u32,
    /// Panel or trailing broadcast.
    pub class: MsgClass,
    /// Tile row.
    pub i: u32,
    /// Tile column.
    pub j: u32,
    /// Broadcast iteration.
    pub epoch: u32,
    /// Serialized frame size.
    pub bytes: u64,
    /// Send-enqueue timestamp, seconds since engine start (when the
    /// sender handed the frame to the fabric).
    pub at: f64,
    /// Wire-departure timestamp, seconds since engine start (when the
    /// send call returned, i.e. the frame — including any retransmits —
    /// had left the sender). `dep >= at`; the gap is sender-side
    /// queueing, which trace replay must not mistake for transmission.
    pub dep: f64,
    /// Goodput, or the overhead kind the fault plan assigned this frame.
    pub kind: MsgKind,
    /// 0-based send attempt the frame belonged to.
    pub attempt: u32,
}

/// Span + message trace of a distributed run. Spans reuse the runtime's
/// [`TaskSpan`] with `node` = rank and `worker` = 0 (ranks are
/// single-threaded), so the gantt renderers and the `flexdist verify`
/// race detector consume it directly.
#[derive(Debug, Clone, Default)]
pub struct NetTrace {
    /// Ranks in the run.
    pub n_ranks: u32,
    /// One span per executed task, in completion order per rank.
    pub spans: Vec<TaskSpan>,
    /// Every message sent, in send order per rank.
    pub messages: Vec<MsgEvent>,
}

impl NetTrace {
    /// Serialize as a `net-trace` JSON document: the common `spans`
    /// array (same shape as `sim-trace`) plus a `messages` array.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let messages = self
            .messages
            .iter()
            .map(|m| {
                flexdist_json::object(vec![
                    ("from", Value::from(m.from)),
                    ("to", Value::from(m.to)),
                    ("class", Value::from(m.class.name())),
                    ("i", Value::from(m.i)),
                    ("j", Value::from(m.j)),
                    ("epoch", Value::from(m.epoch)),
                    ("bytes", Value::from(m.bytes)),
                    ("at", Value::from(m.at)),
                    ("dep", Value::from(m.dep)),
                    ("kind", Value::from(m.kind.name())),
                    ("attempt", Value::from(m.attempt)),
                ])
            })
            .collect();
        flexdist_json::object(vec![
            ("kind", Value::from("net-trace")),
            ("n_ranks", Value::from(self.n_ranks)),
            ("tasks", Value::from(self.spans.len())),
            ("messages_sent", Value::from(self.messages.len())),
            ("spans", flexdist_runtime::spans_to_json(&self.spans)),
            ("messages", Value::Array(messages)),
        ])
    }

    /// Pretty-printed form of [`NetTrace::to_json`].
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merges_links_and_splits_classes() {
        let sent = vec![
            vec![(
                1,
                LinkStats {
                    msgs: 3,
                    bytes: 300,
                    panel: 1,
                    trailing: 2,
                    ..LinkStats::default()
                },
            )],
            vec![(0, LinkStats::default())], // silent link: dropped
        ];
        let rank = |rank| RankIo {
            rank,
            tasks: 2 + u64::from(rank),
            ..RankIo::default()
        };
        let r = NetReport::from_parts(2, vec![rank(0), rank(1)], &sent, None).unwrap();
        assert_eq!(r.tasks, 5);
        assert_eq!(
            r.wire,
            CommBreakdown {
                panel: 1,
                trailing: 2
            }
        );
        assert_eq!(r.bytes, 300);
        assert_eq!(r.links.len(), 1);
        assert_eq!((r.links[0].from, r.links[0].to, r.links[0].msgs), (0, 1, 3));
        assert!(r.faults.is_clean());
    }

    #[test]
    fn fault_counters_are_split_from_goodput() {
        let sent = vec![
            vec![(
                1,
                LinkStats {
                    msgs: 2,
                    bytes: 200,
                    panel: 2,
                    trailing: 0,
                    dropped: 1,
                    corrupt: 1,
                    duplicated: 1,
                    overhead_bytes: 300,
                },
            )],
            // A link that carried only overhead still shows up.
            vec![(
                0,
                LinkStats {
                    dropped: 2,
                    overhead_bytes: 200,
                    ..LinkStats::default()
                },
            )],
        ];
        let per_rank = vec![
            RankIo {
                rank: 0,
                corrupt_rejected: 1,
                ..RankIo::default()
            },
            RankIo {
                rank: 1,
                dup_rejected: 1,
                delayed: 2,
                ..RankIo::default()
            },
        ];
        let r = NetReport::from_parts(2, per_rank, &sent, None).unwrap();
        // Goodput untouched by the overhead traffic.
        assert_eq!(r.wire.panel + r.wire.trailing, 2);
        assert_eq!(r.bytes, 200);
        assert_eq!(r.links.len(), 2, "overhead-only link is reported");
        assert_eq!(
            r.faults,
            FaultStats {
                retransmits: 4,
                dropped: 3,
                corrupt_injected: 1,
                duplicates_injected: 1,
                corrupt_rejected: 1,
                duplicates_rejected: 1,
                delayed: 2,
                overhead_bytes: 500,
            }
        );
        assert!(!r.faults.is_clean());
    }

    #[test]
    fn net_trace_serializes_with_kind() {
        let tr = NetTrace {
            n_ranks: 2,
            spans: vec![TaskSpan {
                task: 0,
                node: 1,
                worker: 0,
                label: "getrf",
                start: 0.0,
                end: 1.0,
            }],
            messages: vec![MsgEvent {
                from: 1,
                to: 0,
                class: MsgClass::Panel,
                i: 0,
                j: 0,
                epoch: 0,
                bytes: 57,
                at: 1.0,
                dep: 1.25,
                kind: MsgKind::Goodput,
                attempt: 0,
            }],
        };
        let doc = tr.to_json();
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("net-trace"));
        let spans = doc.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 1);
        let msgs = doc.get("messages").and_then(Value::as_array).unwrap();
        assert_eq!(msgs[0].get("class").and_then(Value::as_str), Some("panel"));
        assert_eq!(msgs[0].get("kind").and_then(Value::as_str), Some("goodput"));
        assert_eq!(
            msgs[0].get("attempt").and_then(Value::as_u64),
            Some(0),
            "retransmission attempt is serialized for the race detector"
        );
        assert_eq!(
            msgs[0].get("dep").and_then(Value::as_f64),
            Some(1.25),
            "wire-departure time is serialized for trace replay"
        );
    }
}
