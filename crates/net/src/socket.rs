//! OS-socket backend for the [`Transport`] seam: Unix-domain or TCP
//! streams carrying length-delimited codec frames between ranks that may
//! live in different processes.
//!
//! ## Framing over a byte stream
//!
//! The in-process backend moves whole frames by construction; a stream
//! socket moves bytes. Each frame is therefore prefixed with its length
//! (u32 LE) and rebuilt on the receiving side by a [`Reassembler`] that
//! tolerates partial reads, short writes and coalesced frames. The
//! prefix is added *below* the fault-injection layer: a frame the fault
//! plan corrupted still travels as one intact delimited unit, so the
//! receiver rejects it by checksum exactly as it would in-process — the
//! backend-identity invariant depends on this.
//!
//! ## Wiring
//!
//! Every connected ordered pair `(from, to)` gets its own unidirectional
//! stream: `from` connects to `to`'s listener, writes a 4-byte rank
//! handshake, and then only writes frames. On the listening side an
//! acceptor thread takes the expected number of connections and hands
//! each to a reader thread that drains the kernel buffer continuously
//! (so a sender can never block on a peer that is busy computing) and
//! feeds whole frames into the endpoint's inbox. End-of-stream from
//! every peer marks the inbox closed — the same signal the mpsc backend
//! derives from dropped senders.
//!
//! Rank discovery is filesystem-based so separate processes need no
//! other channel: rank `r` listens on `dir/r{r}.sock` (UDS) or writes
//! its ephemeral port to `dir/r{r}.port` (TCP, atomically via rename).
//! Connectors retry until the peer appears or the timeout lapses.

use crate::codec::{frame_len, HEADER_LEN};
use crate::error::NetError;
use crate::transport::{BufferConfig, Topology, Transport, TransportRecv, TransportSendError};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown as TcpShutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest tile dimension the u32 length prefix can delimit: the codec
/// itself allows `nb` up to [`MAX_NB`](crate::codec::MAX_NB), but a
/// frame beyond ~4 GiB cannot be expressed on this wire (and would be an
/// absurd allocation for a corrupt prefix to force), so the stream layer
/// caps tiles at the largest `nb` with `HEADER_LEN + 8·nb² ≤ u32::MAX`.
pub const MAX_STREAM_NB: u32 = 23_170;

/// Largest frame the stream framing accepts; the reassembler rejects
/// bigger length prefixes before allocating.
#[must_use]
pub fn max_frame_len() -> usize {
    frame_len(MAX_STREAM_NB as usize).unwrap_or(usize::MAX)
}

/// Rebuilds whole frames from an arbitrary byte-chunking of a stream.
///
/// Feed raw reads with [`push`](Self::push), take frames with
/// [`next_frame`](Self::next_frame), and call [`finish`](Self::finish)
/// at end-of-stream to turn trailing partial bytes into a typed
/// truncation error. Pure state machine — no I/O — so it is directly
/// fuzzable over every split boundary.
#[derive(Debug, Default)]
pub struct Reassembler {
    buf: Vec<u8>,
}

impl Reassembler {
    /// An empty reassembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one chunk of raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next whole frame, if one is fully buffered.
    ///
    /// Returns `Ok(None)` while bytes are still missing.
    ///
    /// # Errors
    /// `Truncated` when the prefix declares a frame shorter than any
    /// legal header, `FrameTooLarge` when it declares one bigger than
    /// the codec can ever produce — both detected before allocating.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let declared =
            u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if declared < HEADER_LEN {
            return Err(NetError::Truncated {
                need: HEADER_LEN,
                got: declared,
            });
        }
        let max = max_frame_len();
        if declared > max {
            return Err(NetError::FrameTooLarge { declared, max });
        }
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        let frame = self.buf[4..4 + declared].to_vec();
        self.buf.drain(..4 + declared);
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet framed.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// End-of-stream check: any leftover bytes mean the peer died
    /// mid-frame.
    ///
    /// # Errors
    /// `Truncated` naming the bytes still required for the partial frame.
    pub fn finish(&self) -> Result<(), NetError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let need = if self.buf.len() >= 4 {
            let declared =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            4 + declared
        } else {
            4
        };
        Err(NetError::Truncated {
            need,
            got: self.buf.len(),
        })
    }
}

/// Which socket family carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Unix-domain stream sockets (`dir/r{rank}.sock`).
    Uds,
    /// TCP over loopback, ports discovered via `dir/r{rank}.port`.
    Tcp,
}

impl SocketKind {
    /// CLI / report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Uds => "uds",
            Self::Tcp => "tcp",
        }
    }

    /// Parse a CLI backend name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uds" => Some(Self::Uds),
            "tcp" => Some(Self::Tcp),
            _ => None,
        }
    }
}

/// Where and how a socket fabric lives.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Socket family.
    pub kind: SocketKind,
    /// Directory holding the per-rank socket / port files. Must exist
    /// and be shared by every rank of the run.
    pub dir: PathBuf,
    /// How long a connector waits for a peer's listener to appear.
    pub connect_timeout: Duration,
}

impl SocketConfig {
    /// A UDS fabric rooted at `dir` with the default 10 s dial timeout.
    #[must_use]
    pub fn uds(dir: impl Into<PathBuf>) -> Self {
        Self {
            kind: SocketKind::Uds,
            dir: dir.into(),
            connect_timeout: Duration::from_secs(10),
        }
    }

    /// A TCP-over-loopback fabric rooted at `dir`.
    #[must_use]
    pub fn tcp(dir: impl Into<PathBuf>) -> Self {
        Self {
            kind: SocketKind::Tcp,
            dir: dir.into(),
            connect_timeout: Duration::from_secs(10),
        }
    }

    fn sock_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("r{rank}.sock"))
    }

    fn port_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("r{rank}.port"))
    }
}

enum OutStream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Write for OutStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Uds(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Self::Uds(s) => s.write_vectored(bufs),
            Self::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl OutStream {
    /// Length prefix and body in one `writev`: two separate writes on a
    /// TCP stream are a write-write-read pattern, where the second
    /// segment waits for the peer's delayed ACK.
    fn write_frame(&mut self, prefix: [u8; 4], body: &[u8]) -> std::io::Result<()> {
        let sent = loop {
            match self.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(body)]) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                done => break done?,
            }
        };
        // A short write leaves a tail of the prefix, the body, or both.
        if let Some(rest) = prefix.get(sent..) {
            self.write_all(rest)?;
        }
        self.write_all(&body[sent.saturating_sub(prefix.len())..])
    }

    fn close(&mut self) {
        // Half-close so the peer's reader sees EOF even while this end
        // keeps its own inbox open.
        match self {
            Self::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
            Self::Tcp(s) => {
                let _ = s.shutdown(TcpShutdown::Write);
            }
        }
    }
}

enum InStream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Read for InStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Uds(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

/// A rank bound to its listener but not yet dialed out: the first half
/// of fabric bring-up, split out so a single process can bind every
/// listener before any rank connects (no startup race).
pub struct BoundSocket {
    rank: u32,
    n_ranks: u32,
    cfg: SocketConfig,
    inbox_rx: Receiver<Result<Vec<u8>, NetError>>,
    /// Kept so accepted-reader threads can be spawned with a sender.
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// How many inbound dials the topology expects, and how many of
    /// them have completed their rank handshake so far.
    expected_in: usize,
    identified: Arc<AtomicUsize>,
}

fn io_err(rank: u32, what: &str, e: &std::io::Error) -> NetError {
    NetError::Io {
        rank,
        detail: format!("{what}: {e}"),
    }
}

fn spawn_reader(
    peer_stream: InStream,
    tx: Sender<Result<Vec<u8>, NetError>>,
    n_ranks: u32,
    identified: Arc<AtomicUsize>,
) {
    std::thread::spawn(move || {
        let mut stream = peer_stream;
        let mut asm = Reassembler::new();
        let mut buf = vec![0u8; 64 * 1024];
        // First 4 bytes: the connecting rank's handshake.
        let mut hs = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            match stream.read(&mut hs[got..]) {
                Ok(0) => return, // peer vanished before identifying
                Ok(k) => got += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
        // Handshake consumed: the dialer can no longer hit a broken
        // pipe on bring-up even if this rank exits right now (what
        // `await_inbound` waits for).
        identified.fetch_add(1, Ordering::Release);
        let peer = u32::from_le_bytes(hs);
        if peer >= n_ranks {
            let _ = tx.send(Err(NetError::Io {
                rank: peer,
                detail: format!("handshake from out-of-range rank {peer}"),
            }));
            return;
        }
        loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: a partial frame left behind is a typed error.
                    if let Err(e) = asm.finish() {
                        let _ = tx.send(Err(e));
                    }
                    return;
                }
                Ok(k) => {
                    asm.push(&buf[..k]);
                    loop {
                        match asm.next_frame() {
                            Ok(Some(frame)) => {
                                if tx.send(Ok(frame)).is_err() {
                                    return; // endpoint gone; stop reading
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                let _ = tx.send(Err(e));
                                return;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    let _ = tx.send(Err(NetError::Io {
                        rank: peer,
                        detail: format!("stream read: {e}"),
                    }));
                    return;
                }
            }
        }
    });
}

impl BoundSocket {
    /// Bind rank `rank`'s listener under `cfg.dir` and start accepting
    /// incoming streams in the background. `expected_in` is the number
    /// of peers the topology connects *to* this rank.
    ///
    /// # Errors
    /// `Io` when the bind or the port-file publication fails.
    pub fn bind(
        rank: u32,
        n_ranks: u32,
        expected_in: usize,
        cfg: &SocketConfig,
    ) -> Result<Self, NetError> {
        let (tx, rx) = channel::<Result<Vec<u8>, NetError>>();
        let identified = Arc::new(AtomicUsize::new(0));
        let accept_thread = match cfg.kind {
            SocketKind::Uds => {
                let path = cfg.sock_path(rank);
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(&path);
                let listener =
                    UnixListener::bind(&path).map_err(|e| io_err(rank, "uds bind", &e))?;
                let ids = Arc::clone(&identified);
                std::thread::spawn(move || {
                    for _ in 0..expected_in {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                spawn_reader(
                                    InStream::Uds(stream),
                                    tx.clone(),
                                    n_ranks,
                                    Arc::clone(&ids),
                                );
                            }
                            Err(_) => return,
                        }
                    }
                })
            }
            SocketKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))
                    .map_err(|e| io_err(rank, "tcp bind", &e))?;
                let port = listener
                    .local_addr()
                    .map_err(|e| io_err(rank, "tcp local_addr", &e))?
                    .port();
                // Publish the ephemeral port atomically: write-then-rename
                // so a connector never reads a half-written file.
                let tmp = cfg.dir.join(format!(".r{rank}.port.tmp"));
                std::fs::write(&tmp, port.to_string())
                    .map_err(|e| io_err(rank, "port file write", &e))?;
                std::fs::rename(&tmp, cfg.port_path(rank))
                    .map_err(|e| io_err(rank, "port file rename", &e))?;
                let ids = Arc::clone(&identified);
                std::thread::spawn(move || {
                    for _ in 0..expected_in {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                // Read-only today; kept symmetric with
                                // the dialing end.
                                let _ = stream.set_nodelay(true);
                                spawn_reader(
                                    InStream::Tcp(stream),
                                    tx.clone(),
                                    n_ranks,
                                    Arc::clone(&ids),
                                );
                            }
                            Err(_) => return,
                        }
                    }
                })
            }
        };
        Ok(Self {
            rank,
            n_ranks,
            cfg: cfg.clone(),
            inbox_rx: rx,
            accept_thread: Some(accept_thread),
            expected_in,
            identified,
        })
    }

    fn dial(&self, to: u32) -> Result<OutStream, NetError> {
        let deadline = Instant::now() + self.cfg.connect_timeout;
        loop {
            let attempt: std::io::Result<OutStream> = match self.cfg.kind {
                SocketKind::Uds => UnixStream::connect(self.cfg.sock_path(to)).map(OutStream::Uds),
                SocketKind::Tcp => match std::fs::read_to_string(self.cfg.port_path(to)) {
                    Ok(s) => match s.trim().parse::<u16>() {
                        Ok(port) => TcpStream::connect(("127.0.0.1", port))
                            .and_then(|s| s.set_nodelay(true).map(|()| s))
                            .map(OutStream::Tcp),
                        Err(_) => Err(std::io::Error::new(
                            ErrorKind::InvalidData,
                            "unparsable port file",
                        )),
                    },
                    Err(e) => Err(e),
                },
            };
            match attempt {
                Ok(mut stream) => {
                    stream
                        .write_all(&self.rank.to_le_bytes())
                        .map_err(|e| io_err(self.rank, "handshake write", &e))?;
                    return Ok(stream);
                }
                // The peer's listener (or its port file) may simply not
                // exist yet — processes start in arbitrary order.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::NotFound | ErrorKind::ConnectionRefused | ErrorKind::InvalidData
                    ) =>
                {
                    if Instant::now() >= deadline {
                        return Err(NetError::Io {
                            rank: self.rank,
                            detail: format!(
                                "dial rank {to} timed out after {:?}: {e}",
                                self.cfg.connect_timeout
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(io_err(self.rank, "dial", &e)),
            }
        }
    }

    /// Dial every peer the topology connects this rank to, completing
    /// the transport. Retries until peers appear (processes start in
    /// arbitrary order) up to the configured timeout.
    ///
    /// # Errors
    /// `Io` when a peer never appears or a handshake write fails.
    pub fn connect(self, topology: &dyn Topology) -> Result<SocketTransport, NetError> {
        let mut outs = Vec::with_capacity(self.n_ranks as usize);
        for to in 0..self.n_ranks {
            if topology.connected(self.rank, to) {
                outs.push(Some(self.dial(to)?));
            } else {
                outs.push(None);
            }
        }
        Ok(SocketTransport {
            kind: self.cfg.kind,
            outs,
            inbox_rx: self.inbox_rx,
            accept_thread: self.accept_thread,
            expected_in: self.expected_in,
            identified: self.identified,
        })
    }
}

/// The OS-socket [`Transport`]: one outgoing stream per connected peer,
/// reader threads feeding a single inbox.
pub struct SocketTransport {
    kind: SocketKind,
    outs: Vec<Option<OutStream>>,
    inbox_rx: Receiver<Result<Vec<u8>, NetError>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    expected_in: usize,
    identified: Arc<AtomicUsize>,
}

impl SocketTransport {
    /// Bind and connect in one step — what a stand-alone rank process
    /// does. `expected_in` peers will dial in per the topology.
    ///
    /// # Errors
    /// `Io` on bind/dial/handshake failures.
    pub fn establish(
        rank: u32,
        n_ranks: u32,
        topology: &dyn Topology,
        cfg: &SocketConfig,
    ) -> Result<Self, NetError> {
        let expected_in = (0..n_ranks)
            .filter(|&p| topology.connected(p, rank))
            .count();
        BoundSocket::bind(rank, n_ranks, expected_in, cfg)?.connect(topology)
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        match self.kind {
            SocketKind::Uds => "uds",
            SocketKind::Tcp => "tcp",
        }
    }

    fn buffer_config(&self) -> BufferConfig {
        // One reader thread per peer drains its stream into the shared
        // unbounded inbox channel as fast as frames arrive, so the OS
        // socket buffer never back-pressures a sender indefinitely:
        // logically the inbox is unbounded, like the channel backend.
        BufferConfig::UNBOUNDED
    }

    fn send(&mut self, to: u32, frame: Vec<u8>) -> Result<(), TransportSendError> {
        let Some(Some(stream)) = self.outs.get_mut(to as usize) else {
            return Err(TransportSendError::PeerGone);
        };
        // Length prefix below the fault-injection layer: a corrupted
        // frame still travels as one intact delimited unit.
        let len = u32::try_from(frame.len()).map_err(|_| {
            TransportSendError::Fatal(NetError::FrameTooLarge {
                declared: frame.len(),
                max: max_frame_len(),
            })
        })?;
        let send = stream.write_frame(len.to_le_bytes(), &frame);
        send.map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                TransportSendError::PeerGone
            }
            _ => TransportSendError::Fatal(NetError::Io {
                rank: to,
                detail: format!("stream write: {e}"),
            }),
        })
    }

    fn recv(&mut self) -> Result<TransportRecv, NetError> {
        match self.inbox_rx.recv() {
            Ok(Ok(frame)) => Ok(TransportRecv::Frame(frame)),
            Ok(Err(e)) => Err(e),
            Err(_) => Ok(TransportRecv::Closed),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<TransportRecv, NetError> {
        match self.inbox_rx.recv_timeout(timeout) {
            Ok(Ok(frame)) => Ok(TransportRecv::Frame(frame)),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(TransportRecv::TimedOut),
            Err(RecvTimeoutError::Disconnected) => Ok(TransportRecv::Closed),
        }
    }

    fn finish_sends(&mut self) {
        for out in &mut self.outs {
            if let Some(stream) = out {
                stream.close();
            }
            *out = None;
        }
    }

    fn await_inbound(&mut self) {
        // Bounded: every live peer dials during its own `establish`,
        // which is capped by `connect_timeout`; once `expected_in`
        // streams are accepted the thread exits on its own.
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Accepted is not enough: a dialer whose connect() landed in
        // the listen backlog writes its rank handshake *after* connect
        // returns, and exiting before that write is consumed turns it
        // into a broken pipe on the dialer's side. Wait until every
        // expected inbound stream has identified itself.
        while self.identified.load(Ordering::Acquire) < self.expected_in {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Build a whole socket fabric inside one process: bind every rank's
/// listener first (no startup race), then dial all pairs. The returned
/// transports are indexed by rank and typically handed to
/// [`Endpoint::from_transport`](crate::Endpoint::from_transport) on
/// per-rank threads.
///
/// # Errors
/// `Io` on any bind/dial/handshake failure.
pub fn build_socket_fabric(
    n_ranks: u32,
    topology: &dyn Topology,
    cfg: &SocketConfig,
) -> Result<Vec<SocketTransport>, NetError> {
    let mut bound = Vec::with_capacity(n_ranks as usize);
    for rank in 0..n_ranks {
        let expected_in = (0..n_ranks)
            .filter(|&p| topology.connected(p, rank))
            .count();
        bound.push(BoundSocket::bind(rank, n_ranks, expected_in, cfg)?);
    }
    bound.into_iter().map(|b| b.connect(topology)).collect()
}

/// Remove the per-rank socket/port files a fabric left under `dir`.
/// Best-effort; missing files are fine.
pub fn cleanup_socket_dir(dir: &Path, n_ranks: u32) {
    for rank in 0..n_ranks {
        let _ = std::fs::remove_file(dir.join(format!("r{rank}.sock")));
        let _ = std::fs::remove_file(dir.join(format!("r{rank}.port")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, MsgClass, TileMsg};
    use crate::transport::FullMesh;
    use flexdist_kernels::Tile;

    fn frame(i: u32) -> Vec<u8> {
        encode(&TileMsg {
            class: MsgClass::Panel,
            src: 0,
            i,
            j: 0,
            epoch: 0,
            tile: Tile::from_fn(3, |r, c| (r * 3 + c) as f64 + f64::from(i)),
        })
        .unwrap()
    }

    #[test]
    fn reassembler_handles_any_split() {
        let frames = [frame(0), frame(1)];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&(f.len() as u32).to_le_bytes());
            wire.extend_from_slice(f);
        }
        for cut in 0..=wire.len() {
            let mut asm = Reassembler::new();
            asm.push(&wire[..cut]);
            asm.push(&wire[cut..]);
            let a = asm.next_frame().unwrap().unwrap();
            let b = asm.next_frame().unwrap().unwrap();
            assert_eq!(a, frames[0], "split at {cut}");
            assert_eq!(b, frames[1], "split at {cut}");
            assert!(asm.next_frame().unwrap().is_none());
            asm.finish().unwrap();
        }
    }

    #[test]
    fn reassembler_rejects_bad_prefixes() {
        let mut asm = Reassembler::new();
        asm.push(&5u32.to_le_bytes()); // shorter than any header
        assert!(matches!(
            asm.next_frame().unwrap_err(),
            NetError::Truncated { need, got: 5 } if need == HEADER_LEN
        ));
        let mut asm = Reassembler::new();
        asm.push(&u32::MAX.to_le_bytes());
        assert!(matches!(
            asm.next_frame().unwrap_err(),
            NetError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn stream_nb_cap_is_tight_against_the_u32_prefix() {
        let nb = MAX_STREAM_NB as usize;
        assert!(frame_len(nb).unwrap() as u64 <= u64::from(u32::MAX));
        let over = HEADER_LEN as u64 + 8 * (nb as u64 + 1) * (nb as u64 + 1);
        assert!(over > u64::from(u32::MAX));
    }

    #[test]
    fn eof_mid_frame_is_typed_truncation() {
        let f = frame(0);
        let mut asm = Reassembler::new();
        asm.push(&(f.len() as u32).to_le_bytes());
        asm.push(&f[..10]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(matches!(
            asm.finish().unwrap_err(),
            NetError::Truncated { need, got } if need == 4 + f.len() && got == 14
        ));
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("fxs-{tag}-{pid}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn socket_round_trip(cfg: &SocketConfig) {
        let mut fabric = build_socket_fabric(2, &FullMesh, cfg).unwrap();
        let mut t1 = fabric.pop().unwrap();
        let mut t0 = fabric.pop().unwrap();
        let f = frame(7);
        t0.send(1, f.clone()).unwrap();
        match t1.recv().unwrap() {
            TransportRecv::Frame(got) => assert_eq!(got, f),
            other => panic!("expected frame, got {other:?}"),
        }
        t0.finish_sends();
        t1.finish_sends();
        assert!(matches!(t1.recv().unwrap(), TransportRecv::Closed));
        assert!(matches!(t0.recv().unwrap(), TransportRecv::Closed));
    }

    #[test]
    fn uds_round_trip_and_close() {
        let dir = tmp_dir("uds");
        socket_round_trip(&SocketConfig::uds(&dir));
        cleanup_socket_dir(&dir, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_round_trip_and_close() {
        let dir = tmp_dir("tcp");
        socket_round_trip(&SocketConfig::tcp(&dir));
        cleanup_socket_dir(&dir, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
