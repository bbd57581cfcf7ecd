//! Real-socket backend: length-prefixed frames over nonblocking TCP.
//!
//! [`TcpTransport`] implements [`Transport`] with one duplex `TcpStream`
//! per peer. Nothing here spawns a thread: readiness is polled from the
//! protocol layer's `pump()`, which the runtime drives from its existing
//! progress engine (cooperative SSW ticks or the helper thread). The wire
//! format per frame is `[len: u32 LE][tag: u64 LE][payload]`.
//!
//! Unlike the simulated fabric — which hands refcounted pooled frames
//! across by pointer — a socket genuinely serializes: `send_frame` copies
//! the frame's bytes into the connection's outbound buffer, and the
//! reassembly path copies each parsed payload into a freshly pooled
//! [`FrameSlice`] so everything downstream (scatter, match store, user
//! recv) still runs zero-copy. Both copies are intrinsic to the backend
//! and are counted in [`Transport::memcpy_bytes`], separately from the
//! protocol layer's own copy telemetry.
//!
//! Two constructions exist:
//!
//! * `loopback_mesh` — every node in one process, meshed over 127.0.0.1
//!   ephemeral ports. This is what [`crate::Cluster`] builds for
//!   [`crate::Backend::Tcp`], and what the cross-backend differential
//!   oracle runs against: the full protocol stack over real sockets,
//!   kernel buffering and partial writes included, with no process
//!   orchestration.
//! * [`multiproc_endpoint`] — one node per OS process, rendezvousing via
//!   the `PURE_TCP_*` environment (a root-address file published by node
//!   0, or an explicit `PURE_TCP_MAP` address list). The `pure-launch`
//!   binary forks per-node workers wired this way.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::pool::{FramePool, FrameSlice};
use crate::sim::MatchStore;
use crate::transport::{NetConfig, NodeEndpoint, PumpOutcome, Transport};

/// Frame header: `[len: u32][tag: u64]`.
const HDR: usize = 12;

/// Upper bound on one frame's payload — anything larger is protocol
/// corruption (a desynced stream), and the connection is declared dead
/// rather than letting a garbage length allocate the moon.
const MAX_FRAME: usize = 1 << 26;

/// Compact the flushed prefix of the out buffer once it exceeds this.
const OUT_COMPACT: usize = 1 << 16;

/// One live peer connection: the socket plus its outbound backlog (bytes
/// accepted by `send_frame` the kernel would not take yet) and inbound
/// reassembly buffer.
struct Conn {
    sock: TcpStream,
    /// Outbound bytes; `[sent..]` is still unflushed.
    out: Vec<u8>,
    sent: usize,
    /// Inbound bytes not yet parsed into complete frames.
    inbuf: Vec<u8>,
    /// Set on EOF, reset, or protocol corruption. A dead connection sends
    /// and receives nothing; the peer's silence is the failure detector's
    /// problem, not ours.
    dead: bool,
}

impl Conn {
    fn new(sock: TcpStream) -> Self {
        Self {
            sock,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
            dead: false,
        }
    }

    fn pending(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Push as much of the outbound backlog as the kernel will take.
    /// Returns whether any bytes moved.
    fn flush(&mut self) -> bool {
        let mut moved = false;
        while self.sent < self.out.len() {
            match self.sock.write(&self.out[self.sent..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(k) => {
                    self.sent += k;
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        } else if self.sent >= OUT_COMPACT {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
        moved
    }

    /// Read whatever the kernel has. Returns whether any bytes arrived.
    fn ingest(&mut self) -> bool {
        let mut moved = false;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.sock.read(&mut buf) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(k) => {
                    self.inbuf.extend_from_slice(&buf[..k]);
                    moved = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        moved
    }

    /// Pop the next complete frame off the reassembly buffer. The payload
    /// is copied into a pooled slab (the backend's one parse copy) so the
    /// rest of the stack handles it as a refcounted [`FrameSlice`].
    fn next_frame(&mut self, pool: &Arc<FramePool>) -> Option<(u64, FrameSlice)> {
        if self.inbuf.len() < HDR {
            return None;
        }
        let len = u32::from_le_bytes(self.inbuf[0..4].try_into().ok()?) as usize;
        if len > MAX_FRAME {
            self.dead = true;
            self.inbuf.clear();
            return None;
        }
        if self.inbuf.len() < HDR + len {
            return None;
        }
        let tag = u64::from_le_bytes(self.inbuf[4..12].try_into().ok()?);
        let payload = pool.pooled(&self.inbuf[HDR..HDR + len]);
        self.inbuf.drain(..HDR + len);
        Some((tag, payload))
    }
}

/// One node's handle onto a TCP mesh: a nonblocking duplex stream per
/// peer plus the node's match store. Slot `me` holds no connection;
/// self-sends short-circuit through the store.
pub struct TcpTransport {
    me: usize,
    conns: Vec<Option<Mutex<Conn>>>,
    store: MatchStore,
    /// Slab pool reassembled payloads are parsed into. Shared with the
    /// node's protocol layer so recycled slabs serve both directions.
    pool: Arc<FramePool>,
    /// Payload bytes serialized into `out` buffers plus bytes parsed out
    /// of `inbuf` — the copies a real socket cannot avoid.
    memcpy: AtomicU64,
}

impl TcpTransport {
    fn from_streams(
        me: usize,
        streams: Vec<Option<TcpStream>>,
        pool: Arc<FramePool>,
    ) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(streams.len());
        for (peer, s) in streams.into_iter().enumerate() {
            match s {
                Some(sock) => {
                    sock.set_nonblocking(true)?;
                    sock.set_nodelay(true)?;
                    conns.push(Some(Mutex::new(Conn::new(sock))));
                }
                None => {
                    debug_assert_eq!(peer, me, "only the self slot may be unconnected");
                    conns.push(None);
                }
            }
        }
        Ok(Self {
            me,
            conns,
            store: MatchStore::default(),
            pool,
            memcpy: AtomicU64::new(0),
        })
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> usize {
        self.me
    }

    fn n_nodes(&self) -> usize {
        self.conns.len()
    }

    fn send_frame(&self, dst: usize, tag_enc: u64, frame: FrameSlice) {
        let Some(slot) = &self.conns[dst] else {
            // Self-send: no wire, the refcounted frame goes straight to the
            // match store without touching a byte.
            self.store.push((self.me, tag_enc), frame);
            return;
        };
        let mut conn = slot.lock();
        if conn.dead {
            return;
        }
        self.memcpy.fetch_add(frame.len() as u64, Ordering::Relaxed);
        conn.out
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        conn.out.extend_from_slice(&tag_enc.to_le_bytes());
        conn.out.extend_from_slice(&frame);
        conn.flush();
    }

    fn recv_frame(&self, src: usize, tag_enc: u64) -> Option<FrameSlice> {
        self.store.pop(&(src, tag_enc))
    }

    fn push_local(&self, src: usize, tag_enc: u64, payload: FrameSlice) {
        self.store.push((src, tag_enc), payload);
    }

    /// One IO tick over every peer connection: flush outbound backlogs,
    /// read and reassemble inbound frames, and sort complete frames into
    /// the match store. Frames are stored while the connection lock is
    /// held, so concurrent pumps cannot interleave one channel's frames
    /// out of FIFO order.
    fn pump(&self, fenced: &dyn Fn(usize) -> bool) -> PumpOutcome {
        let mut out = PumpOutcome::default();
        for (peer, slot) in self.conns.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let mut conn = slot.lock();
            if conn.dead {
                continue;
            }
            out.did_work |= conn.flush();
            out.did_work |= conn.ingest();
            let mut arrived = false;
            while let Some((tag, payload)) = conn.next_frame(&self.pool) {
                out.did_work = true;
                arrived = true;
                self.memcpy
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                if !fenced(peer) {
                    self.store.push((peer, tag), payload);
                }
            }
            if arrived {
                out.arrivals.insert(peer);
            }
        }
        out
    }

    fn unflushed_bytes(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .map(|slot| {
                let conn = slot.lock();
                // A dead peer's backlog will never flush; the linger must
                // not wait on it.
                if conn.dead {
                    0
                } else {
                    conn.pending()
                }
            })
            .sum()
    }

    fn drop_peer(&self, node: usize) {
        let Some(slot) = self.conns.get(node).and_then(|s| s.as_ref()) else {
            return;
        };
        let mut conn = slot.lock();
        conn.out.clear();
        conn.sent = 0;
        conn.dead = true;
        let _ = conn.sock.shutdown(Shutdown::Both);
    }

    fn finalize(&self) {
        // Best-effort flush of whatever backlog remains (the runtime's
        // linger has already drained the normal case), then FIN so peers
        // see EOF instead of a stall.
        let deadline = Instant::now() + Duration::from_millis(100);
        for slot in self.conns.iter().flatten() {
            let mut conn = slot.lock();
            while !conn.dead && conn.pending() > 0 && Instant::now() < deadline {
                if !conn.flush() {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            let _ = conn.sock.shutdown(Shutdown::Write);
        }
    }

    fn purge(&self) {
        self.store.purge();
        for slot in self.conns.iter().flatten() {
            let mut conn = slot.lock();
            conn.inbuf.clear();
            conn.out.clear();
            conn.sent = 0;
        }
    }

    fn memcpy_bytes(&self) -> u64 {
        self.memcpy.load(Ordering::Relaxed)
    }

    fn debug_line(&self) -> String {
        let (mut live, mut dead, mut out_b, mut in_b) = (0usize, 0usize, 0usize, 0usize);
        let mut locked = false;
        for slot in self.conns.iter().flatten() {
            match slot.try_lock() {
                Some(conn) => {
                    if conn.dead {
                        dead += 1;
                    } else {
                        live += 1;
                        out_b += conn.pending();
                        in_b += conn.inbuf.len();
                    }
                }
                None => locked = true,
            }
        }
        let locked = if locked { " <locked>" } else { "" };
        format!(
            "tcp {live} live / {dead} dead conns, {out_b} B unflushed, {in_b} B unparsed{locked}"
        )
    }
}

// --- In-process loopback mesh ---------------------------------------------

/// Mesh `n` in-process nodes over 127.0.0.1 ephemeral ports: node `j`
/// connects to every `i < j` and identifies itself with an 8-byte LE node
/// id. Each node's transport parses inbound payloads into that node's slab
/// pool (`pools[me]`). Panics on socket failure — this is the
/// test/`Cluster` construction, where loopback sockets are an environment
/// invariant.
pub(crate) fn loopback_mesh(n: usize, pools: &[Arc<FramePool>]) -> Vec<Arc<dyn Transport>> {
    assert_eq!(pools.len(), n, "one slab pool per node");
    let die = |what: &str, e: io::Error| -> ! {
        panic!("netsim tcp loopback: {what}: {e}");
    };
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die("bind", e)))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap_or_else(|e| die("local_addr", e)))
        .collect();
    let mut streams: Vec<Vec<Option<TcpStream>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for j in 0..n {
        for i in 0..j {
            let mut c = TcpStream::connect(addrs[i]).unwrap_or_else(|e| die("connect", e));
            c.write_all(&(j as u64).to_le_bytes())
                .unwrap_or_else(|e| die("hello write", e));
            let (mut s, _) = listeners[i].accept().unwrap_or_else(|e| die("accept", e));
            let mut id = [0u8; 8];
            s.read_exact(&mut id)
                .unwrap_or_else(|e| die("hello read", e));
            let peer = u64::from_le_bytes(id) as usize;
            assert!(
                peer < n && peer > i && streams[i][peer].is_none(),
                "netsim tcp loopback: bogus hello from node {peer}"
            );
            streams[i][peer] = Some(s);
            streams[j][i] = Some(c);
        }
    }
    streams
        .into_iter()
        .enumerate()
        .map(|(me, s)| {
            Arc::new(
                TcpTransport::from_streams(me, s, pools[me].clone())
                    .unwrap_or_else(|e| die("socket opts", e)),
            ) as Arc<dyn Transport>
        })
        .collect()
}

// --- Multi-process bootstrap ----------------------------------------------

fn boot_timeout() -> Duration {
    let secs = std::env::var("PURE_TCP_BOOT_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    Duration::from_secs(secs)
}

fn timeout_err(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::TimedOut,
        format!("pure tcp bootstrap: {what}"),
    )
}

fn env_usize(key: &str) -> io::Result<usize> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("pure tcp bootstrap: {key} must be set to an integer"),
            )
        })
}

/// Accept one connection, waiting up to `deadline` on a nonblocking
/// listener.
fn accept_by(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match listener.accept() {
            Ok((s, _)) => return Ok(s),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(timeout_err("accept timed out"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Connect with retry until `deadline` — peers bind their listeners at
/// their own pace during bootstrap.
fn connect_by(addr: &SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("pure tcp bootstrap: connect to {addr} timed out: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn read_exact_by(s: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<()> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .ok_or_else(|| timeout_err("read timed out"))?;
    s.set_read_timeout(Some(remaining))?;
    s.read_exact(buf)
}

fn read_addr(s: &mut TcpStream, deadline: Instant) -> io::Result<SocketAddr> {
    let mut len = [0u8; 2];
    read_exact_by(s, &mut len, deadline)?;
    let mut raw = vec![0u8; u16::from_le_bytes(len) as usize];
    read_exact_by(s, &mut raw, deadline)?;
    String::from_utf8(raw)
        .ok()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "pure tcp bootstrap: bad addr"))
}

fn write_addr(out: &mut Vec<u8>, addr: &SocketAddr) {
    let a = addr.to_string();
    out.extend_from_slice(&(a.len() as u16).to_le_bytes());
    out.extend_from_slice(a.as_bytes());
}

/// Rank→address exchange through node 0: workers send
/// `[rank u64][addr_len u16][addr]` hellos, the root replies with the full
/// map, and the hello connections stay up as the 0↔worker links.
fn root_rendezvous(
    me: usize,
    n: usize,
    listener: &TcpListener,
    my_addr: SocketAddr,
    deadline: Instant,
) -> io::Result<(Vec<SocketAddr>, Vec<Option<TcpStream>>)> {
    let root_file = std::env::var("PURE_TCP_ROOT_FILE").map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "pure tcp bootstrap: PURE_TCP_ROOT_FILE (or PURE_TCP_MAP) must be set",
        )
    })?;
    let mut links: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    let mut map: Vec<SocketAddr> = vec![my_addr; n];
    if me == 0 {
        // Publish our address atomically (write-then-rename), then collect
        // one hello per worker.
        let tmp = format!("{root_file}.tmp");
        std::fs::write(&tmp, my_addr.to_string())?;
        std::fs::rename(&tmp, &root_file)?;
        for _ in 1..n {
            let mut s = accept_by(listener, deadline)?;
            let mut rank = [0u8; 8];
            read_exact_by(&mut s, &mut rank, deadline)?;
            let rank = u64::from_le_bytes(rank) as usize;
            if rank == 0 || rank >= n || links[rank].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("pure tcp bootstrap: bogus hello rank {rank}"),
                ));
            }
            map[rank] = read_addr(&mut s, deadline)?;
            links[rank] = Some(s);
        }
        // Everyone is known: broadcast the map back over the hello links.
        let mut reply = Vec::new();
        reply.extend_from_slice(&(n as u64).to_le_bytes());
        for a in &map {
            write_addr(&mut reply, a);
        }
        for s in links.iter_mut().flatten() {
            s.write_all(&reply)?;
        }
    } else {
        // Find the root, introduce ourselves, learn the full map.
        let root_addr: SocketAddr = loop {
            if let Ok(txt) = std::fs::read_to_string(&root_file) {
                if let Ok(a) = txt.trim().parse() {
                    break a;
                }
            }
            if Instant::now() >= deadline {
                return Err(timeout_err("root address file never appeared"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut s = connect_by(&root_addr, deadline)?;
        let mut hello = Vec::new();
        hello.extend_from_slice(&(me as u64).to_le_bytes());
        write_addr(&mut hello, &my_addr);
        s.write_all(&hello)?;
        let mut count = [0u8; 8];
        read_exact_by(&mut s, &mut count, deadline)?;
        if u64::from_le_bytes(count) as usize != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pure tcp bootstrap: node-count mismatch with root",
            ));
        }
        for slot in map.iter_mut() {
            *slot = read_addr(&mut s, deadline)?;
        }
        links[0] = Some(s);
    }
    Ok((map, links))
}

/// Build this process's endpoint for a multi-process TCP cluster.
///
/// Required environment: `PURE_TCP_NODE` (this node's id) and
/// `PURE_TCP_NODES` (cluster size), plus either `PURE_TCP_ROOT_FILE` (a
/// path node 0 publishes its listener address through — the usual
/// `pure-launch` flow) or `PURE_TCP_MAP` (a comma-separated list of
/// `host:port` listen addresses, one per node, for externally-orchestrated
/// clusters). `PURE_TCP_BOOT_TIMEOUT_SECS` bounds the whole rendezvous
/// (default 30).
///
/// The returned endpoint owns only this node's protocol state; remote
/// nodes are reachable purely through their sockets, and remote failures
/// surface through the failure detector rather than shared memory. The
/// node's slab pool is created here and shared between the transport's
/// parse path and the protocol layer's gather path.
pub fn multiproc_endpoint(cfg: NetConfig) -> io::Result<NodeEndpoint> {
    let me = env_usize("PURE_TCP_NODE")?;
    let n = env_usize("PURE_TCP_NODES")?;
    if me >= n || n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("pure tcp bootstrap: node {me} out of range for {n} nodes"),
        ));
    }
    let deadline = Instant::now() + boot_timeout();
    let explicit_map: Option<Vec<SocketAddr>> = match std::env::var("PURE_TCP_MAP") {
        Ok(m) => {
            let addrs: Option<Vec<SocketAddr>> =
                m.split(',').map(|a| a.trim().parse().ok()).collect();
            let addrs = addrs.filter(|a| a.len() == n).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "pure tcp bootstrap: PURE_TCP_MAP must list one host:port per node",
                )
            })?;
            Some(addrs)
        }
        Err(_) => None,
    };
    let listener = match &explicit_map {
        Some(map) => TcpListener::bind(map[me])?,
        None => TcpListener::bind("127.0.0.1:0")?,
    };
    let my_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // With an explicit map every link (including 0↔worker) follows the
    // generic higher-connects-to-lower rule; with the root flow the hello
    // connections already are the 0-links, so the mesh starts at node 1.
    let (map, mut links, lowest) = match explicit_map {
        Some(map) => {
            let links: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
            (map, links, 0)
        }
        None => {
            let (map, links) = root_rendezvous(me, n, &listener, my_addr, deadline)?;
            (map, links, 1)
        }
    };
    for peer in lowest..me {
        let mut s = connect_by(&map[peer], deadline)?;
        s.write_all(&(me as u64).to_le_bytes())?;
        links[peer] = Some(s);
    }
    // Peers above us (within the meshed range) dial in; the root in the
    // root-file flow accepts nothing here — its links are the hellos.
    let expect_accepts = if me < lowest { 0 } else { n - 1 - me };
    for _ in 0..expect_accepts {
        let mut s = accept_by(&listener, deadline)?;
        let mut rank = [0u8; 8];
        read_exact_by(&mut s, &mut rank, deadline)?;
        let rank = u64::from_le_bytes(rank) as usize;
        if rank <= me || rank >= n || links[rank].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("pure tcp bootstrap: bogus mesh hello from rank {rank}"),
            ));
        }
        links[rank] = Some(s);
    }
    for (peer, link) in links.iter().enumerate() {
        if peer != me && link.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("pure tcp bootstrap: no link to node {peer}"),
            ));
        }
    }
    let pool = FramePool::new();
    let raw = Arc::new(TcpTransport::from_streams(me, links, pool.clone())?);
    Ok(NodeEndpoint::from_single(raw, cfg, pool))
}
