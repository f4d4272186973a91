//! The reactor runtime of P2PDC — the one wall-clock backend: readiness-polled
//! event loops multiplexing many peers per OS thread over nonblocking UDP
//! sockets.
//!
//! The wire comes from [`crate::runtime::udp`] (datagram framing, fragment
//! reassembly, bootstrap discovery, loss shim, pacing gate) and failure
//! detection from the run-local ping server. A fixed pool of event-loop
//! threads each owns a contiguous slice of peers and multiplexes their
//! nonblocking sockets through the vendored [`polling`] readiness poller
//! (epoll on Linux). A thousand peers are a thousand sockets on a handful
//! of threads, so the 1024-peer rows of the scaling grid run on a laptop;
//! at the other end, `event_loops = peers` gives every peer its own OS
//! thread.
//!
//! Blocking is forbidden inside an event loop, so every wait is a per-peer
//! state machine phase: bootstrap discovery resends hellos on poll ticks
//! until the rank→address table lands (ghosts that race ahead of the
//! table are reassembled and held, then handed to the engine once it
//! starts, so no solve waits on a retransmission), a pre-provisioned join
//! rank stays dormant until its seeded join fires, and a crashed peer
//! parks in an await-grant phase (its replacement socket already bound)
//! until the failure monitor grants recovery or the run stops.

use crate::app::IterativeTask;
use crate::churn::{SharedVolatility, VolatilityState};
use crate::gossip::{GossipMessage, GossipNode, GossipTiming};
use crate::metrics::RunMeasurement;
use crate::runtime::detection::{self, LoopHeartbeat};
use crate::runtime::driver::{ClockDomain, DriverOutcome, RuntimeDriver, RuntimeKind, TaskFactory};
use crate::runtime::engine::{
    ConvergenceDetector, PeerEngine, PeerTransport, SharedDetector, TimerQueue,
};
use crate::runtime::udp::{
    localhost, send_gossip, Bootstrap, Datagram, LossShim, Reassembler, UdpTransport,
};
use crate::runtime::RunConfig;
use bytes::Bytes;
use netsim::{NodeId, Topology};
use polling::{Events, Poller};
use std::collections::HashMap;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the event loops compare their measured busy time and consider
/// migrating a peer between loops.
const REBALANCE_PERIOD: Duration = Duration::from_millis(50);

/// Required relative busy-time imbalance (busiest vs least-busy loop over
/// the last period) before a migration fires.
const REBALANCE_RATIO: f64 = 1.25;

/// A loop busier than this share of the period is never a migration target,
/// and one idler than `1 - this` never a source — absolute noise guard so
/// quiescent phases (discovery, drain-out) do not shuffle peers.
const REBALANCE_MIN_BUSY: Duration = Duration::from_millis(5);

/// Global switch for the measured loop rebalance (on by default). The
/// contention bench disables it to isolate the static-shard baseline; each
/// run reads it once, when it starts.
static REBALANCE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable migration of peers between reactor event loops.
pub fn set_rebalance_enabled(enabled: bool) {
    REBALANCE_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether reactor loop rebalancing is enabled.
pub fn rebalance_enabled() -> bool {
    REBALANCE_ENABLED.load(Ordering::Relaxed)
}

/// Per-loop busy-time observability of the most recent reactor run (see
/// [`last_loop_stats`]).
#[derive(Debug, Clone)]
pub struct LoopStats {
    /// Per-loop busy nanoseconds over the first completed rebalance period
    /// (the distribution the first migration decision saw).
    pub busy_ns_first_period: Vec<u64>,
    /// Per-loop busy nanoseconds accumulated over the whole run.
    pub busy_ns_final: Vec<u64>,
    /// Peer migrations performed between loops.
    pub migrations: u64,
}

/// Stats of the most recent completed reactor run on this process, for
/// examples and benches ([`run_iterative_reactor`] overwrites it per run).
static LAST_LOOP_STATS: Mutex<Option<LoopStats>> = Mutex::new(None);

/// Per-loop busy-time shares and migration count of the most recent reactor
/// run, if one completed.
pub fn last_loop_stats() -> Option<LoopStats> {
    LAST_LOOP_STATS.lock().unwrap().clone()
}

/// The registered [`RuntimeDriver`] of the reactor backend. Reads the
/// event-loop count and the loss/reorder shim probabilities from
/// [`BackendExtras::Reactor`](crate::BackendExtras).
pub struct ReactorDriver;

impl RuntimeDriver for ReactorDriver {
    fn kind(&self) -> RuntimeKind {
        RuntimeKind::Reactor
    }

    fn label(&self) -> &'static str {
        "reactor"
    }

    fn clock(&self) -> ClockDomain {
        ClockDomain::Wall
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome {
        let outcome = run_iterative_reactor(config, |rank| task_factory(rank));
        DriverOutcome {
            measurement: outcome.measurement,
            results: outcome.results,
            net: None,
            datagrams_dropped: outcome.datagrams_dropped,
        }
    }
}

/// Outcome of a reactor run.
#[derive(Debug, Clone)]
pub struct ReactorRunOutcome {
    /// Timing and relaxation measurements (elapsed is wall-clock).
    pub measurement: RunMeasurement,
    /// Per-rank serialized results.
    pub results: Vec<(usize, Vec<u8>)>,
    /// The localhost ports the peers bound during bootstrap, in rank order.
    pub ports: Vec<u16>,
    /// Datagrams dropped by the loss shim, summed over all peers.
    pub datagrams_dropped: u64,
}

/// How long a discovering peer waits before re-announcing itself to the
/// bootstrap service.
const HELLO_RETRY: Duration = Duration::from_millis(25);

/// Poll-timeout ceiling when every owned peer is quiescent: bounds the
/// latency of the dormant-join, await-grant and stop polls.
const IDLE_POLL_CAP: Duration = Duration::from_millis(2);

/// What to do with a peer's engine once the rank→address table arrives.
enum OnTable {
    /// Initial rank: first discovery, then `on_start`.
    Start,
    /// Mid-run joiner: announce to the failure detector, then `on_start`.
    JoinStart,
    /// Revived crash victim: republish the new port, re-register with the
    /// failure detector, then restore from the checkpoint.
    Recover,
}

/// One multiplexed peer's slot in an event loop.
enum Phase {
    /// Pre-provisioned join rank: no socket, no engine, waiting for its
    /// seeded join to fire (or the run to end first).
    Dormant,
    /// Socket bound, hello sent; waiting for the bootstrap table.
    Discovering {
        /// When the last hello went out (resend after [`HELLO_RETRY`]).
        hello_at: Instant,
        /// What to do once the table lands.
        then: OnTable,
    },
    /// Crashed; replacement socket bound, waiting for the recovery grant
    /// (or the run to stop).
    AwaitGrant,
    /// Discovered and computing.
    Running,
    /// Finished (or never spawned); shim flushed, socket deregistered.
    Done,
}

/// One peer multiplexed onto an event loop.
struct Peer {
    rank: usize,
    phase: Phase,
    /// `None` only while [`Phase::Dormant`].
    engine: Option<PeerEngine>,
    /// `None` only while [`Phase::Dormant`] (no socket yet).
    transport: Option<UdpTransport>,
    reassembler: Reassembler,
    /// Table received by the drain sweep, applied by the advance sweep.
    table: Option<Vec<SocketAddr>>,
    /// Segments completed while discovering, handed to the engine by the
    /// advance sweep right after it starts or recovers.
    held: Vec<(usize, Bytes)>,
    /// The peer's SWIM node under the gossip control plane (`None` under
    /// the centralized plane and while [`Phase::Dormant`]). Migrates with
    /// the peer between event loops.
    gossip: Option<GossipNode>,
    /// Last observed [`LoopShared::ports_version`]; a newer shared value
    /// means some rank rebound and this peer must refresh its address book.
    seen_ports_version: u64,
}

/// Everything an event loop shares with its siblings.
struct LoopShared<'a> {
    alpha: usize,
    topology: &'a Topology,
    config: &'a RunConfig,
    shared: &'a SharedDetector,
    volatility: &'a Option<SharedVolatility>,
    topo: &'a Option<detection::SharedTopologyManager>,
    bootstrap_addr: SocketAddr,
    start: Instant,
    ports: &'a Mutex<Vec<u16>>,
    /// Bumped on every write to `ports`. Peers poll it each Running turn and
    /// re-sync their address book when it moves: the `Table` re-broadcast
    /// after a rebind is a single unacked datagram, and a peer that misses
    /// it would send ghosts to a recovered peer's dead port forever (the
    /// victim's freshness guard then rightly never reports stability again,
    /// so the run never stops).
    ports_version: &'a AtomicU64,
    dropped: &'a AtomicU64,
    balancer: &'a Balancer,
}

/// Decision state of the periodic rebalance, taken with `try_lock` so the
/// check never blocks an event loop.
struct RebalanceClock {
    last_check: Instant,
    /// Busy-ns snapshot at the last check (deltas, not totals, drive the
    /// decision: a loop that was overloaded early but balanced now must not
    /// keep shedding).
    last_busy: Vec<u64>,
    /// The first completed period's per-loop busy deltas (observability).
    first_period: Option<Vec<u64>>,
}

/// Measured busy-time accounting and peer migration between event loops.
/// Each loop times its own drain+advance work into `busy_ns`; every
/// [`REBALANCE_PERIOD`] one loop compares the per-period deltas, and the
/// busiest loop sheds one Running peer into the least-busy loop's mailbox.
/// Migration happens at a safe point by construction — between loop
/// iterations nothing of a peer lives on the loop's stack; the socket stays
/// open (kernel-buffered datagrams survive), only its poller registration
/// moves.
struct Balancer {
    /// Peers in flight towards each loop.
    mailboxes: Vec<Mutex<Vec<Peer>>>,
    /// Lock-free occupancy hint per mailbox, so the per-iteration check is
    /// a load instead of a mutex acquisition.
    pending: Vec<AtomicUsize>,
    /// Measured busy nanoseconds per loop.
    busy_ns: Vec<AtomicU64>,
    /// Retired (Done) peers across all loops; loops exit when every
    /// provisioned rank has retired, wherever it ended up living.
    done: AtomicUsize,
    total: usize,
    migrations: AtomicU64,
    clock: Mutex<RebalanceClock>,
    /// Whether migration may fire (period accounting runs regardless).
    rebalance: bool,
}

impl Balancer {
    fn new(loops: usize, total: usize, rebalance: bool) -> Self {
        Self {
            mailboxes: (0..loops).map(|_| Mutex::new(Vec::new())).collect(),
            pending: (0..loops).map(|_| AtomicUsize::new(0)).collect(),
            busy_ns: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicUsize::new(0),
            total,
            migrations: AtomicU64::new(0),
            clock: Mutex::new(RebalanceClock {
                last_check: Instant::now(),
                last_busy: vec![0; loops],
                first_period: None,
            }),
            rebalance,
        }
    }

    fn add_busy(&self, index: usize, ns: u64) {
        self.busy_ns[index].fetch_add(ns, Ordering::Relaxed);
    }

    /// A peer retired (reached [`Phase::Done`]); the run drains out once
    /// every provisioned rank has.
    fn mark_done(&self) {
        self.done.fetch_add(1, Ordering::Release);
    }

    fn all_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.total
    }

    /// Hand `peer` to `target`'s mailbox (its socket must already be
    /// deregistered from the source poller).
    fn deliver(&self, target: usize, peer: Peer) {
        self.mailboxes[target].lock().unwrap().push(peer);
        self.pending[target].fetch_add(1, Ordering::Release);
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Take the peers delivered to loop `index`, if any.
    fn collect(&self, index: usize) -> Vec<Peer> {
        if self.pending[index].load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut inbox = self.mailboxes[index].lock().unwrap();
        self.pending[index].store(0, Ordering::Release);
        std::mem::take(&mut *inbox)
    }

    /// Rebalance check for loop `index`: returns the loop it should shed
    /// one Running peer to, when `index` was the busiest loop of a completed
    /// period and the imbalance clears the ratio and noise guards. Any loop
    /// may close a period; only the busiest one acts on it.
    fn shed_target(&self, index: usize) -> Option<usize> {
        let mut clock = self.clock.try_lock().ok()?;
        if clock.last_check.elapsed() < REBALANCE_PERIOD {
            return None;
        }
        let busy: Vec<u64> = self
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let deltas: Vec<u64> = busy
            .iter()
            .zip(&clock.last_busy)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        clock.last_check = Instant::now();
        clock.last_busy = busy;
        if clock.first_period.is_none() {
            clock.first_period = Some(deltas.clone());
        }
        drop(clock);
        // The period accounting above runs even when migration can't — the
        // busy-share stats stay meaningful on single-loop and
        // rebalance-disabled runs.
        if !self.rebalance || self.mailboxes.len() < 2 {
            return None;
        }
        let (max_loop, max_delta) = deltas.iter().copied().enumerate().max_by_key(|&(_, d)| d)?;
        let (min_loop, min_delta) = deltas.iter().copied().enumerate().min_by_key(|&(_, d)| d)?;
        let floor = REBALANCE_MIN_BUSY.as_nanos() as u64;
        if max_loop != index
            || min_loop == index
            || max_delta < floor
            || (max_delta as f64) < (min_delta as f64) * REBALANCE_RATIO + floor as f64
        {
            return None;
        }
        Some(min_loop)
    }

    fn stats(&self) -> LoopStats {
        let clock = self.clock.lock().unwrap();
        LoopStats {
            busy_ns_first_period: clock.first_period.clone().unwrap_or_default(),
            busy_ns_final: self
                .busy_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            migrations: self.migrations.load(Ordering::Relaxed),
        }
    }
}

/// Kernel buffer size requested for every peer socket. A single ghost
/// exchange of a large-grid workload fragments into hundreds of datagrams
/// arriving as one burst; the ~208 KiB default `rmem` drops most of such a
/// burst, and every dropped fragment voids its whole segment's reassembly
/// and triggers a retransmission of the full ghost — a feedback loop that
/// can keep a large run from ever converging. Best-effort: the kernel
/// clamps the request to `net.core.{r,w}mem_max`.
const SOCKET_BUFFER_BYTES: i32 = 4 << 20;

/// Grow a socket's kernel receive and send buffers (linux only; a no-op
/// elsewhere). Failures are ignored — the run still works at the default
/// size, just with more retransmissions.
#[cfg(target_os = "linux")]
fn grow_socket_buffers(socket: &UdpSocket) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    let val = SOCKET_BUFFER_BYTES;
    let ptr = &val as *const i32 as *const core::ffi::c_void;
    let len = core::mem::size_of::<i32>() as u32;
    unsafe {
        setsockopt(socket.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, ptr, len);
        setsockopt(socket.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, ptr, len);
    }
}

#[cfg(not(target_os = "linux"))]
fn grow_socket_buffers(_socket: &UdpSocket) {}

impl Peer {
    /// A rank's slot before it has an engine or a socket.
    fn dormant(rank: usize) -> Self {
        Self {
            rank,
            phase: Phase::Dormant,
            engine: None,
            transport: None,
            reassembler: Reassembler::new(),
            table: None,
            held: Vec::new(),
            gossip: None,
            seen_ports_version: 0,
        }
    }

    /// Bind a fresh nonblocking socket for this rank, register it with the
    /// poller under the rank as key, publish its port, and enter discovery.
    fn bind_and_discover(&mut self, poller: &Poller, ctx: &LoopShared<'_>, then: OnTable) {
        let socket = UdpSocket::bind(SocketAddrV4::new(localhost(), 0))
            .expect("bind peer socket on localhost");
        socket.set_nonblocking(true).expect("set nonblocking");
        grow_socket_buffers(&socket);
        ctx.ports.lock().unwrap()[self.rank] = socket.local_addr().expect("peer local addr").port();
        ctx.ports_version.fetch_add(1, Ordering::Release);
        poller
            .add(&socket, self.rank)
            .expect("register peer socket");
        let total = ctx.topology.len();
        let (loss, reorder) = ctx.config.extras.impairment();
        self.transport = Some(UdpTransport {
            rank: self.rank,
            start: ctx.start,
            socket,
            addrs: vec![SocketAddr::V4(SocketAddrV4::new(localhost(), 0)); total],
            // Per-rank stream so peers do not share drop decisions.
            shim: LossShim::new(
                ctx.config.seed.wrapping_add(self.rank as u64),
                loss,
                reorder,
            ),
            next_msg_id: 0,
            timers: TimerQueue::new(),
            compute_pending: false,
            topology: ctx.topology.clone(),
            next_send_ok: HashMap::new(),
            send_frame: Vec::new(),
        });
        self.send_hello(ctx);
        self.phase = Phase::Discovering {
            hello_at: Instant::now(),
            then,
        };
    }

    fn send_hello(&mut self, ctx: &LoopShared<'_>) {
        let transport = self
            .transport
            .as_ref()
            .expect("discovering peer has socket");
        let hello = Datagram::Hello { rank: self.rank }.encode();
        let _ = transport.socket.send_to(&hello, ctx.bootstrap_addr);
    }

    /// Retire the peer: flush the shim's held-back datagram, account its
    /// drops, deregister the socket.
    fn finish(&mut self, poller: &Poller, ctx: &LoopShared<'_>) {
        if let Some(transport) = &mut self.transport {
            transport.shim.flush(&transport.socket);
            ctx.dropped
                .fetch_add(transport.shim.dropped, Ordering::Relaxed);
            transport.shim.dropped = 0;
            let _ = poller.delete(&transport.socket);
        }
        self.phase = Phase::Done;
    }

    /// Drain everything the kernel has buffered on this peer's socket.
    /// While running, fragments are reassembled into segments for the
    /// engine and control datagrams are dispatched to it. While
    /// discovering, fragments are reassembled too and the completed
    /// segments held until the table lands: a neighbour that got its table
    /// first may already have sent its first synchronous ghost, and
    /// dropping it would leave the sender waiting a full retransmission
    /// timeout. Of the control datagrams, only the table is acted on then.
    fn drain(&mut self, buf: &mut [u8]) {
        let Some(transport) = self.transport.as_mut() else {
            return;
        };
        while let Ok((len, _)) = transport.socket.recv_from(buf) {
            let running = match self.phase {
                Phase::Running => true,
                Phase::Discovering { .. } => false,
                // Dormant peers have no socket; a crashed peer's replacement
                // socket swallows stray traffic unread until recovery.
                _ => continue,
            };
            let engine = self.engine.as_mut().expect("socket-owning peer has engine");
            if running && engine.finished() {
                break;
            }
            // Fragments (the data hot path) are parsed borrowed and copied
            // once, into a pooled reassembly buffer; control datagrams take
            // the allocating decode.
            if let Some((from, msg_id, frag_index, frag_count, payload)) =
                Datagram::fragment_fields(&buf[..len])
            {
                if let Some((from, segment)) = self
                    .reassembler
                    .push_ref(from, msg_id, frag_index, frag_count, payload)
                {
                    if running {
                        engine.on_segment(from, segment, transport);
                    } else {
                        self.held.push((from, segment));
                    }
                }
                continue;
            }
            match Datagram::decode(&buf[..len]) {
                Some(Datagram::Table { ports }) if ports.len() == transport.addrs.len() => {
                    let addrs = ports
                        .into_iter()
                        .map(|p| SocketAddr::V4(SocketAddrV4::new(localhost(), p)))
                        .collect();
                    if running {
                        // A table re-broadcast mid-run: a joiner announced
                        // or a recovered peer rebound its socket.
                        transport.addrs = addrs;
                    } else {
                        self.table = Some(addrs);
                    }
                }
                // While discovering, only the table is acted on.
                _ if !running => {}
                Some(Datagram::Stop { .. }) => engine.on_stop_signal(transport),
                Some(Datagram::Fragment { .. }) => unreachable!("fragments parsed above"),
                Some(Datagram::Rollback {
                    to_iteration,
                    generation,
                    ..
                }) => engine.on_rollback(to_iteration, generation, transport),
                Some(Datagram::Gossip { payload, .. }) => {
                    if let (Some(g), Some(msg)) =
                        (self.gossip.as_mut(), GossipMessage::decode(&payload))
                    {
                        let now = transport.now_ns();
                        for (to, reply) in g.on_message(&msg, now) {
                            send_gossip(
                                &transport.socket,
                                &transport.addrs,
                                transport.rank,
                                to,
                                &reply,
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// One state-machine turn.
    fn advance(&mut self, poller: &Poller, ctx: &LoopShared<'_>) {
        match &mut self.phase {
            Phase::Done => {}
            Phase::Dormant => {
                // A joiner builds its task from the checkpointed slice it
                // adopts (`join_run`), not from the task factory.
                let vol = ctx.volatility.as_ref().expect("join ranks imply churn");
                if vol.lock().take_spawn_if(self.rank) {
                    match PeerEngine::join_run(
                        self.rank,
                        ctx.config.scheme,
                        ctx.topology,
                        Arc::clone(ctx.shared),
                        Arc::clone(vol),
                        ctx.config.max_relaxations,
                    ) {
                        Some(engine) => {
                            self.engine = Some(engine);
                            self.gossip = new_gossip_node(ctx, self.rank);
                            self.bind_and_discover(poller, ctx, OnTable::JoinStart);
                        }
                        None => self.phase = Phase::Done,
                    }
                } else if ctx.shared.stopped() {
                    // The run ended before the join fired: exit without ever
                    // having existed.
                    self.phase = Phase::Done;
                }
            }
            Phase::Discovering { hello_at, .. } => {
                if let Some(addrs) = self.table.take() {
                    let transport = self
                        .transport
                        .as_mut()
                        .expect("discovering peer has socket");
                    transport.addrs = addrs;
                    let engine = self.engine.as_mut().expect("discovering peer has engine");
                    let Phase::Discovering { then, .. } =
                        std::mem::replace(&mut self.phase, Phase::Running)
                    else {
                        unreachable!()
                    };
                    match then {
                        OnTable::Start => engine.on_start(transport),
                        OnTable::JoinStart => {
                            // The joiner announces itself to the failure
                            // detector before its first relaxation.
                            if let Some(topo) = ctx.topo {
                                detection::register_alive(topo, ctx.topology, self.rank, ctx.start);
                            }
                            engine.on_start(transport);
                        }
                        OnTable::Recover => {
                            if let Some(topo) = ctx.topo {
                                detection::register_alive(topo, ctx.topology, self.rank, ctx.start);
                            }
                            engine.recover(transport);
                            // Refute the (correct) death verdict with a
                            // bumped incarnation.
                            if let Some(g) = self.gossip.as_mut() {
                                g.on_recovered();
                            }
                        }
                    }
                    for (from, segment) in self.held.drain(..) {
                        if engine.finished() {
                            break;
                        }
                        engine.on_segment(from, segment, transport);
                    }
                } else if hello_at.elapsed() >= HELLO_RETRY {
                    *hello_at = Instant::now();
                    self.send_hello(ctx);
                }
            }
            Phase::AwaitGrant => {
                if ctx.shared.stopped() {
                    // Relaxation cap reached elsewhere while this peer was
                    // down: fold it into the stop instead of reviving it.
                    let transport = self
                        .transport
                        .as_mut()
                        .expect("crashed peer keeps a socket");
                    self.engine
                        .as_mut()
                        .expect("crashed peer has engine")
                        .on_stop_signal(transport);
                    self.finish(poller, ctx);
                } else if ctx
                    .volatility
                    .as_ref()
                    .is_some_and(|vol| vol.lock().is_granted(self.rank))
                {
                    // Rejoin: announce the replacement socket to the
                    // bootstrap (which re-broadcasts the table to every
                    // peer), then restore from the checkpoint.
                    self.send_hello(ctx);
                    self.phase = Phase::Discovering {
                        hello_at: Instant::now(),
                        then: OnTable::Recover,
                    };
                }
            }
            Phase::Running => {
                let transport = self.transport.as_mut().expect("running peer has socket");
                let engine = self.engine.as_mut().expect("running peer has engine");
                // Re-sync the address book when any rank rebound its socket.
                // Heals a lost `Table` re-broadcast: without this, ghosts to
                // the victim's dead port keep its freshness guard unstable
                // forever and the run burns to the relaxation cap.
                let ports_version = ctx.ports_version.load(Ordering::Acquire);
                if ports_version != self.seen_ports_version {
                    self.seen_ports_version = ports_version;
                    for (nb, &port) in ctx.ports.lock().unwrap().iter().enumerate() {
                        if nb != self.rank && port != 0 {
                            transport.addrs[nb] =
                                SocketAddr::V4(SocketAddrV4::new(localhost(), port));
                        }
                    }
                }
                // (Heartbeats are batched at the event-loop level: one
                // topology-server acquisition per ping period covers every
                // running peer the loop multiplexes.)
                while !engine.finished() {
                    let Some(key) = transport.pop_due_timer() else {
                        break;
                    };
                    engine.on_timer(key, transport);
                }
                if !engine.finished() && transport.compute_pending {
                    transport.compute_pending = false;
                    engine.on_compute_done(transport);
                    if engine.crashed() {
                        // The peer died. Kill its socket for real: the old
                        // port closes, in-flight datagrams to it are dropped
                        // by the kernel, and neighbours' sends go nowhere
                        // until the bootstrap publishes the revived peer's
                        // new port. Timers die with it, and after a last
                        // ping at the crash instant it stops pinging — the
                        // topology manager evicts it three periods later
                        // and the monitor grants recovery.
                        if let Some(topo) = ctx.topo {
                            detection::register_alive(topo, ctx.topology, self.rank, ctx.start);
                        }
                        transport.shim.flush(&transport.socket);
                        let _ = poller.delete(&transport.socket);
                        transport.timers = TimerQueue::new();
                        transport.compute_pending = false;
                        transport.socket = UdpSocket::bind(SocketAddrV4::new(localhost(), 0))
                            .expect("bind replacement socket on localhost");
                        transport
                            .socket
                            .set_nonblocking(true)
                            .expect("set replacement socket nonblocking");
                        grow_socket_buffers(&transport.socket);
                        poller
                            .add(&transport.socket, self.rank)
                            .expect("register replacement socket");
                        ctx.ports.lock().unwrap()[self.rank] = transport
                            .socket
                            .local_addr()
                            .expect("replacement local addr")
                            .port();
                        ctx.ports_version.fetch_add(1, Ordering::Release);
                        self.reassembler = Reassembler::new();
                        self.phase = Phase::AwaitGrant;
                        return;
                    }
                }
                // Gossip control plane: author the latest sweep, run the
                // probe cycle, feed death verdicts into the recovery
                // coordinator (level-triggered; `grant` no-ops unless the
                // rank really crashed), and evaluate the stop decision over
                // the merged digest.
                if !engine.finished() {
                    if let Some(g) = self.gossip.as_mut() {
                        if let Some(sweep) = engine.sweep_summary() {
                            g.record_sweep(&sweep);
                        }
                        let now = transport.now_ns();
                        for (to, msg) in g.poll(now) {
                            send_gossip(&transport.socket, &transport.addrs, self.rank, to, &msg);
                        }
                        if let Some(vol) = ctx.volatility {
                            for dead in g.dead_ranks() {
                                vol.lock()
                                    .grant(dead, &g.gossiped_loads(ctx.topology.len()));
                            }
                        }
                        if g.decide(ctx.config.scheme, engine.generation()) {
                            engine.on_distributed_decision(transport);
                        }
                    }
                }
                if !engine.finished() {
                    // Another peer may have stopped the run while this one
                    // was idling in a scheme wait (or its stop datagram was
                    // dropped). Poll the detector's published verdicts as
                    // the safety net.
                    if ctx.shared.stopped() {
                        engine.on_stop_signal(transport);
                    } else {
                        engine.poll_rollback(transport);
                        engine.poll_membership(transport);
                    }
                }
                if engine.finished() {
                    self.finish(poller, ctx);
                }
            }
        }
    }

    /// Whether this peer needs an immediate next turn (zero poll timeout).
    fn busy(&self) -> bool {
        match self.phase {
            Phase::Running => {
                self.transport.as_ref().is_some_and(|t| t.compute_pending)
                    || self.engine.as_ref().is_some_and(|e| e.computing())
            }
            _ => false,
        }
    }

    /// This peer's next self-imposed deadline, as a delay from now.
    fn next_deadline(&self, now_ns: u64) -> Option<Duration> {
        match self.phase {
            Phase::Running => self
                .transport
                .as_ref()
                .and_then(UdpTransport::earliest_timer_deadline)
                .map(|deadline| Duration::from_nanos(deadline.saturating_sub(now_ns))),
            _ => None,
        }
    }
}

/// The peer's SWIM node, when the run gossips its control plane.
fn new_gossip_node(ctx: &LoopShared<'_>, rank: usize) -> Option<GossipNode> {
    ctx.config.control_plane.fanout().map(|fanout| {
        GossipNode::new(
            rank,
            ctx.alpha,
            ctx.topology.len(),
            fanout,
            ctx.config.seed,
            GossipTiming::wall_clock(),
        )
    })
}

/// One event loop: drive the peers of `ranks` (its initial shard) plus any
/// peers migrated in from busier loops, until every provisioned rank —
/// wherever it ended up living — has retired.
fn event_loop(
    index: usize,
    ranks: std::ops::Range<usize>,
    ctx: &LoopShared<'_>,
    task_factory: &(dyn Fn(usize) -> Box<dyn IterativeTask> + Sync),
) {
    let poller = Poller::new().expect("create readiness poller");
    let mut events = Events::new();
    let mut buf = vec![0u8; 65536];
    let mut heartbeat = LoopHeartbeat::new();
    let mut running_nodes: Vec<NodeId> = Vec::new();
    // Keyed by rank (the rank is also each socket's poller key), because
    // migration makes the resident set non-contiguous.
    let mut peers: HashMap<usize, Peer> = ranks.map(|rank| (rank, Peer::dormant(rank))).collect();
    // Initial ranks get their engine and socket up front; pre-provisioned
    // join ranks stay dormant.
    for peer in peers.values_mut() {
        if peer.rank < ctx.alpha {
            let mut engine = PeerEngine::new(
                peer.rank,
                ctx.config.scheme,
                ctx.topology,
                task_factory(peer.rank),
                Arc::clone(ctx.shared),
                ctx.config.max_relaxations,
            );
            if let Some(vol) = ctx.volatility {
                engine.attach_volatility(Arc::clone(vol));
            }
            peer.engine = Some(engine);
            peer.gossip = new_gossip_node(ctx, peer.rank);
            peer.bind_and_discover(&poller, ctx, OnTable::Start);
        }
    }

    while !ctx.balancer.all_done() {
        // Adopt peers migrated in from a busier loop: their sockets are
        // open but deregistered; register them under this loop's poller.
        for peer in ctx.balancer.collect(index) {
            if let Some(transport) = &peer.transport {
                poller
                    .add(&transport.socket, peer.rank)
                    .expect("register migrated socket");
            }
            peers.insert(peer.rank, peer);
        }
        // A pending compute means an immediate turn; otherwise sleep in the
        // poller until the earliest protocol timer, capped so the dormant /
        // await-grant / discovery / stop / mailbox polls stay responsive.
        let timeout = if peers.values().any(Peer::busy) {
            Duration::ZERO
        } else {
            let now_ns = ctx.start.elapsed().as_nanos() as u64;
            peers
                .values()
                .filter_map(|p| p.next_deadline(now_ns))
                .fold(IDLE_POLL_CAP, Duration::min)
        };
        events.clear();
        let _ = poller.wait(&mut events, Some(timeout));
        let work = Instant::now();
        for event in events.iter() {
            if let Some(peer) = peers.get_mut(&event.key) {
                peer.drain(&mut buf);
            }
        }
        // One batched heartbeat per ping period covering every running peer
        // this loop multiplexes: a single topology-server acquisition
        // instead of one per peer.
        if let Some(topo) = ctx.topo {
            if heartbeat.due() {
                running_nodes.clear();
                running_nodes.extend(
                    peers
                        .values()
                        .filter(|p| matches!(p.phase, Phase::Running))
                        .map(|p| NodeId(p.rank)),
                );
                heartbeat.beat_many(topo, ctx.topology, ctx.start, &running_nodes);
            }
        }
        for peer in peers.values_mut() {
            peer.advance(&poller, ctx);
        }
        peers.retain(|_, peer| {
            if matches!(peer.phase, Phase::Done) {
                ctx.balancer.mark_done();
                false
            } else {
                true
            }
        });
        ctx.balancer
            .add_busy(index, work.elapsed().as_nanos() as u64);
        // Rebalance at a safe point: between loop iterations nothing of a
        // peer lives on this stack, so the busiest loop can hand one running
        // peer to the least-busy loop's mailbox. The socket stays open
        // (kernel-buffered datagrams survive the hop); only its poller
        // registration moves. Shedding the *only* running peer would just
        // relocate the hotspot, so require two.
        if let Some(target) = ctx.balancer.shed_target(index) {
            let mut running = peers
                .values()
                .filter(|p| matches!(p.phase, Phase::Running))
                .map(|p| p.rank);
            let shed_rank = running.next().and_then(|_| running.next());
            drop(running);
            if let Some(rank) = shed_rank {
                let peer = peers.remove(&rank).expect("just found running peer");
                if let Some(transport) = &peer.transport {
                    let _ = poller.delete(&transport.socket);
                }
                ctx.balancer.deliver(target, peer);
            }
        }
    }
}

/// Run a distributed iterative computation over nonblocking localhost UDP
/// sockets multiplexed onto a few readiness-polled event loops.
pub(crate) fn run_iterative_reactor<F>(config: &RunConfig, task_factory: F) -> ReactorRunOutcome
where
    F: Fn(usize) -> Box<dyn IterativeTask> + Send + Sync,
{
    let alpha = config.topology.len();
    assert!(alpha >= 1);
    // Pre-provision bootstrap-table slots and a dormant event-loop slot for
    // ranks that may join mid-run.
    let topology = config.provisioned_topology();
    let total = topology.len();
    let shared = ConvergenceDetector::shared_with_capacity(
        config.tolerance,
        config.scheme,
        alpha,
        topology.len(),
    );
    let volatility = config.churn.as_ref().map(|plan| {
        let vol = VolatilityState::shared(plan, alpha, config.scheme);
        if let Some(handle) = &config.repartitioner {
            vol.lock().set_repartitioner(handle.clone());
        }
        vol
    });
    // Bootstrap: bind the service port first so peers have a rendezvous.
    let bootstrap = Bootstrap::start(alpha, total);

    // Event-loop pool: explicit via extras, otherwise sized from the host's
    // parallelism (the loops are compute-bound — the relaxation kernels run
    // inline on them).
    let loops = config
        .extras
        .event_loops()
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, total);
    let chunk = total.div_ceil(loops);
    // div_ceil can leave trailing loops with empty shards; size the balancer
    // to the loops that actually spawn, or a migration could land in a
    // mailbox no thread ever collects.
    let live_loops = total.div_ceil(chunk);

    // Wall-clock failure detection: peers ping a run-local
    // topology-manager server; the monitor
    // thread sweeps it for missed-ping evictions. Each loop heartbeats all
    // its peers at once, so the eviction window scales with the multiplex
    // degree (a loaded loop's iteration outlasting three bare ping periods
    // must not read as the death of every peer it drives). Under the gossip
    // control plane the ping server is retired for the run — eviction
    // verdicts come from SWIM rumors, the stop decision from merged
    // digests.
    let topo = if config.control_plane.is_gossip() {
        None
    } else {
        volatility
            .as_ref()
            .map(|_| detection::server_with_all_ranks(&config.topology, chunk))
    };
    if config.control_plane.is_gossip() {
        shared.lock().set_distributed_decision(true);
    }

    let start = Instant::now();
    let ports = Mutex::new(vec![0u16; total]);
    let ports_version = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let balancer = Balancer::new(live_loops, total, rebalance_enabled());
    let ctx = LoopShared {
        alpha,
        topology: &topology,
        config,
        shared: &shared,
        volatility: &volatility,
        topo: &topo,
        bootstrap_addr: bootstrap.addr,
        start,
        ports: &ports,
        ports_version: &ports_version,
        dropped: &dropped,
        balancer: &balancer,
    };
    let task_factory = &task_factory;
    std::thread::scope(|scope| {
        if let (Some(vol), Some(topo)) = (&volatility, &topo) {
            let vol = Arc::clone(vol);
            let topo = Arc::clone(topo);
            let shared = Arc::clone(&shared);
            scope.spawn(move || detection::run_monitor(&vol, &topo, &shared, total, start));
        }
        let ctx = &ctx;
        for index in 0..live_loops {
            let lo = index * chunk;
            let hi = ((index + 1) * chunk).min(total);
            scope.spawn(move || event_loop(index, lo..hi, ctx, task_factory));
        }
    });
    bootstrap.shutdown();
    *LAST_LOOP_STATS.lock().unwrap() = Some(balancer.stats());

    let fallback_now = start.elapsed().as_nanos() as u64;
    let (mut measurement, results) = shared
        .lock()
        .finish_run(fallback_now, config.max_relaxations);
    if let Some(vol) = &volatility {
        vol.lock().annotate(&mut measurement);
    }
    ReactorRunOutcome {
        measurement,
        results,
        ports: ports.into_inner().unwrap(),
        datagrams_dropped: dropped.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::engine::testing::RampTask;
    use crate::BackendExtras;
    use p2psap::data::ReliabilityMicro;
    use p2psap::Scheme;

    const RAMP: u64 = 10;

    fn run(config: &RunConfig) -> ReactorRunOutcome {
        let peers = config.topology.len();
        run_iterative_reactor(config, |rank| Box::new(RampTask::line(rank, peers, RAMP)))
    }

    /// Two event loops multiplexing three peers: the loops genuinely share
    /// peers (one carries two), and the synchronous scheme still runs in
    /// lockstep over the multiplexed sockets.
    #[test]
    fn synchronous_scheme_on_the_reactor_runs_in_lockstep() {
        let mut config =
            RunConfig::quick(Scheme::Synchronous, 3).with_extras(BackendExtras::Reactor {
                event_loops: 2,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        // Lockstep counts: the convergence iteration is the ramp length;
        // before the stop lands a wall-clock peer can overshoot it by at
        // most the topology diameter (it only waits on direct neighbours).
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(
                (RAMP..RAMP + 3).contains(&count),
                "lockstep violated: {count} vs ramp {RAMP}"
            );
        }
        assert_eq!(
            outcome
                .measurement
                .relaxations_per_peer
                .iter()
                .min()
                .copied(),
            Some(RAMP),
            "the detecting peer stops at exactly the convergence iteration"
        );
        assert_eq!(outcome.results.len(), 3);
        // Bootstrap assigned a distinct real port to every peer.
        let mut ports = outcome.ports.clone();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
        assert!(ports.iter().all(|&p| p != 0));
    }

    #[test]
    fn asynchronous_scheme_on_the_reactor_converges() {
        let mut config = RunConfig::quick(Scheme::Asynchronous, 3);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(count >= RAMP, "peer finished early: {count} < {RAMP}");
        }
    }

    #[test]
    fn hybrid_scheme_on_the_reactor_converges_across_two_clusters() {
        let mut config = RunConfig::quick_two_clusters(Scheme::Hybrid, 4);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        assert_eq!(outcome.results.len(), 4);
    }

    /// The migration decision: only the busiest loop of a completed period
    /// sheds, only when the imbalance clears the ratio and absolute-noise
    /// guards, and the target is the least-busy loop.
    #[test]
    fn shed_target_picks_the_least_busy_loop_only_under_real_imbalance() {
        let balancer = Balancer::new(3, 6, true);
        // Synthetic period: loop 0 did 40 ms of work, loop 1 did 10 ms,
        // loop 2 did 2 ms.
        balancer.add_busy(0, 40_000_000);
        balancer.add_busy(1, 10_000_000);
        balancer.add_busy(2, 2_000_000);
        // The period has not elapsed yet: nobody sheds.
        assert_eq!(balancer.shed_target(0), None);
        std::thread::sleep(REBALANCE_PERIOD + Duration::from_millis(10));
        // Loop 1 closes the period first but is not the busiest, so it does
        // not act — and the period is consumed for everyone.
        assert_eq!(balancer.shed_target(1), None);
        assert_eq!(balancer.shed_target(0), None, "period already closed");
        // Next period: same imbalance again, the busiest loop acts.
        balancer.add_busy(0, 40_000_000);
        balancer.add_busy(1, 10_000_000);
        balancer.add_busy(2, 2_000_000);
        std::thread::sleep(REBALANCE_PERIOD + Duration::from_millis(10));
        assert_eq!(balancer.shed_target(0), Some(2));
        // A balanced period sheds nothing even at high absolute load.
        for index in 0..3 {
            balancer.add_busy(index, 30_000_000);
        }
        std::thread::sleep(REBALANCE_PERIOD + Duration::from_millis(10));
        assert_eq!(balancer.shed_target(0), None);
        // The first completed period's deltas were captured for the stats.
        let stats = balancer.stats();
        assert_eq!(
            stats.busy_ns_first_period,
            vec![40_000_000, 10_000_000, 2_000_000]
        );
        assert_eq!(stats.migrations, 0, "decisions alone are not migrations");
    }

    /// A quiescent imbalance (all deltas under the noise floor) must not
    /// shuffle peers, and a balancer built with rebalancing off vetoes
    /// migration while the period accounting keeps running.
    #[test]
    fn shed_target_respects_noise_floor_and_disable_switch() {
        let quiet = Balancer::new(2, 4, true);
        quiet.add_busy(0, 100_000); // 0.1 ms: under the 5 ms floor
        std::thread::sleep(REBALANCE_PERIOD + Duration::from_millis(10));
        assert_eq!(quiet.shed_target(0), None, "noise must not migrate peers");

        let disabled = Balancer::new(2, 4, false);
        disabled.add_busy(0, 40_000_000);
        std::thread::sleep(REBALANCE_PERIOD + Duration::from_millis(10));
        assert_eq!(
            disabled.shed_target(0),
            None,
            "disabled rebalance must not migrate"
        );
        assert_eq!(
            disabled.stats().busy_ns_first_period,
            vec![40_000_000, 0],
            "stats still recorded while disabled"
        );
    }

    /// The mailbox round trip: a delivered peer is visible through the
    /// lock-free occupancy hint, collected exactly once, and counted as a
    /// migration; retirement counting drains the run.
    #[test]
    fn mailbox_delivery_and_done_counting() {
        let balancer = Balancer::new(2, 2, true);
        assert!(balancer.collect(1).is_empty());
        balancer.deliver(1, Peer::dormant(7));
        assert!(balancer.collect(0).is_empty(), "wrong mailbox stays empty");
        let arrived = balancer.collect(1);
        assert_eq!(arrived.len(), 1);
        assert_eq!(arrived[0].rank, 7);
        assert!(balancer.collect(1).is_empty(), "collect drains the mailbox");
        assert_eq!(balancer.stats().migrations, 1);
        assert!(!balancer.all_done());
        balancer.mark_done();
        balancer.mark_done();
        assert!(balancer.all_done());
    }

    /// Ghosts that reach a peer still waiting for its bootstrap table are
    /// kept, not dropped: the middle rank of a synchronous line gets one
    /// neighbour's first ghost before its table and the other's right after
    /// it, in one drain. Both reach its engine once it runs, so it starts
    /// its second relaxation at once — without them it would sit idle until
    /// the neighbours' retransmission timers fired.
    #[test]
    fn ghosts_racing_the_bootstrap_table_reach_the_engine() {
        let peers = 3;
        let config = RunConfig::quick(Scheme::Synchronous, peers);
        let topology = config.provisioned_topology();
        let shared = ConvergenceDetector::shared_with_capacity(
            config.tolerance,
            config.scheme,
            peers,
            peers,
        );
        // The test plays the bootstrap service and hands out the tables.
        let bootstrap = UdpSocket::bind(SocketAddrV4::new(localhost(), 0)).unwrap();
        let ports = Mutex::new(vec![0u16; peers]);
        let ports_version = AtomicU64::new(0);
        let dropped = AtomicU64::new(0);
        let balancer = Balancer::new(1, peers, false);
        let ctx = LoopShared {
            alpha: peers,
            topology: &topology,
            config: &config,
            shared: &shared,
            volatility: &None,
            topo: &None,
            bootstrap_addr: bootstrap.local_addr().unwrap(),
            start: Instant::now(),
            ports: &ports,
            ports_version: &ports_version,
            dropped: &dropped,
            balancer: &balancer,
        };
        let poller = Poller::new().unwrap();
        let mut line: Vec<Peer> = (0..peers)
            .map(|rank| {
                let mut peer = Peer::dormant(rank);
                peer.engine = Some(PeerEngine::new(
                    rank,
                    config.scheme,
                    &topology,
                    Box::new(RampTask::line(rank, peers, RAMP)),
                    Arc::clone(&shared),
                    config.max_relaxations,
                ));
                peer.bind_and_discover(&poller, &ctx, OnTable::Start);
                peer
            })
            .collect();
        let table = Datagram::Table {
            ports: ports.lock().unwrap().clone(),
        }
        .encode();
        let send_table = |peer: &Peer| {
            let addr = peer
                .transport
                .as_ref()
                .unwrap()
                .socket
                .local_addr()
                .unwrap();
            bootstrap.send_to(&table, addr).unwrap();
        };
        let mut buf = vec![0u8; 65536];
        // Start an outer rank and run it through its first relaxation: its
        // ghost to rank 1 leaves as soon as the sweep completes.
        let first_sweep = |peer: &mut Peer, buf: &mut [u8]| {
            send_table(peer);
            for _ in 0..1000 {
                peer.drain(buf);
                peer.advance(&poller, &ctx);
                let engine = peer.engine.as_ref().unwrap();
                if engine.relaxations() >= 1 && !engine.computing() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("rank {} never finished its first sweep", peer.rank);
        };
        let (outer, rest) = line.split_at_mut(1);
        let (middle, last) = rest.split_at_mut(1);
        let (rank0, rank1, rank2) = (&mut outer[0], &mut middle[0], &mut last[0]);
        first_sweep(rank0, &mut buf);
        let socket1 = &rank1.transport.as_ref().unwrap().socket;
        let ghost_queued = (0..1000).any(|_| {
            let queued = socket1.peek_from(&mut buf).is_ok();
            if !queued {
                std::thread::sleep(Duration::from_millis(1));
            }
            queued
        });
        assert!(ghost_queued, "rank 0's ghost never reached rank 1");
        send_table(rank1);
        first_sweep(rank2, &mut buf);
        for _ in 0..1000 {
            rank1.drain(&mut buf);
            if rank1.table.is_some() && rank1.held.len() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(rank1.phase, Phase::Discovering { .. }));
        assert!(rank1.table.is_some(), "the table landed");
        let senders: Vec<usize> = rank1.held.iter().map(|(from, _)| *from).collect();
        assert_eq!(senders, vec![0, 2], "both ghosts held, in arrival order");
        // Running: the held ghosts are delivered right after `on_start`, so
        // the first sweep's completion finds both neighbours' boundaries.
        for _ in 0..3 {
            rank1.drain(&mut buf);
            rank1.advance(&poller, &ctx);
        }
        assert!(rank1.held.is_empty());
        assert!(
            rank1.engine.as_ref().unwrap().relaxations() >= 2,
            "rank 1 stalled after its first relaxation"
        );
        assert!(
            ctx.start.elapsed() < Duration::from_nanos(ReliabilityMicro::DEFAULT_RTO_NS),
            "no retransmission timer can have fired"
        );
    }

    /// Crash + recovery inside an event loop: the victim's socket is
    /// replaced, the failure monitor grants recovery, and the revived peer
    /// rediscovers and restores from its checkpoint — all without blocking
    /// the sibling peers multiplexed on the same loop.
    #[test]
    fn seeded_crash_recovers_on_a_shared_event_loop() {
        use crate::churn::ChurnPlan;
        use crate::obstacle_app::ObstacleTask;
        use obstacle::ObstacleProblem;

        let n = 8;
        let peers = 2;
        let problem = Arc::new(ObstacleProblem::membrane(n));
        let mut config =
            RunConfig::quick(Scheme::Asynchronous, peers).with_extras(BackendExtras::Reactor {
                event_loops: 1,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
        let outcome = run_iterative_reactor(&config, |rank| {
            Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
        });
        assert!(outcome.measurement.converged, "faulty run must converge");
        assert_eq!(outcome.measurement.crashes, 1);
        assert_eq!(outcome.measurement.recoveries, 1);
        assert!(outcome.measurement.downtime_s > 0.0);
    }
}
