//! Peer volatility: deterministic failure injection, live checkpointing and
//! recovery coordination.
//!
//! The paper targets desktop grids, where peers join and leave while an
//! application runs, and argues that *asynchronous* iterative schemes
//! tolerate this volatility where synchronous ones cannot. This module is
//! the subsystem that lets the reproduction run that experiment on every
//! runtime backend:
//!
//! * [`ChurnPlan`] — a seeded, serializable schedule of peer events (crash
//!   at relaxation `X`, slow down by a factor), expressed against each
//!   peer's own relaxation count so the *same* plan is meaningful on the
//!   virtual-time, event-count and wall-clock substrates alike.
//! * [`FaultInjector`] — the runtime consumer of a plan: each peer's engine
//!   asks it after every completed relaxation whether that relaxation was
//!   the peer's last.
//! * [`VolatilityState`] — the per-run shared coordinator: it owns the
//!   [`FaultManager`] checkpoint store the engines deposit into, decides
//!   recovery (spare peer if one is left, otherwise the strongest survivor
//!   by *live* [`crate::load_balance`] throughput estimates), computes the
//!   synchronous rollback target, and accumulates the recovery counters
//!   reported in [`crate::metrics::RunMeasurement`].
//!
//! # Crash / recovery lifecycle
//!
//! 1. The engine completes relaxation `X` and the injector fires: the sweep's
//!    updates are never published, the peer marks itself crashed and goes
//!    silent. The substrate makes the crash real to the degree it can — the
//!    reactor runtime drops the peer's socket (in-flight datagrams are lost
//!    for real), the deterministic runtimes stop driving the peer.
//! 2. Detection: on the wall-clock backends the dead peer stops pinging the
//!    [`crate::topology_manager::TopologyManager`] and is evicted after
//!    three missed ping periods
//!    ([`crate::topology_manager::TopologyManager::evictions_since`] feeds
//!    the recovery path); the deterministic backends model the same latency
//!    with the plan's [`ChurnPlan::detection_delay_ns`].
//! 3. Recovery: [`VolatilityState::grant`] consumes
//!    [`FaultManager::on_failure`] — a spare peer adopts the rank, or, with
//!    no spares left, the surviving peer with the highest measured
//!    throughput does. The engine restores its task from the latest
//!    checkpoint and resumes.
//! 4. Scheme semantics: asynchronous and hybrid runs simply absorb the stale
//!    restart (neighbours keep iterating on old boundary data — exactly the
//!    staleness those schemes are built for). A synchronous run cannot: the
//!    recovering peer computes the newest checkpoint iteration *every* rank
//!    has, broadcasts a rollback message, and all peers restart from that
//!    common iteration under a new report generation (stale in-flight
//!    convergence reports are discarded by generation).
//!
//! # Live repartitioning and elastic membership
//!
//! Since PR 5 the re-decomposition is applied for real. When a
//! [`ChurnPlan`] arms `repartition`, a recovery does not restore the
//! original blocks: the coordinator assembles the checkpointed global state
//! ([`crate::workload::assemble_global`]), re-slices it by the live
//! capacity-weighted shares ([`crate::workload::weighted_ranges`] over the
//! same throughput estimates recorded in
//! [`RecoveryRecord::proposed_shares`]) and publishes a [`MembershipPlan`]
//! every engine adopts — synchronous runs under the generation-tagged
//! rollback barrier, asynchronous and hybrid runs at their next safe point,
//! overlaying their live state so only *moved* items carry checkpoint
//! staleness. The same machinery powers *rejoin-as-growth*: a seeded
//! [`ChurnEventKind::Join`] event lets a brand-new peer enter mid-run, take
//! a share of the work through the same re-slice, and count in
//! [`RunMeasurement::joins`] / [`RunMeasurement::repartitions`].
//!
//! # Examples
//!
//! A seeded plan with one crash, one join and live repartitioning:
//!
//! ```
//! use p2pdc::{ChurnPlan, RunConfig, Scheme};
//!
//! let plan = ChurnPlan::kill(1, 20)
//!     .with_checkpoint_interval(5)
//!     .with_repartition(true)
//!     .with_join(0, 30); // a new peer joins once rank 0 completes sweep 30
//! assert_eq!(plan.crash_count(), 1);
//! assert_eq!(plan.join_count(), 1);
//! let config = RunConfig::quick(Scheme::Asynchronous, 2).with_churn(plan);
//! assert!(config.churn.is_some());
//! ```

use crate::fault::{Checkpoint, FaultManager, RecoveryAction};
use crate::load_balance::{LoadBalancer, PeerLoad};
use crate::metrics::RunMeasurement;
use crate::runtime::report_cell::contention;
use crate::workload::{
    assemble_global, balanced_partition, reslice_moved_items, weighted_ranges, Repartitioner,
    ReslicerHandle,
};
use netsim::NodeId;
use p2psap::Scheme;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What happens to a peer at a scheduled point of a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// The peer dies: its un-published sweep and in-flight traffic are lost,
    /// and it stays silent until the recovery path revives the rank.
    Crash,
    /// The peer's compute slows down permanently by `factor` (≥ 1.0). On the
    /// simulated backend this scales the virtual compute cost; the
    /// wall-clock backends run the kernel for real and ignore it.
    Slowdown {
        /// Multiplier applied to the peer's per-sweep compute cost.
        factor: f64,
    },
    /// A *new* peer joins the run (rejoin-as-growth): the event's `rank` is
    /// the existing peer whose relaxation clock triggers the join (the
    /// joiner does not exist yet, so it cannot trigger itself); the new peer
    /// takes the next free rank and receives a share of the work through a
    /// live repartition. Requires the workload to support repartitioning
    /// ([`crate::workload::Workload::repartitioner`]); ignored otherwise.
    Join,
    /// The network splits in two: ranks whose bit is set in `group` on one
    /// side, everyone else on the other. Traffic crossing the cut is blocked
    /// (the sim fabric drops it, loopback holds it) until the heal, which is
    /// scheduled on the backend's own clock — `heal_after_ns` virtual
    /// nanoseconds on sim, `heal_after_events` engine events on loopback —
    /// because a partitioned synchronous rank stops relaxing, so the heal
    /// cannot key off relaxation counts. Deterministic backends only; the
    /// wall-clock backends ignore link faults.
    Partition {
        /// Rank bitmask of one partition side (bit `r` = rank `r`).
        group: u64,
        /// Virtual nanoseconds until the cut heals (sim backend).
        heal_after_ns: u64,
        /// Engine events until the cut heals (loopback backend).
        heal_after_events: u64,
    },
    /// The single edge between the event's rank and `peer` flaps: `cycles`
    /// down-then-up periods, each half lasting `period_ns` of virtual time
    /// (sim) / `period_events` engine events (loopback).
    FlappingLink {
        /// The other endpoint of the flapping edge.
        peer: usize,
        /// Half-period in virtual nanoseconds (sim backend).
        period_ns: u64,
        /// Half-period in engine events (loopback backend).
        period_events: u64,
        /// Number of down-then-up cycles before the edge stays up.
        cycles: u32,
    },
    /// Traffic *from* the event's rank *towards* `peer` is slowed by
    /// `factor` (≥ 1.0); the reverse direction is unaffected.
    AsymmetricLatency {
        /// Destination rank of the slowed direction.
        peer: usize,
        /// Latency multiplier on the slowed direction.
        factor: f64,
    },
    /// The next `flips` frames the rank sends are corrupted in flight (one
    /// seeded byte flip each). The framing checksums must reject the frames
    /// — corrupted traffic is effectively lost, never consumed as data.
    Corruption {
        /// Number of outgoing frames to corrupt.
        flips: u32,
    },
}

impl ChurnEventKind {
    /// Whether this kind models the *link* rather than the peer itself
    /// (consumed by the transport drivers via
    /// [`VolatilityState::take_link_events`], not by the engine).
    pub fn is_link_fault(&self) -> bool {
        matches!(
            self,
            ChurnEventKind::Partition { .. }
                | ChurnEventKind::FlappingLink { .. }
                | ChurnEventKind::AsymmetricLatency { .. }
                | ChurnEventKind::Corruption { .. }
        )
    }
}

/// One scheduled peer event. The trigger is the *victim's own relaxation
/// count* — the only clock every runtime backend shares — so a plan
/// replays identically on the deterministic substrates and meaningfully on
/// the wall-clock ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Rank the event strikes.
    pub rank: usize,
    /// The event fires once the rank completes this many relaxations.
    pub at_iteration: u64,
    /// What happens.
    pub kind: ChurnEventKind,
}

/// A deterministic, seeded schedule of peer volatility, consumable by every
/// runtime backend via [`crate::runtime::RunConfig::churn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// The scheduled events.
    pub events: Vec<ChurnEvent>,
    /// Engines deposit a checkpoint every this many relaxations (and once at
    /// iteration 0, so a rollback target always exists).
    pub checkpoint_interval: u64,
    /// Failure-detection latency modelled by the simulated backend
    /// (nanoseconds of virtual time). The wall-clock backends detect for
    /// real, through three missed ping periods of the topology manager.
    pub detection_delay_ns: u64,
    /// Failure-detection latency on the loopback backend, whose clock ticks
    /// one unit per engine event rather than per nanosecond.
    pub detection_delay_events: u64,
    /// Spare peers available to adopt a dead rank before the recovery path
    /// falls back to the strongest survivor.
    pub spares: usize,
    /// Apply the capacity-weighted re-decomposition at recovery: instead of
    /// restoring the original blocks, the restarted run re-slices the
    /// checkpointed global state by the live throughput shares. `false` (the
    /// PR 4 behaviour) keeps the original split and records the proposal in
    /// [`RecoveryRecord::proposed_shares`] only. Join events repartition
    /// regardless of this flag (a joiner cannot take work otherwise).
    pub repartition: bool,
}

impl ChurnPlan {
    /// Default checkpoint interval (relaxations).
    pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 20;

    /// Default modelled detection latency: 30 ms, three periods of a 10 ms
    /// ping — the same rule the wall-clock topology manager applies.
    pub const DEFAULT_DETECTION_DELAY_NS: u64 = 30_000_000;

    /// Default modelled detection latency in loopback engine events (a few
    /// sweeps' worth of downtime for the surviving peers).
    pub const DEFAULT_DETECTION_DELAY_EVENTS: u64 = 64;

    /// A plan with the given events and the default knobs.
    pub fn new(events: Vec<ChurnEvent>) -> Self {
        Self {
            events,
            checkpoint_interval: Self::DEFAULT_CHECKPOINT_INTERVAL,
            detection_delay_ns: Self::DEFAULT_DETECTION_DELAY_NS,
            detection_delay_events: Self::DEFAULT_DETECTION_DELAY_EVENTS,
            spares: 1,
            repartition: false,
        }
    }

    /// The canonical fault-tolerance experiment: kill one peer once it
    /// completes `at_iteration` relaxations.
    pub fn kill(rank: usize, at_iteration: u64) -> Self {
        Self::new(vec![ChurnEvent {
            rank,
            at_iteration,
            kind: ChurnEventKind::Crash,
        }])
    }

    /// A seeded random plan: `crashes` distinct ranks (of `peers`) crash at
    /// iterations drawn from the middle half of `[1, horizon]`. The same
    /// seed always yields the same plan.
    pub fn seeded(seed: u64, peers: usize, crashes: usize, horizon: u64) -> Self {
        assert!(peers >= 1);
        let crashes = crashes.min(peers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ranks: Vec<usize> = (0..peers).collect();
        // Fisher-Yates over the rank vector, then take the prefix.
        for i in (1..peers).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            ranks.swap(i, j);
        }
        let lo = (horizon / 4).max(1);
        let span = (horizon / 2).max(1);
        let events = ranks
            .into_iter()
            .take(crashes)
            .map(|rank| ChurnEvent {
                rank,
                at_iteration: lo + rng.next_u64() % span,
                kind: ChurnEventKind::Crash,
            })
            .collect();
        Self::new(events)
    }

    /// Replace the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        assert!(interval >= 1, "checkpoint interval must be at least 1");
        self.checkpoint_interval = interval;
        self
    }

    /// Replace the modelled detection latency of the simulated backend.
    pub fn with_detection_delay_ns(mut self, delay_ns: u64) -> Self {
        self.detection_delay_ns = delay_ns;
        self
    }

    /// Replace the modelled detection latency of the loopback backend.
    pub fn with_detection_delay_events(mut self, events: u64) -> Self {
        self.detection_delay_events = events;
        self
    }

    /// Replace the spare-peer pool size.
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// Arm (or disarm) live repartitioning at recovery.
    pub fn with_repartition(mut self, repartition: bool) -> Self {
        self.repartition = repartition;
        self
    }

    /// Schedule a join: a new peer enters the run once the existing
    /// `trigger_rank` completes `at_iteration` relaxations, and takes a
    /// share of the work through a live repartition.
    pub fn with_join(mut self, trigger_rank: usize, at_iteration: u64) -> Self {
        self.events.push(ChurnEvent {
            rank: trigger_rank,
            at_iteration,
            kind: ChurnEventKind::Join,
        });
        self
    }

    /// Bitmask over `ranks` for [`ChurnEventKind::Partition::group`].
    pub fn rank_mask(ranks: &[usize]) -> u64 {
        ranks.iter().fold(0u64, |mask, &rank| {
            assert!(rank < 64, "partition groups address ranks 0..64");
            mask | (1u64 << rank)
        })
    }

    /// Schedule a network partition: once `trigger_rank` completes
    /// `at_iteration` relaxations, the ranks in `group` split from the rest;
    /// the cut heals after the dual-clock delay.
    pub fn with_partition(
        mut self,
        trigger_rank: usize,
        at_iteration: u64,
        group: &[usize],
        heal_after_ns: u64,
        heal_after_events: u64,
    ) -> Self {
        self.events.push(ChurnEvent {
            rank: trigger_rank,
            at_iteration,
            kind: ChurnEventKind::Partition {
                group: Self::rank_mask(group),
                heal_after_ns,
                heal_after_events,
            },
        });
        self
    }

    /// Schedule a flapping link between `rank` and `peer`.
    pub fn with_flapping_link(
        mut self,
        rank: usize,
        at_iteration: u64,
        peer: usize,
        period_ns: u64,
        period_events: u64,
        cycles: u32,
    ) -> Self {
        self.events.push(ChurnEvent {
            rank,
            at_iteration,
            kind: ChurnEventKind::FlappingLink {
                peer,
                period_ns,
                period_events,
                cycles,
            },
        });
        self
    }

    /// Schedule an asymmetric latency fault: traffic from `rank` towards
    /// `peer` slowed by `factor`.
    pub fn with_asym_latency(
        mut self,
        rank: usize,
        at_iteration: u64,
        peer: usize,
        factor: f64,
    ) -> Self {
        assert!(factor >= 1.0, "latency factors slow a link down");
        self.events.push(ChurnEvent {
            rank,
            at_iteration,
            kind: ChurnEventKind::AsymmetricLatency { peer, factor },
        });
        self
    }

    /// Schedule message corruption: the next `flips` frames `rank` sends
    /// after the trigger are corrupted in flight.
    pub fn with_corruption(mut self, rank: usize, at_iteration: u64, flips: u32) -> Self {
        self.events.push(ChurnEvent {
            rank,
            at_iteration,
            kind: ChurnEventKind::Corruption { flips },
        });
        self
    }

    /// Number of crash events in the plan.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ChurnEventKind::Crash)
            .count()
    }

    /// Number of join events in the plan.
    pub fn join_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ChurnEventKind::Join)
            .count()
    }

    /// Number of link-fault events (partitions, flaps, asymmetric latency,
    /// corruption) in the plan.
    pub fn link_fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind.is_link_fault())
            .count()
    }
}

/// Runtime consumer of a [`ChurnPlan`]: tracks which events have fired.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Pending events per rank, sorted by trigger iteration descending so
    /// the next one to fire sits at the back.
    pending: HashMap<usize, Vec<ChurnEvent>>,
    /// Accumulated slowdown factor per rank (product of fired events).
    slowdown: HashMap<usize, f64>,
}

impl FaultInjector {
    /// Arm the injector with a plan.
    pub fn new(plan: &ChurnPlan) -> Self {
        let mut pending: HashMap<usize, Vec<ChurnEvent>> = HashMap::new();
        for event in &plan.events {
            pending.entry(event.rank).or_default().push(*event);
        }
        for events in pending.values_mut() {
            events.sort_by_key(|e| std::cmp::Reverse(e.at_iteration));
        }
        Self {
            pending,
            slowdown: HashMap::new(),
        }
    }

    /// Remove and return the first *due* event of `rank` matching `matches`.
    /// Due events (`at_iteration <= iteration`) sit contiguously at the back
    /// of the descending-sorted queue; scanning the whole due suffix instead
    /// of only the very last slot keeps co-due events of different kinds
    /// from jamming each other (e.g. a due partition must not hide a due
    /// crash from [`FaultInjector::should_crash`]).
    fn pop_due(
        &mut self,
        rank: usize,
        iteration: u64,
        matches: impl Fn(&ChurnEventKind) -> bool,
    ) -> Option<ChurnEvent> {
        let events = self.pending.get_mut(&rank)?;
        let mut at = events.len();
        while at > 0 && events[at - 1].at_iteration <= iteration {
            if matches(&events[at - 1].kind) {
                return Some(events.remove(at - 1));
            }
            at -= 1;
        }
        None
    }

    /// `rank` just completed relaxation `iteration`: does it crash now? The
    /// trigger is `at_iteration <= iteration`, so a crash scheduled inside a
    /// checkpoint interval cannot be skipped over. Consumes the event.
    pub fn should_crash(&mut self, rank: usize, iteration: u64) -> bool {
        self.pop_due(rank, iteration, |k| *k == ChurnEventKind::Crash)
            .is_some()
    }

    /// `rank` just completed relaxation `iteration`: does its clock trigger
    /// a scheduled join now? Consumes the event.
    pub fn join_due(&mut self, rank: usize, iteration: u64) -> bool {
        self.pop_due(rank, iteration, |k| *k == ChurnEventKind::Join)
            .is_some()
    }

    /// The compute-slowdown factor of `rank` as of relaxation `iteration`
    /// (1.0 = full speed). Fired slowdown events accumulate multiplicatively
    /// and persist.
    pub fn slowdown_factor(&mut self, rank: usize, iteration: u64) -> f64 {
        while let Some(event) = self.pop_due(rank, iteration, |k| {
            matches!(k, ChurnEventKind::Slowdown { .. })
        }) {
            if let ChurnEventKind::Slowdown { factor } = event.kind {
                *self.slowdown.entry(rank).or_insert(1.0) *= factor;
            }
        }
        self.slowdown.get(&rank).copied().unwrap_or(1.0)
    }

    /// Drain every due link-fault event of `rank` (partition, flap,
    /// asymmetric latency, corruption), in schedule order. The transport
    /// drivers consume these — the engine never sees link faults.
    pub fn take_link_events(&mut self, rank: usize, iteration: u64) -> Vec<ChurnEvent> {
        let mut out = Vec::new();
        while let Some(event) = self.pop_due(rank, iteration, ChurnEventKind::is_link_fault) {
            out.push(event);
        }
        out
    }

    /// The next iteration at which any pending event of `rank` fires
    /// (`u64::MAX` when none are left). Mirrors into the `VolatilityFast`
    /// per-rank atomics after every consuming query, so the per-sweep
    /// due-ness checks are plain atomic loads.
    pub fn next_event_at(&self, rank: usize) -> u64 {
        self.pending
            .get(&rank)
            .and_then(|events| events.last())
            .map(|e| e.at_iteration)
            .unwrap_or(u64::MAX)
    }

    /// Highest rank any pending event targets (for sizing the fast mirror).
    fn max_event_rank(&self) -> Option<usize> {
        self.pending
            .iter()
            .filter(|(_, events)| !events.is_empty())
            .map(|(&rank, _)| rank)
            .max()
    }
}

/// Read-mostly mirror of the volatility facts every sweep consults, kept
/// beside the [`VolatilityState`] mutex so the common sweep (no event due,
/// no checkpoint boundary, no new plan) never takes it. All mirrors are
/// conservative gates: a stale value can only send a sweep to the locked
/// path (where the injector's own state decides), never skip a due event —
/// each mirror is rewritten under the mutex immediately after the state it
/// reflects changes.
#[derive(Debug)]
pub struct VolatilityFast {
    /// Fixed for the run (`ChurnPlan::checkpoint_interval`, clamped to 1).
    checkpoint_interval: u64,
    /// Per-rank next pending event iteration (`u64::MAX` = none left).
    next_event_at: Box<[AtomicU64]>,
    /// Per-rank accumulated slowdown factor (f64 bits; persists after the
    /// events fire, so it must be cached — an event gate alone would report
    /// full speed once the schedule drains).
    slowdown_bits: Box<[AtomicU64]>,
    /// Epoch of the latest published membership plan (0 = none).
    plan_epoch: AtomicU32,
}

impl VolatilityFast {
    fn new(checkpoint_interval: u64, injector: &FaultInjector, peers: usize) -> Self {
        let ranks = injector
            .max_event_rank()
            .map(|r| r + 1)
            .unwrap_or(0)
            .max(peers);
        let next_event_at = (0..ranks)
            .map(|rank| AtomicU64::new(injector.next_event_at(rank)))
            .collect();
        let slowdown_bits = (0..ranks)
            .map(|_| AtomicU64::new(1.0_f64.to_bits()))
            .collect();
        Self {
            checkpoint_interval,
            next_event_at,
            slowdown_bits,
            plan_epoch: AtomicU32::new(0),
        }
    }

    /// Next pending event iteration of `rank`. Ranks beyond the provisioned
    /// mirror (joiners without scheduled events) never have one.
    fn next_event_at(&self, rank: usize) -> u64 {
        self.next_event_at
            .get(rank)
            .map(|at| at.load(Ordering::Acquire))
            .unwrap_or(u64::MAX)
    }

    fn set_next_event(&self, rank: usize, at_iteration: u64) {
        if let Some(slot) = self.next_event_at.get(rank) {
            slot.store(at_iteration, Ordering::Release);
        }
    }

    fn slowdown(&self, rank: usize) -> f64 {
        self.slowdown_bits
            .get(rank)
            .map(|bits| f64::from_bits(bits.load(Ordering::Acquire)))
            .unwrap_or(1.0)
    }

    fn set_slowdown(&self, rank: usize, factor: f64) {
        if let Some(slot) = self.slowdown_bits.get(rank) {
            slot.store(factor.to_bits(), Ordering::Release);
        }
    }

    fn plan_epoch(&self) -> u32 {
        self.plan_epoch.load(Ordering::Acquire)
    }
}

/// The sharing wrapper around a [`VolatilityState`]: lock-free per-sweep
/// gates over the [`VolatilityFast`] mirror in front of the mutex-protected
/// coordinator. See the gate methods for the exactness argument.
#[derive(Debug)]
pub struct VolatilityHandle {
    fast: Arc<VolatilityFast>,
    inner: Mutex<VolatilityState>,
}

impl VolatilityHandle {
    /// Lock the coordinator (control-path operations: recovery, plans,
    /// checkpoint deposits, driver polls).
    pub fn lock(&self) -> MutexGuard<'_, VolatilityState> {
        contention::count_volatility_lock();
        self.inner.lock().unwrap()
    }

    /// Lock the coordinator from a per-sweep path that passed a due-ness
    /// gate. Identical to [`VolatilityHandle::lock`] but counted separately,
    /// so the contention instrumentation can prove the common sweep takes
    /// zero of these.
    pub fn lock_sweep(&self) -> MutexGuard<'_, VolatilityState> {
        contention::count_volatility_sweep_lock();
        self.inner.lock().unwrap()
    }

    /// Whether any scheduled event of `rank` is due at `iteration` — exact,
    /// because an event is due iff `at_iteration <= iteration`, and the
    /// mirror always holds the minimum pending `at_iteration`.
    pub fn event_due(&self, rank: usize, iteration: u64) -> bool {
        iteration >= self.fast.next_event_at(rank)
    }

    /// Whether the post-sweep volatility work (periodic checkpoint deposit,
    /// crash injection) requires the mutex this iteration.
    pub fn sweep_event_due(&self, rank: usize, iteration: u64) -> bool {
        iteration.is_multiple_of(self.fast.checkpoint_interval) || self.event_due(rank, iteration)
    }

    /// Whether a membership plan newer than `epoch` has been published
    /// (lock-free mirror of the [`VolatilityState::adoption`] precondition).
    pub fn plan_newer_than(&self, epoch: u32) -> bool {
        self.fast.plan_epoch() > epoch
    }

    /// The rank's current compute-slowdown factor: answered from the atomic
    /// cache unless an event is due (the locked query then pops it and
    /// refreshes the cache).
    pub fn slowdown_factor(&self, rank: usize, iteration: u64) -> f64 {
        if self.event_due(rank, iteration) {
            self.lock_sweep().slowdown_factor(rank, iteration)
        } else {
            self.fast.slowdown(rank)
        }
    }
}

/// One completed recovery, for observability (surfaced by the churn bench).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// The rank that died and was revived.
    pub rank: usize,
    /// The peer that adopted the rank (a spare, or the strongest survivor).
    pub replacement: NodeId,
    /// Checkpoint iteration the rank restarted from.
    pub from_iteration: u64,
    /// The common iteration a synchronous run rolled back to (`None` for
    /// asynchronous/hybrid recoveries, which absorb the stale restart).
    pub rollback_to: Option<u64>,
    /// The capacity-weighted block shares the load balancer proposes from
    /// the live throughput estimates (advisory; see the module docs).
    pub proposed_shares: Vec<usize>,
}

/// Notional block count the advisory weighted re-decomposition is expressed
/// over (shares out of 100).
const REBALANCE_SHARE_UNITS: usize = 100;

/// One published re-decomposition of the run: the new contiguous partition,
/// the assembled global state it was sliced from, and how engines adopt it.
/// Synchronous plans carry a `rollback` — every peer realigns on the common
/// iteration under the new generation; asynchronous/hybrid plans are
/// adopted at each engine's next safe point (the engine overlays its live
/// state so only moved items carry checkpoint staleness).
#[derive(Debug, Clone)]
pub struct MembershipPlan {
    /// Monotone membership epoch (engines track the epoch they run under).
    pub epoch: u32,
    /// New absolute `(start, len)` item ranges, one per rank.
    pub parts: Vec<(usize, usize)>,
    /// Global value vector the new slices (and their ghost seeds) come from.
    pub global: Vec<f64>,
    /// Iteration the assembled state corresponds to (the restored counter
    /// for ranks without live state: the joiner, a recovering rank, or
    /// every rank under a rollback).
    pub iteration: u64,
    /// Synchronous realignment: `(rollback iteration, new generation)`.
    pub rollback: Option<(u64, u32)>,
    /// The rank that joined with this plan, if it grew the run.
    pub joined_rank: Option<usize>,
}

/// Everything an engine needs to adopt the current [`MembershipPlan`],
/// cloned out of the coordinator under one lock.
pub struct AdoptionTicket {
    /// The plan's membership epoch.
    pub epoch: u32,
    /// New absolute `(start, len)` item ranges, one per rank.
    pub parts: Vec<(usize, usize)>,
    /// Global value vector to slice the new task from.
    pub global: Vec<f64>,
    /// Restored relaxation counter for ranks without live state.
    pub iteration: u64,
    /// The plan's synchronous realignment, mirrored from
    /// [`MembershipPlan::rollback`] (callers on the rollback path verify it
    /// matches the rollback they are applying).
    pub rollback: Option<(u64, u32)>,
    /// The workload's repartitioner (task factory for explicit partitions).
    pub repartitioner: Arc<dyn Repartitioner>,
}

/// Per-run shared coordinator of the volatility subsystem. One per run, like
/// the [`crate::runtime::engine::ConvergenceDetector`]; engines and drivers
/// reach it through [`SharedVolatility`].
#[derive(Debug)]
pub struct VolatilityState {
    scheme: Scheme,
    peers: usize,
    checkpoint_interval: u64,
    detection_delay_ns: u64,
    detection_delay_events: u64,
    injector: FaultInjector,
    fault: FaultManager,
    /// Rollback generation; bumped on every synchronous recovery.
    generation: u32,
    crashes: u64,
    recoveries: u64,
    rollbacks: u64,
    downtime_ns: u64,
    /// Clock value at each un-recovered crash.
    crash_time_ns: HashMap<usize, u64>,
    /// Recovery decisions taken but not yet consumed by the reviving engine.
    granted: HashMap<usize, RecoveryAction>,
    /// Completed recoveries, in order.
    recovery_log: Vec<RecoveryRecord>,
    /// Apply the capacity-weighted re-decomposition at recovery.
    repartition_on_recovery: bool,
    /// The workload's repartitioner, when the workload supports re-slicing.
    repartitioner: Option<ReslicerHandle>,
    /// Last known value of every item, updated from each checkpoint deposit.
    /// The re-slice assembly starts from this, so items whose *current*
    /// owner has no checkpoint yet (a rank re-assigned while its old owner
    /// was down) still carry the newest value any rank ever recorded for
    /// them instead of falling back to the initial iterate.
    canvas: Option<Vec<f64>>,
    /// Current contiguous partition (absolute `(start, len)` per rank).
    parts: Vec<(usize, usize)>,
    /// Membership epoch; bumped by every published plan.
    epoch: u32,
    /// The latest published plan (engines on older epochs adopt it).
    plan: Option<MembershipPlan>,
    /// A joined rank whose substrate peer has not been spawned yet.
    pending_spawn: Option<usize>,
    joins: u64,
    repartitions: u64,
    moved_points: u64,
    /// Read-mostly mirror the per-sweep gates load (see [`VolatilityFast`]).
    fast: Arc<VolatilityFast>,
}

/// A [`VolatilityState`] shared between the peers and driver of one run.
pub type SharedVolatility = Arc<VolatilityHandle>;

impl VolatilityState {
    /// Create the coordinator for a run of `peers` peers under `plan`.
    pub fn new(plan: &ChurnPlan, peers: usize, scheme: Scheme) -> Self {
        let checkpoint_interval = plan.checkpoint_interval.max(1);
        let injector = FaultInjector::new(plan);
        let fast = Arc::new(VolatilityFast::new(checkpoint_interval, &injector, peers));
        Self {
            scheme,
            peers,
            checkpoint_interval,
            detection_delay_ns: plan.detection_delay_ns,
            detection_delay_events: plan.detection_delay_events,
            injector,
            fault: FaultManager::new((0..plan.spares).map(|i| NodeId(peers + i)).collect()),
            generation: 0,
            crashes: 0,
            recoveries: 0,
            rollbacks: 0,
            downtime_ns: 0,
            crash_time_ns: HashMap::new(),
            granted: HashMap::new(),
            recovery_log: Vec::new(),
            repartition_on_recovery: plan.repartition,
            repartitioner: None,
            canvas: None,
            parts: Vec::new(),
            epoch: 0,
            plan: None,
            pending_spawn: None,
            joins: 0,
            repartitions: 0,
            moved_points: 0,
            fast,
        }
    }

    /// Create a shared coordinator handle.
    pub fn shared(plan: &ChurnPlan, peers: usize, scheme: Scheme) -> SharedVolatility {
        let state = Self::new(plan, peers, scheme);
        Arc::new(VolatilityHandle {
            fast: Arc::clone(&state.fast),
            inner: Mutex::new(state),
        })
    }

    /// Relaxations between checkpoints.
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }

    /// Modelled failure-detection latency of the simulated backend.
    pub fn detection_delay_ns(&self) -> u64 {
        self.detection_delay_ns
    }

    /// Modelled failure-detection latency of the loopback backend (events).
    pub fn detection_delay_events(&self) -> u64 {
        self.detection_delay_events
    }

    /// Deposit a checkpoint into the store (and fold its values into the
    /// live last-known-value canvas the re-slice assembly starts from).
    pub fn store_checkpoint(&mut self, checkpoint: Checkpoint) {
        if let (Some(canvas), Some(rep)) = (self.canvas.as_mut(), self.repartitioner.as_ref()) {
            crate::workload::write_block_state(canvas, &checkpoint.state, rep.0.item_width());
        }
        self.fault.store_checkpoint(checkpoint);
    }

    /// Attach the workload's repartitioner (the drivers wire this from
    /// [`crate::runtime::RunConfig::repartitioner`]). Initialises the
    /// tracked partition to the balanced split every workload starts from.
    pub fn set_repartitioner(&mut self, handle: ReslicerHandle) {
        if handle.0.items() >= self.peers {
            let (items, base) = (handle.0.items(), handle.0.item_base());
            self.parts = (0..self.peers)
                .map(|k| {
                    let (offset, len) = balanced_partition(items, self.peers, k);
                    (base + offset, len)
                })
                .collect();
            self.canvas = Some(handle.0.global_canvas());
            self.repartitioner = Some(handle);
        }
    }

    /// Current membership epoch (bumped by every published plan).
    pub fn current_epoch(&self) -> u32 {
        self.epoch
    }

    /// Current number of ranks in the run (grows on joins).
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// The latest published membership plan.
    pub fn plan(&self) -> Option<&MembershipPlan> {
        self.plan.as_ref()
    }

    /// Clone everything an engine needs to adopt the current plan, provided
    /// the plan is newer than the engine's `epoch` and matches the engine's
    /// adoption path (`via_rollback`: synchronous realignment vs free
    /// adoption).
    pub fn adoption(&self, epoch: u32, via_rollback: bool) -> Option<AdoptionTicket> {
        let plan = self.plan.as_ref()?;
        if plan.epoch <= epoch || plan.rollback.is_some() != via_rollback {
            return None;
        }
        Some(AdoptionTicket {
            epoch: plan.epoch,
            parts: plan.parts.clone(),
            global: plan.global.clone(),
            iteration: plan.iteration,
            rollback: plan.rollback,
            repartitioner: Arc::clone(&self.repartitioner.as_ref()?.0),
        })
    }

    /// A joined rank whose substrate peer must be spawned, consumed by the
    /// driver (loopback/sim spawn from the drive loop).
    pub fn take_pending_spawn(&mut self) -> Option<usize> {
        self.pending_spawn.take()
    }

    /// Consume the pending spawn if it is for `rank` (the reactor's dormant
    /// join slots poll this).
    pub fn take_spawn_if(&mut self, rank: usize) -> bool {
        if self.pending_spawn == Some(rank) {
            self.pending_spawn = None;
            true
        } else {
            false
        }
    }

    /// Assemble the checkpointed global state onto the workload's canvas.
    /// `at` restricts every rank to its newest checkpoint at or before that
    /// iteration (the synchronous realignment target); `None` takes each
    /// rank's latest.
    fn assembled_global(&self, rep: &dyn Repartitioner, at: Option<u64>) -> Vec<f64> {
        let states: Vec<Vec<u8>> = (0..self.peers)
            .filter_map(|r| match at {
                Some(target) => self.fault.checkpoint_at_or_before(r, target),
                None => self.fault.checkpoint(r),
            })
            .map(|c| c.state.clone())
            .collect();
        let canvas = self.canvas.clone().unwrap_or_else(|| rep.global_canvas());
        assemble_global(canvas, &states, rep.item_width())
    }

    /// Publish a new membership plan re-slicing the run over `new_peers`
    /// ranks weighted by the live capacities in `loads` (the joiner, if
    /// any, is weighted at the mean surviving capacity).
    fn publish_plan(
        &mut self,
        loads: &[PeerLoad],
        new_peers: usize,
        at: Option<u64>,
        rollback: Option<(u64, u32)>,
        joined_rank: Option<usize>,
    ) -> bool {
        let Some(rep) = self.repartitioner.as_ref().map(|h| Arc::clone(&h.0)) else {
            return false;
        };
        if rep.items() < new_peers {
            return false;
        }
        let mut weights = self.live_balancer(loads).capacities();
        if new_peers > weights.len() {
            let mean = weights.iter().sum::<f64>() / weights.len() as f64;
            weights.resize(new_peers, mean.max(f64::MIN_POSITIVE));
        }
        let parts = weighted_ranges(rep.item_base(), rep.items(), &weights);
        let global = self.assembled_global(rep.as_ref(), at);
        let iteration = match at {
            Some(target) => target,
            // The iteration the assembled state roughly corresponds to: the
            // oldest latest-checkpoint of any rank (only restored counters
            // use it; live ranks keep their own).
            None => (0..self.peers)
                .map(|r| self.fault.checkpoint(r).map(|c| c.iteration).unwrap_or(0))
                .min()
                .unwrap_or(0),
        };
        self.moved_points += (reslice_moved_items(&self.parts, &parts) * rep.item_width()) as u64;
        self.epoch += 1;
        self.fast.plan_epoch.store(self.epoch, Ordering::Release);
        self.repartitions += 1;
        self.parts = parts.clone();
        self.peers = new_peers;
        self.plan = Some(MembershipPlan {
            epoch: self.epoch,
            parts,
            global,
            iteration,
            rollback,
            joined_rank,
        });
        if let Some(_rank) = joined_rank {
            self.joins += 1;
            // The spawn is armed separately (`VolatilityState::arm_spawn`)
            // once the caller has grown the convergence detector — a joiner
            // thread must never build its engine against the un-grown run.
        }
        true
    }

    /// Release the published plan's joined rank to the substrate spawners.
    /// Called by the join trigger *after* growing the convergence detector.
    pub fn arm_spawn(&mut self) {
        if let Some(plan) = &self.plan {
            if let Some(rank) = plan.joined_rank {
                self.pending_spawn = Some(rank);
            }
        }
    }

    /// Injector query: does `rank`'s clock trigger a scheduled join after
    /// completing `iteration`? (Consumes the event; the caller follows up
    /// with [`VolatilityState::create_join_plan`].)
    pub fn join_due(&mut self, rank: usize, iteration: u64) -> bool {
        let due = self.injector.join_due(rank, iteration);
        self.fast
            .set_next_event(rank, self.injector.next_event_at(rank));
        due
    }

    /// A join triggered at `trigger_iteration`: grow the run by one rank and
    /// publish the re-slice. Returns the plan's `(new peer count, rollback)`
    /// on success; `None` when the workload cannot be repartitioned (the
    /// join is then ignored).
    ///
    /// Synchronous runs realign on a *deterministic* common iteration — the
    /// newest checkpoint-interval multiple every rank is guaranteed to have
    /// deposited (lockstep peers trail the trigger by at most the peer
    /// count) — so the same seeded plan yields the same relaxation counts on
    /// every backend.
    pub fn create_join_plan(
        &mut self,
        trigger_iteration: u64,
        loads: &[PeerLoad],
    ) -> Option<(usize, Option<(u64, u32)>)> {
        self.repartitioner.as_ref()?;
        let new_rank = self.peers;
        let (at, rollback) = if self.scheme == Scheme::Synchronous {
            let interval = self.checkpoint_interval.max(1);
            let target =
                trigger_iteration.saturating_sub(self.peers as u64 - 1) / interval * interval;
            self.generation += 1;
            (Some(target), Some((target, self.generation)))
        } else {
            (None, None)
        };
        if self.publish_plan(loads, new_rank + 1, at, rollback, Some(new_rank)) {
            Some((new_rank + 1, rollback))
        } else {
            if rollback.is_some() {
                // The re-slice was refused (e.g. more ranks than items):
                // roll the speculative generation bump back.
                self.generation -= 1;
            }
            None
        }
    }

    /// Injector query: does `rank` crash after completing `iteration`?
    pub fn should_crash(&mut self, rank: usize, iteration: u64) -> bool {
        let crashed = self.injector.should_crash(rank, iteration);
        self.fast
            .set_next_event(rank, self.injector.next_event_at(rank));
        crashed
    }

    /// Injector query: the rank's current compute-slowdown factor.
    pub fn slowdown_factor(&mut self, rank: usize, iteration: u64) -> f64 {
        let factor = self.injector.slowdown_factor(rank, iteration);
        self.fast
            .set_next_event(rank, self.injector.next_event_at(rank));
        self.fast.set_slowdown(rank, factor);
        factor
    }

    /// Injector query: drain every due link-fault event of `rank` (the
    /// deterministic transport drivers translate these into their own link
    /// models; the engine itself never sees link faults).
    pub fn take_link_events(&mut self, rank: usize, iteration: u64) -> Vec<ChurnEvent> {
        let events = self.injector.take_link_events(rank, iteration);
        if !events.is_empty() {
            self.fast
                .set_next_event(rank, self.injector.next_event_at(rank));
        }
        events
    }

    /// A peer crashed at clock value `now_ns`.
    pub fn on_crash(&mut self, rank: usize, now_ns: u64) {
        self.crashes += 1;
        self.crash_time_ns.insert(rank, now_ns);
    }

    /// Crash events injected so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// The failure of `rank` has been detected: decide and record the
    /// recovery. A spare adopts the rank if one is left; otherwise the
    /// surviving peer with the highest live throughput estimate does
    /// (declared speeds 1.0, measurements from the engines' `PeerLoad`
    /// accounting). Idempotent until the grant is consumed.
    pub fn grant(&mut self, rank: usize, loads: &[PeerLoad]) {
        if self.granted.contains_key(&rank) || !self.crash_time_ns.contains_key(&rank) {
            return;
        }
        let from_iteration = self
            .fault
            .checkpoint(rank)
            .map(|c| c.iteration)
            .unwrap_or(0);
        let action = match self.fault.on_failure(rank) {
            reassign @ RecoveryAction::Reassign { .. } => reassign,
            RecoveryAction::Pause { rank } => {
                let capacities = self.live_balancer(loads).capacities();
                let host = (0..self.peers)
                    .filter(|r| *r != rank)
                    .max_by(|a, b| capacities[*a].total_cmp(&capacities[*b]))
                    .unwrap_or(rank);
                RecoveryAction::Reassign {
                    rank,
                    replacement: NodeId(host),
                    from_iteration,
                }
            }
        };
        self.granted.insert(rank, action);
    }

    /// Whether a recovery has been granted for `rank` and not yet consumed.
    pub fn is_granted(&self, rank: usize) -> bool {
        self.granted.contains_key(&rank)
    }

    /// A live load balancer over the current throughput estimates.
    fn live_balancer(&self, loads: &[PeerLoad]) -> LoadBalancer {
        let mut balancer = LoadBalancer::new(vec![1.0; self.peers]);
        for (rank, load) in loads.iter().enumerate().take(self.peers) {
            if load.points > 0 && load.busy_seconds > 0.0 {
                balancer.record(rank, load.points, load.busy_seconds);
            }
        }
        balancer
    }

    /// The reviving engine consumes its recovery at clock value `now_ns`.
    /// Returns the checkpoint to restore from and, for synchronous runs, the
    /// `(rollback iteration, new generation)` to broadcast: the newest
    /// checkpoint iteration every rank has, so all peers can realign.
    pub fn take_recovery(
        &mut self,
        rank: usize,
        now_ns: u64,
        loads: &[PeerLoad],
    ) -> (Option<Checkpoint>, Option<(u64, u32)>) {
        if let Some(crashed_at) = self.crash_time_ns.remove(&rank) {
            self.downtime_ns += now_ns.saturating_sub(crashed_at);
        }
        self.recoveries += 1;
        let (checkpoint, rollback) = if self.scheme == Scheme::Synchronous {
            self.rollbacks += 1;
            self.generation += 1;
            let target = (0..self.peers)
                .map(|r| self.fault.checkpoint(r).map(|c| c.iteration).unwrap_or(0))
                .min()
                .unwrap_or(0);
            (
                self.fault.checkpoint_at_or_before(rank, target).cloned(),
                Some((target, self.generation)),
            )
        } else {
            (self.fault.checkpoint(rank).cloned(), None)
        };
        // Live repartitioning: apply the capacity-weighted shares for real.
        // Synchronous plans ride the rollback just computed (every rank
        // realigns on the common iteration under the new generation);
        // asynchronous/hybrid plans are adopted at each engine's next safe
        // point. The recovering rank adopts its new slice instead of the
        // plain checkpoint (see `PeerEngine::recover`).
        if self.repartition_on_recovery && self.peers >= 2 {
            let at = rollback.map(|(target, _)| target);
            self.publish_plan(loads, self.peers, at, rollback, None);
        }
        let action = self.granted.remove(&rank);
        // A weighted decomposition needs at least one share unit per peer;
        // populations beyond the notional 100 units scale the base up.
        let proposed = self
            .live_balancer(loads)
            .propose_assignment(REBALANCE_SHARE_UNITS.max(self.peers));
        self.recovery_log.push(RecoveryRecord {
            rank,
            replacement: match action {
                Some(RecoveryAction::Reassign { replacement, .. }) => replacement,
                _ => NodeId(rank),
            },
            from_iteration: checkpoint.as_ref().map(|c| c.iteration).unwrap_or(0),
            rollback_to: rollback.map(|(target, _)| target),
            proposed_shares: (0..self.peers).map(|r| proposed.count(r)).collect(),
        });
        (checkpoint, rollback)
    }

    /// Checkpoint a surviving peer restores on a rollback broadcast: its own
    /// newest checkpoint at or before the broadcast target.
    pub fn checkpoint_for_rollback(&self, rank: usize, to_iteration: u64) -> Option<Checkpoint> {
        self.fault
            .checkpoint_at_or_before(rank, to_iteration)
            .cloned()
    }

    /// Completed recoveries, in order.
    pub fn recovery_log(&self) -> &[RecoveryRecord] {
        &self.recovery_log
    }

    /// Fill a run measurement's volatility counters. Every runtime calls
    /// this after `ConvergenceDetector::finish_run`, so faulty runs report
    /// identical metric shapes on all backends.
    pub fn annotate(&self, measurement: &mut RunMeasurement) {
        measurement.crashes = self.crashes;
        measurement.recoveries = self.recoveries;
        measurement.rollbacks = self.rollbacks;
        measurement.downtime_s = self.downtime_ns as f64 / 1e9;
        measurement.joins = self.joins;
        measurement.repartitions = self.repartitions;
        measurement.moved_points = self.moved_points;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_fires_each_crash_exactly_once_and_not_early() {
        let plan = ChurnPlan::kill(1, 30);
        let mut injector = FaultInjector::new(&plan);
        assert!(!injector.should_crash(1, 29));
        assert!(!injector.should_crash(0, 30), "other ranks unaffected");
        assert!(injector.should_crash(1, 30));
        assert!(!injector.should_crash(1, 31), "the event is consumed");
    }

    #[test]
    fn injector_cannot_skip_a_crash_scheduled_between_queries() {
        // The engine queries once per completed relaxation; a trigger inside
        // a gap (e.g. after a restore jumped the counter) still fires.
        let mut injector = FaultInjector::new(&ChurnPlan::kill(0, 10));
        assert!(injector.should_crash(0, 25));
    }

    #[test]
    fn slowdown_factors_accumulate_and_persist() {
        let plan = ChurnPlan::new(vec![
            ChurnEvent {
                rank: 2,
                at_iteration: 5,
                kind: ChurnEventKind::Slowdown { factor: 2.0 },
            },
            ChurnEvent {
                rank: 2,
                at_iteration: 10,
                kind: ChurnEventKind::Slowdown { factor: 3.0 },
            },
        ]);
        let mut injector = FaultInjector::new(&plan);
        assert_eq!(injector.slowdown_factor(2, 4), 1.0);
        assert_eq!(injector.slowdown_factor(2, 5), 2.0);
        assert_eq!(injector.slowdown_factor(2, 7), 2.0);
        assert_eq!(injector.slowdown_factor(2, 12), 6.0);
        assert_eq!(injector.slowdown_factor(0, 12), 1.0);
    }

    #[test]
    fn co_due_link_events_do_not_jam_the_crash_queue() {
        // A due partition queued behind (in trigger order, before) a due
        // crash must not hide the crash from the kind-specific popper.
        let plan = ChurnPlan::kill(0, 10).with_partition(0, 5, &[0], 1_000, 16);
        let mut injector = FaultInjector::new(&plan);
        assert!(injector.should_crash(0, 10));
        let link = injector.take_link_events(0, 10);
        assert_eq!(link.len(), 1);
        assert!(link[0].kind.is_link_fault());
    }

    #[test]
    fn take_link_events_drains_due_faults_in_schedule_order() {
        let plan = ChurnPlan::new(vec![])
            .with_corruption(1, 8, 3)
            .with_flapping_link(1, 4, 2, 1_000, 8, 2)
            .with_asym_latency(1, 12, 0, 4.0);
        let mut injector = FaultInjector::new(&plan);
        assert!(injector.take_link_events(1, 3).is_empty());
        let first = injector.take_link_events(1, 8);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].at_iteration, 4, "earliest due fault first");
        assert_eq!(first[1].at_iteration, 8);
        let second = injector.take_link_events(1, 20);
        assert_eq!(second.len(), 1);
        assert!(matches!(
            second[0].kind,
            ChurnEventKind::AsymmetricLatency { peer: 0, .. }
        ));
        assert!(injector.take_link_events(1, 99).is_empty(), "consumed");
    }

    #[test]
    fn partition_builder_encodes_the_group_mask() {
        let plan = ChurnPlan::new(vec![]).with_partition(0, 10, &[0, 2, 5], 1_000, 32);
        assert_eq!(plan.link_fault_count(), 1);
        match plan.events[0].kind {
            ChurnEventKind::Partition { group, .. } => {
                assert_eq!(group, 0b100101);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        let json = serde_json::to_string(&plan).expect("link faults serialize");
        let back: ChurnPlan = serde_json::from_str(&json).expect("and round-trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_hit_distinct_ranks() {
        let a = ChurnPlan::seeded(7, 8, 3, 100);
        let b = ChurnPlan::seeded(7, 8, 3, 100);
        assert_eq!(a, b);
        assert_eq!(a.crash_count(), 3);
        let mut ranks: Vec<usize> = a.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), 3, "crashes strike distinct ranks");
        for event in &a.events {
            assert!((25..=75).contains(&event.at_iteration));
        }
        assert_ne!(ChurnPlan::seeded(8, 8, 3, 100), a, "different seeds differ");
    }

    #[test]
    fn plans_serialize_for_the_bench_artifacts() {
        let plan = ChurnPlan::seeded(42, 4, 1, 200).with_spares(2);
        let json = serde_json::to_string(&plan).expect("serializes");
        assert!(json.contains("at_iteration"));
    }

    /// A minimal repartitionable workload for coordinator-level tests: 12
    /// one-value items, canvas of zeros, tasks irrelevant (never built).
    struct StubReslicer;

    impl Repartitioner for StubReslicer {
        fn items(&self) -> usize {
            12
        }
        fn item_width(&self) -> usize {
            1
        }
        fn global_canvas(&self) -> Vec<f64> {
            vec![0.0; 12]
        }
        fn task_for(
            &self,
            _rank: usize,
            _parts: &[(usize, usize)],
            _global: &[f64],
            _iteration: u64,
        ) -> Box<dyn crate::app::IterativeTask> {
            unreachable!("coordinator tests never build tasks")
        }
    }

    fn stub_state(start: u32, count: u32, value: f64) -> Vec<u8> {
        crate::workload::encode_block_state(
            start as usize,
            count as usize,
            &vec![value; count as usize],
        )
    }

    #[test]
    fn join_due_consumes_the_event_once() {
        let plan = ChurnPlan::new(vec![]).with_join(2, 15);
        let mut vol = VolatilityState::new(&plan, 3, Scheme::Asynchronous);
        assert!(!vol.join_due(2, 14));
        assert!(!vol.join_due(0, 15), "only the trigger rank's clock counts");
        assert!(vol.join_due(2, 15));
        assert!(!vol.join_due(2, 16), "the event is consumed");
    }

    #[test]
    fn join_without_a_repartitioner_is_ignored() {
        let plan = ChurnPlan::new(vec![]).with_join(0, 5);
        let mut vol = VolatilityState::new(&plan, 2, Scheme::Asynchronous);
        assert!(vol.join_due(0, 5));
        assert!(vol.create_join_plan(5, &[PeerLoad::default(); 2]).is_none());
        assert_eq!(vol.peers(), 2, "the run does not grow");
    }

    #[test]
    fn create_join_plan_grows_the_run_and_gates_the_spawn() {
        let plan = ChurnPlan::new(vec![])
            .with_join(0, 10)
            .with_checkpoint_interval(4);
        let mut vol = VolatilityState::new(&plan, 2, Scheme::Asynchronous);
        vol.set_repartitioner(ReslicerHandle(Arc::new(StubReslicer)));
        for rank in 0..2 {
            vol.store_checkpoint(Checkpoint {
                rank,
                iteration: 8,
                state: stub_state(6 * rank as u32, 6, rank as f64 + 1.0),
            });
        }
        let (new_peers, rollback) = vol
            .create_join_plan(10, &[PeerLoad::default(); 2])
            .expect("plan published");
        assert_eq!(new_peers, 3);
        assert!(rollback.is_none(), "asynchronous joins do not roll back");
        assert_eq!(vol.peers(), 3);
        let plan = vol.plan().expect("published").clone();
        assert_eq!(plan.epoch, 1);
        assert_eq!(plan.parts.len(), 3);
        assert_eq!(plan.joined_rank, Some(2));
        // The assembled global carries the checkpointed values.
        assert_eq!(plan.global[0], 1.0);
        assert_eq!(plan.global[11], 2.0);
        // The spawn is gated until the caller grew the detector.
        assert!(vol.take_pending_spawn().is_none());
        vol.arm_spawn();
        assert!(!vol.take_spawn_if(1), "only the joined rank's spawn");
        assert!(vol.take_spawn_if(2));
        assert!(vol.take_pending_spawn().is_none(), "consumed once");
    }

    #[test]
    fn synchronous_join_realigns_on_a_deterministic_checkpoint_multiple() {
        let plan = ChurnPlan::new(vec![])
            .with_join(0, 21)
            .with_checkpoint_interval(5);
        let mut vol = VolatilityState::new(&plan, 3, Scheme::Synchronous);
        vol.set_repartitioner(ReslicerHandle(Arc::new(StubReslicer)));
        for rank in 0..3 {
            for iteration in [0u64, 5, 10, 15] {
                vol.store_checkpoint(Checkpoint {
                    rank,
                    iteration,
                    state: stub_state(4 * rank as u32, 4, iteration as f64),
                });
            }
        }
        let (_, rollback) = vol
            .create_join_plan(21, &[PeerLoad::default(); 3])
            .expect("plan published");
        // target = largest interval multiple every lockstep peer (trailing
        // the trigger by at most peers − 1) is guaranteed to have: 21 − 2 =
        // 19 → 15.
        assert_eq!(rollback, Some((15, 1)));
        let plan = vol.plan().unwrap();
        assert_eq!(plan.iteration, 15);
        assert!(
            plan.global.iter().all(|&v| v == 15.0),
            "states at the target"
        );
    }

    #[test]
    fn repartitioning_recovery_applies_the_capacity_weighted_shares() {
        let plan = ChurnPlan::kill(0, 10)
            .with_spares(0)
            .with_repartition(true)
            .with_checkpoint_interval(5);
        let mut vol = VolatilityState::new(&plan, 2, Scheme::Asynchronous);
        vol.set_repartitioner(ReslicerHandle(Arc::new(StubReslicer)));
        for rank in 0..2 {
            vol.store_checkpoint(Checkpoint {
                rank,
                iteration: 10,
                state: stub_state(6 * rank as u32, 6, 3.0),
            });
        }
        let loads = vec![
            PeerLoad {
                points: 1_000,
                busy_seconds: 1.0,
            },
            PeerLoad {
                points: 4_000,
                busy_seconds: 1.0,
            },
        ];
        vol.on_crash(0, 100);
        vol.grant(0, &loads);
        let _ = vol.take_recovery(0, 200, &loads);
        let plan = vol.plan().expect("recovery published the re-slice");
        assert_eq!(plan.epoch, 1);
        assert!(plan.rollback.is_none());
        assert!(
            plan.parts[1].1 > plan.parts[0].1,
            "the 4x-throughput peer takes the larger share: {:?}",
            plan.parts
        );
        let mut measurement =
            RunMeasurement::from_run(2, desim::SimDuration::from_nanos(1), vec![0, 0], true);
        vol.annotate(&mut measurement);
        assert_eq!(measurement.repartitions, 1);
        assert_eq!(measurement.joins, 0);
        assert!(measurement.moved_points > 0);
    }

    #[test]
    fn recovery_prefers_a_spare_then_the_strongest_survivor() {
        let plan = ChurnPlan::kill(0, 10).with_spares(1);
        let mut vol = VolatilityState::new(&plan, 3, Scheme::Asynchronous);
        vol.store_checkpoint(Checkpoint {
            rank: 0,
            iteration: 8,
            state: vec![1],
        });
        let loads = vec![
            PeerLoad::default(),
            PeerLoad {
                points: 1_000,
                busy_seconds: 1.0,
            },
            PeerLoad {
                points: 4_000,
                busy_seconds: 1.0,
            },
        ];
        // First crash: the spare (NodeId 3 = peers + 0) adopts the rank.
        vol.on_crash(0, 100);
        vol.grant(0, &loads);
        assert!(vol.is_granted(0));
        let (checkpoint, rollback) = vol.take_recovery(0, 200, &loads);
        assert_eq!(checkpoint.unwrap().iteration, 8);
        assert!(rollback.is_none(), "asynchronous recovery never rolls back");
        assert_eq!(vol.recovery_log()[0].replacement, NodeId(3));
        // Second crash: no spares left — the fastest survivor (rank 2) hosts.
        vol.on_crash(0, 300);
        vol.grant(0, &loads);
        let _ = vol.take_recovery(0, 400, &loads);
        assert_eq!(vol.recovery_log()[1].replacement, NodeId(2));
        assert_eq!(vol.recoveries, 2);
        assert_eq!(vol.rollbacks, 0);
        assert_eq!(vol.downtime_ns, 200);
    }

    #[test]
    fn synchronous_recovery_computes_a_common_rollback_target() {
        let plan = ChurnPlan::kill(1, 50).with_checkpoint_interval(20);
        let mut vol = VolatilityState::new(&plan, 2, Scheme::Synchronous);
        // Both ranks checkpointed at 0, 20 and 40; the victim also at 40.
        for rank in 0..2 {
            for iteration in [0, 20, 40] {
                vol.store_checkpoint(Checkpoint {
                    rank,
                    iteration,
                    state: vec![rank as u8, iteration as u8],
                });
            }
        }
        vol.on_crash(1, 1_000);
        vol.grant(1, &[PeerLoad::default(); 2]);
        let (checkpoint, rollback) = vol.take_recovery(1, 2_000, &[PeerLoad::default(); 2]);
        let (target, generation) = rollback.expect("synchronous runs roll back");
        assert_eq!(target, 40, "newest iteration every rank has checkpointed");
        assert_eq!(generation, 1);
        assert_eq!(checkpoint.unwrap().iteration, 40);
        // The survivor's rollback lookup lands on the same iteration.
        assert_eq!(
            vol.checkpoint_for_rollback(0, target).unwrap().iteration,
            40
        );
        assert_eq!(vol.rollbacks, 1);
    }
}
