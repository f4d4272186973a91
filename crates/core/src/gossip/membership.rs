//! SWIM-style gossip membership.
//!
//! Every peer runs one [`GossipNode`]: on a fixed cadence it probes a seeded
//! random fanout of members, piggy-backing membership rumors and convergence
//! digest rows ([`crate::gossip::aggregation`]) on every probe, ack and
//! probe-req. A member that misses a direct probe is *suspected* and probed
//! indirectly through `fanout` helpers; only when the suspicion survives the
//! full window is it declared *dead* — the death rumor is disseminated and
//! the driver feeds it into the run's volatility coordinator
//! ([`crate::churn::VolatilityState::grant`]), which is exactly where the
//! centralized `TopologyManager::evictions_since` sweep used to hand over
//! (the recovery path downstream of the verdict is unchanged).
//!
//! Digest rows also travel outside the probe cycle. When sweeps outpace the
//! probe period (a localhost synchronous sweep takes about 0.1 ms, a probe
//! period 10 ms), a node whose own row is clean or stable and has advanced
//! at least `PUSH_MIN_ADVANCE` (2) iterations past the last message that
//! carried it pushes the digest to `fanout` members as an unsolicited ack
//! of itself, at most once per `probe_period / PUSH_RATE_DIVISOR`. Without
//! it the stop decision lags the central fold by every sweep run while
//! rows wait for the next probe. A push's digest window starts at the own
//! row, so it carries that row however wide the digest is. On the
//! simulated WAN a round outlasts the probe period, every row rides a
//! probe first, and no push fires; a single-cluster simulated LAN sweeps
//! faster than it probes and does push.
//!
//! The node is sans-io like the engine: `poll`/`on_message` return the
//! messages to send and the driver owns delivery, so the same state machine
//! runs over real sockets (reactor) and the deterministic substrates
//! (sim/loopback), where the seeded fanout makes
//! same-seed runs replay exactly.

use crate::gossip::aggregation::{ConvergenceDigest, SweepSummary};
use crate::gossip::rumor::{DigestRow, GossipKind, GossipMessage, MemberStatus, Rumor, ROW_STABLE};
use crate::load_balance::PeerLoad;
use p2psap::Scheme;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Rumor retransmissions per subject scale with `log2` of the membership so
/// dissemination stays whp-complete as runs grow.
const RETRANSMIT_FACTOR: u32 = 3;

/// Rumors piggy-backed per message (the freshest-budget ones go first).
const MAX_RUMORS_PER_MESSAGE: usize = 16;

/// Every this-many probe rounds the node also probes one member it holds a
/// *death verdict* for. A network partition hardens symmetric false verdicts
/// (each side declares the other dead), and since dead members are excluded
/// from the regular probe rotation, no traffic would ever cross the healed
/// boundary again: neither side can learn the other is back, the digest's
/// evidence gate stays shut and the stop decision never fires. Direct
/// contact is the one path that beats a Dead rumor at the same incarnation
/// (`heard_from`/`confirm_alive` are first-hand evidence), so the
/// occasional "lazarus" probe is what lets a falsely-dead member rejoin —
/// the same escape hatch memberlist ships as gossip-to-the-dead. Probes to
/// genuinely dead members go unanswered and cost one datagram per period.
const DEAD_REPROBE_PERIOD: u64 = 4;

/// Digest rows piggy-backed per message. Every probe and ack carries rows,
/// so this bounds the steady-state gossip bandwidth: at 64+ peers a full
/// digest on every datagram saturates localhost socket buffers under the
/// data-plane load and the resulting kernel drops read as missed acks (mass
/// false suspicion). A seeded 32-row subset per message keeps datagrams
/// ~1.5 KiB and anti-entropy completes across successive exchanges.
const MAX_ROWS_PER_MESSAGE: usize = 32;

/// A digest push (see [`GossipNode::poll`]) fires only once the node's own
/// row has advanced this many iterations past the last message that
/// carried it: a row one sweep newer than what peers already hold is not
/// worth an extra datagram. At 1 the push also fires on the simulated
/// WAN, where the probe cycle already keeps up with the sweeps.
const PUSH_MIN_ADVANCE: u64 = 2;

/// Digest pushes are rate-limited to one per `probe_period / this`: a
/// coarser limit leaves localhost stop decisions tens of sweeps late, a
/// finer one spends more datagrams for a few sweeps less lag.
const PUSH_RATE_DIVISOR: u64 = 10;

/// The gossip cadence and failure-detection windows, in the driving
/// substrate's clock units (wall nanoseconds, virtual nanoseconds, or
/// loopback event counts).
#[derive(Debug, Clone, Copy)]
pub struct GossipTiming {
    /// Interval between probe rounds.
    pub probe_period: u64,
    /// Direct-probe ack deadline before a member is suspected.
    pub ack_timeout: u64,
    /// Suspicion window (indirect probes in flight) before a death verdict.
    pub suspect_timeout: u64,
}

impl GossipTiming {
    /// Wall-clock defaults for the reactor backend. The windows must
    /// absorb drive-loop scheduling latency — a reactor event loop
    /// multiplexing dozens of computing peers can sit on an incoming probe
    /// for tens of milliseconds before its next drain, and an ack deadline
    /// tighter than that turns scheduling jitter into a storm of false
    /// suspicion/refutation churn. Worst-case detection (ack + suspicion)
    /// still lands within ~2.5x of the centralized detector's three missed
    /// 10 ms ping periods.
    pub fn wall_clock() -> Self {
        Self {
            probe_period: 10_000_000,
            ack_timeout: 25_000_000,
            suspect_timeout: 50_000_000,
        }
    }

    /// Virtual-time defaults for the simulated backend (same shape as wall
    /// clock; the fabric's latencies are well under the windows).
    pub fn virtual_time() -> Self {
        Self::wall_clock()
    }

    /// Event-count defaults for the loopback backend, scaled to the round
    /// length so one probe round spans a couple of drive sweeps over all
    /// `peers` ranks.
    pub fn event_count(peers: usize) -> Self {
        let round = (2 * peers.max(2)) as u64;
        Self {
            probe_period: round,
            ack_timeout: 2 * round,
            suspect_timeout: 4 * round,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct MemberState {
    incarnation: u32,
    status: MemberStatus,
    /// Pre-provisioned join ranks start unborn: never probed, outside the
    /// decision universe, until their first sign of life.
    born: bool,
    probe_sent_at: Option<u64>,
    suspect_since: Option<u64>,
    indirect_asked: bool,
}

/// One peer's SWIM membership + aggregation state.
pub struct GossipNode {
    rank: usize,
    fanout: usize,
    timing: GossipTiming,
    rng: ChaCha8Rng,
    incarnation: u32,
    members: Vec<MemberState>,
    /// Rumor queue: `(rumor, remaining piggy-back budget)`, one per subject.
    rumors: Vec<(Rumor, u32)>,
    /// Indirect probes in flight on behalf of others: subject → requesters.
    pending_indirect: HashMap<u16, Vec<u16>>,
    digest: ConvergenceDigest,
    next_probe_at: u64,
    /// Probe rounds completed (drives the [`DEAD_REPROBE_PERIOD`] cadence).
    rounds: u64,
    /// `latest` of this node's own row in the last message that carried it.
    carried_latest: u64,
    /// Earliest instant of the next digest push.
    next_push_at: u64,
    /// Scratch for fanout selection.
    eligible: Vec<usize>,
}

impl GossipNode {
    /// Create the node for `rank` of a run with `alpha` initial peers over a
    /// substrate provisioned for `capacity` ranks (`capacity - alpha` are
    /// pre-provisioned join slots). `seed` is the run's master seed — every
    /// rank derives its own stream, so same-seed runs pick the same fanout.
    pub fn new(
        rank: usize,
        alpha: usize,
        capacity: usize,
        fanout: usize,
        seed: u64,
        timing: GossipTiming,
    ) -> Self {
        let members = (0..capacity)
            .map(|r| MemberState {
                incarnation: 0,
                status: MemberStatus::Alive,
                born: r < alpha,
                probe_sent_at: None,
                suspect_since: None,
                indirect_asked: false,
            })
            .collect();
        Self {
            rank,
            fanout: fanout.max(1),
            timing,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x6055_1790_0000_0000 ^ rank as u64),
            incarnation: 0,
            members,
            rumors: vec![(
                Rumor {
                    subject: rank as u16,
                    incarnation: 0,
                    status: MemberStatus::Alive,
                },
                RETRANSMIT_FACTOR,
            )],
            pending_indirect: HashMap::new(),
            digest: ConvergenceDigest::new(capacity),
            next_probe_at: 0,
            rounds: 0,
            carried_latest: 0,
            next_push_at: 0,
            eligible: Vec::new(),
        }
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The live decision universe: initial ranks plus every join slot that
    /// has shown a sign of life.
    pub fn universe(&self) -> usize {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.born)
            .map(|(r, _)| r + 1)
            .max()
            .unwrap_or(0)
    }

    /// The merged convergence digest (read-only).
    pub fn digest(&self) -> &ConvergenceDigest {
        &self.digest
    }

    /// Fold this rank's own sweep into its digest row.
    pub fn record_sweep(&mut self, sweep: &SweepSummary) {
        self.digest.record_local(self.rank, sweep);
    }

    /// Evaluate the stop decision over the merged digest: the central fold's
    /// criterion, gated on members whose evidence is currently trustworthy
    /// (alive — a suspected or dead rank's rows are one failure away from
    /// being stale).
    pub fn decide(&self, scheme: Scheme, generation: u32) -> bool {
        let universe = self.universe();
        self.digest.decision(scheme, universe, generation, |rank| {
            rank == self.rank || self.members[rank].status == MemberStatus::Alive
        })
    }

    /// Gossiped per-rank load estimates over `peers` ranks (the recovery and
    /// joiner-placement weights under the gossip control plane).
    pub fn gossiped_loads(&self, peers: usize) -> Vec<PeerLoad> {
        self.digest.loads(peers)
    }

    /// Ranks currently under a death verdict (level-triggered: the driver
    /// retries `VolatilityState::grant` for each until the grant lands or
    /// the rank refutes).
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.members
            .iter()
            .enumerate()
            .filter(|(r, m)| *r != self.rank && m.born && m.status == MemberStatus::Dead)
            .map(|(r, _)| r)
            .collect()
    }

    /// This peer recovered from a crash: refute the (correct) death verdict
    /// with a bumped incarnation so the membership converges back to alive.
    pub fn on_recovered(&mut self) {
        self.incarnation = self.incarnation.wrapping_add(1);
        let me = self.rank;
        self.members[me].status = MemberStatus::Alive;
        self.members[me].incarnation = self.incarnation;
        self.members[me].probe_sent_at = None;
        self.members[me].suspect_since = None;
        let rumor = Rumor {
            subject: me as u16,
            incarnation: self.incarnation,
            status: MemberStatus::Alive,
        };
        self.queue_rumor(rumor);
    }

    /// The earliest instant `poll` has scheduled work for: the next probe
    /// round, a pending ack deadline, or a suspicion expiry. Event-count
    /// drivers jump their clock here when every peer is otherwise idle.
    pub fn next_deadline(&self) -> u64 {
        let mut deadline = self.next_probe_at;
        for member in &self.members {
            if member.status == MemberStatus::Alive {
                if let Some(sent_at) = member.probe_sent_at {
                    // Once the missed direct ack has escalated into indirect
                    // probes, the next actionable edge is the *second* ack
                    // window (suspicion), not the first — reporting the
                    // already-acted-on edge hands idle-jumping drivers a
                    // deadline in the past, which reads as "nothing left to
                    // wait for" and ends the run under a live schedule.
                    let edge = if member.indirect_asked {
                        2 * self.timing.ack_timeout
                    } else {
                        self.timing.ack_timeout
                    };
                    deadline = deadline.min(sent_at + edge);
                }
            }
            if member.status == MemberStatus::Suspect {
                if let Some(since) = member.suspect_since {
                    deadline = deadline.min(since + self.timing.suspect_timeout);
                }
            }
        }
        deadline
    }

    /// Drive the probe cycle: emit the round's probe when due, escalate a
    /// missed direct ack into indirect probes, harden targets that answered
    /// neither path into disseminated suspicions, and suspicions that
    /// survived the window into death verdicts. Returns the messages to
    /// send.
    pub fn poll(&mut self, now: u64) -> Vec<(usize, GossipMessage)> {
        let mut out = Vec::new();
        // Ack deadlines. A missed direct ack is NOT yet a suspicion: first
        // the target is probed indirectly through `fanout` helpers, and only
        // when a second ack window passes with the helpers silent too does
        // the node mark it Suspect and disseminate the rumor. Broadcasting
        // on the first missed ack lets every receiver start its own death
        // countdown, so a percent of scheduling-delayed acks amplifies into
        // a cluster-wide false-verdict storm; requiring two independent
        // probe paths to fail first keeps local hiccups local.
        for target in 0..self.members.len() {
            let member = self.members[target];
            if let Some(sent_at) = member.probe_sent_at {
                if member.status == MemberStatus::Alive {
                    if !member.indirect_asked
                        && now.saturating_sub(sent_at) >= self.timing.ack_timeout
                    {
                        self.members[target].indirect_asked = true;
                        let helpers = self.pick_targets(now, Some(target));
                        for helper in helpers {
                            stats::count_indirect_probe();
                            out.push((helper, self.message(GossipKind::ProbeReq, target as u16)));
                        }
                    } else if member.indirect_asked
                        && now.saturating_sub(sent_at) >= 2 * self.timing.ack_timeout
                    {
                        self.members[target].status = MemberStatus::Suspect;
                        self.members[target].suspect_since = Some(now);
                        let rumor = Rumor {
                            subject: target as u16,
                            incarnation: member.incarnation,
                            status: MemberStatus::Suspect,
                        };
                        self.queue_rumor(rumor);
                    }
                }
            }
            if self.members[target].status == MemberStatus::Suspect {
                // A suspicion adopted from a rumor (rather than grown from
                // this node's own probes) still gets one indirect round so
                // the suspect can be vouched for before the window expires.
                if !self.members[target].indirect_asked {
                    self.members[target].indirect_asked = true;
                    let helpers = self.pick_targets(now, Some(target));
                    for helper in helpers {
                        stats::count_indirect_probe();
                        out.push((helper, self.message(GossipKind::ProbeReq, target as u16)));
                    }
                }
                let since = self.members[target].suspect_since.unwrap_or(now);
                if now.saturating_sub(since) >= self.timing.suspect_timeout {
                    self.members[target].status = MemberStatus::Dead;
                    self.members[target].probe_sent_at = None;
                    stats::count_death_verdict();
                    let rumor = Rumor {
                        subject: target as u16,
                        incarnation: self.members[target].incarnation,
                        status: MemberStatus::Dead,
                    };
                    self.queue_rumor(rumor);
                    let floor = self.digest.epoch_of(target).wrapping_add(1);
                    self.digest.void_below_epoch(target, floor);
                }
            }
        }
        // The probe round proper: one direct target per period.
        if now >= self.next_probe_at {
            self.next_probe_at = now + self.timing.probe_period;
            self.rounds = self.rounds.wrapping_add(1);
            let targets = self.pick_targets_n(now, None, 1);
            for target in targets {
                stats::count_probe();
                if self.members[target].probe_sent_at.is_none() {
                    self.members[target].probe_sent_at = Some(now);
                }
                out.push((target, self.message(GossipKind::Probe, self.rank as u16)));
            }
            // Lazarus probe (see [`DEAD_REPROBE_PERIOD`]): without it a
            // healed partition leaves both sides holding symmetric death
            // verdicts forever. No ack deadline is armed — a genuinely dead
            // target staying silent must not restart the suspicion ladder.
            if self.rounds.is_multiple_of(DEAD_REPROBE_PERIOD) {
                self.eligible.clear();
                for (r, member) in self.members.iter().enumerate() {
                    if r != self.rank && member.born && member.status == MemberStatus::Dead {
                        self.eligible.push(r);
                    }
                }
                if !self.eligible.is_empty() {
                    let pick = (self.rng.next_u64() % self.eligible.len() as u64) as usize;
                    let target = self.eligible[pick];
                    stats::count_probe();
                    out.push((target, self.message(GossipKind::Probe, self.rank as u16)));
                }
            }
        }
        // Digest push (see the module docs): when sweeps outpace the probe
        // cadence, the stop decision would otherwise wait on rows that
        // travel once per probe period. An ack of itself asks no reply.
        let own = *self.digest.row(self.rank);
        let evidence = own.clean_since != u64::MAX || own.flags & ROW_STABLE != 0;
        if evidence
            && own.latest >= self.carried_latest + PUSH_MIN_ADVANCE
            && now >= self.next_push_at
        {
            self.next_push_at = now + (self.timing.probe_period / PUSH_RATE_DIVISOR).max(1);
            for target in self.pick_targets(now, None) {
                stats::count_push();
                // The push exists to carry the own row: its digest window
                // starts there even when the digest exceeds one message.
                let push = self.message_from(GossipKind::Ack, self.rank as u16, self.rank);
                out.push((target, push));
            }
        }
        out
    }

    /// Handle one received gossip message; returns the replies/forwards to
    /// send. Receiving anything from a rank is proof of life.
    pub fn on_message(&mut self, msg: &GossipMessage, now: u64) -> Vec<(usize, GossipMessage)> {
        let from = msg.from as usize;
        if from >= self.members.len() || from == self.rank {
            return Vec::new();
        }
        self.heard_from(from, msg.incarnation);
        for row in &msg.digest {
            if self.digest.merge_row(row) {
                stats::count_row_merge();
            }
        }
        for rumor in &msg.rumors {
            stats::count_rumor_received();
            self.apply_rumor(rumor);
        }
        let mut out = Vec::new();
        match msg.kind {
            GossipKind::Probe => {
                out.push((from, self.message(GossipKind::Ack, self.rank as u16)));
            }
            GossipKind::ProbeReq => {
                let subject = msg.subject as usize;
                if subject < self.members.len() && subject != self.rank {
                    self.pending_indirect
                        .entry(msg.subject)
                        .or_default()
                        .push(msg.from);
                    stats::count_probe();
                    if self.members[subject].probe_sent_at.is_none() {
                        self.members[subject].probe_sent_at = Some(now);
                    }
                    out.push((subject, self.message(GossipKind::Probe, self.rank as u16)));
                }
            }
            GossipKind::Ack => {
                let subject = msg.subject as usize;
                if subject < self.members.len() {
                    self.confirm_alive(subject);
                    // Answer every requester whose indirect probe this ack
                    // resolves.
                    if let Some(requesters) = self.pending_indirect.remove(&msg.subject) {
                        for requester in requesters {
                            let requester = requester as usize;
                            if requester != self.rank && requester < self.members.len() {
                                out.push((requester, self.message(GossipKind::Ack, msg.subject)));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Any traffic from `rank` (gossip or piggy-backed observation) is proof
    /// of life at `incarnation`.
    fn heard_from(&mut self, rank: usize, incarnation: u32) {
        let member = &mut self.members[rank];
        member.born = true;
        if incarnation >= member.incarnation {
            member.incarnation = incarnation;
            if member.status != MemberStatus::Alive {
                member.status = MemberStatus::Alive;
                let rumor = Rumor {
                    subject: rank as u16,
                    incarnation,
                    status: MemberStatus::Alive,
                };
                self.queue_rumor(rumor);
            }
        }
        self.members[rank].probe_sent_at = None;
        self.members[rank].suspect_since = None;
        self.members[rank].indirect_asked = false;
    }

    /// An ack vouched for `rank` (possibly relayed): clear any suspicion at
    /// the current incarnation.
    fn confirm_alive(&mut self, rank: usize) {
        let member = &mut self.members[rank];
        member.born = true;
        member.probe_sent_at = None;
        member.suspect_since = None;
        member.indirect_asked = false;
        if member.status != MemberStatus::Alive {
            member.status = MemberStatus::Alive;
            let rumor = Rumor {
                subject: rank as u16,
                incarnation: member.incarnation,
                status: MemberStatus::Alive,
            };
            self.queue_rumor(rumor);
        }
    }

    fn apply_rumor(&mut self, rumor: &Rumor) {
        let subject = rumor.subject as usize;
        if subject >= self.members.len() {
            return;
        }
        if subject == self.rank {
            // A rumor declaring *us* suspect/dead: refute with a bumped
            // incarnation (we are demonstrably alive).
            if rumor.status != MemberStatus::Alive && rumor.incarnation >= self.incarnation {
                self.incarnation = rumor.incarnation.wrapping_add(1);
                self.members[subject].incarnation = self.incarnation;
                let refutation = Rumor {
                    subject: rumor.subject,
                    incarnation: self.incarnation,
                    status: MemberStatus::Alive,
                };
                self.queue_rumor(refutation);
            }
            return;
        }
        let member = self.members[subject];
        let known = Rumor {
            subject: rumor.subject,
            incarnation: member.incarnation,
            status: member.status,
        };
        if !member.born || rumor.supersedes(&known) {
            self.members[subject].born = true;
            self.members[subject].incarnation = rumor.incarnation;
            let was = self.members[subject].status;
            self.members[subject].status = rumor.status;
            match rumor.status {
                MemberStatus::Alive => {
                    self.members[subject].probe_sent_at = None;
                    self.members[subject].suspect_since = None;
                    self.members[subject].indirect_asked = false;
                }
                MemberStatus::Suspect => {
                    if self.members[subject].suspect_since.is_none() {
                        self.members[subject].suspect_since = Some(self.next_probe_at);
                    }
                }
                MemberStatus::Dead => {
                    if was != MemberStatus::Dead {
                        stats::count_death_verdict();
                        let floor = self.digest.epoch_of(subject).wrapping_add(1);
                        self.digest.void_below_epoch(subject, floor);
                    }
                }
            }
            self.queue_rumor(*rumor);
        }
    }

    /// Queue a rumor for piggy-backed dissemination (one slot per subject;
    /// a superseding verdict replaces the queued one and refreshes the
    /// budget).
    fn queue_rumor(&mut self, rumor: Rumor) {
        let budget = RETRANSMIT_FACTOR
            * (usize::BITS - self.members.len().leading_zeros()).max(1)
            * self.fanout.max(1) as u32;
        if let Some(slot) = self
            .rumors
            .iter_mut()
            .find(|(r, _)| r.subject == rumor.subject)
        {
            if rumor.supersedes(&slot.0) || rumor == slot.0 {
                *slot = (rumor, budget);
            }
            return;
        }
        self.rumors.push((rumor, budget));
    }

    /// Pick up to `fanout` distinct probe-eligible targets (born, not dead,
    /// not self, not `exclude`) with the node's seeded stream.
    fn pick_targets(&mut self, now: u64, exclude: Option<usize>) -> Vec<usize> {
        self.pick_targets_n(now, exclude, self.fanout)
    }

    /// As [`Self::pick_targets`] but with an explicit count: the direct probe
    /// round takes one target per period (classic SWIM — `fanout` governs
    /// indirect-probe helpers and rumor spread, not the base probe rate,
    /// which would otherwise scale the gossip plane's packet rate by
    /// `fanout` and drown the data plane at large peer counts).
    fn pick_targets_n(&mut self, _now: u64, exclude: Option<usize>, count: usize) -> Vec<usize> {
        self.eligible.clear();
        for (r, member) in self.members.iter().enumerate() {
            if r != self.rank
                && Some(r) != exclude
                && member.born
                && member.status != MemberStatus::Dead
            {
                self.eligible.push(r);
            }
        }
        let mut picked = Vec::with_capacity(count);
        let take = count.min(self.eligible.len());
        for i in 0..take {
            let j = i + (self.rng.next_u64() % (self.eligible.len() - i) as u64) as usize;
            self.eligible.swap(i, j);
            picked.push(self.eligible[i]);
        }
        picked
    }

    /// Assemble one outgoing message: header plus piggy-backed rumors (the
    /// highest remaining budgets first) and digest rows. Oversized runs
    /// carry a seeded window of rows; anti-entropy completes across
    /// successive exchanges.
    fn message(&mut self, kind: GossipKind, subject: u16) -> GossipMessage {
        let start = if self.digest.capacity() > MAX_ROWS_PER_MESSAGE {
            (self.rng.next_u64() % self.digest.capacity() as u64) as usize
        } else {
            0
        };
        self.message_from(kind, subject, start)
    }

    /// As [`Self::message`], with the digest window of an oversized run
    /// starting at rank `start` (every row fits otherwise).
    fn message_from(&mut self, kind: GossipKind, subject: u16, start: usize) -> GossipMessage {
        self.rumors
            .sort_by_key(|&(_, budget)| std::cmp::Reverse(budget));
        let mut rumors = Vec::new();
        for (rumor, budget) in self
            .rumors
            .iter_mut()
            .take(MAX_RUMORS_PER_MESSAGE)
            .filter(|(_, budget)| *budget > 0)
        {
            *budget -= 1;
            rumors.push(*rumor);
            stats::count_rumor_sent();
        }
        self.rumors.retain(|(_, budget)| *budget > 0);
        let digest: Vec<DigestRow> = if self.digest.capacity() <= MAX_ROWS_PER_MESSAGE {
            self.digest.rows().to_vec()
        } else {
            (0..MAX_ROWS_PER_MESSAGE)
                .map(|i| self.digest.rows()[(start + i) % self.digest.capacity()])
                .collect()
        };
        if let Some(own) = digest.iter().find(|row| row.rank as usize == self.rank) {
            self.carried_latest = own.latest;
        }
        GossipMessage {
            kind,
            from: self.rank as u16,
            incarnation: self.incarnation,
            subject,
            rumors,
            digest,
        }
    }
}

/// Run-wide gossip counters (always on: the gossip path is the control
/// plane, far off the relaxation hot path). The bench grid snapshots them
/// per cell, mirroring the `contention` counters' reset/snapshot idiom.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A snapshot of the counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Direct + indirect probes sent.
        pub probes_sent: u64,
        /// Probe-req fan-outs (indirect probe requests).
        pub indirect_probes: u64,
        /// Rumors piggy-backed onto outgoing messages.
        pub rumors_sent: u64,
        /// Rumors received (before supersession filtering).
        pub rumors_received: u64,
        /// Digest-row merges that superseded local evidence.
        pub row_merges: u64,
        /// Death verdicts declared or adopted.
        pub death_verdicts: u64,
        /// Digest pushes sent (one per target; see [`super::GossipNode::poll`]).
        pub pushes_sent: u64,
    }

    static PROBES: AtomicU64 = AtomicU64::new(0);
    static INDIRECT: AtomicU64 = AtomicU64::new(0);
    static RUMORS_SENT: AtomicU64 = AtomicU64::new(0);
    static RUMORS_RECEIVED: AtomicU64 = AtomicU64::new(0);
    static ROW_MERGES: AtomicU64 = AtomicU64::new(0);
    static DEATHS: AtomicU64 = AtomicU64::new(0);
    static PUSHES: AtomicU64 = AtomicU64::new(0);

    macro_rules! bump {
        ($name:ident, $counter:ident) => {
            /// Count one event.
            #[inline]
            pub fn $name() {
                $counter.fetch_add(1, Ordering::Relaxed);
            }
        };
    }
    bump!(count_probe, PROBES);
    bump!(count_indirect_probe, INDIRECT);
    bump!(count_rumor_sent, RUMORS_SENT);
    bump!(count_rumor_received, RUMORS_RECEIVED);
    bump!(count_row_merge, ROW_MERGES);
    bump!(count_death_verdict, DEATHS);
    bump!(count_push, PUSHES);

    /// Zero all counters (call before a measured run).
    pub fn reset() {
        for counter in [
            &PROBES,
            &INDIRECT,
            &RUMORS_SENT,
            &RUMORS_RECEIVED,
            &ROW_MERGES,
            &DEATHS,
            &PUSHES,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Read all counters.
    pub fn snapshot() -> Counters {
        Counters {
            probes_sent: PROBES.load(Ordering::Relaxed),
            indirect_probes: INDIRECT.load(Ordering::Relaxed),
            rumors_sent: RUMORS_SENT.load(Ordering::Relaxed),
            rumors_received: RUMORS_RECEIVED.load(Ordering::Relaxed),
            row_merges: ROW_MERGES.load(Ordering::Relaxed),
            death_verdicts: DEATHS.load(Ordering::Relaxed),
            pushes_sent: PUSHES.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(nodes: &mut [GossipNode], queue: Vec<(usize, usize, GossipMessage)>, now: u64) {
        exchange_blocking(nodes, queue, now, None);
    }

    fn exchange_blocking(
        nodes: &mut [GossipNode],
        mut queue: Vec<(usize, usize, GossipMessage)>,
        now: u64,
        blocked: Option<usize>,
    ) {
        // Deliver until quiescent (in-memory, zero latency). `blocked`
        // models a crashed rank: nothing addressed to it is delivered.
        while let Some((from, to, msg)) = queue.pop() {
            debug_assert_eq!(from, msg.from as usize);
            if Some(to) == blocked {
                continue;
            }
            for (next_to, reply) in nodes[to].on_message(&msg, now) {
                queue.push((to, next_to, reply));
            }
        }
    }

    fn poll_into(
        nodes: &mut [GossipNode],
        rank: usize,
        now: u64,
    ) -> Vec<(usize, usize, GossipMessage)> {
        nodes[rank]
            .poll(now)
            .into_iter()
            .map(|(to, msg)| (rank, to, msg))
            .collect()
    }

    fn cluster(n: usize, seed: u64) -> Vec<GossipNode> {
        (0..n)
            .map(|r| GossipNode::new(r, n, n, 2, seed, GossipTiming::wall_clock()))
            .collect()
    }

    #[test]
    fn responsive_members_stay_alive_and_digests_spread() {
        let mut nodes = cluster(4, 7);
        nodes[2].record_sweep(&SweepSummary {
            iteration: 5,
            clean: true,
            stable: true,
            clean_since: 5,
            stable_streak: 1,
            generation: 0,
            epoch: 0,
            has_async_neighbors: false,
            points: 50,
            busy_ns: 1000,
        });
        let period = GossipTiming::wall_clock().probe_period;
        for round in 0..6u64 {
            let now = round * period;
            for rank in 0..4 {
                let batch = poll_into(&mut nodes, rank, now);
                exchange(&mut nodes, batch, now);
            }
        }
        for node in &nodes {
            assert!(node.dead_ranks().is_empty());
            assert_eq!(node.digest().row(2).latest, 5, "row propagated");
        }
    }

    /// Between probe rounds, a node whose own clean row has moved two
    /// sweeps past the last message that carried it pushes its digest to
    /// `fanout` members as an unsolicited ack of itself: rate-limited,
    /// never for a dirty row, and answered by nothing.
    #[test]
    fn clean_rows_outpacing_the_probe_cycle_are_pushed() {
        let timing = GossipTiming::wall_clock();
        let mut node = GossipNode::new(0, 4, 4, 2, 3, timing);
        let sweep = |iteration: u64, clean_since: u64| SweepSummary {
            iteration,
            clean: clean_since != u64::MAX,
            stable: false,
            clean_since,
            stable_streak: 0,
            generation: 0,
            epoch: 0,
            has_async_neighbors: false,
            points: iteration * 10,
            busy_ns: iteration * 1000,
        };
        // The first poll is a probe round; the probe carries row latest 1.
        node.record_sweep(&sweep(1, u64::MAX));
        let probe = node.poll(0);
        assert_eq!(probe.len(), 1);
        assert_eq!(probe[0].1.kind, GossipKind::Probe);
        // One sweep past the carried row is not worth a datagram.
        node.record_sweep(&sweep(2, 2));
        assert!(node.poll(1).is_empty());
        // A dirty row carries no decision evidence.
        node.record_sweep(&sweep(5, u64::MAX));
        assert!(node.poll(2).is_empty());
        node.record_sweep(&sweep(6, 6));
        let push = node.poll(3);
        assert_eq!(push.len(), 2, "one push per fanout member");
        for (to, msg) in &push {
            assert_ne!(*to, 0);
            assert_eq!((msg.kind, msg.subject), (GossipKind::Ack, 0));
            assert_eq!(msg.digest[0].latest, 6);
        }
        assert_ne!(push[0].0, push[1].0);
        // Rate limit: one push per tenth of a probe period.
        node.record_sweep(&sweep(9, 6));
        assert!(node.poll(4).is_empty());
        assert_eq!(node.poll(3 + timing.probe_period / 10).len(), 2);
        // The receiver merges the row and sends nothing back.
        let mut peer = GossipNode::new(push[0].0, 4, 4, 2, 3, timing);
        assert!(peer.on_message(&push[0].1, 3).is_empty());
        assert_eq!(peer.digest().row(0).latest, 6);

        // A digest larger than one message: every push still carries the
        // own row, and pushing stops once the row has been carried.
        let capacity = MAX_ROWS_PER_MESSAGE + 8;
        let rank = capacity - 3;
        let mut node = GossipNode::new(rank, capacity, capacity, 2, 3, timing);
        let rate = timing.probe_period / 10;
        node.record_sweep(&sweep(1, u64::MAX));
        assert_eq!(node.poll(0).len(), 1, "the first poll is a probe round");
        // Every poll below falls before the next probe round (10 * rate).
        for round in 1..=4 {
            let iteration = 2 * round + 1;
            node.record_sweep(&sweep(iteration, 3));
            let push = node.poll(2 * round * rate);
            assert_eq!(push.len(), 2, "round {round}: one push per fanout member");
            for (_, msg) in &push {
                assert_eq!(msg.digest.len(), MAX_ROWS_PER_MESSAGE);
                let own = msg.digest.iter().find(|row| row.rank as usize == rank);
                assert_eq!(own.map(|row| row.latest), Some(iteration), "round {round}");
            }
            assert!(
                node.poll((2 * round + 1) * rate).is_empty(),
                "round {round}: the row was carried, nothing is left to push"
            );
        }
    }

    #[test]
    fn silent_member_is_suspected_then_declared_dead_and_refutes_on_return() {
        let mut nodes = cluster(3, 11);
        let timing = GossipTiming::wall_clock();
        // Rank 2 goes silent: drop everything addressed to it and poll only
        // ranks 0 and 1 until the verdict hardens.
        let mut now = 0;
        let mut dead_seen = false;
        for _ in 0..40 {
            now += timing.probe_period;
            for rank in 0..2 {
                let batch = poll_into(&mut nodes, rank, now);
                exchange_blocking(&mut nodes, batch, now, Some(2));
            }
            if nodes[0].dead_ranks() == vec![2] && nodes[1].dead_ranks() == vec![2] {
                dead_seen = true;
                break;
            }
        }
        assert!(dead_seen, "silent rank was never declared dead");
        // The rank comes back (recovery): its bumped incarnation refutes the
        // verdict everywhere it gossips.
        nodes[2].on_recovered();
        now += timing.probe_period;
        let batch = poll_into(&mut nodes, 2, now);
        assert!(!batch.is_empty(), "recovered rank probes again");
        exchange(&mut nodes, batch, now);
        assert!(nodes[0].dead_ranks().is_empty() || nodes[1].dead_ranks().is_empty());
    }

    /// A partition hardens *symmetric* false death verdicts: each side
    /// declares the other dead while the link is cut. Because the regular
    /// probe rotation skips dead members, only the periodic lazarus probe
    /// can carry first-hand proof of life across the healed boundary — this
    /// is the wedge the scenario fuzzer found (a healed split left the
    /// gossip stop decision unfireable forever).
    #[test]
    fn healed_partition_refutes_symmetric_false_deaths() {
        let mut nodes = cluster(4, 23);
        let timing = GossipTiming::wall_clock();
        let cut = |rank: usize| rank == 3;
        // Deliver only messages that stay on one side of the cut — replies
        // spawned during delivery must respect it too.
        let deliver_cut =
            |nodes: &mut [GossipNode], mut queue: Vec<(usize, usize, GossipMessage)>, now: u64| {
                while let Some((from, to, msg)) = queue.pop() {
                    if cut(from) != cut(to) {
                        continue;
                    }
                    for (next_to, reply) in nodes[to].on_message(&msg, now) {
                        queue.push((to, next_to, reply));
                    }
                }
            };
        let mut now = 0;
        for _ in 0..40 {
            now += timing.probe_period;
            for rank in 0..4 {
                let batch = poll_into(&mut nodes, rank, now);
                deliver_cut(&mut nodes, batch, now);
            }
            let majority_sees_3_dead = (0..3).all(|rank| nodes[rank].dead_ranks().contains(&3));
            let isolated_sees_rest_dead = nodes[3].dead_ranks() == vec![0, 1, 2];
            if majority_sees_3_dead && isolated_sees_rest_dead {
                break;
            }
        }
        assert_eq!(nodes[3].dead_ranks(), vec![0, 1, 2], "split never hardened");
        // Heal: full delivery again. The lazarus probes must re-establish
        // contact and refute every false verdict on both sides.
        for _ in 0..6 * DEAD_REPROBE_PERIOD {
            now += timing.probe_period;
            for rank in 0..4 {
                let batch = poll_into(&mut nodes, rank, now);
                exchange(&mut nodes, batch, now);
            }
        }
        for (rank, node) in nodes.iter().enumerate() {
            assert!(
                node.dead_ranks().is_empty(),
                "rank {rank} still holds false verdicts {:?} after the heal",
                node.dead_ranks()
            );
        }
    }

    #[test]
    fn same_seed_same_fanout_choices() {
        let mut a = cluster(8, 42);
        let mut b = cluster(8, 42);
        for round in 1..5u64 {
            let now = round * GossipTiming::wall_clock().probe_period;
            for rank in 0..8 {
                let ta: Vec<usize> = a[rank].poll(now).into_iter().map(|(to, _)| to).collect();
                let tb: Vec<usize> = b[rank].poll(now).into_iter().map(|(to, _)| to).collect();
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn unborn_join_slots_stay_outside_probe_and_universe_until_heard() {
        let mut nodes: Vec<GossipNode> = (0..3)
            .map(|r| GossipNode::new(r, 2, 3, 3, 9, GossipTiming::wall_clock()))
            .collect();
        assert_eq!(nodes[0].universe(), 2);
        let targets = nodes[0].poll(0);
        assert!(targets.iter().all(|(to, _)| *to != 2), "unborn not probed");
        // The joiner announces itself by probing.
        let batch = poll_into(&mut nodes, 2, 10);
        assert!(!batch.is_empty());
        exchange(&mut nodes, batch, 10);
        assert_eq!(nodes[0].universe(), 3);
    }
}
