//! The partial-quorum protocol as a pure state machine.
//!
//! A round closes over at most `quorum` proposals, **at most one per
//! worker** — the paper's model has each worker contribute one vector per
//! aggregation, which is what caps the Byzantine share of a quorum at `f`
//! and lets a rule validated for `f` of `quorum` keep its guarantee.
//! Proposals that miss their round's quorum are carried into later rounds
//! while they stay within a staleness bound, and are dropped past it.
//!
//! [`Quorum`] holds exactly those rules and nothing else: no clock, no
//! socket, no RNG. Its callers feed it arrivals in whatever order their
//! world produces them — the in-process [`RoundEngine`](crate::RoundEngine)
//! in simulated-network order, `krum-server` in socket order — so both
//! worlds select, carry, drop and order proposals through one
//! implementation. A round in process, and a served one under the job's
//! [`CrashPolicy`], are
//!
//! ```text
//! open(round, reserved) → offer(..)* → [fill_reserved(forged)] → close()
//! open(round, 0) → (arrive(..) | lost(w) | rejoined(w) | relay_sent())* → close()
//! ```
//!
//! after which [`Quorum::vectors`] and [`Quorum::workers`] are the
//! aggregation input, in `(issued_round, worker)` order.

use krum_metrics::RoundRecord;
use krum_tensor::Vector;
use serde::{Deserialize, Serialize};

/// What a remote job does when an honest worker's connection dies (or its
/// heartbeats go unanswered) mid-round. A job without one fails fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPolicy {
    /// Stall the round (bounded by the round timeout) until the worker
    /// rejoins its slot — the bit-identity-preserving default: a crash
    /// plus rejoin reproduces the uninterrupted trajectory exactly.
    WaitForRejoin,
    /// Close the round at the live arrivals, as long as at least `n − f`
    /// distinct workers made the quorum — the crash is absorbed like one
    /// more Byzantine fault, the round is marked degraded, and the
    /// aggregation rule is rebuilt for the smaller arity.
    ProceedAtQuorum,
}

impl std::fmt::Display for CrashPolicy {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WaitForRejoin => out.write_str("wait-for-rejoin"),
            Self::ProceedAtQuorum => out.write_str("proceed-at-quorum"),
        }
    }
}

/// One proposal offered to a quorum.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// Issuing worker (workers `>= n − f` are Byzantine).
    pub worker: usize,
    /// Round the proposal's gradient was computed at.
    pub issued_round: usize,
    /// When the proposal reached the server, in nanoseconds since its
    /// round opened. A carried proposal is already there: 0.
    pub arrival: u128,
    /// The proposed vector.
    pub vector: Vector,
}

/// How a closed quorum stands against the roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Close {
    /// At least `quorum` proposals.
    Full,
    /// Below `quorum` but at least `n − f`: the rule runs at that arity.
    Degraded,
    /// Below `n − f`: more crashes than the fault bound absorbs.
    Refused,
}

/// What one closed quorum aggregated and what it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumStats {
    /// Proposals aggregated.
    pub size: usize,
    /// Aggregated proposals issued in an earlier round.
    pub stale: usize,
    /// Largest staleness (in rounds) among the aggregated proposals.
    pub max_staleness: usize,
    /// Deferred proposals dropped for exceeding the staleness bound.
    pub dropped: usize,
    /// Deferred proposals carried into the next round.
    pub carried: usize,
    /// Latest arrival among the aggregated proposals: the moment the
    /// quorum closed.
    pub cutoff: u128,
    /// Whether the close was full, degraded or refused.
    pub close: Close,
}

impl QuorumStats {
    /// Fills the five quorum/staleness columns of `record`.
    pub fn record(&self, record: &mut RoundRecord) {
        record.quorum_size = Some(self.size);
        record.stale_in_quorum = Some(self.stale);
        record.max_staleness_in_quorum = Some(self.max_staleness);
        record.dropped_stale = Some(self.dropped);
        record.pending_carryover = Some(self.carried);
    }
}

/// What [`Quorum::arrive`] made of one fresh proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// It joined the quorum.
    Joined,
    /// It was deferred, and may be carried.
    Deferred,
    /// A bit-identical replay of a proposal the round has: dropped.
    Echo,
    /// A straggler of a closed round under a crash policy: dropped.
    Late,
    /// A second proposal of one worker that no replay explains: refused.
    Duplicate,
    /// A proposal for another round that is not a late straggler: refused.
    WrongRound,
}

/// The quorum selection, carry-over, staleness and churn rules of one
/// job; see the module docs.
#[derive(Debug, Clone)]
pub struct Quorum {
    quorum: usize,
    max_staleness: usize,
    round: usize,
    /// Slots open to [`Quorum::offer`]: `quorum` minus the reserved room.
    room: usize,
    /// `taken[w]`: worker `w` already has a proposal in this quorum.
    taken: Vec<bool>,
    /// The quorum members, in admission order until [`Quorum::close`] and
    /// in `(issued_round, worker)` order after it.
    issued: Vec<usize>,
    workers: Vec<usize>,
    vectors: Vec<Vector>,
    cutoff: u128,
    /// Offered but not admitted, in offer order; after `close`, the
    /// proposals carried into the next round.
    deferred: Vec<Proposal>,
    /// Scratch: the previous `deferred` while it is offered again.
    reoffer: Vec<Proposal>,
    /// Scratch: the members while `close` sorts them.
    sorting: Vec<(usize, usize, Vector)>,
    /// Workers below `honest` are honest; the rest are Byzantine.
    honest: usize,
    on_crash: Option<CrashPolicy>,
    /// `live[s]`: slot `s` is connected — honest worker `s`, or the
    /// adversary at `s = honest`. Kept across rounds.
    live: Vec<bool>,
    /// `seen[w]`: worker `w`'s proposal for the open round arrived.
    seen: Vec<bool>,
    /// The relay went out this round; again, after the adversary rejoined.
    relayed: bool,
    replayed: bool,
}

impl Quorum {
    /// A machine for an in-process roster of `n` workers, closing rounds
    /// at `quorum` proposals and carrying a deferred proposal while its
    /// staleness in the next round stays `<= max_staleness`.
    pub fn new(n: usize, quorum: usize, max_staleness: usize) -> Self {
        Self::served(n, 0, quorum, max_staleness, None)
    }

    /// A machine for a served roster whose last `byzantine` workers speak
    /// through one adversary connection, slot `n − byzantine`. A lost
    /// connection is fatal without a crash policy ([`Quorum::lost`]).
    pub fn served(
        n: usize,
        byzantine: usize,
        quorum: usize,
        max_staleness: usize,
        on_crash: Option<CrashPolicy>,
    ) -> Self {
        let honest = n.saturating_sub(byzantine);
        Self {
            quorum,
            max_staleness,
            round: 0,
            room: quorum,
            taken: vec![false; n],
            issued: Vec::new(),
            workers: Vec::new(),
            vectors: Vec::new(),
            cutoff: 0,
            deferred: Vec::new(),
            reoffer: Vec::new(),
            sorting: Vec::new(),
            honest,
            on_crash,
            live: vec![true; honest + usize::from(byzantine > 0)],
            seen: vec![false; n],
            relayed: false,
            replayed: false,
        }
    }

    /// Opens `round`, holding `reserved` slots back for
    /// [`Quorum::fill_reserved`], and offers the carried proposals first —
    /// they are already at the server, so they outrank every fresh arrival
    /// — oldest first, in `(issued_round, worker)` order.
    pub fn open(&mut self, round: usize, reserved: usize) {
        self.round = round;
        self.room = self.quorum.saturating_sub(reserved);
        self.taken.fill(false);
        self.seen.fill(false);
        self.relayed = false;
        self.replayed = false;
        self.issued.clear();
        self.workers.clear();
        self.vectors.clear();
        self.cutoff = 0;
        let mut carried = std::mem::replace(&mut self.deferred, std::mem::take(&mut self.reoffer));
        // A worker issues one proposal per round, so the keys are unique.
        carried.sort_unstable_by_key(|p| (p.issued_round, p.worker));
        for mut proposal in carried.drain(..) {
            proposal.arrival = 0;
            self.offer(proposal);
        }
        self.reoffer = carried;
    }

    /// Offers one proposal. It joins the quorum when there is room and its
    /// worker has no proposal in it yet, and is deferred otherwise. A
    /// worker outside the roster is always deferred. Returns whether the
    /// proposal joined.
    pub fn offer(&mut self, proposal: Proposal) -> bool {
        match self.admit(proposal) {
            None => true,
            Some(rejected) => {
                self.deferred.push(rejected);
                false
            }
        }
    }

    /// Takes one fresh arrival from the wire: a proposal for the open
    /// round whose worker has none in it yet is offered
    /// ([`Quorum::offer`]); anything else gets the crash policy's verdict.
    pub fn arrive(&mut self, proposal: Proposal) -> Arrival {
        let crash_policy = self.on_crash.is_some();
        if proposal.issued_round != self.round {
            // A crash round can leave a straggler of an already-closed
            // round in flight: under a crash policy that round closed
            // without it; under fail-fast it is a violation.
            let late = crash_policy && proposal.issued_round < self.round;
            return if late {
                Arrival::Late
            } else {
                Arrival::WrongRound
            };
        }
        // Replays resend bit-identical copies: an honest rejoiner its
        // cached answer, the adversary its answer to a replayed relay.
        let replays = if proposal.worker < self.honest {
            crash_policy
        } else {
            self.replayed
        };
        match self.seen.get_mut(proposal.worker) {
            Some(seen) if *seen && replays => return Arrival::Echo,
            Some(seen) if *seen => return Arrival::Duplicate,
            Some(seen) => *seen = true,
            None => {}
        }
        if self.offer(proposal) {
            Arrival::Joined
        } else {
            Arrival::Deferred
        }
    }

    /// Takes a crash fault of `worker`'s connection (a Byzantine worker's
    /// is the adversary's) and returns whether it is fatal: a job without a
    /// crash policy fails fast. The slot stays dead until it rejoins.
    pub fn lost(&mut self, worker: usize) -> bool {
        let Some(live) = self.slot(worker).and_then(|s| self.live.get_mut(s)) else {
            return false;
        };
        let fatal = *live && self.on_crash.is_none();
        *live = false;
        fatal
    }

    /// Takes a rejoin of `worker`'s slot and returns whether it must hear
    /// the open round again: an honest worker its broadcast while its
    /// proposal is missing, the adversary the relay while its answer to it
    /// is missing (the re-forged copies that arrive twice are echoes).
    pub fn rejoined(&mut self, worker: usize) -> bool {
        let Some(slot) = self.slot(worker) else {
            return false;
        };
        if let Some(live) = self.live.get_mut(slot) {
            *live = true;
        }
        if slot < self.honest {
            return self.missing(slot);
        }
        let replay = self.relayed && self.missing(slot);
        self.replayed |= replay;
        replay
    }

    /// Takes the news that the observation relay went out.
    pub fn relay_sent(&mut self) {
        self.relayed = true;
    }

    /// Whether the open round still waits for a fresh proposal from a slot
    /// that is live or expected back. A relay that can never fire (no
    /// honest proposal exists and none is coming) ends the wait for the
    /// adversary, and [`Quorum::close`] then refuses the round.
    pub fn waiting(&self) -> bool {
        self.honest_missing()
            || self.missing(self.honest)
                && self.expected(self.honest)
                && (self.relayed || self.arrived().0 > 0)
    }

    /// Whether the round waits on live slot `slot`: the heartbeat's probes.
    pub fn awaits(&self, slot: usize) -> bool {
        self.is_live(slot) && self.missing(slot)
    }

    /// Whether the observation relay may go out: it has not, the adversary
    /// is live, and every honest proposal the round can still produce is
    /// in, at least one of them.
    pub fn relay_ready(&self) -> bool {
        !self.relayed && self.is_live(self.honest) && self.arrived().0 > 0 && !self.honest_missing()
    }

    /// Whether slot `slot` is connected.
    pub fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot) == Some(&true)
    }

    /// Fresh honest and Byzantine proposals of the open round so far.
    pub fn arrived(&self) -> (usize, usize) {
        let honest = self.seen.iter().take(self.honest).filter(|&&s| s).count();
        let total = self.seen.iter().filter(|&&s| s).count();
        (honest, total - honest)
    }

    /// Gives `forged` the reserved slots (a forged proposal that does not
    /// fit is discarded, never carried), then offers the deferred proposals
    /// again, in order, for any slot still open. This is how a
    /// last-to-respond adversary lands: it observes the quorum so far
    /// ([`Quorum::vectors`]) and answers just before it closes.
    pub fn fill_reserved(&mut self, forged: impl IntoIterator<Item = Proposal>) {
        self.room = self.quorum;
        for proposal in forged {
            let _ = self.admit(proposal);
        }
        let mut deferred = std::mem::replace(&mut self.deferred, std::mem::take(&mut self.reoffer));
        for proposal in deferred.drain(..) {
            self.offer(proposal);
        }
        self.reoffer = deferred;
    }

    /// Closes the round: the deferred proposals still within the staleness
    /// bound are carried, the rest dropped, and the quorum is sorted into
    /// the aggregation order `(issued_round, worker)`. A close below
    /// `quorum` is degraded, and one below `n − f` refused.
    pub fn close(&mut self) -> QuorumStats {
        let round = self.round;
        let max_staleness = self.max_staleness;
        let mut dropped = 0;
        self.deferred.retain(|p| {
            let carried = (round + 1).saturating_sub(p.issued_round) <= max_staleness;
            dropped += usize::from(!carried);
            carried
        });
        let size = self.vectors.len();
        let stats = QuorumStats {
            size,
            stale: self.issued.iter().filter(|&&issued| issued < round).count(),
            max_staleness: self
                .issued
                .iter()
                .map(|&issued| round.saturating_sub(issued))
                .max()
                .unwrap_or(0),
            dropped,
            carried: self.deferred.len(),
            cutoff: self.cutoff,
            close: if size >= self.quorum {
                Close::Full
            } else if size >= self.honest {
                Close::Degraded
            } else {
                Close::Refused
            },
        };
        let members = self
            .issued
            .drain(..)
            .zip(self.workers.drain(..))
            .zip(self.vectors.drain(..))
            .map(|((issued, worker), vector)| (issued, worker, vector));
        self.sorting.extend(members);
        // One proposal per worker: the keys are unique.
        self.sorting
            .sort_unstable_by_key(|&(issued, worker, _)| (issued, worker));
        for (issued, worker, vector) in self.sorting.drain(..) {
            self.issued.push(issued);
            self.workers.push(worker);
            self.vectors.push(vector);
        }
        stats
    }

    /// The quorum's vectors: in admission order while the round is open,
    /// the aggregation input after [`Quorum::close`].
    pub fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// The worker behind each of [`Quorum::vectors`].
    pub fn workers(&self) -> &[usize] {
        &self.workers
    }

    /// The proposals the last [`Quorum::close`] carried into the next
    /// round — what a checkpoint saves.
    pub fn carried(&self) -> &[Proposal] {
        &self.deferred
    }

    /// Reinstalls carried proposals saved from [`Quorum::carried`], before
    /// the next [`Quorum::open`] — the resume half of checkpointing.
    pub fn restore(&mut self, carried: Vec<Proposal>) {
        self.deferred = carried;
    }

    /// Admits `proposal` when a slot is open and its worker has none;
    /// hands it back otherwise.
    fn admit(&mut self, proposal: Proposal) -> Option<Proposal> {
        let has_room = self.vectors.len() < self.room;
        match self.taken.get_mut(proposal.worker) {
            Some(taken) if has_room && !*taken => {
                *taken = true;
                self.cutoff = self.cutoff.max(proposal.arrival);
                self.issued.push(proposal.issued_round);
                self.workers.push(proposal.worker);
                self.vectors.push(proposal.vector);
                None
            }
            _ => Some(proposal),
        }
    }

    /// The connection slot of roster worker `worker`: its own when honest,
    /// the adversary's when Byzantine.
    fn slot(&self, worker: usize) -> Option<usize> {
        (worker < self.seen.len()).then(|| worker.min(self.honest))
    }

    /// Whether slot `slot`'s fresh proposals of the open round are not all
    /// in: the honest worker's one, or any of the adversary's.
    fn missing(&self, slot: usize) -> bool {
        let end = if slot < self.honest {
            slot + 1
        } else {
            self.seen.len()
        };
        self.seen.get(slot..end).is_some_and(|s| s.contains(&false))
    }

    /// Fail-fast and wait-for-rejoin hold the round for a dead slot (it
    /// is expected back); proceed-at-quorum stops waiting for it.
    fn expected(&self, slot: usize) -> bool {
        self.is_live(slot) || self.on_crash != Some(CrashPolicy::ProceedAtQuorum)
    }

    fn honest_missing(&self) -> bool {
        (0..self.honest).any(|w| self.missing(w) && self.expected(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive scope: n = 4 workers, the last one Byzantine (f = 1),
    /// three consecutive rounds.
    const N: usize = 4;
    const BYZANTINE: usize = 3;
    const ROUNDS: usize = 3;

    #[derive(Debug, Clone, Copy)]
    struct Scope {
        quorum: usize,
        max_staleness: usize,
        reserved: usize,
    }

    /// A proposal whose only coordinate is a unique id, so every outcome
    /// can be traced back to what was offered.
    fn proposal(next_id: &mut u32, worker: usize, round: usize, arrival: u128) -> Proposal {
        *next_id += 1;
        Proposal {
            worker,
            issued_round: round,
            arrival,
            vector: Vector::from(vec![f64::from(*next_id)]),
        }
    }

    fn id(vector: &Vector) -> u32 {
        vector.as_slice()[0] as u32
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for (i, &first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first);
                all.push(tail);
            }
        }
        all
    }

    /// Drives one round and checks every invariant of its close.
    fn run_round(
        q: &mut Quorum,
        scope: Scope,
        round: usize,
        fresh: &[Proposal],
        forged: &[Proposal],
    ) -> QuorumStats {
        let carried_in = q.carried().to_vec();
        q.open(round, scope.reserved);
        for p in fresh {
            q.offer(p.clone());
        }
        if scope.reserved > 0 {
            q.fill_reserved(forged.iter().cloned());
        }
        let stats = q.close();
        check_close(q, scope, round, &carried_in, fresh, forged, stats);
        // Every worker offers every round, so the quorum always fills.
        assert_eq!(stats.close, Close::Full);
        stats
    }

    /// Checks every invariant of a close that took `carried_in` and
    /// offered `fresh` (and `forged` into the reserved room).
    fn check_close(
        q: &Quorum,
        scope: Scope,
        round: usize,
        carried_in: &[Proposal],
        fresh: &[Proposal],
        forged: &[Proposal],
        stats: QuorumStats,
    ) {
        // At most one proposal per worker, at most `quorum` in total.
        let workers = q.workers();
        assert!(workers.len() <= scope.quorum, "{scope:?}");
        assert_eq!(stats.size, workers.len());
        assert_eq!(q.vectors().len(), workers.len());
        for (i, w) in workers.iter().enumerate() {
            assert!(!workers[..i].contains(w), "worker {w} twice: {workers:?}");
        }

        // Aggregation order is (issued_round, worker), strictly.
        let keys: Vec<(usize, usize)> = q
            .issued
            .iter()
            .copied()
            .zip(workers.iter().copied())
            .collect();
        assert!(keys.windows(2).all(|k| k[0] < k[1]), "unsorted {keys:?}");

        // Conservation: every offered proposal is aggregated, carried or
        // counted dropped, exactly once; a forged one that missed is
        // discarded, never carried.
        let aggregated: Vec<u32> = q.vectors().iter().map(id).collect();
        let carried: Vec<u32> = q.carried().iter().map(|p| id(&p.vector)).collect();
        let offered: Vec<&Proposal> = carried_in.iter().chain(fresh).collect();
        let mut expected_carried = Vec::new();
        let mut expected_dropped = 0;
        for p in &offered {
            if aggregated.contains(&id(&p.vector)) {
                continue;
            }
            if round + 1 - p.issued_round <= scope.max_staleness {
                expected_carried.push(id(&p.vector));
            } else {
                expected_dropped += 1;
            }
        }
        expected_carried.sort_unstable();
        let mut carried_sorted = carried.clone();
        carried_sorted.sort_unstable();
        assert_eq!(carried_sorted, expected_carried, "{scope:?} round {round}");
        assert_eq!(stats.dropped, expected_dropped);
        assert_eq!(stats.carried, carried.len());
        for a in &aggregated {
            let from_offers = offered.iter().any(|p| id(&p.vector) == *a);
            let from_forged = forged.iter().any(|p| id(&p.vector) == *a);
            assert!(from_offers != from_forged, "proposal {a} from nowhere");
        }

        // Every carried proposal is within the staleness bound.
        for p in q.carried() {
            assert!(round + 1 - p.issued_round <= scope.max_staleness);
        }

        // Carried proposals join ahead of fresh ones, oldest first: a
        // carried proposal left out while its worker has no slot means no
        // fresh one got in, and no younger carried one did.
        let fresh_in = fresh.iter().any(|p| aggregated.contains(&id(&p.vector)));
        let key = |p: &Proposal| (p.issued_round, p.worker);
        for p in carried_in {
            if !aggregated.contains(&id(&p.vector)) && !workers.contains(&p.worker) {
                assert!(!fresh_in, "{scope:?} round {round}: fresh overtook carried");
                for q in carried_in
                    .iter()
                    .filter(|q| aggregated.contains(&id(&q.vector)))
                {
                    assert!(
                        key(q) < key(p),
                        "{scope:?} round {round}: carried out of order"
                    );
                }
            }
        }

        // The reserved slots are the forged proposals': each lands unless
        // its worker already holds a slot.
        if scope.reserved > 0 {
            for p in forged {
                assert!(
                    aggregated.contains(&id(&p.vector)) || workers.contains(&p.worker),
                    "{scope:?} round {round}: forged proposal lost its reserved slot"
                );
            }
        }

        // The stats describe the members.
        let stale = q.issued.iter().filter(|&&i| i < round).count();
        assert_eq!(stats.stale, stale);
        let oldest = q.issued.iter().map(|&i| round - i).max().unwrap_or(0);
        assert_eq!(stats.max_staleness, oldest);
        let cutoff = fresh
            .iter()
            .filter(|p| aggregated.contains(&id(&p.vector)))
            .map(|p| p.arrival)
            .max()
            .unwrap_or(0);
        assert_eq!(stats.cutoff, cutoff);

        // Full at `quorum`, degraded down to the `n − f` honest workers,
        // refused below them.
        let close = match stats.size {
            size if size >= scope.quorum => Close::Full,
            size if size >= q.honest => Close::Degraded,
            _ => Close::Refused,
        };
        assert_eq!(stats.close, close, "{scope:?} round {round}");
    }

    /// Explores every arrival order of `rounds` rounds from `q`, checking
    /// each close and that a machine restored from `q`'s carried proposals
    /// closes the next round identically. Returns the number of complete
    /// runs.
    fn explore(q: &Quorum, scope: Scope, round: usize, rounds: usize, next_id: u32) -> usize {
        if rounds == 0 {
            return 1;
        }
        // Under a reserved slot the Byzantine worker answers last, through
        // `fill_reserved`; otherwise it races the honest workers.
        let racing: Vec<usize> = if scope.reserved > 0 {
            (0..BYZANTINE).collect()
        } else {
            (0..N).collect()
        };
        let mut runs = 0;
        for order in permutations(&racing) {
            let mut next = next_id;
            let fresh: Vec<Proposal> = order
                .iter()
                .zip(1..)
                .map(|(&w, arrival)| proposal(&mut next, w, round, arrival))
                .collect();
            let forged = vec![proposal(&mut next, BYZANTINE, round, 0)];

            let mut live = q.clone();
            let stats = run_round(&mut live, scope, round, &fresh, &forged);

            let mut restored = Quorum::new(N, scope.quorum, scope.max_staleness);
            restored.restore(q.carried().to_vec());
            let restored_stats = run_round(&mut restored, scope, round, &fresh, &forged);
            assert_eq!(restored_stats, stats);
            assert_eq!(restored.vectors(), live.vectors());
            assert_eq!(restored.workers(), live.workers());
            assert_eq!(restored.carried(), live.carried());

            runs += explore(&live, scope, round + 1, rounds - 1, next);
        }
        runs
    }

    /// A carry pool a job resumed at round 2 could hold: the round-0 and
    /// round-1 proposals still within the bound, unsorted, from more honest
    /// workers than a reserved quorum has room for.
    fn resumed_pool(scope: Scope, next_id: &mut u32) -> Vec<Proposal> {
        [(2, 1), (0, 0), (1, 1), (0, 1)]
            .into_iter()
            .filter(|&(_, issued)| 2 - issued <= scope.max_staleness)
            .map(|(worker, issued)| proposal(next_id, worker, issued, 0))
            .collect()
    }

    #[test]
    fn every_arrival_order_of_three_rounds_keeps_the_invariants() {
        let mut runs = 0;
        for quorum in [3, 4] {
            for max_staleness in [0, 1, 2] {
                for reserved in [0, 1] {
                    let scope = Scope {
                        quorum,
                        max_staleness,
                        reserved,
                    };
                    let fresh = Quorum::new(N, quorum, max_staleness);
                    runs += explore(&fresh, scope, 0, ROUNDS, 0);
                    let mut resumed = fresh.clone();
                    let mut next = 0;
                    resumed.restore(resumed_pool(scope, &mut next));
                    runs += explore(&resumed, scope, 2, ROUNDS, next);
                }
            }
        }
        // From each start: 24³ orders per racing scope, 6³ per reserved one.
        assert_eq!(runs, 2 * (6 * 24usize.pow(3) + 6 * 6usize.pow(3)));
    }

    /// A crash fault or a rejoin of one connection slot (slot 3 is the
    /// adversary's).
    #[derive(Debug, Clone, Copy)]
    enum Churn {
        Lost(usize),
        Rejoined(usize),
    }

    /// What a served round hands the machine, in order.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Arrive(usize),
        Churn(Churn),
    }

    /// The protocol's rules, stated on a driver's own books.
    struct Books {
        policy: Option<CrashPolicy>,
        live: [bool; N],
        arrived: [bool; N],
        relayed: bool,
        replayed: bool,
    }

    impl Books {
        /// A dead slot is waited for unless the round proceeds at quorum.
        fn expected(&self, slot: usize) -> bool {
            self.live[slot] || self.policy != Some(CrashPolicy::ProceedAtQuorum)
        }

        /// Checks every answer the machine gives a driver.
        fn check(&self, q: &Quorum, context: &str) {
            let honest_missing = (0..BYZANTINE).any(|w| !self.arrived[w] && self.expected(w));
            let honest_in = self.arrived[..BYZANTINE].iter().filter(|&&a| a).count();
            let waiting = honest_missing
                || !self.arrived[BYZANTINE]
                    && self.expected(BYZANTINE)
                    && (self.relayed || honest_in > 0);
            assert_eq!(q.waiting(), waiting, "waiting: {context}");
            let ready = !self.relayed && self.live[BYZANTINE] && honest_in > 0 && !honest_missing;
            assert_eq!(q.relay_ready(), ready, "relay: {context}");
            if self.policy != Some(CrashPolicy::ProceedAtQuorum) {
                // Nobody is given up on: the round waits for every worker,
                // and the relay carries every honest proposal.
                assert_eq!(waiting, self.arrived.contains(&false), "{context}");
                assert!(!ready || honest_in == BYZANTINE, "{context}");
            }
            for slot in 0..N {
                assert_eq!(q.is_live(slot), self.live[slot], "{context}");
                let awaited = self.live[slot] && !self.arrived[slot];
                assert_eq!(q.awaits(slot), awaited, "awaits {slot}: {context}");
            }
            let byzantine_in = usize::from(self.arrived[BYZANTINE]);
            assert_eq!(q.arrived(), (honest_in, byzantine_in), "{context}");
        }
    }

    /// Drives one served round as `krum serve` does and checks the
    /// machine's every answer and verdict: the honest workers live at the
    /// open (the ones broadcast to) answer in `order`, with `churn` taken
    /// before the `step`-th arrival (after the last when `step ==
    /// order.len()`). An honest worker lost before its answer never sends
    /// it; the adversary answers each relay, and a rejoiner that must hear
    /// the round again answers it, after the events already in flight.
    /// Every proposal a worker sends in the round, replays included,
    /// carries the same vector. Returns the close (checked), or `None` when
    /// an input ends the job: a fatal loss or a refused duplicate.
    fn serve(
        q: &mut Quorum,
        books: &mut Books,
        scope: Scope,
        round: usize,
        (order, step, churn): (&[usize], usize, Churn),
        next_id: &mut u32,
    ) -> Option<QuorumStats> {
        let context = format!(
            "{:?} {scope:?} round {round} {order:?} {churn:?} at {step}",
            books.policy
        );
        let sent: Vec<Proposal> = (0..N).map(|w| proposal(next_id, w, round, 0)).collect();
        let mut events: std::collections::VecDeque<Event> = order
            .iter()
            .filter(|&&w| books.live[w])
            .map(|&w| Event::Arrive(w))
            .collect();
        events.insert(step.min(events.len()), Event::Churn(churn));
        let carried_in = q.carried().to_vec();
        q.open(round, 0);
        books.arrived = [false; N];
        books.relayed = false;
        books.replayed = false;
        books.check(q, &context);
        let mut offered = Vec::new();
        let mut clock = 0;
        while let Some(event) = events.pop_front() {
            match event {
                Event::Arrive(w) => {
                    clock += 1;
                    let mut p = sent[w].clone();
                    p.arrival = clock;
                    let verdict = q.arrive(p.clone());
                    if books.arrived[w] {
                        let replay = if w < BYZANTINE {
                            books.policy.is_some()
                        } else {
                            books.replayed
                        };
                        if !replay {
                            assert_eq!(verdict, Arrival::Duplicate, "{context}");
                            return None;
                        }
                        assert_eq!(verdict, Arrival::Echo, "{context}");
                    } else {
                        let joined = q.workers().contains(&w) && q.vectors().contains(&p.vector);
                        let expected = if joined {
                            Arrival::Joined
                        } else {
                            Arrival::Deferred
                        };
                        assert_eq!(verdict, expected, "{context}");
                        books.arrived[w] = true;
                        offered.push(p);
                    }
                }
                Event::Churn(Churn::Lost(slot)) => {
                    let fatal = books.policy.is_none() && books.live[slot];
                    assert_eq!(q.lost(slot), fatal, "{context}");
                    if fatal {
                        return None;
                    }
                    books.live[slot] = false;
                    if slot < BYZANTINE {
                        events.retain(|e| !matches!(e, Event::Arrive(w) if *w == slot));
                    }
                }
                Event::Churn(Churn::Rejoined(slot)) => {
                    let again = if slot < BYZANTINE {
                        !books.arrived[slot]
                    } else {
                        books.relayed && !books.arrived[slot]
                    };
                    assert_eq!(q.rejoined(slot), again, "{context}");
                    books.live[slot] = true;
                    books.replayed |= again && slot == BYZANTINE;
                    if again {
                        events.push_back(Event::Arrive(slot));
                    }
                }
            }
            books.check(q, &context);
            if q.relay_ready() {
                q.relay_sent();
                books.relayed = true;
                events.push_back(Event::Arrive(BYZANTINE));
                books.check(q, &context);
            }
        }
        let stats = q.close();
        check_close(q, scope, round, &carried_in, &offered, &[], stats);
        Some(stats)
    }

    #[test]
    fn every_arrival_order_with_a_crash_or_rejoin_at_every_step_keeps_the_invariants() {
        let policies = [
            None,
            Some(CrashPolicy::WaitForRejoin),
            Some(CrashPolicy::ProceedAtQuorum),
        ];
        let churns: Vec<Churn> = (0..N)
            .flat_map(|s| [Churn::Lost(s), Churn::Rejoined(s)])
            .collect();
        let mut runs = 0;
        let mut closes = [0; 3];
        for policy in policies {
            for quorum in [3, 4] {
                for max_staleness in [0, 1, 2] {
                    let scope = Scope {
                        quorum,
                        max_staleness,
                        reserved: 0,
                    };
                    // A fresh machine at round 0 and one resumed at round 2;
                    // under a crash policy, with each slot dead on entry too.
                    let fresh = Quorum::served(N, 1, quorum, max_staleness, policy);
                    let mut next = 0;
                    let mut resumed = fresh.clone();
                    resumed.restore(resumed_pool(scope, &mut next));
                    let dead: Vec<Option<usize>> = match policy {
                        None => vec![None],
                        Some(_) => std::iter::once(None).chain((0..N).map(Some)).collect(),
                    };
                    for (start, round) in [(&fresh, 0), (&resumed, 2)] {
                        for &dead in &dead {
                            for order in permutations(&[0, 1, 2]) {
                                for step in 0..=order.len() {
                                    for &churn in &churns {
                                        let mut q = start.clone();
                                        let mut books = Books {
                                            policy,
                                            live: [true; N],
                                            arrived: [false; N],
                                            relayed: false,
                                            replayed: false,
                                        };
                                        if let Some(slot) = dead {
                                            assert!(!q.lost(slot));
                                            books.live[slot] = false;
                                        }
                                        let input = (order.as_slice(), step, churn);
                                        let served = serve(
                                            &mut q, &mut books, scope, round, input, &mut next,
                                        );
                                        if let Some(stats) = served {
                                            closes[stats.close as usize] += 1;
                                        }
                                        runs += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // 6 scopes × 2 starts × (1 + 5 + 5) entry states × 6 orders × 4
        // steps × 8 inputs; every standing of a close is reached.
        assert_eq!(runs, 6 * 2 * 11 * 6 * 4 * 8);
        assert!(closes.iter().all(|&c| c > 0), "{closes:?}");
    }

    #[test]
    fn a_close_below_n_minus_f_is_refused_and_one_below_quorum_degraded() {
        let mut next = 0;
        for (lost, close) in [(&[0][..], Close::Degraded), (&[0, 1][..], Close::Refused)] {
            let mut q = Quorum::served(4, 1, 4, 0, Some(CrashPolicy::ProceedAtQuorum));
            q.open(0, 0);
            for &w in lost {
                assert!(!q.lost(w));
            }
            for w in 0..3 {
                if !lost.contains(&w) {
                    assert_eq!(q.arrive(proposal(&mut next, w, 0, 1)), Arrival::Joined);
                }
            }
            assert!(q.relay_ready());
            q.relay_sent();
            assert_eq!(q.arrive(proposal(&mut next, 3, 0, 2)), Arrival::Joined);
            assert!(!q.waiting());
            assert_eq!(q.close().close, close);
        }
    }

    #[test]
    fn replays_are_echoes_only_where_a_replay_explains_them() {
        let mut next = 0;
        // An honest rejoiner hears the round again; the copy of its answer
        // that arrives second is dropped.
        let mut q = Quorum::served(4, 1, 4, 0, Some(CrashPolicy::WaitForRejoin));
        q.open(0, 0);
        assert!(!q.lost(0));
        assert!(q.waiting() && !q.awaits(0));
        assert!(q.rejoined(0));
        let answer = proposal(&mut next, 0, 0, 1);
        assert_eq!(q.arrive(answer.clone()), Arrival::Joined);
        assert_eq!(q.arrive(answer), Arrival::Echo);
        assert!(!q.rejoined(0), "its answer is in");
        // Under fail-fast a loss ends the job, and a second proposal is a
        // violation.
        let mut q = Quorum::served(4, 1, 4, 0, None);
        q.open(0, 0);
        assert!(q.lost(1));
        let answer = proposal(&mut next, 0, 0, 1);
        assert_eq!(q.arrive(answer.clone()), Arrival::Joined);
        assert_eq!(q.arrive(answer), Arrival::Duplicate);
        // A Byzantine copy is an echo only after a replayed relay.
        let mut q = Quorum::served(4, 1, 4, 0, Some(CrashPolicy::WaitForRejoin));
        q.open(0, 0);
        for w in 0..3 {
            q.arrive(proposal(&mut next, w, 0, 1));
        }
        assert!(q.relay_ready());
        q.relay_sent();
        let forged = proposal(&mut next, 3, 0, 2);
        assert_eq!(q.arrive(forged.clone()), Arrival::Joined);
        assert_eq!(q.arrive(forged.clone()), Arrival::Duplicate);
        q.open(1, 0);
        for w in 0..3 {
            q.arrive(proposal(&mut next, w, 1, 1));
        }
        q.relay_sent();
        assert!(!q.lost(3) && q.rejoined(3), "the relay is replayed");
        let forged = proposal(&mut next, 3, 1, 2);
        assert_eq!(q.arrive(forged.clone()), Arrival::Joined);
        assert_eq!(q.arrive(forged.clone()), Arrival::Echo);
        // A later rejoin has nothing to replay, and copies stay echoes.
        assert!(!q.lost(3) && !q.rejoined(3));
        assert_eq!(q.arrive(forged), Arrival::Echo);
    }

    #[test]
    fn stragglers_of_a_closed_round_are_late_only_under_a_crash_policy() {
        let mut next = 0;
        for (policy, verdict) in [
            (Some(CrashPolicy::ProceedAtQuorum), Arrival::Late),
            (Some(CrashPolicy::WaitForRejoin), Arrival::Late),
            (None, Arrival::WrongRound),
        ] {
            let mut q = Quorum::served(4, 1, 4, 1, policy);
            q.open(3, 0);
            assert_eq!(q.arrive(proposal(&mut next, 0, 2, 1)), verdict);
            assert_eq!(q.arrive(proposal(&mut next, 0, 4, 1)), Arrival::WrongRound);
            // Neither counts as the worker's proposal for the round.
            assert_eq!(q.arrive(proposal(&mut next, 0, 3, 1)), Arrival::Joined);
            let stats = q.close();
            assert_eq!((stats.size, stats.carried, stats.dropped), (1, 0, 0));
        }
    }

    #[test]
    fn a_worker_outside_the_roster_is_deferred_not_indexed() {
        let mut q = Quorum::new(3, 3, 1);
        let mut next = 0;
        q.restore(vec![proposal(&mut next, 99, 0, 0)]);
        q.open(1, 0);
        assert!(!q.offer(proposal(&mut next, 7, 1, 5)));
        assert!(q.offer(proposal(&mut next, 0, 1, 9)));
        let stats = q.close();
        assert_eq!(q.workers(), &[0]);
        assert_eq!(stats.cutoff, 9);
        // The carried stranger aged out; the fresh one is carried.
        assert_eq!((stats.dropped, stats.carried), (1, 1));
        assert_eq!(q.carried()[0].worker, 7);
    }
}
