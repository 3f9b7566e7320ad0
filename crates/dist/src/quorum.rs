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
//! implementation. One round is
//!
//! ```text
//! open(round, reserved) → offer(..)* → [fill_reserved(forged)] → close()
//! ```
//!
//! after which [`Quorum::vectors`] and [`Quorum::workers`] are the
//! aggregation input, in `(issued_round, worker)` order.

use krum_metrics::RoundRecord;
use krum_tensor::Vector;

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

/// The quorum selection, carry-over and staleness rules of one job; see the
/// module docs.
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
}

impl Quorum {
    /// A machine for a roster of `n` workers, closing rounds at `quorum`
    /// proposals and carrying a deferred proposal while its staleness in
    /// the next round stays `<= max_staleness`.
    pub fn new(n: usize, quorum: usize, max_staleness: usize) -> Self {
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
    /// the aggregation order `(issued_round, worker)`.
    pub fn close(&mut self) -> QuorumStats {
        let round = self.round;
        let max_staleness = self.max_staleness;
        let mut dropped = 0;
        self.deferred.retain(|p| {
            let carried = (round + 1).saturating_sub(p.issued_round) <= max_staleness;
            dropped += usize::from(!carried);
            carried
        });
        let stats = QuorumStats {
            size: self.vectors.len(),
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
        for p in &carried_in {
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
        stats
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
