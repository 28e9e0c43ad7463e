//! The protocol axis of the engine: who transmits to whom each round.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::delta::{DynAdjacency, EdgeDelta};
use crate::{mix_seed, Snapshot};

/// Read-only view of the spreading state, handed to protocols each round.
///
/// `informed_list` enumerates `I_t` in the order nodes became informed
/// (sources first); `informed_at[v]` is the round node `v` was informed
/// (`0` for sources, [`SpreadView::UNINFORMED`] if not yet informed).
/// Protocols that iterate `informed_list` and draw randomness in that
/// order are trial-deterministic by construction.
#[derive(Debug)]
pub struct SpreadView<'a> {
    /// Rounds completed before (during [`Protocol::transmit`]) or
    /// including (during [`Protocol::end_round`]) the current one.
    pub round: u32,
    /// Number of nodes `n`.
    pub node_count: usize,
    /// Per-node informed round; [`SpreadView::UNINFORMED`] = still
    /// uninformed. The flat `u32` (instead of `Option<u32>`) halves the
    /// array and keeps the hot inner loops branchless: `informed_at[v] <
    /// round` and `informed_at[v] != UNINFORMED` are plain integer
    /// compares.
    pub informed_at: &'a [u32],
    /// `I_t` in information order.
    pub informed_list: &'a [u32],
}

impl SpreadView<'_> {
    /// Sentinel informed-round of a node that has not been informed.
    /// Rounds are bounded by the trial's `max_rounds`, so `u32::MAX` can
    /// never be a genuine informed round.
    pub const UNINFORMED: u32 = u32::MAX;

    /// `true` iff `v` is a member of `I_t`.
    #[inline]
    pub fn is_informed(&self, v: u32) -> bool {
        self.informed_at[v as usize] != Self::UNINFORMED
    }

    /// The round `v` became informed; `None` if still uninformed.
    #[inline]
    pub fn informed_round(&self, v: u32) -> Option<u32> {
        let at = self.informed_at[v as usize];
        (at != Self::UNINFORMED).then_some(at)
    }
}

/// Sink collecting one round's transmissions.
///
/// Every [`Transmissions::send`] counts as one message (the energy/
/// bandwidth metric observers can consume); sends to already-informed
/// nodes are deduplicated, and newly informed nodes do **not** relay
/// within the same round — exactly the `I_{t+1} = I_t ∪ N_{E_t}(I_t)`
/// semantics of §2.
#[derive(Debug)]
pub struct Transmissions<'a> {
    informed: &'a mut [bool],
    new_nodes: &'a mut Vec<u32>,
    messages: u64,
}

impl<'a> Transmissions<'a> {
    pub(crate) fn new(informed: &'a mut [bool], new_nodes: &'a mut Vec<u32>) -> Self {
        Transmissions {
            informed,
            new_nodes,
            messages: 0,
        }
    }

    /// Transmits to node `v`: counts one message and informs `v` if it
    /// was not informed yet.
    #[inline]
    pub fn send(&mut self, v: u32) {
        self.messages += 1;
        if !self.informed[v as usize] {
            self.informed[v as usize] = true;
            self.new_nodes.push(v);
        }
    }

    /// Informs node `v` without counting a message — for delta-path
    /// protocols that account for their message volume in aggregate via
    /// [`Transmissions::add_messages`] instead of per send.
    #[inline]
    pub fn inform(&mut self, v: u32) {
        if !self.informed[v as usize] {
            self.informed[v as usize] = true;
            self.new_nodes.push(v);
        }
    }

    /// Adds `count` messages to this round's tally without informing
    /// anyone (aggregate accounting counterpart of
    /// [`Transmissions::inform`]).
    #[inline]
    pub fn add_messages(&mut self, count: u64) {
        self.messages += count;
    }

    /// Messages sent so far this round.
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

/// Whether a protocol can still make progress in future rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolStatus {
    /// The protocol may still inform new nodes; keep stepping.
    Active,
    /// No future round can inform anyone (e.g. every relay's TTL
    /// expired); the engine stops the trial early.
    Quiescent,
}

/// A round-step transmission rule over an evolving graph plus informed
/// set — the protocol axis of the [`Simulation`](crate::engine::Simulation)
/// engine.
///
/// Implementations must be deterministic functions of the seed passed to
/// [`Protocol::begin_trial`]: the engine derives that seed from the trial
/// index, which is what makes parallel and serial execution byte-identical.
pub trait Protocol: Send {
    /// Short human-readable protocol name (used in reports/labels).
    fn name(&self) -> &'static str;

    /// Resets per-trial state; `seed` is the trial's derived seed.
    fn begin_trial(&mut self, n: usize, seed: u64) {
        let _ = (n, seed);
    }

    /// Executes one round: read the snapshot `E_t` and the informed set
    /// `I_t` (`view.round == t`), and [`Transmissions::send`] to every
    /// chosen target.
    fn transmit(&mut self, snap: &Snapshot, view: &SpreadView<'_>, out: &mut Transmissions<'_>);

    /// Executes one round on the delta path: `adj` already reflects
    /// `E_t` (this round's `delta` has been applied), and the outcome —
    /// informed nodes *and* message count — must match what
    /// [`Protocol::transmit`] would produce over the materialized
    /// snapshot of the same round.
    ///
    /// The default implementation materializes the CSR snapshot and
    /// falls back to [`Protocol::transmit`], so custom protocols work on
    /// the delta path unchanged (they just don't profit from it).
    fn transmit_delta(
        &mut self,
        adj: &mut DynAdjacency,
        delta: &EdgeDelta,
        view: &SpreadView<'_>,
        out: &mut Transmissions<'_>,
    ) {
        let _ = delta;
        self.transmit(adj.snapshot(), view, out);
    }

    /// Called after the engine has recorded the round's newly informed
    /// nodes (`view.round` = rounds completed). Return
    /// [`ProtocolStatus::Quiescent`] when no future round can inform
    /// anyone, to stop the trial early.
    fn end_round(&mut self, view: &SpreadView<'_>) -> ProtocolStatus {
        let _ = view;
        ProtocolStatus::Active
    }

    /// Whether the intra-trial sharded executor ([`crate::shard`]) may
    /// replace this protocol's round loop when the engine's
    /// `.shards(..)` axis asks for it.
    ///
    /// The sharded executor hard-codes flooding semantics (deterministic
    /// relay on every edge, per-round messages
    /// `Σ_{u ∈ I_t} deg_{E_t}(u)`), so only protocols whose
    /// [`Protocol::transmit_delta`] is observably identical to that may
    /// return `true` — the engine then produces byte-identical records
    /// on either path. Defaults to `false`: randomized or stateful
    /// protocols keep their serial round loop and the shard setting is
    /// silently ignored.
    fn supports_sharded_flooding(&self) -> bool {
        false
    }
}

/// Deterministic flooding (§2): every informed node transmits on every
/// current edge, every round.
///
/// [`crate::flooding::flood`] runs this protocol on the engine's serial
/// loop; the engine suite pins it, on both stepping paths, to the
/// definitional flooding loop kept as a test oracle.
///
/// On the delta path the full informed-set scan is replaced by a
/// *frontier sweep*: only last round's newly informed nodes read their
/// adjacency, plus the round's added edges — a node adjacent to an older
/// informed node through an older edge was already informed. The message
/// tally (`Σ_{u ∈ I_t} deg_{E_t}(u)`, every informed node transmits on
/// every incident edge) is maintained incrementally from the churn, so
/// records match the snapshot path exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flooding {
    /// `Σ_{u ∈ I_t} deg_{E_t}(u)` — the messages a full flooding sweep
    /// would send this round, maintained from churn + frontier joins.
    informed_degree: u64,
    /// Start of the current frontier in `informed_list`.
    frontier_start: usize,
}

impl Flooding {
    /// The flooding protocol.
    pub fn new() -> Self {
        Flooding::default()
    }
}

impl Protocol for Flooding {
    fn name(&self) -> &'static str {
        "flooding"
    }

    fn begin_trial(&mut self, _n: usize, _seed: u64) {
        self.informed_degree = 0;
        self.frontier_start = 0;
    }

    fn transmit(&mut self, snap: &Snapshot, view: &SpreadView<'_>, out: &mut Transmissions<'_>) {
        for &u in view.informed_list {
            for &v in snap.neighbors(u) {
                out.send(v);
            }
        }
    }

    fn transmit_delta(
        &mut self,
        adj: &mut DynAdjacency,
        delta: &EdgeDelta,
        view: &SpreadView<'_>,
        out: &mut Transmissions<'_>,
    ) {
        // Member of I_{t-1}? The frontier carries informed_at == round,
        // and UNINFORMED (= u32::MAX) can never be below it.
        let informed_before = |x: u32| view.informed_at[x as usize] < view.round;
        for &(u, v) in delta.removed() {
            self.informed_degree -= informed_before(u) as u64 + informed_before(v) as u64;
        }
        for &(u, v) in delta.added() {
            self.informed_degree += informed_before(u) as u64 + informed_before(v) as u64;
            // A fresh edge delivers across it if either endpoint is in
            // I_t; `informed_at` is still UNINFORMED for nodes first
            // reached this round, so no same-round chaining.
            if view.is_informed(u) {
                out.inform(v);
            }
            if view.is_informed(v) {
                out.inform(u);
            }
        }
        for &u in &view.informed_list[self.frontier_start..] {
            self.informed_degree += adj.degree(u) as u64;
            for &v in adj.neighbors(u) {
                out.inform(v);
            }
        }
        self.frontier_start = view.informed_list.len();
        out.add_messages(self.informed_degree);
    }

    fn supports_sharded_flooding(&self) -> bool {
        // The sharded executor replicates exactly this transmit_delta
        // (the partitioned message partial sums add up to the same
        // informed-degree recurrence); pinned by the sharded-engine
        // byte-identity suite.
        true
    }
}

/// Randomized push gossip (§5): each informed node transmits to at most
/// `fanout` distinct random current neighbours per round.
///
/// With the same per-trial seed this reproduces the workspace's
/// single-run `push_spread` test oracle exactly (same partial
/// Fisher–Yates draws in the same order).
#[derive(Debug, Clone)]
pub struct PushGossip {
    fanout: usize,
    rng: SmallRng,
    /// Sparse overlay of the *virtual* partial Fisher–Yates shuffle:
    /// `(index, value)` pairs for the at most `fanout` positions whose
    /// value differs from the underlying neighbour slice.
    displaced: Vec<(usize, u32)>,
}

impl PushGossip {
    /// A push protocol with the given per-round fanout.
    ///
    /// # Panics
    ///
    /// Panics if `fanout == 0`.
    pub fn new(fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        PushGossip {
            fanout,
            rng: SmallRng::seed_from_u64(0),
            displaced: Vec::new(),
        }
    }

    /// The per-round fanout `k`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Transmits from one node to at most `fanout` of its neighbours —
    /// the shared body of both stepping paths (identical RNG draws).
    ///
    /// Draws `fanout` distinct targets by a *virtual* partial
    /// Fisher–Yates: the same `gen_range(i..len)` draws, swaps, and
    /// outputs as shuffling a copy of the adjacency list, but the copy
    /// is never made — only the at most `fanout` displaced entries are
    /// tracked, so a high-degree informed node costs `O(fanout²)`
    /// bookkeeping instead of an `O(degree)` buffer fill. Byte-identical
    /// to the buffered implementation (and hence to the `push_spread`
    /// test oracle) by construction; the engine suite pins it.
    fn push_targets(&mut self, neigh: &[u32], out: &mut Transmissions<'_>) {
        if neigh.len() <= self.fanout {
            for &v in neigh {
                out.send(v);
            }
            return;
        }
        self.displaced.clear();
        let at = |displaced: &[(usize, u32)], idx: usize| -> u32 {
            displaced
                .iter()
                .find(|(i, _)| *i == idx)
                .map_or(neigh[idx], |(_, v)| *v)
        };
        for i in 0..self.fanout {
            let j = self.rng.gen_range(i..neigh.len());
            // swap(i, j), then emit position i (= the old value at j).
            // Position i is never read again, so only j's new value is
            // recorded.
            let vi = at(&self.displaced, i);
            let vj = at(&self.displaced, j);
            match self.displaced.iter_mut().find(|(idx, _)| *idx == j) {
                Some(entry) => entry.1 = vi,
                None => self.displaced.push((j, vi)),
            }
            out.send(vj);
        }
    }
}

impl Protocol for PushGossip {
    fn name(&self) -> &'static str {
        "push-gossip"
    }

    fn begin_trial(&mut self, _n: usize, seed: u64) {
        // Same stream derivation as the `push_spread` test oracle, so
        // the engine reproduces it bit for bit given the same seed.
        self.rng = SmallRng::seed_from_u64(mix_seed(seed, 0x905517));
    }

    fn transmit(&mut self, snap: &Snapshot, view: &SpreadView<'_>, out: &mut Transmissions<'_>) {
        for &u in view.informed_list {
            self.push_targets(snap.neighbors(u), out);
        }
    }

    fn transmit_delta(
        &mut self,
        adj: &mut DynAdjacency,
        _delta: &EdgeDelta,
        view: &SpreadView<'_>,
        out: &mut Transmissions<'_>,
    ) {
        // Every informed node draws randomness each round, so the scan
        // cannot shrink to the frontier — but the sorted adjacency lists
        // match the snapshot's exactly, so the RNG stream (and thus the
        // whole trial) is byte-identical, without ever building a CSR;
        // and the virtual shuffle in `push_targets` keeps the per-node
        // sampling cost fanout-bound instead of degree-bound.
        for &u in view.informed_list {
            self.push_targets(adj.neighbors(u), out);
        }
    }
}

/// Parsimonious flooding (\[4\], Baumann–Crescenzi–Fraigniaud): a node
/// relays only during the `ttl` rounds after becoming informed, then
/// falls silent.
///
/// Matches the workspace's single-run `parsimonious_flood` test oracle
/// run for run, including the early stop once every relay has expired.
///
/// `informed_at` is nondecreasing along `informed_list`, so expired
/// relays always form a prefix; a cursor to the first live relay keeps
/// the per-round cost at O(live relays), like the legacy active-list
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsimoniousFlooding {
    ttl: u32,
    expired: usize,
}

impl ParsimoniousFlooding {
    /// A parsimonious protocol relaying for `ttl` rounds per node.
    ///
    /// # Panics
    ///
    /// Panics if `ttl == 0`.
    pub fn new(ttl: u32) -> Self {
        assert!(ttl > 0, "ttl must be positive");
        ParsimoniousFlooding { ttl, expired: 0 }
    }

    /// The relay window length.
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// Advances the expired-prefix cursor for the given round.
    fn retire(&mut self, view: &SpreadView<'_>) {
        while let Some(&u) = view.informed_list.get(self.expired) {
            let at = view.informed_at[u as usize];
            debug_assert_ne!(at, SpreadView::UNINFORMED, "listed nodes are informed");
            if at.saturating_add(self.ttl) > view.round {
                break;
            }
            self.expired += 1;
        }
    }

    /// The shared relay sweep of both stepping paths: every live relay
    /// transmits to all of its current neighbours, whatever structure
    /// they are read from.
    fn relay<'a>(
        &mut self,
        view: &SpreadView<'_>,
        out: &mut Transmissions<'_>,
        neighbors: impl Fn(u32) -> &'a [u32],
    ) {
        self.retire(view);
        for &u in &view.informed_list[self.expired..] {
            for &v in neighbors(u) {
                out.send(v);
            }
        }
    }
}

impl Protocol for ParsimoniousFlooding {
    fn name(&self) -> &'static str {
        "parsimonious-flooding"
    }

    fn begin_trial(&mut self, _n: usize, _seed: u64) {
        self.expired = 0;
    }

    fn transmit(&mut self, snap: &Snapshot, view: &SpreadView<'_>, out: &mut Transmissions<'_>) {
        self.relay(view, out, |u| snap.neighbors(u));
    }

    fn transmit_delta(
        &mut self,
        adj: &mut DynAdjacency,
        _delta: &EdgeDelta,
        view: &SpreadView<'_>,
        out: &mut Transmissions<'_>,
    ) {
        // The live relays *are* a (TTL-windowed) frontier: only their
        // adjacency is read, straight from the incremental structure.
        let adj = &*adj;
        self.relay(view, out, |u| adj.neighbors(u));
    }

    fn end_round(&mut self, view: &SpreadView<'_>) -> ProtocolStatus {
        self.retire(view);
        if self.expired < view.informed_list.len() {
            ProtocolStatus::Active
        } else {
            ProtocolStatus::Quiescent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmissions_dedup_and_count() {
        let mut informed = vec![false, true, false];
        let mut new_nodes = Vec::new();
        let mut out = Transmissions::new(&mut informed, &mut new_nodes);
        out.send(0);
        out.send(0);
        out.send(1);
        assert_eq!(out.messages(), 3);
        assert_eq!(new_nodes, vec![0]);
        assert!(informed[0]);
    }

    #[test]
    #[should_panic(expected = "fanout must be positive")]
    fn zero_fanout_rejected() {
        let _ = PushGossip::new(0);
    }

    #[test]
    fn virtual_shuffle_matches_buffered_fisher_yates() {
        // Reference: the O(degree) buffered partial Fisher–Yates the
        // virtual shuffle replaced — same RNG draws, same targets, in
        // the same order, for every fanout and seed.
        let neigh: Vec<u32> = (0..97).map(|i| i * 3 + 1).collect();
        for fanout in [1usize, 2, 5, 16, 96] {
            for seed in 0..20u64 {
                let mut reference_rng = SmallRng::seed_from_u64(mix_seed(seed, 0x905517));
                let mut buf = neigh.clone();
                let mut expected = Vec::new();
                for i in 0..fanout {
                    let j = reference_rng.gen_range(i..buf.len());
                    buf.swap(i, j);
                    expected.push(buf[i]);
                }

                let mut p = PushGossip::new(fanout);
                p.begin_trial(neigh.len() + 1, seed);
                let mut informed = vec![false; 512];
                let mut new_nodes = Vec::new();
                let mut out = Transmissions::new(&mut informed, &mut new_nodes);
                p.push_targets(&neigh, &mut out);
                assert_eq!(out.messages(), fanout as u64);
                // Fisher–Yates targets are distinct, so the newly informed
                // list is exactly the emission order.
                assert_eq!(new_nodes, expected, "fanout {fanout}, seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ttl must be positive")]
    fn zero_ttl_rejected() {
        let _ = ParsimoniousFlooding::new(0);
    }

    #[test]
    fn spread_view_sentinel_helpers() {
        let informed_at = vec![0, SpreadView::UNINFORMED, 3];
        let informed_list = vec![0u32, 2];
        let view = SpreadView {
            round: 3,
            node_count: 3,
            informed_at: &informed_at,
            informed_list: &informed_list,
        };
        assert!(view.is_informed(0) && view.is_informed(2));
        assert!(!view.is_informed(1));
        assert_eq!(view.informed_round(0), Some(0));
        assert_eq!(view.informed_round(1), None);
        assert_eq!(view.informed_round(2), Some(3));
    }

    #[test]
    fn parsimonious_quiescence() {
        let mut p = ParsimoniousFlooding::new(2);
        p.begin_trial(2, 0);
        let informed_at = vec![0, SpreadView::UNINFORMED];
        let informed_list = vec![0u32];
        let view = |round| SpreadView {
            round,
            node_count: 2,
            informed_at: &informed_at,
            informed_list: &informed_list,
        };
        // TTL 2 from round 0: the relay lives through rounds 0 and 1.
        assert_eq!(p.end_round(&view(1)), ProtocolStatus::Active);
        assert_eq!(p.end_round(&view(2)), ProtocolStatus::Quiescent);
    }
}
