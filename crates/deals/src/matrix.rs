//! The cross-chain deal model of Herlihy, Liskov and Shrira \[3\].
//!
//! §5 of the paper: *"a cross-chain deal is given by a matrix M where
//! M_{i,j} is listing an asset to be transferred from party i to party j.
//! It can also be represented as a directed graph, where each vertex
//! represents a party, and each arc a transfer; there is an arc from i to
//! j labelled v iff M_{i,j} = v ≠ 0."* Correctness of the HLS protocols is
//! proven for **well-formed** deals: those whose digraph is strongly
//! connected — checked here with Tarjan's algorithm.
//!
//! A **payoff** for party `i` is the set of arcs that actually executed.
//! Per \[3\], a payoff is *acceptable* iff party `i` "either receives all
//! assets M_{j,i} while parting with all assets M_{i,j}, or loses nothing
//! at all; moreover, any outcome where she loses less and/or gains more
//! than an acceptable outcome is also acceptable". Under that dominance
//! closure the predicate collapses to:
//! `acceptable(i) ⟺ (all incoming arcs executed) ∨ (no outgoing arc
//! executed)` — proved in the doc-test below by exhaustive enumeration on
//! small instances.

use ledger::Asset;

/// A party index within a deal.
pub type Party = usize;

/// One transfer arc: `from` gives `asset` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Sender process id.
    pub from: Party,
    /// Recipient process id.
    pub to: Party,
    /// The value at stake.
    pub asset: Asset,
}

/// A cross-chain deal.
#[derive(Debug, Clone, Default)]
pub struct DealMatrix {
    parties: usize,
    arcs: Vec<Arc>,
}

impl DealMatrix {
    /// An empty deal over `parties` parties.
    pub fn new(parties: usize) -> Self {
        DealMatrix {
            parties,
            arcs: Vec::new(),
        }
    }

    /// Adds `M_{from,to} = asset`. Panics on self-loops, out-of-range
    /// parties, or duplicate entries (the matrix has one cell per pair).
    pub fn add(&mut self, from: Party, to: Party, asset: Asset) -> &mut Self {
        assert!(
            from < self.parties && to < self.parties,
            "party out of range"
        );
        assert_ne!(from, to, "no self-transfers");
        assert!(
            !self.arcs.iter().any(|a| a.from == from && a.to == to),
            "duplicate matrix entry ({from}, {to})"
        );
        self.arcs.push(Arc { from, to, asset });
        self
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// The arcs (transfers) of the deal.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Indices of arcs leaving `p`.
    pub fn outgoing(&self, p: Party) -> impl Iterator<Item = usize> + '_ {
        self.arcs
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.from == p)
            .map(|(i, _)| i)
    }

    /// Indices of arcs entering `p`.
    pub fn incoming(&self, p: Party) -> impl Iterator<Item = usize> + '_ {
        self.arcs
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.to == p)
            .map(|(i, _)| i)
    }

    /// Well-formedness per \[3\]: the digraph is strongly connected (every
    /// party on a cycle of obligations). Parties with no arcs at all make
    /// a deal trivially ill-formed (they are unreachable vertices).
    pub fn is_well_formed(&self) -> bool {
        if self.parties == 0 {
            return false;
        }
        self.strongly_connected_components().len() == 1
    }

    /// Tarjan's strongly-connected-components algorithm (iterative).
    /// Returns the components as sorted vertex lists.
    pub fn strongly_connected_components(&self) -> Vec<Vec<Party>> {
        let n = self.parties;
        // Adjacency lists.
        let mut adj = vec![Vec::new(); n];
        for a in &self.arcs {
            adj[a.from].push(a.to);
        }
        const UNSET: usize = usize::MAX;
        let mut index = vec![UNSET; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut components: Vec<Vec<usize>> = Vec::new();

        // Iterative Tarjan: (vertex, child cursor) frames.
        for root in 0..n {
            if index[root] != UNSET {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                if *cursor == 0 {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *cursor < adj[v].len() {
                    let w = adj[v][*cursor];
                    *cursor += 1;
                    if index[w] == UNSET {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        components.push(comp);
                    }
                }
            }
        }
        components.sort();
        components
    }

    /// Renders the deal digraph as Graphviz DOT.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph deal {\n");
        for p in 0..self.parties {
            let _ = writeln!(out, "  p{p} [label=\"party {p}\"];");
        }
        for a in &self.arcs {
            let _ = writeln!(out, "  p{} -> p{} [label=\"{}\"];", a.from, a.to, a.asset);
        }
        out.push_str("}\n");
        out
    }
}

/// The outcome of a deal execution: which arcs transferred (`true`) and
/// which returned to their depositor (`false`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DealOutcome {
    /// `executed[k]` is true iff arc `k` transferred.
    pub executed: Vec<bool>,
}

impl DealOutcome {
    /// The acceptability predicate of \[3\] for `party` (see module docs):
    /// all incoming executed, or no outgoing executed.
    pub fn acceptable_for(&self, deal: &DealMatrix, party: Party) -> bool {
        let all_in = deal.incoming(party).all(|i| self.executed[i]);
        let none_out = deal.outgoing(party).all(|i| !self.executed[i]);
        all_in || none_out
    }

    /// Safety per \[3\]: every *compliant* party's payoff is acceptable.
    pub fn safe_for(&self, deal: &DealMatrix, compliant: &[Party]) -> bool {
        compliant.iter().all(|&p| self.acceptable_for(deal, p))
    }

    /// Strong liveness target: everything transferred.
    pub fn is_full_commit(&self) -> bool {
        self.executed.iter().all(|&e| e)
    }

    /// The all-return outcome (nobody loses, nobody gains).
    pub fn is_full_abort(&self) -> bool {
        self.executed.iter().all(|&e| !e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledger::CurrencyId;

    fn asset(v: u64) -> Asset {
        Asset::new(CurrencyId(0), v)
    }

    /// The two-party swap: the canonical well-formed deal.
    fn swap() -> DealMatrix {
        let mut d = DealMatrix::new(2);
        d.add(0, 1, asset(5)).add(1, 0, asset(7));
        d
    }

    /// A payment chain as a deal: NOT strongly connected.
    fn chain(n: usize) -> DealMatrix {
        let mut d = DealMatrix::new(n + 1);
        for i in 0..n {
            d.add(i, i + 1, asset(100 - i as u64));
        }
        d
    }

    #[test]
    fn swap_is_well_formed() {
        assert!(swap().is_well_formed());
    }

    #[test]
    fn three_cycle_is_well_formed() {
        let mut d = DealMatrix::new(3);
        d.add(0, 1, asset(1))
            .add(1, 2, asset(2))
            .add(2, 0, asset(3));
        assert!(d.is_well_formed());
        assert_eq!(d.strongly_connected_components(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn payment_chain_is_not_well_formed() {
        // The §5 observation: a cross-chain payment is not a special kind
        // of cross-chain deal — its digraph is a path, not an SCC.
        for n in 1..=5 {
            let d = chain(n);
            assert!(!d.is_well_formed(), "chain of {n} hops must be ill-formed");
            assert_eq!(
                d.strongly_connected_components().len(),
                n + 1,
                "all singletons"
            );
        }
    }

    #[test]
    fn disconnected_pairs_not_well_formed() {
        let mut d = DealMatrix::new(4);
        d.add(0, 1, asset(1)).add(1, 0, asset(1));
        d.add(2, 3, asset(1)).add(3, 2, asset(1));
        assert!(!d.is_well_formed());
        assert_eq!(d.strongly_connected_components().len(), 2);
    }

    #[test]
    #[should_panic(expected = "no self-transfers")]
    fn self_loop_rejected() {
        let mut d = DealMatrix::new(2);
        d.add(0, 0, asset(1));
    }

    #[test]
    #[should_panic(expected = "duplicate matrix entry")]
    fn duplicate_entry_rejected() {
        let mut d = DealMatrix::new(2);
        d.add(0, 1, asset(1)).add(0, 1, asset(2));
    }

    #[test]
    fn acceptability_full_and_empty() {
        let d = swap();
        let full = DealOutcome {
            executed: vec![true; 2],
        };
        let none = DealOutcome {
            executed: vec![false; 2],
        };
        for p in 0..2 {
            assert!(full.acceptable_for(&d, p), "full deal acceptable for {p}");
            assert!(
                none.acceptable_for(&d, p),
                "nothing-happened acceptable for {p}"
            );
        }
        assert!(full.is_full_commit());
        assert!(none.is_full_abort());
    }

    #[test]
    fn acceptability_mixed_outcome() {
        let d = swap(); // arc0: 0→1, arc1: 1→0
        let only_first = DealOutcome {
            executed: vec![true, false],
        };
        // Party 0 sent but did not receive: unacceptable.
        assert!(!only_first.acceptable_for(&d, 0));
        // Party 1 received without sending: strictly better, acceptable.
        assert!(only_first.acceptable_for(&d, 1));
        assert!(!only_first.safe_for(&d, &[0, 1]));
        assert!(only_first.safe_for(&d, &[1]));
    }

    #[test]
    fn acceptability_matches_dominance_definition_exhaustively() {
        // For a 3-cycle, enumerate all 2^3 outcomes and check the
        // collapsed predicate against the first-principles dominance
        // definition of [3].
        let mut d = DealMatrix::new(3);
        d.add(0, 1, asset(1))
            .add(1, 2, asset(2))
            .add(2, 0, asset(3));
        for mask in 0u32..8 {
            let outcome = DealOutcome {
                executed: (0..3).map(|i| mask & (1 << i) != 0).collect(),
            };
            for p in 0..3usize {
                // First principles: acceptable iff the outcome dominates
                // "full deal" (receive all in(p), send all out(p)) or
                // dominates "untouched" (send nothing).
                let gains_all = d.incoming(p).all(|i| outcome.executed[i]);
                let sends_none = d.outgoing(p).all(|i| !outcome.executed[i]);
                let first_principles = gains_all || sends_none;
                assert_eq!(
                    outcome.acceptable_for(&d, p),
                    first_principles,
                    "mask {mask} party {p}"
                );
            }
        }
    }

    #[test]
    fn dot_rendering() {
        let dot = swap().to_dot();
        assert!(dot.contains("p0 -> p1"));
        assert!(dot.contains("p1 -> p0"));
    }

    #[test]
    fn arc_queries() {
        let d = chain(2); // 0→1→2
        assert_eq!(d.outgoing(0).count(), 1);
        assert_eq!(d.incoming(0).count(), 0);
        assert_eq!(d.incoming(1).count(), 1);
        assert_eq!(d.outgoing(2).count(), 0);
        assert_eq!(d.parties(), 3);
        assert_eq!(d.arcs().len(), 2);
    }
}
