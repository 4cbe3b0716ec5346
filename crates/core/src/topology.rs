//! The Figure 1 topology: `n` escrows, `n+1` customers.
//!
//! ```text
//! c0 --- e0 --- c1 --- e1 --- … --- c_{n-1} --- e_{n-1} --- c_n
//! ```
//!
//! Customer `c_0` is Alice, `c_n` is Bob, the `c_i` in between are the
//! connectors ("Chloe_i"). Customers `c_i` and `c_{i+1}` have accounts at
//! escrow `e_i` and trust that escrow; there are no other trust relations,
//! and value moves only between customers of the same escrow.
//!
//! This module fixes the engine pid layout, the key assignments, and the
//! value vector (Alice pays `v_0`, each Chloe forwards `v_i ≤ v_{i-1}`,
//! keeping her commission), and can render the figure for any `n`
//! (experiment E4).

use crate::msg::PMsg;
use anta::clock::DriftClock;
use anta::engine::Engine;
use anta::process::{Pid, Process};
use ledger::{Asset, CurrencyId, Ledger};
use std::sync::Arc;
use xcrypto::{KeyId, PaymentId, Pki, Signer};

/// A participant's position in the chain: customer `c_i` or escrow `e_i`.
///
/// `Customer(0)` is Alice, `Customer(n)` is Bob and the customers in
/// between are the connectors. Trust follows position: `c_i` trusts
/// `e_{i-1}` (when `i > 0`) and `e_i` (when `i < n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Customer `c_i`, `0 ≤ i ≤ n`.
    Customer(usize),
    /// Escrow `e_i`, `0 ≤ i < n`.
    Escrow(usize),
}

/// The chain topology and pid/key layout for one payment instance.
///
/// Engine pid convention: customers `c_0..c_n` occupy pids `0..=n`;
/// escrows `e_0..e_{n-1}` occupy pids `n+1..=2n`. A transaction manager
/// (weak protocol) and notaries, when present, follow after.
#[derive(Debug, Clone)]
pub struct ChainTopology {
    /// Number of escrows (`n ≥ 1`); there are `n+1` customers.
    pub n: usize,
}

impl ChainTopology {
    /// A chain with `n` escrows. Panics if `n = 0` (no payment without an
    /// escrow).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a payment chain needs at least one escrow");
        ChainTopology { n }
    }

    /// Total number of chain participants (`2n + 1`).
    pub fn participants(&self) -> usize {
        2 * self.n + 1
    }

    /// Engine pid of customer `c_i` (`i ≤ n`).
    pub fn customer_pid(&self, i: usize) -> Pid {
        assert!(
            i <= self.n,
            "customer index {i} out of range (n = {})",
            self.n
        );
        i
    }

    /// Engine pid of escrow `e_i` (`i < n`).
    pub fn escrow_pid(&self, i: usize) -> Pid {
        assert!(i < self.n, "escrow index {i} out of range (n = {})", self.n);
        self.n + 1 + i
    }

    /// First free pid after the chain (TM, notaries, observers).
    pub fn next_free_pid(&self) -> Pid {
        2 * self.n + 1
    }

    /// The role of a chain pid.
    pub fn role_of(&self, pid: Pid) -> Option<Role> {
        if pid <= self.n {
            Some(Role::Customer(pid))
        } else if pid <= 2 * self.n {
            Some(Role::Escrow(pid - self.n - 1))
        } else {
            None
        }
    }

    /// Renders Figure 1 for this chain as ASCII.
    pub fn render_figure1(&self) -> String {
        let mut top = String::new();
        for i in 0..=self.n {
            if i > 0 {
                top.push_str(" --- ");
            }
            top.push_str(&format!("c{i}"));
            if i < self.n {
                top.push_str(&format!(" --- e{i}"));
            }
        }
        format!(
            "{top}\n(c0 = Alice, c{} = Bob; c_i trusts e_{{i-1}} and e_i)\n",
            self.n
        )
    }

    /// Renders Figure 1 as Graphviz DOT.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("graph chain {\n  rankdir=LR;\n");
        for i in 0..=self.n {
            let label = if i == 0 {
                "c0\\nAlice".to_owned()
            } else if i == self.n {
                format!("c{i}\\nBob")
            } else {
                format!("c{i}\\nChloe{i}")
            };
            let _ = writeln!(out, "  c{i} [label=\"{label}\", shape=circle];");
        }
        for i in 0..self.n {
            let _ = writeln!(out, "  e{i} [label=\"e{i}\", shape=box];");
            let _ = writeln!(out, "  c{i} -- e{i};");
            let _ = writeln!(out, "  e{i} -- c{};", i + 1);
        }
        out.push_str("}\n");
        out
    }
}

/// Global identity of an escrow venue in a multi-payment network.
///
/// A single payment's chain names its escrows locally (`e_0 … e_{n-1}`,
/// [`Role::Escrow`]); when many payments share infrastructure — a hub's
/// collateral pool, a payment-channel edge of a routing tree — each local
/// escrow maps onto one *venue* whose liquidity all payments crossing it
/// contend for. Venue ids are dense per network, assigned by the traffic
/// generator.
pub type VenueId = u32;

/// The global venues one chain instance's hops occupy: hop `i` (escrow
/// `e_i` of the instance's own chain) locks its collateral at
/// `venues[i]`.
///
/// This is the bridge between the Figure 1 chain (one payment, local
/// escrow indices) and a shared-liquidity network (many payments, global
/// collateral budgets): the liquidity book charges hop `i`'s locked value
/// against `venues[i]`'s budget.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VenueRoute {
    /// `venues[i]` is the global venue of the instance's escrow `e_i`.
    pub venues: Vec<VenueId>,
}

impl VenueRoute {
    /// A route through the given venues, in hop order.
    pub fn new(venues: Vec<VenueId>) -> Self {
        VenueRoute { venues }
    }

    /// The dedicated-path route: `n` venues `0..n` nobody else shares
    /// (the paper's single-payment setting embedded in a network).
    pub fn linear(n: usize) -> Self {
        VenueRoute {
            venues: (0..n as VenueId).collect(),
        }
    }

    /// Number of hops the route covers.
    pub fn hops(&self) -> usize {
        self.venues.len()
    }

    /// The venue of hop `i`, if the route covers it.
    pub fn venue(&self, hop: usize) -> Option<VenueId> {
        self.venues.get(hop).copied()
    }

    /// The largest venue id on the route (`None` for an empty route).
    pub fn max_venue(&self) -> Option<VenueId> {
        self.venues.iter().copied().max()
    }

    /// The collateral this payment asks each venue to set aside, summed
    /// per venue (a route may cross the same venue more than once) and
    /// sorted by venue id: hop `i` locks `plan.amounts[i]` at
    /// `venues[i]`. Hops beyond the plan (or routes shorter than the
    /// plan) contribute nothing — callers validate lengths where it
    /// matters.
    pub fn demand(&self, plan: &ValuePlan) -> Vec<(VenueId, u64)> {
        let mut by_venue: std::collections::BTreeMap<VenueId, u64> =
            std::collections::BTreeMap::new();
        for (hop, &venue) in self.venues.iter().enumerate() {
            if let Some(asset) = plan.amounts.get(hop) {
                *by_venue.entry(venue).or_insert(0) += asset.amount;
            }
        }
        by_venue.into_iter().collect()
    }
}

/// The agreed value vector: what each escrow's deal carries. The paper
/// assumes values were agreed beforehand; commissions mean
/// `v_0 ≥ v_1 ≥ … ≥ v_{n-1}`, possibly in different currencies.
#[derive(Debug, Clone)]
pub struct ValuePlan {
    /// `amounts[i]` is the asset locked at escrow `e_i` (from `c_i`, for
    /// `c_{i+1}`).
    pub amounts: Vec<Asset>,
}

impl ValuePlan {
    /// Uniform plan: the same amount at every hop, single currency, zero
    /// commission.
    pub fn uniform(n: usize, amount: u64) -> Self {
        ValuePlan {
            amounts: vec![Asset::new(CurrencyId(0), amount); n],
        }
    }

    /// A plan where each connector keeps `commission` per hop:
    /// `v_i = v_0 − i·commission` (single currency). Panics if the
    /// commission exhausts the value.
    pub fn with_commission(n: usize, v0: u64, commission: u64) -> Self {
        let amounts = (0..n)
            .map(|i| {
                let cut = commission
                    .checked_mul(i as u64)
                    .expect("commission overflow");
                let v = v0.checked_sub(cut).expect("commission exceeds value");
                assert!(v > 0, "hop {i} would carry zero value");
                Asset::new(CurrencyId(0), v)
            })
            .collect();
        ValuePlan { amounts }
    }

    /// A multi-currency plan (one currency per escrow, same magnitude) —
    /// exercising the "different currencies" remark of §2.
    pub fn multi_currency(n: usize, amount: u64) -> Self {
        ValuePlan {
            amounts: (0..n)
                .map(|i| Asset::new(CurrencyId(i as u32), amount))
                .collect(),
        }
    }

    /// Number of hops (escrows).
    pub fn hops(&self) -> usize {
        self.amounts.len()
    }

    /// Splits the plan into `k` parallel sub-plans carrying the same total
    /// value per hop — packetized payments in the sense of Dubovitskaya et
    /// al. (arXiv:2103.02056): one logical payment travels as `k`
    /// independent sub-payments, each over its own escrow path, and the
    /// packet completes when every sub-payment does. Hop `i`'s amount is
    /// divided as evenly as integer division allows, with the remainder
    /// spread over the first sub-plans one unit each.
    ///
    /// Panics if `k = 0` or any hop carries less than `k` units (a
    /// sub-payment of zero value is not a payment).
    pub fn split(&self, k: usize) -> Vec<ValuePlan> {
        assert!(k >= 1, "cannot split into zero sub-payments");
        for (i, a) in self.amounts.iter().enumerate() {
            assert!(
                a.amount >= k as u64,
                "hop {i} carries {} units, too few for {k} sub-payments",
                a.amount
            );
        }
        (0..k as u64)
            .map(|j| ValuePlan {
                amounts: self
                    .amounts
                    .iter()
                    .map(|a| {
                        let share = a.amount / k as u64 + u64::from(j < a.amount % k as u64);
                        Asset::new(a.currency, share)
                    })
                    .collect(),
            })
            .collect()
    }
}

/// One payment's Figure 1 chain, as both payment protocols run it: the
/// topology, the value plan, the payment id, the frozen key registry and
/// every customer's and escrow's signer. Theorem 1's
/// [`ChainSetup`](crate::ChainSetup) and Theorem 3's
/// [`WeakSetup`](crate::weak::WeakSetup) each hold one, add what their
/// protocol needs, and assemble and audit their engines through it.
pub struct Chain {
    /// The pid layout.
    pub topo: ChainTopology,
    /// The amount each escrow hop carries.
    pub plan: ValuePlan,
    /// The payment instance, derived from the seed and every chain key.
    pub payment: PaymentId,
    /// Shared verification registry, frozen once every key is in.
    pub pki: Arc<Pki>,
    /// Keys and signers of `c_0..=c_n` (Alice … Bob), then of
    /// `e_0..e_{n-1}`: one registration batch.
    signers: Vec<(KeyId, Signer)>,
}

impl Chain {
    /// The chain of `n` escrows carrying `plan`, its keys drawn from
    /// `seed` in one order: customers `c_0..=c_n`, escrows, then `extra`
    /// more (the weak protocol's managers), which come back beside the
    /// chain. Every key is registered before the registry is frozen, so
    /// each [`KeyId`] and the [`PaymentId`] depend on `(n, seed)` alone.
    pub fn new(n: usize, plan: ValuePlan, seed: u64, extra: usize) -> (Self, Vec<Signer>) {
        assert_eq!(plan.hops(), n, "value plan must cover every escrow");
        let topo = ChainTopology::new(n);
        let mut pki = Pki::new(seed);
        let mut signers = pki.register_many(2 * n + 1 + extra);
        let extra = signers.split_off(2 * n + 1);
        let chain = Chain {
            topo,
            plan,
            payment: PaymentId::derive(seed, signers.iter().map(|(id, _)| id)),
            pki: Arc::new(pki),
            signers,
        };
        (chain, extra.into_iter().map(|(_, s)| s).collect())
    }

    /// Number of escrows.
    pub fn n(&self) -> usize {
        self.topo.n
    }

    /// Signer of customer `c_i`.
    pub fn customer_signer(&self, i: usize) -> &Signer {
        &self.signers[i].1
    }

    /// Signer of escrow `e_i`.
    pub fn escrow_signer(&self, i: usize) -> &Signer {
        &self.signers[self.topo.n + 1 + i].1
    }

    /// Bob's key: the one χ must verify under.
    pub fn bob_key(&self) -> KeyId {
        self.signers[self.topo.n].0
    }

    /// Escrow `e_i`'s opening book: accounts for `c_i` and `c_{i+1}`, with
    /// `v_i` minted to `c_i` — the upstream customer's working capital
    /// lives at her downstream escrow.
    pub fn escrow_book(&self, i: usize) -> Ledger {
        let (up, down) = (self.signers[i].0, self.signers[i + 1].0);
        Ledger::funded(&[up, down], up, self.plan.amounts[i])
    }

    /// Registers one process per chain pid in `eng`, in pid order: the
    /// one `override_for` returns for the pid's role, else `default`'s,
    /// on the clock `clock` gives the pid.
    pub fn assemble(
        &self,
        eng: &mut Engine<PMsg>,
        mut override_for: impl FnMut(Role) -> Option<Box<dyn Process<PMsg>>>,
        default: impl Fn(Role) -> Box<dyn Process<PMsg>>,
        clock: impl Fn(Pid) -> DriftClock,
    ) {
        for pid in 0..self.topo.participants() {
            let role = self
                .topo
                .role_of(pid)
                .expect("pids 0..2n+1 are the chain's");
            let proc = override_for(role).unwrap_or_else(|| default(role));
            let got = eng.add_process(proc, clock(pid));
            debug_assert_eq!(got, pid);
        }
    }

    /// The escrow audit both protocols' outcomes carry. `book(i)` is
    /// `e_i`'s final ledger, `None` where the escrow was substituted.
    /// Returns, per escrow, whether its book conserves value, and per
    /// customer `c_0..=c_n` her net value change: her balances at
    /// `e_{i-1}` and `e_i`, less the capital [`Chain::escrow_book`] minted
    /// to her at `e_i`. A position next to a substituted escrow is `None`.
    /// Net positions are only meaningful for single-currency plans. Each
    /// book is folded once ([`Ledger::fold`]).
    pub fn audit<'a>(
        &self,
        book: impl Fn(usize) -> Option<&'a Ledger>,
    ) -> (Vec<Option<bool>>, Vec<Option<i64>>) {
        let n = self.topo.n;
        let mut conservation = Vec::with_capacity(n);
        let mut net = vec![Some(0i64); n + 1];
        for (e, asset) in self.plan.amounts.iter().enumerate() {
            let fold = book(e).map(Ledger::fold);
            conservation.push(fold.as_ref().map(|f| f.check_conservation().is_ok()));
            // e_e holds c_e's downstream side, less the capital minted to
            // her there, and c_{e+1}'s upstream side.
            for (i, minted) in [(e, asset.amount as i64), (e + 1, 0)] {
                let held = fold
                    .as_ref()
                    .map(|f| f.balance(self.signers[i].0, asset.currency) as i64);
                net[i] = net[i].zip(held).map(|(v, h)| v + h - minted);
            }
        }
        (conservation, net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_layout() {
        let t = ChainTopology::new(3);
        assert_eq!(t.participants(), 7);
        assert_eq!(t.customer_pid(0), 0);
        assert_eq!(t.customer_pid(3), 3);
        assert_eq!(t.escrow_pid(0), 4);
        assert_eq!(t.escrow_pid(2), 6);
        assert_eq!(t.next_free_pid(), 7);
    }

    #[test]
    fn roles() {
        let t = ChainTopology::new(3);
        assert_eq!(t.role_of(0), Some(Role::Customer(0)));
        assert_eq!(t.role_of(1), Some(Role::Customer(1)));
        assert_eq!(t.role_of(2), Some(Role::Customer(2)));
        assert_eq!(t.role_of(3), Some(Role::Customer(3)));
        assert_eq!(t.role_of(4), Some(Role::Escrow(0)));
        assert_eq!(t.role_of(6), Some(Role::Escrow(2)));
        assert_eq!(t.role_of(7), None);
    }

    #[test]
    #[should_panic(expected = "at least one escrow")]
    fn zero_escrows_rejected() {
        let _ = ChainTopology::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_customer_index_panics() {
        let t = ChainTopology::new(2);
        let _ = t.customer_pid(3);
    }

    #[test]
    fn figure1_rendering() {
        let t = ChainTopology::new(2);
        let fig = t.render_figure1();
        assert!(fig.contains("c0 --- e0 --- c1 --- e1 --- c2"));
        let dot = t.to_dot();
        assert!(dot.contains("Alice"));
        assert!(dot.contains("Bob"));
        assert!(dot.contains("Chloe1"));
        assert!(dot.contains("e1"));
    }

    #[test]
    fn venue_routes_map_hops_to_global_escrows() {
        let r = VenueRoute::linear(3);
        assert_eq!(r.hops(), 3);
        assert_eq!(r.venue(0), Some(0));
        assert_eq!(r.venue(2), Some(2));
        assert_eq!(r.venue(3), None);
        assert_eq!(r.max_venue(), Some(2));
        assert_eq!(VenueRoute::default().max_venue(), None);

        // Demand is summed per venue and sorted by venue id — a route
        // crossing venue 7 twice charges it twice.
        let r = VenueRoute::new(vec![7, 2, 7]);
        let plan = ValuePlan::uniform(3, 100);
        assert_eq!(r.demand(&plan), vec![(2, 100), (7, 200)]);

        // Hops beyond the plan contribute nothing.
        let short_plan = ValuePlan::uniform(2, 50);
        assert_eq!(r.demand(&short_plan), vec![(2, 50), (7, 50)]);
    }

    #[test]
    fn value_plans() {
        let u = ValuePlan::uniform(3, 100);
        assert_eq!(u.hops(), 3);
        assert!(u.amounts.iter().all(|a| a.amount == 100));

        let c = ValuePlan::with_commission(3, 100, 5);
        assert_eq!(
            c.amounts.iter().map(|a| a.amount).collect::<Vec<_>>(),
            vec![100, 95, 90]
        );

        let m = ValuePlan::multi_currency(3, 10);
        assert_eq!(m.amounts[0].currency, CurrencyId(0));
        assert_eq!(m.amounts[2].currency, CurrencyId(2));
    }

    #[test]
    #[should_panic]
    fn commission_exhausting_value_panics() {
        let _ = ValuePlan::with_commission(5, 10, 3);
    }

    #[test]
    fn split_conserves_value_per_hop() {
        let plan = ValuePlan::with_commission(3, 103, 2); // 103, 101, 99
        let parts = plan.split(4);
        assert_eq!(parts.len(), 4);
        for hop in 0..3 {
            let total: u64 = parts.iter().map(|p| p.amounts[hop].amount).sum();
            assert_eq!(total, plan.amounts[hop].amount, "hop {hop}");
            assert_eq!(parts[0].amounts[hop].currency, plan.amounts[hop].currency);
            // Even split: shares differ by at most one unit.
            let lo = parts.iter().map(|p| p.amounts[hop].amount).min().unwrap();
            let hi = parts.iter().map(|p| p.amounts[hop].amount).max().unwrap();
            assert!(hi - lo <= 1);
        }
        // k = 1 is the identity.
        assert_eq!(plan.split(1)[0].amounts[0].amount, 103);
    }

    #[test]
    #[should_panic(expected = "too few")]
    fn split_below_one_unit_per_path_panics() {
        let _ = ValuePlan::uniform(2, 3).split(4);
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let chain = |seed| Chain::new(2, ValuePlan::uniform(2, 1), seed, 1);
        let ((k1, x1), (k2, x2)) = (chain(9), chain(9));
        assert_eq!(k1.payment, k2.payment);
        assert_eq!(k1.customer_signer(2).id(), k2.customer_signer(2).id());
        assert_eq!(x1[0].id(), x2[0].id());
        assert_ne!(k1.payment, chain(10).0.payment);
        // All keys distinct, the extra one included.
        let mut all: Vec<KeyId> = (0..3)
            .map(|i| k1.customer_signer(i).id())
            .chain((0..2).map(|i| k1.escrow_signer(i).id()))
            .chain([x1[0].id()])
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6);
    }
}
