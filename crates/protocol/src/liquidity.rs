//! Shared-liquidity accounting: finite collateral budgets per escrow
//! venue, and the admission policies that turn over-committed venues into
//! rejected or queued payments.
//!
//! The paper prices success guarantees in *locked value over time*; this
//! module closes the loop by making that cost bind. Every escrow venue
//! (see [`payment::VenueRoute`]) holds a finite collateral budget. A
//! payment asks its route's venues to set aside its hop values up front
//! ([`payment::VenueRoute::demand`]); the [`LiquidityBook`] admits it
//! only while
//! every venue can cover the request, otherwise the
//! [`AdmissionPolicy`] decides between immediate rejection
//! ([`crate::ProtocolOutcome::Rejected`]) and a bounded wait in the
//! admission queue.
//!
//! The book keeps one account per venue: everything the simulator counts
//! about it. Two balances and their peaks:
//!
//! * **reserved** — admission-time commitments: the sum of admitted
//!   in-flight payments' per-venue peak demand. Admission checks run
//!   against this account, so `reserved ≤ budget` is enforced *before*
//!   any value locks.
//! * **locked** — the audited ground truth: the venue's actual locked
//!   value replayed from the harness [`crate::LockProfile`] streams.
//!   Because every payment's locked value at a venue never exceeds its
//!   reservation there, `locked ≤ reserved ≤ budget` must hold at every
//!   instant — [`LiquidityBook::violations`] counts the moments it does
//!   not, and a nonzero count fails the `exp10` experiment.
//!
//! Routed open-system runs (see `protocol::network`) use the third
//! balance, **spent**: liquidity a *successful* payment permanently
//! moved through a venue (the `consume` part of
//! [`LiquidityBook::settle`]). Spent liquidity
//! counts against the budget in [`LiquidityBook::fits`] — a drained
//! venue stays drained and the pathfinder routes around it — until a
//! rebalancing flow calls [`LiquidityBook::restore_all`]. Non-routed
//! runs never consume, so the balance stays zero and admission behaves
//! exactly as before.
//!
//! The account's [`VenueEvents`] are counted where they happen: the gate
//! counts admissions and rejections ([`LiquidityBook::events_mut`]), and
//! [`LiquidityBook::apply_lock`] the locks and releases it applies.
//!
//! Admission reads a venue only through its **committed load**,
//! `reserved + spent` ([`LiquidityBook::load_at`]): a static-route poll
//! through [`LiquidityBook::fits`], which compares it to the budget, and
//! a routed poll through the pathfinder, which filters and ranks paths
//! by it. [`LiquidityBook::load_version`] moves whenever some venue's
//! load does, so the open-system gate — one gate for both kinds of poll
//! — skips re-polling a head whose last poll failed until it moves: no
//! change in credit, no change in feasibility.

use anta::time::{SimDuration, SimTime};
use payment::VenueId;
use telemetry::Event;

/// One venue's account state at a sampling instant — the unit of the
/// telemetry venue series the campaign layer emits on epoch boundaries.
///
/// `utilization_ppm` is **peak-based** (the venue's highest audited
/// locked value against its budget, in parts per million): the book
/// tracks the time-integral of locked value only network-wide, so the
/// per-venue series reports the peak, which is exact per venue and
/// deterministic. `None` when the book is unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VenueSample {
    /// The venue this sample describes.
    pub venue: VenueId,
    /// Currently locked value (0 once drained).
    pub locked: i64,
    /// Currently reserved collateral (0 once drained).
    pub reserved: u64,
    /// Highest audited locked value the venue ever held.
    pub peak_locked: u64,
    /// Highest reservation level the venue ever held.
    pub peak_reserved: u64,
    /// `peak_locked / budget` in ppm; `None` for an unbounded book.
    pub utilization_ppm: Option<u64>,
    /// True when the venue holds no locked value and no reservations.
    pub drained: bool,
}

impl VenueSample {
    /// Renders the sample as one `venue` telemetry event, with the
    /// caller's `scope` fields (e.g. the epoch index) prepended so
    /// consumers can stitch per-epoch samples into a time series. The
    /// `utilization_ppm` field is omitted when the book is unbounded.
    pub fn to_event(&self, scope: &[(&str, u64)]) -> Event {
        let mut e = Event::new("venue");
        for (k, v) in scope {
            e = e.with_u64(k, *v);
        }
        e = e
            .with_u64("venue", self.venue as u64)
            .with_i64("locked", self.locked)
            .with_u64("reserved", self.reserved)
            .with_u64("peak_locked", self.peak_locked)
            .with_u64("peak_reserved", self.peak_reserved)
            .with_bool("drained", self.drained);
        if let Some(util) = self.utilization_ppm {
            e = e.with_u64("utilization_ppm", util);
        }
        e
    }
}

/// What the admission controller does when a payment's collateral demand
/// does not fit its route's venues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// No admission control: every payment starts at its arrival time and
    /// budgets are not enforced (the classic closed-world simulator; the
    /// book still audits how much collateral the traffic *would* need).
    Unbounded,
    /// Refuse over-committed payments on the spot: the payment becomes
    /// [`crate::ProtocolOutcome::Rejected`] and locks nothing.
    Reject,
    /// Hold over-committed payments at the admission gate until capacity
    /// frees, up to a patience of `max_wait` measured from the payment's
    /// arrival; payments the gate cannot admit by then are rejected. The
    /// gate is FIFO **per liquidity shard** (the connected component of
    /// venues linked by route overlap): while a payment queues, later
    /// arrivals *contending for the same shard* wait behind it
    /// (head-of-line blocking, which also consumes *their* patience),
    /// while traffic on disjoint venues is never blocked — deterministic,
    /// and faithful to one admission ledger per liquidity domain.
    Queue {
        /// The payer's patience: longest time between arrival and start
        /// before the payment is rejected instead.
        max_wait: SimDuration,
    },
}

impl AdmissionPolicy {
    /// Short stable label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Unbounded => "unbounded",
            AdmissionPolicy::Reject => "reject",
            AdmissionPolicy::Queue { .. } => "queue",
        }
    }

    /// Whether this policy enforces venue budgets at admission.
    pub fn bounded(&self) -> bool {
        !matches!(self, AdmissionPolicy::Unbounded)
    }

    /// The longest admissible wait at the gate ([`SimDuration::ZERO`]
    /// for [`AdmissionPolicy::Reject`]).
    pub fn max_wait(&self) -> SimDuration {
        match self {
            AdmissionPolicy::Queue { max_wait } => *max_wait,
            _ => SimDuration::ZERO,
        }
    }
}

/// One finite-liquidity regime: a per-venue collateral budget plus the
/// policy applied when it is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiquidityConfig {
    /// Collateral budget per venue (every venue of the family gets the
    /// same budget; heterogeneous budgets can come later).
    pub budget: u64,
    /// What happens to payments that do not fit.
    pub policy: AdmissionPolicy,
}

impl LiquidityConfig {
    /// The classic unbounded-collateral regime.
    pub const UNBOUNDED: LiquidityConfig = LiquidityConfig {
        budget: u64::MAX,
        policy: AdmissionPolicy::Unbounded,
    };

    /// Reject-on-full with the given per-venue budget.
    pub fn reject(budget: u64) -> Self {
        LiquidityConfig {
            budget,
            policy: AdmissionPolicy::Reject,
        }
    }

    /// Queue-with-patience with the given per-venue budget.
    pub fn queue(budget: u64, max_wait: SimDuration) -> Self {
        LiquidityConfig {
            budget,
            policy: AdmissionPolicy::Queue { max_wait },
        }
    }
}

/// What the open-system gate and the audit did at one venue, kept in
/// the venue's account of the [`LiquidityBook`]. A payment touching `k`
/// venues counts at all `k`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VenueEvents {
    /// Payments admitted whose route demands collateral at this venue.
    pub admitted: u64,
    /// Payments rejected whose route demands collateral at this venue.
    pub rejected: u64,
    /// Admitted payments that waited at the gate before starting here.
    pub queued: u64,
    /// Rejected payments that queued here and ran out of patience.
    pub expired: u64,
    /// Audited lock events (locked value increased) at this venue.
    pub locks: u64,
    /// Audited release events (locked value decreased) at this venue.
    pub releases: u64,
}

impl VenueEvents {
    /// Fold another counter set into this one (element-wise add).
    pub fn absorb(&mut self, other: &VenueEvents) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.queued += other.queued;
        self.expired += other.expired;
        self.locks += other.locks;
        self.releases += other.releases;
    }
}

/// One venue's account (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Account {
    reserved: u64,
    spent: u64,
    locked: i64,
    peak_locked: i64,
    peak_reserved: u64,
    events: VenueEvents,
}

impl Account {
    fn load(&self) -> u64 {
        self.reserved.saturating_add(self.spent)
    }

    fn drained(&self) -> bool {
        self.locked == 0 && self.reserved == 0
    }
}

/// Per-venue collateral accounting for one simulation campaign.
///
/// All mutating calls must be fed in nondecreasing time order (the
/// open-system runner's admission sweep is time-ordered by construction);
/// [`LiquidityBook::apply_lock`] debug-asserts it.
#[derive(Debug, Clone)]
pub struct LiquidityBook {
    cfg: LiquidityConfig,
    /// One account per venue id; grows to any venue a call names.
    accounts: Vec<Account>,
    /// See [`LiquidityBook::load_version`].
    load_version: u64,
    violations: usize,
    /// Time of the last applied lock event (audit stream clock).
    now: SimTime,
    /// Aggregate locked value across venues, for the utilization
    /// integral.
    locked_total: i64,
    /// ∫ locked_total dt in value·ticks.
    locked_integral: u128,
}

impl LiquidityBook {
    /// A fresh book over `venues` venues under `cfg`.
    pub fn new(cfg: &LiquidityConfig, venues: usize) -> Self {
        LiquidityBook {
            cfg: *cfg,
            accounts: vec![Account::default(); venues],
            load_version: 0,
            violations: 0,
            now: SimTime::ZERO,
            locked_total: 0,
            locked_integral: 0,
        }
    }

    /// Number of venues the book covers.
    pub fn venues(&self) -> usize {
        self.accounts.len()
    }

    /// The per-venue budget.
    pub fn budget(&self) -> u64 {
        self.cfg.budget
    }

    /// The admission policy applied when a budget is exhausted.
    pub fn policy(&self) -> AdmissionPolicy {
        self.cfg.policy
    }

    fn account(&mut self, venue: VenueId) -> &mut Account {
        let i = venue as usize;
        if i >= self.accounts.len() {
            self.accounts.resize(i + 1, Account::default());
        }
        &mut self.accounts[i]
    }

    /// Whether every `(venue, amount)` of `demand` fits its venue's
    /// remaining (unreserved, unspent) budget. Always true for an
    /// unbounded book.
    pub fn fits(&self, demand: &[(VenueId, u64)]) -> bool {
        !self.policy().bounded()
            || demand
                .iter()
                .all(|&(venue, amount)| self.load_at(venue).saturating_add(amount) <= self.budget())
    }

    /// Whether `demand` could fit this book even when completely empty —
    /// `false` means the payment can *never* be admitted under this
    /// budget, no matter how long it waits for releases.
    pub fn could_ever_fit(&self, demand: &[(VenueId, u64)]) -> bool {
        !self.policy().bounded() || demand.iter().all(|&(_, amount)| amount <= self.budget())
    }

    /// A counter that moves whenever some venue's committed load
    /// ([`LiquidityBook::load_at`]) does. [`LiquidityBook::fits`] and
    /// `load_at` are the only book state admission reads, so any
    /// admission decision — a single demand or a whole pathfinder search —
    /// that failed at one version fails identically for as long as the
    /// version stands. It stands across everything that leaves loads
    /// alone: audit events, a rebalance with nothing to restore and —
    /// the case that matters — a successful routed settlement (`settle`
    /// with `consume == amount`), which turns a reservation into spend
    /// without moving the load.
    pub fn load_version(&self) -> u64 {
        self.load_version
    }

    /// Sets `amount` of collateral aside at `venue`.
    ///
    /// Admission controllers check [`LiquidityBook::fits`] against a
    /// payment's *declared* demand, then reserve its *measured* lock
    /// peak — a byzantine payment (thieving escrow, forged certificate)
    /// can lock more than it declared, pushing a bounded book's
    /// reservation past the budget. That is not an admission bug: the
    /// gate was honest given what was knowable at the admission instant,
    /// and the over-commitment is surfaced by the collateral audit
    /// ([`LiquidityBook::apply_lock`] counts the budget violations).
    pub fn reserve(&mut self, venue: VenueId, amount: u64) {
        let a = self.account(venue);
        a.reserved += amount;
        a.peak_reserved = a.peak_reserved.max(a.reserved);
        self.load_version += u64::from(amount > 0);
    }

    /// Returns `amount` of reserved collateral at `venue`, of which
    /// `consume` is *spent*: liquidity a settled routed payment moved
    /// through the venue. Spent liquidity counts against the budget in
    /// [`LiquidityBook::fits`] until a rebalancing flow returns it via
    /// [`LiquidityBook::restore_all`]. The routed DES settles a
    /// successful payment with `consume == amount` — the reservation
    /// converts into spend, so the venue's usable budget does not bounce
    /// back on settlement — and everything else with `consume == 0`:
    /// collateral returns intact.
    pub fn settle(&mut self, venue: VenueId, amount: u64, consume: u64) {
        let a = self.account(venue);
        debug_assert!(a.reserved >= amount, "settle exceeds reservation");
        let before = a.load();
        a.reserved = a.reserved.saturating_sub(amount);
        a.spent = a.spent.saturating_add(consume);
        self.load_version += u64::from(a.load() != before);
    }

    /// The venue's committed load — reserved plus spent — which is the
    /// scarcity signal the pathfinder minimises when it ranks candidate
    /// routes of equal hop count.
    pub fn load_at(&self, venue: VenueId) -> u64 {
        self.accounts.get(venue as usize).map_or(0, Account::load)
    }

    /// A network-wide rebalancing flow: every venue's spent liquidity is
    /// restored (the circular flow tops drained venues back up). Returns
    /// the total value restored across venues.
    pub fn restore_all(&mut self) -> u64 {
        let mut restored = 0u64;
        for a in &mut self.accounts {
            restored = restored.saturating_add(std::mem::take(&mut a.spent));
        }
        self.load_version += u64::from(restored > 0);
        restored
    }

    /// Replays one audited lock event: `delta` of actual value locked (+)
    /// or released (−) at `venue`, at time `at`, and counts it in the
    /// venue's [`VenueEvents`]. Advances the utilization integral and
    /// counts a budget violation whenever a bounded venue's locked value
    /// exceeds its budget.
    pub fn apply_lock(&mut self, at: SimTime, venue: VenueId, delta: i64) {
        debug_assert!(at >= self.now, "lock events must be time-ordered");
        self.finish(at);
        self.locked_total += delta;

        let (bounded, budget) = (self.policy().bounded(), self.budget());
        let a = self.account(venue);
        a.locked += delta;
        a.peak_locked = a.peak_locked.max(a.locked);
        if delta < 0 {
            a.events.releases += 1;
        } else {
            a.events.locks += 1;
        }
        let over = bounded && a.locked.max(0) as u64 > budget;
        self.violations += usize::from(over);
    }

    /// Venue `venue`'s counters, for the gate to count a decision in.
    pub fn events_mut(&mut self, venue: VenueId) -> &mut VenueEvents {
        &mut self.account(venue).events
    }

    /// Advances the utilization integral to `at` (an earlier instant
    /// changes nothing); closes it at the campaign horizon.
    pub fn finish(&mut self, at: SimTime) {
        if at > self.now {
            let dt = at.saturating_since(self.now).ticks();
            self.locked_integral += self.locked_total.max(0) as u128 * dt as u128;
            self.now = at;
        }
    }

    /// Times a bounded venue's audited locked value exceeded its budget —
    /// the collateral-conservation assertion; must stay zero.
    pub fn violations(&self) -> usize {
        self.violations
    }

    /// True when every venue's locked value is back to zero and every
    /// reservation has been returned — the end-of-campaign drain check.
    pub fn drained(&self) -> bool {
        self.accounts.iter().all(Account::drained)
    }

    /// The largest audited locked value any single venue ever held.
    pub fn peak_locked_venue(&self) -> u64 {
        let peaks = self.accounts.iter().map(|a| a.peak_locked.max(0) as u64);
        peaks.max().unwrap_or(0)
    }

    /// The largest reservation level any single venue ever held.
    pub fn peak_reserved_venue(&self) -> u64 {
        let peaks = self.accounts.iter().map(|a| a.peak_reserved);
        peaks.max().unwrap_or(0)
    }

    /// Time-averaged utilization of the network's total collateral in
    /// parts per million: `∫ locked dt / (horizon × budget × venues)`.
    /// `None` when the horizon is empty or the budget unbounded.
    pub fn utilization_ppm(&self, horizon: SimDuration) -> Option<u64> {
        let budget = self.budget();
        if !self.policy().bounded() || horizon.is_zero() || self.venues() == 0 || budget == 0 {
            return None;
        }
        let capacity = budget as u128 * self.venues() as u128 * horizon.ticks() as u128;
        Some((self.locked_integral.saturating_mul(1_000_000) / capacity) as u64)
    }

    /// Snapshots every venue's account, in venue-id order — fully
    /// deterministic, since the book's state is (see
    /// [`LiquidityBook::merge`]). This is the sampling API the campaign
    /// layer reads on epoch boundaries to build per-venue utilization
    /// and drain time-series.
    pub fn venue_samples(&self) -> Vec<VenueSample> {
        let budget =
            (self.policy().bounded() && self.budget() > 0).then_some(self.budget() as u128);
        let venues = self.accounts.iter().enumerate();
        venues
            .map(|(i, a)| {
                let peak_locked = a.peak_locked.max(0) as u64;
                VenueSample {
                    venue: i as VenueId,
                    locked: a.locked,
                    reserved: a.reserved,
                    peak_locked,
                    peak_reserved: a.peak_reserved,
                    utilization_ppm: budget.map(|b| (peak_locked as u128 * 1_000_000 / b) as u64),
                    drained: a.drained(),
                }
            })
            .collect()
    }

    /// The counters of every venue with any, in venue-id order.
    pub fn venue_events(&self) -> Vec<(VenueId, VenueEvents)> {
        let touched = self.accounts.iter().enumerate();
        touched
            .filter(|(_, a)| a.events != VenueEvents::default())
            .map(|(i, a)| (i as VenueId, a.events))
            .collect()
    }

    /// Convenience: would this route+demand pair be admitted right now,
    /// and if so, reserve it — a test-visible single-step admission.
    pub fn try_admit(&mut self, demand: &[(VenueId, u64)]) -> bool {
        if !self.fits(demand) {
            return false;
        }
        for &(venue, amount) in demand {
            self.reserve(venue, amount);
        }
        true
    }

    /// Folds a shard's own book of the same config into this book.
    ///
    /// Sound only when the two books were driven over **disjoint venue
    /// sets** (the sharded runner's invariant): per-venue accounts merge
    /// element-wise, the utilization
    /// integrals add (the integral of a sum over disjoint venues is the
    /// sum of integrals), violation counts add, and the audit clock
    /// advances to the later of the two. Debug builds assert the
    /// disjointness.
    pub fn merge(&mut self, other: &LiquidityBook) {
        debug_assert_eq!(self.cfg, other.cfg, "merging different budgets or policies");
        if other.venues() > self.venues() {
            self.accounts.resize(other.venues(), Account::default());
        }
        for (i, (a, b)) in self.accounts.iter_mut().zip(&other.accounts).enumerate() {
            debug_assert!(
                *a == Account::default() || *b == Account::default(),
                "venue {i} was driven by both sides of a shard merge"
            );
            a.reserved += b.reserved;
            a.spent += b.spent;
            a.locked += b.locked;
            a.peak_locked = a.peak_locked.max(b.peak_locked);
            a.peak_reserved = a.peak_reserved.max(b.peak_reserved);
            a.events.absorb(&b.events);
        }
        self.load_version += 1;
        self.violations += other.violations;
        self.locked_total += other.locked_total;
        self.locked_integral += other.locked_integral;
        self.now = self.now.max(other.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn admission_enforces_per_venue_budgets() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 3);
        assert!(book.try_admit(&[(0, 60), (1, 60)]));
        // Venue 0 has 40 left: a 50-unit request must bounce even though
        // venue 2 is empty.
        assert!(!book.try_admit(&[(0, 50), (2, 10)]));
        assert!(book.try_admit(&[(0, 40), (2, 100)]));
        assert_eq!(book.load_at(0), 100);
        assert_eq!(book.venue_samples()[0].reserved, 100, "reserved, not spent");
        assert_eq!(book.peak_reserved_venue(), 100);
        book.settle(0, 60, 0);
        assert!(book.try_admit(&[(0, 50)]));
    }

    #[test]
    fn unbounded_book_admits_everything() {
        let mut book = LiquidityBook::new(&LiquidityConfig::UNBOUNDED, 1);
        assert!(book.try_admit(&[(0, u64::MAX / 2)]));
        assert!(book.fits(&[(0, u64::MAX / 2)]));
        assert_eq!(book.violations(), 0);
        assert_eq!(book.utilization_ppm(SimDuration::from_secs(1)), None);
    }

    #[test]
    fn audit_counts_budget_violations_and_drain() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 2);
        book.apply_lock(t(0), 0, 80);
        assert_eq!(book.violations(), 0);
        book.apply_lock(t(5), 0, 40); // 120 > 100
        assert_eq!(book.violations(), 1);
        assert!(!book.drained());
        book.apply_lock(t(9), 0, -120);
        assert!(book.drained());
        assert_eq!(book.peak_locked_venue(), 120);
    }

    #[test]
    fn utilization_integrates_locked_value_over_time() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 1);
        // 100 units locked for half of a 20-tick horizon over one
        // 100-budget venue ⇒ 50% utilization.
        book.apply_lock(t(0), 0, 100);
        book.apply_lock(t(10), 0, -100);
        book.finish(t(20));
        assert_eq!(
            book.utilization_ppm(SimDuration::from_ticks(20)),
            Some(500_000)
        );
    }

    #[test]
    fn policy_labels_and_waits() {
        assert_eq!(AdmissionPolicy::Unbounded.label(), "unbounded");
        assert!(!AdmissionPolicy::Unbounded.bounded());
        assert_eq!(AdmissionPolicy::Reject.max_wait(), SimDuration::ZERO);
        let q = AdmissionPolicy::Queue {
            max_wait: SimDuration::from_millis(5),
        };
        assert!(q.bounded());
        assert_eq!(q.max_wait(), SimDuration::from_millis(5));
        assert_eq!(q.label(), "queue");
        assert_eq!(LiquidityConfig::UNBOUNDED.policy.label(), "unbounded");
    }

    #[test]
    fn could_ever_fit_is_a_budget_ceiling_check() {
        let book = LiquidityBook::new(&LiquidityConfig::reject(100), 2);
        assert!(book.could_ever_fit(&[(0, 100), (1, 1)]));
        assert!(!book.could_ever_fit(&[(0, 101)]), "exceeds the raw budget");
        let unbounded = LiquidityBook::new(&LiquidityConfig::UNBOUNDED, 1);
        assert!(unbounded.could_ever_fit(&[(0, u64::MAX)]));
    }

    #[test]
    fn shard_views_merge_back_into_one_book() {
        let cfg = LiquidityConfig::reject(100);
        let mut root = LiquidityBook::new(&cfg, 4);
        // Two shards over disjoint venue pairs {0,1} and {2,3}.
        let mut a = LiquidityBook::new(&cfg, 4);
        let mut b = LiquidityBook::new(&cfg, 4);
        assert!(a.try_admit(&[(0, 60), (1, 40)]));
        a.apply_lock(t(0), 0, 60);
        a.apply_lock(t(10), 0, -60);
        a.settle(0, 60, 0);
        a.settle(1, 40, 0);
        a.finish(t(10));
        assert!(b.try_admit(&[(2, 90)]));
        b.apply_lock(t(5), 2, 90);
        b.apply_lock(t(25), 2, -90);
        b.settle(2, 90, 0);
        b.finish(t(25));
        root.merge(&a);
        root.merge(&b);
        assert_eq!(root.peak_locked_venue(), 90);
        assert_eq!(root.peak_reserved_venue(), 90);
        assert_eq!(root.violations(), 0);
        assert!(root.drained());
        // Integral: 60×10 + 90×20 = 2 400 value·ticks over a 25-tick
        // horizon of 4 venues × 100 budget = 10 000 capacity ⇒ 24%.
        assert_eq!(
            root.utilization_ppm(SimDuration::from_ticks(25)),
            Some(240_000)
        );
    }

    #[test]
    fn merge_accumulates_violations_and_grows_the_venue_space() {
        let cfg = LiquidityConfig::reject(50);
        let mut root = LiquidityBook::new(&cfg, 1);
        let mut shard = LiquidityBook::new(&cfg, 1);
        shard.apply_lock(t(0), 6, 80); // grows the book; 80 > 50: one violation
        shard.apply_lock(t(4), 6, -80);
        root.merge(&shard);
        assert_eq!(root.venues(), 7);
        assert_eq!(root.violations(), 1);
        assert_eq!(root.peak_locked_venue(), 80);
        assert!(root.drained());
    }

    #[test]
    fn venue_samples_track_peaks_utilization_and_drain() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 2);
        assert!(book.try_admit(&[(0, 60)]));
        book.apply_lock(t(0), 0, 60);
        book.apply_lock(t(8), 0, -60);
        book.settle(0, 60, 0);
        let samples = book.venue_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].venue, 0);
        assert_eq!(samples[0].peak_locked, 60);
        assert_eq!(samples[0].peak_reserved, 60);
        assert_eq!(samples[0].utilization_ppm, Some(600_000));
        assert!(samples[0].drained);
        assert_eq!(samples[1].peak_locked, 0);
        assert!(samples[1].drained);

        // Each sample's event mirrors it, scoped by epoch.
        let first = samples[0].to_event(&[("epoch", 4)]);
        assert_eq!(first.kind(), "venue");
        assert_eq!(first.u64_field("epoch"), Some(4));
        assert_eq!(first.u64_field("peak_locked"), Some(60));
        assert_eq!(first.bool_field("drained"), Some(true));

        // An unbounded book has no utilization to report.
        let free = LiquidityBook::new(&LiquidityConfig::UNBOUNDED, 1);
        assert_eq!(free.venue_samples()[0].utilization_ppm, None);
    }

    #[test]
    fn spent_liquidity_drains_the_budget_until_restored() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 2);
        assert!(book.try_admit(&[(0, 70)]));
        // Settlement converts the reservation into spend: the budget
        // stays consumed even though nothing is reserved any more.
        book.settle(0, 70, 70);
        assert_eq!(book.venue_samples()[0].reserved, 0);
        assert_eq!(book.load_at(0), 70);
        assert!(!book.fits(&[(0, 40)]));
        assert!(book.fits(&[(0, 30), (1, 100)]));
        assert!(book.could_ever_fit(&[(0, 100)]), "rebalancing can restore");
        assert!(book.drained(), "spend is not outstanding collateral");
        // A rebalancing flow returns the spent value network-wide.
        assert_eq!(book.restore_all(), 70);
        assert_eq!(book.load_at(0), 0);
        assert!(book.fits(&[(0, 100)]));
    }

    #[test]
    fn load_version_moves_exactly_when_a_committed_load_does() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(100), 2);
        let v0 = book.load_version();
        book.reserve(0, 70);
        let v1 = book.load_version();
        assert_ne!(v1, v0, "a reservation raises the load");
        // A successful settlement turns the whole reservation into spend:
        // same load, same version, same admission answers.
        book.settle(0, 70, 70);
        assert_eq!(book.load_version(), v1);
        assert_eq!(book.load_at(0), 70);
        // Audit events and empty rebalances do not touch loads either.
        book.apply_lock(t(1), 0, 5);
        book.apply_lock(t(2), 0, -5);
        assert_eq!(book.load_version(), v1);
        // A failed payment returns collateral intact, a partial spend
        // returns part of it, a rebalance returns spend: all lower a load.
        book.reserve(1, 40);
        let v2 = book.load_version();
        book.settle(1, 30, 0);
        let v3 = book.load_version();
        book.settle(1, 10, 4);
        let v4 = book.load_version();
        assert_eq!(book.restore_all(), 74);
        let v5 = book.load_version();
        assert!(v1 != v2 && v2 != v3 && v3 != v4 && v4 != v5);
        assert_eq!(book.restore_all(), 0);
        assert_eq!(book.load_version(), v5, "nothing left to restore");
    }

    #[test]
    fn merge_sums_spent_liquidity() {
        let cfg = LiquidityConfig::reject(100);
        let mut root = LiquidityBook::new(&cfg, 2);
        let mut shard = LiquidityBook::new(&cfg, 2);
        assert!(shard.try_admit(&[(1, 50)]));
        shard.settle(1, 50, 50);
        root.merge(&shard);
        assert_eq!(root.load_at(1), 50);
        assert_eq!(root.venue_samples()[1].reserved, 0, "spent, not reserved");
        assert!(!root.fits(&[(1, 60)]));
        assert_eq!(root.restore_all(), 50);
    }

    #[test]
    fn book_grows_to_unseen_venues() {
        let mut book = LiquidityBook::new(&LiquidityConfig::reject(10), 0);
        assert!(book.try_admit(&[(7, 10)]));
        assert_eq!(book.venues(), 8);
        assert_eq!(book.load_at(7), 10);
        assert_eq!(book.venue_samples()[7].reserved, 10);
        assert_eq!(book.load_at(3), 0);
    }
}
