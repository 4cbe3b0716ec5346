//! Allocations, counted exactly. This test binary's global allocator
//! counts every `alloc`, `alloc_zeroed` and `realloc` made on the calling
//! thread and forwards it to the system allocator; no library installs
//! one. A payment instance runs on one thread and is a pure function of
//! (harness, spec, fault plan), so its allocation count is too, and it is
//! pinned here per harness. Signing and verifying allocate nothing: every
//! signed payload and frame fits its stack buffer.

use crosschain::anta::net::NetFaults;
use crosschain::anta::time::SimDuration;
use crosschain::consensus::msg::{
    propose_payload, sign_propose, sign_vote, vote_payload, VoteKind, DOM_VOTE,
};
use crosschain::deals::certified::DOM_DEAL_ABORT;
use crosschain::deals::deal::{self, DOM_DEAL_COMMIT};
use crosschain::payment::msg::{
    promise_payload, tm_input_payload, PromiseKind, SignedPromise, TmInput, TmInputKind,
    DOM_PROMISE, DOM_TM_INPUT,
};
use crosschain::protocol::{run_harness_instance, with_harness, HARNESS_LABELS};
use crosschain::sim::prelude::*;
use crosschain::sim::workload;
use crosschain::xcrypto::cert::{DOM_DECISION, DOM_RECEIPT};
use crosschain::xcrypto::sig::FRAME_CAP;
use crosschain::xcrypto::wire::{Payload, PAYLOAD_CAP};
use crosschain::xcrypto::{Authority, DecisionCert, KeyId, PaymentId, Pki, Receipt, Verdict};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` needs no lazy set-up, so this allocates
    // nothing; `try_with` skips threads that are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a thread-local `Cell<u64>`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The benchmark's `closed_mix` fault mix: 5 % crash, 2.5 % each late Bob,
/// forging Chloe and thieving escrow, 1 % message drop, 10 % extra delay.
fn mixed_faults() -> FaultPlan {
    FaultPlan {
        crash_permille: 50,
        late_bob_permille: 25,
        forging_chloe_permille: 25,
        thieving_escrow_permille: 25,
        net: NetFaults {
            drop_permille: 10,
            delay_permille: 100,
            extra_delay: SimDuration::from_millis(2),
            delay_buckets: 4,
        },
    }
}

/// Allocations of `run_harness_instance` on 96 linear-3 specs (seed 42)
/// under the mixed fault plan, per harness of `HARNESS_LABELS`.
#[test]
fn payment_instances_allocate_exactly_the_pinned_counts() {
    let specs = workload::generate(&WorkloadConfig::new(
        TopologyFamily::Linear { n: 3 },
        96,
        42,
    ));
    let plan = mixed_faults();
    let got: Vec<(&str, u64)> = HARNESS_LABELS
        .iter()
        .map(|&label| {
            let total = with_harness!(label, |h| allocations_in(|| {
                for spec in &specs {
                    run_harness_instance(&h, spec, &plan, false);
                }
            }));
            (label, total)
        })
        .collect();
    let want = [
        ("timebounded", 5_703),
        ("htlc", 3_586),
        ("ilp-untuned", 5_870),
        ("ilp-atomic", 9_088),
        ("deals", 7_078),
    ];
    assert_eq!(
        got,
        want,
        "allocations per harness over 96 payments moved; per payment: {:?}",
        got.iter()
            .map(|&(l, n)| (l, n as f64 / specs.len() as f64))
            .collect::<Vec<_>>()
    );
}

#[test]
fn signing_and_verifying_allocate_nothing() {
    let mut pki = Pki::new(11);
    let keys: Vec<_> = pki.register_many(3);
    let ids: Vec<KeyId> = keys.iter().map(|(id, _)| *id).collect();
    let (escrow, bob, notary) = (&keys[0].1, &keys[1].1, &keys[2].1);
    let (_, forger) = Pki::new(12).register();
    let bound = SimDuration::from_millis(40);

    let mut payment = None;
    assert_eq!(
        allocations_in(|| payment = Some(PaymentId::derive(5, &ids))),
        0,
        "deriving a payment id"
    );
    let payment = payment.unwrap();
    let signed = allocations_in(|| {
        // First uses: the midstates are derived and two frames remembered.
        let g = SignedPromise::issue(escrow, PromiseKind::Guarantee, payment, 0, bound);
        let p = SignedPromise::issue(escrow, PromiseKind::Promise, payment, 0, bound);
        let chi = Receipt::issue(bob, payment);
        // Remembered verifies, a computed one (a third frame) and a
        // rejected forgery.
        assert!(g.verify(&pki, ids[0]) && p.verify(&pki, ids[0]));
        assert!(chi.verify(&pki, ids[1]));
        let t = TmInput::issue(escrow, TmInputKind::Locked, payment, 0);
        assert!(t.verify(&pki, ids[0]));
        let forged = Receipt::issue(&forger, payment);
        assert!(!forged.verify(&pki, ids[0]));
        // Consensus and deal votes.
        let v = sign_vote(notary, 1, VoteKind::Precommit, 0, Some(Verdict::Commit));
        let payload = vote_payload(1, VoteKind::Precommit, 0, Some(Verdict::Commit));
        assert!(pki.verify(&v, DOM_VOTE, &payload));
        sign_propose(notary, 1, 0, Verdict::Abort, Some(0));
        let d = notary.sign(
            DOM_DEAL_COMMIT,
            &deal::vote_payload(DOM_DEAL_COMMIT, &payment),
        );
        assert!(pki.verify(
            &d,
            DOM_DEAL_COMMIT,
            &deal::vote_payload(DOM_DEAL_COMMIT, &payment)
        ));
    });
    assert_eq!(signed, 0, "signs and verifies allocate nothing");

    // A committee certificate: every member signed, two must verify.
    let decision = DecisionCert::payload(&payment, Verdict::Commit);
    let sigs = keys.iter().map(|(_, s)| s.sign(DOM_DECISION, &decision));
    let cert = DecisionCert::assemble(payment, Verdict::Commit, sigs.collect());
    let committee = Authority::Committee {
        members: ids.clone(),
        threshold: 2,
    };
    assert_eq!(
        allocations_in(|| assert!(cert.verify(&pki, &committee))),
        0,
        "verifying a committee certificate"
    );
}

#[test]
fn every_signed_payload_and_frame_fits_the_stack_buffers() {
    let payment = PaymentId([0xff; 32]);
    let wide = SimDuration::from_ticks(u64::MAX);
    let signed: Vec<(&str, &[u8], Payload)> = vec![
        (
            "promise",
            DOM_PROMISE,
            promise_payload(PromiseKind::Promise, &payment, usize::MAX, wide),
        ),
        (
            "tm input",
            DOM_TM_INPUT,
            tm_input_payload(TmInputKind::AbortRequest, &payment, u64::MAX),
        ),
        ("receipt", DOM_RECEIPT, Receipt::payload(&payment)),
        (
            "decision",
            DOM_DECISION,
            DecisionCert::payload(&payment, Verdict::Abort),
        ),
        (
            "deal commit vote",
            DOM_DEAL_COMMIT,
            deal::vote_payload(DOM_DEAL_COMMIT, &payment),
        ),
        (
            "deal abort vote",
            DOM_DEAL_ABORT,
            deal::vote_payload(DOM_DEAL_ABORT, &payment),
        ),
        (
            "consensus vote",
            DOM_VOTE,
            vote_payload(
                u64::MAX,
                VoteKind::Precommit,
                u32::MAX,
                Some(Verdict::Commit),
            ),
        ),
        (
            "consensus proposal",
            DOM_VOTE,
            propose_payload(u64::MAX, u32::MAX, Verdict::Commit, Some(u32::MAX)),
        ),
    ];
    let mut longest = 0;
    for (kind, domain, payload) in &signed {
        let frame = 16 + domain.len() + payload.len();
        assert!(
            payload.len() <= PAYLOAD_CAP,
            "{kind}: {} bytes",
            payload.len()
        );
        assert!(frame <= FRAME_CAP, "{kind}'s frame: {frame} bytes");
        longest = longest.max(payload.len());
    }
    assert_eq!(longest, 87, "the promise is the longest payload");
}
