#!/usr/bin/env bash
# Name lints: names the repo has retired, and names only their owning
# crate may use. Each row of the table below is
#
#   row PATTERN SCOPE ALLOWED REASON
#
#   PATTERN  extended regex searched for (grep -rnE)
#   SCOPE    the paths searched, space-separated
#   ALLOWED  extended regex over grep's `path:line:text` hits that may
#            match anyway ('' = none)
#   REASON   printed under the hits
#
# Exits 1 if any row has a hit, after printing every row's hits. Run from
# anywhere: `bash scripts/lint_names.sh`.
set -u
cd "$(dirname "$0")/.."
bad=0

row() {
    local hits
    hits=$(grep -rnE "$1" $2 | grep -vE "${3:-^\$}")
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        echo "lint: $4"
        bad=1
    fi
}

code='crates src tests examples'

# sim keeps two batch entry points, run_closed and run_open; one payment
# runs through protocol::run_harness_instance.
n=$(grep -c "pub fn run" crates/sim/src/runner.rs)
if [ "$n" -gt 2 ]; then
    echo "lint: runner.rs has $n 'pub fn run' (max 2: run_closed, run_open)"
    bad=1
fi

row '\b(run_instance_with|run_specs_with|run_open_specs_with|run_open_specs_with_telemetry|run_open_specs_routed_with|run_open_specs_routed_with_telemetry)\b' \
    "$code" \
    '^crates/sim/src/compat.rs:|^crates/sim/src/lib.rs:[0-9]+: +(run_[a-z_]+, ?)+$' \
    "only benchmark/ may name the compat presets (ROADMAP 1(iii) deletes them)"

# One type per protocol harness: the two Interledger protocols are
# IlpUntunedHarness and IlpAtomicHarness. benchmark/ still says
# InterledgerHarness::{untuned,atomic}(); only sim's compat shim names it.
row '\b(IlpMode|IlpInstance)\b' "$code" '' \
    "deleted: each Interledger protocol is its own harness (IlpUntunedHarness, IlpAtomicHarness)"
row '\bInterledgerHarness\b' "$code" \
    '^crates/sim/src/compat.rs:|^crates/sim/src/lib.rs:[0-9]+:pub use compat::InterledgerHarness;$' \
    "only benchmark/ may name InterledgerHarness (sim's compat shim); use IlpUntunedHarness / IlpAtomicHarness"

# The simulator keeps no engine pre-sizing: a payment runs on an engine
# its harness resets (Engine::reset keeps the buffers the chunk's earlier
# payments grew), and the chunk size is worked out from the spec count.
row 'queue_high|reserve_capacity|queue_high_water' "$code" \
    '^crates/anta/src/|^crates/sim/src/compat.rs:' \
    "engine pre-sizing is anta's own API, called only from benchmark/ (and compat's ignored argument)"
row '\bbatch:|\.batch\b' 'crates/sim crates/protocol tests examples' '' \
    "deleted: SimConfig and CampaignConfig have no batch knob; simulate_specs chunks by spec count"

# A payment allocates what it keeps: a registration batch's keys share one
# slab, and an escrow's book is its audit log, every query a fold over it
# (the tests' reference book, after `#[cfg(test)]`, keeps its maps).
row 'Arc<Key>' 'crates/crypto/src' '' \
    "a key lives in its registration batch's slab (Arc<[Key]>), not in an Arc of its own"
if sed '/^#\[cfg(test)\]/,$d' crates/ledger/src/ledger.rs | grep -nE '\bBTreeMap\b'; then
    echo "lint: crates/ledger/src/ledger.rs keeps no map: a Ledger is its audit log"
    bad=1
fi

# One row per payment: the harness's HarnessRun is what every report and
# tally folds, beside the spec it came from.
row '\bInstanceResult\b' "$code" '' \
    "deleted: a payment's row is protocol::HarnessRun, folded with its PaymentSpec"

# Each baseline is assembled in its own crate: SwapSetup::assemble,
# DealInstance::{timelock_engine,certified_assemble} and DeadlineTm::new.
row 'ChainProcess::new\(|SwapInitiator::new\(|SwapResponder::new\(|HtlcChain::new\(' \
    "$code" '^crates/htlc/src/' \
    "only crates/htlc/src builds the HTLC processes and chains; use htlc::SwapSetup"
row 'CertifiedParty::new\(|CertifiedEscrow::new\(|CertifiedChain::new\(|TimelockParty::new\(|TimelockEscrow::new\(' \
    "$code" '^crates/deals/src/' \
    "only crates/deals/src builds the deal processes; use DealInstance::{timelock_engine,certified_assemble}"
# The two HLS deal protocols share one module (deals::deal): one vote
# payload over the domain, one arc-escrow core and one outcome.
row 'extract_timelock_outcome|extract_certified_outcome|commit_payload|abort_payload|arc_book|party_pid' \
    "$code" '' \
    "deleted: the deal outcome is DealInstance::outcome, a vote's payload is deals::deal::vote_payload(domain, deal_id), an arc's book is built by its escrow, party p is pid p"
row 'Evidence::new\(' \
    "$code" '^(crates/core/src|crates/interledger/src)/' \
    "only crates/core/src and crates/interledger/src build Evidence"

# Each chain participant is built from its setup and its index.
row 'too_many_arguments' 'crates/core crates/consensus' '' \
    "build the participant from its setup and its index"
row '\b(AliceProcess|ChloeProcess|BobProcess)\b' "$code" '' \
    "deleted: every time-bounded customer c_0…c_n is CustomerProcess::new(&setup, i)"
row 'Role::(Alice|Chloe|Bob)\b' "$code" '' \
    "deleted: a chain position is Role::Customer(i) or Role::Escrow(i) (c_0 is Alice, c_n is Bob)"
row '\b(Fig2Params|DecisionLog|SilentNotary)\b' crates '' \
    "deleted: Fig2Params (use ChainSetup), DecisionLog (CC is WeakOutcome::cc_ok), SilentNotary (use InertProcess)"

# Both payment protocols run on one Figure 1 chain: payment::topology::Chain
# holds the keys (registered once, before the registry is frozen), and both
# setups hold one Chain.
row '\bChainKeys\b' "$code" '' \
    "deleted: a setup's keys live in its payment::topology::Chain (Chain::new registers customers, escrows, then any manager keys)"
row '\bChainKeysLite\b' "$code" '' \
    "deleted: ChainSetup holds one payment::topology::Chain, whose PKI is frozen behind an Arc"

# A variant is written as its difference: the atomic notary wraps
# Theorem 3's TrustedTm, and a Figure 2 automaton forwards the message that
# entered its grey state instead of storing it. Each model process signs
# with its own key only, so fig2.rs issues exactly one χ: Bob's.
row '\bDeadlineTmState\b|atomic_tm_(commit|abort)|\bn_regs\b|\.regs\(|regs:' "$code" '' \
    "deleted: DeadlineTm wraps payment::weak::TrustedTm; automaton sends see their trigger, so there are no registers"
n=$(grep -c 'Receipt::issue' crates/core/src/timebounded/fig2.rs)
if [ "$n" -ne 1 ]; then
    echo "lint: fig2.rs calls Receipt::issue $n times (want 1: Bob's own χ; others forward the χ they received)"
    bad=1
fi

# Explorer states are hashed through std::hash::Hash, and an oracle draw
# is an option count and nothing else. Sleep sets, which need to know which
# process a choice touches, bring a tag back with the code that reads it.
row 'debug_digest' crates '' \
    "derive Hash on the value (a process: on its …State struct) and feed it to anta::fingerprint::Fnv64 instead"
row '\bFingerprint\b|fingerprint_(seq|cert|sigs|keys|book)|receipt_fields' "$code" '' \
    "deleted: the Fingerprint trait and its field-by-field helpers; derive Hash and hash through anta::fingerprint::fingerprint"
row 'ChoiceTag|ChoiceKind|choose_for|set_fingerprint_probe|was_deduped' crates '' \
    "draw with Oracle::choose and probe through Engine::run_probed"

# The paper's message and event counts are exact tests
# (tests/protocol_cost.rs) and E1's msgs column; E2's rows are
# WitnessReports; campaigns emit an epoch event after every epoch.
row '\b(expperf|expall|chain_cost|consensus_cost|PerfReport|ViolationRow|TargetPairs)\b|telemetry-interval' \
    "$code .github" '' \
    "deleted: expperf, expall and experiments::perf's tables (tests/protocol_cost.rs pins the counts), ViolationRow (use WitnessReport), PreGstPolicy::TargetPairs, --telemetry-interval"

# Each decision has one home: the notary's gate enforces external
# validity, a withholding or silent deal party is a substituted process,
# one delay rule serves both PartialSyncNet constructors, and the
# committee's base timeout is a constant. HTLC's private `participate`
# (SwapBehaviour::BobGriefs) stays.
row '\b(PreGstPolicy|cons_base_timeout)\b|AuditEntry::Transfer|\bvalidity:|\.validity\b|^[[:space:]]*(pub )?(participate|deposit|vote):|\.(participate|deposit|vote)\b' \
    "$code" '^crates/htlc/src/' \
    "deleted: PreGstPolicy, WeakSetup::cons_base_timeout, consensus::Config::validity (NotaryTm's gate), the deal parties' participate/deposit/vote switches (substitute a process through the engine builder's party hook), AuditEntry::Transfer"

# One timed-event queue: anta::queue::EventQueue, keyed by (time, rank,
# seq), runs under both the anta engine and the open-system DES, whose
# arrivals are a cursor over the arrival-sorted members, not events.
row '\bBinaryHeap\b' "$code" '^crates/anta/src/queue.rs:' \
    "one timed-event queue: use anta::queue::EventQueue"
row 'EventKind::Arrival' "$code" '' \
    "deleted: DES arrivals are a cursor over the shard's arrival-sorted members, merged with the event queue on (time, rank)"

# Campaign checkpoints are telemetry events: one JSON codec reads
# everything the repo writes and reads back.
row '\bparse_payload\b' "$code" '' \
    "deleted: a checkpoint payload is read back with telemetry::Event::parse"
row 'fn (encode|decode)\b' 'crates/telemetry crates/sim' '' \
    "no private text codecs in telemetry or sim: serialise as a telemetry::Event (MergeableSketch::to_event)"

# A tag is a pure function of (key, frame): sig.rs holds the only state
# xcrypto keeps, each key's write-once midstates and remembered frames.
# The one other hit is sha256.rs's #[cfg(test)] compression counter.
row 'OnceLock|Mutex|RwLock|RefCell|Cell<|thread_local' crates/crypto/src \
    '^crates/crypto/src/sig.rs:|^crates/crypto/src/sha256.rs:[0-9]+:(thread_local! \{|    static COMPRESSIONS: std::cell::Cell<u64> = )' \
    "interior mutability in xcrypto only in crates/crypto/src/sig.rs: a tag is a pure function of (key, frame)"

# Unsafe code lives in one library file: the SHA-NI kernel, behind a safe
# dispatcher. xcrypto's root denies it (the kernel opts back in); every
# other crate root forbids it outright. The one test file with unsafe code
# is the allocation counter's `GlobalAlloc` impl, in its own test binary.
row '\bunsafe ?(\{|fn\b|impl\b|trait\b|extern\b)|(allow|expect|warn)\([^)]*\bunsafe_code' \
    "$code shims" '^crates/crypto/src/sha256/x86.rs:|^tests/alloc_counts.rs:' \
    "unsafe code only in crates/crypto/src/sha256/x86.rs (the SHA-NI kernel; call sha256's safe API) and tests/alloc_counts.rs (its counting #[global_allocator])"
n=$(grep -lxF '#![forbid(unsafe_code)]' crates/*/src/lib.rs | wc -l)
if [ "$n" -ne 11 ] || ! grep -qxF '#![deny(unsafe_code)]' crates/crypto/src/lib.rs; then
    echo "lint: $n of crates/*/src/lib.rs forbid unsafe_code (want 11: all but xcrypto, which denies it)"
    bad=1
fi

# Signing allocates nothing: every signed payload is an
# xcrypto::wire::Payload on the stack, and a key remembers its frames
# inline.
row '[-]> Vec<u8>' 'crates/crypto/src crates/core/src crates/deals/src crates/consensus/src' '' \
    "a payload builder returns an xcrypto::wire::Payload (a stack buffer), not a Vec<u8>"
row 'Box<\[u8\]>' crates/crypto/src '' \
    "a key's remembered frames are inline sig::Frames, not boxed"

# Each count has one owner. A split payment's legs join in
# HarnessRun::join; the eight outcome counters are sim::OutcomeCounts,
# which a CampaignTally holds as `outcomes`; a venue's DES counters live
# in its LiquidityBook account (protocol::VenueEvents, re-exported as
# sim::VenueEvents).
row '\.tally(\(\))?\.(success|refunds|stuck|violations|rejected|failed|griefed|byzantine)\b' \
    "$code" '' \
    "moved: a CampaignTally's outcome counters are its outcomes field, a sim::OutcomeCounts"
row 'metrics::(\{[^}]*)?\bVenueEvents\b' "$code" '' \
    "moved: VenueEvents is protocol::liquidity::VenueEvents (sim::VenueEvents), kept in the book's per-venue account"
row '\bshard_view\b' "$code" '' \
    "deleted: each DES shard drives LiquidityBook::new(liq, venues), merged with LiquidityBook::merge"
row '\bspent_at\b' "$code" '' \
    "deleted: admission reads a venue's spend only through LiquidityBook::load_at"
row '\breserved_at\b' "$code" '' \
    "deleted: read a venue's reservation through LiquidityBook::load_at or venue_samples"
row 'BTreeMap<u32, VenueEvents>|\bseverity\b' crates/sim/src '' \
    "the DES keeps no venue counters or outcome order of its own: LiquidityBook::events_mut / apply_lock count, HarnessRun::join folds legs"
# An open campaign's four gate counts are the tally's: rows offered,
# rejected outcomes, and the gate-wait sketch's samples.
row '^ *pub (offered|admitted|rejected|queued):' crates/sim/src/campaign.rs '' \
    "deleted: LiquidityTally's offered/admitted/rejected/queued; the tally owns them (CampaignTally::gate_counts)"
row 'tally(\(\))?\.liquidity\b.*\.(offered|admitted|rejected|queued)\b' "$code" '' \
    "deleted: LiquidityTally's offered/admitted/rejected/queued; read CampaignTally::gate_counts"

# Each escrow family declares its lifecycle labels once: payment's two
# escrows and the deals' arc escrow as a ledger::Marks, the HTLC chain as
# three consts. Readers name the declaration; tests keep their literals,
# because they pin the labels themselves.
row '"(weak_)?escrow_(locked|lock_rejected|released|refunded)"|"arc_(escrowed|lock_rejected|released|returned)"|"htlc_(opened|claimed|reclaimed)"' \
    crates '^crates/core/src/timebounded/escrow.rs:|^crates/core/src/weak/participants.rs:|^crates/deals/src/deal.rs:|^crates/htlc/src/swap.rs:|^crates/[a-z]+/tests/' \
    "name the escrow family's declaration (payment::{timebounded,weak}::ESCROW_MARKS, deals::deal::ESCROW_MARKS, htlc::swap::MARK_*), not the label"

# Scoped threads are std::thread::scope. The crossbeam shim and its two
# Cargo edges stay until ROADMAP 1(ii) regenerates benchmark/Cargo.lock.
row 'crossbeam::' crates '' \
    "use std::thread::scope"

# The notary committee decides an xcrypto::Verdict: consensus has no
# value type parameter, and its payloads write Verdict::wire_tag.
row '\bConsensusValue\b' 'crates src tests' '' \
    "deleted: the committee decides an xcrypto::Verdict (consensus payloads write Verdict::wire_tag)"

# One owner for a payment's engine in each crate: the quantised config
# (σ in SIGMA_BUCKETS steps) is payment::timing::SyncParams::engine_config,
# and the network (δ in DELAY_BUCKETS steps, the fault layer) and the reset
# are protocol::harness::ready_engine. Comments may name them. An
# `assemble` is the one builder: an engine-returning twin beside it is
# Engine::new plus that assemble (ChainSetup::build_engine_cfg stays for
# benchmark/).
row '\b(SIGMA_BUCKETS|DELAY_BUCKETS)\b|FaultyNet::new|sigma_buckets:' 'crates/core/src crates/protocol/src' \
    '^crates/core/src/timing.rs:|^crates/protocol/src/harness.rs:|^[^:]+:[0-9]+: *//' \
    "a payment's engine is chosen once per crate: SyncParams::engine_config (σ) and protocol::harness::ready_engine (network, faults, reset)"
row '\b(SwapSetup::build_engine|certified_engine|build_engine_cfg)\b' "$code" \
    '^crates/core/src/timebounded/scenario.rs:|ChainSetup::build_engine_cfg|fn build_engine_cfg\b|^(crates/experiments/src/e4.rs|tests/timebounded_traces.rs):[0-9]+: .*setup\.build_engine_cfg\(' \
    "deleted: SwapSetup::build_engine, DealInstance::certified_engine and WeakSetup::build_engine_cfg; write Engine::new, then assemble (SwapSetup::assemble, certified_assemble, WeakSetup::assemble)"

# A send loop reads its recipients where they are: cloning a field to
# loop over it copies a collection per send.
row 'for .+ in self\.[a-z_]+\.clone\(\)' 'crates/*/src' '' \
    "loop over the field by reference (a pid range as start..end), not over a clone of it"

exit $bad
