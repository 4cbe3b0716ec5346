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

# The simulator keeps no engine pre-sizing: a payment runs on a freshly
# built engine, and the chunk size is worked out from the spec count.
row 'queue_high|reserve_capacity|queue_high_water' "$code" \
    '^crates/anta/src/|^crates/sim/src/compat.rs:' \
    "engine pre-sizing is anta's own API, called only from benchmark/ (and compat's ignored argument)"
row '\bbatch:|\.batch\b' 'crates/sim crates/protocol tests examples' '' \
    "deleted: SimConfig and CampaignConfig have no batch knob; simulate_specs chunks by spec count"

# One row per payment: the harness's HarnessRun is what every report and
# tally folds, beside the spec it came from.
row '\bInstanceResult\b' "$code" '' \
    "deleted: a payment's row is protocol::HarnessRun, folded with its PaymentSpec"

# Each baseline is assembled in its own crate: SwapSetup,
# DealInstance::{timelock,certified}_engine and DeadlineTm::new.
row 'ChainProcess::new\(|SwapInitiator::new\(|SwapResponder::new\(|HtlcChain::new\(' \
    "$code" '^crates/htlc/src/' \
    "only crates/htlc/src builds the HTLC processes and chains; use htlc::SwapSetup"
row 'CertifiedParty::new\(|CertifiedEscrow::new\(|CertifiedChain::new\(|TimelockParty::new\(|TimelockEscrow::new\(' \
    "$code" '^crates/deals/src/' \
    "only crates/deals/src builds the deal processes; use DealInstance::{timelock,certified}_engine"
row 'Evidence::new\(' \
    "$code" '^(crates/core/src|crates/interledger/src)/' \
    "only crates/core/src and crates/interledger/src build Evidence"

# Each chain participant is built from its setup and its index.
row 'too_many_arguments' 'crates/core crates/consensus' '' \
    "build the participant from its setup and its index"
row '\b(Fig2Params|DecisionLog|SilentNotary)\b' crates '' \
    "deleted: Fig2Params (use ChainSetup), DecisionLog (CC is WeakOutcome::cc_ok), SilentNotary (use InertProcess)"

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

# Unsafe code lives in one file: the SHA-NI kernel, behind a safe
# dispatcher. xcrypto's root denies it (the kernel opts back in); every
# other crate root forbids it outright.
row '\bunsafe ?(\{|fn\b|impl\b|trait\b|extern\b)|(allow|expect|warn)\([^)]*\bunsafe_code' \
    "$code shims" '^crates/crypto/src/sha256/x86.rs:' \
    "unsafe code only in crates/crypto/src/sha256/x86.rs (the SHA-NI kernel); call sha256's safe API"
n=$(grep -lxF '#![forbid(unsafe_code)]' crates/*/src/lib.rs | wc -l)
if [ "$n" -ne 11 ] || ! grep -qxF '#![deny(unsafe_code)]' crates/crypto/src/lib.rs; then
    echo "lint: $n of crates/*/src/lib.rs forbid unsafe_code (want 11: all but xcrypto, which denies it)"
    bad=1
fi

exit $bad
