#!/usr/bin/env bash
# Negative controls as code: every row breaks the program on purpose and
# names a command that must then fail. Each row of the table below is
#
#   row   FILE SUBST COMMAND REASON
#   known ITEM FILE SUBST COMMAND REASON
#
#   FILE     the file the mutant edits, relative to the repo root
#   SUBST    a perl substitution (perl -0pi -e) applied to FILE
#   COMMAND  run from the copy's root; it must exit non-zero (the mutant
#            is killed)
#   REASON   what the mutant removes, and which test kills it
#   ITEM     the ROADMAP item of a known survivor: a `known` row is
#            reported, not failed on, while COMMAND still passes. The
#            change that kills it removes the mark.
#
# The tree is copied once (tar, without target/); each row applies its
# substitution in the copy, runs its command and restores the file. Exits
# 1 if an unmarked row survives, a known survivor is killed, a
# substitution matches nothing, or a command fails without a failing test
# (a mutant that does not build, say). Every row rebuilds what depends on
# its file, so nightly CI runs it and tier-1 does not. Run from anywhere:
# `bash scripts/mutants.sh`.
set -u
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar --exclude=./target --exclude=./benchmark/target --exclude=./.git -cf - . | tar -xf - -C "$work"
start=$SECONDS
bad=0

mutate() {
    local item=$1 file=$2 subst=$3 cmd=$4 reason=$5 t0=$SECONDS verdict
    cp "$work/$file" "$work/.orig"
    perl -0pi -e "$subst" "$work/$file"
    if cmp -s "$work/$file" "$work/.orig"; then
        verdict="UNMATCHED"
        bad=1
    elif (cd "$work" && eval "$cmd") >"$work/.log" 2>&1; then
        if [ "$item" = - ]; then
            verdict="SURVIVED"
            bad=1
        else
            verdict="survives (known, item $item)"
        fi
    elif ! grep -q 'test result: FAILED' "$work/.log"; then
        verdict="FAILED WITHOUT A FAILING TEST" # a mutant that does not build, say
        bad=1
    elif [ "$item" = - ]; then
        verdict="killed"
    else
        verdict="KILLED: remove the known-survivor mark (item $item)"
        bad=1
    fi
    cp "$work/.orig" "$work/$file"
    printf '%-40s %4ds  %s: %s\n' "$verdict" $((SECONDS - t0)) "$file" "$reason"
}
row() { mutate - "$@"; }
known() { mutate "$@"; }

tier1='cargo test -q --offline'
speakers='cargo test -q --offline --test speakers'
payment='cargo test -q --offline -p payment --lib'
deals='cargo test -q --offline -p deals --lib'

# The escrow core both payment protocols share: the guarded lock on $.
core=crates/core/src/escrow.rs
for p in timebounded weak; do
    row $core 's/from != self\.up \|\| //' \
        "$speakers a_${p}_escrow_takes_money_only_from_its_upstream_customer" \
        "$p: \$ from any pid locks (speakers::a_${p}_escrow_takes_money_only_from_its_upstream_customer)"
    row $core 's/ \|\| payment != self\.payment//' \
        "$speakers a_${p}_escrow_locks_only_this_payments_amount_and_only_once" \
        "$p: \$ for another payment locks (speakers::a_${p}_escrow_locks_only_this_payments_amount_and_only_once)"
    row $core 's/ \|\| asset != self\.asset//' \
        "$speakers a_${p}_escrow_locks_only_this_payments_amount_and_only_once" \
        "$p: \$ of another amount locks (speakers::a_${p}_escrow_locks_only_this_payments_amount_and_only_once)"
    row $core 's/ \|\| self\.locked\(\)//' \
        "$speakers a_${p}_escrow_locks_only_this_payments_amount_and_only_once" \
        "$p: a second \$ is re-tried (speakers::a_${p}_escrow_locks_only_this_payments_amount_and_only_once)"
done

# Theorem 1's rule: χ only from c_{i+1}, signed by Bob, for this payment.
tb=crates/core/src/timebounded/escrow.rs
row $tb 's/if from != self\.core\.down \{/if false {/' \
    "$speakers a_timebounded_escrow_takes_chi_only_from_its_downstream_customer" \
    "χ from any pid pays (speakers::a_timebounded_escrow_takes_chi_only_from_its_downstream_customer)"
row $tb 's/ \|\| !chi\.verify\(&self\.core\.pki, self\.bob_key\)//' \
    "$payment timebounded::escrow::tests::forged_chi_rejected" \
    "an unsigned χ pays (payment timebounded::escrow::tests::forged_chi_rejected)"
row $tb 's/chi\.payment != self\.core\.payment \|\| //' \
    "$payment timebounded::escrow::tests::wrong_payment_chi_rejected" \
    "χ for another payment pays (payment timebounded::escrow::tests::wrong_payment_chi_rejected)"
known 16 $tb 's/if ctx\.now\(\) >= u \+ self\.a_i/if ctx.now() > u + self.a_i/' "$tier1" \
    "χ at exactly u + a_i pays: the timer fires first at an equal instant"

# Figure 2's escrow automaton, against which nothing runs it on every
# schedule yet.
fig2=crates/core/src/timebounded/fig2.rs
known 10 $fig2 's/b\.send\(fwd_chi, pay_down, up, forward, None\)/b.send(fwd_chi, pay_down, down, forward, None)/' \
    "$tier1" "escrow_spec forwards χ downstream (cargo test --workspace kills it)"
known 10 $fig2 's/b\.timeout\(await_chi, refund, 0, a_i, None\)/b.timeout(await_chi, refund, 0, a_i + a_i, None)/' \
    "$tier1" "escrow_spec refunds at u + 2a_i"

# The HLS deals: an escrow settles on the chain's verdict only, and a
# party believes an arc's escrow and the chain only.
row crates/deals/src/certified.rs 's/DMsg::CbcDecision \{ commit \} if from == self\.cbc =>/DMsg::CbcDecision { commit } =>/' \
    "$deals certified::tests::an_escrow_ignores_a_verdict_the_chain_did_not_send" \
    "an escrow settles on anyone's verdict (deals certified::tests::an_escrow_ignores_a_verdict_the_chain_did_not_send)"
row crates/deals/src/deal.rs 's/if from != self\.first_escrow \+ arc \{/if false {/' \
    "$deals certified::tests::a_party_believes_only_the_arcs_own_escrow" \
    "a party believes anyone's Escrowed (deals certified::tests::a_party_believes_only_the_arcs_own_escrow)"
row crates/deals/src/certified.rs 's/DMsg::CbcDecision \{ \.\. \} if from == self\.cbc => ctx\.halt\(\)/DMsg::CbcDecision { .. } => ctx.halt()/' \
    "$deals certified::tests::a_party_waits_for_the_chains_own_verdict" \
    "a party halts on anyone's verdict (deals certified::tests::a_party_waits_for_the_chains_own_verdict)"

# HTLC: chain A opens a contract only for the depositor's own pid.
row crates/htlc/src/swap.rs 's/ if ACCOUNTS\.contains\(&\(depositor, from\)\)//' \
    "cargo test -q --offline --test baselines htlc_chain_opens_only_for_the_depositor" \
    "anyone opens a contract on the depositor's balance (baselines::htlc_chain_opens_only_for_the_depositor)"

# Each count has one owner: a split payment's legs join on the worst
# outcome, and the book counts a venue's locks and releases where it
# applies them.
row crates/protocol/src/outcome.rs 's/\[Refund, Stuck, Failed, Violation\]/[Violation, Refund, Stuck, Failed]/' \
    "cargo test -q --offline --test routing split_legs_join_into_one_row" \
    "a split payment's join ranks Violation below Refund (routing::split_legs_join_into_one_row)"
row crates/protocol/src/liquidity.rs 's/a\.events\.releases \+= 1/a.events.locks += 1/' \
    "cargo test -q --offline --test telemetry venue_des_counters_are_pinned_exactly" \
    "apply_lock counts a release as a lock (telemetry::venue_des_counters_are_pinned_exactly)"

# The certified deal harness counts only arcs that locked: an arc that
# never locked is neither stuck nor returned.
classify="cargo test -q --offline -p xchain-protocol --lib deals::tests::classify_ignores_arcs_that_never_locked"
row crates/protocol/src/deals.rs 's/\(true, None\) => locked_unsettled/(_, None) => locked_unsettled/' "$classify" \
    "an arc that never locked counts as stuck (protocol deals::tests::classify_ignores_arcs_that_never_locked)"
row crates/protocol/src/deals.rs 's/\(true, Some\(false\)\) => any_returned/(_, Some(false)) => any_returned/' "$classify" \
    "an arc that never locked counts as returned (protocol deals::tests::classify_ignores_arcs_that_never_locked)"

# A resumed open campaign's liquidity record agrees with its tally.
row crates/sim/src/campaign.rs 's/if \*record != l\.to_event\(t\.gate_counts\(l\)\) \{/if false {/' \
    "cargo test -q --offline --test campaign checkpoint_with_disagreeing_gate_counts_is_refused" \
    "a liquidity record's gate counts are adopted unchecked (campaign::checkpoint_with_disagreeing_gate_counts_is_refused)"

# The one-shot HMAC and hash pad their stack blocks themselves.
oneshot='cargo test -q --offline -p xcrypto --lib hmac::tests::oneshot_mac_equals_the_streamed_mac_at_every_length'
row crates/crypto/src/sha256.rs 's/buf\[end - 8\.\.end\]/buf[end - 16..end - 8]/' "$oneshot" \
    "the padding's length word lands 8 bytes early (hmac::tests::oneshot_mac_equals_the_streamed_mac_at_every_length)"
row crates/crypto/src/sha256.rs 's/\(len \+ 9\)\.div_ceil\(64\)/(len + 8).div_ceil(64)/' "$oneshot" \
    "a message of 56 mod 64 bytes is padded into one block too few (hmac::tests::oneshot_mac_equals_the_streamed_mac_at_every_length)"

# The verdict's one signed byte has one owner, Verdict::wire_tag: decision
# certificates and the committee's consensus payloads both write it.
row crates/crypto/src/cert.rs 's/Verdict::Commit => 1,(\s+)Verdict::Abort => 2,/Verdict::Commit => 2,$1Verdict::Abort => 1,/' \
    "cargo test -q --offline -p consensus" \
    "χc and χa swap their signed byte (consensus msg::tests::verdict_payloads_are_pinned)"

# A reset engine forgets its last run: fingerprinting and the trace's
# counters go with it, or a reused engine's next payment reads them.
reuse='cargo test -q --offline --test engine_reuse'
row crates/anta/src/engine.rs 's/fx_buf,(\s+)\.\.Engine::new\(net, oracle, cfg\)/fx_buf,$1fp: self.fp.take(),$1..Engine::new(net, oracle, cfg)/' \
    "$reuse" "reset keeps the last run's fingerprinting on (engine_reuse::a_reused_engine_runs_every_payment_as_a_new_one_does)"
row crates/anta/src/trace.rs 's/delivered_to,(\s+)\.\.Self::with_mode\(mode\)/delivered_to,$1sent: self.sent,$1delivered: self.delivered,$1..Self::with_mode(mode)/' \
    "$reuse" "reset keeps the trace's sent and delivered counts (engine_reuse::a_reused_engine_runs_every_payment_as_a_new_one_does)"

# A book is its audit log: a refund's fold credits the depositor.
row crates/ledger/src/ledger.rs 's/let to = if released \{ d\.beneficiary \} else \{ d\.depositor \};/let to = d.beneficiary;/' \
    "$tier1" "a refund is credited to the beneficiary (tier-1: baselines::htlc_griefing_timeout_refund, the pinned time-bounded traces and baseline digests, …)"
# The one fold (Ledger::fold) credits a refund to the depositor too.
row crates/ledger/src/ledger.rs 's/(DealState::Refunded;\s+)d\.depositor/$1d.beneficiary/' \
    "cargo test -q --offline -p ledger --lib tests::prop_one_fold_agrees_with_the_map_book" \
    "the one fold credits a refund to the beneficiary (ledger tests::prop_one_fold_agrees_with_the_map_book)"

# A committee's quorum is k − f: two quorums share an honest member.
row crates/crypto/src/cert.rs 's/    k - f\n/    2 * f + 1\n/' \
    "cargo test -q --offline -p consensus --lib core::tests::a_byzantine_leader_cannot_split_a_committee" \
    "a committee of 5 or 6 decides on quorums of 2f + 1 (consensus core::tests::a_byzantine_leader_cannot_split_a_committee)"

# A payment's σ is split in one place: both setups and all five harnesses
# read their engine configuration from SyncParams::engine_config.
row crates/core/src/timing.rs 's/sigma_buckets: SIGMA_BUCKETS,/sigma_buckets: 1,/' "$tier1" \
    "every payment engine charges the full σ (tier-1: protocols::baseline_harness_reports_match_the_pinned_digests, timebounded_traces::time_bounded_traces_match_their_pins, alloc_counts, …)"

echo "mutants: $((SECONDS - start)) s"
exit $bad
