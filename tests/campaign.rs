//! Crash-safety of streaming campaigns: a campaign checkpointed after
//! epoch `k`, dropped (the programmatic stand-in for SIGKILL between
//! epochs — the checkpoint file is all that survives either way), and
//! resumed from disk must produce a report **bit-identical** to an
//! uninterrupted run, at any thread count. Plus: checkpoint corruption,
//! config drift, v1 files and tallies no run can produce are refused,
//! hostile checkpoints with a valid CRC error out instead of panicking,
//! two campaigns in one directory never share a temp file, sketch merges
//! are order-independent, and a campaign epoch agrees with `run_closed`
//! on the same specs — exactly on every counter, within the documented
//! 1/64 envelope on sketch quantiles.

use crosschain::anta::time::SimDuration;
use crosschain::experiments::digest::crc32;
use crosschain::protocol::run_harness_instance;
use crosschain::sim::campaign::{CampaignConfig, CampaignRunner, CHECKPOINT_SCHEMA_VERSION};
use crosschain::sim::prelude::*;
use crosschain::sim::MergeableSketch;
use crosschain::telemetry::Event;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// A scratch path unique to this test; removed on drop so parallel test
/// binaries never collide.
struct ScratchCkpt(PathBuf);

impl ScratchCkpt {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "xchain-campaign-test-{}-{tag}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        ScratchCkpt(path)
    }
}

impl Drop for ScratchCkpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        std::fs::remove_file(tmp_of(&self.0)).ok();
    }
}

/// `<path>.tmp`: where `checkpoint_to(path)` stages its write.
fn tmp_of(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// A checkpoint file around `payload` with the CRC line computed over
/// it — what an attacker (or a bug) that can write the file produces. A
/// CRC is not a MAC: this passes every integrity check `resume` has, so
/// whatever it decodes to must be refused or be safe to step.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut file = format!(
        "xchain-campaign-checkpoint v{CHECKPOINT_SCHEMA_VERSION}\ncrc32 {:08x}\n",
        crc32(payload)
    )
    .into_bytes();
    file.extend_from_slice(payload);
    file
}

/// The payload of the checkpoint at `path` (everything after the header
/// and CRC lines).
fn payload_of(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    let mut newlines = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n');
    let (end_of_crc_line, _) = newlines.nth(1).expect("header and crc32 lines");
    bytes[end_of_crc_line + 1..].to_vec()
}

/// A small open-system campaign (finite collateral, queueing gate).
fn open_cfg(total: u64, epoch: usize) -> CampaignConfig {
    let mut workload = WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 0, 0xE10);
    workload.max_rho_ppm = (0, 0);
    CampaignConfig {
        liquidity: Some(LiquidityConfig::queue(15_000, SimDuration::from_millis(20))),
        ..CampaignConfig::new(workload, total, epoch)
    }
}

fn cfg(family: TopologyFamily, threads: usize) -> CampaignConfig {
    let mut workload = WorkloadConfig::new(family, 0, 0xC0FFEE);
    workload.max_rho_ppm = (0, 50_000);
    CampaignConfig {
        threads,
        faults: FaultPlan {
            crash_permille: 80,
            late_bob_permille: 40,
            ..FaultPlan::NONE
        },
        ..CampaignConfig::new(workload, 2_000, 450)
    }
}

/// One-shot digest vs. kill-at-epoch-k + resume digest, every k.
fn assert_resume_bit_identical(family: TopologyFamily, threads: usize, tag: &str) {
    let mut oneshot = CampaignRunner::new(TimeBoundedHarness, cfg(family, threads));
    oneshot.run_to_end(None, None, |_| {}).unwrap();
    let expect = oneshot.report();
    assert!(expect.tally.instances >= 2_000);
    assert_eq!(expect.tally.outcomes.violations, 0);

    let epochs = cfg(family, threads).epochs();
    for k in 0..epochs {
        let ckpt = ScratchCkpt::new(&format!("{tag}-k{k}"));
        let mut first = CampaignRunner::new(TimeBoundedHarness, cfg(family, threads));
        first.run_to_end(Some(&ckpt.0), Some(k), |_| {}).unwrap();
        assert_eq!(first.next_epoch(), k + 1);
        drop(first); // the "kill": only the checkpoint survives

        let mut resumed =
            CampaignRunner::resume(TimeBoundedHarness, cfg(family, threads), &ckpt.0).unwrap();
        assert_eq!(resumed.next_epoch(), k + 1, "resume at the right epoch");
        resumed.run_to_end(Some(&ckpt.0), None, |_| {}).unwrap();
        let got = resumed.report();
        assert_eq!(
            got.digest, expect.digest,
            "family {family:?} threads {threads}: resume after epoch {k} diverged"
        );
        assert_eq!(got.tally, expect.tally);
    }
}

#[test]
fn kill_and_resume_bit_identical_linear_single_thread() {
    assert_resume_bit_identical(TopologyFamily::Linear { n: 4 }, 1, "lin1");
}

#[test]
fn kill_and_resume_bit_identical_linear_four_threads() {
    assert_resume_bit_identical(TopologyFamily::Linear { n: 4 }, 4, "lin4");
}

#[test]
fn kill_and_resume_bit_identical_packetized_single_thread() {
    assert_resume_bit_identical(TopologyFamily::Packetized { paths: 3, hops: 2 }, 1, "pkt1");
}

#[test]
fn kill_and_resume_bit_identical_packetized_four_threads() {
    assert_resume_bit_identical(TopologyFamily::Packetized { paths: 3, hops: 2 }, 4, "pkt4");
}

/// A checkpoint written at 4 threads resumes at 1 thread (and vice
/// versa) to the same digest: thread count is excluded from the config
/// digest by design.
#[test]
fn resume_across_thread_counts_is_bit_identical() {
    let family = TopologyFamily::HubAndSpoke { spokes: 8 };
    let mut oneshot = CampaignRunner::new(TimeBoundedHarness, cfg(family, 1));
    oneshot.run_to_end(None, None, |_| {}).unwrap();

    let ckpt = ScratchCkpt::new("xthread");
    let mut first = CampaignRunner::new(TimeBoundedHarness, cfg(family, 4));
    first.run_to_end(Some(&ckpt.0), Some(1), |_| {}).unwrap();
    drop(first);
    let mut resumed = CampaignRunner::resume(TimeBoundedHarness, cfg(family, 1), &ckpt.0).unwrap();
    resumed.run_to_end(None, None, |_| {}).unwrap();
    assert_eq!(resumed.report().digest, oneshot.report().digest);
}

/// Open-system campaigns (finite collateral, queueing gate) carry the
/// cumulative liquidity audit through the checkpoint bit-identically.
#[test]
fn open_system_campaign_resumes_bit_identical() {
    let open_cfg = || open_cfg(1_200, 400);
    let mut oneshot = CampaignRunner::new(TimeBoundedHarness, open_cfg());
    oneshot.run_to_end(None, None, |_| {}).unwrap();
    let expect = oneshot.report();
    let l = expect.tally.liquidity.as_ref().expect("liquidity tally");
    assert!(
        expect.tally.outcomes.rejected > 0,
        "budget must bite for the test to mean much"
    );
    assert_eq!(l.budget_violations, 0);
    assert!(l.drained_all);

    let ckpt = ScratchCkpt::new("open");
    let mut first = CampaignRunner::new(TimeBoundedHarness, open_cfg());
    first.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    drop(first);
    let mut resumed = CampaignRunner::resume(TimeBoundedHarness, open_cfg(), &ckpt.0).unwrap();
    resumed.run_to_end(None, None, |_| {}).unwrap();
    let got = resumed.report();
    assert_eq!(got.digest, expect.digest);
    assert_eq!(got.tally, expect.tally);
}

/// A flipped byte anywhere in the payload must be caught by the CRC —
/// a corrupt checkpoint is an error, never a silent fresh start.
#[test]
fn corrupt_checkpoint_is_refused() {
    let family = TopologyFamily::Linear { n: 4 };
    let ckpt = ScratchCkpt::new("corrupt");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, cfg(family, 1));
    runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    drop(runner);

    let mut bytes = std::fs::read(&ckpt.0).unwrap();
    let i = bytes.len() - 2; // inside the final payload line
    bytes[i] = bytes[i].wrapping_add(1);
    std::fs::write(&ckpt.0, &bytes).unwrap();
    let err = CampaignRunner::resume(TimeBoundedHarness, cfg(family, 1), &ckpt.0)
        .err()
        .expect("corrupted checkpoint must not resume");
    assert!(err.to_string().contains("CRC"), "unexpected error: {err}");
}

/// A CRC-valid checkpoint whose `liquidity` record disagrees with the
/// resuming config is refused, in both directions. Adopted, the first
/// would make a closed campaign carry liquidity records into its report
/// digest, and the second would panic the next `step()` of an open one.
#[test]
fn checkpoint_with_flipped_liquidity_flag_is_refused() {
    // An open campaign's payload ends in its three liquidity records.
    let open = open_cfg(120, 40);
    let open_ckpt = ScratchCkpt::new("flag-open");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, open);
    runner
        .run_to_end(Some(&open_ckpt.0), Some(0), |_| {})
        .unwrap();
    let open_payload = String::from_utf8(payload_of(&open_ckpt.0)).unwrap();
    let cut = open_payload
        .find("{\"kind\":\"liquidity\"")
        .expect("open payload");
    let (open_head, lq_records) = open_payload.split_at(cut);
    let kinds: Vec<String> = lq_records
        .lines()
        .map(|l| Event::parse(l).unwrap().kind().to_owned())
        .collect();
    assert_eq!(kinds, ["liquidity", "lq_wait", "lq_rejected_wait"]);

    // Closed campaign, checkpoint forged to carry a liquidity tally.
    let closed = cfg(TopologyFamily::Linear { n: 4 }, 1);
    let ckpt = ScratchCkpt::new("flag-closed");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, closed);
    runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    let payload = String::from_utf8(payload_of(&ckpt.0)).unwrap();
    assert!(!payload.contains("liquidity"), "{payload}");
    let forged = format!("{payload}{lq_records}");
    std::fs::write(&ckpt.0, sealed(forged.as_bytes())).unwrap();
    let err = CampaignRunner::resume(TimeBoundedHarness, closed, &ckpt.0)
        .err()
        .expect("a closed campaign must not adopt a liquidity tally");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("liquidity record disagrees"),
        "{err}"
    );

    // Open campaign, checkpoint forged to carry none.
    std::fs::write(&open_ckpt.0, sealed(open_head.as_bytes())).unwrap();
    let err = CampaignRunner::resume(TimeBoundedHarness, open, &open_ckpt.0)
        .err()
        .expect("an open campaign must not adopt a tally without a liquidity side");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("liquidity record disagrees"),
        "{err}"
    );

    // The untouched payload, re-sealed the same way, still resumes: the
    // refusals above are about the records, not about `sealed`.
    std::fs::write(&open_ckpt.0, sealed(open_payload.as_bytes())).unwrap();
    let resumed = CampaignRunner::resume(TimeBoundedHarness, open, &open_ckpt.0).unwrap();
    assert_eq!(resumed.next_epoch(), 1);
}

/// `payload` (a closed campaign's) with `moved` successes re-counted as
/// failures, `extra` successes no row produced, and one `failed_seed`
/// record per seed after the `outcomes` record.
fn forge_outcomes(payload: &str, moved: u64, extra: u64, seeds: &[u64]) -> Vec<u8> {
    let mut out = String::new();
    for line in payload.lines() {
        let e = Event::parse(line).unwrap();
        if e.kind() != "outcomes" {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let mut o = Event::new("outcomes");
        for (name, _) in e.fields() {
            let v = e.u64_field(name).unwrap();
            let v = match name.as_str() {
                "success" => v - moved + extra,
                "failed" => v + moved,
                _ => v,
            };
            o = o.with_u64(name, v);
        }
        out.push_str(&o.to_json());
        out.push('\n');
        for &seed in seeds {
            out.push_str(&Event::new("failed_seed").with_u64("seed", seed).to_json());
            out.push('\n');
        }
    }
    out.into_bytes()
}

/// A CRC is not a MAC: a sealed checkpoint whose tally no run can produce
/// — outcome counters that do not sum to `instances`, more than 16 failed
/// seeds, more seeds than failures — is refused with an error naming the
/// field. Unsorted seeds are read back as written: the reader checks
/// counts, not order (a run writes them sorted).
#[test]
fn checkpoint_with_impossible_tally_is_refused() {
    let closed = cfg(TopologyFamily::Linear { n: 4 }, 1);
    let ckpt = ScratchCkpt::new("impossible");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, closed);
    runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    let payload = String::from_utf8(payload_of(&ckpt.0)).unwrap();
    assert_eq!(runner.tally().outcomes.failed, 0);
    assert!(runner.tally().outcomes.success > 20);

    let seventeen: Vec<u64> = (1..=17).collect();
    for (forged, field) in [
        (forge_outcomes(&payload, 0, 1, &[]), "outcomes"),
        (forge_outcomes(&payload, 17, 0, &seventeen), "failed_seed"),
        (forge_outcomes(&payload, 1, 0, &[5, 6]), "failed_seed"),
    ] {
        std::fs::write(&ckpt.0, sealed(&forged)).unwrap();
        let err = CampaignRunner::resume(TimeBoundedHarness, closed, &ckpt.0)
            .err()
            .expect("an impossible tally must not resume");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with(field), "{err}");
    }

    std::fs::write(&ckpt.0, sealed(&forge_outcomes(&payload, 2, 0, &[9, 3]))).unwrap();
    let resumed = CampaignRunner::resume(TimeBoundedHarness, closed, &ckpt.0).unwrap();
    assert_eq!(resumed.tally().failed_seeds, [9, 3]);
}

/// An open campaign's `liquidity` record carries four gate counts that
/// the tally already owns (`CampaignTally::gate_counts`). A sealed
/// checkpoint whose record is off by one on any of them is refused with
/// an error naming the record.
#[test]
fn checkpoint_with_disagreeing_gate_counts_is_refused() {
    let open = open_cfg(120, 40);
    let ckpt = ScratchCkpt::new("gate-counts");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, open);
    runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    let tally = runner.tally();
    let counts = tally.gate_counts(tally.liquidity.as_ref().expect("open campaign"));
    let payload = String::from_utf8(payload_of(&ckpt.0)).unwrap();
    let at = payload
        .find("{\"kind\":\"liquidity\"")
        .expect("open payload");
    let (head, records) = payload.split_at(at);
    for (name, v) in counts {
        let off_by_one = format!("\"{name}\":{},", v + 1);
        let forged =
            head.to_owned() + &records.replacen(&format!("\"{name}\":{v},"), &off_by_one, 1);
        assert_ne!(forged, payload, "{name} is in the liquidity record");
        std::fs::write(&ckpt.0, sealed(forged.as_bytes())).unwrap();
        let err = CampaignRunner::resume(TimeBoundedHarness, open, &ckpt.0)
            .err()
            .expect("a liquidity record that disagrees with its tally must not resume");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("liquidity"), "{err}");
    }
}

/// A checkpoint of the older schema is refused with a one-line reason
/// naming both versions — never decoded, never a silent fresh start.
#[test]
fn v1_checkpoint_is_refused() {
    let closed = cfg(TopologyFamily::Linear { n: 4 }, 1);
    let ckpt = ScratchCkpt::new("v1");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, closed);
    runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    assert_eq!(CHECKPOINT_SCHEMA_VERSION, 2);
    let v1 = String::from_utf8(sealed(&payload_of(&ckpt.0)))
        .unwrap()
        .replacen(" v2\n", " v1\n", 1);
    assert!(v1.starts_with("xchain-campaign-checkpoint v1\n"));
    std::fs::write(&ckpt.0, v1).unwrap();
    let err = CampaignRunner::resume_or_new(TimeBoundedHarness, closed, &ckpt.0)
        .err()
        .expect("a v1 checkpoint must not resume");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        !msg.contains('\n') && msg.contains("v1") && msg.contains("v2"),
        "{msg}"
    );
}

/// `--resume run.linear` and `--resume run.hub` in one directory: each
/// checkpoint stages through its own `<path>.tmp`. Blocking one
/// campaign's temp name (a directory cannot be opened for writing) stops
/// that campaign's checkpoint and leaves the other's alone — so the two
/// names are really the ones in use, and really distinct.
#[test]
fn checkpoints_sharing_a_stem_never_share_a_temp_file() {
    let dir =
        std::env::temp_dir().join(format!("xchain-campaign-test-{}-stem", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (linear, hub) = (dir.join("run.linear"), dir.join("run.hub"));
    assert_ne!(tmp_of(&linear), tmp_of(&hub));

    let mut a = CampaignRunner::new(TimeBoundedHarness, cfg(TopologyFamily::Linear { n: 4 }, 1));
    let mut b = CampaignRunner::new(
        TimeBoundedHarness,
        cfg(TopologyFamily::HubAndSpoke { spokes: 8 }, 1),
    );
    a.step();
    b.step();

    std::fs::create_dir(tmp_of(&linear)).unwrap();
    assert!(
        a.checkpoint_to(&linear).is_err(),
        "run.linear stages in run.linear.tmp"
    );
    b.checkpoint_to(&hub)
        .expect("run.hub does not touch run.linear.tmp");
    std::fs::remove_dir(tmp_of(&linear)).unwrap();

    std::fs::create_dir(tmp_of(&hub)).unwrap();
    assert!(
        b.checkpoint_to(&hub).is_err(),
        "run.hub stages in run.hub.tmp"
    );
    a.checkpoint_to(&linear)
        .expect("run.linear does not touch run.hub.tmp");
    std::fs::remove_dir(tmp_of(&hub)).unwrap();

    // Both checkpoints are whole, each its own campaign's, and no temp
    // file outlives its rename.
    let a2 = CampaignRunner::resume(
        TimeBoundedHarness,
        cfg(TopologyFamily::Linear { n: 4 }, 1),
        &linear,
    )
    .unwrap();
    let b2 = CampaignRunner::resume(
        TimeBoundedHarness,
        cfg(TopologyFamily::HubAndSpoke { spokes: 8 }, 1),
        &hub,
    )
    .unwrap();
    assert_eq!(a2.report().digest, a.report().digest);
    assert_eq!(b2.report().digest, b.report().digest);
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    left.sort();
    assert_eq!(left, ["run.hub", "run.linear"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint from a different campaign config (here: another seed)
/// must be refused by the config digest even though its CRC is fine.
#[test]
fn checkpoint_from_different_config_is_refused() {
    let family = TopologyFamily::Linear { n: 4 };
    let ckpt = ScratchCkpt::new("mismatch");
    let mut runner = CampaignRunner::new(TimeBoundedHarness, cfg(family, 1));
    runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
    drop(runner);

    let mut other = cfg(family, 1);
    other.workload.seed ^= 1;
    let err = CampaignRunner::resume(TimeBoundedHarness, other, &ckpt.0)
        .err()
        .expect("foreign checkpoint must not resume");
    assert!(
        err.to_string().contains("different campaign config"),
        "unexpected error: {err}"
    );
    // But resume_or_new with a *matching* config still works.
    let resumed =
        CampaignRunner::resume_or_new(TimeBoundedHarness, cfg(family, 1), &ckpt.0).unwrap();
    assert_eq!(resumed.next_epoch(), 1);
}

/// resume_or_new falls back to a fresh campaign only when the file does
/// not exist at all.
#[test]
fn resume_or_new_starts_fresh_without_checkpoint() {
    let ckpt = ScratchCkpt::new("fresh");
    let runner = CampaignRunner::resume_or_new(
        TimeBoundedHarness,
        cfg(TopologyFamily::Linear { n: 4 }, 1),
        &ckpt.0,
    )
    .unwrap();
    assert_eq!(runner.next_epoch(), 0);
    assert_eq!(runner.tally().instances, 0);
}

/// One epoch through both callers of the shared batch loop — the
/// campaign's closed arm (chunks folded to tallies on the workers) and
/// `run_closed` (chunks kept as rows) — under every fault class, at 1 and
/// 4 threads: every outcome counter and the summed engine events agree
/// **exactly**, and the sketch's p50/p99 overshoot the exact nearest-rank
/// percentiles of the same rows by at most 1/64th (one sub-bucket), never
/// undershoot.
#[test]
fn sketch_quantiles_match_exact_percentiles_within_bound() {
    for threads in [1, 4] {
        let mut campaign = cfg(TopologyFamily::Linear { n: 4 }, threads);
        campaign.faults = FaultPlan {
            crash_permille: 80,
            late_bob_permille: 40,
            forging_chloe_permille: 40,
            thieving_escrow_permille: 40,
            net: NetFaults {
                drop_permille: 20,
                delay_permille: 100,
                extra_delay: SimDuration::from_millis(3),
                delay_buckets: 4,
            },
        };
        let wl = campaign.epoch_workload(0);
        let specs = crosschain::sim::workload::generate(&wl);
        let report = crosschain::sim::run_closed(
            &TimeBoundedHarness,
            &specs,
            &SimConfig {
                faults: campaign.faults,
                threads,
                ..SimConfig::new(wl)
            },
        );
        let f = &report.families[0];
        let exact = f.latency.as_ref().expect("successful payments exist");
        // Engine events are not on the report: sum them over the
        // per-instance entry point, outside any batch loop.
        let events: u128 = specs
            .iter()
            .map(|spec| {
                run_harness_instance(&TimeBoundedHarness, spec, &campaign.faults, false).events
                    as u128
            })
            .sum();

        let mut runner = CampaignRunner::new(TimeBoundedHarness, campaign);
        runner.run_to_end(None, Some(0), |_| {}).unwrap();
        let t = runner.tally();

        assert_eq!(t.instances, report.instances as u64, "threads {threads}");
        assert_eq!(
            [
                t.outcomes.success,
                t.outcomes.refunds,
                t.outcomes.stuck,
                t.outcomes.violations,
                t.outcomes.failed,
                t.outcomes.griefed,
                t.outcomes.byzantine
            ],
            [
                f.success.hits,
                f.refunds,
                f.stuck,
                f.violations,
                f.failed,
                f.griefed,
                f.byzantine
            ]
            .map(|n| n as u64),
            "threads {threads}"
        );
        assert!(
            t.outcomes.refunds > 0 && t.outcomes.byzantine > 0 && t.outcomes.success > 0,
            "the fault plan must bite for the equalities to mean much: {t:?}"
        );
        assert_eq!(t.events, events, "threads {threads}");

        let sketch = t.latency.summary().expect("non-empty sketch");
        assert_eq!(sketch.n, exact.n);
        assert_eq!(sketch.min, exact.min);
        assert_eq!(sketch.max, exact.max);
        for (name, got, want) in [
            ("p50", sketch.p50, exact.p50),
            ("p99", sketch.p99, exact.p99),
        ] {
            assert!(
                got >= want && got <= want + want / 64 + 1,
                "{name}: sketch {got} outside [{want}, {want} + 1/64]"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Merging per-chunk sketches in ANY order yields bit-identical
    /// state (and therefore identical quantiles) to feeding the samples
    /// sequentially — the property the cross-thread and cross-resume
    /// determinism of campaign reports rests on.
    #[test]
    fn prop_sketch_merge_is_order_independent(
        samples in proptest::collection::vec(0u64..2_000_000, 1..400),
        chunk in 1usize..37,
        rot in 0usize..31,
    ) {
        let mut sequential = MergeableSketch::new();
        for &v in &samples {
            sequential.record(v);
        }
        let mut parts: Vec<MergeableSketch> = samples
            .chunks(chunk)
            .map(|c| {
                let mut s = MergeableSketch::new();
                for &v in c {
                    s.record(v);
                }
                s
            })
            .collect();
        // Rotate + reverse: an arbitrary permutation of the merge order.
        let r = rot % parts.len();
        parts.rotate_left(r);
        parts.reverse();
        let mut merged = MergeableSketch::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &sequential);
        for p in [0u32, 25, 50, 90, 99, 100] {
            prop_assert_eq!(merged.quantile(p), sequential.quantile(p));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Hostile bytes in a checkpoint produce an error, never a panic or
    /// a hang. Up to three byte-level mutations (flip, insert, delete,
    /// truncate) of a valid payload — closed or open — are **re-sealed
    /// under a fresh CRC**, so they get past the integrity check and
    /// reach `Event::parse`, the record reader and
    /// `MergeableSketch::from_event`. Whatever `resume` adopts must also
    /// survive one `step()`.
    #[test]
    fn prop_mutated_checkpoint_never_panics(
        open in any::<bool>(),
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u8>()), 1..4),
    ) {
        let (campaign, tag) = if open {
            (open_cfg(120, 40), "mut-open")
        } else {
            let mut c = cfg(TopologyFamily::Linear { n: 3 }, 1);
            (c.total_payments, c.epoch_payments) = (120, 40);
            (c, "mut-closed")
        };
        let ckpt = ScratchCkpt::new(tag);
        // The valid payload is the same for every case of a kind: one
        // epoch, checkpointed once.
        static VALID: [OnceLock<Vec<u8>>; 2] = [OnceLock::new(), OnceLock::new()];
        let mut payload = VALID[open as usize]
            .get_or_init(|| {
                let mut runner = CampaignRunner::new(TimeBoundedHarness, campaign);
                runner.run_to_end(Some(&ckpt.0), Some(0), |_| {}).unwrap();
                payload_of(&ckpt.0)
            })
            .clone();
        for (kind, at, byte) in edits {
            if payload.is_empty() {
                break;
            }
            let at = (at % payload.len() as u64) as usize;
            // Mostly ASCII, so most cases get past `read_to_string` and
            // reach the decoder; one in eight may break UTF-8 instead.
            let byte = if byte >= 224 { byte } else { byte & 0x7f };
            match kind {
                0 => payload[at] ^= byte | 1,
                1 => payload.insert(at, byte),
                2 => drop(payload.remove(at)),
                _ => payload.truncate(at),
            }
        }
        std::fs::write(&ckpt.0, sealed(&payload)).unwrap();
        if let Ok(mut resumed) = CampaignRunner::resume(TimeBoundedHarness, campaign, &ckpt.0) {
            if !resumed.is_done() {
                resumed.step();
            }
        }
    }
}
