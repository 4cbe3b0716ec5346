//! Layer micro-benchmarks of the traced run: loops over one layer's public
//! functions, each under a span, feeding the per-layer ledger. Inputs and
//! results pass through `black_box` so the measured work is not deleted,
//! and every timing is the quickest of [`REPEATS`] identical rounds.

use crate::ledger::Ledger;
use crate::span::Tracer;
use crate::workloads::Sizes;
use anta::time::{SimDuration, SimTime};
use anta::trace::TraceMode;
use std::hint::black_box;
use telemetry::TelemetrySink;

/// Identical rounds per timing in the traced run; the quickest counts.
pub const REPEATS: usize = 5;

/// Host nanoseconds per call of `f`: `REPEATS` rounds of `ops / REPEATS`
/// calls, every round over the same indices, the quickest round counted.
fn ns_per_op(tracer: &mut Tracer, span: &'static str, ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_round = (ops / REPEATS).max(1);
    let ((), best) = tracer.best_of(REPEATS, span, |_| (0..per_round).for_each(&mut f));
    best * 1e9 / per_round as f64
}

/// `workload.generate_us_per_spec.*`.
pub fn generate_us_per_spec(workload: &sim::WorkloadConfig, tracer: &mut Tracer) -> f64 {
    let (_, best) = tracer.best_of(REPEATS, "workload.generate", |_| {
        black_box(sim::workload::generate(black_box(workload)))
    });
    best * 1e6 / workload.payments.max(1) as f64
}

/// `xcrypto.*`: SHA-256 over a 64 KiB buffer, then HMAC, sign, verify and
/// key registration on 96-byte messages.
pub fn xcrypto(sizes: &Sizes, tracer: &mut Tracer, ledger: &mut Ledger) {
    const BLOCKS: usize = 1024;
    let buffer: Vec<u8> = (0..BLOCKS * 64).map(|i| (i * 31 % 251) as u8).collect();
    let hashes = (sizes.crypto_ops / BLOCKS).max(REPEATS);
    let ns = ns_per_op(tracer, "xcrypto.sha256", hashes, |_| {
        black_box(xcrypto::sha256(black_box(&buffer)));
    });
    ledger.put("xcrypto.sha256_ns_per_block", ns / BLOCKS as f64);

    let msg = &buffer[..96];
    let key = &buffer[96..128];
    let ns = ns_per_op(tracer, "xcrypto.hmac", sizes.crypto_ops, |_| {
        black_box(xcrypto::hmac::hmac_sha256(black_box(key), black_box(msg)));
    });
    ledger.put("xcrypto.hmac_ns_per_call", ns);

    let mut pki = xcrypto::Pki::new(7);
    let (_, signer) = pki.register();
    let domain = b"benchmark/sign";
    let ns = ns_per_op(tracer, "xcrypto.sign", sizes.crypto_ops, |_| {
        black_box(signer.sign(domain, black_box(msg)));
    });
    ledger.put("xcrypto.sign_ns_per_op", ns);

    let sig = signer.sign(domain, msg);
    let mut forged = 0usize;
    let ns = ns_per_op(tracer, "xcrypto.verify", sizes.crypto_ops, |_| {
        forged += usize::from(!pki.verify(black_box(&sig), domain, black_box(msg)));
    });
    assert_eq!(forged, 0, "a genuine signature failed to verify");
    ledger.put("xcrypto.verify_ns_per_op", ns);

    let ns = ns_per_op(tracer, "xcrypto.pki_register", sizes.crypto_ops / 4, |_| {
        black_box(pki.register());
    });
    ledger.put("xcrypto.pki_register_ns_per_key", ns);
}

/// `anta.engine_*`: the two-process ping-pong behind the legacy
/// `engine/engine_10k_messages/*` keys, in both trace modes.
pub fn engine(sizes: &Sizes, tracer: &mut Tracer, ledger: &mut Ledger) {
    for (mode, span, name) in [
        (
            TraceMode::CountersOnly,
            "anta.engine.counters",
            "anta.engine_ns_per_event_counters",
        ),
        (
            TraceMode::Full,
            "anta.engine.full",
            "anta.engine_ns_per_event_full",
        ),
    ] {
        let (events, best) = tracer.best_of(REPEATS, span, |_| {
            experiments::perf::engine_events_workload(sizes.engine_messages, mode)
        });
        ledger.put(name, best * 1e9 / events.max(1) as f64);
    }
}

/// `telemetry.*`: one event emitted over and over into a JSONL file under
/// the output directory and into an in-memory ring.
pub fn telemetry_sinks(sizes: &Sizes, tracer: &mut Tracer, ledger: &mut Ledger) {
    let event = telemetry::Event::new("bench")
        .with_u64("epoch", 17)
        .with_f64("payments_per_sec", 18_234.5)
        .with_str("family", "hub")
        .with_bool("drained", true);
    let path = crate::out_dir().join("telemetry-sink.jsonl");
    let mut jsonl = telemetry::JsonlSink::create(&path).expect("create the JSONL sink file");
    let ns = ns_per_op(tracer, "telemetry.jsonl", sizes.telemetry_events, |_| {
        jsonl.emit(black_box(&event));
    });
    jsonl.flush().expect("flush the JSONL sink");
    assert_eq!(jsonl.io_errors(), 0, "JSONL sink writes failed");
    drop(jsonl);
    let _ = std::fs::remove_file(&path);
    ledger.put("telemetry.jsonl_ns_per_event", ns);

    let mut ring = telemetry::RingSink::new(4_096);
    let ns = ns_per_op(tracer, "telemetry.ring", sizes.telemetry_events, |_| {
        ring.emit(black_box(&event));
    });
    black_box(ring.total_seen());
    ledger.put("telemetry.ring_ns_per_event", ns);
}

/// Multiplicative hashing of a loop index onto `0..modulus`.
fn scatter(i: usize, salt: u64, modulus: u64) -> u32 {
    ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt) % modulus) as u32
}

/// `liquidity.*`: admission, feasibility and audit operations on a
/// 1 024-venue book, three venues per demand.
pub fn liquidity(sizes: &Sizes, tracer: &mut Tracer, ledger: &mut Ledger) {
    const VENUES: u64 = 1_024;
    // Unit amounts against a budget no venue reaches, so every
    // `try_admit` takes the admit path.
    let cfg = sim::LiquidityConfig::queue(u64::MAX / 4, SimDuration::from_millis(25));
    let demand = |i: usize| {
        [
            (scatter(i, 0, VENUES), 1),
            (scatter(i, 341, VENUES), 1),
            (scatter(i, 683, VENUES), 1),
        ]
    };

    let mut book = sim::LiquidityBook::new(&cfg, VENUES as usize);
    let mut refused = 0usize;
    let ns = ns_per_op(tracer, "liquidity.try_admit", sizes.book_ops, |i| {
        refused += usize::from(!book.try_admit(black_box(&demand(i))));
    });
    assert_eq!(refused, 0, "a book with budget to spare refused a demand");
    ledger.put("liquidity.try_admit_ns", ns);

    let mut fit = 0usize;
    let ns = ns_per_op(tracer, "liquidity.fits", sizes.book_ops, |i| {
        fit += usize::from(book.fits(black_box(&demand(i))));
    });
    black_box(fit);
    ledger.put("liquidity.fits_ns", ns);

    let mut book = sim::LiquidityBook::new(&cfg, VENUES as usize);
    let mut tick = 0u64;
    let ns = ns_per_op(tracer, "liquidity.apply_lock", sizes.book_ops, |i| {
        // Lock on even steps, release the same venue on odd ones.
        let venue = scatter(i / 2, 0, VENUES);
        let delta = if i % 2 == 0 { 100 } else { -100 };
        tick += 1;
        book.apply_lock(SimTime::from_ticks(tick), venue, delta);
    });
    black_box(book.violations());
    ledger.put("liquidity.apply_lock_ns", ns);
}

/// `network.*`: the legacy pathfinder micro-benchmark — a 1 024-venue
/// scale-free graph, a third of the venues pre-loaded, endpoint pairs
/// cycled deterministically through the three router entry points.
pub fn network(seed: u64, sizes: &Sizes, tracer: &mut Tracer, ledger: &mut Ledger) {
    let family = sim::GraphFamily::ScaleFree {
        venues: 1_024,
        attach: 2,
    };
    let (g, best) = tracer.best_of(REPEATS, "network.graph_generate", |_| {
        sim::VenueGraph::generate(family, black_box(seed))
    });
    ledger.put("network.graph_generate_ms", best * 1e3);

    let liq = sim::LiquidityConfig::queue(2_500, SimDuration::from_millis(25));
    let mut book = sim::LiquidityBook::new(&liq, g.venues());
    let mut x = seed | 1;
    for v in 0..g.venues() as u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x % 3 == 0 {
            book.reserve(v, x % 2_500);
        }
    }
    let nodes = g.nodes() as u64;
    let pair = |i: usize| {
        let i = i as u64;
        (
            (i * 2_654_435_761 % nodes) as u32,
            ((i * 40_503 + nodes / 2) % nodes) as u32,
        )
    };
    let mut router = sim::Router::new();

    let (mut searched, mut found) = (0u64, 0u64);
    let ns = ns_per_op(tracer, "network.route", sizes.pathfind_pairs, |i| {
        let (src, dst) = pair(i);
        searched += 1;
        found += u64::from(router.route(&g, src, dst, 500, 8, &book).is_some());
    });
    ledger.put("network.route_us_per_call", ns / 1e3);
    ledger.put("network.route_found_share", found as f64 / searched as f64);

    let ns = ns_per_op(tracer, "network.route_multi", sizes.pathfind_pairs, |i| {
        let (src, dst) = pair(i);
        black_box(router.route_multi(&g, src, dst, 500, 2, 8, &book));
    });
    ledger.put("network.route_multi_us_per_call", ns / 1e3);

    let ns = ns_per_op(tracer, "network.shortest", sizes.pathfind_pairs, |i| {
        let (src, dst) = pair(i);
        black_box(router.shortest(&g, src, dst, 8));
    });
    ledger.put("network.shortest_us_per_call", ns / 1e3);
}

/// `des.shard_speedup_tn`: a 4-shard packetized side pass at 1 and `tn`
/// threads — the one place venue sharding can pay.
pub fn shard_speedup(
    seed: u64,
    tn: usize,
    sizes: &Sizes,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let mut workload = sim::WorkloadConfig::new(
        sim::TopologyFamily::Packetized { paths: 4, hops: 2 },
        sizes.shard_payments,
        seed,
    );
    workload.arrivals = crate::workloads::bursty();
    let specs = sim::workload::generate(&workload);
    let liq = sim::LiquidityConfig::queue(9_000, SimDuration::from_millis(25));
    let mut wall = |threads: usize, span: &'static str| {
        let cfg = sim::SimConfig {
            threads,
            ..sim::SimConfig::new(workload)
        };
        let (report, best) = tracer.best_of(REPEATS, span, |_| {
            sim::run_open_specs_with(&sim::TimeBoundedHarness, &specs, &cfg, &liq)
        });
        assert_eq!(
            report.liquidity.shards, 4,
            "Packetized {{ paths: 4 }} must split into 4 shards"
        );
        best
    };
    let t1 = wall(1, "des.packetized.t1");
    let tn = wall(tn, "des.packetized.tn");
    ledger.put("des.shard_speedup_tn", t1 / tn);
}

/// `campaign.*`: an open-system hub campaign of 20 epochs with a
/// checkpoint after each, once in one go and once killed after epoch 10
/// and resumed from the file. The phase split comes from the runner's own
/// `PhaseProfile`, so it is a single reading.
pub fn campaign(
    workload: sim::WorkloadConfig,
    liquidity: sim::LiquidityConfig,
    sizes: &Sizes,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    const EPOCHS: u64 = 20;
    let cfg = sim::CampaignConfig {
        threads: 1,
        liquidity: Some(liquidity),
        ..sim::CampaignConfig::new(
            workload,
            sizes.campaign_payments,
            (sizes.campaign_payments / EPOCHS) as usize,
        )
    };
    let path = crate::out_dir().join("campaign.ckpt");
    let _ = std::fs::remove_file(&path);

    let mut whole = sim::CampaignRunner::new(sim::TimeBoundedHarness, cfg);
    tracer.span("campaign.one_shot", None, |_| {
        whole
            .run_to_end(Some(&path), None, |_| {})
            .expect("write the campaign checkpoint")
    });
    let ms = |phase: &str| whole.profile().total(phase).as_secs_f64() * 1e3;
    ledger.put("campaign.generation_ms", ms("generation"));
    ledger.put("campaign.simulation_ms", ms("simulation"));
    ledger.put("campaign.merge_ms", ms("merge"));
    ledger.put(
        "campaign.checkpoint_ms_per_epoch",
        ms("checkpoint") / EPOCHS as f64,
    );

    let _ = std::fs::remove_file(&path);
    let mut killed = sim::CampaignRunner::new(sim::TimeBoundedHarness, cfg);
    tracer.span("campaign.until_kill", None, |_| {
        killed
            .run_to_end(Some(&path), Some(EPOCHS / 2 - 1), |_| {})
            .expect("write the campaign checkpoint")
    });
    drop(killed);
    let (mut resumed, best) = tracer.best_of(REPEATS, "campaign.resume", |_| {
        sim::CampaignRunner::resume(sim::TimeBoundedHarness, cfg, &path)
            .expect("resume from the checkpoint just written")
    });
    ledger.put("campaign.resume_ms", best * 1e3);
    assert_eq!(
        resumed.next_epoch(),
        EPOCHS / 2,
        "resumed at the wrong epoch"
    );
    tracer.span("campaign.after_resume", None, |_| {
        resumed
            .run_to_end(Some(&path), None, |_| {})
            .expect("write the campaign checkpoint")
    });
    let _ = std::fs::remove_file(&path);
    let same = resumed.report().digest == whole.report().digest;
    ledger.put("campaign.resume_digest_match", f64::from(u8::from(same)));
}
