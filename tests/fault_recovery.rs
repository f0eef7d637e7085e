//! Seeded fault-recovery stress suite for the reliability layer.
//!
//! Every test is deterministic given its seed: the fault dice, the retry
//! schedule, the routing shuffle, and both transports' delivery machinery
//! are all seeded, so a failing combination replays exactly. The CI job
//! runs the fixed seeds
//! below plus one randomized seed injected through the `RVMA_FAULT_SEED`
//! environment variable; every assertion message carries the seed so a
//! red run can be reproduced with
//! `RVMA_FAULT_SEED=<seed> cargo test --test fault_recovery`.

use std::sync::Arc;
use std::time::Duration;

use rvma::core::transport::DeliveryOrder;
use rvma::core::{
    AsyncNetwork, EndpointConfig, EpochOutcome, FaultModel, LoopbackNetwork, NodeAddr, RvmaError,
    StatsSnapshot, Threshold, VirtAddr,
};

const SERVER: NodeAddr = NodeAddr::node(0);
const CLIENT: NodeAddr = NodeAddr::node(1);

/// Fixed replay seeds, plus whatever `RVMA_FAULT_SEED` adds.
fn seeds() -> Vec<u64> {
    let mut s = vec![0xBAD_5EED, 42, 0x7EA5_E77E];
    if let Ok(v) = std::env::var("RVMA_FAULT_SEED") {
        match v.trim().parse::<u64>() {
            Ok(extra) => {
                eprintln!("fault_recovery: adding randomized seed RVMA_FAULT_SEED={extra}");
                s.push(extra);
            }
            Err(e) => panic!("RVMA_FAULT_SEED={v:?} is not a u64: {e}"),
        }
    }
    s
}

/// Every single-fault model plus the combined one the acceptance run uses.
fn fault_matrix() -> Vec<(&'static str, FaultModel)> {
    vec![
        (
            "drop",
            FaultModel {
                drop_p: 0.05,
                ..FaultModel::NONE
            },
        ),
        (
            "dup",
            FaultModel {
                dup_p: 0.05,
                ..FaultModel::NONE
            },
        ),
        (
            "reorder",
            FaultModel {
                reorder_p: 0.10,
                ..FaultModel::NONE
            },
        ),
        (
            "delay",
            FaultModel {
                delay_p: 0.10,
                delay_spans: 3,
                ..FaultModel::NONE
            },
        ),
        (
            "drop+dup+reorder",
            FaultModel {
                drop_p: 0.05,
                dup_p: 0.05,
                reorder_p: 0.05,
                ..FaultModel::NONE
            },
        ),
    ]
}

/// The inline network with `model` seeded by `seed`, a 16-byte MTU and
/// receiver dedup: the configuration the retransmitting initiator needs.
fn inline_net(order: DeliveryOrder, model: FaultModel, seed: u64) -> Arc<LoopbackNetwork> {
    let cfg = EndpointConfig {
        dedup_window: 1 << 15,
        fault_model: model,
        fault_seed: seed,
        ..Default::default()
    };
    LoopbackNetwork::for_endpoint_config(16, order, &cfg)
}

/// Lock-step epochs over a lossy fabric: post, reliable-put, verify. The
/// reliable put only returns once every fragment was accepted (or deduped)
/// at the receiver, so each epoch must complete before the next is posted.
fn lossy_stress(name: &str, model: FaultModel, seed: u64, epochs: usize) {
    let net = inline_net(DeliveryOrder::InOrder, model, seed);
    let server = net.add_endpoint(SERVER);
    let init = net.initiator(CLIENT);
    let win = server
        .init_window(VirtAddr::new(0x10), Threshold::bytes(64))
        .unwrap();
    for e in 0..epochs {
        let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
        let fill = (e % 251) as u8;
        init.put(SERVER, VirtAddr::new(0x10), &[fill; 64])
            .unwrap_or_else(|err| panic!("[{name} seed={seed}] epoch {e}: put failed: {err:?}"));
        // Release any fragments still parked by reorder/delay faults; dedup
        // absorbs the ones whose retransmitted copy already landed.
        net.flush_delayed();
        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("[{name} seed={seed}] epoch {e}: receiver hung"));
        assert!(
            buf.data().iter().all(|&b| b == fill),
            "[{name} seed={seed}] epoch {e}: payload corrupted"
        );
    }
    assert_eq!(
        win.epoch(),
        epochs as u64,
        "[{name} seed={seed}] epoch count drifted"
    );
}

#[test]
fn lossy_fault_matrix_completes_every_epoch_byte_exact() {
    for (name, model) in fault_matrix() {
        for seed in seeds() {
            lossy_stress(name, model, seed, 100);
        }
    }
}

/// The acceptance run: 10k reliable ops under drop + dup + reorder on the
/// inline transport, every epoch byte-exact, bounded by the retry budget.
#[test]
fn lossy_ten_thousand_ops_complete_under_combined_faults() {
    let seed = *seeds().last().unwrap();
    let model = FaultModel {
        drop_p: 0.05,
        dup_p: 0.05,
        reorder_p: 0.05,
        ..FaultModel::NONE
    };
    let net = inline_net(DeliveryOrder::InOrder, model, seed);
    let server = net.add_endpoint(SERVER);
    let init = net.initiator(CLIENT);

    const OPS_PER_EPOCH: usize = 10;
    const EPOCHS: usize = 1_000;
    const OP_BYTES: usize = 16;
    let vaddr = VirtAddr::new(0x20);
    let win = server
        .init_window(vaddr, Threshold::bytes((OPS_PER_EPOCH * OP_BYTES) as u64))
        .unwrap();

    let mut retransmissions = 0u64;
    for e in 0..EPOCHS {
        let mut note = win
            .post_buffer(vec![0u8; OPS_PER_EPOCH * OP_BYTES])
            .unwrap();
        for slot in 0..OPS_PER_EPOCH {
            let op = e * OPS_PER_EPOCH + slot;
            let fill = (op % 251) as u8;
            let report = init
                .put_at(SERVER, vaddr, slot * OP_BYTES, &[fill; OP_BYTES])
                .unwrap_or_else(|err| panic!("seed {seed}: op {op} failed: {err:?}"));
            retransmissions += report.retransmissions();
        }
        net.flush_delayed();
        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("seed {seed}: epoch {e} hung"));
        for slot in 0..OPS_PER_EPOCH {
            let op = e * OPS_PER_EPOCH + slot;
            let fill = (op % 251) as u8;
            assert!(
                buf.full_buffer()[slot * OP_BYTES..(slot + 1) * OP_BYTES]
                    .iter()
                    .all(|&b| b == fill),
                "seed {seed}: op {op} corrupted"
            );
        }
    }
    assert_eq!(win.epoch(), EPOCHS as u64, "seed {seed}");
    let dropped = net.fault_stats().dropped();
    assert!(
        dropped > 0 && retransmissions > 0,
        "seed {seed}: the fault model never fired (dropped={dropped}, retransmissions={retransmissions})"
    );
}

/// Fault counters and endpoint counters of one [`shuffled_lossy_run`].
type RunStats = ((u64, u64, u64, u64), StatsSnapshot);

/// Adaptive routing and an unreliable fabric at once on the one inline
/// network: every put is shuffled, then pushed through drop + dup +
/// reorder faults, retransmitted until acknowledged, and deduplicated at
/// the receiver. Each 64-byte epoch is 4 fragments, so the shuffle is
/// never trivial.
fn shuffled_lossy_run(seed: u64, epochs: usize) -> RunStats {
    let model = FaultModel {
        drop_p: 0.05,
        dup_p: 0.05,
        reorder_p: 0.05,
        ..FaultModel::NONE
    };
    let net = inline_net(DeliveryOrder::OutOfOrder { seed }, model, seed);
    let server = net.add_endpoint(SERVER);
    let init = net.initiator(CLIENT);
    let win = server
        .init_window(VirtAddr::new(0x18), Threshold::bytes(64))
        .unwrap();
    let mut retransmissions = 0;
    for e in 0..epochs {
        let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
        let payload: Vec<u8> = (0..64)
            .map(|i| ((e * 31 + i * 7 + 1) % 251) as u8)
            .collect();
        let report = init
            .put(SERVER, VirtAddr::new(0x18), &payload)
            .unwrap_or_else(|err| panic!("seed {seed}: epoch {e}: put failed: {err:?}"));
        retransmissions += report.retransmissions();
        net.flush_delayed();
        // The put returned only once every fragment was acknowledged, so
        // the epoch is complete now — no waiting.
        let buf = note
            .poll()
            .unwrap_or_else(|| panic!("seed {seed}: epoch {e}: incomplete after put"));
        assert_eq!(buf.data(), payload.as_slice(), "seed {seed}: epoch {e}");
    }
    let faults = net.fault_stats();
    assert!(
        faults.dropped() > 0 && faults.duplicated() > 0 && faults.deferred() > 0,
        "seed {seed}: a fault kind never fired"
    );
    assert!(
        retransmissions > 0,
        "seed {seed}: nothing was retransmitted"
    );
    let counts = (
        faults.transmitted(),
        faults.dropped(),
        faults.duplicated(),
        faults.deferred(),
    );
    (counts, server.stats())
}

#[test]
fn shuffled_lossy_inline_run_is_byte_exact_and_replays_per_seed() {
    for seed in seeds() {
        let first = shuffled_lossy_run(seed, 200);
        let again = shuffled_lossy_run(seed, 200);
        assert_eq!(first, again, "seed {seed}: same seed, different run");
        assert_eq!(first.1.epochs_completed, 200, "seed {seed}");
    }
}

#[test]
#[should_panic(expected = "dedup_window")]
fn retransmitting_through_duplicates_without_dedup_is_rejected() {
    let cfg = EndpointConfig {
        fault_model: FaultModel {
            dup_p: 0.05,
            ..FaultModel::NONE
        },
        dedup_window: 0,
        retry_budget: 2,
        ..Default::default()
    };
    LoopbackNetwork::for_endpoint_config(16, DeliveryOrder::InOrder, &cfg);
}

/// Same acceptance run over the fault-injected threaded transport: 10k
/// disjoint 16-byte puts into one 160 KB buffer, all landing exactly once.
#[test]
fn async_ten_thousand_ops_complete_under_combined_faults() {
    let seed = *seeds().last().unwrap();
    let cfg = EndpointConfig {
        dedup_window: 1 << 15,
        wire_workers: 4,
        fault_model: FaultModel {
            drop_p: 0.05,
            dup_p: 0.05,
            reorder_p: 0.05,
            ..FaultModel::NONE
        },
        fault_seed: seed,
        ..Default::default()
    };
    let net = AsyncNetwork::for_endpoint_config(64, DeliveryOrder::InOrder, Duration::ZERO, &cfg);
    let server = net.add_endpoint(SERVER);
    let client = net.initiator(CLIENT);

    const OPS: usize = 10_000;
    const OP_BYTES: usize = 16;
    let vaddr = VirtAddr::new(0x60);
    let win = server
        .init_window(vaddr, Threshold::bytes((OPS * OP_BYTES) as u64))
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; OPS * OP_BYTES]).unwrap();

    for op in 0..OPS {
        let fill = (op % 251) as u8;
        client
            .put_at(SERVER, vaddr, op * OP_BYTES, &[fill; OP_BYTES])
            .unwrap_or_else(|err| panic!("seed {seed}: op {op} failed: {err:?}"));
    }
    net.quiesce();

    let buf = note
        .wait_timeout(Duration::from_secs(30))
        .unwrap_or_else(|| panic!("seed {seed}: epoch hung after quiesce"));
    for op in 0..OPS {
        let fill = (op % 251) as u8;
        assert!(
            buf.full_buffer()[op * OP_BYTES..(op + 1) * OP_BYTES]
                .iter()
                .all(|&b| b == fill),
            "seed {seed}: op {op} corrupted"
        );
    }
    assert!(
        client.take_nacks().is_empty(),
        "seed {seed}: spurious NACKs"
    );

    let stats = net.fault_stats().expect("fault model is armed");
    assert!(
        stats.dropped() > 0 && stats.duplicated() > 0,
        "seed {seed}: the fault model never fired"
    );
    // Every duplicated delivery must have been absorbed by the receiver's
    // dedup window — that is exactly what keeps threshold counting sound.
    assert_eq!(
        server.stats().duplicates_dropped,
        stats.duplicated(),
        "seed {seed}: dedup accounting drifted"
    );
}

/// Duplication-only run: the receiver's dedup counter must account for
/// every duplicated delivery the network injected, one for one.
#[test]
fn dedup_stats_match_injected_duplicates() {
    for seed in seeds() {
        let model = FaultModel {
            dup_p: 0.3,
            ..FaultModel::NONE
        };
        let cfg = EndpointConfig {
            dedup_window: 4096,
            fault_model: model,
            fault_seed: seed,
            retry_budget: 1,
            ..Default::default()
        };
        let net = LoopbackNetwork::for_endpoint_config(32, DeliveryOrder::InOrder, &cfg);
        let server = net.add_endpoint(SERVER);
        let init = net.initiator(CLIENT);
        let win = server
            .init_window(VirtAddr::new(0x30), Threshold::bytes(64))
            .unwrap();
        for e in 0..50u64 {
            let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
            let fill = (e % 251) as u8;
            init.put(SERVER, VirtAddr::new(0x30), &[fill; 64]).unwrap();
            let buf = note
                .wait_timeout(Duration::from_secs(5))
                .unwrap_or_else(|| panic!("seed {seed}: epoch {e} hung"));
            assert!(buf.data().iter().all(|&b| b == fill), "seed {seed}");
        }
        let duplicated = net.fault_stats().duplicated();
        assert!(duplicated > 0, "seed {seed}: no duplicates injected");
        assert_eq!(
            server.stats().duplicates_dropped,
            duplicated,
            "seed {seed}: every injected duplicate must be suppressed"
        );
    }
}

/// A crashed destination must surface a bounded error at the initiator and
/// a rewindable partial epoch at the receiver — never a hang.
#[test]
fn crashed_endpoint_surfaces_retry_exhausted_then_rewinds() {
    let cfg = EndpointConfig {
        dedup_window: 1024,
        retry_budget: 3,
        ..Default::default()
    };
    let net = LoopbackNetwork::for_endpoint_config(16, DeliveryOrder::InOrder, &cfg);
    let server = net.add_endpoint(SERVER);
    let init = net.initiator(CLIENT);
    let vaddr = VirtAddr::new(0x40);
    let win = server.init_window(vaddr, Threshold::bytes(64)).unwrap();
    let mut note = win.post_buffer(vec![0u8; 64]).unwrap();

    // First half lands while the endpoint is healthy.
    init.put_at(SERVER, vaddr, 0, &[0xAA; 32]).unwrap();

    // After the crash the retry budget turns silence into an error.
    net.crash_endpoint(SERVER);
    let err = init.put_at(SERVER, vaddr, 32, &[0xBB; 32]).unwrap_err();
    assert!(
        matches!(err, RvmaError::RetryExhausted { .. }),
        "expected RetryExhausted, got {err:?}"
    );

    // The receiver's epoch is wedged at 32 of 64 bytes: recover it.
    let outcome = win
        .recover_timeout(&mut note, Duration::from_millis(50))
        .unwrap();
    assert!(outcome.is_rewound(), "expected a rewound partial epoch");
    let buf = outcome.into_buffer();
    assert_eq!(&buf.full_buffer()[..32], &[0xAA; 32]);
    assert_eq!(win.epoch(), 1);
}

/// The async transport's crash fault must likewise surface NACKs (or fast
/// submission errors) and leave a recoverable partial epoch.
#[test]
fn async_crash_surfaces_nacks_and_recovers_partial_epoch() {
    let cfg = EndpointConfig {
        dedup_window: 1024,
        wire_workers: 1,
        fault_model: FaultModel {
            crash_after_frags: Some(4),
            ..FaultModel::NONE
        },
        fault_seed: 9,
        ..Default::default()
    };
    let net = AsyncNetwork::for_endpoint_config(16, DeliveryOrder::InOrder, Duration::ZERO, &cfg);
    let server = net.add_endpoint(SERVER);
    let client = net.initiator(CLIENT);
    let vaddr = VirtAddr::new(0x50);
    let win = server.init_window(vaddr, Threshold::bytes(256)).unwrap();
    let mut note = win.post_buffer(vec![0u8; 256]).unwrap();

    let mut submit_errors = 0;
    for i in 0..16usize {
        // Submission legitimately races the crash: a put either fails fast
        // (the endpoint is already gone) or is NACKed asynchronously.
        if client
            .put_at(SERVER, vaddr, i * 16, &[i as u8; 16])
            .is_err()
        {
            submit_errors += 1;
        }
    }
    net.quiesce();

    let nacks = client.take_nacks();
    assert!(
        submit_errors > 0 || !nacks.is_empty(),
        "crash surfaced neither an error nor a NACK"
    );
    assert_eq!(server.stats().fragments_accepted, 3);

    // The epoch can never complete; rewind the partial fill.
    let outcome = win
        .recover_timeout(&mut note, Duration::from_millis(50))
        .unwrap();
    assert!(outcome.is_rewound());
    let buf = outcome.into_buffer();
    for i in 0..3usize {
        assert_eq!(&buf.full_buffer()[i * 16..(i + 1) * 16], &[i as u8; 16]);
    }
}

/// Zero-length puts are a completion signal, not payload: both transports
/// must deliver them without consulting the fault dice.
#[test]
fn zero_length_put_agrees_across_transports() {
    let model = FaultModel {
        drop_p: 1.0,
        ..FaultModel::NONE
    };

    // The inline network: the empty put completes an ops(1) epoch even
    // though every non-empty fragment would be dropped.
    let cfg = EndpointConfig {
        fault_model: model,
        fault_seed: 1,
        retry_budget: 1,
        ..Default::default()
    };
    let net = LoopbackNetwork::for_endpoint_config(64, DeliveryOrder::InOrder, &cfg);
    let server = net.add_endpoint(SERVER);
    let win = server
        .init_window(VirtAddr::new(0x70), Threshold::ops(1))
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; 8]).unwrap();
    net.initiator(CLIENT)
        .put(SERVER, VirtAddr::new(0x70), &[])
        .unwrap();
    assert!(
        note.poll().is_some(),
        "inline transport rolled fault dice on an empty put"
    );
    assert_eq!(net.fault_stats().transmitted(), 0);

    // AsyncNetwork must agree.
    let cfg = EndpointConfig {
        fault_model: model,
        ..Default::default()
    };
    let anet = AsyncNetwork::for_endpoint_config(64, DeliveryOrder::InOrder, Duration::ZERO, &cfg);
    let aserver = anet.add_endpoint(SERVER);
    let awin = aserver
        .init_window(VirtAddr::new(0x70), Threshold::ops(1))
        .unwrap();
    let mut anote = awin.post_buffer(vec![0u8; 8]).unwrap();
    anet.initiator(CLIENT)
        .put(SERVER, VirtAddr::new(0x70), &[])
        .unwrap();
    anet.quiesce();
    assert!(
        anote.wait_timeout(Duration::from_secs(5)).is_some(),
        "async transport rolled fault dice on an empty put"
    );
    assert_eq!(anet.fault_stats().unwrap().transmitted(), 0);
}

/// `recover_timeout` on an epoch that does complete must report
/// `Completed`, not rewind — the timeout is a last resort, not a deadline.
#[test]
fn recover_timeout_is_a_noop_on_a_healthy_epoch() {
    let cfg = EndpointConfig {
        retry_budget: 1,
        ..Default::default()
    };
    let net = LoopbackNetwork::for_endpoint_config(64, DeliveryOrder::InOrder, &cfg);
    let server = net.add_endpoint(SERVER);
    let win = server
        .init_window(VirtAddr::new(0x80), Threshold::bytes(32))
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; 32]).unwrap();
    net.initiator(CLIENT)
        .put(SERVER, VirtAddr::new(0x80), &[5; 32])
        .unwrap();
    let outcome = win
        .recover_timeout(&mut note, Duration::from_millis(10))
        .unwrap();
    assert!(matches!(outcome, EpochOutcome::Completed(_)));
    assert_eq!(outcome.into_buffer().data(), &[5u8; 32][..]);
    assert_eq!(win.epoch(), 1);
}
