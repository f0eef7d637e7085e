//! Deterministic-replay harness for the op-level telemetry layer.
//!
//! Two runs of the combined fault model with the same `RVMA_FAULT_SEED`
//! must record *identical* telemetry event sequences — same op ids, same
//! kinds, same per-kind counts, in the same order. The inline transport
//! makes this exact: the fault dice are a pure function of
//! (seed, transmission sequence), and the recorder's global sequence
//! stamp preserves record order across shards. A different seed must
//! produce a different sequence, or the harness would pass vacuously.
//!
//! Also covers the exported artifacts (JSON snapshot and Chrome
//! `trace_event` file, schema-checked with the mini JSON parser below)
//! and the telemetry-disabled path (no recorder anywhere, no per-put
//! allocation).

use std::time::Duration;

use rvma::core::{
    DeliveryOrder, EndpointConfig, EventKind, FaultModel, LoopbackNetwork, NodeAddr, RvmaEndpoint,
    Span, TelemetrySnapshot, Threshold, VirtAddr,
};

const SERVER: NodeAddr = NodeAddr::node(0);
const CLIENT: NodeAddr = NodeAddr::node(1);

/// Fixed replay seeds, plus whatever `RVMA_FAULT_SEED` adds (mirrors
/// `tests/fault_recovery.rs`).
fn seeds() -> Vec<u64> {
    let mut s = vec![0xBAD_5EED, 42, 0x7EA5_E77E];
    if let Ok(v) = std::env::var("RVMA_FAULT_SEED") {
        match v.trim().parse::<u64>() {
            Ok(extra) => {
                eprintln!("telemetry_replay: adding randomized seed RVMA_FAULT_SEED={extra}");
                s.push(extra);
            }
            Err(e) => panic!("RVMA_FAULT_SEED={v:?} is not a u64: {e}"),
        }
    }
    s
}

/// The combined model the acceptance runs use.
fn combined() -> FaultModel {
    FaultModel {
        drop_p: 0.05,
        dup_p: 0.05,
        reorder_p: 0.05,
        ..FaultModel::NONE
    }
}

/// One telemetry-enabled run over the lossy fabric: `epochs` reliable
/// puts, each completing one epoch. Returns the drained snapshot.
fn traced_run(model: FaultModel, seed: u64, epochs: usize) -> TelemetrySnapshot {
    let cfg = EndpointConfig {
        dedup_window: 1 << 15,
        fault_model: model,
        fault_seed: seed,
        telemetry: true,
        ..Default::default()
    };
    let net = LoopbackNetwork::for_endpoint_config(16, DeliveryOrder::InOrder, &cfg);
    let server = net.add_endpoint(SERVER);
    let init = net.initiator(CLIENT);
    let win = server
        .init_window(VirtAddr::new(0x10), Threshold::bytes(64))
        .unwrap();
    for e in 0..epochs {
        let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
        let fill = (e % 251) as u8;
        init.put(SERVER, VirtAddr::new(0x10), &[fill; 64])
            .unwrap_or_else(|err| panic!("seed {seed}: epoch {e}: put failed: {err:?}"));
        net.flush_delayed();
        let buf = note
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("seed {seed}: epoch {e}: receiver hung"));
        assert!(buf.data().iter().all(|&b| b == fill), "seed {seed}");
    }
    net.telemetry().expect("telemetry enabled").snapshot()
}

#[test]
fn same_seed_replays_identical_event_sequences() {
    for seed in seeds() {
        let a = traced_run(combined(), seed, 50);
        let b = traced_run(combined(), seed, 50);
        assert_eq!(
            a.counts, b.counts,
            "seed {seed}: per-kind event counts diverged between replays"
        );
        assert_eq!(
            a.canonical_sequence(),
            b.canonical_sequence(),
            "seed {seed}: event sequences diverged between replays"
        );
        assert_eq!(a.dropped, b.dropped, "seed {seed}: drop counters diverged");
        // The run must actually exercise the lifecycle, or determinism
        // holds vacuously.
        assert_eq!(a.count(EventKind::Submit), 50, "seed {seed}");
        assert_eq!(a.count(EventKind::EpochComplete), 50, "seed {seed}");
        assert_eq!(a.count(EventKind::NotifyHandoff), 50, "seed {seed}");
        assert!(
            a.count(EventKind::Retransmit) > 0,
            "seed {seed}: the fault model never forced a retransmission"
        );
        assert!(
            a.count(EventKind::WireDeliver) > a.count(EventKind::Submit),
            "seed {seed}: multi-fragment puts must deliver more fragments than ops"
        );
    }
}

/// The async lane of `traced_run`: same lossy fabric, same put sequence,
/// but the receiver completes through the Future/Waker path on even
/// epochs and a [`CompletionQueue`](rvma::core::CompletionQueue) on odd
/// ones. `NotifyWake` is recorded inside the mailbox's completion funnel
/// (under the mailbox lock, from the slot's post-time async flag) and
/// `CqPoll` at the consumer's — here deterministic — drain points, so the
/// whole async event stream must replay exactly like the blocking one.
fn async_traced_run(model: FaultModel, seed: u64, epochs: usize) -> TelemetrySnapshot {
    use rvma::core::CompletionQueue;

    let cfg = EndpointConfig {
        dedup_window: 1 << 15,
        fault_model: model,
        fault_seed: seed,
        telemetry: true,
        ..Default::default()
    };
    let net = LoopbackNetwork::for_endpoint_config(16, DeliveryOrder::InOrder, &cfg);
    let server = net.add_endpoint(SERVER);
    let init = net.initiator(CLIENT);
    let win = server
        .init_window(VirtAddr::new(0x10), Threshold::bytes(64))
        .unwrap();
    let cq = CompletionQueue::new(8);
    let mut drained = Vec::new();
    for e in 0..epochs {
        let fut = if e % 2 == 0 {
            Some(win.post_buffer_async(vec![0u8; 64]).unwrap())
        } else {
            win.post_buffer_cq(vec![0u8; 64], &cq, e as u64).unwrap();
            None
        };
        let fill = (e % 251) as u8;
        init.put(SERVER, VirtAddr::new(0x10), &[fill; 64])
            .unwrap_or_else(|err| panic!("seed {seed}: epoch {e}: put failed: {err:?}"));
        net.flush_delayed();
        match fut {
            Some(fut) => {
                // Inline transport: the epoch completed during put (or
                // flush), so the future resolves on its first poll.
                let buf = pollster::block_on(fut);
                assert!(buf.data().iter().all(|&b| b == fill), "seed {seed}");
            }
            None => {
                let n = cq.wait_batch(8, &mut drained, Duration::from_secs(10));
                assert_eq!(n, 1, "seed {seed}: epoch {e}: CQ drain");
                let c = drained.pop().unwrap();
                assert_eq!(c.user, e as u64, "seed {seed}");
                assert!(c.buffer.data().iter().all(|&b| b == fill), "seed {seed}");
            }
        }
    }
    net.telemetry().expect("telemetry enabled").snapshot()
}

#[test]
fn async_lane_replays_identical_event_sequences() {
    for seed in seeds() {
        let a = async_traced_run(combined(), seed, 50);
        let b = async_traced_run(combined(), seed, 50);
        assert_eq!(
            a.counts, b.counts,
            "seed {seed}: async-lane per-kind counts diverged between replays"
        );
        assert_eq!(
            a.canonical_sequence(),
            b.canonical_sequence(),
            "seed {seed}: async-lane event sequences diverged between replays"
        );
        // Every epoch's slot was async-armed: one wake funnel event each.
        assert_eq!(a.count(EventKind::NotifyWake), 50, "seed {seed}");
        // One non-empty drain per CQ epoch (odd epochs).
        assert_eq!(a.count(EventKind::CqPoll), 25, "seed {seed}");
        assert_eq!(a.count(EventKind::EpochComplete), 50, "seed {seed}");
        assert!(a.count(EventKind::Retransmit) > 0, "seed {seed}");
    }
}

#[test]
fn async_and_blocking_lanes_share_the_op_stream() {
    // The async lane changes only the completion side: the wire-facing
    // event stream (submits, deliveries, retransmissions) must be
    // identical to the blocking lane's for the same seed.
    let blocking = traced_run(combined(), 42, 50);
    let async_ = async_traced_run(combined(), 42, 50);
    for kind in [
        EventKind::Submit,
        EventKind::WireDeliver,
        EventKind::Retransmit,
        EventKind::EpochComplete,
    ] {
        assert_eq!(
            blocking.count(kind),
            async_.count(kind),
            "lane divergence in {}",
            kind.as_str()
        );
    }
    assert_eq!(blocking.count(EventKind::NotifyWake), 0);
    assert_eq!(blocking.count(EventKind::CqPoll), 0);
}

#[test]
fn different_seeds_produce_different_sequences() {
    let a = traced_run(combined(), 0xBAD_5EED, 50);
    let b = traced_run(combined(), 42, 50);
    assert_ne!(
        a.canonical_sequence(),
        b.canonical_sequence(),
        "different fault seeds must perturb the event stream"
    );
}

#[test]
fn span_histograms_pair_the_lifecycle() {
    let snap = traced_run(combined(), 42, 50);
    // Inline transport: no ring, so no submit→enqueue pairs.
    assert_eq!(snap.span(Span::SubmitToEnqueue).count(), 0);
    // Every op's first fragment delivery pairs with its submit.
    assert_eq!(snap.span(Span::SubmitToDeliver).count(), 50);
    // Every completed epoch was handed to a waiter.
    assert_eq!(snap.span(Span::CompleteToHandoff).count(), 50);
    let h = snap.span(Span::CompleteToHandoff);
    // Quantiles report bucket *lower* bounds, so they may sit below the
    // exact min (when samples cluster in one bucket) — only monotonicity
    // in q and the max ceiling are guaranteed.
    assert!(h.min() <= h.max());
    assert!(h.quantile(0.5) <= h.quantile(0.99));
    assert!(h.quantile(0.99) <= h.max().max(1));
}

/// With `EndpointConfig::telemetry` left off (the default) no recorder
/// exists anywhere — the hot path's entire cost is one `None` check —
/// and a steady-state small put performs no heap allocation (payloads at
/// or below the `Bytes` inline cap never reach the allocator, which the
/// pool counters prove).
#[test]
fn disabled_telemetry_leaves_no_recorder_and_no_per_put_allocation() {
    use rvma::core::AsyncNetwork;

    let cfg = EndpointConfig::default();
    assert!(!cfg.telemetry, "telemetry must be opt-in");
    let net = AsyncNetwork::for_endpoint_config(64, DeliveryOrder::InOrder, Duration::ZERO, &cfg);
    assert!(net.telemetry().is_none());
    let server = net.add_endpoint(SERVER);
    assert!(server.telemetry().is_none());
    let standalone = RvmaEndpoint::new(NodeAddr::node(7));
    assert!(standalone.telemetry().is_none());

    const PUTS: u64 = 256;
    let win = server
        .init_window(VirtAddr::new(0x90), Threshold::ops(PUTS))
        .unwrap();
    let mut note = win.post_buffer(vec![0u8; 64]).unwrap();
    let init = net.initiator(CLIENT);
    for _ in 0..PUTS {
        init.put(SERVER, VirtAddr::new(0x90), &[7u8; 8]).unwrap();
    }
    net.quiesce();
    assert!(note.wait_timeout(Duration::from_secs(10)).is_some());

    let pool = init.pool_stats();
    assert_eq!(
        (pool.inline, pool.misses),
        (PUTS, 0),
        "an 8-byte put must ride inline in its Bytes handle: no allocation"
    );
    assert_eq!(pool.hit_rate(), 1.0);
}

// ---------------------------------------------------------------------------
// Exported artifacts: a mini JSON parser (values we emit only: objects,
// arrays, strings without escapes, and plain numbers) schema-checks the
// snapshot and the Chrome trace.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.ws();
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(fields);
        }
        loop {
            let k = self.string();
            self.eat(b':');
            fields.push((k, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                c => panic!("expected ',' or '}}', got {:?}", c as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(items);
                }
                c => panic!("expected ',' or ']', got {:?}", c as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are never emitted");
            self.i += 1;
        }
        let out = std::str::from_utf8(&self.s[start..self.i]).unwrap().into();
        self.i += 1;
        out
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        Json::Num(
            std::str::from_utf8(&self.s[start..self.i])
                .unwrap()
                .parse()
                .unwrap_or_else(|e| panic!("bad number at byte {start}: {e}")),
        )
    }
}

#[test]
fn json_snapshot_matches_schema() {
    let snap = traced_run(combined(), 42, 20);
    let doc = Parser::parse(&snap.to_json());
    assert_eq!(doc.get("schema").unwrap().str(), "rvma-telemetry-v1");
    assert_eq!(doc.get("events").unwrap().num() as usize, snap.events.len());
    assert_eq!(doc.get("dropped").unwrap().num() as u64, snap.dropped);
    let counts = doc.get("counts").unwrap();
    for kind in EventKind::ALL {
        assert_eq!(
            counts.get(kind.as_str()).unwrap().num() as u64,
            snap.count(kind),
            "count mismatch for {}",
            kind.as_str()
        );
    }
    let spans = doc.get("spans").unwrap();
    for span in Span::ALL {
        let s = spans.get(span.as_str()).unwrap();
        let h = snap.span(span);
        assert_eq!(s.get("count").unwrap().num() as u64, h.count());
        assert_eq!(s.get("p50_ns").unwrap().num() as u64, h.quantile(0.50));
        assert_eq!(s.get("p99_ns").unwrap().num() as u64, h.quantile(0.99));
        let bucket_total: u64 = s
            .get("buckets")
            .unwrap()
            .arr()
            .iter()
            .map(|b| b.arr()[1].num() as u64)
            .sum();
        assert_eq!(bucket_total, h.count(), "bucket counts must sum to count");
    }
}

#[test]
fn chrome_trace_matches_schema() {
    let snap = traced_run(combined(), 42, 20);
    let doc = Parser::parse(&snap.to_chrome_trace());
    assert_eq!(doc.get("displayTimeUnit").unwrap().str(), "ns");
    let events = doc.get("traceEvents").unwrap().arr();
    assert!(!events.is_empty());
    let mut instants = 0u64;
    let mut spans = 0u64;
    for ev in events {
        let ph = ev.get("ph").unwrap().str();
        assert!(ev.get("ts").unwrap().num() >= 0.0);
        assert_eq!(ev.get("pid").unwrap().num() as u64, 1);
        match ph {
            "i" => {
                instants += 1;
                let name = ev.get("name").unwrap().str().to_string();
                assert!(
                    EventKind::ALL.iter().any(|k| k.as_str() == name),
                    "unknown instant name {name:?}"
                );
            }
            "X" => {
                spans += 1;
                assert!(ev.get("dur").unwrap().num() >= 0.0);
                let name = ev.get("name").unwrap().str().to_string();
                assert!(
                    Span::ALL.iter().any(|s| s.as_str() == name),
                    "unknown span name {name:?}"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(instants as usize, snap.events.len());
    // The trace draws one duration slice per paired submit→deliver and
    // complete→handoff gap (submit→enqueue is histogram-only).
    let paired =
        snap.span(Span::SubmitToDeliver).count() + snap.span(Span::CompleteToHandoff).count();
    assert_eq!(spans, paired, "one complete span per paired lifecycle gap");
}
