//! Parity suite: the engine must produce bit-identical results at
//! every thread count — final clock, events fired, every counter, every
//! histogram sample, and the merged trace. The model here is a 2-D grid of
//! cells bouncing tokens to random neighbours (cross-shard traffic at
//! exactly the lookahead), with sub-window local self-events mixed in, so
//! every synchronization path of the conservative-window protocol is
//! exercised: intra-window self-scheduling, boundary-time cross-shard
//! sends, rng-dependent fan-out, mid-run stops, and deadline splits.

use rvma_sim::{
    Component, ComponentId, Ctx, Engine, SimConfig, SimTime, StatsRegistry, TraceEntry,
};

/// Cross-cell latency: exactly the engine window (the tight legal case).
const LAT: SimTime = SimTime::from_ns(100);

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A token with `hops` remaining, bounced between cells.
    Token { hops: u32 },
    /// A local self-event scheduled inside the window.
    LocalTick,
}

struct Cell {
    id: u32,
    neighbours: Vec<ComponentId>,
    tokens_seen: u64,
    /// When true, ask the engine to stop after this many tokens.
    stop_after: Option<u64>,
}

impl Component<Ev> for Cell {
    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Token { hops } => {
                self.tokens_seen += 1;
                ctx.stats().counter("grid.tokens").inc();
                let now = ctx.now();
                ctx.stats().histogram("grid.token_ns").record_time(now);
                // Sub-window self-event: exercises intra-window processing.
                if self.tokens_seen.is_multiple_of(3) {
                    let me = ctx.self_id();
                    ctx.schedule_in(SimTime::from_ns(10), me, Ev::LocalTick);
                }
                if hops > 0 {
                    let nb = *ctx.rng().pick(&self.neighbours);
                    let jitter = SimTime::from_ns(ctx.rng().below(50));
                    ctx.schedule_in(LAT + jitter, nb, Ev::Token { hops: hops - 1 });
                }
                if self.stop_after == Some(self.tokens_seen) {
                    ctx.request_stop();
                }
            }
            Ev::LocalTick => {
                ctx.stats().counter("grid.local_ticks").inc();
            }
        }
        let _ = self.id;
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Build a `w × h` grid where every cell starts one token.
fn build_grid(
    seed: u64,
    threads: usize,
    w: u32,
    h: u32,
    hops: u32,
    stop_cell: Option<(u32, u64)>,
) -> Engine<Ev> {
    let mut cfg = SimConfig::new(threads, LAT);
    cfg.shards = 8;
    let mut eng = Engine::with_config(seed, cfg);
    eng.enable_trace(1 << 16);
    let ids: Vec<ComponentId> = (0..w * h)
        .map(|i| {
            eng.add_component(Cell {
                id: i,
                neighbours: Vec::new(),
                tokens_seen: 0,
                stop_after: stop_cell.and_then(|(c, n)| (c == i).then_some(n)),
            })
        })
        .collect();
    for y in 0..h {
        for x in 0..w {
            let i = (y * w + x) as usize;
            let mut nbs = Vec::new();
            for (dx, dy) in [(1, 0), (w - 1, 0), (0, 1), (0, h - 1)] {
                let nx = (x + dx) % w;
                let ny = (y + dy) % h;
                nbs.push(ids[(ny * w + nx) as usize]);
            }
            // Rewire by downcast: neighbours aren't known at add time.
            eng.component_as_mut::<Cell>(ids[i]).unwrap().neighbours = nbs;
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        eng.schedule(SimTime::from_ns(i as u64 % 7), id, Ev::Token { hops });
    }
    eng
}

/// Everything observable about a finished run, bit-exact.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now: SimTime,
    events: u64,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Vec<u64>)>,
    trace: Vec<TraceEntry>,
}

fn fingerprint(eng: &Engine<Ev>) -> Fingerprint {
    Fingerprint {
        now: eng.now(),
        events: eng.events_fired(),
        counters: sorted_counters(eng.stats()),
        histograms: sorted_histograms(eng.stats()),
        trace: eng.merged_trace(),
    }
}

fn sorted_counters(stats: &StatsRegistry) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = stats
        .counter_names()
        .map(|n| (n.to_string(), stats.counter_value(n)))
        .collect();
    v.sort();
    v
}

fn sorted_histograms(stats: &StatsRegistry) -> Vec<(String, Vec<u64>)> {
    let mut v: Vec<(String, Vec<u64>)> = stats
        .histogram_names()
        .map(|n| {
            let samples = stats
                .get_histogram(n)
                .map(|h| h.samples().iter().map(|s| s.to_bits()).collect())
                .unwrap_or_default();
            (n.to_string(), samples)
        })
        .collect();
    v.sort();
    v
}

#[test]
fn grid_parity_across_threads() {
    for seed in [1u64, 7, 42] {
        let mut reference = build_grid(seed, 1, 8, 8, 40, None);
        reference.run_to_completion();
        let want = fingerprint(&reference);
        assert!(want.events > 0, "model must actually run");
        for threads in [2, 4, 8] {
            let mut eng = build_grid(seed, threads, 8, 8, 40, None);
            eng.run_to_completion();
            let got = fingerprint(&eng);
            assert_eq!(got, want, "thread count {threads} diverged (seed {seed})");
        }
    }
}

#[test]
fn parity_with_run_until_deadline_and_resume() {
    let mut reference = build_grid(9, 1, 6, 6, 30, None);
    reference.run_to_completion();
    let want = fingerprint(&reference);

    for threads in [1, 2, 4, 8] {
        let mut eng = build_grid(9, threads, 6, 6, 30, None);
        // Split the run at two arbitrary deadlines (mid-window times).
        eng.run_until(SimTime::from_ns(517));
        assert!(eng.now() <= SimTime::from_ns(517));
        eng.run_until(SimTime::from_ns(1303));
        eng.run_to_completion();
        let got = fingerprint(&eng);
        assert_eq!(
            got, want,
            "deadline-split run diverged at {threads} threads"
        );
    }
}

#[test]
fn parity_with_mid_run_stop_and_resume() {
    // Cell 5 requests a stop after its 4th token; resuming must converge to
    // the identical final state at every thread count.
    let mut reference = build_grid(3, 1, 6, 6, 30, Some((5, 4)));
    reference.run_to_completion(); // halts at the stop
    let paused = fingerprint(&reference);
    reference.run_to_completion(); // resumes to quiescence
    let want = fingerprint(&reference);
    assert!(paused.events < want.events, "stop must pause early");

    for threads in [2, 4, 8] {
        let mut eng = build_grid(3, threads, 6, 6, 30, Some((5, 4)));
        eng.run_to_completion();
        eng.run_to_completion();
        let got = fingerprint(&eng);
        assert_eq!(got, want, "stop/resume diverged at {threads} threads");
    }
}

#[test]
fn conservation_holds_at_quiesce() {
    for threads in [1, 2, 4, 8] {
        let mut eng = build_grid(11, threads, 8, 8, 25, None);
        let fired = eng.run_to_completion();
        assert_eq!(eng.pending_events(), 0, "quiesced engine has no backlog");
        assert_eq!(
            eng.scheduled_total(),
            eng.events_fired(),
            "every scheduled event fired exactly once ({threads} threads)"
        );
        assert_eq!(fired, eng.events_fired());
    }
}

#[test]
fn cross_shard_traffic_actually_happens() {
    // The parity results above are only meaningful if the grid really does
    // cross shard boundaries; a degenerate partition would make the suite
    // vacuous.
    let mut eng = build_grid(1, 4, 8, 8, 40, None);
    eng.run_to_completion();
    assert!(
        eng.cross_events() > 0,
        "grid model must generate cross-shard events"
    );
    assert!(eng.shard_count() > 1);
}
