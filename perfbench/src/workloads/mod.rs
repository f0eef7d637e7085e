//! The five workloads and what they share: timed set-up, measurement
//! slices, and assembling a run's metrics.

pub mod incast;
pub mod paced_put;
pub mod shm_mixed;
pub mod sweep3d_sim;
mod threaded;

use crate::cli::Args;
use crate::report::Metric;
use crate::stats::{median, p50_p99};
use std::time::{Duration, Instant};

/// A run's measurement is cut into this many slices. Every rate and
/// latency percentile is computed per slice and reported as the median
/// over slices, so a burst of scheduler stalls on a shared host moves one
/// slice, not the result.
pub const SLICES: u32 = 10;

/// Set-ups per run; `setup_s` is their median. Set-up takes well under a
/// millisecond for the in-process workloads, so many are needed for a
/// steady median.
pub const SETUPS: usize = 21;

/// Run `make` `SETUPS` times, timing each; returns the median time and the
/// last instance (the earlier ones are dropped untimed).
pub fn timed_setups<T>(mut make: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let made = make();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(made);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// One closed measurement slice.
struct SliceStat {
    secs: f64,
    ops: u64,
    bytes: u64,
    cpu_ns: u64,
}

/// Cuts a measurement into [`SLICES`] slices and keeps per-slice counts,
/// latency samples and the workers' CPU time.
pub struct Slicer<F: FnMut() -> u64> {
    start: Instant,
    slice: Duration,
    cur_start: Instant,
    cpu: F,
    cpu_start: u64,
    ops: u64,
    bytes: u64,
    lats: Vec<u64>,
    /// `lats` index where each slice starts (and, last, where the final
    /// closed slice ends).
    cuts: Vec<usize>,
    slices: Vec<SliceStat>,
}

impl<F: FnMut() -> u64> Slicer<F> {
    /// `cpu` returns the CPU time (ns) so far of the threads whose cost
    /// `worker_cpu_us_per_op` charges.
    pub fn new(start: Instant, seconds: f64, mut cpu: F) -> Self {
        let slice = Duration::from_secs_f64(seconds / SLICES as f64);
        let cpu_start = cpu();
        Slicer {
            start,
            slice,
            cur_start: start,
            cpu,
            cpu_start,
            ops: 0,
            bytes: 0,
            lats: Vec::new(),
            cuts: vec![0],
            slices: Vec::new(),
        }
    }

    pub fn ops(&mut self, ops: u64, bytes: u64) {
        self.ops += ops;
        self.bytes += bytes;
    }

    /// A latency sample, kept only while the measurement runs.
    pub fn lat(&mut self, ns: u64) {
        if self.slices.len() < SLICES as usize {
            self.lats.push(ns);
        }
    }

    /// Close the current slice if `now` passed its end. Returns false once
    /// the last slice is closed.
    pub fn tick(&mut self, now: Instant) -> bool {
        let closed = self.slices.len() as u32;
        if closed < SLICES && now >= self.start + self.slice * (closed + 1) {
            let cpu = (self.cpu)();
            self.slices.push(SliceStat {
                secs: (now - self.cur_start).as_secs_f64(),
                ops: self.ops,
                bytes: self.bytes,
                cpu_ns: cpu - self.cpu_start,
            });
            self.cuts.push(self.lats.len());
            self.cur_start = now;
            self.cpu_start = cpu;
            self.ops = 0;
            self.bytes = 0;
        }
        (self.slices.len() as u32) < SLICES
    }

    pub fn summary(&mut self) -> Summary {
        let per =
            |f: &dyn Fn(&SliceStat) -> f64| median(&self.slices.iter().map(f).collect::<Vec<_>>());
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for w in self.cuts.windows(2) {
            let slice = &mut self.lats[w[0]..w[1]];
            if !slice.is_empty() {
                let (p50, p99) = p50_p99(slice);
                p50s.push(p50 as f64 / 1e3);
                p99s.push(p99 as f64 / 1e3);
            }
        }
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        Summary {
            lat_p50_us: med(&p50s),
            lat_p99_us: med(&p99s),
            lat_samples: self.lats.len() as u64,
            ops_per_s: per(&|s| s.ops as f64 / s.secs),
            goodput_mbps: per(&|s| s.bytes as f64 / s.secs / 1e6),
            cpu_us_per_op: per(&|s| s.cpu_ns as f64 / 1e3 / s.ops.max(1) as f64),
            slices: self.slices.len() as u64,
        }
    }
}

/// Medians over a pass's slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub lat_samples: u64,
    pub ops_per_s: f64,
    pub goodput_mbps: f64,
    pub cpu_us_per_op: f64,
    pub slices: u64,
}

/// One measured pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub summary: Summary,
    /// Per-layer metrics (reported by the traced run only).
    pub layers: Vec<Metric>,
    /// Further end-to-end figures for the human-readable table.
    pub extra: Vec<Metric>,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

/// How a workload measures one pass: `seconds` long, traced or not.
pub trait Measure {
    fn pass(&mut self, seconds: f64, traced: bool) -> Pass;

    /// Peak resident memory (bytes) of every process running the workload.
    fn peak_rss_bytes(&mut self) -> u64 {
        crate::procfs::peak_rss_bytes(std::process::id()).unwrap_or(0)
    }
}

/// An untimed pass that fills pools and caches before measuring; a failed
/// check there ends the run.
pub fn warm_up(w: &mut dyn Measure, seconds: f64) -> Result<(), Outcome> {
    let p = w.pass(seconds, false);
    if p.problems.is_empty() && p.failed == 0 {
        return Ok(());
    }
    Err(Outcome {
        attempted: p.attempted,
        failed: p.failed.max(1),
        problems: p.problems,
        ..Outcome::default()
    })
}

/// Run a workload's passes and assemble the run's metrics: one untraced
/// pass for `--trace 0`; an untraced and a traced half for `--trace 1`,
/// whose difference is the tracing overhead.
pub fn execute(args: &Args, setup_s: f64, setups: u64, w: &mut dyn Measure) -> Outcome {
    let secs = args.seconds as f64;
    let mut out = Outcome::default();
    let absorb = |out: &mut Outcome, p: &mut Pass| {
        out.attempted += p.attempted;
        out.failed += p.failed;
        if p.attempted != p.completed + p.failed {
            p.problems.push(format!(
                "attempted {} != completed {} + failed {}",
                p.attempted, p.completed, p.failed
            ));
        }
        out.problems.append(&mut p.problems);
        out.notes.append(&mut p.notes);
    };
    if !args.trace {
        let mut p = w.pass(secs, false);
        let s = p.summary;
        out.metrics = vec![
            Metric::e2e("setup_s", setup_s, setups),
            Metric::e2e("lat_p50_us", s.lat_p50_us, s.lat_samples),
            Metric::e2e("ops_per_s", s.ops_per_s, s.slices),
            Metric::e2e("goodput_MBps", s.goodput_mbps, s.slices),
            Metric::e2e("peak_rss_MB", w.peak_rss_bytes() as f64 / 1e6, 1),
        ];
        out.extra = vec![
            Metric {
                name: "lat_p99_us",
                unit: "us",
                value: s.lat_p99_us,
                samples: s.lat_samples,
            },
            Metric {
                name: "worker_cpu_us_per_op",
                unit: "us",
                value: s.cpu_us_per_op,
                samples: s.slices,
            },
        ];
        out.extra.append(&mut p.extra);
        out.extra.push(Metric {
            name: "fail_frac",
            unit: "ratio",
            value: p.failed as f64 / p.attempted.max(1) as f64,
            samples: p.attempted,
        });
        absorb(&mut out, &mut p);
    } else {
        let mut base = w.pass(secs / 2.0, false);
        let mut traced = w.pass(secs / 2.0, true);
        let (b, t) = (base.summary, traced.summary);
        out.metrics = std::mem::take(&mut traced.layers);
        out.metrics.push(Metric::layer(
            "bench.trace_overhead_lat_p50_us",
            t.lat_p50_us - b.lat_p50_us,
            t.lat_samples,
        ));
        out.metrics.push(Metric::layer(
            "bench.trace_overhead_ops_per_s",
            t.ops_per_s - b.ops_per_s,
            t.slices,
        ));
        absorb(&mut out, &mut base);
        absorb(&mut out, &mut traced);
    }
    out
}

/// Quantile metric from span durations (0 when there are none).
pub fn span_quantile(name: &'static str, durs: &mut [u64], q: f64) -> Metric {
    if durs.is_empty() {
        return Metric::layer(name, 0.0, 0);
    }
    durs.sort_unstable();
    Metric::layer(
        name,
        crate::stats::nearest_rank(durs, q) as f64,
        durs.len() as u64,
    )
}

/// Ratio that reads 0 instead of NaN when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How much of each traced op's latency (`bench.op` spans) its child spans
/// along the blocking path leave uncovered.
pub fn residual_note(t: &crate::trace::Tracer, path: &str) -> String {
    let selfs = crate::trace::self_times(t.spans());
    let mut residual: Vec<u64> = t
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "bench.op")
        .map(|(_, &own)| own)
        .collect();
    if residual.is_empty() {
        return "no traced ops".into();
    }
    let (p50, p99) = p50_p99(&mut residual);
    format!(
        "blocking path ({path}) leaves an uncovered residual of p50 {p50} ns, \
         p99 {p99} ns per op over {} traced ops",
        residual.len()
    )
}
