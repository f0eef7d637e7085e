//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions. Nothing inside the program is
//! instrumented: a span's time is the time of the call as the caller saw
//! it. Spans are kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// ns since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Record one operation in this many (1 = every operation).
    sample_every: u64,
}

impl Tracer {
    pub fn new(origin: Instant, sample_every: u64) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            sample_every: sample_every.max(1),
        }
    }

    pub fn sampled(&self, op: u64) -> bool {
        op.is_multiple_of(self.sample_every)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Write every span as a tab-separated line:
    /// `id parent op name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.op, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Length of the part of `within` that the intervals cover (overlaps
/// counted once, parts outside `within` ignored).
pub fn covered(within: (u64, u64), intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (lo, hi) = within;
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered((s.start, s.end), kids))
        .collect()
}

/// Total self time (ns) per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", 0, 100, None),
            span("put", 10, 30, Some(0)),
            span("wait", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("op", 100, 200, None),
            span("a", 90, 140, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,160) and [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = [
            span("op", 0, 100, None),
            span("call", 0, 60, Some(0)),
            span("inner", 10, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["op"] + by["call"] + by["inner"], 100);
    }

    #[test]
    fn covered_handles_empty_and_nested() {
        assert_eq!(covered((0, 10), &mut []), 0);
        assert_eq!(covered((0, 10), &mut [(2, 8), (3, 4)]), 6);
        assert_eq!(covered((0, 10), &mut [(12, 20)]), 0);
    }

    #[test]
    fn sampling_and_export() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0, 4);
        assert!(t.sampled(0) && !t.sampled(1) && t.sampled(8));
        let root = t.record("op", t0, t0 + std::time::Duration::from_micros(5), None, 0);
        t.record(
            "put",
            t0,
            t0 + std::time::Duration::from_micros(2),
            Some(root),
            0,
        );
        assert_eq!(t.durations("put"), vec![2_000]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("spans.tsv");
        t.write_tsv(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().ends_with("\t3000"));
    }
}
