//! Metric catalogue and result output. The names here are the contract
//! `BENCHMARK.json` records and later changes cite.

use std::fmt::Write;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `lat_p99_us` and `worker_cpu_us_per_op` are printed beside them but not
/// gated: on a shared 2-vCPU host their run-to-run spread exceeds any
/// usable bound on some workloads (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("goodput_MBps", "MB/s"),
    ("peak_rss_MB", "MB"),
];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not reach a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("transport_threaded.put_at_ns.p50", "ns"),
    ("transport_threaded.put_at_ns.p99", "ns"),
    ("transport_threaded.batch_flush_ns.p50", "ns"),
    ("transport_threaded.puts_per_flush", "count"),
    ("transport_threaded.route_hit_ratio", "ratio"),
    ("transport_threaded.self_ns_per_op", "ns"),
    ("ring.park_wakeups_per_op", "count"),
    ("ring.max_depth", "count"),
    ("ring.full_stalls", "count"),
    ("notify.wait_ns.p50", "ns"),
    ("notify.wait_ns.p99", "ns"),
    ("notify.wakes_per_op", "count"),
    ("notify.spurious_polls", "count"),
    ("notify.self_ns_per_op", "ns"),
    ("cq.poll_batch_ns.p50", "ns"),
    ("cq.entries_per_poll", "count"),
    ("cq.empty_poll_ratio", "ratio"),
    ("cq.overflowed", "count"),
    ("cq.self_ns_per_op", "ns"),
    ("window.post_ns.p50", "ns"),
    ("window.self_ns_per_op", "ns"),
    ("pool.hit_ratio", "ratio"),
    ("endpoint.fragments_per_op", "count"),
    ("endpoint.copies_per_byte", "ratio"),
    ("endpoint.lut_miss_ratio", "ratio"),
    ("endpoint.nacks", "count"),
    ("endpoint.duplicates_dropped", "count"),
    ("retry.transmits_per_fragment", "ratio"),
    ("retry.dropped_rate", "ratio"),
    ("retry.duplicated_rate", "ratio"),
    ("retry.deferred_rate", "ratio"),
    ("transport_shm.put_notify_ns.p50", "ns"),
    ("transport_shm.future_wait_ns.p50", "ns"),
    ("transport_shm.future_wait_ns.p99", "ns"),
    ("transport_shm.reserve_extent_ns.p50", "ns"),
    ("transport_shm.eager_fallbacks", "count"),
    ("transport_shm.staged_bytes_per_byte", "ratio"),
    ("transport_shm.server_cpu_us_per_op", "us"),
    ("transport_shm.self_ns_per_op", "ns"),
    ("motifs.build_s", "s"),
    ("sim.run_s.seq_rvma", "s"),
    ("sim.run_s.seq_rdma", "s"),
    ("sim.run_s.par_rvma", "s"),
    ("sim.run_s.par_rdma", "s"),
    ("sim.events.seq_rvma", "count"),
    ("sim.events.seq_rdma", "count"),
    ("sim.events.par_rvma", "count"),
    ("sim.events.par_rdma", "count"),
    ("sim.final_time_ns.seq_rvma", "ns_simulated"),
    ("sim.final_time_ns.seq_rdma", "ns_simulated"),
    ("sim.final_time_ns.par_rvma", "ns_simulated"),
    ("sim.final_time_ns.par_rdma", "ns_simulated"),
    ("sim.rvma_rdma_time_ratio.seq", "ratio"),
    ("sim.rvma_rdma_time_ratio.par", "ratio"),
    ("sim.cross_events_ratio.par_rvma", "ratio"),
    ("sim.cross_events_ratio.par_rdma", "ratio"),
    ("sim.mailbox_spills", "count"),
    ("sim.self_ns_per_op", "ns"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.residual_ns_per_op", "ns"),
    ("bench.residual_share", "ratio"),
    ("bench.trace_overhead_lat_p50_us", "us"),
    ("bench.trace_overhead_ops_per_s", "1/s"),
    ("bench.spans", "count"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the number (ops, slices or repetitions).
    pub samples: u64,
}

fn unit_of(catalogue: &[(&'static str, &'static str)], name: &str) -> &'static str {
    catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

impl Metric {
    pub fn e2e(name: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name,
            unit: unit_of(&END_TO_END, name),
            value,
            samples,
        }
    }

    pub fn layer(name: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name,
            unit: unit_of(&PER_LAYER, name),
            value,
            samples,
        }
    }
}

/// Every catalogue metric in catalogue order, taking values from
/// `measured` and 0 for the ones the workload does not reach. Errors if a
/// measured value is missing from `required` or not finite.
pub fn complete(
    catalogue: &[(&'static str, &'static str)],
    measured: &[Metric],
    required: bool,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        match measured.iter().find(|m| m.name == name) {
            Some(m) if !m.value.is_finite() => {
                return Err(format!("metric {name} is not a finite number"))
            }
            Some(m) => out.push(m.clone()),
            None if required => return Err(format!("metric {name} was not measured")),
            None => out.push(Metric {
                name,
                unit,
                value: 0.0,
                samples: 0,
            }),
        }
    }
    Ok(out)
}

/// The result line: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// Human-readable table of metrics with units and sample counts.
pub fn table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut s = String::new();
    for m in metrics {
        writeln!(
            s,
            "  {:<width$}  {:>16.4}  {:<6}  n={}",
            m.name, m.value, m.unit, m.samples
        )
        .expect("write to String");
    }
    s
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} repeated");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric::e2e("setup_s", 0.25, 3)];
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(complete(&END_TO_END, &m, true).is_err());
        let filled = complete(&PER_LAYER, &[], false).expect("fill");
        assert_eq!(filled.len(), PER_LAYER.len());
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
