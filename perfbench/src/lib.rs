//! The repository benchmark. See `README.md` in this directory for the
//! workloads, the metrics and what each metric is expected to move.

pub mod cli;
pub mod gen;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// Where runs leave their span files and shared-memory segments: `out/`
/// in this package's directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a traced run's spans to `out/spans-<workload>.tsv`. A failure to
/// write is reported but does not fail the run.
pub fn write_spans(tracer: &trace::Tracer, workload: &str) {
    let path = out_dir().join(format!("spans-{workload}.tsv"));
    match tracer.write_tsv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}
