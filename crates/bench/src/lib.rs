//! # rvma-bench — figure-regeneration harness
//!
//! Shared machinery for the per-figure binaries (`fig4_verbs_latency`,
//! `fig5_ucx_latency`, `fig6_amortization`, `fig7_sweep3d`, `fig8_halo3d`,
//! `headline_summary`, and the ablations) and the Criterion benches.
//!
//! The motif figures sweep `topology × routing × link speed × protocol`;
//! [`topology_for`] picks the smallest instance of each family with at
//! least the requested terminal count (spare terminals run
//! [`IdleNode`](rvma_motifs::IdleNode)), and [`factor3`]/[`factor2`] shape
//! the motif process grids.

pub mod report;
pub mod sweep;

pub use report::{print_table, write_csv};
pub use sweep::{
    factor2, factor3, motif_matrix, topology_for, MatrixCell, SweepConfig, TopologyFamily,
    LINK_SPEEDS_GBPS,
};

/// Exit with status 2 unless every argument is one of the `known` flags: a
/// typo'd or retired flag must fail loudly instead of silently running the
/// default configuration.
pub fn reject_unknown_flags(args: &[String], known: &[&str]) {
    if let Some(bad) = args.iter().find(|a| !known.contains(&a.as_str())) {
        eprintln!("unknown argument {bad:?}; accepted: {}", known.join(" "));
        std::process::exit(2);
    }
}
