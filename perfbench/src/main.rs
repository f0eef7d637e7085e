//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, and prints a provenance line, a
//! table of metrics with units and sample counts, and, as the last line
//! of standard output, the JSON result. Exits nonzero when any check
//! fails.

use perfbench::cli::{self, Args};
use perfbench::report::{self, json_str};
use perfbench::workloads::{self, Outcome};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(cli::SHM_CHILD) {
        return workloads::shm_mixed::receiver_main(&argv[1..]);
    }
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let outcome = match args.workload {
        "paced_put" => workloads::paced_put::run(&args),
        "incast" | "incast_lossy" => workloads::incast::run(&args),
        "shm_mixed" => workloads::shm_mixed::run(&args),
        "sweep3d_sim" => workloads::sweep3d_sim::run(&args),
        other => unreachable!("cli accepted unknown workload {other}"),
    };
    report_outcome(&args, outcome)
}

fn report_outcome(args: &Args, mut o: Outcome) -> ExitCode {
    if o.attempted == 0 {
        o.problems.push("no operation was attempted".into());
    }
    if o.failed > 0 {
        o.problems
            .push(format!("{} of {} operations failed", o.failed, o.attempted));
    }
    let (catalogue, required) = if args.trace {
        (&report::PER_LAYER[..], false)
    } else {
        (&report::END_TO_END[..], true)
    };
    let metrics = if o.problems.is_empty() {
        report::complete(catalogue, &o.metrics, required).unwrap_or_else(|e| {
            o.problems.push(e);
            Vec::new()
        })
    } else {
        Vec::new()
    };
    for n in &o.notes {
        println!("note: {n}");
    }
    println!(
        "{} ({}) — attempted {}, failed {}",
        args.workload,
        if args.trace {
            "per-layer, traced"
        } else {
            "end-to-end"
        },
        o.attempted,
        o.failed
    );
    print!("{}", report::table(&metrics));
    if !o.extra.is_empty() {
        println!("also measured:");
        print!("{}", report::table(&o.extra));
    }
    for p in &o.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = o.problems.is_empty();
    println!(
        "{}",
        report::result_json(correct, o.attempted.max(1), o.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Host and build descriptor printed with every result.
fn provenance(args: &Args) -> String {
    let nproc = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?
                .to_string();
            Some(cpu_list_len(line.split_whitespace().nth(1)?))
        })
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \"rustc\": {}, \
         \"commit\": {}, \"load_generator_threads\": 1}}",
        json_str(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
    )
}

/// Number of CPUs in a list such as `0-3,6`.
fn cpu_list_len(list: &str) -> usize {
    list.split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}
