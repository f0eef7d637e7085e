//! Command line. Unknown flags, unknown workloads, missing or repeated
//! values are errors: a typo must never silently run a default.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "paced_put",
    "incast",
    "incast_lossy",
    "shm_mixed",
    "sweep3d_sim",
];

/// Hidden first argument of the shared-memory receiver process the
/// `shm_mixed` workload starts by re-executing this binary.
pub const SHM_CHILD: &str = "--shm-receiver";

pub const USAGE: &str =
    "usage: perfbench --workload <paced_put|incast|incast_lossy|shm_mixed|sweep3d_sim> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument {other:?}")),
        };
        if slot.is_some() {
            return Err(format!("{flag} given twice"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        *slot = Some(value.clone());
    }
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let name = need(workload, "--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = need(seed, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = need(seconds, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_all_four_flags_in_any_order() {
        let a = parse(&argv("--workload incast --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "incast",
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        let b = parse(&argv(
            "--trace 0 --seconds 1 --seed 0 --workload sweep3d_sim",
        ))
        .unwrap();
        assert!(!b.trace && b.workload == "sweep3d_sim");
    }

    #[test]
    fn rejects_typos_and_bad_values() {
        let bad = [
            "--workload incats --seed 1 --seconds 1 --trace 0",
            "--workload incast --seed 1 --seconds 1 --trace 0 --quick",
            "--workload incast --sed 1 --seconds 1 --trace 0",
            "--workload incast --seed -1 --seconds 1 --trace 0",
            "--workload incast --seed 1 --seconds 0 --trace 0",
            "--workload incast --seed 1 --seconds 1 --trace yes",
            "--workload incast --seed 1 --seconds 1",
            "--workload incast --workload incast --seed 1 --seconds 1 --trace 0",
            "--workload incast --seed 1 --seconds 1 --trace",
            "paced_put",
        ];
        for b in bad {
            assert!(parse(&argv(b)).is_err(), "accepted {b:?}");
        }
    }
}
