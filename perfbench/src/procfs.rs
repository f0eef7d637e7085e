//! `/proc` readers: per-thread CPU time and peak resident memory, for the
//! benchmark's own process and for the shared-memory receiver process.

use std::fs;

/// Linux `USER_HZ`: the unit of the tick counters in `/proc/<pid>/stat`.
const TICK_NS: u64 = 10_000_000;

/// CPU time (ns) from a `schedstat` line: its first field is the time the
/// task spent on a CPU.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// user + system CPU ticks from a `stat` line. The command name may hold
/// spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After ")": state(3) ... utime is field 14, stime 15 of the full line.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in bytes from a `status` file.
pub fn parse_vmhwm(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// CPU time of one thread, ns. Prefers `schedstat` (ns resolution) and
/// falls back to the tick counters.
pub fn thread_cpu_ns(pid: u32, tid: u32) -> Option<u64> {
    let dir = format!("/proc/{pid}/task/{tid}");
    if let Some(ns) = fs::read_to_string(format!("{dir}/schedstat"))
        .ok()
        .and_then(|t| parse_schedstat(&t))
    {
        return Some(ns);
    }
    let ticks = parse_stat_ticks(&fs::read_to_string(format!("{dir}/stat")).ok()?)?;
    Some(ticks * TICK_NS)
}

/// Summed CPU time (ns) of the live threads of `pid`, except `exclude`.
pub fn threads_cpu_ns(pid: u32, exclude: Option<u32>) -> u64 {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&tid| Some(tid) != exclude)
        .filter_map(|tid| thread_cpu_ns(pid, tid))
        .sum()
}

/// CPU time (ns) of a whole process, exited threads included (tick
/// resolution).
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    let ticks = parse_stat_ticks(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    Some(ticks * TICK_NS)
}

/// Peak resident memory of `pid` in bytes.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    parse_vmhwm(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat() {
        assert_eq!(
            parse_schedstat("337767173 12722977 32\n"),
            Some(337_767_173)
        );
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let line = "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 100 0 0 0 33 7 0 0 20 0 3 0 \
                    1000 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some(40));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn parses_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm(status), Some(1536 * 1024));
        assert_eq!(parse_vmhwm("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let pid = std::process::id();
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worker = std::thread::spawn(move || {
            let t = std::time::Instant::now();
            let mut y = 0u64;
            while t.elapsed().as_millis() < 30 {
                y = std::hint::black_box(y.wrapping_add(1));
            }
            y
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let all = threads_cpu_ns(pid, None);
        assert!(all >= 10_000_000, "live threads' CPU {all} ns");
        worker.join().expect("spinner");
        assert!(process_cpu_ns(pid).expect("stat") > 0);
        assert!(peak_rss_bytes(pid).expect("status") > 1 << 20);
        assert!(x > 0);
    }
}
