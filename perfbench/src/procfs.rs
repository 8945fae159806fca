//! Process CPU time and peak memory from `/proc/self`.

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`; 100 on every
/// Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds, or `None`
/// where `/proc/self/stat` is unavailable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_positive_on_linux() {
        if cfg!(target_os = "linux") {
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
            assert!(super::cpu_seconds().unwrap() >= 0.0);
            assert!(super::peak_rss_mb().unwrap() > 0.0);
        }
    }
}
