//! Percentiles, process memory and the set-up sampler shared by the
//! workloads.

use std::process::{Command, Stdio};

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between
/// the two nearest ranks. NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The cost of an operation measured again and again: the best (lowest)
/// of the repeats. The benchmark host is shared, and its slow spells —
/// measured at up to 2x for seconds at a time — only ever add time; the
/// best repeat tracks the program, where a mean or even a median flips
/// with the host's state from run to run.
pub fn best(repeats: &[f64]) -> f64 {
    quantile(repeats, 0.0)
}

/// A field of `/proc/<pid>/status` in KiB (`VmHWM` is the peak resident
/// set). Linux only, like the epoll backend the server runs on.
pub fn proc_status_kib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident memory of this process, in MiB.
pub fn self_peak_rss_mib() -> f64 {
    proc_status_kib("self", "VmHWM:").unwrap_or(f64::NAN) / 1024.0
}

/// One `setup_s` sample: the seconds `perfbench setup-probe` reports
/// for `workload` in a fresh process, where nothing has been initialised
/// yet. Workloads take such samples throughout a run and report their
/// [`median`].
pub fn fresh_setup(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let output = Command::new(exe)
        .args(["setup-probe", workload, &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    match text.trim().parse() {
        Ok(seconds) if output.status.success() => Ok(seconds),
        _ => Err(format!(
            "the set-up probe failed ({}): {text:?}",
            output.status
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
