//! Process memory introspection: the `remp_peak_rss_bytes` gauge.
//!
//! The scale work (PR 9) promises campaigns whose peak resident set is
//! sublinear in the candidate cross-product; that promise is only
//! enforceable if the number is observable. On Linux the kernel already
//! tracks it — `VmHWM` in `/proc/self/status` is the resident-set
//! high-water mark — so sampling is one small file read, no allocation
//! churn of its own.
//!
//! Samples are taken at natural checkpoints rather than on a timer:
//! `rempd` samples when `/metrics` is scraped, `rempctl top` shows the
//! value, the scale bench harness samples after each point and embeds
//! the figure in its report, and `rempctl bench --max-rss-mb N` turns
//! the gauge into a hard gate.

use crate::Gauge;

/// The peak resident set size (`VmHWM`) of this process in bytes, or
/// `None` where `/proc/self/status` is unavailable (non-Linux).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// The current resident set size (`VmRSS`) in bytes, if available.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Reads one `kB` field from `/proc/self/status`.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Samples `VmHWM` into the global [`crate::names::PEAK_RSS_BYTES`]
/// gauge and returns the sampled value in bytes.
///
/// A no-op (returning `None`) when observability is disabled or the
/// platform has no `/proc/self/status`.
pub fn sample_peak_rss() -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    let bytes = peak_rss_bytes()?;
    peak_rss_gauge().set(bytes as f64);
    Some(bytes)
}

/// The global peak-RSS gauge handle.
fn peak_rss_gauge() -> Gauge {
    crate::global().gauge(
        crate::names::PEAK_RSS_BYTES,
        "Peak resident set size of this process in bytes (VmHWM).",
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_parses_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        // Only parseability and plausibility are asserted: some
        // sandboxed kernels synthesise /proc values, so cross-read
        // monotonicity of VmHWM is not testable here.
        assert!(peak_rss_bytes().expect("Linux exposes VmHWM") > 0);
        assert!(current_rss_bytes().expect("Linux exposes VmRSS") > 0);
    }

    #[test]
    fn sampling_feeds_the_global_gauge() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let sampled = sample_peak_rss();
        if crate::enabled() {
            let v = sampled.expect("enabled sampling returns the value") as f64;
            assert_eq!(peak_rss_gauge().get(), v);
        }
    }
}
