//! `remp-obs` — dependency-free observability for the Remp workspace.
//!
//! The build environment has no crates.io access, so the usual
//! `prometheus`/`tracing` stacks are out; this crate provides the
//! minimal production surface the ROADMAP's fleet-operation goals need,
//! in three layers:
//!
//! * **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): atomic instruments behind cheap clonable handles,
//!   rendered in Prometheus text-exposition format (`rempd` serves it
//!   at `GET /metrics`) and parsed back by [`Exposition`] (used by
//!   `rempctl top`, `rempctl metrics` and the round-trip tests).
//!   Histograms use fixed cumulative buckets; p50/p90/p99 come from
//!   linear interpolation within the rank's bucket.
//! * **Spans** ([`time_stage`], [`Span`]): one `Instant` measurement
//!   feeding the caller's own stats struct, the
//!   `remp_stage_seconds{stage}` histogram and — when a collection is
//!   active ([`trace_begin`]/[`trace_take`]) — the `spans.jsonl` trace,
//!   so the numbers in `loop_stats` JSON and `/metrics` can never
//!   drift apart.
//! * **Events** ([`event`], [`events_snapshot`]): a bounded in-memory
//!   ring of structured events plus JSONL to stderr above the
//!   `REMP_LOG` threshold. Emission takes a closure, so a filtered
//!   event allocates nothing.
//!
//! Everything is gated on a process-wide [`enabled`] flag (env
//! `REMP_OBS=0` or [`set_enabled`]): with it off, instruments still
//! exist but spans, metrics recording and events short-circuit before
//! any allocation. Instrumentation is observation-only — it never
//! touches RNG streams, iteration order or control flow, which is what
//! keeps the bit-identical equivalence suites green with tracing fully
//! enabled.

mod events;
mod expo;
mod metrics;
mod rss;
mod trace;

pub use events::{
    event, events_snapshot, set_stderr_level, stderr_level, Event, Level, LOG_ENV, RING_CAPACITY,
};
pub use expo::{Exposition, Sample};
pub use metrics::{
    escape_help, escape_label, format_value, quantile_from_buckets, Counter, Gauge, Histogram,
    MetricsRegistry, SECONDS_BUCKETS,
};
pub use rss::{current_rss_bytes, peak_rss_bytes, sample_peak_rss};
pub use trace::{
    record_stage, spans_to_jsonl, time_stage, trace_active, trace_begin, trace_take, Span,
    SpanRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Environment variable disabling all instrumentation when set to
/// `0`/`false`/`off`.
pub const OBS_ENV: &str = "REMP_OBS";

/// The canonical metric names — one place for code, `METRICS.md` and
/// the CI scrape gate to agree on.
pub mod names {
    /// Histogram: wall-clock seconds per pipeline/session stage
    /// (`stage` label; the nine pipeline stages, `submit`, `finalize`
    /// and `classifier`).
    pub const STAGE_SECONDS: &str = "remp_stage_seconds";
    /// Counter: propagation refreshes, by `mode` (`incremental`/`full`).
    pub const LOOPS_TOTAL: &str = "remp_loops_total";
    /// Counter: vertices whose probabilistic edges were recomputed.
    pub const LOOP_DIRTY_VERTICES_TOTAL: &str = "remp_loop_dirty_vertices_total";
    /// Counter: inferred sets recomputed by the incremental engine (one
    /// per eligible source of a dirty component).
    pub const LOOP_RECOMPUTED_SOURCES_TOTAL: &str = "remp_loop_recomputed_sources_total";
    /// Counter: inferred-set entries the incremental engine wrote (the
    /// summed length of the recomputed inferred sets).
    pub const LOOP_SETTLED_VERTICES_TOTAL: &str = "remp_loop_settled_vertices_total";
    /// Counter: condensed searches over clusters of near-zero edges, one
    /// per cluster holding an eligible source.
    pub const LOOP_CLUSTER_SEARCHES_TOTAL: &str = "remp_loop_cluster_searches_total";
    /// Counter: sources of a cluster the rounding guard could not decide,
    /// which ran their own search.
    pub const LOOP_FALLBACK_SOURCES_TOTAL: &str = "remp_loop_fallback_sources_total";
    /// Counter: garbage collections of the probabilistic ER graph's
    /// edge arena.
    pub const PG_ARENA_COMPACTIONS_TOTAL: &str = "remp_pg_arena_compactions_total";
    /// Gauge: persistent helper threads the `remp-par` pool has spawned.
    pub const PAR_HELPER_THREADS: &str = "remp_par_helper_threads";
    /// Gauge: live inferred-set entries (pair ids) after the last
    /// propagation refresh.
    pub const INFERRED_ENTRIES: &str = "remp_inferred_entries";
    /// Gauge: distinct feature vectors in the isolated-pair classifier's
    /// last run, by `set` (`training`/`targets`).
    pub const CLASSIFIER_DISTINCT_ROWS: &str = "remp_classifier_distinct_rows";
    /// Counter: crowd questions created by sessions.
    pub const QUESTIONS_ASKED_TOTAL: &str = "remp_questions_asked_total";
    /// Counter: answer sets submitted into sessions (completed
    /// questions).
    pub const ANSWERS_SUBMITTED_TOTAL: &str = "remp_answers_submitted_total";
    /// Counter: HTTP requests served, by `method`, `route`, `status`.
    pub const HTTP_REQUESTS_TOTAL: &str = "remp_http_requests_total";
    /// Histogram: HTTP request latency in seconds, by `route`.
    pub const HTTP_REQUEST_SECONDS: &str = "remp_http_request_seconds";
    /// Gauge: TCP connections currently open on the server.
    pub const HTTP_CONNECTIONS_OPEN: &str = "remp_http_connections_open";
    /// Counter: requests served on an already-established keep-alive
    /// connection (every request after a connection's first).
    pub const HTTP_KEEPALIVE_REUSE_TOTAL: &str = "remp_http_keepalive_reuse_total";
    /// Counter: answer records appended to campaign write-ahead logs.
    pub const WAL_RECORDS_TOTAL: &str = "remp_wal_records_total";
    /// Counter: bytes appended to campaign write-ahead logs.
    pub const WAL_BYTES_TOTAL: &str = "remp_wal_bytes_total";
    /// Counter: delta frames appended to campaign write-ahead logs.
    pub const WAL_DELTA_FRAMES_TOTAL: &str = "remp_wal_delta_frames_total";
    /// Counter: bytes of delta frames appended to campaign write-ahead
    /// logs.
    pub const WAL_DELTA_BYTES_TOTAL: &str = "remp_wal_delta_bytes_total";
    /// Counter: campaign base state files written, by `reason`
    /// (`genesis`, `outgrown`, `checkpoint`).
    pub const STATE_BASE_WRITES_TOTAL: &str = "remp_state_base_writes_total";
    /// Gauge: long-poll `/next` requests currently parked server-side.
    pub const LONGPOLL_WAITERS: &str = "remp_longpoll_waiters";
    /// Counter: long-poll dispatcher wake-ups, by `reason` (`park`,
    /// `event`, `shutdown`, `timeout`).
    pub const LONGPOLL_DISPATCHER_WAKEUPS_TOTAL: &str = "remp_longpoll_dispatcher_wakeups_total";
    /// Counter: structured events emitted, by `level`.
    pub const EVENTS_TOTAL: &str = "remp_events_total";
    /// Counter: leases granted, per `campaign`.
    pub const LEASES_ISSUED_TOTAL: &str = "remp_leases_issued_total";
    /// Counter: leases that expired unanswered, per `campaign`.
    pub const LEASES_EXPIRED_TOTAL: &str = "remp_leases_expired_total";
    /// Counter: grants that re-issued an expired slot, per `campaign`.
    pub const LEASES_REISSUED_TOTAL: &str = "remp_leases_reissued_total";
    /// Gauge: currently open questions, per `campaign`.
    pub const CAMPAIGN_OPEN_QUESTIONS: &str = "remp_campaign_open_questions";
    /// Gauge: questions asked so far, per `campaign`.
    pub const CAMPAIGN_QUESTIONS_ASKED: &str = "remp_campaign_questions_asked";
    /// Gauge: registered workers, per `campaign`.
    pub const CAMPAIGN_WORKERS: &str = "remp_campaign_workers";
    /// Gauge: 1 when the campaign is complete, else 0, per `campaign`.
    pub const CAMPAIGN_COMPLETE: &str = "remp_campaign_complete";
    /// Counter: simulator ticks executed.
    pub const SIM_TICKS_TOTAL: &str = "remp_sim_ticks_total";
    /// Counter: simulated answers delivered into engines.
    pub const SIM_DELIVERED_TOTAL: &str = "remp_sim_delivered_total";
    /// Gauge: peak resident set size of the process in bytes (`VmHWM`
    /// from `/proc/self/status`), sampled by
    /// [`sample_peak_rss`](crate::sample_peak_rss).
    pub const PEAK_RSS_BYTES: &str = "remp_peak_rss_bytes";
}

fn enabled_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| {
        let off = std::env::var(OBS_ENV)
            .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "0" | "false" | "off"));
        AtomicBool::new(!off)
    })
}

/// Whether instrumentation is recording (default on; `REMP_OBS=0`
/// starts it off).
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Turns all metric/span/event recording on or off at runtime —
/// `tests/obs_equivalence.rs` switches it off to show that
/// instrumentation changes no campaign output.
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

/// The process-wide registry every layer records into and `/metrics`
/// renders from.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip the process-wide enabled flag.
    fn enabled_flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_and_gauges_read_back() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_cumulate_and_quantiles_interpolate() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 15.5).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![(1.0, 1), (2.0, 3), (4.0, 4), (f64::INFINITY, 5)]);
        // Median rank 2.5 lands in (1,2]: 1 + (2.5-1)/2 * 1 = 1.75.
        assert!((h.quantile(0.5).unwrap() - 1.75).abs() < 1e-12);
        // q=1 lands in +Inf, clamped to the largest finite bound.
        assert_eq!(h.quantile(1.0), Some(4.0));
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None, "empty histogram");
    }

    #[test]
    fn registry_get_or_create_shares_and_register_replaces() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t_shared_total", "h", &[("k", "v")]);
        let b = reg.counter("t_shared_total", "h", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) share one cell");
        let owned = Counter::new();
        owned.add(7);
        reg.register_counter("t_shared_total", "h", &[("k", "v")], &owned);
        let rendered = reg.render();
        assert!(rendered.contains("t_shared_total{k=\"v\"} 7"), "{rendered}");
        reg.remove_label_value("k", "v");
        assert_eq!(reg.series_count(), 0);
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("t_requests_total", "Requests served.", &[("route", "/campaigns/{id}")]).add(3);
        reg.gauge("t_open", "Open questions.", &[]).set(4.5);
        let h = reg.histogram("t_latency_seconds", "Latency.", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = reg.render();
        let expo = Exposition::parse(&text).expect("rendered exposition parses");
        assert_eq!(expo.types.get("t_requests_total").map(String::as_str), Some("counter"));
        assert_eq!(expo.value("t_requests_total", &[("route", "/campaigns/{id}")]), Some(3.0));
        assert_eq!(expo.value("t_open", &[]), Some(4.5));
        assert_eq!(expo.value("t_latency_seconds_bucket", &[("le", "+Inf")]), Some(3.0));
        assert_eq!(expo.value("t_latency_seconds_count", &[]), Some(3.0));
        let p50 = expo.histogram_quantile("t_latency_seconds", &[], 0.5).unwrap();
        assert!((0.0..=1.0).contains(&p50), "{p50}");
    }

    #[test]
    fn label_escaping_round_trips() {
        let reg = MetricsRegistry::new();
        let tricky = "quote \" slash \\ nl \n end";
        reg.counter("t_esc_total", "Help with \\ and\nnewline.", &[("v", tricky)]).inc();
        let text = reg.render();
        let expo = Exposition::parse(&text).expect("escaped exposition parses");
        assert_eq!(expo.value("t_esc_total", &[("v", tricky)]), Some(1.0));
        assert_eq!(
            expo.helps.get("t_esc_total").map(String::as_str),
            Some("Help with \\ and\nnewline.")
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "name{le=\"0.1} 3",
            "name{le} 3",
            "name{} ",
            "name 1 2 3",
            "name{a=\"b\"} nope",
            "# TYPE t weird",
        ] {
            assert!(Exposition::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn time_stage_measures_and_records() {
        let _guard = enabled_flag_lock();
        set_enabled(true);
        let before = global()
            .histogram(names::STAGE_SECONDS, "h", &[("stage", "obs_test_stage")], SECONDS_BUCKETS)
            .count();
        let ((), secs) = time_stage("obs_test_stage", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        let after = global()
            .histogram(names::STAGE_SECONDS, "h", &[("stage", "obs_test_stage")], SECONDS_BUCKETS)
            .count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn trace_collects_spans_in_order() {
        let _guard = enabled_flag_lock();
        set_enabled(true);
        trace_begin();
        time_stage("obs_trace_a", || {});
        time_stage("obs_trace_b", || {});
        let spans = trace_take();
        let names: Vec<&str> =
            spans.iter().filter(|s| s.name.starts_with("obs_trace_")).map(|s| s.name).collect();
        assert_eq!(names, ["obs_trace_a", "obs_trace_b"]);
        let jsonl = spans_to_jsonl(&spans);
        for line in jsonl.lines() {
            remp_json::Json::parse(line).expect("every spans.jsonl line is JSON");
        }
        assert!(trace_take().is_empty(), "collection stops after take");
    }

    #[test]
    fn events_enter_the_ring_and_respect_levels() {
        let _guard = enabled_flag_lock();
        set_enabled(true);
        set_stderr_level(None);
        event(Level::Info, "obs.test", Some("ring-c0"), || {
            ("hello".to_owned(), vec![("n", remp_json::Json::from(1u64))])
        });
        event(Level::Debug, "obs.test", Some("ring-c0"), || {
            panic!("debug events below every sink must not be built")
        });
        let events = events_snapshot(Some("ring-c0"), 10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "hello");
        assert_eq!(events[0].to_json().get("campaign").and_then(|j| j.as_str()), Some("ring-c0"));
        assert!(events_snapshot(Some("no-such-campaign"), 10).is_empty());
    }

    #[test]
    fn disabled_mode_skips_recording_but_still_times() {
        let _guard = enabled_flag_lock();
        set_enabled(false);
        let before = global()
            .histogram(names::STAGE_SECONDS, "h", &[("stage", "obs_disabled")], SECONDS_BUCKETS)
            .count();
        let ((), secs) = time_stage("obs_disabled", || {});
        assert!(secs >= 0.0);
        event(Level::Error, "obs.test", None, || panic!("disabled events must not be built"));
        let after = global()
            .histogram(names::STAGE_SECONDS, "h", &[("stage", "obs_disabled")], SECONDS_BUCKETS)
            .count();
        assert_eq!(after, before);
        set_enabled(true);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("WARN"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("noisy"), None);
        assert!(Level::Debug < Level::Error);
    }
}
