//! The benchmark's own spans: recorded in memory around each call into a
//! layer's public functions, written out when the run ends, and folded
//! into an attribution table whose rows plus `unattributed` add up to
//! the traced run's `setup_s + campaign_s`.

use std::time::Instant;

use remp_json::Json;

/// One closed span. `parent` indexes the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub dur_s: f64,
    pub parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Times `f` as a span named `name` under `parent`; returns its
    /// result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let dur_s = start.elapsed().as_secs_f64();
        let start_s = start.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span { name, start_s, dur_s, parent });
        (out, self.spans.len() - 1)
    }

    /// Times `f` as a top-level span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, None, f).0
    }

    /// Records a top-level span from `start` to now.
    pub fn record(&mut self, name: &'static str, start: Instant) {
        self.record_between(name, start, Instant::now());
    }

    /// Records a top-level span from `start` to `end`.
    pub fn record_between(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start_s = start.saturating_duration_since(self.origin).as_secs_f64();
        let dur_s = end.saturating_duration_since(start).as_secs_f64();
        self.spans.push(Span { name, start_s, dur_s, parent: None });
    }

    /// Records a child of `parent` whose duration the layer itself
    /// measured (e.g. the stage split of one `next_batch` reported by
    /// `RempSession::loop_stats`). It starts where its parent starts;
    /// only its duration is meaningful.
    pub fn child(&mut self, parent: usize, name: &'static str, dur_s: f64) {
        let start_s = self.spans[parent].start_s;
        self.spans.push(Span { name, start_s, dur_s, parent: Some(parent) });
    }

    /// Total duration and count of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_s, n + 1))
    }

    /// Self time per span name (duration minus the children's), in order
    /// of first appearance.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur_s;
            }
        }
        let mut rows: Vec<(String, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur_s - child_time[i];
            match rows.iter_mut().find(|(n, _)| n == s.name) {
                Some(row) => row.1 += own,
                None => rows.push((s.name.to_owned(), own)),
            }
        }
        rows
    }

    /// Every span, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::from(s.name),
                        Json::from(s.start_s),
                        Json::from(s.dur_s),
                        s.parent.map_or(Json::Null, Json::from),
                    ])
                })
                .collect(),
        )
    }
}

/// Layer self-times of one traced run against its end-to-end total.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// `setup_s + campaign_s` of the traced run.
    pub total_s: f64,
    /// `(layer row, seconds)`.
    pub rows: Vec<(String, f64)>,
}

impl Attribution {
    /// The time no layer row accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.total_s - self.rows.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// `unattributed_s` as a percentage of the total.
    pub fn unattributed_pct(&self) -> f64 {
        if self.total_s > 0.0 {
            self.unattributed_s() / self.total_s * 100.0
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> Json {
        let mut rows: Vec<Json> =
            self.rows.iter().map(|(name, s)| row_json(name, *s, self.total_s)).collect();
        rows.push(row_json("unattributed", self.unattributed_s(), self.total_s));
        Json::Obj(vec![
            ("total_s".into(), Json::from(self.total_s)),
            ("rows".into(), Json::Arr(rows)),
            ("unattributed_pct".into(), Json::from(self.unattributed_pct())),
        ])
    }

    /// The table as text, one row per line.
    pub fn lines(&self) -> Vec<String> {
        let pct = |s: f64| if self.total_s > 0.0 { s / self.total_s * 100.0 } else { 0.0 };
        let mut out = vec![format!("{:<28} {:>10} {:>7}", "layer", "seconds", "share")];
        for (name, s) in &self.rows {
            out.push(format!("{name:<28} {s:>10.4} {:>6.1}%", pct(*s)));
        }
        let u = self.unattributed_s();
        out.push(format!("{:<28} {u:>10.4} {:>6.1}%", "unattributed", pct(u)));
        out.push(format!(
            "{:<28} {:>10.4} {:>6.1}%",
            "total (setup_s + campaign_s)", self.total_s, 100.0
        ));
        out
    }
}

fn row_json(name: &str, s: f64, total: f64) -> Json {
    Json::Obj(vec![
        ("layer".into(), Json::from(name)),
        ("seconds".into(), Json::from(s)),
        ("share_pct".into(), Json::from(if total > 0.0 { s / total * 100.0 } else { 0.0 })),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let ((), parent) =
            t.span("outer", None, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.child(parent, "inner", 0.001);
        let rows = t.self_times();
        assert_eq!(rows[0].0, "outer");
        assert_eq!(rows[1], ("inner".to_owned(), 0.001));
        let outer_total = t.total("outer").0;
        assert!((rows[0].1 - (outer_total - 0.001)).abs() < 1e-12);
        let a = Attribution { total_s: outer_total + 0.5, rows };
        assert!((a.unattributed_s() - 0.5).abs() < 1e-9);
    }
}
