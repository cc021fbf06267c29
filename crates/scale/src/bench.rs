//! The scale bench harness behind `rempctl bench`.
//!
//! One point = generate a synthetic world at scale *n* (streamed to
//! `.rkb`), plan a stream-mode sharded campaign, run every shard
//! through the reference executor, and sample peak RSS. The report
//! (`BENCH_scale.json`) records wall-clock per stage and the
//! `remp_peak_rss_bytes` figure per point; with `max_rss_mb` set the
//! harness turns into a hard bounded-memory gate — the CI `scale` job
//! fails the build if a 10⁵-entity campaign ever grows a resident set
//! past the bound.

use std::path::{Path, PathBuf};
use std::time::Instant;

use remp_core::RempConfig;
use remp_json::Json;

use crate::plan::{write_campaign, CrowdSpec, PlanMode};
use crate::runner::run_sharded_local;
use crate::spec::ScaleSpec;

/// Options for [`run_scale_bench`].
#[derive(Clone, Debug)]
pub struct ScaleBenchOptions {
    /// Entity counts to sweep (per KB).
    pub points: Vec<usize>,
    /// Master seed for the generated worlds.
    pub seed: u64,
    /// Per-shard question budget.
    pub budget: usize,
    /// Peak-RSS bound in MiB; `None` records without gating.
    pub max_rss_mb: Option<u64>,
    /// Scratch directory for generated campaigns (`None` = temp dir).
    pub work_dir: Option<PathBuf>,
    /// Keep generated campaign directories instead of deleting them.
    pub keep_artifacts: bool,
}

impl Default for ScaleBenchOptions {
    fn default() -> Self {
        ScaleBenchOptions {
            points: vec![10_000, 100_000],
            seed: 42,
            budget: 200,
            max_rss_mb: None,
            work_dir: None,
            keep_artifacts: false,
        }
    }
}

/// One swept scale point.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalePoint {
    /// Entities per KB.
    pub entities: usize,
    /// Candidate pairs across all shards.
    pub pairs: usize,
    /// Shards the campaign split into.
    pub shards: usize,
    /// Seconds generating `.rkb` snapshots + gold.
    pub gen_seconds: f64,
    /// Seconds planning + writing shard files.
    pub plan_seconds: f64,
    /// Seconds processing all shards and merging.
    pub run_seconds: f64,
    /// Questions asked across shards.
    pub questions: usize,
    /// Merged F1 against the generated gold standard.
    pub f1: f64,
    /// Merged outcome digest (ties the report to the exact outcome).
    pub outcome_digest: u64,
    /// `remp_peak_rss_bytes` sampled after the point completed.
    pub peak_rss_bytes: Option<u64>,
}

/// The full report written to `BENCH_scale.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleBenchReport {
    /// Swept points, ascending.
    pub points: Vec<ScalePoint>,
    /// The configured bound, if any.
    pub max_rss_mb: Option<u64>,
    /// True when every point stayed under the bound (vacuously true
    /// without one).
    pub rss_ok: bool,
}

impl ScaleBenchReport {
    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("entities".to_string(), Json::from(p.entities)),
                    ("pairs".to_string(), Json::from(p.pairs)),
                    ("shards".to_string(), Json::from(p.shards)),
                    ("gen_seconds".to_string(), Json::from(p.gen_seconds)),
                    ("plan_seconds".to_string(), Json::from(p.plan_seconds)),
                    ("run_seconds".to_string(), Json::from(p.run_seconds)),
                    ("questions".to_string(), Json::from(p.questions)),
                    ("f1".to_string(), Json::from(p.f1)),
                    ("outcome_digest".to_string(), Json::from(p.outcome_digest)),
                ];
                if let Some(rss) = p.peak_rss_bytes {
                    fields.push(("peak_rss_bytes".to_string(), Json::from(rss)));
                }
                Json::Obj(fields)
            })
            .collect();
        let mut fields = vec![("points".to_string(), Json::Arr(points))];
        if let Some(mb) = self.max_rss_mb {
            fields.push(("max_rss_mb".to_string(), Json::from(mb)));
        }
        fields.push(("rss_ok".to_string(), Json::from(self.rss_ok)));
        Json::Obj(fields)
    }
}

/// The stream-mode pipeline configuration the bench uses.
///
/// The label threshold rises to 0.4 so two-token coincidences (kind +
/// one word, Jaccard ⅓) stay out of the candidate set at scale, and
/// each shard gets a bounded question budget — the bench measures
/// memory shape and throughput, not exhaustive crowd spend.
pub fn bench_config(budget: usize) -> RempConfig {
    let mut config = RempConfig::default().with_budget(budget).without_classifier();
    config.label_sim_threshold = 0.4;
    config
}

/// The shard count used for a scale point (≈ one shard per 20k
/// entities, at least two so merging is always exercised).
pub fn shards_for(entities: usize) -> usize {
    (entities / 20_000).max(2)
}

/// Runs the sweep. Returns the report; points after an RSS-bound
/// violation are still run (the report shows where the line crossed).
pub fn run_scale_bench(options: &ScaleBenchOptions) -> Result<ScaleBenchReport, String> {
    let work_root =
        options.work_dir.clone().unwrap_or_else(|| std::env::temp_dir().join("remp-scale-bench"));
    let mut report =
        ScaleBenchReport { points: Vec::new(), max_rss_mb: options.max_rss_mb, rss_ok: true };

    for &entities in &options.points {
        let dir = work_root.join(format!("n{entities}"));
        let point = run_point(entities, options, &dir)?;
        if let (Some(bound_mb), Some(rss)) = (options.max_rss_mb, point.peak_rss_bytes) {
            if rss > bound_mb * 1024 * 1024 {
                report.rss_ok = false;
            }
        }
        report.points.push(point);
        if !options.keep_artifacts {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(report)
}

fn run_point(
    entities: usize,
    options: &ScaleBenchOptions,
    dir: &Path,
) -> Result<ScalePoint, String> {
    let spec =
        ScaleSpec { seed: options.seed, ..ScaleSpec::new(format!("scale-{entities}"), entities) };

    let t = Instant::now();
    crate::generate_dataset(&spec, dir).map_err(|e| format!("generate: {e}"))?;
    let gen_seconds = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let kb1 = remp_ingest::load_snapshot(&dir.join("kb1.rkb")).map_err(|e| format!("{e}"))?;
    let kb2 = remp_ingest::load_snapshot(&dir.join("kb2.rkb")).map_err(|e| format!("{e}"))?;
    let gold: std::collections::HashSet<(remp_kb::EntityId, remp_kb::EntityId)> = {
        let world = crate::World::new(&spec);
        (0..world.shared() as u32).map(|i| (remp_kb::EntityId(i), remp_kb::EntityId(i))).collect()
    };
    let manifest = write_campaign(
        dir,
        &spec.name,
        &kb1,
        &kb2,
        &gold,
        &bench_config(options.budget),
        &CrowdSpec::Oracle,
        spec.seed,
        &PlanMode::Stream { max_block: 200_000 },
        shards_for(entities),
    )
    .map_err(|e| format!("plan: {e}"))?;
    drop(kb1);
    drop(kb2);
    let plan_seconds = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let merged = run_sharded_local(dir)?;
    let run_seconds = t.elapsed().as_secs_f64();

    Ok(ScalePoint {
        entities,
        pairs: manifest.pairs_total,
        shards: manifest.shards.len(),
        gen_seconds,
        plan_seconds,
        run_seconds,
        questions: merged.questions_total,
        f1: merged.f1,
        outcome_digest: merged.outcome_digest,
        peak_rss_bytes: remp_obs::sample_peak_rss().or_else(remp_obs::peak_rss_bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_produces_a_full_report() {
        let options = ScaleBenchOptions {
            points: vec![500],
            budget: 50,
            max_rss_mb: Some(65_536), // far above anything a 500-entity run uses
            ..Default::default()
        };
        let report = run_scale_bench(&options).unwrap();
        assert_eq!(report.points.len(), 1);
        let p = &report.points[0];
        assert_eq!(p.entities, 500);
        assert!(p.pairs > 0);
        assert!(p.shards >= 2);
        assert!(report.rss_ok, "{report:?}");
        let doc = report.to_json();
        assert!(doc.get("rss_ok").and_then(Json::as_bool).unwrap());
        assert_eq!(doc.get("points").and_then(Json::as_array).map(<[Json]>::len), Some(1));
    }

    #[test]
    fn the_rss_gate_trips_on_a_tiny_bound() {
        let options = ScaleBenchOptions {
            points: vec![300],
            budget: 20,
            max_rss_mb: Some(1), // 1 MiB: any real process exceeds this
            ..Default::default()
        };
        let report = run_scale_bench(&options).unwrap();
        if report.points[0].peak_rss_bytes.is_some() {
            assert!(!report.rss_ok, "a 1 MiB bound must trip: {report:?}");
        }
    }
}
