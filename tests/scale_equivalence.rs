//! Sharded multi-process campaigns are **bit-identical** to the
//! single-process runner: for every dataset preset, `rempctl scale-run
//! --workers N` (real coordinator + N separate `rempctl shard-worker`
//! OS processes over HTTP) must merge to exactly the `MergedOutcome`
//! that `run_sharded_local` computes in process — matches, question
//! transcript digest, and evaluation digest included.

use std::path::PathBuf;
use std::process::Command;

use remp::core::RempConfig;
use remp::datasets::{generate, preset_by_name};
use remp::ingest::LoadedKb;
use remp::scale::{run_sharded_local, write_campaign, CrowdSpec, MergedOutcome, PlanMode};
use remp_json::Json;

/// Writes a sharded campaign for a preset and returns its directory.
fn campaign_dir(tag: &str, preset: &str, scale: f64, crowd: CrowdSpec) -> PathBuf {
    let spec = preset_by_name(preset, scale).unwrap();
    let d = generate(&spec);
    let kb1 = LoadedKb {
        kb: d.kb1.clone(),
        external_ids: (0..d.kb1.num_entities()).map(|i| format!("a{i}")).collect(),
    };
    let kb2 = LoadedKb {
        kb: d.kb2.clone(),
        external_ids: (0..d.kb2.num_entities()).map(|i| format!("b{i}")).collect(),
    };
    let dir = std::env::temp_dir().join(format!("remp-scale-eq-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RempConfig::default().with_budget(80);
    write_campaign(&dir, tag, &kb1, &kb2, &d.gold, &config, &crowd, 11, &PlanMode::Full, 3)
        .unwrap();
    dir
}

/// Runs the campaign through the real binary with N worker processes.
fn run_with_workers(dir: &std::path::Path, workers: usize) -> MergedOutcome {
    let out = dir.join(format!("out{workers}.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_rempctl"))
        .args(["scale-run", "--dir", &dir.display().to_string()])
        .args(["--workers", &workers.to_string()])
        .args(["--out", &out.display().to_string()])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "scale-run --workers {workers} failed:\n{}{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    MergedOutcome::from_json(&doc).unwrap()
}

/// 2 workers race over 3 shards; 4 workers oversubscribe them, so at
/// least one worker spends its life polling a fully-leased queue.
fn assert_preset_equivalence(tag: &str, preset: &str, scale: f64, crowd: CrowdSpec) {
    let dir = campaign_dir(tag, preset, scale, crowd);
    let reference = run_sharded_local(&dir).unwrap();
    assert!(reference.shards >= 2, "want a genuinely sharded campaign");
    for workers in [2, 4] {
        let merged = run_with_workers(&dir, workers);
        assert_eq!(
            merged, reference,
            "{preset}: {workers}-process outcome diverges from single-process"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn simulated() -> CrowdSpec {
    CrowdSpec::Simulated { workers: 30, min_quality: 0.85, max_quality: 0.99, per_question: 3 }
}

#[test]
fn tiny_sharded_matches_single_process() {
    assert_preset_equivalence("tiny", "TINY", 1.0, simulated());
}

#[test]
fn iimb_sharded_matches_single_process() {
    assert_preset_equivalence("iimb", "IIMB", 0.5, simulated());
}

#[test]
fn dblp_acm_sharded_matches_single_process() {
    assert_preset_equivalence("da", "D-A", 0.15, CrowdSpec::Oracle);
}

#[test]
fn imdb_yago_sharded_matches_single_process() {
    assert_preset_equivalence("iy", "I-Y", 0.1, CrowdSpec::Oracle);
}

#[test]
fn dbpedia_yago_sharded_matches_single_process() {
    assert_preset_equivalence("dy", "D-Y", 0.1, CrowdSpec::Oracle);
}

/// `rempctl bench` is the scale bench alone and refuses `--scale`: the
/// option always takes a value, so `--scale --points N` would read
/// `--points` as the scale and silently run the default points.
#[test]
fn bench_refuses_the_scale_option() {
    let dir = std::env::temp_dir().join("remp-scale-eq-bench-usage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A regular file as the work dir: were `--scale` accepted, the bench
    // would fail on its first point at once instead of running it.
    let not_a_dir = dir.join("not-a-dir");
    std::fs::write(&not_a_dir, b"").unwrap();
    let out = dir.join("bench.json");
    let run = Command::new(env!("CARGO_BIN_EXE_rempctl"))
        .args(["bench", "--scale", "--points", "1000"])
        .args(["--work-dir", &not_a_dir.display().to_string()])
        .args(["--out", &out.display().to_string()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "want a usage error, got:\n{stderr}");
    assert!(stderr.contains("--scale"), "the error must name the option:\n{stderr}");
    assert!(!out.exists(), "a refused bench wrote a report");
    let _ = std::fs::remove_dir_all(&dir);
}
