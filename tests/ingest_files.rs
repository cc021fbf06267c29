//! File-level ingestion tests: the committed fixtures stay loadable and
//! generator-stable, and malformed input fails with typed errors citing
//! file and line — never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use remp::datasets::{generate, tiny};
use remp::ingest::{load_kb, FileDataset, IngestError};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("remp-files-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The committed fixture pair under `tests/fixtures/tiny/` is exactly
/// what the TINY preset generates — so the text formats (and the
/// generator's determinism) are pinned by files in version control.
#[test]
fn committed_fixtures_match_the_generator() {
    let dataset = generate(&tiny(1.0));
    let dir = fixtures();
    let loaded =
        FileDataset::load("tiny", &dir.join("kb1.nt"), &dir.join("kb2.nt"), &dir.join("gold.tsv"))
            .unwrap();
    assert_eq!(loaded.kb1, dataset.kb1);
    assert_eq!(loaded.kb2, dataset.kb2);
    assert_eq!(loaded.gold, dataset.gold);
}

#[test]
fn missing_files_are_io_errors_naming_the_path() {
    let err = load_kb(Path::new("/nonexistent/kb.nt"), "x").unwrap_err();
    assert!(matches!(err, IngestError::Io { .. }), "{err}");
    assert!(err.to_string().contains("/nonexistent/kb.nt"), "{err}");
}

#[test]
fn malformed_ntriples_line_is_cited() {
    let dir = scratch("nt-bad");
    let path = dir.join("bad.nt");
    fs::write(
        &path,
        "<urn:a> <http://www.w3.org/2000/01/rdf-schema#label> \"ok\" .\n\
         # comment\n\
         <urn:a> <urn:p> \"unterminated\n",
    )
    .unwrap();
    let err = load_kb(&path, "x").unwrap_err();
    assert_eq!(err.line(), Some(3), "{err}");
    assert!(err.path().ends_with("bad.nt"), "{err}");
    assert!(err.to_string().contains("bad.nt:3"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn csv_dangling_reference_is_cited() {
    let dir = scratch("csv-bad");
    fs::write(dir.join("entities.csv"), "id,label\np1,Ada\n").unwrap();
    fs::write(dir.join("attributes.csv"), "entity,attribute,kind,value\n").unwrap();
    fs::write(
        dir.join("relationships.csv"),
        "subject,relationship,object\np1,knows,p1\np1,knows,ghost\n",
    )
    .unwrap();
    let err = load_kb(&dir, "x").unwrap_err();
    assert_eq!(err.line(), Some(3), "{err}");
    assert!(err.path().ends_with("relationships.csv"), "{err}");
    assert!(err.to_string().contains("ghost"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gold_with_unknown_entity_is_cited() {
    let dir = scratch("gold-bad");
    let fixture = fixtures();
    let gold = dir.join("gold.tsv");
    fs::write(&gold, "urn:remp:e0\turn:remp:e0\nurn:remp:e0\turn:remp:e9999\n").unwrap();
    let err = FileDataset::load("tiny", &fixture.join("kb1.nt"), &fixture.join("kb2.nt"), &gold)
        .unwrap_err();
    assert_eq!(err.line(), Some(2), "{err}");
    assert!(err.to_string().contains("e9999"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let dir = scratch("rkb-bad");
    let loaded = load_kb(&fixtures().join("kb1.nt"), "tiny-kb1").unwrap();
    let path = dir.join("kb1.rkb");
    remp::ingest::write_snapshot(&loaded.kb, &loaded.external_ids, &path).unwrap();
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = load_kb(&path, "x").unwrap_err();
    assert!(matches!(err, IngestError::Snapshot { .. }), "{err}");
    assert!(err.to_string().contains("truncated"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// A text file that merely *looks* like a snapshot by extension gets a
/// clear "bad magic" error instead of a parse attempt.
#[test]
fn mislabeled_snapshot_extension_is_rejected_cleanly() {
    let dir = scratch("rkb-mislabel");
    let path = dir.join("actually-text.rkb");
    fs::write(&path, "<urn:a> <urn:p> <urn:b> .\n").unwrap();
    let err = load_kb(&path, "x").unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// `rempctl` refuses an option its verb does not take: a typo such as
/// `--budgt 30` is a usage error (exit 2), not a campaign run with no
/// budget.
#[test]
fn run_refuses_an_unknown_option() {
    let dir = fixtures();
    let path = |name: &str| dir.join(name).display().to_string();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_rempctl"))
        .args(["run", "--kb1", &path("kb1.nt"), "--kb2", &path("kb2.nt")])
        .args(["--gold", &path("gold.tsv"), "--oracle", "--budgt", "30"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "want a usage error, got:\n{stderr}");
    assert!(stderr.contains("--budgt"), "the error must name the option:\n{stderr}");
    assert!(run.stdout.is_empty(), "a refused run started a campaign");
}

/// A reader that goes away (`rempctl ... | head -3`) ends `rempctl`
/// quietly: exit 0 and nothing on stderr, not a broken-pipe panic. The
/// pipe's read end is closed before the spawn, so the first write
/// already fails.
#[test]
fn closed_stdout_ends_rempctl_quietly() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_rempctl"))
        .args(["simulate", "--list"])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "a closed stdout must end quietly, got:\n{stderr}");
    assert!(stderr.is_empty(), "a closed stdout must leave stderr empty:\n{stderr}");
}
