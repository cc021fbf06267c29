//! Every paper artefact `rempctl repro` knows runs end to end at a small
//! scale, prints its title first, and — apart from the two timing
//! artefacts — prints the same bytes on every run.

use remp::bench::ARTEFACTS;

/// Each artefact's title line, in paper order; the timing artefacts'
/// numbers are wall times, so only their layout is stable.
const TITLES: [(&str, &str, bool); 11] = [
    ("table3", "Table III: F1-score and number of questions with real workers", false),
    ("table4", "Table IV: effectiveness of attribute matching", false),
    ("table5", "Table V: effectiveness of partial-order based pruning (k = 4)", false),
    ("table6", "Table VI: F1 (%) w.r.t. varying portions of seed matches", false),
    ("table7", "Table VII: F1 / #Q / #L vs question threshold µ (oracle labels)", false),
    ("table8", "Table VIII: F1 of inference on isolated entity pairs", false),
    ("fig3", "Figure 3: F1 and #Q vs simulated worker error rate", false),
    ("fig4", "Figure 4: pair completeness (%) w.r.t. k-nearest neighbours", false),
    ("fig5", "Figure 5: F1 (%) vs number of questions (µ = 1, oracle labels)", false),
    ("fig6", "Figure 6: running time (ms) vs portion of entity pairs (D-Y)", true),
    ("efficiency", "Efficiency: average running time (ms) of Algorithms 1–3 (3 runs)", true),
];

#[test]
fn every_artefact_runs_titled_and_deterministic() {
    let names: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
    let expected: Vec<&str> = TITLES.iter().map(|(name, ..)| *name).collect();
    assert_eq!(names, expected, "ARTEFACTS must list every artefact in paper order");

    for (&(name, run), (_, title, timed)) in ARTEFACTS.iter().zip(TITLES) {
        let render = || {
            let mut out = Vec::new();
            run(&mut out, 0.05).unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = render();
        assert_eq!(first.lines().next(), Some(title), "{name} must open with its title");
        assert!(first.lines().count() > 3, "{name} printed no rows:\n{first}");
        if !timed {
            assert_eq!(render(), first, "{name} must print the same bytes on every run");
        }
    }
}
