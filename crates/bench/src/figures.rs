//! Figures 3–5 (Figure 6 times the algorithms; see [`crate::timing`]).

use std::io::{self, Write};

use remp_core::{pair_completeness, RempConfig};
use remp_crowd::FixedErrorCrowd;
use remp_ergraph::prune;

use crate::{
    load_dataset, method_header, method_row, prepare_default, question_curve, strategy_label,
    unpruned, DATASETS, STRATEGIES,
};

/// Figure 3: F1-score and number of questions under simulated workers of
/// varying error rates (0.05 / 0.15 / 0.25), 4 datasets × 4 methods.
///
/// Expected shape: all methods stay roughly stable (5 redundant labels
/// absorb the noise); Remp keeps the best F1 with the fewest questions.
pub fn fig3(out: &mut dyn Write, scale: f64) -> io::Result<()> {
    writeln!(out, "Figure 3: F1 and #Q vs simulated worker error rate\n")?;
    for (name, base) in DATASETS {
        let dataset = load_dataset(name, base, scale);
        let prep = prepare_default(&dataset);
        writeln!(out, "=== {name} ===")?;
        method_header(out, "error")?;
        for error_rate in [0.05, 0.15, 0.25] {
            write!(out, "{error_rate:>6.2} |")?;
            method_row(out, &dataset, &prep, || FixedErrorCrowd::new(error_rate, 5, 0xF163))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 4: pair completeness of the retained matches w.r.t. the k of
/// the k-nearest-neighbour pruning (k ∈ {1, 4, 7, 10, 13}).
///
/// Expected shape: PC rises with k and converges quickly on IIMB/D-A/I-Y,
/// more slowly on D-Y (few shared attributes weaken the partial order).
pub fn fig4(out: &mut dyn Write, scale: f64) -> io::Result<()> {
    let ks = [1usize, 4, 7, 10, 13];
    writeln!(out, "Figure 4: pair completeness (%) w.r.t. k-nearest neighbours\n")?;
    write!(out, "{:>6} |", "k")?;
    for k in ks {
        write!(out, " {k:>6}")?;
    }
    writeln!(out)?;
    writeln!(out, "{}", "-".repeat(45))?;

    for (name, base) in DATASETS {
        let dataset = load_dataset(name, base, scale);
        let config = RempConfig::default();
        let stage = unpruned(&dataset, &config);

        write!(out, "{name:>6} |")?;
        for k in ks {
            let retained = prune(&stage.candidates, &stage.vectors, k, &config.parallelism);
            let pairs = retained.iter().map(|&p| stage.candidates.pair(p));
            write!(out, " {:>6.1}", 100.0 * pair_completeness(pairs, &dataset.gold))?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 5: F1-score of Remp's benefit-driven selection vs the MaxInf
/// and MaxPr heuristics w.r.t. the number of questions (µ = 1, ground
/// truths as labels).
///
/// Expected shape: Remp dominates at every question count; MaxPr plateaus
/// lowest (it ignores inference power), MaxInf wastes questions on likely
/// non-matches.
pub fn fig5(out: &mut dyn Write, scale: f64) -> io::Result<()> {
    let checkpoints = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    writeln!(out, "Figure 5: F1 (%) vs number of questions (µ = 1, oracle labels)\n")?;

    for (name, base) in DATASETS {
        let dataset = load_dataset(name, base, scale);
        let prep = prepare_default(&dataset);
        writeln!(out, "=== {name} ===")?;
        write!(out, "{:>8} |", "#Q")?;
        for c in checkpoints {
            write!(out, " {c:>5}")?;
        }
        writeln!(out)?;
        writeln!(out, "{}", "-".repeat(10 + 6 * checkpoints.len()))?;
        for strategy in STRATEGIES {
            let curve = question_curve(&dataset, &prep, strategy, &checkpoints);
            write!(out, "{:>8} |", strategy_label(strategy))?;
            for (_, f1) in curve {
                write!(out, " {:>5.1}", 100.0 * f1)?;
            }
            writeln!(out)?;
        }
        writeln!(out)?;
    }
    Ok(())
}
