//! The paper's Fig. 1 scenario, built by hand: aligning a YAGO-like and a
//! DBpedia-like movie KB where label evidence alone cannot separate the
//! two Joans/Johns, but relational match propagation can.
//!
//! The example walks the internals step by step — candidate generation,
//! consistency estimation, neighbour propagation and distant propagation —
//! and shows how labeling a single pair (`Tim ≃ Tim`) resolves movies,
//! actors and birth places across entity types.
//!
//! ```sh
//! cargo run --release --example movie_alignment
//! ```

use remp::core::{Remp, RempConfig};
use remp::crowd::Label;
use remp::ergraph::{generate_candidates, ErGraph};
use remp::kb::{Kb, KbBuilder, Value};
use remp::par::Parallelism;
use remp::propagation::{
    inferred_probabilities, Consistency, ConsistencyTable, ProbErGraph, PropagationConfig,
};

/// Builds one side of Fig. 1. The two KBs use different relationship
/// names (YAGO's `wasBornIn` vs DBpedia's `birthPlace`) — matching them is
/// the consistency model's job, not string matching.
fn build_kb(name: &str, born_rel: &str) -> Kb {
    let mut b = KbBuilder::new(name);
    let label = b.add_attr("label");
    let acted = b.add_rel("actedIn");
    let directed = b.add_rel("directedBy");
    let born = b.add_rel(born_rel);

    let entity = |b: &mut KbBuilder, l: &str| {
        let e = b.add_entity(l);
        b.add_attr_triple(e, label, Value::text(l));
        e
    };
    let joan = entity(&mut b, "Joan Allen");
    let john = entity(&mut b, "John Cusack");
    let tim = entity(&mut b, "Tim Robbins");
    let cradle = entity(&mut b, "Cradle Will Rock");
    let player = entity(&mut b, "The Player");
    let nyc = entity(&mut b, "New York City");
    let evanston = entity(&mut b, "Evanston");

    b.add_rel_triple(joan, acted, cradle);
    b.add_rel_triple(john, acted, cradle);
    b.add_rel_triple(tim, acted, player);
    b.add_rel_triple(cradle, directed, tim);
    b.add_rel_triple(player, directed, tim);
    b.add_rel_triple(joan, born, nyc);
    b.add_rel_triple(john, born, evanston);
    b.finish()
}

fn main() {
    let yago = build_kb("YAGO", "wasBornIn");
    let dbpedia = build_kb("DBpedia", "birthPlace");

    // Stage 1: candidate generation (label Jaccard ≥ 0.3).
    let candidates = generate_candidates(&yago, &dbpedia, 0.3, &Parallelism::Auto);
    println!("candidate pairs ({}):", candidates.len());
    for (_, (u1, u2)) in candidates.iter() {
        println!("  (y:{} , d:{})", yago.label(u1), dbpedia.label(u2));
    }

    // The ER graph (Definition 2): edges mirror relationship triples.
    let graph = ErGraph::build(&yago, &dbpedia, &candidates);
    println!("\nER graph: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    // Stage 2: consistency + probabilistic ER graph. With identical
    // mirrored structure every relationship pair is perfectly consistent;
    // we also illustrate the ConsistencyTable API with manual values.
    let cons = ConsistencyTable::from_entries(
        graph.labels().map(|(id, _)| (id, Consistency { eps1: 0.95, eps2: 0.95 })),
    );
    let pg = ProbErGraph::build(
        &yago,
        &dbpedia,
        &candidates,
        &graph,
        &cons,
        &PropagationConfig::default(),
        &Parallelism::Auto,
    );

    // Stage 3: what would one labeled match infer? (τ = 0.9) The
    // one-source call returns `inferred(tim)` with each Pr[m_p | m_tim].
    let tim = candidates
        .iter()
        .find(|&(_, (u1, _))| yago.label(u1) == "Tim Robbins")
        .map(|(id, _)| id)
        .expect("Tim pair is a candidate");
    let inferred = inferred_probabilities(&pg, 0.9, tim);

    println!("\nlabeling (y:Tim Robbins ≃ d:Tim Robbins) infers:");
    for &(p, prob) in &inferred {
        let (u1, u2) = candidates.pair(p);
        println!(
            "  Pr[{:>16} ≃ {:<16}] = {:.3}",
            format!("y:{}", yago.label(u1)),
            format!("d:{}", dbpedia.label(u2)),
            prob
        );
    }

    // The headline of the paper's introduction: the inference crosses
    // entity types — person → movie → person → city.
    let reaches_city = inferred.iter().any(|&(p, _)| {
        let (u1, _) = candidates.pair(p);
        yago.label(u1) == "New York City"
    });
    println!(
        "\ncross-type propagation person→movie→person→city: {}",
        if reaches_city { "reached New York City ✓" } else { "not reached ✗" }
    );

    // Stage 4, through the public session API: the same scenario driven
    // end to end. The session hands us the Tim question first (highest
    // expected benefit) and one truthful answer resolves the whole
    // component through propagation — no further batch is needed.
    println!("\n--- the same alignment through the session API ---");
    let remp = Remp::new(RempConfig::default().with_mu(1));
    let mut session = remp.begin(&yago, &dbpedia).expect("default config is valid");
    while let Some(batch) = session.next_batch().expect("fresh session") {
        for question in &batch.questions {
            println!(
                "loop {}: asking workers about (y:{} ≃ d:{})",
                batch.loop_index, question.context.label1, question.context.label2
            );
            // Everything matches by construction in Fig. 1's world.
            let receipt = session
                .submit(question.id, vec![Label::new(0.95, true)])
                .expect("fresh question id");
            for (u1, u2) in &receipt.propagated {
                println!("  ⇒ inferred (y:{} ≃ d:{})", yago.label(*u1), dbpedia.label(*u2));
            }
        }
    }
    let outcome = session.finish();
    println!(
        "{} matches from {} question(s) in {} loop(s)",
        outcome.matches.len(),
        outcome.questions_asked,
        outcome.loops
    );
}
