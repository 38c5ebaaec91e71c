//! E1 — reproduces the Sec. 4 / Fig. 2–3 worked example: the three-job
//! batch on the six-node reconstruction, with the full alternative charts
//! for ALP and AMP.

use ecosched_experiments::gantt::{render_gantt, LabeledWindow};
use ecosched_experiments::paper_example;

fn main() {
    ecosched_experiments::reject_unknown_flags(&[]);
    let run = paper_example::run().expect("the worked example always builds");

    println!("Fig. 2 (a) — initial state (reconstruction, DESIGN.md R4)");
    println!("{}", run.example.list);
    println!("{}", run.example.batch);

    println!("Fig. 2 (b) — the first alternatives on the resource lines:");
    let firsts: Vec<LabeledWindow<'_>> = run
        .amp
        .alternatives
        .per_job()
        .iter()
        .enumerate()
        .filter_map(|(i, ja)| {
            ja.alternatives().first().map(|alt| LabeledWindow {
                label: format!("{}", i + 1),
                window: alt.window(),
            })
        })
        .collect();
    println!("{}", render_gantt(&run.example.list, &firsts, 10));

    for (name, outcome) in [("ALP", &run.alp), ("AMP", &run.amp)] {
        println!(
            "Fig. 3 analogue — all alternatives found by {name} ({} total):",
            outcome.alternatives.total_found()
        );
        for ja in outcome.alternatives.per_job() {
            println!("  {}:", ja.job());
            for (i, alt) in ja.iter().enumerate() {
                println!("    W{}: {}", i + 1, alt.window());
            }
        }
        println!();
    }

    let w1 = run.amp.alternatives.per_job()[0].alternatives()[0].window();
    println!(
        "Paper check: W1 = [{}, {}) at {} per time unit (paper: [150, 230) at 10)",
        w1.start().ticks(),
        w1.end().ticks(),
        w1.cost_per_time()
    );
    println!(
        "Search work: ALP examined {} slots ({} checkpoint resumes), \
         AMP examined {} slots ({} checkpoint resumes)",
        run.alp.stats.scan.slots_examined,
        run.alp.stats.scan.checkpoint_hits,
        run.amp.stats.scan.slots_examined,
        run.amp.stats.scan.checkpoint_hits,
    );
}
