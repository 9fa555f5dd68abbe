//! Experiment `ablation`: design-choice sensitivity called out in
//! DESIGN.md — the resynthesis cut-size cap `Cmax` (the paper fixes 15;
//! 16 is the widest the truth-table decomposition takes) and the
//! expanded-circuit sharing slack (our truncation tunable).
//!
//! Run: `cargo run --release -p turbosyn-bench --bin exp_ablation`

use turbosyn::{turbomap, turbosyn, ExpandLimits, MapOptions};
use turbosyn_bench::{ms, row, sep};
use turbosyn_netlist::gen;

fn main() {
    let suite = gen::suite();
    let rows: Vec<_> = suite
        .iter()
        .filter(|b| ["bbara", "cse", "planet", "styr"].contains(&b.name))
        .collect();

    println!("# Ablation A — resynthesis cut-size cap Cmax (paper: 15)\n");
    println!(
        "{}",
        row(&[
            "circuit".into(),
            "Cmax=8 Φ".into(),
            "Cmax=15 Φ".into(),
            "Cmax=16 Φ".into()
        ])
    );
    println!("{}", sep(4));
    for b in &rows {
        let phi = |cmax: usize| {
            let o = MapOptions {
                cmax,
                ..MapOptions::default()
            };
            turbosyn(&b.circuit, &o).expect("maps").phi
        };
        println!(
            "{}",
            row(&[
                b.name.to_string(),
                phi(8).to_string(),
                phi(15).to_string(),
                phi(16).to_string(),
            ])
        );
    }

    println!("\n# Ablation B — expansion sharing slack (0 = frontier only)\n");
    println!(
        "{}",
        row(&[
            "circuit".into(),
            "slack=0 Φ".into(),
            "slack=0 ms".into(),
            "slack=3 Φ".into(),
            "slack=3 ms".into(),
        ])
    );
    println!("{}", sep(5));
    for b in &rows {
        let run = |slack: usize| {
            let o = MapOptions {
                expand: ExpandLimits {
                    slack,
                    ..ExpandLimits::default()
                },
                ..MapOptions::default()
            };
            let t = std::time::Instant::now();
            let r = turbosyn(&b.circuit, &o).expect("maps");
            (r.phi, t.elapsed())
        };
        let (p0, t0) = run(0);
        let (p3, t3) = run(3);
        println!(
            "{}",
            row(&[
                b.name.to_string(),
                p0.to_string(),
                ms(t0),
                p3.to_string(),
                ms(t3),
            ])
        );
    }

    println!("\n# Ablation C — multi-output decomposition (paper future work)\n");
    println!(
        "{}",
        row(&[
            "circuit".into(),
            "TM Φ".into(),
            "TS 1-wire Φ".into(),
            "TS 2-wire Φ".into(),
            "2-wire LUTs".into(),
        ])
    );
    println!("{}", sep(5));
    let mux = gen::figure1_mux();
    let mux_rows: Vec<(&str, &turbosyn_netlist::Circuit)> = std::iter::once(("figure1_mux", &mux))
        .chain(rows.iter().map(|b| (b.name, &b.circuit)))
        .collect();
    for (name, c) in mux_rows {
        let tm = turbomap(c, &MapOptions::default()).expect("maps");
        let t1 = turbosyn(c, &MapOptions::default()).expect("maps");
        let t2 = turbosyn(
            c,
            &MapOptions {
                max_wires: 2,
                ..MapOptions::default()
            },
        )
        .expect("maps");
        println!(
            "{}",
            row(&[
                name.to_string(),
                tm.phi.to_string(),
                t1.phi.to_string(),
                t2.phi.to_string(),
                t2.lut_count.to_string(),
            ])
        );
    }
}
