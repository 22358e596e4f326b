//! Table VI: power breakdown per architecture and the derived energy
//! efficiency (speedup / power ratio), using the calibrated analytical
//! model and the measured workload speedups.

use diffy_bench::{all_ci_bundles, banner, bench_options, geomean};
use diffy_core::accelerator::{EvalOptions, SchemeChoice};
use diffy_core::summary::TextTable;
use diffy_energy::components::{power_breakdown, REF_AM_BYTES, REF_WM_BYTES};
use diffy_energy::offchip_energy_joules;
use diffy_sim::{AcceleratorConfig, Architecture};

fn main() {
    let opts = bench_options();
    banner("Table VI", "power breakdown and energy efficiency", &opts);
    let cfg = AcceleratorConfig::table4();

    // Measured speedups under DeltaD16 (the configuration Table VI pairs
    // with), plus traffic for the off-chip energy note.
    let mut pra_speedups = Vec::new();
    let mut diffy_speedups = Vec::new();
    let mut traffic_none = 0u64;
    let mut traffic_delta = 0u64;
    for (_, bundles) in all_ci_bundles(&opts) {
        let scheme = SchemeChoice::DELTA_D16;
        let vaa: u64 = bundles
            .iter()
            .map(|b| {
                b.evaluate(&EvalOptions::new(
                    Architecture::Vaa,
                    SchemeChoice::NO_COMPRESSION,
                ))
                .total_cycles()
            })
            .sum();
        let pra: u64 = bundles
            .iter()
            .map(|b| b.evaluate(&EvalOptions::new(Architecture::Pra, scheme)).total_cycles())
            .sum();
        let diffy: u64 = bundles
            .iter()
            .map(|b| {
                let r = b.evaluate(&EvalOptions::new(Architecture::Diffy, scheme));
                traffic_delta += r.activation_traffic_bytes();
                r.total_cycles()
            })
            .sum();
        for b in &bundles {
            let r = b.evaluate(&EvalOptions::new(
                Architecture::Vaa,
                SchemeChoice::NO_COMPRESSION,
            ));
            traffic_none += r.activation_traffic_bytes();
        }
        pra_speedups.push(vaa as f64 / pra as f64);
        diffy_speedups.push(vaa as f64 / diffy as f64);
    }
    let pra_speedup = geomean(&pra_speedups);
    let diffy_speedup = geomean(&diffy_speedups);

    let breakdowns = [
        ("Diffy", power_breakdown(Architecture::Diffy, &cfg, 512 << 10, REF_WM_BYTES)),
        ("PRA", power_breakdown(Architecture::Pra, &cfg, REF_AM_BYTES, REF_WM_BYTES)),
        ("VAA", power_breakdown(Architecture::Vaa, &cfg, REF_AM_BYTES, REF_WM_BYTES)),
    ];
    let mut table = TextTable::new(vec!["component", "Diffy [W]", "PRA [W]", "VAA [W]"]);
    for i in 0..7 {
        let label = breakdowns[0].1.rows()[i].0;
        table.row(vec![
            label.to_string(),
            format!("{:.2}", breakdowns[0].1.rows()[i].1),
            format!("{:.2}", breakdowns[1].1.rows()[i].1),
            format!("{:.2}", breakdowns[2].1.rows()[i].1),
        ]);
    }
    let totals: Vec<f64> = breakdowns.iter().map(|(_, b)| b.total()).collect();
    table.row(vec![
        "Total".to_string(),
        format!("{:.2}", totals[0]),
        format!("{:.2}", totals[1]),
        format!("{:.2}", totals[2]),
    ]);
    table.row(vec![
        "Normalized".to_string(),
        format!("{:.2}x", totals[0] / totals[2]),
        format!("{:.2}x", totals[1] / totals[2]),
        "1.00x".to_string(),
    ]);
    table.row(vec![
        "Energy efficiency".to_string(),
        format!("{:.2}x", diffy_speedup / (totals[0] / totals[2])),
        format!("{:.2}x", pra_speedup / (totals[1] / totals[2])),
        "1.00x".to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "measured speedups used: Diffy {diffy_speedup:.2}x, PRA {pra_speedup:.2}x (DeltaD16)."
    );
    println!(
        "off-chip energy (excluded above, as in the paper): {:.3} J vs {:.3} J\n\
         per workload for NoCompression vs DeltaD16 — delta compression\n\
         also cuts DRAM energy by {:.2}x.",
        offchip_energy_joules(traffic_none),
        offchip_energy_joules(traffic_delta),
        traffic_none as f64 / traffic_delta.max(1) as f64,
    );
    println!("\npaper: Diffy 1.83x and PRA 1.34x more energy efficient than VAA");
    println!("       (on-chip only), at ~3.9x/3.7x the power.");
}
