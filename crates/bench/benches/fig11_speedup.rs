//! Fig. 11: PRA and Diffy performance normalized to VAA, under four
//! off-chip compression schemes (NoCompression, Profiled, DeltaD16,
//! Ideal). DDR4-3200, Table IV configuration, HD-class workload traced
//! at reduced resolution (per-pixel work is resolution-stationary).

use diffy_bench::{
    all_ci_bundles, banner, bench_options, geomean, scheme_header, COMPRESSION_SCHEMES,
};
use diffy_core::accelerator::{EvalOptions, SchemeChoice};
use diffy_core::summary::TextTable;
use diffy_sim::Architecture;

fn main() {
    let opts = bench_options();
    banner("Fig. 11", "PRA/Diffy speedup over VAA per compression scheme", &opts);

    let schemes: Vec<SchemeChoice> =
        COMPRESSION_SCHEMES.into_iter().chain([SchemeChoice::Ideal]).collect();
    let archs = [Architecture::Pra, Architecture::Diffy];
    let mut table = TextTable::new(scheme_header(&["network", "arch"], &schemes));
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); archs.len() * schemes.len()];

    for (model, bundles) in all_ci_bundles(&opts) {
        // VAA baseline: compute-bound, unaffected by compression (checked
        // by the integration tests); use NoCompression.
        let vaa_cycles: u64 = bundles
            .iter()
            .map(|b| {
                b.evaluate(&EvalOptions::new(Architecture::Vaa, SchemeChoice::NO_COMPRESSION))
                    .total_cycles()
            })
            .sum();
        for (ai, arch) in archs.into_iter().enumerate() {
            let mut row = vec![model.name().to_string(), arch.name().to_string()];
            for (si, &scheme) in schemes.iter().enumerate() {
                let cycles: u64 = bundles
                    .iter()
                    .map(|b| b.evaluate(&EvalOptions::new(arch, scheme)).total_cycles())
                    .sum();
                let speedup = vaa_cycles as f64 / cycles as f64;
                geo[ai * schemes.len() + si].push(speedup);
                row.push(format!("{speedup:.2}x"));
            }
            table.row(row);
        }
    }
    for (arch, arch_geo) in archs.iter().zip(geo.chunks(schemes.len())) {
        let mut row = vec!["geomean".to_string(), arch.name().to_string()];
        row.extend(arch_geo.iter().map(|g| format!("{:.2}x", geomean(g))));
        table.row(row);
    }
    println!("{}", table.render());

    // Per-layer Diffy-over-PRA distribution (§IV-A: "fairly uniform with
    // a mean of 1.42x and a standard deviation of 0.32").
    let mut ratios = Vec::new();
    for (_, bundles) in all_ci_bundles(&opts) {
        for b in &bundles {
            let pra = b.evaluate(&EvalOptions::new(Architecture::Pra, SchemeChoice::Ideal));
            let diffy = b.evaluate(&EvalOptions::new(Architecture::Diffy, SchemeChoice::Ideal));
            for (p, d) in pra.layers.iter().zip(diffy.layers.iter()) {
                if d.timing.compute_cycles > 0 {
                    ratios
                        .push(p.timing.compute_cycles as f64 / d.timing.compute_cycles as f64);
                }
            }
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / ratios.len() as f64;
    let worst = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "per-layer Diffy over PRA: mean {:.2}x, std {:.2}, worst layer {:.2}x \
         (paper: mean 1.42x, std 0.32, worst ~0.9x)",
        mean,
        var.sqrt(),
        worst
    );
    println!();
    println!("paper: PRA 5.0x and Diffy 7.1x over VAA with DeltaD16 (nearly");
    println!("       ideal); NoCompression leaves both stalling off-chip.");
}
