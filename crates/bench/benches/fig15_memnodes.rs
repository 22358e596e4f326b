//! Fig. 15: Diffy performance (normalized to VAA) across off-chip memory
//! technologies, for NoCompression / Profiled / DeltaD16 — showing that
//! delta compression sustains near-peak performance even on low-end
//! memory nodes.

use diffy_bench::{all_ci_bundles, banner, bench_options, scheme_header, COMPRESSION_SCHEMES};
use diffy_core::accelerator::{EvalOptions, SchemeChoice};
use diffy_core::summary::TextTable;
use diffy_memsys::{MemoryNode, MemorySystem};
use diffy_sim::Architecture;

fn main() {
    let opts = bench_options();
    banner("Fig. 15", "Diffy speedup over VAA across memory nodes", &opts);

    for (model, bundles) in all_ci_bundles(&opts) {
        let vaa_cycles: u64 = bundles
            .iter()
            .map(|b| {
                b.evaluate(&EvalOptions::new(Architecture::Vaa, SchemeChoice::NO_COMPRESSION))
                    .total_cycles()
            })
            .sum();
        println!("{}:", model.name());
        let mut table = TextTable::new(scheme_header(&["memory node"], &COMPRESSION_SCHEMES));
        for node in MemoryNode::FIG15_SWEEP {
            let mut row = vec![node.name().to_string()];
            for scheme in COMPRESSION_SCHEMES {
                let cycles: u64 = bundles
                    .iter()
                    .map(|b| {
                        let mut e = EvalOptions::new(Architecture::Diffy, scheme);
                        e.memory = MemorySystem::single(node);
                        b.evaluate(&e).total_cycles()
                    })
                    .sum();
                row.push(format!("{:.2}x", vaa_cycles as f64 / cycles as f64));
            }
            table.row(row);
        }
        println!("{}", table.render());
    }
    println!("paper: without compression all models need HBM2 to avoid slow-");
    println!("       down; DeltaD16 runs near-peak from LPDDR4-3200 upward,");
    println!("       and within 2% even on LPDDR3E-2133 (JointNet excepted).");
}
