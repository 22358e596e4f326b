//! Programmatic summary reports.
//!
//! Renders a self-contained Markdown report over a workload — the
//! headline comparisons of the paper (speedups, HD frame rates, traffic
//! and compression) — without going through the bench harness. Used by
//! the CLI's `report` subcommand and handy for CI artifacts.

use crate::accelerator::{EvalOptions, SchemeChoice};
use crate::parallel::{run_jobs, Jobs};
use crate::runner::{EvalPoint, SweepCache, TraceBundle, WorkloadOptions};
use crate::summary::fmt_bytes;
use diffy_encoding::StorageScheme;
use diffy_imaging::datasets::DatasetId;
use diffy_models::CiModel;
use diffy_sim::Architecture;
use std::fmt::Write as _;
use std::sync::Arc;

/// Options for a report.
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// Workload to trace.
    pub workload: WorkloadOptions,
    /// Models to include (defaults to all of Table I).
    pub models: [bool; 5],
    /// Worker threads for tracing and evaluation. The report is
    /// bit-identical at any job count (see [`crate::parallel`]).
    pub jobs: Jobs,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            workload: WorkloadOptions { resolution: 64, samples_per_dataset: 1, seed: 1 },
            models: [true; 5],
            jobs: Jobs::SERIAL,
        }
    }
}

/// Renders the Markdown report.
pub fn render_report(opts: &ReportOptions) -> String {
    let mut out = String::new();
    let w = opts.workload;
    let _ = writeln!(out, "# Diffy workload report\n");
    let _ = writeln!(
        out,
        "Synthetic traces at {0}x{0}, seed {1}; HD numbers projected by pixel count.\n",
        w.resolution, w.seed
    );

    let _ = writeln!(out, "## Architecture comparison (DeltaD16, DDR4-3200)\n");
    let _ = writeln!(out, "| model | VAA HD FPS | PRA | Diffy | Diffy/VAA | Diffy/PRA |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    let scheme = SchemeChoice::Scheme(StorageScheme::delta_d(16));
    let selected: Vec<CiModel> = CiModel::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| opts.models[*i])
        .map(|(_, m)| m)
        .collect();

    // Trace each selected model once (fanned out over `jobs` workers),
    // then batch-evaluate model × architecture. Both fan-outs return
    // results in job order, so the rendered report is byte-identical to
    // the historical serial loop at any job count.
    let cache = SweepCache::new();
    let traced: Vec<Arc<TraceBundle>> = run_jobs(
        selected
            .iter()
            .map(|&model| {
                let cache = &cache;
                let w = &w;
                move || cache.bundle(model, DatasetId::Hd33, 0, w)
            })
            .collect(),
        opts.jobs,
    );
    let bundles: Vec<(CiModel, Arc<TraceBundle>)> =
        selected.into_iter().zip(traced).collect();

    const ARCHS: [Architecture; 3] =
        [Architecture::Vaa, Architecture::Pra, Architecture::Diffy];
    let points: Vec<EvalPoint> = bundles
        .iter()
        .flat_map(|&(model, _)| {
            ARCHS.map(|arch| EvalPoint {
                model,
                dataset: DatasetId::Hd33,
                sample: 0,
                workload: w,
                eval: EvalOptions::new(arch, scheme),
            })
        })
        .collect();
    let results = cache.evaluate_points(&points, opts.jobs);

    for ((model, bundle), arch_results) in bundles.iter().zip(results.chunks_exact(3)) {
        let (vaa, pra, diffy) = (&arch_results[0], &arch_results[1], &arch_results[2]);
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.2}x | {:.2}x |",
            model.name(),
            bundle.hd_fps(vaa),
            bundle.hd_fps(pra),
            bundle.hd_fps(diffy),
            vaa.total_cycles() as f64 / diffy.total_cycles() as f64,
            pra.total_cycles() as f64 / diffy.total_cycles() as f64,
        );
    }

    let _ = writeln!(out, "\n## Activation compression (per-frame, traced size)\n");
    let _ = writeln!(out, "| model | 16-bit | RawD16 | DeltaD16 |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (model, bundle) in &bundles {
        let total = |s: StorageScheme| -> u64 {
            diffy_memsys::traffic::network_traffic(&bundle.trace, s)
                .iter()
                .map(|t| t.activation_bytes())
                .sum()
        };
        let none = total(StorageScheme::NoCompression);
        let raw = total(StorageScheme::raw_d(16));
        let delta = total(StorageScheme::delta_d(16));
        let _ = writeln!(
            out,
            "| {} | {} | {} ({:.0}%) | {} ({:.0}%) |",
            model.name(),
            fmt_bytes(none),
            fmt_bytes(raw),
            100.0 * raw as f64 / none as f64,
            fmt_bytes(delta),
            100.0 * delta as f64 / none as f64,
        );
    }

    let _ = writeln!(
        out,
        "\nGenerated by `diffy report`; regenerate any paper artefact with \
         `cargo bench -p diffy-bench --bench <target>` (see `diffy experiments`)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ReportOptions {
        ReportOptions {
            workload: WorkloadOptions::test_small(),
            models: [false, false, true, false, false], // IRCNN only
            jobs: Jobs::SERIAL,
        }
    }

    #[test]
    fn report_contains_requested_model_only() {
        let r = render_report(&tiny_opts());
        assert!(r.contains("IRCNN"));
        assert!(!r.contains("| DnCNN |"));
        assert!(r.contains("## Architecture comparison"));
        assert!(r.contains("## Activation compression"));
    }

    #[test]
    fn report_is_byte_identical_at_any_job_count() {
        let serial = render_report(&tiny_opts());
        for n in [2, 8] {
            let par = ReportOptions { jobs: Jobs::new(n), ..tiny_opts() };
            assert_eq!(render_report(&par), serial, "jobs={n}");
        }
    }

    #[test]
    fn report_is_valid_markdown_tableish() {
        let r = render_report(&tiny_opts());
        // Every table row has the same pipe count as its header.
        let lines: Vec<&str> = r.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.len() >= 4);
        let pipes = |s: &str| s.matches('|').count();
        assert_eq!(pipes(lines[0]), pipes(lines[2]));
    }
}
