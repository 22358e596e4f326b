//! Criterion micro-benchmarks of the library's hot kernels: Booth term
//! counting, the delta transform, storage-scheme encoding, the three
//! convolution implementations, and the term-serial cycle model
//! (reference loop nest vs the group-reduced plane kernel).
//!
//! The term-serial section measures wall time explicitly (the vendored
//! criterion stub has no measurement API) and, when `DIFFY_BENCH_JSON`
//! is set, writes its records plus the headline reference/optimized
//! speedup to that path — the repo commits the full-HD run as
//! `BENCH_term_serial.json`. `DIFFY_BENCH_SMOKE=1` shrinks the workload
//! to seconds for CI. Both kernels are asserted cycle-identical here, so
//! the bench doubles as a divergence gate. The plane build is timed on the
//! dispatched strip (`plane_build_*`) and on the portable strip
//! (`plane_build_portable_*`), gated plane-identical. The section also
//! times the two kernels of a cold evaluation, each gated against its
//! reference: the inference conv (`conv2d_fast_dncnn64` vs `conv2d`) and
//! the DeltaD16 traffic footprint (`traffic_deltad16_*` vs the encoder's
//! bits, with `traffic_deltad16_portable_*` on the portable loop). The
//! conv runs once more on a real post-ReLU DnCNN layer
//! (`conv2d_fast_relu_dncnn64`), whose all-zero strips it skips.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use diffy_bench::{bench_smoke, time_kernel, write_bench_json, BenchRecord};
use diffy_core::dc::differential_conv2d;
use diffy_core::runner::{ci_trace_bundle, datasets_for, EvalPoint, SweepCache, WorkloadOptions};
use diffy_core::{EvalOptions, SchemeChoice};
use diffy_encoding::bitstream::BitWriter;
use diffy_encoding::delta::{delta_rows_wrapping, undelta_rows_wrapping};
use diffy_encoding::precision::Signedness;
use diffy_encoding::{booth_terms, StorageScheme};
use diffy_imaging::datasets::DatasetId;
use diffy_memsys::traffic::encoded_bytes;
use diffy_models::{CiModel, LayerTrace};
use diffy_sim::term_serial::Metric;
use diffy_sim::{
    term_serial_layer, term_serial_layer_reference, term_serial_layer_with_terms,
    AcceleratorConfig, Architecture, PaddedTerms, ValueMode,
};
use diffy_tensor::{conv2d, conv2d_fast, conv2d_im2col, ConvGeometry, Isa, Tensor3, Tensor4};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn pseudo_values(n: usize) -> Vec<i16> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(6364136223846793005) >> 48) as i16)
        .collect()
}

/// Share of the 16-column activation strips `layer`'s conv reads, one
/// per (output row, 16 output columns, tap), that hold only zeros,
/// padding included.
fn zero_strip_share(layer: &LayerTrace) -> f64 {
    let (imap, fs, g) = (&layer.imap, layer.fmaps.shape(), layer.geom);
    let os = g.out_shape(imap.shape(), fs);
    let at = |c, y: usize, x: usize| {
        imap.at_padded(c, y as isize - g.pad as isize, x as isize - g.pad as isize, 0)
    };
    let (mut zero, mut all) = (0u64, 0u64);
    for oy in 0..os.h {
        for x0 in (0..os.w).step_by(16) {
            for c in 0..fs.c {
                for j in 0..fs.h {
                    for i in 0..fs.w {
                        let (y, dx) = (oy * g.stride + j * g.dilation, i * g.dilation);
                        let mut xs = x0..(x0 + 16).min(os.w);
                        zero += xs.all(|x| at(c, y, x * g.stride + dx) == 0) as u64;
                        all += 1;
                    }
                }
            }
        }
    }
    zero as f64 / all as f64
}

fn bench_booth(c: &mut Criterion) {
    let values = pseudo_values(64 * 1024);
    let mut g = c.benchmark_group("booth_terms");
    g.throughput(Throughput::Elements(values.len() as u64));
    g.bench_function("closed_form_64k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &v in &values {
                acc += booth_terms(black_box(v)) as u64;
            }
            acc
        })
    });
    g.finish();
}

fn bench_delta(c: &mut Criterion) {
    let t = Tensor3::from_vec(16, 64, 64, pseudo_values(16 * 64 * 64));
    let mut g = c.benchmark_group("delta_transform");
    g.throughput(Throughput::Elements(t.len() as u64));
    g.bench_function("wrapping_rows_64x64x16", |b| {
        b.iter(|| delta_rows_wrapping(black_box(&t), 1))
    });
    g.finish();
}

fn bench_schemes(c: &mut Criterion) {
    let row: Vec<i16> = pseudo_values(1024).iter().map(|v| v.unsigned_abs() as i16).collect();
    let mut g = c.benchmark_group("scheme_encode");
    g.throughput(Throughput::Elements(row.len() as u64));
    for scheme in [
        StorageScheme::raw_d(16),
        StorageScheme::delta_d(16),
        StorageScheme::RleZ,
    ] {
        g.bench_function(scheme.to_string(), |b| {
            b.iter(|| {
                let mut w = BitWriter::new();
                scheme.encode_row(black_box(&row), Signedness::Unsigned, &mut w);
                w.finish()
            })
        });
    }
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let imap = Tensor3::from_vec(16, 32, 32, pseudo_values(16 * 32 * 32));
    let fmaps = Tensor4::from_vec(16, 16, 3, 3, pseudo_values(16 * 16 * 9));
    let geom = ConvGeometry::same(3, 3);
    let macs = (16 * 32 * 32 * 16 * 9) as u64;
    let mut g = c.benchmark_group("conv2d_32x32x16_k16");
    g.throughput(Throughput::Elements(macs));
    g.bench_function("reference", |b| {
        b.iter(|| conv2d(black_box(&imap), black_box(&fmaps), None, geom))
    });
    g.bench_function("fast", |b| {
        b.iter(|| conv2d_fast(black_box(&imap), black_box(&fmaps), None, geom))
    });
    g.bench_function("im2col", |b| {
        b.iter(|| conv2d_im2col(black_box(&imap), black_box(&fmaps), None, geom))
    });
    g.bench_function("differential", |b| {
        b.iter(|| differential_conv2d(black_box(&imap), black_box(&fmaps), None, geom))
    });
    g.finish();
}

/// A synthetic HD-resolution layer for the term-serial kernels: 16
/// channels of pseudo-random activations, 16 3×3 filters, same-padded —
/// the shape of a CI-DNN trunk layer at 1080p.
fn term_serial_trace(c: usize, h: usize, w: usize, k: usize) -> LayerTrace {
    let imap = Tensor3::from_vec(c, h, w, pseudo_values(c * h * w));
    LayerTrace {
        name: format!("bench_{c}x{h}x{w}"),
        index: 0,
        fmaps: Tensor4::<i16>::filled(k, c, 3, 3, 1),
        geom: ConvGeometry::same(3, 3),
        relu: true,
        requant_shift: 12,
        requant_bias: 0,
        next_stride: 1,
        imap,
    }
}

fn bench_term_serial(_c: &mut Criterion) {
    let smoke = bench_smoke();
    let (h, w) = if smoke { (96, 96) } else { (1080, 1920) };
    let trace = term_serial_trace(16, h, w, 16);
    let cfg = AcceleratorConfig::table4();
    let windows = (h * w) as u64; // stride-1 same-pad: one window per output
    let min_total = Duration::from_millis(if smoke { 50 } else { 200 });
    let label = |kernel: &str, mode: ValueMode| {
        let m = if mode == ValueMode::Raw { "raw" } else { "diff" };
        format!("term_serial_{h}p_{kernel}_{m}")
    };

    println!("== term-serial cycle-model kernels ({}x{h}x{w}, 16 filters 3x3) ==", 16);
    let mut records: Vec<BenchRecord> = Vec::new();

    // Bulk-kernel micro-records: the scalar closed form over a slice, and
    // the fused delta transform. `black_box` hides the input slice and
    // the output once per call, not each value, so the loop times the
    // closed form rather than a stack store and reload per value.
    let kvals = pseudo_values(1 << 20);
    let kn = kvals.len() as u64;
    let mut scalar_counts = vec![0u8; kvals.len()];
    let (rec, _) = time_kernel("booth_count_scalar_1m", 3, min_total, Some(kn), || {
        for (d, &v) in scalar_counts.iter_mut().zip(black_box(&kvals)) {
            *d = booth_terms(v) as u8;
        }
        black_box(&mut scalar_counts);
    });
    records.push(rec);

    let dt = Tensor3::from_vec(16, 256, 256, pseudo_values(16 * 256 * 256));
    let (rec, dplanes) = time_kernel(
        "delta_transform_wrapping_256x256x16",
        3,
        min_total,
        Some(dt.len() as u64),
        || delta_rows_wrapping(black_box(&dt), 1),
    );
    assert_eq!(
        undelta_rows_wrapping(&dplanes, 1).as_slice(),
        dt.as_slice(),
        "delta transform no longer roundtrips"
    );
    records.push(rec);

    // Release the micro-record buffers before the cold-path loops below;
    // see the record-ordering note there.
    drop(dplanes);
    drop(dt);
    drop(scalar_counts);
    drop(kvals);

    // Record ordering matters: the reference/cold records and the
    // standalone build records run while NO other plane set is resident,
    // so each measures what a fresh single evaluation pays. Holding the
    // shared planes (~115 MiB) across these loops defeats the
    // allocator's page recycling — the dropped planes of iteration N
    // stop being reused by iteration N+1 and every build re-faults its
    // working set, inflating the cold records by ~50% with costs no
    // standalone evaluation sees. The shared-plane set is therefore
    // built after them and only the amortized records run against it.
    let mut ref_recs = Vec::new();
    let mut ref_results = Vec::new();
    for mode in [ValueMode::Raw, ValueMode::Differential] {
        let (ref_rec, ref_cycles) =
            time_kernel(&label("reference", mode), 2, min_total, Some(windows), || {
                term_serial_layer_reference(black_box(&trace), &cfg, mode)
            });
        // Cold: builds the planes inside the call, like a single
        // standalone evaluation would.
        let (cold_rec, cold_cycles) =
            time_kernel(&label("planes_cold", mode), 2, min_total, Some(windows), || {
                term_serial_layer(black_box(&trace), &cfg, mode)
            });
        // Divergence gate: the optimized kernel must reproduce the
        // reference cycle/slot accounting bit-for-bit.
        assert_eq!(cold_cycles, ref_cycles, "{mode:?}: cold kernel diverged from reference");
        ref_recs.push((ref_rec, cold_rec));
        ref_results.push(ref_cycles);
    }

    // The once-per-layer plane build at the config's group, measured on
    // its own so the amortized and cold costs above can be read against
    // it: one strip pass yields the sums and the group costs together,
    // the whole cold-path plane cost of one standalone evaluation.
    let (build_rec, terms) = time_kernel(
        &format!("plane_build_{h}p"),
        5,
        min_total,
        Some(windows),
        || Arc::new(PaddedTerms::for_layer_at(&trace, cfg.terms_per_group)),
    );
    records.push(build_rec);
    // The same build on the portable strip, in the same row bands: the
    // fallback of CPUs without AVX2, gated plane-identical to the
    // dispatched build, so the pair isolates the AVX2 strip.
    let (geom, g) = (trace.geom, cfg.terms_per_group);
    let (rec, portable) = time_kernel(
        &format!("plane_build_portable_{h}p"),
        5,
        min_total,
        Some(windows),
        || {
            let imap = black_box(&trace.imap);
            PaddedTerms::build_on(imap, geom.pad, geom.stride, g, Metric::Booth, Isa::Portable)
        },
    );
    assert!(portable == *terms, "portable plane build diverged from the dispatched one");
    records.push(rec);
    drop(portable);

    let mut speedup_cold = f64::MAX;
    let mut speedup_kernel = f64::MAX;
    for ((mode, (ref_rec, cold_rec)), ref_cycles) in
        [ValueMode::Raw, ValueMode::Differential].into_iter().zip(ref_recs).zip(ref_results)
    {
        // Amortized: planes prebuilt and shared, the sweep steady state.
        let (warm_rec, warm_cycles) =
            time_kernel(&label("planes_shared", mode), 2, min_total, Some(windows), || {
                term_serial_layer_with_terms(black_box(&trace), &cfg, mode, &terms)
            });
        assert_eq!(warm_cycles, ref_cycles, "{mode:?}: shared kernel diverged from reference");

        speedup_cold = speedup_cold.min(ref_rec.wall_ms / cold_rec.wall_ms);
        speedup_kernel = speedup_kernel.min(ref_rec.wall_ms / warm_rec.wall_ms);
        println!(
            "{:?}: reference {:.1} ms, cold {:.2} ms ({:.1}x), shared {:.2} ms ({:.1}x)",
            mode,
            ref_rec.wall_ms,
            cold_rec.wall_ms,
            ref_rec.wall_ms / cold_rec.wall_ms,
            warm_rec.wall_ms,
            ref_rec.wall_ms / warm_rec.wall_ms,
        );
        records.extend([ref_rec, cold_rec, warm_rec]);
    }

    // One end-to-end sweep: N architectures priced on one trace through
    // the shared cache (trace + planes built once, then reused).
    let opts = if smoke {
        WorkloadOptions::test_small()
    } else {
        WorkloadOptions { resolution: 96, samples_per_dataset: 1, seed: 1 }
    };
    let jobs: Vec<EvalPoint> = [Architecture::Vaa, Architecture::Pra, Architecture::Diffy]
        .into_iter()
        .map(|arch| EvalPoint {
            model: CiModel::Ircnn,
            dataset: DatasetId::Kodak24,
            sample: 0,
            workload: opts,
            eval: EvalOptions::new(arch, SchemeChoice::Ideal),
        })
        .collect();
    let (sweep_rec, _) = time_kernel(
        &format!("sweep_3arch_ircnn_{}px", opts.resolution),
        1,
        Duration::ZERO,
        Some(jobs.len() as u64),
        || SweepCache::new().evaluate_points(&jobs, diffy_bench::bench_jobs()),
    );
    println!(
        "end-to-end sweep ({} jobs, fresh cache): {:.1} ms",
        jobs.len(),
        sweep_rec.wall_ms
    );
    records.push(sweep_rec);

    // Tracing-overhead gate: with the collector disabled (the default),
    // wrapping the kernel in a span must cost nothing measurable — the
    // entire span path is one relaxed atomic load and the args closure
    // is never called. Alternating min-of-rounds cancels drift: each
    // round times a bare batch and a span-wrapped batch back to back,
    // and the minima are compared.
    assert!(
        !diffy_core::trace::enabled(),
        "overhead bench requires the collector off (it is off by default)"
    );
    // The shared-plane kernel is ~0.05ms/call in smoke, ~1.5ms at full
    // HD: size batches so every timed batch spans >=100ms of work and
    // the sub-1% comparison stays above scheduler noise.
    let (rounds, batch) = if smoke { (6u32, 256u32) } else { (9u32, 128u32) };
    let mut bare_min = f64::MAX;
    let mut traced_min = f64::MAX;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        for _ in 0..batch {
            black_box(term_serial_layer_with_terms(black_box(&trace), &cfg, ValueMode::Differential, &terms));
        }
        bare_min = bare_min.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        for _ in 0..batch {
            let _span =
                diffy_core::trace::span_args("tile_sim", || vec![("arch", "bench".into())]);
            black_box(term_serial_layer_with_terms(black_box(&trace), &cfg, ValueMode::Differential, &terms));
        }
        traced_min = traced_min.min(t.elapsed().as_secs_f64());
    }
    let overhead = traced_min / bare_min - 1.0;
    // The gate guards against accidental work on the disabled path — a
    // live span there costs tens of percent, so the budgets only need to
    // sit above timer noise: the row-span walk left full-HD batches a
    // few hundred ms where min-of-rounds still jitters ~1%, hence 2%;
    // smoke batches are milliseconds, so grant noise 10% there.
    let budget = if smoke { 0.10 } else { 0.02 };
    println!(
        "tracing-off span overhead: {:+.3}% (budget {:.0}%)",
        overhead * 100.0,
        budget * 100.0
    );
    assert!(
        overhead < budget,
        "disabled-tracing overhead {:.3}% exceeds the {:.0}% budget",
        overhead * 100.0,
        budget * 100.0
    );
    for (name, min) in
        [("trace_overhead_bare", bare_min), ("trace_overhead_span_wrapped", traced_min)]
    {
        records.push(BenchRecord {
            name: format!("{name}_{h}p"),
            wall_ms: min * 1e3 / batch as f64,
            iters: (rounds * batch) as u64,
            per_second: None,
        });
    }

    // The two kernels of a cold evaluation run last, after the layer and
    // its planes are released, so the cold-path records above keep the
    // allocation history they had before these records existed.
    drop(terms);
    drop(trace);

    // The inference conv on a DnCNN trunk layer: 64x64x64 post-ReLU
    // activations below 2^12 and weights within ±2^10, the ranges a
    // calibrated layer holds (one i32 segment per filter block), 64 3x3
    // filters, same pad. Gated equal to the reference loop nest.
    let cimap =
        Tensor3::from_vec(64, 64, 64, pseudo_values(64 * 64 * 64)).map(|v| (v >> 3) & 0x0FFF);
    let cweights = pseudo_values(64 * 64 * 9).iter().map(|v| v >> 5).collect();
    let cfmaps = Tensor4::from_vec(64, 64, 3, 3, cweights);
    let cgeom = ConvGeometry::same(3, 3);
    let macs = (64 * 64 * 64 * 64 * 9) as u64;
    let (rec, fast) = time_kernel("conv2d_fast_dncnn64", 3, min_total, Some(macs), || {
        conv2d_fast(black_box(&cimap), black_box(&cfmaps), None, cgeom)
    });
    assert_eq!(fast, conv2d(&cimap, &cfmaps, None, cgeom), "conv2d_fast diverged from conv2d");
    records.push(rec);
    drop(fast);

    // The DeltaD16 traffic footprint of one full-HD activation tensor,
    // gated equal to the bits the encoder writes for every row.
    let tt = Tensor3::from_vec(16, h, w, pseudo_values(16 * h * w));
    let scheme = StorageScheme::delta_d(16);
    let (rec, bytes) = time_kernel(
        &format!("traffic_deltad16_{h}p"),
        3,
        min_total,
        Some(tt.len() as u64),
        || encoded_bytes(black_box(&tt), scheme),
    );
    let mut bw = BitWriter::new();
    for c in 0..16 {
        for y in 0..h {
            scheme.encode_row(tt.row(c, y), Signedness::Signed, &mut bw);
        }
    }
    assert_eq!(bytes, bw.bit_len().div_ceil(8), "DeltaD16 footprint diverged from the encoder");
    records.push(rec);
    // The same footprint on the portable loop, the fallback and oracle of
    // the AVX2 kernel the dispatched record runs on x86 with AVX2, in the
    // same row bands, so the pair isolates the kernel.
    let (rec, portable) = time_kernel(
        &format!("traffic_deltad16_portable_{h}p"),
        3,
        min_total,
        Some(tt.len() as u64),
        || scheme.tensor_bits_on(black_box(&tt), Signedness::Signed, Isa::Portable).div_ceil(8),
    );
    assert_eq!(portable, bytes, "portable DeltaD16 footprint diverged from the dispatched one");
    records.push(rec);
    drop(tt);

    // The inference conv on a real layer: the post-ReLU imap of DnCNN's
    // conv_10 at 64², seed 1, whose all-zero strips the conv skips (the
    // dense record above has none). Gated equal to the reference loop
    // nest.
    let opts = WorkloadOptions { resolution: 64, samples_per_dataset: 1, seed: 1 };
    let bundle = ci_trace_bundle(CiModel::DnCnn, datasets_for(CiModel::DnCnn)[0], 0, &opts);
    let layer =
        bundle.trace.layers.iter().find(|l| l.name == "conv_10").expect("DnCNN has a conv_10");
    let (lmap, lfmaps, lgeom) = (&layer.imap, &layer.fmaps, layer.geom);
    let lshape = lgeom.out_shape(lmap.shape(), lfmaps.shape());
    let macs = (lshape.len() * lfmaps.filter(0).len()) as u64;
    let (rec, fast) = time_kernel("conv2d_fast_relu_dncnn64", 3, min_total, Some(macs), || {
        conv2d_fast(black_box(lmap), black_box(lfmaps), None, lgeom)
    });
    assert_eq!(fast, conv2d(lmap, lfmaps, None, lgeom), "conv2d_fast diverged from conv2d");
    println!(
        "DnCNN conv_10 at 64^2: {:.1}% of its per-tap 16-column strips are all zero, {:.2} ms",
        zero_strip_share(layer) * 100.0,
        rec.wall_ms
    );
    records.push(rec);

    println!(
        "headline kernel speedup (shared planes, min over modes): {speedup_kernel:.1}x; \
         cold incl. build: {speedup_cold:.1}x"
    );
    let meta = [
        ("workload", format!("16x{h}x{w} imap, 16 filters 3x3, same pad, stride 1")),
        ("config", "table4 (4 tiles, 16 windows, 16 lanes, T16)".to_string()),
        ("smoke", smoke.to_string()),
        (
            "host_parallelism",
            diffy_tensor::bands::parallelism().to_string(),
        ),
        (
            "note",
            "planes_cold includes the per-layer plane build; planes_shared amortizes \
             it as in sweeps; both asserted cycle-identical to reference"
                .to_string(),
        ),
    ];
    let summary = [
        ("speedup_hd", speedup_kernel),
        ("speedup_hd_cold", speedup_cold),
        ("trace_off_overhead_pct", overhead * 100.0),
    ];
    if let Some(path) = write_bench_json("term_serial", &meta, &records, &summary) {
        println!("wrote {}", path.display());
    }
}

criterion_group!(
    benches,
    bench_booth,
    bench_delta,
    bench_schemes,
    bench_conv,
    bench_term_serial
);
criterion_main!(benches);
