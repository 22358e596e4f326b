//! Bit-identity gate for the two kernels under every cold evaluation:
//! the inference convolution (`conv2d_fast`, called by `run_network`) and
//! the storage-scheme footprint pass (`StorageScheme::tensor_bits`, called
//! by `network_scheme_traffic`).
//!
//! Each row pins FNV-1a digests of one real trace: first of every tensor
//! `run_network` produces (each layer's imap, then the network output,
//! shapes included), then of the per-layer traffic vector under seven
//! scheme choices. The traces are the five CI models at 32² on their
//! first dataset, plus ResNet18 and AlexNet at their minimum resolution,
//! which bring strides 2 and 4 and 7×7 and 11×11 filters.
//!
//! The constants were captured with the scalar i64 `conv2d_fast` loop nest
//! and the per-group `Vec` footprint pass, before the output-stationary
//! SIMD conv and the fused footprint pass replaced them. The RawD8 and
//! RawD256 columns were captured with the portable fused pass, before the
//! AVX2 footprint kernel: RawD8 stays on the portable path, RawD256 takes
//! the kernel. No rewrite may move a single digest. On a mismatch the test prints the full
//! computed table.
//!
//! The digests come from the dispatched kernels. The same test runs every
//! layer's conv and every tensor's dynamic-scheme footprints on every
//! instruction set this CPU runs (`Isa::available()`), and each must
//! equal the dispatched result; by induction over the layers, the
//! portable strips then reproduce every digest.

use diffy::core::artifact::fnv1a64;
use diffy::core::runner::{
    ci_trace_bundle, class_trace_bundle, datasets_for, TraceBundle, WorkloadOptions,
};
use diffy::core::{network_scheme_traffic, SchemeChoice};
use diffy::encoding::StorageScheme;
use diffy::memsys::traffic::tensor_signedness;
use diffy::models::{CiModel, ClassModel, NetworkTrace};
use diffy::tensor::conv::conv2d_fast_on;
use diffy::tensor::{conv2d_fast, Isa, Tensor3};

/// The scheme choices whose traffic vectors are pinned, in column order
/// after the tensor digest.
fn schemes() -> [SchemeChoice; 9] {
    [
        SchemeChoice::Scheme(StorageScheme::NoCompression),
        SchemeChoice::Profiled { quantile: 0.999 },
        SchemeChoice::Scheme(StorageScheme::raw_d(16)),
        SchemeChoice::Scheme(StorageScheme::delta_d(16)),
        SchemeChoice::Scheme(StorageScheme::delta_d(256)),
        SchemeChoice::Scheme(StorageScheme::Rle),
        SchemeChoice::Scheme(StorageScheme::RleZ),
        SchemeChoice::Scheme(StorageScheme::raw_d(8)),
        SchemeChoice::Scheme(StorageScheme::raw_d(256)),
    ]
}

fn push_tensor(bytes: &mut Vec<u8>, t: &Tensor3<i16>) {
    let (c, h, w) = t.shape().as_tuple();
    for d in [c, h, w] {
        bytes.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in t.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
}

/// Digest of every tensor the inference engine produced for `trace`.
fn tensors_digest(trace: &NetworkTrace) -> u64 {
    let mut bytes = Vec::new();
    for layer in &trace.layers {
        push_tensor(&mut bytes, &layer.imap);
    }
    push_tensor(&mut bytes, &trace.output);
    fnv1a64(&bytes)
}

fn traffic_digest(trace: &NetworkTrace, scheme: SchemeChoice) -> u64 {
    let mut bytes = Vec::new();
    for t in network_scheme_traffic(trace, scheme) {
        for v in [t.imap_read_bytes, t.omap_write_bytes, t.weight_bytes] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Asserts that the conv of every layer of `trace` and the dynamic-scheme
/// footprints of every tensor it holds come out the same on every ISA as
/// on the dispatched kernels. The conv runs without bias: the bias seeds
/// the output block before any strip runs, so it cannot tell the strips
/// apart.
fn assert_every_isa_matches_dispatch(name: &str, trace: &NetworkTrace) {
    let dynamic: Vec<StorageScheme> = schemes()
        .into_iter()
        .filter_map(|choice| match choice {
            SchemeChoice::Scheme(
                scheme @ (StorageScheme::RawDynamic { .. } | StorageScheme::DeltaDynamic { .. }),
            ) => Some(scheme),
            _ => None,
        })
        .collect();
    for layer in &trace.layers {
        let (imap, fmaps, geom) = (&layer.imap, &layer.fmaps, layer.geom);
        let dispatched = conv2d_fast(imap, fmaps, None, geom);
        for &isa in Isa::available() {
            let got = conv2d_fast_on(imap, fmaps, None, geom, isa);
            assert!(got == dispatched, "{name} {}: conv on {isa:?} diverged", layer.name);
        }
    }
    let tensors = trace.layers.iter().map(|l| (l.name.as_str(), &l.imap));
    for (what, t) in tensors.chain([("output", &trace.output)]) {
        let sign = tensor_signedness(t);
        for &scheme in &dynamic {
            let dispatched = scheme.tensor_bits(t, sign);
            for &isa in Isa::available() {
                let got = scheme.tensor_bits_on(t, sign, isa);
                assert_eq!(got, dispatched, "{name} {what}: {scheme} on {isa:?} diverged");
            }
        }
    }
}

fn bundles() -> Vec<(String, TraceBundle)> {
    let opts = WorkloadOptions::test_small();
    let mut out: Vec<(String, TraceBundle)> = CiModel::ALL
        .into_iter()
        .map(|m| (format!("{m}@32"), ci_trace_bundle(m, datasets_for(m)[0], 0, &opts)))
        .collect();
    for m in [ClassModel::ResNet18, ClassModel::AlexNet] {
        let res = m.min_resolution();
        out.push((format!("{m}@{res}"), class_trace_bundle(m, res, opts.seed)));
    }
    out
}

/// `(trace, [tensors, NoCompression, Profiled{0.999}, RawD16, DeltaD16,
/// DeltaD256, RLE, RLEz, RawD8, RawD256])`.
#[rustfmt::skip]
const FINGERPRINTS: [(&str, [u64; 10]); 7] = [
    ("DnCNN@32", [0x7f81532f41f05881, 0x0b8f9c6405845341, 0xf2891d40c65b5f82, 0x004538659d9c4c5a, 0x02ac594699f616b4, 0xf773181bb6ca8101, 0xe04b9eccbdb0ec39, 0x3480ca90b6307363, 0x233a01f87d5536f6, 0x7bc4539ef3b62960]),
    ("FFDNet@32", [0x3ce025a04b162edc, 0xa4032f042b93b1ff, 0x518c558aa7ad45a9, 0xd4412ed4c91d7cb4, 0xb766785fcc8d0804, 0xb766785fcc8d0804, 0xf6ff6ed56b22d8dd, 0xc5c20716e898689e, 0x7c8c3deb0ddd2669, 0xd4412ed4c91d7cb4]),
    ("IRCNN@32", [0x8544a98680309096, 0x05879e581b67d27c, 0x998c21cd3709b88f, 0xa36e35418ec5dbb9, 0xe0f9cd230b034c18, 0x2412c2b52b1633c3, 0xb02690d596b24b5f, 0x2c8ed7b628bf8682, 0x5eb6f367a175280c, 0x1cf70a1020840589]),
    ("JointNet@32", [0xe242fef384a6da75, 0x05020ba596ef34ec, 0xde207e43c2bec6d8, 0x390aa3f6c04f7293, 0x61ed531d7d00e1fc, 0x61ed531d7d00e1fc, 0xb516d0e258ddb1d0, 0xb57fd3fdcf522351, 0xb1c6d7156d2e2fea, 0x390aa3f6c04f7293]),
    ("VDSR@32", [0x5ea20ad0125acf91, 0x0b8f9c6405845341, 0x8857830114088a9d, 0x77a7eb78b1feba3b, 0x35747c8de8ec95b1, 0x5005d839a182882e, 0x608d157c2557017f, 0xbe4d8fb2322e4249, 0xe999e9bddceaf8db, 0x57f3e0531b5670a7]),
    ("ResNet18@64", [0xa8a673bc9f9e91a8, 0xec719276fd41a66b, 0x0986a38ddd31e8a9, 0x60d24392ae1159ba, 0x53f5b4fd0f80b003, 0xe4625eeafb7ea2de, 0x81d8e1ebea0b6b69, 0x5adc5115fb3e686b, 0x9ff45f1a503e4806, 0xfaba93ed5366ef6a]),
    ("AlexNet@64", [0x1ef93d6f9bf1d3c8, 0x5c8ae4ef8b9b66a4, 0xe22b769e09c3dccf, 0x88805dea2dc37d90, 0xe5ff4075cce70ea3, 0xdbec307099542b9e, 0x1e4bdf1a44aec0d6, 0xa7cb5418b1979509, 0x212a6aa9b1b94728, 0xd97fbc1f1673c6c0]),
];

#[test]
fn inference_tensors_and_traffic_match_pinned_digests() {
    let actual: Vec<(String, [u64; 10])> = bundles()
        .into_iter()
        .map(|(name, b)| {
            assert_every_isa_matches_dispatch(&name, &b.trace);
            let mut row = [0u64; 10];
            row[0] = tensors_digest(&b.trace);
            for (slot, scheme) in row[1..].iter_mut().zip(schemes()) {
                *slot = traffic_digest(&b.trace, scheme);
            }
            (name, row)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, row)| {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    let pinned: Vec<(String, [u64; 10])> =
        FINGERPRINTS.iter().map(|(n, r)| (n.to_string(), *r)).collect();
    assert_eq!(actual, pinned, "kernel fingerprint drift; computed table:\n{table}");
}
