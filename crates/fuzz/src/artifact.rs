//! Artifact-store fuzzing: byte-mutate valid on-disk artifacts —
//! truncation, header corruption, version skew, fingerprint flips,
//! interior JSON mangling — and assert the disk tier's read contract on
//! [`diffy_core::artifact::decode_artifact`]: every input is either
//! accepted (and then provably *right* — canonical re-encode decodes to
//! an equal artifact, and a wrong expected key is still rejected) or
//! rejected with a classified, reasoned error. Nothing panics, and
//! nothing is accepted-but-wrong — the failure mode that would let a
//! flipped bit on disk masquerade as a cached evaluation.
//!
//! The base input is a real artifact document produced by one evaluation
//! of the protocol-default spec (IRCCN/Kodak24 at a small resolution),
//! built once per process — the same amortization trick the session lane
//! uses. Mutations are applied to its bytes, so the generator explores
//! the actual wire format, not a toy grammar.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::RngExt;

use diffy_core::artifact::{artifact_document, decode_artifact};
use diffy_core::json::parse;
use diffy_core::runner::SweepCache;
use diffy_core::EvalArtifact;
use diffy_serve::protocol::EvalRequest;

use crate::corpus;

/// One real artifact document, computed once per process: the evaluation
/// is pure, so sharing changes cost, never outcomes.
pub fn base_document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let spec = parse(r#"{"model": "IRCNN", "dataset": "Kodak24", "resolution": 16}"#)
            .expect("literal spec parses");
        let req = EvalRequest::from_json(&spec).expect("literal spec is valid");
        let (opts, eval) = (req.workload(), req.eval_options());
        let cache = SweepCache::new();
        let result = cache.evaluate(req.model, req.dataset, req.sample, &opts, &eval);
        let source_pixels = cache.bundle(req.model, req.dataset, req.sample, &opts).source_pixels;
        let key = diffy_core::result_key(req.model, req.dataset, req.sample, &opts, &eval);
        artifact_document(&key, &EvalArtifact::new(result, source_pixels))
    })
}

/// Deterministic checker repro tests call: feeds `input` to the artifact
/// decoder and asserts the read contract. Returns the outcome label:
/// `accepted` or `reject:<ArtifactError::kind()>` (with `reject:utf8`
/// standing in for the io path a non-UTF-8 file takes).
pub fn check_input(input: &[u8]) -> String {
    // The disk tier reads artifacts as text; a non-UTF-8 file surfaces as
    // an io-class rejection before the decoder ever runs.
    let Ok(text) = std::str::from_utf8(input) else {
        return "reject:utf8".to_string();
    };
    match decode_artifact(text, None) {
        Err(e) => {
            let reason = e.to_string();
            assert!(!reason.is_empty(), "rejection without a reason for kind {}", e.kind());
            format!("reject:{}", e.kind())
        }
        Ok((key, artifact)) => {
            // Accepted means right: the canonical re-encode must decode
            // to an equal artifact under the strictest mode (key echo +
            // fingerprint), and a wrong expected key must still reject.
            let canonical = artifact_document(&key, &artifact);
            let (key2, artifact2) = decode_artifact(&canonical, Some(&key))
                .unwrap_or_else(|e| panic!("canonical re-encode rejected: {e}"));
            assert_eq!(key, key2, "key changed across re-encode");
            assert!(artifact == artifact2, "artifact changed across re-encode");
            let wrong = decode_artifact(&canonical, Some("not-the-key"));
            match wrong {
                Err(e) if e.kind() == "key-mismatch" => {}
                other => panic!("wrong expected key not rejected: {other:?}"),
            }
            "accepted".to_string()
        }
    }
}

/// The artifact-store driver.
pub struct ArtifactDriver;

impl crate::Driver for ArtifactDriver {
    fn name(&self) -> &'static str {
        "artifact"
    }

    fn corpus(&self) -> Vec<(String, Vec<u8>)> {
        corpus::artifact_corpus().into_iter().map(|c| (c.name.to_string(), c.input)).collect()
    }

    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let base = base_document().as_bytes();
        let mut doc = base.to_vec();
        match rng.random_range(0..10u32) {
            // Pass-through: the decoder must keep accepting the real thing.
            0 => {}
            // Truncation at an arbitrary byte (torn write / short read).
            1 | 2 => doc.truncate(rng.random_range(0..doc.len())),
            // Header corruption: mangle the format marker.
            3 => {
                if let Some(pos) = find(&doc, b"diffy-artifact") {
                    doc[pos + rng.random_range(0..14usize)] = b'#';
                }
            }
            // Version skew: splice a different version number in.
            4 => {
                if let Some(pos) = find(&doc, b"\"version\":") {
                    doc[pos + 10] = b'0' + rng.random_range(2..10u8);
                }
            }
            // Fingerprint flip: perturb the last digit (value changes but
            // stays in u64 range — only the fingerprint check can trip).
            5 => {
                if let Some(pos) = find(&doc, b"\"fingerprint\":") {
                    let start = pos + 14;
                    let digits =
                        doc[start..].iter().take_while(|b| b.is_ascii_digit()).count();
                    let d = &mut doc[start + digits - 1];
                    *d = if *d == b'9' { b'1' } else { *d + 1 };
                }
            }
            // Interior mangling: flip, insert, or delete one byte
            // anywhere (decoder sees bad JSON, a broken field, or a
            // fingerprint mismatch — all must classify, none may panic).
            6 | 7 => {
                let pos = rng.random_range(0..doc.len());
                doc[pos] = rng.random_range(0..=255u8);
            }
            8 => {
                let pos = rng.random_range(0..doc.len());
                doc.insert(pos, rng.random_range(0..=255u8));
            }
            _ => {
                let pos = rng.random_range(0..doc.len());
                doc.remove(pos);
            }
        }
        doc
    }

    fn check(&self, input: &[u8], _delivery: &mut StdRng) -> String {
        check_input(input)
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_rng;
    use crate::Driver;

    #[test]
    fn base_document_is_accepted() {
        assert_eq!(check_input(base_document().as_bytes()), "accepted");
    }

    #[test]
    fn generator_inputs_classify_without_panicking() {
        let mut saw_accept = false;
        let mut saw_reject = false;
        for i in 0..128 {
            let input = ArtifactDriver.generate(&mut case_rng(17, i, 0));
            let label = check_input(&input);
            saw_accept |= label == "accepted";
            saw_reject |= label.starts_with("reject:");
            assert!(
                label == "accepted" || label.starts_with("reject:"),
                "unexpected label {label}"
            );
        }
        assert!(saw_accept && saw_reject, "generator never reached both outcome classes");
    }

    /// The conformance table for the seed corpus: every failure class the
    /// issue names, pinned by entry name so a regression fails by name.
    #[test]
    fn corpus_entries_classify_as_named() {
        let expected = [
            ("valid_artifact", "accepted"),
            ("truncated_halfway", "reject:json"),
            ("bad_format_marker", "reject:bad-header"),
            ("missing_format_marker", "reject:bad-header"),
            ("version_skew_future", "reject:version-skew"),
            ("fingerprint_flip", "reject:fingerprint-mismatch"),
            ("interior_json_mangled", "reject:fingerprint-mismatch"),
            ("payload_shape_with_honest_fingerprint", "reject:payload"),
            ("not_json", "reject:json"),
            ("empty_file", "reject:json"),
            ("non_utf8", "reject:utf8"),
        ];
        let corpus = corpus::artifact_corpus();
        assert_eq!(corpus.len(), expected.len(), "corpus/table drift");
        for (name, want) in expected {
            let case = corpus
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("corpus entry {name} missing"));
            assert_eq!(check_input(&case.input), want, "corpus entry {name}");
        }
    }
}
