//! The instruction set the SIMD kernels run on: one runtime decision per
//! process, which every kernel with an AVX2 form matches on.
//!
//! Three kernels have one: the inference conv's strip
//! ([`crate::conv::conv2d_fast`]), the term-plane strip of
//! `diffy_sim::term_serial::PaddedTerms` and the RawD/DeltaD footprint
//! kernel of `diffy_encoding::StorageScheme`. Each computes the same
//! integers on every [`Isa`], so the choice changes a result's cost and
//! never the result. A new tier (AVX-512 VNNI, NEON) is one more variant
//! and one more arm in each kernel.
//!
//! `Avx2` is `#[non_exhaustive]`, so only this crate can construct it, and
//! it does so only after runtime detection: a kernel that matches
//! `Isa::Avx2 { .. }` may run AVX2 code. Outside this crate the variant
//! cannot be named as a value:
//!
//! ```compile_fail
//! let isa = diffy_tensor::Isa::Avx2;
//! ```

use std::sync::OnceLock;

/// An instruction set a SIMD kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable Rust, any target.
    Portable,
    /// AVX2 on x86-64. Only constructed after runtime detection; other
    /// crates match it as `Isa::Avx2 { .. }`.
    #[cfg(target_arch = "x86_64")]
    #[non_exhaustive]
    Avx2,
}

impl Isa {
    /// Every instruction set this CPU supports: [`Isa::Portable`] first
    /// and the fastest last. Asked of the CPU exactly once.
    pub fn available() -> &'static [Isa] {
        static AVAILABLE: OnceLock<Vec<Isa>> = OnceLock::new();
        AVAILABLE.get_or_init(|| {
            #[allow(unused_mut)] // only x86-64 has a second tier
            let mut isas = vec![Isa::Portable];
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            isas
        })
    }

    /// The fastest instruction set this CPU supports: the one every
    /// kernel runs unless a caller names another.
    pub fn detect() -> Isa {
        *Self::available()
            .last()
            .expect("the portable ISA is always available")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_first_and_the_detected_isa_last() {
        let isas = Isa::available();
        assert_eq!(isas[0], Isa::Portable);
        assert_eq!(isas.last(), Some(&Isa::detect()));
        for (i, a) in isas.iter().enumerate() {
            assert!(!isas[i + 1..].contains(a), "{a:?} listed twice");
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            isas.contains(&Isa::Avx2),
            std::is_x86_feature_detected!("avx2")
        );
    }
}
