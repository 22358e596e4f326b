//! Accelerator configurations (Table IV).

use std::fmt;

/// Tile-level configuration shared by VAA, PRA and Diffy.
///
/// The paper's default (Table IV): 4 tiles, 16 filters per tile, 16
/// activation lanes per filter and (for the term-serial designs) 16
/// concurrent windows — 4 × 16 × 16 = 1K equivalent 16×16-bit MACs per
/// cycle at 1 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Number of tiles.
    pub tiles: usize,
    /// Filters processed concurrently per tile (IP/SIP rows).
    pub filters_per_tile: usize,
    /// Activation lanes per filter (brick size).
    pub lanes: usize,
    /// Windows processed concurrently per tile by the term-serial designs
    /// (PRA's pallet width; VAA ignores this).
    pub windows: usize,
    /// Cross-lane synchronization group: the `x` of the paper's `T_x`
    /// tiling study (Fig. 16). Lanes within a group advance in lockstep;
    /// `1` removes cross-lane synchronization entirely.
    pub terms_per_group: usize,
    /// Clock frequency in GHz (1.0 in the paper, set by CACTI's SRAM
    /// estimate).
    pub frequency_ghz: f64,
}

impl AcceleratorConfig {
    /// The paper's default configuration (Table IV).
    pub fn table4() -> Self {
        Self {
            tiles: 4,
            filters_per_tile: 16,
            lanes: 16,
            windows: 16,
            terms_per_group: 16,
            frequency_ghz: 1.0,
        }
    }

    /// Same configuration with a different tile count (the scaling study
    /// of Fig. 18).
    pub fn with_tiles(mut self, tiles: usize) -> Self {
        assert!(tiles > 0, "need at least one tile");
        self.tiles = tiles;
        self
    }

    /// Same configuration with a different synchronization group (the
    /// `T_x` study of Fig. 16).
    pub fn with_terms_per_group(mut self, x: usize) -> Self {
        assert!(x > 0 && x <= self.lanes, "T_x must be in 1..=lanes");
        self.terms_per_group = x;
        self
    }

    /// Peak equivalent 16×16-bit MACs per cycle (`tiles × filters ×
    /// lanes`).
    pub fn peak_macs_per_cycle(&self) -> u64 {
        (self.tiles * self.filters_per_tile * self.lanes) as u64
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::table4()
    }
}

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}T x {}F x {}L (x{}W, T{}) @ {} GHz",
            self.tiles,
            self.filters_per_tile,
            self.lanes,
            self.windows,
            self.terms_per_group,
            self.frequency_ghz
        )
    }
}

/// The modelled architectures, for labelling results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Value-agnostic baseline.
    Vaa,
    /// Bit-Pragmatic, raw values.
    Pra,
    /// Differential-convolution accelerator.
    Diffy,
    /// Sparse CNN accelerator.
    Scnn,
}

impl Architecture {
    /// Every modelled architecture.
    pub const ALL: [Architecture; 4] =
        [Architecture::Vaa, Architecture::Pra, Architecture::Diffy, Architecture::Scnn];

    /// The architecture a request or command prices unless it names one.
    pub const DEFAULT: Architecture = Architecture::Diffy;

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::Vaa => "VAA",
            Architecture::Pra => "PRA",
            Architecture::Diffy => "Diffy",
            Architecture::Scnn => "SCNN",
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_is_one_kilo_mac() {
        let c = AcceleratorConfig::table4();
        assert_eq!(c.peak_macs_per_cycle(), 1024);
    }

    #[test]
    fn builders_adjust_fields() {
        let c = AcceleratorConfig::table4().with_tiles(32).with_terms_per_group(1);
        assert_eq!(c.tiles, 32);
        assert_eq!(c.terms_per_group, 1);
        assert_eq!(c.peak_macs_per_cycle(), 32 * 16 * 16);
    }

    #[test]
    #[should_panic(expected = "T_x")]
    fn rejects_oversized_group() {
        let _ = AcceleratorConfig::table4().with_terms_per_group(17);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Architecture::Diffy.to_string(), "Diffy");
        let c = AcceleratorConfig::table4();
        assert!(c.to_string().contains("4T x 16F"));
    }
}
