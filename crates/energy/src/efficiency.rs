//! Off-chip energy.
//!
//! The paper's Table VI derives energy efficiency as
//! `(speedup) / (power ratio)` — an architecture that is 7.1× faster at
//! 3.9× the power is 1.83× more energy efficient — and `tab06_power`
//! takes that ratio from the measured speedups. The table deliberately
//! excludes DRAM energy ("these measurements ignore the off-chip traffic
//! reduction achieved by Diffy"); this module prices it.

/// DRAM access energy per byte, 65 nm-era DDR interface (~150 pJ/byte
/// including I/O) — roughly two orders of magnitude above on-chip SRAM,
/// as the paper asserts.
pub const DRAM_PJ_PER_BYTE: f64 = 150.0;

/// Off-chip transfer energy in joules.
pub fn offchip_energy_joules(bytes: u64) -> f64 {
    bytes as f64 * DRAM_PJ_PER_BYTE * 1e-12
}
