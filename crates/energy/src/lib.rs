//! Analytical power and area models (Tables VI and VII).
//!
//! The paper obtains power and area from Verilog synthesis (Synopsys DC),
//! layout (Cadence Innovus, TSMC 65 nm) and CACTI for the SRAMs. None of
//! that flow is available here, so this crate substitutes a calibrated
//! analytical model (DESIGN.md §2.4): per-component constants chosen to
//! match the paper's published per-component breakdowns at the default
//! Table IV configuration, with first-order scaling in tile count and
//! SRAM capacity. The model then *derives* the totals that Tables VI and
//! VII normalize to VAA, and a change of tile count or AM size (Table VI
//! prices Diffy with a 512 KB AM) moves them the way the paper's numbers
//! move. Table VI's energy efficiency is not modelled here: `tab06_power`
//! divides the measured speedup over VAA by the power ratio.
//!
//! * [`components`] — per-component power/area breakdowns per
//!   architecture.
//! * [`efficiency`] — the off-chip energy model behind the paper's
//!   "off-chip accesses are two orders of magnitude more expensive"
//!   argument.


#![warn(missing_docs)]

pub mod components;
pub mod efficiency;

pub use components::{area_breakdown, power_breakdown, Breakdown};
pub use efficiency::offchip_energy_joules;
