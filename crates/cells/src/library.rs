//! Standard-cell library model.
//!
//! The paper synthesised all circuits with Synopsys Design Compiler onto a
//! UMC 0.13 µm standard-cell library and reported cell area (µm²) and
//! critical-path delay (ns). Neither tool nor library is redistributable,
//! so this module models a synthetic library with areas and delays chosen
//! at typical published 0.13 µm magnitudes. Absolute numbers therefore
//! differ from the paper; *ratios between architectures* — which is what
//! the paper's Table 1 argues about — are the reproduction target.

use std::collections::BTreeMap;
use std::fmt;

/// The cell types known to the technology mapper.
///
/// `FaSum`/`FaCarry` (and the half-adder pair) model the two outputs of a
/// compound full-adder macro: their areas *sum* to the macro's area and
/// each carries its own pin-to-pin delay. Mapping onto these is what makes
/// compressor-tree and DesignWare-style architectures denser than discrete
/// XOR/MAJ implementations, as observed in the paper's counter and adder
/// rows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer.
    Mux2,
    /// 3-input majority gate.
    Maj3,
    /// Sum output of a full-adder macro.
    FaSum,
    /// Carry output of a full-adder macro.
    FaCarry,
    /// Sum output of a half-adder macro.
    HaSum,
    /// Carry output of a half-adder macro.
    HaCarry,
    /// Constant tie cell.
    Tie,
}

impl CellKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [CellKind; 14] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Maj3,
        CellKind::FaSum,
        CellKind::FaCarry,
        CellKind::HaSum,
        CellKind::HaCarry,
        CellKind::Tie,
    ];
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inv => "INV",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Maj3 => "MAJ3",
            CellKind::FaSum => "FA.S",
            CellKind::FaCarry => "FA.CO",
            CellKind::HaSum => "HA.S",
            CellKind::HaCarry => "HA.CO",
            CellKind::Tie => "TIE",
        };
        write!(f, "{s}")
    }
}

/// Area and timing of one library cell (or one output of a macro).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Cell area in µm² (for macros, this output's share of the macro).
    pub area_um2: f64,
    /// Intrinsic pin-to-pin delay in ns at fan-out 1.
    pub delay_ns: f64,
    /// Additional delay in ns per fan-out beyond the first (load model).
    pub load_ns_per_fanout: f64,
}

/// A named collection of cells.
#[derive(Clone, Debug)]
pub struct CellLibrary {
    name: String,
    cells: BTreeMap<CellKind, Cell>,
}

impl CellLibrary {
    /// A synthetic 0.13 µm-class library with typical relative cell
    /// strengths (see module docs for the calibration caveat).
    pub fn umc130() -> Self {
        let mut cells = BTreeMap::new();
        let mut add = |k: CellKind, area: f64, delay: f64, load: f64| {
            cells.insert(
                k,
                Cell {
                    area_um2: area,
                    delay_ns: delay,
                    load_ns_per_fanout: load,
                },
            );
        };
        add(CellKind::Inv, 3.2, 0.022, 0.009);
        add(CellKind::Nand2, 4.3, 0.032, 0.011);
        add(CellKind::Nor2, 4.3, 0.038, 0.013);
        add(CellKind::And2, 5.3, 0.052, 0.011);
        add(CellKind::Or2, 5.3, 0.058, 0.012);
        add(CellKind::Xor2, 8.6, 0.072, 0.014);
        add(CellKind::Xnor2, 8.6, 0.072, 0.014);
        add(CellKind::Mux2, 8.6, 0.062, 0.013);
        add(CellKind::Maj3, 10.7, 0.078, 0.014);
        // Full-adder macro: 23.5 µm² total, carry faster than sum.
        add(CellKind::FaSum, 14.0, 0.105, 0.014);
        add(CellKind::FaCarry, 9.5, 0.080, 0.013);
        // Half-adder macro: 11.0 µm² total.
        add(CellKind::HaSum, 7.0, 0.070, 0.013);
        add(CellKind::HaCarry, 4.0, 0.050, 0.011);
        add(CellKind::Tie, 1.1, 0.0, 0.0);
        CellLibrary {
            name: "umc130-like".to_owned(),
            cells,
        }
    }

    /// A unit library (area 1, delay 1, no load term) for ablations and
    /// depth-style reasoning.
    pub fn unit() -> Self {
        let cells = CellKind::ALL
            .iter()
            .map(|&k| {
                (
                    k,
                    Cell {
                        area_um2: 1.0,
                        delay_ns: 1.0,
                        load_ns_per_fanout: 0.0,
                    },
                )
            })
            .collect();
        CellLibrary {
            name: "unit".to_owned(),
            cells,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if the library lacks `kind` (both built-in libraries are
    /// complete).
    pub fn cell(&self, kind: CellKind) -> Cell {
        self.cells[&kind]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libraries_are_complete() {
        for lib in [CellLibrary::umc130(), CellLibrary::unit()] {
            for k in CellKind::ALL {
                let c = lib.cell(k);
                assert!(c.area_um2 >= 0.0);
                assert!(c.delay_ns >= 0.0);
            }
        }
    }

    #[test]
    fn fa_macro_beats_discrete_in_area() {
        let lib = CellLibrary::umc130();
        let fa = lib.cell(CellKind::FaSum).area_um2 + lib.cell(CellKind::FaCarry).area_um2;
        let discrete = 2.0 * lib.cell(CellKind::Xor2).area_um2 + lib.cell(CellKind::Maj3).area_um2;
        assert!(
            fa < discrete,
            "the FA macro must be denser than XOR+XOR+MAJ ({fa} vs {discrete})"
        );
    }

    #[test]
    fn nand_is_cheaper_than_and() {
        let lib = CellLibrary::umc130();
        assert!(lib.cell(CellKind::Nand2).area_um2 < lib.cell(CellKind::And2).area_um2);
        assert!(lib.cell(CellKind::Nand2).delay_ns < lib.cell(CellKind::And2).delay_ns);
    }

    #[test]
    fn display_names() {
        assert_eq!(CellKind::Nand2.to_string(), "NAND2");
        assert_eq!(CellKind::FaCarry.to_string(), "FA.CO");
    }
}
