//! # gm-designs — benchmark designs for the GoldMine reproduction
//!
//! Every RTL design the paper's experiments touch, as parseable Verilog
//! sources plus convenience constructors:
//!
//! * the paper's own blocks: [`cex_small`], [`arbiter2`] (the §6 RTL
//!   verbatim), [`arbiter4`];
//! * Rigel-like pipeline stages with the paper's signal names:
//!   [`fetch_stage`], [`decode_stage`], [`wb_stage`];
//! * ITC'99-style blocks: [`b01`], [`b02`], [`b09`] (re-implemented from
//!   the published descriptions) and [`b12_lite`], [`b17_lite`],
//!   [`b18_lite`] (scaled structural analogues of the large benchmarks —
//!   the doc comments in [`sources`] hold the substitution notes).
//!
//! [`catalog`] enumerates everything with per-design mining defaults, so
//! the experiment harness can sweep the whole set.

#![warn(missing_docs)]

mod builders;
pub mod sources;

pub use builders::arbiter2_builder;

use gm_rtl::{parse_verilog, Module};

/// Metadata for one benchmark design.
#[derive(Clone, Copy, Debug)]
pub struct DesignInfo {
    /// Design name (also the Verilog module name).
    pub name: &'static str,
    /// The Verilog source.
    pub source: &'static str,
    /// Suggested mining window length for the refinement engine.
    pub window: u32,
    /// Whether the design is sequential (has state).
    pub sequential: bool,
    /// One-line description.
    pub description: &'static str,
}

impl DesignInfo {
    /// Parses the design.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to parse — a bug in this
    /// crate, guarded by tests.
    pub fn module(&self) -> Module {
        parse_verilog(self.source).expect("bundled design parses")
    }
}

/// All bundled designs with their mining defaults.
pub fn catalog() -> Vec<DesignInfo> {
    vec![
        DesignInfo {
            name: "cex_small",
            source: sources::CEX_SMALL,
            window: 0,
            sequential: false,
            description: "small combinational example block (paper Fig. 2)",
        },
        DesignInfo {
            name: "arbiter2",
            source: sources::ARBITER2,
            window: 1,
            sequential: true,
            description: "two-port round-robin arbiter (paper §6 RTL)",
        },
        DesignInfo {
            name: "arbiter4",
            source: sources::ARBITER4,
            window: 1,
            sequential: true,
            description: "four-port rotating-priority arbiter with more state",
        },
        DesignInfo {
            name: "fetch_stage",
            source: sources::FETCH_STAGE,
            window: 1,
            sequential: true,
            description: "Rigel-like instruction fetch stage",
        },
        DesignInfo {
            name: "decode_stage",
            source: sources::DECODE_STAGE,
            window: 0,
            sequential: false,
            description: "Rigel-like instruction decode stage",
        },
        DesignInfo {
            name: "wb_stage",
            source: sources::WB_STAGE,
            window: 0,
            sequential: false,
            description: "Rigel-like writeback stage",
        },
        DesignInfo {
            name: "b01",
            source: sources::B01,
            window: 1,
            sequential: true,
            description: "ITC'99 b01-style serial flow comparator FSM",
        },
        DesignInfo {
            name: "b02",
            source: sources::B02,
            window: 1,
            sequential: true,
            description: "ITC'99 b02-style BCD recognizer FSM",
        },
        DesignInfo {
            name: "b09",
            source: sources::B09,
            window: 1,
            sequential: true,
            description: "ITC'99 b09-style serial converter",
        },
        DesignInfo {
            name: "b12_lite",
            source: sources::B12_LITE,
            window: 1,
            sequential: true,
            description: "scaled b12-style game controller (FSM + LFSR + counter)",
        },
        DesignInfo {
            name: "b17_lite",
            source: sources::B17_LITE,
            window: 1,
            sequential: true,
            description: "scaled b17-style control/datapath block",
        },
        DesignInfo {
            name: "b18_lite",
            source: sources::B18_LITE,
            window: 1,
            sequential: true,
            description: "scaled b18-style two-unit bus block",
        },
    ]
}

/// Looks a bundled design up by name.
pub fn by_name(name: &str) -> Option<DesignInfo> {
    catalog().into_iter().find(|d| d.name == name)
}

macro_rules! design_fn {
    ($(#[$doc:meta])* $fn_name:ident, $src:ident) => {
        $(#[$doc])*
        pub fn $fn_name() -> Module {
            parse_verilog(sources::$src).expect("bundled design parses")
        }
    };
}

design_fn!(
    /// The paper's small combinational example block.
    cex_small,
    CEX_SMALL
);
design_fn!(
    /// The paper's two-port arbiter (§6 RTL, verbatim).
    arbiter2,
    ARBITER2
);
design_fn!(
    /// The four-port arbiter with rotating priority.
    arbiter4,
    ARBITER4
);
design_fn!(
    /// The Rigel-like fetch stage.
    fetch_stage,
    FETCH_STAGE
);
design_fn!(
    /// The Rigel-like decode stage.
    decode_stage,
    DECODE_STAGE
);
design_fn!(
    /// The Rigel-like writeback stage.
    wb_stage,
    WB_STAGE
);
design_fn!(
    /// The b01-style serial flow comparator.
    b01,
    B01
);
design_fn!(
    /// The b02-style BCD recognizer.
    b02,
    B02
);
design_fn!(
    /// The b09-style serial converter.
    b09,
    B09
);
design_fn!(
    /// The scaled b12-style game controller.
    b12_lite,
    B12_LITE
);
design_fn!(
    /// The scaled b17-style block.
    b17_lite,
    B17_LITE
);
design_fn!(
    /// The scaled b18-style two-unit bus block.
    b18_lite,
    B18_LITE
);
