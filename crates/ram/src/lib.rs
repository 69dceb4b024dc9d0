//! Cycle-accurate RAM simulator with functional fault injection.
//!
//! The PRT paper evaluates pseudo-ring testing against the *functional*
//! memory fault models of van de Goor's "Testing Semiconductor Memories"
//! (its reference \[1\]): stuck-at, transition, coupling, address-decoder and
//! read/write-logic faults. This crate is the substitute for the physical
//! SRAM the authors had: a simulator whose observable behaviour under each
//! fault model matches the textbook definitions, with the exact semantics
//! documented on each [`FaultKind`] variant.
//!
//! # Architecture
//!
//! * [`Geometry`] — `n` cells of `m` bits (bit-oriented memory is `m = 1`).
//! * [`Ram`] — the device: storage + [`FaultBank`] + address decoder +
//!   per-port sense amplifiers + [`AccessStats`] (operation and cycle
//!   counts, which is how the paper's `3n` vs `2n` complexity claims are
//!   measured rather than asserted).
//! * Multi-port access happens through [`Ram::cycle`]: one *cycle* carries
//!   up to `P` simultaneous port operations, with read-before-write
//!   semantics and explicit conflict errors.
//! * [`universe`] — enumerators for exhaustive fault universes, used by the
//!   coverage experiments (E3/E4/E10).
//! * [`prog`] — the compiled memory-test program IR ([`TestProgram`]): a
//!   flat [`MemOp`] sequence plus one allocation-free interpreter that the
//!   March/π/PRT/bit-plane compilers target, so fault-simulation campaigns
//!   pay notation interpretation once instead of once per trial.
//!
//! # Example
//!
//! ```
//! use prt_ram::{FaultKind, Geometry, Ram};
//!
//! // An 8-cell bit-oriented memory with a stuck-at-0 fault in cell 3.
//! let mut ram = Ram::new(Geometry::bom(8));
//! ram.inject(FaultKind::StuckAt { cell: 3, bit: 0, value: 0 })?;
//! ram.write(3, 1);
//! assert_eq!(ram.read(3), 0); // the write could not flip the cell
//! # Ok::<(), prt_ram::RamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod error;
pub mod fault;
pub mod geometry;
pub mod memory;
pub mod prog;
pub mod rng;
pub mod slice;
pub mod stats;
pub mod topology;
pub mod universe;

pub use batch::{lane_word, LaneChunk, LaneFaultBank, LaneRam, LANES};
pub use error::RamError;
pub use fault::{CouplingTrigger, FaultBank, FaultKind};
pub use geometry::Geometry;
pub use memory::{MemoryDevice, PortOp, Ram, ReadWired, MAX_PORTS};
pub use prog::{Execution, MemOp, OpMismatch, ProgramBuilder, SlotOp, TestProgram, ACC_LANES};
pub use rng::SplitMix64;
pub use slice::{
    fault_cells, fault_locality_key, ActiveSet, ActivityIndex, FULL_PASS_ACTIVE_FRACTION,
};
pub use stats::AccessStats;
pub use topology::{Layout, Scrambler, Topology, TopologyStage};
pub use universe::{FaultUniverse, LazyUniverse, UniverseSpec};
