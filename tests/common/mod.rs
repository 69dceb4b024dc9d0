//! The shared differential harness of the engine-equivalence suites
//! (`tests/batch.rs`, `tests/slicing.rs`, `tests/topology.rs` and the
//! lane-width resume case of `tests/resilience.rs`).
//!
//! Four pieces, each used by every suite:
//!
//! * [`engines`] — the campaign engine settings (scalar, auto, forced
//!   full, forced sliced) × lane width × worker threads, mapped onto the
//!   campaign's own setters;
//! * [`programs`] — the compiled test families under test (March, the
//!   multi-background March bank, π, PRT schemes, bit-plane schemes);
//! * [`universes`] — the fault universes (the mixed universe under the
//!   identity or a generated topology, and the auto engine's dense,
//!   sparse and mixed universes);
//! * [`compare`] — one comparator each for verdicts plus coverage
//!   reports, dictionary observations, and checkpoint resume.
//!
//! A new engine setting registers once in [`engines`] and every sweep
//! holds it to the scalar oracle.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

pub mod compare;
pub mod engines;
pub mod programs;
pub mod universes;
