//! Universe generators: the fault lists the engines sweep.

use prt_suite::prelude::*;

/// A bit-oriented array of `n` cells, or a 4-bit word-oriented one.
pub fn geometry(n: usize, wom: bool) -> Geometry {
    if wom {
        Geometry::wom(n, 4).expect("geometry")
    } else {
        Geometry::bom(n)
    }
}

/// The mixed universe: every modelled family — the single-cell families
/// with tight spans, radius-2 couplings (intra-word too on word
/// geometries) whose spans straddle aggressor/victim windows, and the
/// decoder, stuck-open and read/write-logic families with always-active
/// footprints. With `scramble`, it is enumerated over the physical
/// coordinates of the topology generated from that seed and mapped back
/// to logical addresses; without, under the identity topology.
pub fn mixed(geom: Geometry, scramble: Option<u64>) -> FaultUniverse {
    let spec = UniverseSpec {
        coupling_radius: Some(2),
        intra_word: geom.width() > 1,
        ..UniverseSpec::full()
    };
    match scramble {
        Some(seed) => {
            FaultUniverse::enumerate_with(geom, &spec, Topology::generate(geom.cells(), seed))
        }
        None => FaultUniverse::enumerate(geom, &spec),
    }
}

/// `u`'s faults in a seeded random order: every lane chunk changes
/// composition.
pub fn shuffled(u: &FaultUniverse, seed: u64) -> Vec<FaultKind> {
    let mut faults = u.faults().to_vec();
    SplitMix64::new(seed).shuffle(&mut faults);
    faults
}

/// A universe for the auto engine, with the branches of its per-chunk
/// rule the universe is built to take under March C-.
pub struct AutoUniverse {
    pub label: &'static str,
    pub universe: FaultUniverse,
    /// Some chunk prefers the full pass.
    pub dense: bool,
    /// Some chunk prefers the sliced pass.
    pub sparse: bool,
}

/// The auto engine's dense, sparse and mixed universes; the sparse one
/// on `sparse_cells` cells.
pub fn auto_engine(sparse_cells: usize) -> [AutoUniverse; 3] {
    [
        // Every chunk spans (nearly) every cell: always the full pass.
        AutoUniverse {
            label: "dense",
            universe: FaultUniverse::enumerate(Geometry::bom(16), &UniverseSpec::paper_claim()),
            dense: true,
            sparse: false,
        },
        // Single-cell faults on a large array: always the sliced pass.
        AutoUniverse {
            label: "sparse",
            universe: FaultUniverse::enumerate(
                Geometry::bom(sparse_cells),
                &UniverseSpec::single_cell(),
            ),
            dense: false,
            sparse: true,
        },
        // SAF/TF/CFin chunks span the array, radius-2 CFid/CFst chunks
        // only half of it: one campaign takes both branches.
        AutoUniverse { label: "mixed", universe: auto_mixed(), dense: true, sparse: true },
    ]
}

/// The auto engine's mixed universe alone.
pub fn auto_mixed() -> FaultUniverse {
    FaultUniverse::enumerate(
        Geometry::bom(64),
        &UniverseSpec { coupling_radius: Some(2), ..UniverseSpec::paper_claim() },
    )
}
