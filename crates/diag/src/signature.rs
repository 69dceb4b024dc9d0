//! Response compaction: MISR signatures of compiled-program runs.
//!
//! A production BIST does not ship a per-read comparator trace to the
//! tester — it compacts the response stream into a `w`-bit [`Misr`]
//! signature and compares *once*. This module is that compaction path for
//! any compiled [`TestProgram`]: the interpreter's checked-read
//! observations ([`TestProgram::execute_observed`]) feed the register, and
//! the fault-free **reference signature** comes straight from the
//! program's baked-in expectations ([`TestProgram::expected_responses`]) —
//! computed once at configuration time, no golden device run needed.

use crate::DiagError;
use prt_gf::Poly2;
use prt_lfsr::Misr;
use prt_ram::{
    lane_word, ActiveSet, ActivityIndex, Execution, LaneChunk, LaneRam, Ram, RamError, TestProgram,
};
use std::sync::Arc;

/// One observed run: the compacted signature plus the full channel counts
/// of the execution that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The compacted MISR signature of the checked-read response stream.
    pub signature: u64,
    /// The execution summary (mismatch counts, ops, cycles).
    pub exec: Execution,
}

impl Observation {
    /// `true` when the raw response stream differed from the fault-free
    /// one (some checked read mismatched) — detection at *comparator*
    /// resolution, before compaction.
    pub fn stream_differs(&self) -> bool {
        self.exec.detected()
    }
}

/// Dictionary-build checkpoints: one observation per simulated fault —
/// signature, channel counts and the optional first mismatch, flattened
/// to ten words ([`FaultDictionary::build_with_checkpoint`] resumes an
/// interrupted universe sweep from these).
///
/// [`FaultDictionary::build_with_checkpoint`]: crate::FaultDictionary::build_with_checkpoint
impl prt_sim::checkpoint::CheckpointRecord for Observation {
    const KIND: u32 = 2;
    const WORDS: usize = 10;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.signature);
        out.push(self.exec.mismatches);
        out.push(self.exec.stale_errors);
        match &self.exec.first_mismatch {
            Some(m) => {
                out.push(1);
                out.push(m.op_index as u64);
                out.push(m.addr as u64);
                out.push(m.expected);
                out.push(m.got);
            }
            None => out.extend_from_slice(&[0; 5]),
        }
        out.push(self.exec.ops);
        out.push(self.exec.cycles);
    }

    fn decode(words: &[u64]) -> Option<Observation> {
        let [signature, mismatches, stale_errors, has_first, op_index, addr, expected, got, ops, cycles] =
            *words
        else {
            return None;
        };
        let first_mismatch = match has_first {
            0 if (op_index, addr, expected, got) == (0, 0, 0, 0) => None,
            1 => Some(prt_ram::OpMismatch {
                op_index: usize::try_from(op_index).ok()?,
                addr: usize::try_from(addr).ok()?,
                expected,
                got,
            }),
            _ => return None,
        };
        Some(Observation {
            signature,
            exec: Execution { mismatches, stale_errors, first_mismatch, ops, cycles },
        })
    }
}

/// Compacts every checked-read response of one compiled program through a
/// MISR, with the fault-free reference signature precomputed from the
/// program's expectations.
///
/// # Example
///
/// ```
/// use prt_diag::SignatureCollector;
/// use prt_gf::Poly2;
/// use prt_march::{library, Executor};
/// use prt_ram::{FaultKind, Geometry, Ram};
///
/// let geom = Geometry::bom(16);
/// let program = Executor::new().compile(&library::march_diag(), geom);
/// let collector = SignatureCollector::new(&program, Poly2::from_bits(0b1_0001_1011))?;
///
/// let mut good = Ram::new(geom);
/// assert_eq!(collector.collect(&program, &mut good)?.signature, collector.reference());
///
/// let mut bad = Ram::new(geom);
/// bad.inject(FaultKind::StuckAt { cell: 9, bit: 0, value: 1 })?;
/// assert_ne!(collector.collect(&program, &mut bad)?.signature, collector.reference());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SignatureCollector {
    poly: Poly2,
    width: u32,
    responses: u64,
    reference: u64,
    /// Activity index of the program the collector was built for — the
    /// batched path slices with it whenever it still matches the program
    /// handed to [`SignatureCollector::collect_batch`]. Shared with the
    /// program's own cache ([`TestProgram::activity_index`]).
    index: Arc<ActivityIndex>,
}

impl SignatureCollector {
    /// Builds a collector for `program` over the MISR polynomial `poly`:
    /// the reference signature is the compaction of
    /// [`TestProgram::expected_responses`].
    ///
    /// # Errors
    ///
    /// [`DiagError::Lfsr`] for a degenerate polynomial.
    pub fn new(program: &TestProgram, poly: Poly2) -> Result<SignatureCollector, DiagError> {
        let mut reference = Misr::new(poly)?;
        for expect in program.expected_responses() {
            reference.absorb(expect);
        }
        Ok(SignatureCollector {
            poly,
            width: reference.width(),
            responses: reference.absorbed(),
            reference: reference.signature(),
            index: program.activity_index(),
        })
    }

    /// The MISR polynomial the collector compacts with.
    pub fn poly(&self) -> Poly2 {
        self.poly
    }

    /// Register width `w`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Checked-read responses one run absorbs.
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// The fault-free reference signature.
    pub fn reference(&self) -> u64 {
        self.reference
    }

    /// The analytic aliasing bound `2⁻ʷ` — the probability a *random*
    /// error stream compacts to the reference ([`Misr::aliasing_probability`]).
    /// [`crate::FaultDictionary`] measures the actual rate over a fault
    /// universe against this bound.
    pub fn aliasing_bound(&self) -> f64 {
        (0.5f64).powi(self.width as i32)
    }

    /// Compacts an already-recorded response stream (e.g. one collected by
    /// a [`crate::Localizer`] probe) into its signature.
    pub fn compact(&self, stream: impl IntoIterator<Item = u64>) -> u64 {
        let mut misr = Misr::new(self.poly).expect("polynomial validated at construction");
        for v in stream {
            misr.absorb(v);
        }
        misr.signature()
    }

    /// Runs `program` on `ram` (no early exit, so the stream length is
    /// response-independent) and compacts the observed checked reads.
    ///
    /// # Errors
    ///
    /// Device errors from [`TestProgram::execute_observed`] (geometry
    /// mismatch, multi-port conflicts) — campaign builders map them to the
    /// escape convention.
    pub fn collect(&self, program: &TestProgram, ram: &mut Ram) -> Result<Observation, RamError> {
        let mut misr = Misr::new(self.poly).expect("polynomial validated at construction");
        let exec = program.execute_observed(ram, false, None, &mut |v| misr.absorb(v))?;
        Ok(Observation { signature: misr.signature(), exec })
    }

    /// The lane-batched form of [`SignatureCollector::collect`]: runs
    /// `program` once against every trial of a prepared [`LaneRam`]
    /// (lanes `0..k` injected, as `prt_sim::map_trials_batched` hands it
    /// over) and pushes one [`Observation`] per lane, in lane order. One
    /// MISR per lane absorbs that lane's slice of the observed planes, so
    /// each signature — and each execution summary — is **identical** to
    /// what [`SignatureCollector::collect`] returns for a scalar run of
    /// the same fault (property-tested in `tests/batch.rs`): the device
    /// pass is shared across the chunk's trials, the compaction is not.
    ///
    /// Lanes frozen by a multi-port write-write conflict
    /// ([`LaneRam::errored_lanes`]) receive the scalar error-as-escape
    /// observation — the reference signature with a default execution —
    /// exactly what a campaign's escape closure substitutes when the
    /// scalar [`SignatureCollector::collect`] returns the device error.
    ///
    /// # Panics
    ///
    /// Panics when the active lanes are not the contiguous `0..k` prefix
    /// the batched campaign engine guarantees, and propagates the loud
    /// [`TestProgram::execute_batch_observed`] configuration errors
    /// (port shortfall, geometry mismatch).
    pub fn collect_batch<const K: usize>(
        &self,
        program: &TestProgram,
        ram: &mut LaneRam<K>,
        out: &mut Vec<Observation>,
    ) {
        let k = ram.active_lanes().count_ones() as usize;
        assert_eq!(
            ram.active_lanes(),
            LaneChunk::prefix(k),
            "batched collection expects trials in lanes 0..k"
        );
        let mut misrs: Vec<Misr> = (0..k)
            .map(|_| Misr::new(self.poly).expect("polynomial validated at construction"))
            .collect();
        let mut execs = vec![Execution::default(); LaneRam::<K>::LANES];
        let mut observer = |planes: &[LaneChunk<K>]| {
            for (lane, misr) in misrs.iter_mut().enumerate() {
                misr.absorb(lane_word(planes, lane));
            }
        };
        // Activity slicing when the chunk is sparse enough to gain from it
        // (the campaign engine's per-chunk rule): only the ops whose
        // address intersects the chunk's span union run on the device;
        // skipped checked reads absorb their precomputed fault-free
        // responses — the signatures are bit-identical to the full pass.
        let mut active = ActiveSet::new();
        let chunk = ram.fault_bank().faults().iter().map(|(fault, _)| fault);
        let sliced = self.index.matches(program) && !active.prefers_full_pass(&self.index, chunk);
        if sliced {
            active.finalize(&self.index);
        }
        let slice = sliced.then_some((&*self.index, &active));
        let _ = program.execute_batch_observed(ram, slice, &mut execs, &mut observer);
        let errored = ram.errored_lanes();
        for (lane, misr) in misrs.iter().enumerate() {
            if errored.get(lane) {
                out.push(Observation { signature: self.reference, exec: Execution::default() });
            } else {
                out.push(Observation { signature: misr.signature(), exec: execs[lane] });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_march::{library, Executor};
    use prt_ram::{FaultKind, Geometry};

    fn poly8() -> Poly2 {
        Poly2::from_bits(0b1_0001_1011)
    }

    #[test]
    fn reference_equals_fault_free_collection() {
        for bg in [0u64, 1] {
            let geom = Geometry::bom(12);
            let program = Executor::new().with_background(bg).compile(&library::march_diag(), geom);
            let c = SignatureCollector::new(&program, poly8()).unwrap();
            let mut ram = Ram::new(geom);
            let obs = c.collect(&program, &mut ram).unwrap();
            assert!(!obs.stream_differs());
            assert_eq!(obs.signature, c.reference(), "bg={bg}");
            assert_eq!(c.responses(), 9 * 12, "March C-D has 9 reads per cell");
        }
    }

    #[test]
    fn faults_perturb_the_signature() {
        let geom = Geometry::bom(12);
        let program = Executor::new().compile(&library::march_diag(), geom);
        let c = SignatureCollector::new(&program, poly8()).unwrap();
        for cell in 0..12 {
            let mut ram = Ram::new(geom);
            ram.inject(FaultKind::StuckAt { cell, bit: 0, value: 1 }).unwrap();
            let obs = c.collect(&program, &mut ram).unwrap();
            assert!(obs.stream_differs());
            assert_ne!(obs.signature, c.reference(), "SA1@{cell} aliased");
        }
    }

    #[test]
    fn aliasing_bound_follows_width() {
        let geom = Geometry::bom(4);
        let program = Executor::new().compile(&library::mats_plus(), geom);
        let c = SignatureCollector::new(&program, poly8()).unwrap();
        assert_eq!(c.width(), 8);
        assert!((c.aliasing_bound() - 1.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_polynomial_rejected() {
        let geom = Geometry::bom(4);
        let program = Executor::new().compile(&library::mats(), geom);
        assert!(matches!(SignatureCollector::new(&program, Poly2::ONE), Err(DiagError::Lfsr(_))));
    }
}
