//! Fault dictionaries: `signature → candidate fault set`.
//!
//! A tester that sees only a failing MISR signature must answer *which
//! fault, where* before a repair (row/column replacement) can be chosen.
//! The classical answer is a **fault dictionary**: simulate every fault of
//! the universe once at configuration time, record each one's signature,
//! and invert the map. This module builds that dictionary on `prt-sim`'s
//! pooled parallel engine ([`prt_sim::map_trials`] — one compiled-program
//! interpreter pass plus one MISR per trial, no per-trial allocation
//! beyond the observation record), and measures what analytic formulas
//! only bound:
//!
//! * **aliasing** — faults whose response stream differs from the
//!   fault-free one but whose compacted signature collides with the
//!   reference (invisible to a signature-only tester), measured against
//!   the `2⁻ʷ` bound of [`prt_lfsr::Misr::aliasing_probability`],
//! * **ambiguity** — how many faults share one failing signature (the
//!   candidate set a [`crate::Localizer`] then narrows adaptively).
//!
//! For `n ≥ 2¹⁰` arrays a full-signature dictionary carries one `w`-bit
//! key per universe fault; [`FaultDictionary::compress`] rebuilds the
//! inversion on **k-bit signature prefixes** instead — the tester stores
//! and compares only `k` bits per entry — and re-measures what the
//! truncation costs: aliasing can only grow and candidate sets can only
//! coarsen, both reported by the compressed dictionary's
//! [`DictionaryStats`] against the full-signature baseline.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use crate::{DiagError, Observation, SignatureCollector};
use prt_gf::Poly2;
use prt_ram::{FaultKind, FaultUniverse, Geometry, Ram, TestProgram, Topology};
use prt_sim::checkpoint::{self, FingerprintBuilder};
use prt_sim::{try_map_trials, try_map_trials_batched, CampaignError, Parallelism};

/// Aggregate dictionary statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DictionaryStats {
    /// Fault instances simulated.
    pub universe: usize,
    /// Faults whose raw response stream differed from the fault-free one
    /// (detectable by a per-read comparator).
    pub stream_detected: usize,
    /// Faults with a fault-free response stream (escapes of this program).
    pub escaped: usize,
    /// Stream-detected faults whose signature still equals the reference —
    /// losses to compaction, invisible to a signature-only tester.
    pub aliased: usize,
    /// Distinct failing signatures (dictionary keys).
    pub distinct_signatures: usize,
    /// Largest candidate set behind one failing signature.
    pub max_candidates: usize,
    /// Mean candidate-set size over failing signatures.
    pub mean_candidates: f64,
    /// Measured aliasing rate: `aliased / stream_detected`.
    pub measured_aliasing: f64,
    /// The analytic `2⁻ʷ` bound for comparison.
    pub analytic_aliasing_bound: f64,
}

/// A compiled `signature → candidate fault set` map over one fault
/// universe and one diagnostic program.
///
/// # Example
///
/// ```
/// use prt_diag::FaultDictionary;
/// use prt_gf::Poly2;
/// use prt_march::{library, Executor};
/// use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
/// use prt_sim::Parallelism;
///
/// let geom = Geometry::bom(8);
/// let universe = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
/// let program = Executor::new().compile(&library::march_diag(), geom);
/// let dict = FaultDictionary::build(
///     &universe,
///     &program,
///     Poly2::from_bits(0b1_0001_1011),
///     Parallelism::Auto,
/// )?;
/// assert_eq!(dict.stats().escaped, 0); // March C-D covers SAF+TF
/// # Ok::<(), prt_diag::DiagError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    geom: Geometry,
    /// Physical topology the fault universe was enumerated under
    /// (identity for plain universes). Fault coordinates are logical; the
    /// topology is what maps them back to array positions, and it is part
    /// of the dictionary fingerprint.
    topology: Topology,
    /// The program, fault list and per-fault observations are shared
    /// (`Arc`) between a dictionary and its prefix compressions — a
    /// [`FaultDictionary::compress`] sweep over several widths must not
    /// replicate the universe data the compression exists to shrink.
    program: Arc<TestProgram>,
    collector: SignatureCollector,
    faults: Arc<Vec<FaultKind>>,
    observations: Arc<Vec<Observation>>,
    buckets: HashMap<u64, Vec<usize>>,
    stats: DictionaryStats,
    /// `Some(k)`: keys are the low `k` bits of the signature
    /// ([`FaultDictionary::compress`]); `None`: full signatures.
    prefix_bits: Option<u32>,
}

/// Fingerprint of everything that determines a dictionary's observation
/// table: geometry, the physical [`Topology`] the universe was enumerated
/// under, the fault universe, the compiled diagnostic program and the
/// MISR polynomial. Parallelism is deliberately excluded — observations
/// are keyed by universe index, so a checkpoint resumes correctly at any
/// thread count.
fn dictionary_fingerprint(universe: &FaultUniverse, program: &TestProgram, poly: Poly2) -> u64 {
    fingerprint_parts(universe.geometry(), universe.topology(), universe.faults(), program, poly)
}

/// [`dictionary_fingerprint`] over the raw parts, so an already-built
/// dictionary (which owns its fault list) can re-derive its own
/// fingerprint for [`FaultDictionary::persist`].
///
/// The identity topology is hashed as the absence of the field, so
/// unscrambled dictionaries keep their pre-topology fingerprints (and
/// their [`crate::DictionaryStore`] cache files stay valid).
fn fingerprint_parts(
    geom: Geometry,
    topology: &Topology,
    faults: &[FaultKind],
    program: &TestProgram,
    poly: Poly2,
) -> u64 {
    let mut fp = FingerprintBuilder::new();
    fp.push_str("prt-diag/dictionary/v1");
    if !topology.is_identity() {
        fp.push_str("topology");
        fp.push_debug(topology);
    }
    fp.push_debug(&geom);
    fp.push_u64(faults.len() as u64);
    for fault in faults {
        fp.push_debug(fault);
    }
    fp.push_debug(program);
    fp.push_debug(&poly);
    fp.finish()
}

/// Routes a campaign-engine failure out of a dictionary build: checkpoint
/// errors are typed ([`DiagError::Checkpoint`]); anything else (a caught
/// trial panic, a configuration error the upfront asserts did not cover)
/// keeps the engine's loud legacy behavior.
fn surface_campaign_error(e: CampaignError) -> DiagError {
    match e {
        CampaignError::Checkpoint(c) => DiagError::Checkpoint(c),
        CampaignError::WorkerPanic { payload, .. } => std::panic::panic_any(payload),
        other => panic!("{other}"),
    }
}

/// The key function selecting the low `bits` bits of a signature.
fn prefix_key(bits: u32) -> impl Fn(u64) -> u64 {
    let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
    move |sig| sig & mask
}

/// Inverts `observations` into `key(signature) → candidate set` buckets
/// and measures aliasing/ambiguity under that key — shared by the
/// full-signature build and every prefix compression of it.
fn index_observations(
    observations: &[Observation],
    reference: u64,
    analytic_bound: f64,
    key: impl Fn(u64) -> u64,
) -> (HashMap<u64, Vec<usize>>, DictionaryStats) {
    let reference_key = key(reference);
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut stream_detected = 0usize;
    let mut aliased = 0usize;
    for (i, obs) in observations.iter().enumerate() {
        if obs.stream_differs() {
            stream_detected += 1;
            if key(obs.signature) == reference_key {
                aliased += 1;
            } else {
                buckets.entry(key(obs.signature)).or_default().push(i);
            }
        }
    }
    let distinct = buckets.len();
    let max_candidates = buckets.values().map(Vec::len).max().unwrap_or(0);
    let keyed: usize = buckets.values().map(Vec::len).sum();
    let stats = DictionaryStats {
        universe: observations.len(),
        stream_detected,
        escaped: observations.len() - stream_detected,
        aliased,
        distinct_signatures: distinct,
        max_candidates,
        mean_candidates: if distinct == 0 { 0.0 } else { keyed as f64 / distinct as f64 },
        measured_aliasing: if stream_detected == 0 {
            0.0
        } else {
            aliased as f64 / stream_detected as f64
        },
        analytic_aliasing_bound: analytic_bound,
    };
    (buckets, stats)
}

/// The escape observation substituted when a scalar trial's device
/// errors out: the reference signature with a default execution.
fn escape_observation(collector: &SignatureCollector) -> Observation {
    Observation { signature: collector.reference(), exec: Default::default() }
}

/// Lane-chunk words of a batched dictionary sweep: 8, the 512 lanes of
/// the default [`prt_sim::LaneWidth`].
const LANE_WORDS: usize = 8;

/// Observes every fault of `faults` through `program`: lane-batched when
/// asked for and the program batches, otherwise one scalar trial per
/// fault. A scalar trial whose device errors out yields
/// [`escape_observation`].
fn observe(
    collector: &SignatureCollector,
    program: &TestProgram,
    faults: &[FaultKind],
    parallelism: Parallelism,
    lane_batching: bool,
) -> Result<Vec<Observation>, CampaignError> {
    let geom = program.geometry();
    let scalar = |ram: &mut Ram| {
        collector.collect(program, ram).unwrap_or_else(|_| escape_observation(collector))
    };
    if lane_batching {
        try_map_trials_batched::<LANE_WORDS, _, _, _>(
            geom,
            program.ports(),
            faults,
            parallelism,
            |lanes, out| collector.collect_batch(program, lanes, out),
            |_, ram| scalar(ram),
        )
        .map(|(values, _degraded)| values)
    } else {
        try_map_trials(geom, program.ports(), faults.len(), parallelism, |i, ram| {
            ram.inject(faults[i].clone()).expect("enumerated faults are valid");
            scalar(ram)
        })
    }
}

/// The one dictionary sweep behind every build: observes the universe in
/// segments of `every` faults, each spooled to `path` when a checkpoint
/// `spool_to = Some((path, every))` is asked for, and resumes from a
/// compatible spool there. Without one the whole universe is one segment.
fn sweep(
    universe: &FaultUniverse,
    program: &TestProgram,
    poly: Poly2,
    parallelism: Parallelism,
    lane_batching: bool,
    spool_to: Option<(&Path, usize)>,
) -> Result<FaultDictionary, DiagError> {
    assert_eq!(
        universe.geometry(),
        program.geometry(),
        "dictionary universe and program geometries differ"
    );
    let collector = SignatureCollector::new(program, poly)?;
    let total = universe.len();
    let spool = spool_to.map(|(path, _)| (path, dictionary_fingerprint(universe, program, poly)));
    let mut observations: Vec<Observation> = match spool {
        Some((path, fp)) => checkpoint::load_records(path, fp, total)?.unwrap_or_default(),
        None => Vec::new(),
    };
    let every = spool_to.map_or(total, |(_, every)| every.max(1));
    while observations.len() < total {
        let end = (observations.len() + every).min(total);
        let segment = &universe.faults()[observations.len()..end];
        let attempt = observe(&collector, program, segment, parallelism, lane_batching)
            .map(|segment_obs| observations.extend(segment_obs));
        if let Some((path, fp)) = spool {
            // The completed prefix survives a failure too: a restart
            // resumes here.
            checkpoint::save_records(path, fp, total, &observations)?;
        }
        attempt.map_err(surface_campaign_error)?;
    }
    Ok(FaultDictionary::assemble(universe, program, collector, observations))
}

impl FaultDictionary {
    /// Simulates every fault of `universe` through `program`, compacting
    /// each trial's response stream with a MISR over `poly`, and inverts
    /// the signature map. A trial whose device errors out (e.g. a decoder
    /// fault conflicting on a multi-port cycle) counts as an escape with
    /// the reference signature — the campaign engine's error-as-escape
    /// convention.
    ///
    /// Every program — single- or multi-port — runs **lane-batched**: one
    /// interpreter pass simulates a whole lane chunk of trials
    /// ([`prt_sim::map_trials_batched`] +
    /// [`SignatureCollector::collect_batch`] at the default
    /// [`prt_sim::LaneWidth`]), with per-fault signatures and statistics identical
    /// to the scalar build ([`FaultDictionary::build_with_batching`] pins
    /// the scalar engine for differential tests and benchmarks).
    ///
    /// # Errors
    ///
    /// [`DiagError::Lfsr`] for a degenerate `poly`.
    ///
    /// # Panics
    ///
    /// Panics when `universe` and `program` disagree on geometry — a
    /// whole-dictionary configuration error, surfaced loudly like the
    /// campaign engine's runner checks.
    pub fn build(
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        parallelism: Parallelism,
    ) -> Result<FaultDictionary, DiagError> {
        FaultDictionary::build_with_batching(universe, program, poly, parallelism, true)
    }

    /// [`FaultDictionary::build`] with the lane-batched engine explicitly
    /// enabled or disabled — the dictionary counterpart of
    /// `Campaign::with_lane_batching(false)`, for differential testing
    /// and scalar-baseline benchmarks.
    ///
    /// # Errors
    ///
    /// As [`FaultDictionary::build`].
    pub fn build_with_batching(
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        parallelism: Parallelism,
        lane_batching: bool,
    ) -> Result<FaultDictionary, DiagError> {
        sweep(universe, program, poly, parallelism, lane_batching, None)
    }

    /// [`FaultDictionary::build`] with progress checkpointed to `path`
    /// every `every` observations (clamped to ≥ 1) — the dictionary
    /// adoption of the campaign engine's checkpoint/resume hook. A
    /// compatible checkpoint already at `path` resumes the universe sweep
    /// where it stopped; the finished dictionary is bit-identical to an
    /// uninterrupted [`FaultDictionary::build`] at any parallelism, since
    /// observations are keyed by universe index. Snapshots are written
    /// atomically and fingerprinted against the geometry, universe,
    /// program and MISR polynomial, so a checkpoint of a *different*
    /// build is refused, never silently mixed in.
    ///
    /// # Errors
    ///
    /// [`DiagError::Lfsr`] for a degenerate `poly`;
    /// [`DiagError::Checkpoint`] when a snapshot cannot be saved, loaded
    /// or trusted.
    ///
    /// # Panics
    ///
    /// As [`FaultDictionary::build`]; additionally, a panicking trial
    /// resumes its original payload after the completed prefix has been
    /// checkpointed — restart to resume past the poisoned chunk.
    pub fn build_with_checkpoint(
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        parallelism: Parallelism,
        path: impl AsRef<Path>,
        every: usize,
    ) -> Result<FaultDictionary, DiagError> {
        sweep(universe, program, poly, parallelism, true, Some((path.as_ref(), every)))
    }

    /// A full-signature dictionary over `universe`'s observations.
    fn assemble(
        universe: &FaultUniverse,
        program: &TestProgram,
        collector: SignatureCollector,
        observations: Vec<Observation>,
    ) -> FaultDictionary {
        let (buckets, stats) = index_observations(
            &observations,
            collector.reference(),
            collector.aliasing_bound(),
            |sig| sig,
        );
        FaultDictionary {
            geom: universe.geometry(),
            topology: universe.topology().clone(),
            program: Arc::new(program.clone()),
            collector,
            faults: Arc::new(universe.faults().to_vec()),
            observations: Arc::new(observations),
            buckets,
            stats,
            prefix_bits: None,
        }
    }

    /// Fingerprint of everything that determines a dictionary's
    /// observation table: geometry, the fault universe, the compiled
    /// diagnostic program and the MISR polynomial. Two builds with equal
    /// fingerprints produce bit-identical dictionaries (parallelism and
    /// lane width are deliberately excluded), which is what makes the
    /// fingerprint a sound **cache key** — [`crate::DictionaryStore`]
    /// keys its shared dictionaries and its on-disk files with it.
    pub fn fingerprint(universe: &FaultUniverse, program: &TestProgram, poly: Poly2) -> u64 {
        dictionary_fingerprint(universe, program, poly)
    }

    /// Writes this dictionary's observation table to `path` (atomically:
    /// temp file + rename), fingerprinted so [`FaultDictionary::load`]
    /// refuses the file for any *other* universe/program/polynomial. The
    /// file is the same format a [`FaultDictionary::build_with_checkpoint`]
    /// run leaves behind at completion — buckets and statistics are
    /// re-derived on load, so only the simulated observations are stored.
    ///
    /// # Errors
    ///
    /// [`DiagError::Checkpoint`] when the snapshot cannot be written.
    ///
    /// # Panics
    ///
    /// Panics on a compressed dictionary — persist the full-signature
    /// parent and re-[`compress`](FaultDictionary::compress) after
    /// loading (compression is a cheap re-index; the observations are
    /// identical).
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<(), DiagError> {
        assert!(
            self.prefix_bits.is_none(),
            "persist the full-signature dictionary, not a compression of it"
        );
        let fp = fingerprint_parts(
            self.geom,
            &self.topology,
            &self.faults,
            &self.program,
            self.collector.poly(),
        );
        checkpoint::save_records(path.as_ref(), fp, self.observations.len(), &self.observations)?;
        Ok(())
    }

    /// Reconstructs a dictionary from a [`FaultDictionary::persist`] file
    /// (or a *completed* [`FaultDictionary::build_with_checkpoint`] file)
    /// **without re-simulating the universe** — the free load path a
    /// service restart takes. Returns `Ok(None)` when no file is at
    /// `path` or the file holds only an incomplete prefix (an
    /// interrupted build's spool): callers fall back to a real build.
    ///
    /// The loaded dictionary is bit-identical to the build that produced
    /// the file (asserted in tests).
    ///
    /// # Errors
    ///
    /// [`DiagError::Lfsr`] for a degenerate `poly`;
    /// [`DiagError::Checkpoint`] for a corrupt file or one fingerprinted
    /// by a different universe/program/polynomial — a foreign file is
    /// refused loudly, never silently adopted.
    ///
    /// # Panics
    ///
    /// As [`FaultDictionary::build`] on a universe/program geometry
    /// mismatch.
    pub fn load(
        universe: &FaultUniverse,
        program: &TestProgram,
        poly: Poly2,
        path: impl AsRef<Path>,
    ) -> Result<Option<FaultDictionary>, DiagError> {
        assert_eq!(
            universe.geometry(),
            program.geometry(),
            "dictionary universe and program geometries differ"
        );
        let collector = SignatureCollector::new(program, poly)?;
        let fingerprint = dictionary_fingerprint(universe, program, poly);
        let Some(observations) =
            checkpoint::load_records::<Observation>(path.as_ref(), fingerprint, universe.len())?
        else {
            return Ok(None);
        };
        if observations.len() < universe.len() {
            return Ok(None);
        }
        Ok(Some(FaultDictionary::assemble(universe, program, collector, observations)))
    }

    /// Rebuilds this dictionary on **`bits`-bit signature prefixes** (the
    /// low `bits` bits of each MISR signature) without re-simulating the
    /// universe: the stored observations are re-inverted under the
    /// truncated key and the aliasing/ambiguity statistics re-measured.
    /// The analytic aliasing bound becomes `2⁻ᵏ` for `k < w`.
    ///
    /// Lookups through [`FaultDictionary::candidates`] truncate the
    /// queried signature the same way, so a [`crate::Localizer`] seeded
    /// with a compressed dictionary keeps working — candidate sets are
    /// supersets of the full-signature buckets (every full bucket whose
    /// signatures share a prefix is merged), which the adaptive probes
    /// then narrow. Compression can only *grow* ambiguity and aliasing;
    /// the measured growth is the storage/resolution trade a `n ≥ 2¹⁰`
    /// dictionary buys (asserted in tests).
    ///
    /// # Panics
    ///
    /// Panics when `bits` is 0 or exceeds the MISR width.
    pub fn compress(&self, bits: u32) -> FaultDictionary {
        assert!(
            bits >= 1 && bits <= self.collector.width(),
            "prefix width must be 1..=MISR width ({} bits)",
            self.collector.width()
        );
        let bound = (0.5f64).powi(bits as i32);
        let key = prefix_key(bits);
        let (buckets, stats) =
            index_observations(&self.observations, self.collector.reference(), bound, key);
        FaultDictionary {
            geom: self.geom,
            topology: self.topology.clone(),
            // Arc bumps, not copies: only buckets/stats differ per width.
            program: Arc::clone(&self.program),
            collector: self.collector.clone(),
            faults: Arc::clone(&self.faults),
            observations: Arc::clone(&self.observations),
            buckets,
            stats,
            prefix_bits: Some(bits),
        }
    }

    /// The signature-prefix width of a compressed dictionary (`None` for
    /// a full-signature one).
    pub fn prefix_bits(&self) -> Option<u32> {
        self.prefix_bits
    }

    /// Geometry the dictionary was built for.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The physical address [`Topology`] the universe was enumerated
    /// under — identity for plain universes. Candidate fault coordinates
    /// are **logical**; map them through [`Topology::to_physical`] to
    /// name array positions (what a [`crate::Localizer`] seeded with this
    /// dictionary reports as [`crate::Diagnosis::physical_victim`]).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The diagnostic program the signatures were collected under — the
    /// program a tester must run for [`FaultDictionary::candidates`]
    /// lookups to be meaningful.
    pub fn program(&self) -> &TestProgram {
        &self.program
    }

    /// The signature collector the dictionary was built with (same MISR
    /// polynomial, same reference) — what a [`crate::Localizer`] uses to
    /// compact an observed run before looking it up.
    pub fn collector(&self) -> &SignatureCollector {
        &self.collector
    }

    /// The fault-free reference signature.
    pub fn reference(&self) -> u64 {
        self.collector.reference()
    }

    /// The simulated fault instances, in universe order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Per-fault observation (signature + execution summary), in universe
    /// order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Candidate fault indices for a failing `signature` (empty for the
    /// reference signature or one no simulated fault produced). On a
    /// compressed dictionary the signature is truncated to the prefix
    /// before lookup.
    pub fn candidates(&self, signature: u64) -> &[usize] {
        let key = match self.prefix_bits {
            Some(bits) => prefix_key(bits)(signature),
            None => signature,
        };
        self.buckets.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Candidate faults for a failing `signature`, resolved.
    pub fn candidate_faults(&self, signature: u64) -> Vec<FaultKind> {
        self.candidates(signature).iter().map(|&i| self.faults[i].clone()).collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DictionaryStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_march::{library, Executor};
    use prt_ram::{Ram, UniverseSpec};

    fn poly8() -> Poly2 {
        Poly2::from_bits(0b1_0001_1011)
    }

    fn build(n: usize) -> (FaultUniverse, FaultDictionary) {
        let geom = Geometry::bom(n);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let dict = FaultDictionary::build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        (universe, dict)
    }

    #[test]
    fn round_trip_contains_the_injected_fault() {
        // Inject → observe signature → look up: the candidate set must
        // contain the injected fault, for EVERY stream-detected fault.
        let (universe, dict) = build(8);
        let collector = SignatureCollector::new(dict.program(), poly8()).unwrap();
        for (i, fault) in universe.faults().iter().enumerate() {
            let mut ram = Ram::new(universe.geometry());
            ram.inject(fault.clone()).unwrap();
            let obs = collector.collect(dict.program(), &mut ram).unwrap();
            if obs.stream_differs() && obs.signature != dict.reference() {
                assert!(
                    dict.candidates(obs.signature).contains(&i),
                    "{fault} missing from its own signature bucket"
                );
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (universe, dict) = build(8);
        let s = dict.stats();
        assert_eq!(s.universe, universe.len());
        assert_eq!(s.stream_detected + s.escaped, s.universe);
        assert!(s.aliased <= s.stream_detected);
        assert!(s.distinct_signatures > 0);
        assert!(s.max_candidates >= 1);
        assert!(s.mean_candidates >= 1.0);
        // Measured aliasing must be consistent with the analytic 2^-w
        // bound: structured single-fault error streams do no worse than
        // random ones on a maximal-length register.
        assert!(
            s.measured_aliasing <= s.analytic_aliasing_bound,
            "measured {} vs bound {}",
            s.measured_aliasing,
            s.analytic_aliasing_bound
        );
    }

    #[test]
    fn batched_build_equals_scalar_build() {
        // The lane-batched dictionary build must produce bit-identical
        // per-fault observations (signature AND execution summary) to the
        // scalar map_trials sweep, over a universe spanning every family
        // — including the read/write-logic, SOF and AF instances.
        let geom = Geometry::bom(12);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::full());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let scalar = FaultDictionary::build_with_batching(
            &universe,
            &program,
            poly8(),
            Parallelism::Sequential,
            false,
        )
        .unwrap();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let batched =
                FaultDictionary::build(&universe, &program, poly8(), parallelism).unwrap();
            assert_eq!(batched.observations(), scalar.observations(), "{parallelism:?}");
            assert_eq!(batched.stats(), scalar.stats(), "{parallelism:?}");
        }
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let geom = Geometry::bom(8);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let a =
            FaultDictionary::build(&universe, &program, poly8(), Parallelism::Sequential).unwrap();
        let b =
            FaultDictionary::build(&universe, &program, poly8(), Parallelism::Threads(4)).unwrap();
        assert_eq!(a.observations(), b.observations());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn compression_measures_ambiguity_growth() {
        // The n=16 paper-claim baseline vs its k-bit prefix compressions:
        // aliasing and ambiguity can only grow as the key shrinks, and
        // the growth is measurable (the ROADMAP n ≥ 2¹⁰ trade).
        let geom = Geometry::bom(16);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let full = FaultDictionary::build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        assert_eq!(full.prefix_bits(), None);
        let mut prev_distinct = full.stats().distinct_signatures;
        let mut prev_aliased = full.stats().aliased;
        for bits in [8u32, 6, 4, 2] {
            let c = full.compress(bits);
            let s = c.stats();
            assert_eq!(c.prefix_bits(), Some(bits));
            assert_eq!(s.universe, full.stats().universe);
            assert_eq!(s.stream_detected, full.stats().stream_detected);
            assert!(
                s.distinct_signatures <= prev_distinct,
                "{bits}-bit keys cannot add buckets ({} > {prev_distinct})",
                s.distinct_signatures
            );
            assert!(
                s.aliased >= prev_aliased,
                "{bits}-bit keys cannot unalias ({} < {prev_aliased})",
                s.aliased
            );
            assert!((s.analytic_aliasing_bound - (0.5f64).powi(bits as i32)).abs() < 1e-12);
            prev_distinct = s.distinct_signatures;
            prev_aliased = s.aliased;
        }
        // The headline measurement: 4-bit prefixes coarsen candidate
        // sets measurably vs the full-signature baseline.
        let c4 = full.compress(4);
        assert!(
            c4.stats().mean_candidates > full.stats().mean_candidates,
            "4-bit prefixes must grow ambiguity: {} vs {}",
            c4.stats().mean_candidates,
            full.stats().mean_candidates
        );
        assert!(c4.stats().max_candidates >= full.stats().max_candidates);
    }

    #[test]
    fn compressed_round_trip_contains_the_injected_fault() {
        // Truncated-key lookup: for every stream-detected, non-aliased
        // fault, the compressed bucket still contains the fault — the
        // bucket is a superset of the full-signature one.
        let (universe, dict) = build(8);
        let compressed = dict.compress(5);
        let collector = SignatureCollector::new(dict.program(), poly8()).unwrap();
        let mask = (1u64 << 5) - 1;
        for (i, fault) in universe.faults().iter().enumerate() {
            let mut ram = Ram::new(universe.geometry());
            ram.inject(fault.clone()).unwrap();
            let obs = collector.collect(dict.program(), &mut ram).unwrap();
            if !obs.stream_differs() {
                continue;
            }
            if compressed.candidates(obs.signature).is_empty() {
                // An empty compressed bucket is legitimate ONLY for a
                // prefix-aliased signature — anything else is a lookup
                // regression.
                assert_eq!(
                    obs.signature & mask,
                    compressed.reference() & mask,
                    "{fault}: empty prefix bucket for a non-aliased signature"
                );
                continue;
            }
            assert!(
                compressed.candidates(obs.signature).contains(&i),
                "{fault} missing from its prefix bucket"
            );
            for &c in dict.candidates(obs.signature) {
                assert!(
                    compressed.candidates(obs.signature).contains(&c),
                    "prefix bucket must be a superset of the full bucket"
                );
            }
        }
    }

    #[test]
    fn localizer_works_on_a_compressed_dictionary() {
        use crate::Localizer;
        let (universe, dict) = build(8);
        let compressed = dict.compress(6);
        let localizer =
            Localizer::new(library::march_diag(), universe.geometry()).with_dictionary(&compressed);
        let fault = FaultKind::StuckAt { cell: 5, bit: 0, value: 1 };
        let mut ram = Ram::new(universe.geometry());
        ram.inject(fault.clone()).unwrap();
        let d = localizer.diagnose(&mut ram).unwrap().expect("detected");
        assert_eq!(d.victim(), 5);
        assert_eq!(d.exact(), Some(&fault), "probes must narrow the coarser prefix bucket");
    }

    #[test]
    #[should_panic(expected = "prefix width must be 1..=MISR width")]
    fn compression_rejects_zero_bits() {
        let (_, dict) = build(8);
        let _ = dict.compress(0);
    }

    #[test]
    #[should_panic(expected = "prefix width must be 1..=MISR width")]
    fn compression_rejects_overwide_prefix() {
        let (_, dict) = build(8);
        let _ = dict.compress(9);
    }

    #[test]
    fn batched_sweep_runs_at_the_default_lane_width() {
        assert_eq!(
            prt_ram::LaneRam::<LANE_WORDS>::LANES,
            prt_sim::LaneWidth::default().lanes(),
            "dictionary sweeps must batch at the campaign default width"
        );
    }

    #[test]
    #[should_panic(expected = "geometries differ")]
    fn geometry_mismatch_is_loud() {
        let universe = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
        let program = Executor::new().compile(&library::march_diag(), Geometry::bom(4));
        let _ = FaultDictionary::build(&universe, &program, poly8(), Parallelism::Auto);
    }

    fn temp_ckpt(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prt-diag-unit-{}-{name}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpointed_build_matches_plain_build() {
        let geom = Geometry::bom(8);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let plain =
            FaultDictionary::build(&universe, &program, poly8(), Parallelism::Auto).unwrap();
        let path = temp_ckpt("segmented");
        let segmented = FaultDictionary::build_with_checkpoint(
            &universe,
            &program,
            poly8(),
            Parallelism::Auto,
            &path,
            25,
        )
        .unwrap();
        assert_eq!(plain.observations(), segmented.observations());
        assert_eq!(plain.stats(), segmented.stats());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_build_resumes_bit_identically() {
        // A completed checkpointed build leaves a cursor == total file;
        // truncating its record list to a prefix reproduces exactly what
        // a killed build would have left behind, and the resumed build
        // must equal the uninterrupted one — at a different parallelism.
        let geom = Geometry::bom(8);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let path = temp_ckpt("resume");
        let full = FaultDictionary::build_with_checkpoint(
            &universe,
            &program,
            poly8(),
            Parallelism::Sequential,
            &path,
            50,
        )
        .unwrap();
        let fp = checkpoint::peek_fingerprint(&path).unwrap();
        let saved: Vec<Observation> =
            checkpoint::load_records(&path, fp, universe.len()).unwrap().expect("not cold");
        assert_eq!(saved.len(), universe.len());
        checkpoint::save_records(&path, fp, universe.len(), &saved[..universe.len() / 3]).unwrap();
        let resumed = FaultDictionary::build_with_checkpoint(
            &universe,
            &program,
            poly8(),
            Parallelism::Threads(4),
            &path,
            50,
        )
        .unwrap();
        assert_eq!(full.observations(), resumed.observations());
        assert_eq!(full.stats(), resumed.stats());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_dictionary_checkpoint_is_refused() {
        let geom = Geometry::bom(8);
        let universe = FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim());
        let program = Executor::new().compile(&library::march_diag(), geom);
        let path = temp_ckpt("foreign");
        FaultDictionary::build_with_checkpoint(
            &universe,
            &program,
            poly8(),
            Parallelism::Auto,
            &path,
            50,
        )
        .unwrap();
        // A different MISR polynomial produces different signatures: its
        // build must refuse the stale file.
        let err = FaultDictionary::build_with_checkpoint(
            &universe,
            &program,
            Poly2::from_bits(0b1_1000_0011),
            Parallelism::Auto,
            &path,
            50,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                DiagError::Checkpoint(prt_sim::CheckpointError::FingerprintMismatch { .. })
            ),
            "expected FingerprintMismatch, got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observation_record_round_trips() {
        use prt_ram::{Execution, OpMismatch};
        use prt_sim::checkpoint::CheckpointRecord;
        let samples = [
            Observation { signature: 0xDEAD_BEEF, exec: Execution::default() },
            Observation {
                signature: u64::MAX,
                exec: Execution {
                    mismatches: 3,
                    stale_errors: 1,
                    first_mismatch: Some(OpMismatch {
                        op_index: 17,
                        addr: 5,
                        expected: 0b1010,
                        got: 0b1110,
                    }),
                    ops: 96,
                    cycles: 100,
                },
            },
        ];
        for obs in samples {
            let mut words = Vec::new();
            obs.encode(&mut words);
            assert_eq!(words.len(), <Observation as CheckpointRecord>::WORDS);
            assert_eq!(Observation::decode(&words), Some(obs));
        }
        // An undecodable flag word is corruption, not a default.
        let mut words = Vec::new();
        samples[0].encode(&mut words);
        words[3] = 2;
        assert_eq!(Observation::decode(&words), None);
    }
}
