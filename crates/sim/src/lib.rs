//! Parallel, allocation-free fault-simulation campaign engine.
//!
//! Every coverage experiment in this workspace — the E3/E10 tables, scheme
//! synthesis, Monte-Carlo detection probability, the hardware/software
//! cross-check — reduces to the same inner loop: *for each enumerated fault
//! instance, prepare a RAM, inject, run a test, aggregate*. This crate
//! hoists that loop out of the five places it used to be written and makes
//! it fast:
//!
//! * **Pooled devices** — each worker keeps one [`Ram`] and recycles it via
//!   [`Ram::reset_to`] + [`Ram::eject_faults`], so the steady-state
//!   campaign performs **zero heap allocation per fault** instead of two
//!   `Vec` allocations plus fault-bank rebuilds per trial.
//! * **Parallel fan-out** — fault instances are independent, so every
//!   driver (trial maps, scalar and lane-batched campaign segments, the
//!   fail-fast escape scan) runs on one private work-stealing scheduler:
//!   workers claim units (chunks of trials, or lane batches) in
//!   increasing order from a shared counter on scoped `std` threads; one
//!   worker runs the units in order on the calling thread without
//!   spawning. A unit can stop further claims (the escape scan), a caught
//!   panic poisons only its own unit, and deadlines and cancellation are
//!   polled before every claim. It is built on `std` rather than rayon
//!   because the workspace builds without registry access.
//! * **Early exit** — a fault detected under one data background skips the
//!   remaining backgrounds, exactly like the sequential reference.
//! * **Deterministic aggregation** — workers only fill a per-fault verdict
//!   table; rows are tallied afterwards in enumeration order, so the
//!   resulting [`CoverageReport`] is identical to the sequential path for
//!   any thread count.
//!
//! # Quick start
//!
//! Run a custom checker (anything implementing [`FaultRunner`], including
//! plain closures) over an enumerated fault universe:
//!
//! ```
//! use prt_ram::{FaultUniverse, Geometry, Ram, UniverseSpec};
//! use prt_sim::Campaign;
//!
//! let universe = FaultUniverse::enumerate(Geometry::bom(8), &UniverseSpec::single_cell());
//! // A toy test: write/readback both polarities on every cell.
//! let report = Campaign::new(&universe, |ram: &mut Ram, _bg: u64| {
//!     let n = ram.geometry().cells();
//!     (0..n).any(|a| {
//!         ram.write(a, 0);
//!         let zero_ok = ram.read(a) == 0;
//!         ram.write(a, 1);
//!         !zero_ok || ram.read(a) != 1
//!     })
//! })
//! .with_name("write-readback")
//! .run();
//! assert!(report.class("SAF").unwrap().complete());
//! assert!(!report.class("TF").unwrap().complete()); // down-TFs escape
//! ```
//!
//! The higher layers provide ready-made runners: `prt-march` adapts March
//! tests (`MarchRunner`), `prt-core` implements [`FaultRunner`] for
//! `PiTest`, `PrtScheme`, `BitPlanePi` and `PlaneScheme` directly.
//!
//! The fastest path is a **pre-compiled program**: every test family
//! compiles to the [`prt_ram::prog`] IR (`Executor::compile`,
//! `PiTest::compile`, `PrtScheme::compile`, `PlaneScheme::compile`), and
//! `&TestProgram` / [`ProgramBank`] implement [`FaultRunner`], so the
//! per-trial notation-interpretation tax is paid once per campaign instead
//! of once per fault.

//!
//! # Resilience
//!
//! Campaigns are built to survive the failures a long tester-side run
//! meets: every driver has a fallible `try_*` form returning a typed
//! [`CampaignError`] (the panicking APIs are thin wrappers kept for
//! batch binaries and regression tests), progress can be checkpointed
//! and resumed ([`Campaign::with_checkpoint`]), runs accept a deadline
//! ([`Campaign::with_deadline`]) and cooperative cancellation
//! ([`CancelToken`]) yielding explicitly-marked partial reports, worker
//! panics poison only their own chunk, and a failing lane batch degrades
//! to the scalar oracle instead of killing the campaign
//! ([`CoverageReport::degraded_batches`]). See `DESIGN.md` §"Failure
//! semantics" for the full policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use prt_ram::{
    fault_locality_key, ActiveSet, ActivityIndex, FaultKind, FaultUniverse, Geometry, LaneChunk,
    LaneRam, Ram, TestProgram, Topology,
};

#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
pub mod checkpoint;
mod control;
mod error;
mod report;

pub use control::{CancelToken, StopCause};
pub use error::{CampaignError, CheckpointError};
pub use report::{ClassTally, CoverageReport, CoverageRow, PartialCoverage};

use checkpoint::FingerprintBuilder;
use control::RunControl;

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    }
}

/// Below this many trials a campaign stays sequential under
/// [`Parallelism::Auto`] — thread spawn/join costs more than the work.
const AUTO_PARALLEL_THRESHOLD: usize = 512;

/// Work-stealing chunk size bounds: small enough to balance ragged trial
/// costs (early-exit makes detected faults much cheaper than escapes),
/// large enough to amortise the shared-counter traffic.
const MAX_CHUNK: usize = 64;

/// How many trial lanes one batched interpreter pass carries — the
/// campaign-facing selector for the const-generic [`LaneRam`] chunk
/// width. Wider chunks amortise the per-pass interpreter walk over more
/// trials and give the plane loops whole `[u64; K]` words to
/// auto-vectorise; narrow chunks waste less work on small universes.
/// Verdicts, reports and checkpoints are bit-identical at every width
/// (property-tested in `tests/batch.rs` and `tests/resilience.rs`), so
/// the width — like the thread count — is a pure throughput knob and is
/// deliberately excluded from the checkpoint fingerprint.
///
/// The configured width is an upper bound. The default automatic engine
/// runs its full-pass chunks at exactly this width and may narrow the
/// chunks it slices (see [`Campaign::with_slicing`]); a forced sliced
/// campaign narrows the same way, a forced full pass never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneWidth {
    /// One `u64` of lanes: 64 trials per pass (the PR-4 baseline).
    X64,
    /// `[u64; 4]` chunks: 256 trials per pass.
    X256,
    /// `[u64; 8]` chunks: 512 trials per pass (the default — ≈3× the
    /// 64-lane throughput on large arrays, where per-pass dispatch
    /// dominates and wide chunks amortise it; small universes with
    /// mostly-empty chunks run somewhat faster at `X64`, see
    /// `BENCH_campaign.json`).
    #[default]
    X512,
}

impl LaneWidth {
    /// Trial lanes per batched interpreter pass at this width.
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::X64 => LaneRam::<1>::LANES,
            LaneWidth::X256 => LaneRam::<4>::LANES,
            LaneWidth::X512 => LaneRam::<8>::LANES,
        }
    }
}

/// How a campaign distributes its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker on the calling thread (the sequential reference).
    Sequential,
    /// One worker per available core when the campaign is large enough to
    /// amortise thread startup; sequential otherwise.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1).
    Threads(usize),
}

impl Parallelism {
    fn workers(self, trials: usize) -> usize {
        let w = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                if trials < AUTO_PARALLEL_THRESHOLD {
                    1
                } else {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                }
            }
        };
        w.min(trials.max(1))
    }
}

/// The work-stealing scheduler every driver runs on. `items` is cut into
/// units of `batch` items (one lane batch each), or, with `None`, into
/// about eight units per worker of at most [`MAX_CHUNK`] items (scalar
/// trials). Workers claim units in increasing order from a shared
/// counter, each keeping one `init()` state (its pooled memory) across
/// the units it runs; a single worker runs the units in order on the
/// calling thread and spawns nothing.
///
/// `unit` gets its worker's state and the unit's item range. Returning
/// `Ok(Break)` stops new claims (units already running still finish);
/// an error or a caught panic stops them too, and the first one is
/// returned, a panic as [`CampaignError::WorkerPanic`] over its unit's
/// range. With `control`, the stop cause is polled before every claim,
/// and the one observed is returned when no unit failed.
fn fan_out<S, I, U>(
    parallelism: Parallelism,
    items: Range<usize>,
    batch: Option<usize>,
    control: Option<&RunControl>,
    init: I,
    unit: U,
) -> Result<Option<StopCause>, CampaignError>
where
    I: Fn() -> S + Sync,
    U: Fn(&mut S, Range<usize>) -> Result<ControlFlow<()>, CampaignError> + Sync,
{
    let count = items.len();
    let workers = parallelism.workers(count);
    let chunk = batch.unwrap_or((count / (workers * 8)).clamp(1, MAX_CHUNK));
    let units = count.div_ceil(chunk);
    let workers = workers.min(units);
    let next = AtomicUsize::new(0);
    let halted = AtomicBool::new(false);
    let failure: Mutex<Option<CampaignError>> = Mutex::new(None);
    let stopped: Mutex<Option<StopCause>> = Mutex::new(None);
    let worker = || {
        let mut state = init();
        while !halted.load(Ordering::Relaxed) {
            if let Some(cause) = control.and_then(RunControl::stop_cause) {
                stopped.lock().expect("stop slot lock").get_or_insert(cause);
                break;
            }
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= units {
                break;
            }
            let lo = items.start + u * chunk;
            let range = lo..(lo + chunk).min(items.end);
            let outcome = catch_unwind(AssertUnwindSafe(|| unit(&mut state, range.clone())))
                .unwrap_or_else(|payload| {
                    Err(CampaignError::WorkerPanic {
                        chunk: (range.start, range.end),
                        payload: panic_message(payload),
                    })
                });
            match outcome {
                Ok(ControlFlow::Continue(())) => {}
                Ok(ControlFlow::Break(())) => halted.store(true, Ordering::Relaxed),
                Err(e) => {
                    failure.lock().expect("failure slot lock").get_or_insert(e);
                    halted.store(true, Ordering::Relaxed);
                }
            }
        }
    };
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }
    match failure.into_inner().expect("failure slot lock") {
        Some(e) => Err(e),
        None => Ok(stopped.into_inner().expect("stop slot lock")),
    }
}

/// Graceful degradation of a lane batch whose pass panicked: its faults
/// retry one by one on the scalar oracle, which yields bit-identical
/// results, and the batch is counted in `degraded`. `trial` injects fault
/// `fi` into a healed, zero-reset memory and measures it; `store` keeps
/// the result. A retry that panics too is a real failure, reported as a
/// [`CampaignError::WorkerPanic`] naming its single fault.
fn degrade<T>(
    geom: Geometry,
    ports: usize,
    faults: impl IntoIterator<Item = usize>,
    degraded: &AtomicUsize,
    trial: impl Fn(usize, &mut Ram) -> T,
    mut store: impl FnMut(usize, T),
) -> Result<(), CampaignError> {
    degraded.fetch_add(1, Ordering::Relaxed);
    let mut scalar = Ram::with_ports(geom, ports).expect("valid port count");
    for fi in faults {
        scalar.eject_faults();
        scalar.reset_to(0);
        match catch_unwind(AssertUnwindSafe(|| trial(fi, &mut scalar))) {
            Ok(v) => store(fi, v),
            Err(payload) => {
                return Err(CampaignError::WorkerPanic {
                    chunk: (fi, fi + 1),
                    payload: panic_message(payload),
                })
            }
        }
    }
    Ok(())
}

/// Something that can run one prepared, single-fault memory and report
/// whether the fault was detected.
///
/// The campaign hands the runner a pooled [`Ram`] that has already been
/// reset and injected; `background` is the data background for this trial
/// (test engines that have no background notion are free to ignore it).
/// Closures `Fn(&mut Ram, u64) -> bool + Sync` implement this directly.
pub trait FaultRunner: Sync {
    /// Runs the test; `true` means the fault was detected.
    fn detect(&self, ram: &mut Ram, background: u64) -> bool;

    /// The compiled program this runner would execute for `background`,
    /// if it can expose one — the hook the **lane-batched** campaign path
    /// dispatches through ([`Campaign::detections`] packs 64 batchable
    /// fault trials per interpreter pass when every background resolves
    /// to a single-port program). Runners without a compiled program
    /// (closures, notation-interpreting adapters) keep the default `None`
    /// and campaigns fall back to the scalar path.
    fn batch_program(&self, background: u64) -> Option<&TestProgram> {
        let _ = background;
        None
    }

    /// Checks this runner against a campaign's whole-run configuration
    /// *before* any trial runs — the fallible drivers call it upfront so
    /// a misconfiguration becomes a typed [`CampaignError`] instead of a
    /// worker panic. Runners that cannot know their requirements ahead
    /// of time (closures) keep the default `Ok`.
    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        let _ = (geom, ports, backgrounds);
        Ok(())
    }
}

/// The program-vs-campaign checks shared by the compiled runners: same
/// geometry, enough pooled ports.
fn validate_program(
    program: &TestProgram,
    geom: Geometry,
    ports: usize,
) -> Result<(), CampaignError> {
    if geom != program.geometry() {
        return Err(CampaignError::GeometryMismatch {
            program: program.name().to_string(),
            compiled: program.geometry(),
            campaign: geom,
        });
    }
    if ports < program.ports() {
        return Err(CampaignError::PortShortfall {
            program: program.name().to_string(),
            needed: program.ports(),
            pooled: ports,
        });
    }
    Ok(())
}

impl<F> FaultRunner for F
where
    F: Fn(&mut Ram, u64) -> bool + Sync,
{
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        self(ram, background)
    }
}

// NOTE: no blanket `impl FaultRunner for &R` — it would overlap with the
// closure impl above. Engine-aware types implement the trait on their
// reference type instead (`impl FaultRunner for &PrtScheme`, …), so
// campaigns can borrow the runner.

/// A pre-compiled program drives campaigns directly: compilation happened
/// once, so every trial is a pure interpreter pass (allocation-free, early
/// exit at the first failing read). The trial background is ignored — a
/// compiled program bakes its data background in; use [`ProgramBank`] for
/// multi-background campaigns.
///
/// # Panics
///
/// Panics when the campaign's configuration contradicts the program:
/// wrong geometry, too few pooled ports, or a trial background that
/// differs from the one the program declares (March compilers declare
/// theirs). Per-trial device errors count as escapes, but any of these
/// mismatches would turn the *whole* campaign into silently wrong
/// coverage — configuration errors are surfaced loudly instead.
impl FaultRunner for &TestProgram {
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        detect_checked(self, ram, background)
    }

    fn batch_program(&self, background: u64) -> Option<&TestProgram> {
        match self.background() {
            // A baked-in background that differs from the trial's is a
            // configuration error — decline the batch path so the scalar
            // path surfaces it with its usual loud panic.
            Some(baked) if baked != background => None,
            _ => Some(self),
        }
    }

    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        validate_program(self, geom, ports)?;
        if let Some(baked) = self.background() {
            for &bg in backgrounds {
                if baked != bg {
                    return Err(CampaignError::BackgroundMismatch {
                        program: self.name().to_string(),
                        compiled: baked,
                        requested: bg,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Campaign-side program dispatch: reject whole-campaign configuration
/// errors loudly, then run with the usual per-trial error-as-escape
/// semantics.
fn detect_checked(program: &TestProgram, ram: &mut Ram, background: u64) -> bool {
    assert_eq!(
        ram.geometry(),
        program.geometry(),
        "campaign geometry does not match the geometry '{}' was compiled for",
        program.name()
    );
    assert!(
        ram.ports() >= program.ports(),
        "'{}' needs {} ports but the campaign pools {}-port memories — add .with_ports({})",
        program.name(),
        program.ports(),
        ram.ports(),
        program.ports()
    );
    if let Some(baked) = program.background() {
        assert_eq!(
            baked,
            background,
            "trial background {background:#x} does not match the background '{}' was \
             compiled for — compile one program per background (ProgramBank)",
            program.name()
        );
    }
    program.detect(ram)
}

/// A set of compiled programs keyed by data background — the compiled
/// counterpart of running one test under
/// [`Campaign::with_backgrounds`]: the campaign hands each trial's
/// background to the bank, which dispatches to the program compiled for
/// it.
///
/// # Example
///
/// ```
/// use prt_ram::{Geometry, ProgramBuilder, FaultUniverse, UniverseSpec};
/// use prt_sim::{Campaign, ProgramBank};
///
/// let geom = Geometry::wom(4, 4)?;
/// let bank = ProgramBank::new([0u64, 0b1111].map(|bg| {
///     let mut b = ProgramBuilder::new(geom);
///     for a in 0..4 {
///         b.write(a, bg);
///         b.read_expect(a, bg);
///     }
///     (bg, b.build())
/// }));
/// let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
/// let report = Campaign::new(&u, &bank).with_backgrounds(&[0, 0b1111]).run();
/// assert!(report.class("SAF").unwrap().complete());
/// # Ok::<(), prt_ram::RamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBank {
    programs: Vec<(u64, TestProgram)>,
}

impl ProgramBank {
    /// Builds a bank from `(background, program)` pairs.
    ///
    /// # Panics
    ///
    /// Panics on an empty collection.
    pub fn new(programs: impl IntoIterator<Item = (u64, TestProgram)>) -> ProgramBank {
        let programs: Vec<(u64, TestProgram)> = programs.into_iter().collect();
        assert!(!programs.is_empty(), "program bank needs at least one program");
        ProgramBank { programs }
    }

    /// A bank holding a single program (background 0).
    pub fn single(program: TestProgram) -> ProgramBank {
        ProgramBank { programs: vec![(0, program)] }
    }

    /// The backgrounds this bank was compiled for, in insertion order —
    /// pass these to [`Campaign::with_backgrounds`].
    pub fn backgrounds(&self) -> Vec<u64> {
        self.programs.iter().map(|&(bg, _)| bg).collect()
    }

    /// The program compiled for `background` (`None` if absent).
    pub fn program(&self, background: u64) -> Option<&TestProgram> {
        self.programs.iter().find(|&&(bg, _)| bg == background).map(|(_, p)| p)
    }
}

/// Campaigns dispatch each trial's background to the matching compiled
/// program.
///
/// # Panics
///
/// Panics when a trial asks for a background the bank was not compiled
/// for, or when the campaign's geometry differs from the programs' — both
/// campaign/bank configuration mismatches.
impl FaultRunner for &ProgramBank {
    fn detect(&self, ram: &mut Ram, background: u64) -> bool {
        let program = self
            .program(background)
            .unwrap_or_else(|| panic!("no program compiled for background {background:#x}"));
        detect_checked(program, ram, background)
    }

    fn batch_program(&self, background: u64) -> Option<&TestProgram> {
        self.program(background)
    }

    fn validate(
        &self,
        geom: Geometry,
        ports: usize,
        backgrounds: &[u64],
    ) -> Result<(), CampaignError> {
        for &bg in backgrounds {
            let program =
                self.program(bg).ok_or(CampaignError::UnknownBackground { background: bg })?;
            validate_program(program, geom, ports)?;
            if let Some(baked) = program.background() {
                if baked != bg {
                    return Err(CampaignError::BackgroundMismatch {
                        program: program.name().to_string(),
                        compiled: baked,
                        requested: bg,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Runs `count` independent trials against pooled memories and collects
/// each trial's **result value** in trial order — the generic campaign
/// mode that per-fault *measurements* (MISR signatures for fault
/// dictionaries, observed response streams, per-trial statistics) build
/// on, as well as plain verdict bits (`T = bool`). See
/// [`map_trials_batched`] for the lane-sliced form measurement campaigns
/// over an explicit fault list use.
///
/// This is the engine's lowest-level primitive (Monte-Carlo campaigns use
/// it directly; [`Campaign`] builds fault-universe sweeps on top). Each
/// worker owns one `Ram`; before every trial the device is healed
/// ([`Ram::eject_faults`]) and zero-reset ([`Ram::reset_to`]), so `trial`
/// always observes a pristine memory and the steady state allocates
/// nothing beyond what `trial` itself allocates. Results land in
/// write-once slots in trial order, so the output is deterministic and
/// independent of the parallelism policy.
///
/// # Panics
///
/// Re-raises whatever [`try_map_trials`] reports: an invalid port count
/// panics with its configuration message, a caught trial panic resumes
/// with its original payload (this is a thin wrapper over the fallible
/// engine).
pub fn map_trials<T, F>(
    geom: Geometry,
    ports: usize,
    count: usize,
    parallelism: Parallelism,
    trial: F,
) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, &mut Ram) -> T + Sync,
{
    try_map_trials(geom, ports, count, parallelism, trial).unwrap_or_else(|e| e.raise())
}

/// The fallible form of [`map_trials`] — the engine the panicking
/// wrapper delegates to. Pooling, scheduling and determinism contracts
/// are identical; failures come back typed.
///
/// # Errors
///
/// [`CampaignError::BadConfiguration`] for an invalid port count,
/// [`CampaignError::WorkerPanic`] when `trial` panicked. A panic poisons
/// only the chunk it fired in: the remaining workers drain quickly and
/// the **first** panic is reported with its chunk's trial range.
pub fn try_map_trials<T, F>(
    geom: Geometry,
    ports: usize,
    count: usize,
    parallelism: Parallelism,
    trial: F,
) -> Result<Vec<T>, CampaignError>
where
    T: Send + Sync,
    F: Fn(usize, &mut Ram) -> T + Sync,
{
    validate_ports(geom, ports)?;
    let results: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    fan_out(
        parallelism,
        0..count,
        None,
        None,
        || Ram::with_ports(geom, ports).expect("valid port count"),
        |ram, range| {
            for i in range {
                ram.eject_faults();
                ram.reset_to(0);
                // Units never overlap, so each slot is set once.
                let _ = results[i].set(trial(i, ram));
            }
            Ok(ControlFlow::Continue(()))
        },
    )?;
    Ok(results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every trial index was dispatched"))
        .collect())
}

/// Validates the pooled-device configuration once, upfront, so workers
/// can `expect` their pool construction.
fn validate_ports(geom: Geometry, ports: usize) -> Result<(), CampaignError> {
    Ram::with_ports(geom, ports).map(drop).map_err(|e| CampaignError::BadConfiguration {
        reason: format!("cannot pool {ports}-port memories: {e}"),
    })
}

/// The lane-sliced form of [`map_trials`] for per-fault measurement
/// campaigns: faults are packed `LaneRam::<K>::LANES` per [`LaneRam`]
/// chunk and measured by one `batch_trial` pass per batch — every fault
/// family lane-batches, so there is no scalar remainder and
/// `scalar_trial` serves only as the degradation oracle. Results land by
/// **fault index**, so the output is deterministic and identical for any
/// parallelism policy *and any lane width* — and, when the two trial
/// functions measure the same thing (the contract callers are
/// property-tested against), identical to the all-scalar [`map_trials`]
/// sweep.
///
/// `batch_trial` receives a healed, zero-reset [`LaneRam`] (pooled with
/// `ports` ports, so multi-port measurement programs batch too) whose
/// lanes `0..k` carry the batch's faults in index order and must push
/// exactly one result per injected lane, in lane order (checked).
/// `scalar_trial` receives the fault's universe index and a pooled
/// memory with the fault **already injected** (unlike the raw
/// [`map_trials`], which hands the closure a pristine device).
///
/// # Panics
///
/// Re-raises whatever [`try_map_trials_batched`] reports: an invalid
/// port count or a wrong `batch_trial` result count panics with its
/// configuration message (containing the historical "one result per
/// injected lane" phrase), a caught scalar panic resumes with its
/// original payload. A *batch* panic does not surface here at all — it
/// degrades to the scalar oracle (see the fallible form).
pub fn map_trials_batched<const K: usize, T, FB, FS>(
    geom: Geometry,
    ports: usize,
    faults: &[FaultKind],
    parallelism: Parallelism,
    batch_trial: FB,
    scalar_trial: FS,
) -> Vec<T>
where
    T: Send + Sync,
    FB: Fn(&mut LaneRam<K>, &mut Vec<T>) + Sync,
    FS: Fn(usize, &mut Ram) -> T + Sync,
{
    try_map_trials_batched(geom, ports, faults, parallelism, batch_trial, scalar_trial)
        .unwrap_or_else(|e| e.raise())
        .0
}

/// The fallible form of [`map_trials_batched`]. Returns the per-fault
/// results plus the number of **degraded batches**: a lane batch whose
/// `batch_trial` panicked is retried fault-by-fault on the scalar oracle
/// (`scalar_trial`) instead of killing the run, and counted. Because the
/// scalar trial measures the same thing (the contract callers are
/// property-tested against), a degraded run's results are still exact.
///
/// # Errors
///
/// [`CampaignError::BadConfiguration`] for an invalid port count or a
/// `batch_trial` yielding a wrong result count;
/// [`CampaignError::WorkerPanic`] when a *scalar* trial panicked
/// (including a degraded retry — a batch that fails both engines is a
/// real failure, not a batching artifact).
pub fn try_map_trials_batched<const K: usize, T, FB, FS>(
    geom: Geometry,
    ports: usize,
    faults: &[FaultKind],
    parallelism: Parallelism,
    batch_trial: FB,
    scalar_trial: FS,
) -> Result<(Vec<T>, usize), CampaignError>
where
    T: Send + Sync,
    FB: Fn(&mut LaneRam<K>, &mut Vec<T>) + Sync,
    FS: Fn(usize, &mut Ram) -> T + Sync,
{
    validate_ports(geom, ports)?;
    let results: Vec<OnceLock<T>> = (0..faults.len()).map(|_| OnceLock::new()).collect();
    let degraded = AtomicUsize::new(0);
    // Every fault family lane-batches (the scalar remainder seam was
    // retired once it proved permanently empty), so each unit is one
    // batch of consecutive fault indices.
    fan_out(
        parallelism,
        0..faults.len(),
        Some(LaneRam::<K>::LANES),
        None,
        || (LaneRam::<K>::with_ports(geom, ports).expect("valid port count"), Vec::new()),
        |(ram, out), lanes| {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                ram.eject_faults();
                ram.reset_to(0);
                for (lane, fi) in lanes.clone().enumerate() {
                    ram.inject(faults[fi].clone(), lane).expect("campaign faults are valid");
                }
                out.clear();
                batch_trial(ram, out);
            }));
            if attempt.is_err() {
                let trial = |fi: usize, scalar: &mut Ram| {
                    scalar.inject(faults[fi].clone()).expect("campaign faults are valid");
                    scalar_trial(fi, scalar)
                };
                degrade(geom, ports, lanes, &degraded, trial, |fi, v| {
                    let _ = results[fi].set(v);
                })?;
            } else if out.len() != lanes.len() {
                return Err(CampaignError::BadConfiguration {
                    reason: format!(
                        "batch trial must yield one result per injected lane — got {} results \
                         for {} lanes",
                        out.len(),
                        lanes.len()
                    ),
                });
            } else {
                for (fi, v) in lanes.zip(out.drain(..)) {
                    // Batches never overlap, so each slot is set once.
                    let _ = results[fi].set(v);
                }
            }
            Ok(ControlFlow::Continue(()))
        },
    )?;
    let values = results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every fault index was dispatched"))
        .collect();
    Ok((values, degraded.load(Ordering::Relaxed)))
}

/// A configured fault-simulation campaign: a fault set × a runner × data
/// backgrounds, with a parallelism policy.
///
/// Construction is cheap; nothing runs until [`Campaign::run`],
/// [`Campaign::detections`] or one of the other drivers is called.
#[derive(Debug)]
pub struct Campaign<'a, R> {
    geom: Geometry,
    faults: &'a [FaultKind],
    runner: R,
    backgrounds: Vec<u64>,
    ports: usize,
    parallelism: Parallelism,
    lane_batching: bool,
    lane_width: LaneWidth,
    /// `None`: the auto engine picks full or sliced pass per chunk;
    /// `Some(_)` forces one ([`Campaign::with_slicing`]).
    slicing: Option<bool>,
    topology: Option<Topology>,
    name: String,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    checkpoint: Option<(PathBuf, usize)>,
    progress: Option<ProgressHook<'a>>,
    #[cfg(any(test, feature = "chaos"))]
    chaos: Option<std::sync::Arc<chaos::ChaosPlan>>,
}

/// One completed segment of a campaign, as reported to a
/// [`Campaign::with_progress`] sink: the contiguous universe slice
/// `[start, end)` whose verdicts just became final.
///
/// Segments are reported **in order** and tile the evaluated prefix of
/// the universe exactly — `start` of each call equals `end` of the
/// previous one (the first call has `start == 0`, which on a resumed
/// checkpointed campaign covers the whole restored prefix in one call).
/// A campaign stopped early (deadline, cancellation) simply stops
/// reporting; segments never arrive out of order or overlap.
#[derive(Debug)]
pub struct SegmentProgress<'s> {
    /// First universe index of the segment (inclusive).
    pub start: usize,
    /// One past the last universe index of the segment (exclusive).
    pub end: usize,
    /// Final verdicts for `[start, end)`, keyed by `index - start`.
    pub verdicts: &'s [bool],
}

/// The configured streaming sink: segment cadence plus the callback.
/// Boxed so [`Campaign`] stays nameable; the manual [`fmt::Debug`] keeps
/// the campaign's derive working without demanding one of the closure.
struct ProgressHook<'a> {
    every: usize,
    sink: Box<dyn Fn(SegmentProgress<'_>) + Send + Sync + 'a>,
}

impl std::fmt::Debug for ProgressHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressHook").field("every", &self.every).finish_non_exhaustive()
    }
}

/// Campaign progress as the resilient driver reports it: the verdict
/// table (meaningful on `[0, evaluated)` when stopped early), the stop
/// cause if any, and the degradation counter.
struct Progress {
    verdicts: Vec<bool>,
    evaluated: usize,
    stopped: Option<StopCause>,
    degraded_batches: usize,
    elapsed: Duration,
}

/// How one segment's fan-out ended: `Ok(None)` when every trial
/// completed, `Ok(Some(cause))` when the deadline or a cancellation
/// stopped it, `Err` when a unit failed (everything else drained).
type SegmentOutcome = Result<Option<StopCause>, CampaignError>;

/// The shared per-run state the segment drivers write into.
struct DriveCtx<'t> {
    /// Per-fault verdicts, keyed by universe index.
    table: &'t [AtomicBool],
    /// Per-fault completion flags — the checkpoint cursor is the length
    /// of the contiguous `true` prefix.
    done: &'t [AtomicBool],
    /// Deadline/cancellation, polled at chunk granularity.
    control: &'t RunControl,
    /// Lane batches degraded to the scalar oracle so far.
    degraded: &'t AtomicUsize,
}

/// How the batched driver picks each lane batch's interpreter pass; the
/// sliced variants carry one activity index per background program.
#[derive(Clone, Copy)]
enum Pass<'p> {
    /// The full pass for every batch (`with_slicing(false)`, or no batch
    /// could prefer slicing).
    Full,
    /// The sliced pass for every batch (`with_slicing(true)`).
    Sliced(&'p [Arc<ActivityIndex>]),
    /// Per batch, by [`ActiveSet::prefers_full_pass`] (the default).
    Auto(&'p [Arc<ActivityIndex>]),
}

impl<'a, R: FaultRunner> Campaign<'a, R> {
    /// A campaign over every instance of an enumerated universe.
    pub fn new(universe: &'a FaultUniverse, runner: R) -> Campaign<'a, R> {
        Campaign::over(universe.geometry(), universe.faults(), runner)
            .with_topology(universe.topology().clone())
    }

    /// A campaign over an explicit fault list (e.g. the escapes of a
    /// previous campaign, or a topological NPSF set).
    pub fn over(geom: Geometry, faults: &'a [FaultKind], runner: R) -> Campaign<'a, R> {
        Campaign {
            geom,
            faults,
            runner,
            backgrounds: vec![0],
            ports: 1,
            parallelism: Parallelism::Auto,
            lane_batching: true,
            lane_width: LaneWidth::default(),
            slicing: None,
            topology: None,
            name: "campaign".to_string(),
            deadline: None,
            cancel: None,
            checkpoint: None,
            progress: None,
            #[cfg(any(test, feature = "chaos"))]
            chaos: None,
        }
    }

    /// Sets the data backgrounds; a fault counts as detected when **any**
    /// background run flags it, and later backgrounds are skipped once one
    /// does (the per-fault early exit).
    ///
    /// # Panics
    ///
    /// Panics on an empty background list.
    pub fn with_backgrounds(mut self, backgrounds: &[u64]) -> Campaign<'a, R> {
        assert!(!backgrounds.is_empty(), "at least one data background required");
        self.backgrounds = backgrounds.to_vec();
        self
    }

    /// Number of ports on the pooled memories (default 1).
    pub fn with_ports(mut self, ports: usize) -> Campaign<'a, R> {
        self.ports = ports;
        self
    }

    /// Sets the parallelism policy (default [`Parallelism::Auto`]).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Campaign<'a, R> {
        self.parallelism = parallelism;
        self
    }

    /// Enables or disables the lane-sliced batch path (default enabled).
    /// With batching on, a campaign whose runner exposes a compiled
    /// program for every background ([`FaultRunner::batch_program`])
    /// evaluates its universe in lane chunks —
    /// [`LaneWidth::lanes`] trials per interpreter pass. There is no
    /// scalar remainder left: every modelled fault family and every
    /// program, multi-port π schedules included, batches; verdicts are
    /// bit-identical to the scalar path either way. Disable to measure
    /// or differential-test the scalar engine.
    pub fn with_lane_batching(mut self, enabled: bool) -> Campaign<'a, R> {
        self.lane_batching = enabled;
        self
    }

    /// Selects the lane-chunk width for the batched path (default
    /// [`LaneWidth::X512`]): the width of every full-pass chunk, and the
    /// widest a sliced chunk may use. A pure throughput knob: the verdict
    /// table, reports and checkpoints are bit-identical at every width,
    /// so checkpoints taken at one width resume correctly at another.
    pub fn with_lane_width(mut self, width: LaneWidth) -> Campaign<'a, R> {
        self.lane_width = width;
        self
    }

    /// Forces the batched path's interpreter pass: `true` forces
    /// activity-driven slicing on every lane batch, `false` forces the
    /// full pass. Without this call the engine is automatic and picks
    /// per batch by [`ActiveSet::prefers_full_pass`]: a batch whose
    /// sliced pass would still run more than
    /// [`prt_ram::FULL_PASS_ACTIVE_FRACTION`] of the program's ops (dense
    /// universes on small arrays, and every accumulator-driven PRT or π
    /// program) runs the full pass, a sparse one slices.
    ///
    /// A sliced pass walks only the program ops whose address intersects
    /// the batch's span union — the cells its faults can actually
    /// perturb — and splices precomputed fault-free reference deltas over
    /// the gaps ([`prt_ram::ActivityIndex`]). Forced slicing also
    /// assembles batches by fault locality
    /// ([`prt_ram::fault_locality_key`]); the automatic engine keeps
    /// universe order, whose family-by-family batches exit earlier.
    /// Verdicts, reports and checkpoints are **bit-identical** in every
    /// mode (the engine, like the lane width, is deliberately not
    /// fingerprinted); the forced modes are the oracles for measurement
    /// and differential testing.
    pub fn with_slicing(mut self, enabled: bool) -> Campaign<'a, R> {
        self.slicing = Some(enabled);
        self
    }

    /// Declares the physical address [`Topology`] this campaign's fault
    /// universe was enumerated under. Faults carry **logical** addresses
    /// whatever the topology, so this knob never changes how trials
    /// execute — it exists so the checkpoint fingerprint can tell
    /// scrambles apart: a checkpoint written under one topology refuses
    /// to resume under another
    /// ([`CheckpointError::FingerprintMismatch`]). The identity topology
    /// hashes exactly like the pre-topology era, keeping old checkpoints
    /// valid. [`Campaign::new`] sets this automatically from the
    /// universe; campaigns built with [`Campaign::over`] on scrambled
    /// fault lists should declare it explicitly.
    ///
    /// # Panics
    ///
    /// Panics when the topology's cell count disagrees with the
    /// campaign geometry.
    pub fn with_topology(mut self, topology: Topology) -> Campaign<'a, R> {
        assert_eq!(
            topology.cells(),
            self.geom.cells(),
            "topology cell count must match the campaign geometry"
        );
        self.topology = if topology.is_identity() { None } else { Some(topology) };
        self
    }

    /// Sets the report name (default `"campaign"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Campaign<'a, R> {
        self.name = name.into();
        self
    }

    /// Gives the run a time budget. The budget is polled at chunk
    /// granularity; when it runs out, [`Campaign::try_run`] returns a
    /// report explicitly marked partial ([`CoverageReport::partial`])
    /// covering the evaluated universe prefix, and
    /// [`Campaign::try_detections`] returns
    /// [`CampaignError::DeadlineExceeded`]. The clock starts when a
    /// driver is called, not when the campaign is configured.
    pub fn with_deadline(mut self, deadline: Duration) -> Campaign<'a, R> {
        self.deadline = Some(deadline);
        self
    }

    /// Arms cooperative cancellation: any clone of `token` can stop the
    /// run at the next chunk boundary, yielding a partial report exactly
    /// like an expired deadline. Cancellation is sticky — a campaign
    /// armed with an already-fired token stops before its first trial.
    pub fn with_cancel(mut self, token: &CancelToken) -> Campaign<'a, R> {
        self.cancel = Some(token.clone());
        self
    }

    /// Checkpoints progress to `path` every `every` trials (clamped to
    /// ≥ 1), and **resumes** from `path` when a compatible checkpoint is
    /// already there. Snapshots are written atomically (temp file +
    /// rename), versioned, fingerprinted against this campaign's
    /// geometry/universe/programs/backgrounds, and validated on load —
    /// a checkpoint of a different run is refused with
    /// [`CheckpointError::FingerprintMismatch`], never silently mixed
    /// in. A resumed campaign produces a report **bit-identical** to an
    /// uninterrupted run, at any thread count: verdict slots are keyed
    /// by fault index, so the schedule never leaks into the table.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Campaign<'a, R> {
        self.checkpoint = Some((path.into(), every.max(1)));
        self
    }

    /// Streams progress: after every segment of (at most) `every` trials
    /// completes, `sink` receives the segment's final verdicts as a
    /// [`SegmentProgress`]. Segments arrive in order and tile the
    /// evaluated prefix exactly (see [`SegmentProgress`]), so a sink can
    /// reconstruct the verdict table — or per-class coverage deltas —
    /// incrementally; the terminal report stays bit-identical to an
    /// unhooked run. Composes with [`Campaign::with_checkpoint`]: the
    /// effective segment length is the smaller of the two cadences.
    /// `every` is clamped to ≥ 1. The sink runs on the driving thread,
    /// between segments — a slow sink throttles the campaign, not the
    /// verdicts.
    pub fn with_progress(
        mut self,
        every: usize,
        sink: impl Fn(SegmentProgress<'_>) + Send + Sync + 'a,
    ) -> Campaign<'a, R> {
        self.progress = Some(ProgressHook { every: every.max(1), sink: Box::new(sink) });
        self
    }

    /// Arms a chaos-injection plan (test builds only): deliberate worker
    /// kills, batch kills and cancellations at deterministic points, for
    /// the resilience suite.
    #[cfg(any(test, feature = "chaos"))]
    pub fn with_chaos(mut self, plan: std::sync::Arc<chaos::ChaosPlan>) -> Campaign<'a, R> {
        self.chaos = Some(plan);
        self
    }

    /// Chaos checkpoint before a primary scalar trial (no-op outside
    /// test builds, and in degraded retries — degradation must succeed).
    #[cfg(any(test, feature = "chaos"))]
    fn chaos_trial(&self, i: usize) {
        if let Some(plan) = &self.chaos {
            plan.trial_event(i);
        }
    }

    #[cfg(not(any(test, feature = "chaos")))]
    fn chaos_trial(&self, _i: usize) {}

    /// Chaos checkpoint before a lane batch (no-op outside test builds).
    #[cfg(any(test, feature = "chaos"))]
    fn chaos_batch(&self, first: usize) {
        if let Some(plan) = &self.chaos {
            plan.batch_event(first);
        }
    }

    #[cfg(not(any(test, feature = "chaos")))]
    fn chaos_batch(&self, _first: usize) {}

    /// Number of fault instances in the campaign.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the campaign has no fault instances.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn run_fault(&self, i: usize, ram: &mut Ram) -> bool {
        ram.inject(self.faults[i].clone()).expect("campaign faults are valid");
        for (bi, &bg) in self.backgrounds.iter().enumerate() {
            if bi > 0 {
                ram.reset_to(0);
            }
            if self.runner.detect(ram, bg) {
                return true;
            }
        }
        false
    }

    /// Per-fault verdicts in enumeration order. Deterministic: the result
    /// is independent of the parallelism policy because every trial is
    /// isolated on its own (pooled) memory — and of the lane-batching
    /// policy, because the batch engine is bitwise-exact per lane
    /// (property-tested in `tests/batch.rs`).
    ///
    /// # Panics
    ///
    /// Thin wrapper over [`Campaign::try_detections`]: configuration
    /// errors panic with the historical loud messages, caught worker
    /// panics resume with their original payload.
    pub fn detections(&self) -> Vec<bool> {
        self.try_detections().unwrap_or_else(|e| e.raise())
    }

    /// The fallible form of [`Campaign::detections`].
    ///
    /// # Errors
    ///
    /// The full [`CampaignError`] taxonomy: upfront configuration errors
    /// (geometry/port/background mismatches from
    /// [`FaultRunner::validate`], invalid port counts), checkpoint
    /// failures, [`CampaignError::WorkerPanic`] for a caught trial
    /// panic, and — because a verdict *vector* cannot be partial —
    /// [`CampaignError::DeadlineExceeded`] / [`CampaignError::Cancelled`]
    /// when a stop condition fired first (use [`Campaign::try_run`] for
    /// an explicitly-marked partial report instead).
    pub fn try_detections(&self) -> Result<Vec<bool>, CampaignError> {
        let progress = self.try_progress()?;
        match progress.stopped {
            None => Ok(progress.verdicts),
            Some(StopCause::DeadlineExceeded) => Err(CampaignError::DeadlineExceeded {
                elapsed: progress.elapsed,
                deadline: self.deadline.unwrap_or_default(),
                completed: progress.evaluated,
                total: self.faults.len(),
            }),
            Some(StopCause::Cancelled) => Err(CampaignError::Cancelled {
                completed: progress.evaluated,
                total: self.faults.len(),
            }),
        }
    }

    /// The resilient driver every campaign entry point sits on: validates
    /// the configuration upfront, resumes from a checkpoint when one is
    /// armed and compatible, then drives the universe in **segments**
    /// (the finer of the checkpoint and progress cadences per segment;
    /// the whole remainder when neither is armed), checkpointing the
    /// contiguous verdict prefix and reporting progress to the streaming
    /// sink after each. Worker panics poison only their chunk; deadline and
    /// cancellation stop the fan-out at chunk boundaries; a panicking
    /// lane batch degrades to the scalar oracle.
    fn try_progress(&self) -> Result<Progress, CampaignError> {
        self.runner.validate(self.geom, self.ports, &self.backgrounds)?;
        validate_ports(self.geom, self.ports)?;
        let total = self.faults.len();
        let fingerprint = self.checkpoint.as_ref().map(|_| self.fingerprint());
        let table: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
        let done: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
        let mut cursor = 0usize;
        if let (Some((path, _)), Some(fp)) = (&self.checkpoint, fingerprint) {
            if let Some(saved) = checkpoint::load_records::<bool>(path, fp, total)? {
                cursor = saved.len();
                for (i, verdict) in saved.into_iter().enumerate() {
                    table[i].store(verdict, Ordering::Relaxed);
                    done[i].store(true, Ordering::Relaxed);
                }
            }
        }
        // A hooked campaign resuming from a checkpoint reports the whole
        // restored prefix as one leading segment, so sinks always see
        // segments that tile `[0, evaluated)` — no silent gap.
        if cursor > 0 {
            if let Some(hook) = &self.progress {
                let prefix: Vec<bool> =
                    table[..cursor].iter().map(|b| b.load(Ordering::Relaxed)).collect();
                (hook.sink)(SegmentProgress { start: 0, end: cursor, verdicts: &prefix });
            }
        }
        let plan = self.batch_plan();
        // Activity indexes (one per background program) for the sliced
        // pass: resolved once per campaign, before the segment loop (the
        // programs cache the compiled index, so repeat campaigns over the
        // same program share one build).
        let indexes: Vec<Arc<ActivityIndex>> = match (&plan, self.slicing) {
            (Some(programs), None | Some(true)) => {
                programs.iter().map(|p| p.activity_index()).collect()
            }
            _ => Vec::new(),
        };
        let pass = match self.slicing {
            _ if indexes.is_empty() => Pass::Full,
            Some(true) => Pass::Sliced(&indexes),
            // No batch of an accumulator-driven program can prefer the
            // sliced pass: skip the per-batch rule altogether.
            _ if indexes.iter().all(|ix| ix.always_prefers_full_pass()) => Pass::Full,
            _ => Pass::Auto(&indexes),
        };
        let degraded = AtomicUsize::new(0);
        let control = RunControl::new(self.deadline, self.cancel.clone());
        let mut stopped = None;
        // Segment length: the finer of the checkpoint cadence and the
        // progress cadence (one whole-remainder segment when neither is
        // armed).
        let step = self
            .checkpoint
            .as_ref()
            .map(|(_, every)| *every)
            .unwrap_or(usize::MAX)
            .min(self.progress.as_ref().map(|h| h.every).unwrap_or(usize::MAX));
        while cursor < total {
            let seg_start = cursor;
            let seg_end = cursor.saturating_add(step).min(total);
            let ctx =
                DriveCtx { table: &table, done: &done, control: &control, degraded: &degraded };
            let outcome = match &plan {
                Some(programs) => self.drive_segment_batched(cursor..seg_end, programs, pass, &ctx),
                None => self.drive_scalar(cursor..seg_end, &ctx),
            };
            while cursor < seg_end && done[cursor].load(Ordering::Relaxed) {
                cursor += 1;
            }
            if let (Some((path, _)), Some(fp)) = (&self.checkpoint, fingerprint) {
                let prefix: Vec<bool> =
                    table[..cursor].iter().map(|b| b.load(Ordering::Relaxed)).collect();
                checkpoint::save_records(path, fp, total, &prefix)?;
            }
            if cursor > seg_start {
                if let Some(hook) = &self.progress {
                    let verdicts: Vec<bool> = table[seg_start..cursor]
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    (hook.sink)(SegmentProgress {
                        start: seg_start,
                        end: cursor,
                        verdicts: &verdicts,
                    });
                }
            }
            if let Some(cause) = outcome? {
                stopped = Some(cause);
                break;
            }
        }
        Ok(Progress {
            verdicts: table.into_iter().map(AtomicBool::into_inner).collect(),
            evaluated: cursor,
            stopped,
            degraded_batches: degraded.load(Ordering::Relaxed),
            elapsed: control.elapsed(),
        })
    }

    /// Fingerprint of everything that determines this campaign's verdict
    /// table: geometry, ports, backgrounds, the fault universe and the
    /// compiled program per background. The **schedule** is fingerprinted
    /// only by its discipline name — verdict slots are keyed by fault
    /// index, so thread count, chunking, lane packing and the lane-chunk
    /// width ([`LaneWidth`]) never change the table: a checkpoint taken
    /// at 64 lanes resumes correctly at 512 and vice versa, which is why
    /// the width is deliberately **not** hashed here.
    ///
    /// A non-identity [`Topology`] (see [`Campaign::with_topology`]) is
    /// hashed so a checkpoint written under one scramble refuses to
    /// resume under another; the identity topology is hashed as the
    /// absence of the field, keeping pre-topology checkpoints valid.
    fn fingerprint(&self) -> u64 {
        let mut fp = FingerprintBuilder::new();
        fp.push_str("prt-sim/campaign/v1");
        fp.push_str("schedule:fault-index/v1");
        if let Some(topology) = &self.topology {
            fp.push_str("topology");
            fp.push_debug(topology);
        }
        fp.push_debug(&self.geom);
        fp.push_u64(self.ports as u64);
        fp.push_u64(self.backgrounds.len() as u64);
        for &bg in &self.backgrounds {
            fp.push_u64(bg);
        }
        fp.push_u64(self.faults.len() as u64);
        for fault in self.faults {
            fp.push_debug(fault);
        }
        for &bg in &self.backgrounds {
            match self.runner.batch_program(bg) {
                Some(program) => fp.push_debug(program),
                None => fp.push_str("interpreted"),
            }
        }
        fp.finish()
    }

    /// Sorts `trials` (universe indices) into `(locality key, index)`
    /// order ([`prt_ram::fault_locality_key`]) for the forced sliced pass,
    /// so the faults sharing a lane batch have tight span unions
    /// (coupling faults group by their aggressor/victim window, and a
    /// scrambled universe regroups by logical cell). Verdicts stay keyed
    /// by fault index, so the permutation never reaches reports or
    /// checkpoints.
    fn locality_order(&self, trials: Vec<u32>) -> Vec<u32> {
        let mut keyed: Vec<(usize, u32)> =
            trials.into_iter().map(|i| (fault_locality_key(&self.faults[i as usize]), i)).collect();
        // One key computation per fault, then a primitive-tuple sort
        // (re-deriving the key inside a comparator dominates the sort).
        if !keyed.is_sorted() {
            keyed.sort_unstable();
        }
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    /// The lane width to slice `trials` (in schedule order) at: the
    /// cheapest of the widths not exceeding the configured knob, under
    /// the span-overlap cost model. A sliced batch executes one op per
    /// distinct span cell visit, so its work is roughly
    /// `distinct-keys-in-batch × (F + W·K)` with `F` the per-op fixed cost
    /// (dispatch, gap splice, bucket lookups) and `W·K` the K-chunk-word
    /// plane loops; `F/W ≈ 11` measured on the batch interpreter. Dense
    /// key runs favour the widest chunks exactly as the full pass does;
    /// sparse ones (single-cell faults on a large array) favour narrow
    /// chunks, whose span unions — and active-op counts — shrink with the
    /// lane count. Width never affects verdicts, reports or checkpoints
    /// (the fingerprint deliberately excludes it): this is pure
    /// scheduling.
    fn sliced_width(&self, trials: &[u32]) -> LaneWidth {
        let keys: Vec<usize> =
            trials.iter().map(|&i| fault_locality_key(&self.faults[i as usize])).collect();
        let mut best = LaneWidth::X64;
        let mut best_cost = u64::MAX;
        for width in [LaneWidth::X512, LaneWidth::X256, LaneWidth::X64] {
            if width.lanes() > self.lane_width.lanes() {
                continue;
            }
            let chunk = width.lanes();
            let k = (chunk / 64) as u64;
            let mut distinct = 0u64;
            for (i, &key) in keys.iter().enumerate() {
                if i % chunk == 0 || keys[i - 1] != key {
                    distinct += 1;
                }
            }
            let cost = distinct * (11 + k);
            // Strict inequality: ties go to the widest width (fewer
            // chunks, less per-chunk driver overhead).
            if cost < best_cost {
                best_cost = cost;
                best = width;
            }
        }
        best
    }

    /// Scalar fan-out over the universe indices `segment`: each worker
    /// pools one [`Ram`], and a panic poisons exactly its own chunk.
    fn drive_scalar(&self, segment: Range<usize>, ctx: &DriveCtx<'_>) -> SegmentOutcome {
        fan_out(
            self.parallelism,
            segment,
            None,
            Some(ctx.control),
            || Ram::with_ports(self.geom, self.ports).expect("valid port count"),
            |ram, range| {
                for i in range {
                    self.chaos_trial(i);
                    ram.eject_faults();
                    ram.reset_to(0);
                    let verdict = self.run_fault(i, ram);
                    ctx.table[i].store(verdict, Ordering::Relaxed);
                    ctx.done[i].store(true, Ordering::Relaxed);
                }
                Ok(ControlFlow::Continue(()))
            },
        )
    }

    /// Lane-batched evaluation of the universe indices `segment` under
    /// `pass`. The full pass takes batches in universe order at the
    /// configured width. The forced sliced pass first regroups the
    /// segment by locality ([`Campaign::locality_order`]). The auto engine
    /// walks the universe-order batches at the configured width and
    /// applies [`ActiveSet::prefers_full_pass`] to each: a dense batch
    /// runs the full pass where it stands, a sparse one is set aside. The
    /// set-aside faults, still in universe order, are then sliced at the
    /// width the span-overlap model picks ([`Campaign::sliced_width`]),
    /// each narrower batch re-checked by the same rule.
    ///
    /// Auto keeps universe order on purpose: an enumerated universe
    /// arrives family by family, so a batch's faults tend to be detected
    /// together and its pass — full or sliced — exits early. Locality
    /// regrouping mixes families, so nearly every batch holds a late or
    /// escaping fault and runs to the end: measured on March C- with
    /// radius-1 couplings, sliced batches in locality order took 2.6×
    /// (BOM n=1024) to 2.9× (n=8192) the time of sliced batches in
    /// universe order.
    fn drive_segment_batched(
        &self,
        segment: Range<usize>,
        programs: &[&TestProgram],
        pass: Pass<'_>,
        ctx: &DriveCtx<'_>,
    ) -> SegmentOutcome {
        let trials: Vec<u32> = segment.map(|i| i as u32).collect();
        let sparse = match pass {
            Pass::Full => {
                return self.drive_batches(self.lane_width, &trials, programs, pass, ctx, None)
            }
            Pass::Sliced(_) => self.locality_order(trials),
            Pass::Auto(_) => {
                let set_aside = Mutex::new(Vec::new());
                let outcome = self.drive_batches(
                    self.lane_width,
                    &trials,
                    programs,
                    pass,
                    ctx,
                    Some(&set_aside),
                );
                if outcome != Ok(None) {
                    return outcome;
                }
                let mut sparse = set_aside.into_inner().expect("set-aside lock");
                // Workers append in claim order; restore universe order.
                sparse.sort_unstable();
                sparse
            }
        };
        if sparse.is_empty() {
            return Ok(None);
        }
        let width = self.sliced_width(&sparse);
        self.drive_batches(width, &sparse, programs, pass, ctx, None)
    }

    /// [`Campaign::drive_batches_at`] with the lane width as a value: the
    /// chunk width is a const generic, so the driver is monomorphised per
    /// width and dispatched here.
    fn drive_batches(
        &self,
        width: LaneWidth,
        trials: &[u32],
        programs: &[&TestProgram],
        pass: Pass<'_>,
        ctx: &DriveCtx<'_>,
        set_aside: Option<&Mutex<Vec<u32>>>,
    ) -> SegmentOutcome {
        match width {
            LaneWidth::X64 => self.drive_batches_at::<1>(trials, programs, pass, ctx, set_aside),
            LaneWidth::X256 => self.drive_batches_at::<4>(trials, programs, pass, ctx, set_aside),
            LaneWidth::X512 => self.drive_batches_at::<8>(trials, programs, pass, ctx, set_aside),
        }
    }

    /// Lane-batched fan-out over `trials` (universe indices, in schedule
    /// order): consecutive runs of `LaneRam::<K>::LANES` trials share a
    /// [`LaneRam`] chunk (one interpreter pass per batch per background,
    /// with the cross-background early exit per lane). Every fault family
    /// lane-batches, so there is no scalar remainder. Workers claim
    /// **whole chunks** from a shared counter, so the thread fan-out
    /// composes with the lane width (threads × lanes trials in flight)
    /// while verdicts stay keyed by fault index — bit-identical at any
    /// thread count, width and schedule order. A batch whose interpreter
    /// pass panics **degrades**: its faults retry one-by-one on the
    /// scalar oracle and the degradation counter is bumped — only a retry
    /// that also fails poisons the run.
    ///
    /// Under [`Pass::Auto`] one decision per batch, on its first
    /// background's program, picks the pass for every background (a
    /// bank's background programs share one address schedule). With
    /// `set_aside`, a batch that prefers slicing is not run but appended
    /// there, for [`Campaign::drive_segment_batched`] to slice at a
    /// narrower width.
    fn drive_batches_at<const K: usize>(
        &self,
        trials: &[u32],
        programs: &[&TestProgram],
        pass: Pass<'_>,
        ctx: &DriveCtx<'_>,
        set_aside: Option<&Mutex<Vec<u32>>>,
    ) -> SegmentOutcome {
        // Every panic inside a batch is caught below and degrades, so a
        // failure here is always a retry naming its single fault.
        fan_out(
            self.parallelism,
            0..trials.len(),
            Some(LaneRam::<K>::LANES),
            Some(ctx.control),
            || {
                let ram = LaneRam::<K>::with_ports(self.geom, self.ports);
                (ram.expect("valid port count"), ActiveSet::new())
            },
            |(ram, active), positions| {
                let batch = &trials[positions];
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    self.chaos_batch(batch[0] as usize);
                    let faults = batch.iter().map(|&fi| &self.faults[fi as usize]);
                    let full_pass = match pass {
                        Pass::Full => true,
                        Pass::Sliced(_) => {
                            active.clear();
                            faults.for_each(|f| active.insert_fault(f));
                            false
                        }
                        Pass::Auto(indexes) => active.prefers_full_pass(&indexes[0], faults),
                    };
                    if let (false, Some(set_aside)) = (full_pass, set_aside) {
                        set_aside.lock().expect("set-aside lock").extend_from_slice(batch);
                        return None;
                    }
                    ram.eject_faults();
                    ram.reset_to(0);
                    for (lane, &fi) in batch.iter().enumerate() {
                        ram.inject(self.faults[fi as usize].clone(), lane)
                            .expect("campaign faults are valid");
                    }
                    let full = ram.active_lanes();
                    let mut detected = LaneChunk::<K>::ZERO;
                    for (bi, program) in programs.iter().enumerate() {
                        if bi > 0 {
                            // The per-fault early exit across backgrounds,
                            // lane style: stop once every lane is flagged.
                            if detected == full {
                                break;
                            }
                            ram.reset_to(0);
                        }
                        let slice = match pass {
                            Pass::Sliced(indexes) | Pass::Auto(indexes) if !full_pass => {
                                // The union only grows across backgrounds
                                // (finalize adds each program's forced
                                // cells); a superset union stays exact.
                                active.finalize(&indexes[bi]);
                                Some((&*indexes[bi], &*active))
                            }
                            _ => None,
                        };
                        detected |= program.detect_batch(ram, slice);
                    }
                    Some(detected)
                }));
                match attempt {
                    Ok(Some(detected)) => {
                        for (lane, &fi) in batch.iter().enumerate() {
                            ctx.table[fi as usize].store(detected.get(lane), Ordering::Relaxed);
                            ctx.done[fi as usize].store(true, Ordering::Relaxed);
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        let faults = batch.iter().map(|&fi| fi as usize);
                        let trial = |fi, scalar: &mut Ram| self.run_fault(fi, scalar);
                        degrade(self.geom, self.ports, faults, ctx.degraded, trial, |fi, v| {
                            ctx.table[fi].store(v, Ordering::Relaxed);
                            ctx.done[fi].store(true, Ordering::Relaxed);
                        })?;
                    }
                }
                Ok(ControlFlow::Continue(()))
            },
        )
    }

    /// The compiled programs (one per background) to batch with, when the
    /// campaign is eligible: batching enabled and every background
    /// resolves to a program on this geometry. Multi-port programs are
    /// not special-cased — the batch interpreter runs `CycleN` schedules
    /// natively.
    fn batch_plan(&self) -> Option<Vec<&TestProgram>> {
        if !self.lane_batching {
            return None;
        }
        let programs: Vec<&TestProgram> = self
            .backgrounds
            .iter()
            .map(|&bg| self.runner.batch_program(bg))
            .collect::<Option<_>>()?;
        // Geometry mismatches fall through to the scalar path, which
        // surfaces them with its usual loud panic.
        programs.iter().all(|p| p.geometry() == self.geom).then_some(programs)
    }

    /// The seed's original inner loop — a fresh [`Ram`] allocated per
    /// (fault, background) trial, strictly sequential. Kept as the
    /// differential-testing oracle and the benchmark baseline the pooled
    /// engine is measured against; produces bit-identical verdicts.
    pub fn detections_reference(&self) -> Vec<bool> {
        self.faults
            .iter()
            .map(|fault| {
                for &bg in &self.backgrounds {
                    let mut ram = Ram::with_ports(self.geom, self.ports).expect("valid port count");
                    ram.inject(fault.clone()).expect("campaign faults are valid");
                    if self.runner.detect(&mut ram, bg) {
                        return true;
                    }
                }
                false
            })
            .collect()
    }

    /// Indices of the faults that escaped (were not detected).
    pub fn escapes(&self) -> Vec<usize> {
        self.detections().into_iter().enumerate().filter_map(|(i, d)| (!d).then_some(i)).collect()
    }

    /// Number of detected faults.
    pub fn count_detected(&self) -> usize {
        self.detections().into_iter().filter(|&d| d).count()
    }

    /// Index of the first escaping fault, or `None` when coverage is
    /// complete. Fail-fast: sequential campaigns stop at the first escape;
    /// parallel campaigns stop refining once no smaller index can escape.
    /// The result equals `self.escapes().first()` for any thread count.
    /// Always runs the scalar engine — the fail-fast scan visits a prefix
    /// of the universe, where batch packing would mostly evaluate trials
    /// whose verdicts are then discarded.
    pub fn first_escape(&self) -> Option<usize> {
        let best = AtomicUsize::new(usize::MAX);
        let scan = fan_out(
            self.parallelism,
            0..self.faults.len(),
            None,
            None,
            || Ram::with_ports(self.geom, self.ports).expect("valid port count"),
            |ram, range| {
                for i in range {
                    // Indices past a known escape cannot improve the
                    // minimum; indices below it are all still visited
                    // (units are claimed in increasing order, and running
                    // ones finish), so the final value is the true first
                    // escape.
                    if i >= best.load(Ordering::Relaxed) {
                        break;
                    }
                    ram.eject_faults();
                    ram.reset_to(0);
                    if !self.run_fault(i, ram) {
                        best.fetch_min(i, Ordering::Relaxed);
                        return Ok(ControlFlow::Break(()));
                    }
                }
                Ok(ControlFlow::Continue(()))
            },
        );
        if let Err(e) = scan {
            e.raise();
        }
        let found = best.into_inner();
        (found != usize::MAX).then_some(found)
    }

    /// Runs the campaign and aggregates per-class coverage. The report is
    /// byte-identical to the sequential reference path regardless of the
    /// parallelism policy: workers only fill the per-fault verdict table,
    /// and rows are tallied in enumeration order afterwards.
    ///
    /// # Panics
    ///
    /// Thin wrapper over [`Campaign::try_run`]: configuration errors
    /// panic with the historical loud messages, caught worker panics
    /// resume with their original payload.
    pub fn run(&self) -> CoverageReport {
        self.try_run().unwrap_or_else(|e| e.raise())
    }

    /// The fallible form of [`Campaign::run`]. A run stopped by its
    /// deadline or a cancellation is **not** an error here: it returns
    /// `Ok` with a report explicitly marked partial
    /// ([`CoverageReport::partial`]) whose rows tally the evaluated
    /// universe prefix — detected-so-far plus a cursor instead of
    /// nothing. Lane batches that degraded to the scalar oracle are
    /// counted in [`CoverageReport::degraded_batches`].
    ///
    /// # Errors
    ///
    /// Configuration errors ([`FaultRunner::validate`] and port-pool
    /// validation), [`CampaignError::Checkpoint`] when an armed
    /// checkpoint cannot be saved/loaded or belongs to a different run,
    /// and [`CampaignError::WorkerPanic`] when a trial panicked (with
    /// progress up to the poisoned chunk checkpointed first, when
    /// checkpointing is on).
    pub fn try_run(&self) -> Result<CoverageReport, CampaignError> {
        let progress = self.try_progress()?;
        let mut tally = ClassTally::new();
        for (fault, &detected) in
            self.faults.iter().zip(&progress.verdicts).take(progress.evaluated)
        {
            tally.record(fault.mnemonic(), detected);
        }
        let mut report = tally.into_report(self.name.clone());
        report.set_degraded_batches(progress.degraded_batches);
        if let Some(cause) = progress.stopped {
            report.set_partial(PartialCoverage {
                evaluated: progress.evaluated,
                total: self.faults.len(),
                cause,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prt_ram::UniverseSpec;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// `w0 ⇑(r0) w1 ⇑(r1)`-ish toy test with full SAF coverage.
    fn toy_runner(ram: &mut Ram, _bg: u64) -> bool {
        let n = ram.geometry().cells();
        let mask = ram.geometry().data_mask();
        for a in 0..n {
            ram.write(a, 0);
        }
        for a in 0..n {
            if ram.read(a) != 0 {
                return true;
            }
            ram.write(a, mask);
        }
        (0..n).any(|a| {
            let got = ram.read(a) != mask;
            ram.write(a, 0);
            got
        })
    }

    fn universe() -> FaultUniverse {
        FaultUniverse::enumerate(Geometry::bom(10), &UniverseSpec::full())
    }

    #[test]
    fn parallel_matches_sequential_and_reference() {
        let u = universe();
        let seq =
            Campaign::new(&u, toy_runner).with_parallelism(Parallelism::Sequential).detections();
        let par =
            Campaign::new(&u, toy_runner).with_parallelism(Parallelism::Threads(4)).detections();
        let reference = Campaign::new(&u, toy_runner).detections_reference();
        assert_eq!(seq, par);
        assert_eq!(seq, reference);
    }

    #[test]
    fn reports_identical_across_thread_counts() {
        let u = universe();
        let base = Campaign::new(&u, toy_runner)
            .with_parallelism(Parallelism::Sequential)
            .with_name("toy")
            .run();
        for threads in [2usize, 3, 8] {
            let r = Campaign::new(&u, toy_runner)
                .with_parallelism(Parallelism::Threads(threads))
                .with_name("toy")
                .run();
            assert_eq!(base, r, "threads={threads}");
        }
        assert!(base.class("SAF").unwrap().complete());
    }

    #[test]
    fn multi_background_early_exit() {
        // SAF-only: the toy runner has full stuck-at coverage.
        let u = FaultUniverse::enumerate(
            Geometry::bom(6),
            &UniverseSpec { saf: true, ..UniverseSpec::default() },
        );
        let calls = AtomicUsize::new(0);
        let runner = |ram: &mut Ram, bg: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            // Only background 1 ever detects anything.
            bg == 1 && toy_runner(ram, bg)
        };
        let det = Campaign::new(&u, runner)
            .with_backgrounds(&[1, 0, 0, 0])
            .with_parallelism(Parallelism::Sequential)
            .detections();
        // Every stuck-at is caught on the first background, so exactly one
        // runner call per fault.
        assert!(det.iter().all(|&d| d));
        assert_eq!(calls.load(Ordering::Relaxed), u.len());
    }

    #[test]
    fn backgrounds_reset_state_between_runs() {
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        // A runner that dirties the RAM and detects nothing: the second
        // background must still observe a pristine store.
        let runner = |ram: &mut Ram, bg: u64| {
            if bg == 0 {
                ram.write(0, 1);
                false
            } else {
                ram.read(0) == 1 // dirty state leaked from background 0
            }
        };
        let det = Campaign::new(&u, runner)
            .with_backgrounds(&[0, 1])
            .with_parallelism(Parallelism::Sequential)
            .detections();
        // Cell-0 faults can make the leak check misfire legitimately
        // (SA1@0 reads 1 even on a clean store); every other instance must
        // see a clean device on background 1.
        for (i, d) in det.iter().enumerate() {
            if !matches!(
                u.faults()[i],
                FaultKind::StuckAt { cell: 0, .. } | FaultKind::Transition { cell: 0, .. }
            ) {
                assert!(!d, "fault {i}: state leaked across backgrounds");
            }
        }
    }

    #[test]
    fn escapes_and_first_escape_agree() {
        let u = universe();
        // The same universe behind a run of detected stuck-at faults, so
        // its first escape lies past the first unit at every worker
        // count and the scan must cross unit boundaries to find it.
        let stuck = FaultUniverse::enumerate(
            u.geometry(),
            &UniverseSpec { saf: true, ..UniverseSpec::default() },
        );
        let mut padded = vec![stuck.faults(); MAX_CHUNK.div_ceil(stuck.len())].concat();
        padded.extend_from_slice(u.faults());
        for faults in [u.faults(), &padded] {
            for parallelism in [
                Parallelism::Sequential,
                Parallelism::Threads(2),
                Parallelism::Threads(3),
                Parallelism::Threads(4),
            ] {
                let c =
                    Campaign::over(u.geometry(), faults, toy_runner).with_parallelism(parallelism);
                let escapes = c.escapes();
                assert_eq!(c.first_escape(), escapes.first().copied());
                assert_eq!(c.count_detected(), faults.len() - escapes.len());
            }
        }
        assert!(Campaign::over(u.geometry(), &padded, toy_runner).escapes()[0] >= MAX_CHUNK);
    }

    // ---- the scheduler --------------------------------------------------

    /// Runs `fan_out` over `0..units` one item per unit, counting runs
    /// per unit; `unit` decides each unit's outcome.
    fn fan_out_counting(
        threads: usize,
        units: usize,
        control: Option<&RunControl>,
        unit: impl Fn(usize) -> Result<ControlFlow<()>, CampaignError> + Sync,
    ) -> (Result<Option<StopCause>, CampaignError>, Vec<usize>) {
        let runs: Vec<AtomicUsize> = (0..units).map(|_| AtomicUsize::new(0)).collect();
        let outcome = fan_out(
            Parallelism::Threads(threads),
            0..units,
            Some(1),
            control,
            || (),
            |(), range| {
                runs[range.start].fetch_add(1, Ordering::Relaxed);
                unit(range.start)
            },
        );
        (outcome, runs.into_iter().map(AtomicUsize::into_inner).collect())
    }

    #[test]
    fn fan_out_runs_every_unit_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            for units in [0usize, 1, 7, 65] {
                let (outcome, runs) =
                    fan_out_counting(threads, units, None, |_| Ok(ControlFlow::Continue(())));
                assert_eq!(outcome, Ok(None), "threads={threads} units={units}");
                assert!(runs.iter().all(|&r| r == 1), "threads={threads} units={units}: {runs:?}");
            }
        }
        // Balanced chunking tiles the range too, starting anywhere.
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let outcome = fan_out(
            Parallelism::Threads(3),
            100..1000,
            None,
            None,
            || (),
            |(), range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
                Ok(ControlFlow::Continue(()))
            },
        );
        assert_eq!(outcome, Ok(None));
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), usize::from(i >= 100), "item {i}");
        }
    }

    #[test]
    fn single_worker_runs_units_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let outcome = fan_out(
            Parallelism::Threads(1),
            0..20,
            Some(3),
            None,
            || (),
            |(), range| {
                assert_eq!(std::thread::current().id(), caller, "no thread may be spawned");
                order.lock().unwrap().push(range);
                Ok(ControlFlow::Continue(()))
            },
        );
        assert_eq!(outcome, Ok(None));
        let expected: Vec<Range<usize>> =
            (0..20).step_by(3).map(|lo| lo..(lo + 3).min(20)).collect();
        assert_eq!(order.into_inner().unwrap(), expected);
    }

    #[test]
    fn fired_cancel_token_runs_no_unit() {
        let token = CancelToken::new();
        token.cancel();
        let control = RunControl::new(None, Some(token));
        for threads in [1usize, 3] {
            let (outcome, runs) =
                fan_out_counting(threads, 65, Some(&control), |_| Ok(ControlFlow::Continue(())));
            assert_eq!(outcome, Ok(Some(StopCause::Cancelled)), "threads={threads}");
            assert!(runs.iter().all(|&r| r == 0), "threads={threads}: {runs:?}");
        }
    }

    /// Worker state that, when its worker exits, waits on `exited` if
    /// it ran the stopping unit.
    struct Stopper<'b> {
        ran_stop: bool,
        exited: &'b Barrier,
    }

    impl Drop for Stopper<'_> {
        fn drop(&mut self) {
            if self.ran_stop {
                self.exited.wait();
            }
        }
    }

    /// Four workers each hold one of units `0..4`; unit 0 then runs
    /// `stop`, and units 1–3 finish only once unit 0's worker has exited.
    /// Returns the outcome and the runs per unit of `0..100`.
    fn stop_with_units_in_flight(
        stop: impl Fn() -> Result<ControlFlow<()>, CampaignError> + Sync,
    ) -> (Result<Option<StopCause>, CampaignError>, Vec<usize>) {
        const WORKERS: usize = 4;
        let (in_flight, exited) = (Barrier::new(WORKERS), Barrier::new(WORKERS));
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let outcome = fan_out(
            Parallelism::Threads(WORKERS),
            0..100,
            Some(1),
            None,
            || Stopper { ran_stop: false, exited: &exited },
            |state, range| {
                let u = range.start;
                runs[u].fetch_add(1, Ordering::Relaxed);
                if u < WORKERS {
                    in_flight.wait();
                    if u == 0 {
                        state.ran_stop = true;
                        return stop();
                    }
                    exited.wait();
                }
                Ok(ControlFlow::Continue(()))
            },
        );
        (outcome, runs.into_iter().map(AtomicUsize::into_inner).collect())
    }

    /// One run for each of units `0..=last` of `0..units`.
    fn ran_through(last: usize, units: usize) -> Vec<usize> {
        (0..units).map(|u| usize::from(u <= last)).collect()
    }

    #[test]
    fn break_stops_new_claims() {
        // One worker: exactly the prefix up to the breaking unit runs.
        let (outcome, runs) = fan_out_counting(1, 65, None, |u| {
            Ok(if u == 5 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) })
        });
        assert_eq!(outcome, Ok(None), "a break is not a failure");
        assert_eq!(runs, ran_through(5, 65));
        // Several workers: the units already running finish, and none
        // is claimed after the break.
        let (outcome, runs) = stop_with_units_in_flight(|| Ok(ControlFlow::Break(())));
        assert_eq!(outcome, Ok(None));
        assert_eq!(runs, ran_through(3, 100));
    }

    #[test]
    fn caught_panic_stops_claims_and_names_its_unit() {
        // One worker: the first of two panicking units is reported.
        let (outcome, runs) = fan_out_counting(1, 65, None, |u| {
            if u == 3 || u == 9 {
                panic!("unit {u} failed");
            }
            Ok(ControlFlow::Continue(()))
        });
        assert_eq!(
            outcome,
            Err(CampaignError::WorkerPanic { chunk: (3, 4), payload: "unit 3 failed".into() })
        );
        assert_eq!(runs, ran_through(3, 65));
        // Several workers: the panic is reported with its own unit's
        // range, and no unit is claimed after it.
        let (outcome, runs) = stop_with_units_in_flight(|| panic!("unit 0 failed"));
        assert_eq!(
            outcome,
            Err(CampaignError::WorkerPanic { chunk: (0, 1), payload: "unit 0 failed".into() })
        );
        assert_eq!(runs, ran_through(3, 100));
    }

    #[test]
    fn complete_campaign_has_no_first_escape() {
        let u = FaultUniverse::enumerate(
            Geometry::bom(8),
            &UniverseSpec { saf: true, ..UniverseSpec::default() },
        );
        let c = Campaign::new(&u, toy_runner).with_parallelism(Parallelism::Threads(3));
        assert_eq!(c.first_escape(), None);
        assert!(c.run().complete());
    }

    #[test]
    fn over_subset_campaign() {
        let u = universe();
        let all = Campaign::new(&u, toy_runner);
        let escapes = all.escapes();
        let escaped: Vec<FaultKind> = escapes.iter().map(|&i| u.faults()[i].clone()).collect();
        let sub = Campaign::over(u.geometry(), &escaped, toy_runner);
        assert_eq!(sub.len(), escaped.len());
        assert!(!sub.is_empty());
        assert_eq!(sub.count_detected(), 0, "escapes must still escape");
    }

    #[test]
    fn map_trials_collects_values_in_order() {
        // The generic campaign mode: per-trial measurements, not just
        // verdict bits — deterministic for any thread count.
        let seq = map_trials(Geometry::bom(4), 1, 200, Parallelism::Sequential, |i, ram| {
            ram.write(0, (i % 2) as u64);
            ram.read(0) + 10 * i as u64
        });
        for threads in [2usize, 4, 7] {
            let par =
                map_trials(Geometry::bom(4), 1, 200, Parallelism::Threads(threads), |i, ram| {
                    ram.write(0, (i % 2) as u64);
                    ram.read(0) + 10 * i as u64
                });
            assert_eq!(seq, par, "threads={threads}");
        }
        for (i, v) in seq.iter().enumerate() {
            assert_eq!(*v, (i % 2) as u64 + 10 * i as u64, "trial {i}");
        }
    }

    #[test]
    fn map_trials_batched_matches_scalar_map() {
        // The lane-sliced measurement mode must produce, fault for fault,
        // the same values as an all-scalar map_trials sweep, for any
        // thread count — over the full universe (every family batches).
        let u = universe();
        let prog = toy_program(u.geometry());
        let scalar: Vec<bool> =
            map_trials(u.geometry(), 1, u.len(), Parallelism::Sequential, |i, ram| {
                ram.inject(u.faults()[i].clone()).expect("valid");
                prog.detect(ram)
            });
        for threads in [1usize, 3, 7] {
            let batched = map_trials_batched(
                u.geometry(),
                1,
                u.faults(),
                Parallelism::Threads(threads),
                |lanes: &mut LaneRam, out: &mut Vec<bool>| {
                    let verdicts = prog.detect_batch(lanes, None);
                    for lane in 0..lanes.active_lanes().count_ones() as usize {
                        out.push(verdicts.get(lane));
                    }
                },
                |_, ram| prog.detect(ram),
            );
            assert_eq!(scalar, batched, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "one result per injected lane")]
    fn map_trials_batched_rejects_wrong_result_count() {
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let _ = map_trials_batched(
            u.geometry(),
            1,
            u.faults(),
            Parallelism::Sequential,
            |_lanes: &mut LaneRam, out: &mut Vec<bool>| out.push(true), // too few
            |_, _| true,
        );
    }

    #[test]
    fn run_trials_verdict_order() {
        let det: Vec<bool> =
            map_trials(Geometry::bom(4), 1, 100, Parallelism::Threads(4), |i, _ram| i % 3 == 0);
        for (i, d) in det.iter().enumerate() {
            assert_eq!(*d, i % 3 == 0, "trial {i}");
        }
    }

    /// The toy runner, compiled to the IR once for a given geometry.
    fn toy_program(geom: Geometry) -> TestProgram {
        let mut b = prt_ram::ProgramBuilder::new(geom).with_name("toy compiled");
        let n = geom.cells();
        let mask = geom.data_mask();
        for a in 0..n {
            b.write(a, 0);
        }
        for a in 0..n {
            b.read_expect(a, 0);
            b.write(a, mask);
        }
        for a in 0..n {
            b.read_expect(a, mask);
            b.write(a, 0);
        }
        b.build()
    }

    #[test]
    fn compiled_program_campaign_matches_interpreted() {
        let u = universe();
        let prog = toy_program(u.geometry());
        let interpreted = Campaign::new(&u, toy_runner).detections();
        let compiled = Campaign::new(&u, &prog).detections();
        assert_eq!(interpreted, compiled);
        for threads in [2usize, 5] {
            let par = Campaign::new(&u, &prog)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            assert_eq!(compiled, par, "threads={threads}");
        }
    }

    #[test]
    fn lane_batched_campaign_matches_scalar_engine() {
        // The full() universe mixes batchable (SAF/TF/CF…) and
        // scalar-only (AF/SOF/RDF…) families, so the partition and the
        // remainder path are both exercised. Verdicts must be identical
        // to the scalar engine for any thread count.
        let u = universe();
        let prog = toy_program(u.geometry());
        let scalar = Campaign::new(&u, &prog)
            .with_lane_batching(false)
            .with_parallelism(Parallelism::Sequential)
            .detections();
        for parallelism in
            [Parallelism::Sequential, Parallelism::Threads(3), Parallelism::Threads(7)]
        {
            let batched = Campaign::new(&u, &prog).with_parallelism(parallelism).detections();
            assert_eq!(scalar, batched, "{parallelism:?}");
        }
        // The aggregated report is identical too.
        let a = Campaign::new(&u, &prog).with_name("toy").run();
        let b = Campaign::new(&u, &prog).with_name("toy").with_lane_batching(false).run();
        assert_eq!(a, b);
    }

    #[test]
    fn lane_batched_multi_background_matches_scalar() {
        let geom = Geometry::wom(6, 4).expect("geometry");
        let u = FaultUniverse::enumerate(
            geom,
            &UniverseSpec { intra_word: true, ..UniverseSpec::full() },
        );
        let bgs = [0u64, 0b0101];
        let bank = ProgramBank::new(bgs.map(|bg| {
            let mut b = prt_ram::ProgramBuilder::new(geom).with_background(bg);
            for a in 0..6 {
                b.write(a, bg);
            }
            for a in 0..6 {
                b.read_expect(a, bg);
                b.write(a, bg ^ 0xF);
            }
            for a in 0..6 {
                b.read_expect(a, bg ^ 0xF);
            }
            (bg, b.build())
        }));
        let scalar =
            Campaign::new(&u, &bank).with_backgrounds(&bgs).with_lane_batching(false).detections();
        for threads in [1usize, 4] {
            let batched = Campaign::new(&u, &bank)
                .with_backgrounds(&bgs)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            assert_eq!(scalar, batched, "threads={threads}");
        }
    }

    #[test]
    fn interpreted_runners_have_no_batch_plan() {
        // A closure runner exposes no compiled program: the batch path
        // must decline and the scalar engine must serve the verdicts.
        let u = universe();
        let c = Campaign::new(&u, toy_runner);
        assert!(c.batch_plan().is_none());
        assert_eq!(c.detections(), Campaign::new(&u, toy_runner).detections_reference());
    }

    #[test]
    fn multi_port_programs_batch_too() {
        // Multi-port π schedules used to fall through to the scalar
        // remainder; the CycleN batch interpreter now covers them, so the
        // batch plan claims every fault and the verdicts still match the
        // scalar engine.
        let geom = Geometry::bom(4);
        let mut b = prt_ram::ProgramBuilder::new(geom);
        b.cycle2(
            prt_ram::SlotOp::ReadExpect { addr: 0, expect: 0 },
            prt_ram::SlotOp::Write { addr: 2, data: 1 },
        );
        b.cycle2(prt_ram::SlotOp::ReadExpect { addr: 2, expect: 1 }, prt_ram::SlotOp::Idle);
        let prog = b.build();
        let faults = [
            FaultKind::StuckAt { cell: 0, bit: 0, value: 1 },
            FaultKind::StuckAt { cell: 3, bit: 0, value: 1 },
        ];
        let c = Campaign::over(geom, &faults, &prog).with_ports(2);
        let plan = c.batch_plan().expect("dual-port programs batch now");
        assert_eq!(plan.len(), 1, "one background, one compiled program");
        assert_eq!(c.detections(), vec![true, false]);
        let scalar = Campaign::over(geom, &faults, &prog).with_ports(2).with_lane_batching(false);
        assert_eq!(scalar.detections(), vec![true, false]);
    }

    #[test]
    fn program_bank_dispatches_by_background() {
        use std::sync::atomic::AtomicUsize;
        let geom = Geometry::bom(6);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
        let bank = ProgramBank::new([(0u64, toy_program(geom))]);
        assert_eq!(bank.backgrounds(), vec![0]);
        assert!(bank.program(0).is_some() && bank.program(1).is_none());
        let report = Campaign::new(&u, &bank).with_name("bank").run();
        let verdict_count = AtomicUsize::new(0);
        let interpreted = Campaign::new(&u, |ram: &mut Ram, bg: u64| {
            verdict_count.fetch_add(1, Ordering::Relaxed);
            toy_runner(ram, bg)
        })
        .with_name("bank")
        .run();
        assert_eq!(report, interpreted);
        assert_eq!(verdict_count.load(Ordering::Relaxed), u.len());
    }

    #[test]
    #[should_panic(expected = "no program compiled for background")]
    fn program_bank_rejects_unknown_background() {
        let geom = Geometry::bom(4);
        let bank = ProgramBank::new([(0u64, toy_program(geom))]);
        let mut ram = Ram::new(geom);
        let _ = (&bank).detect(&mut ram, 7);
    }

    #[test]
    #[should_panic(expected = "campaign geometry does not match")]
    fn compiled_runner_rejects_wrong_geometry() {
        let prog = toy_program(Geometry::bom(8));
        let mut ram = Ram::new(Geometry::bom(4));
        let _ = FaultRunner::detect(&&prog, &mut ram, 0);
    }

    #[test]
    #[should_panic(expected = "needs 2 ports")]
    fn compiled_runner_rejects_port_shortfall() {
        let geom = Geometry::bom(4);
        let mut b = prt_ram::ProgramBuilder::new(geom).with_name("dual");
        b.cycle2(prt_ram::SlotOp::ReadExpect { addr: 0, expect: 0 }, prt_ram::SlotOp::Idle);
        let prog = b.build();
        let mut ram = Ram::new(geom);
        let _ = FaultRunner::detect(&&prog, &mut ram, 0);
    }

    #[test]
    #[should_panic(expected = "does not match the background")]
    fn compiled_runner_rejects_background_mismatch() {
        let geom = Geometry::bom(4);
        let mut b = prt_ram::ProgramBuilder::new(geom).with_background(0);
        b.read_expect(0, 0);
        let prog = b.build();
        let mut ram = Ram::new(geom);
        let _ = FaultRunner::detect(&&prog, &mut ram, 1);
    }

    #[test]
    fn empty_campaign() {
        let faults: Vec<FaultKind> = Vec::new();
        let c = Campaign::over(Geometry::bom(4), &faults, toy_runner);
        assert!(c.is_empty());
        assert!(c.detections().is_empty());
        assert_eq!(c.first_escape(), None);
        assert!(c.run().complete());
    }

    // ---- resilience -----------------------------------------------------

    use std::sync::Arc;

    /// A fresh checkpoint path in the system temp dir (removed upfront so
    /// every test starts cold).
    fn temp_ckpt(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("prt-sim-unit-{}-{name}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn wrong_geometry_program_is_a_typed_error() {
        // The same misconfiguration that panics the legacy wrapper is a
        // typed CampaignError on the fallible path — caught *before* any
        // worker spawns.
        let u = FaultUniverse::enumerate(Geometry::bom(4), &UniverseSpec::single_cell());
        let prog = toy_program(Geometry::bom(8));
        let err = Campaign::new(&u, &prog).try_detections().unwrap_err();
        assert!(
            matches!(err, CampaignError::GeometryMismatch { .. }),
            "expected GeometryMismatch, got {err:?}"
        );
        assert!(err.to_string().contains("campaign geometry does not match"));
    }

    #[test]
    fn unknown_background_is_a_typed_error() {
        let geom = Geometry::bom(4);
        let u = FaultUniverse::enumerate(geom, &UniverseSpec::single_cell());
        let bank = ProgramBank::new([(0u64, toy_program(geom))]);
        let err = Campaign::new(&u, &bank).with_backgrounds(&[0, 7]).try_run().unwrap_err();
        assert_eq!(err, CampaignError::UnknownBackground { background: 7 });
    }

    #[test]
    fn cancelled_before_start_yields_empty_partial_report() {
        let u = universe();
        let token = CancelToken::new();
        token.cancel();
        let report = Campaign::new(&u, toy_runner).with_cancel(&token).try_run().expect("partial");
        let partial = report.partial().expect("must be marked partial");
        assert_eq!(partial.cause, StopCause::Cancelled);
        assert_eq!(partial.evaluated, 0);
        assert_eq!(partial.total, u.len());
        assert!(!report.complete());
        assert!(report.rows().is_empty());
        // The verdict-vector driver cannot return a partial vector: typed
        // error instead.
        let err = Campaign::new(&u, toy_runner).with_cancel(&token).try_detections().unwrap_err();
        assert_eq!(err, CampaignError::Cancelled { completed: 0, total: u.len() });
    }

    #[test]
    fn zero_deadline_yields_partial_report() {
        let u = universe();
        let report =
            Campaign::new(&u, toy_runner).with_deadline(Duration::ZERO).try_run().expect("partial");
        let partial = report.partial().expect("must be marked partial");
        assert_eq!(partial.cause, StopCause::DeadlineExceeded);
        assert_eq!(partial.evaluated, 0);
        match Campaign::new(&u, toy_runner).with_deadline(Duration::ZERO).try_detections() {
            Err(CampaignError::DeadlineExceeded { completed: 0, .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        };
    }

    #[test]
    fn killed_scalar_campaign_resumes_bit_identically() {
        // The acceptance scenario: a worker dies mid-run, the run errors
        // with WorkerPanic after checkpointing its progress, and a resumed
        // campaign — at any thread count — produces a report bit-identical
        // to an uninterrupted run.
        let u = universe();
        let uninterrupted = Campaign::new(&u, toy_runner).with_name("toy").run();
        let kill_at = u.len() / 2;
        for (round, threads) in [1usize, 3, 7].into_iter().enumerate() {
            let path = temp_ckpt(&format!("kill-resume-{round}"));
            let plan = Arc::new(chaos::ChaosPlan::new().panic_on_trial(kill_at));
            let err = Campaign::new(&u, toy_runner)
                .with_name("toy")
                .with_parallelism(Parallelism::Threads(threads))
                .with_checkpoint(&path, 16)
                .with_chaos(plan)
                .try_run()
                .unwrap_err();
            match &err {
                CampaignError::WorkerPanic { payload, .. } => {
                    assert!(payload.contains("chaos: injected panic"), "payload: {payload}")
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            // The checkpoint captured a strict prefix of the universe.
            let fp = checkpoint::peek_fingerprint(&path).expect("checkpoint exists");
            let saved = checkpoint::load_records::<bool>(&path, fp, u.len())
                .expect("valid checkpoint")
                .expect("not cold");
            assert!(saved.len() < u.len(), "kill must leave an incomplete checkpoint");
            // Resume with a different thread count than the killed run.
            let resumed = Campaign::new(&u, toy_runner)
                .with_name("toy")
                .with_parallelism(Parallelism::Threads(threads + 1))
                .with_checkpoint(&path, 16)
                .run();
            assert_eq!(uninterrupted, resumed, "threads={threads}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn panicking_batch_degrades_to_scalar_oracle() {
        // A lane batch that dies must not kill the campaign: its faults
        // retry on the scalar oracle, verdicts stay exact, and the report
        // carries a degradation counter instead of an error.
        let u = universe();
        let prog = toy_program(u.geometry());
        let clean = Campaign::new(&u, &prog).with_name("toy").run();
        assert_eq!(clean.degraded_batches(), 0);
        // Every fault lane-batches, so the first universe index anchors
        // the first batch.
        let plan = Arc::new(chaos::ChaosPlan::new().panic_on_batch(0));
        let degraded = Campaign::new(&u, &prog).with_name("toy").with_chaos(plan).run();
        assert!(degraded.degraded_batches() >= 1, "batch kill must be counted");
        assert!(degraded.partial().is_none(), "degradation is not a partial run");
        assert_eq!(clean.rows(), degraded.rows(), "degraded verdicts must stay exact");
    }

    #[test]
    fn chaos_cancellation_stops_mid_campaign() {
        let u = universe();
        let token = CancelToken::new();
        let plan = Arc::new(chaos::ChaosPlan::new().cancel_after(u.len() / 2, &token));
        let report = Campaign::new(&u, toy_runner)
            .with_parallelism(Parallelism::Sequential)
            .with_cancel(&token)
            .with_chaos(plan)
            .try_run()
            .expect("partial");
        let partial = report.partial().expect("must be marked partial");
        assert_eq!(partial.cause, StopCause::Cancelled);
        assert!(partial.evaluated < u.len());
    }

    #[test]
    fn foreign_checkpoint_is_refused() {
        let u = universe();
        let path = temp_ckpt("foreign");
        // A completed campaign keeps its checkpoint file (cursor == total).
        let first = Campaign::new(&u, toy_runner).with_checkpoint(&path, 32).run();
        assert!(first.partial().is_none(), "uninterrupted run must not be partial");
        // A campaign with different backgrounds has a different verdict
        // table: adopting the old file silently would be corruption.
        let err = Campaign::new(&u, toy_runner)
            .with_backgrounds(&[0, 1])
            .with_checkpoint(&path, 32)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "expected FingerprintMismatch, got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_refuses_resume_under_different_topology() {
        let u = universe();
        let n = u.geometry().cells();
        let scramble = Topology::identity(n).then_table((0..n).rev().collect()).unwrap();
        let path = temp_ckpt("topology");
        let first = Campaign::new(&u, toy_runner)
            .with_topology(scramble.clone())
            .with_checkpoint(&path, 32)
            .run();
        assert!(first.partial().is_none());
        // Same faults, same geometry — but the file declares a scramble,
        // so an identity-topology campaign must not adopt it...
        let err = Campaign::new(&u, toy_runner).with_checkpoint(&path, 32).try_run().unwrap_err();
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "identity resume of a scrambled checkpoint must be refused, got {err:?}"
        );
        // ...nor may a campaign under a *different* scramble.
        let other = Topology::generate(n, 7);
        assert_ne!(other, scramble, "seed 7 must generate a distinct topology");
        let err = Campaign::new(&u, toy_runner)
            .with_topology(other)
            .with_checkpoint(&path, 32)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "cross-scramble resume must be refused, got {err:?}"
        );
        // The declared topology re-admits its own checkpoint.
        let again = Campaign::new(&u, toy_runner)
            .with_topology(scramble)
            .with_checkpoint(&path, 32)
            .try_run()
            .expect("same-topology resume must succeed");
        assert_eq!(first.rows(), again.rows());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_segments_tile_and_match_detections() {
        // The streaming sink must see in-order, gap-free segments whose
        // concatenated verdicts equal the terminal verdict table — on
        // both engines — and hooking must not perturb the report.
        let u = universe();
        let prog = toy_program(u.geometry());
        for batching in [true, false] {
            let oracle = Campaign::new(&u, &prog).with_lane_batching(batching).detections();
            let seen: Mutex<Vec<(usize, usize, Vec<bool>)>> = Mutex::new(Vec::new());
            let report = Campaign::new(&u, &prog)
                .with_lane_batching(batching)
                .with_progress(7, |seg: SegmentProgress<'_>| {
                    seen.lock().unwrap().push((seg.start, seg.end, seg.verdicts.to_vec()));
                })
                .run();
            assert!(report.partial().is_none());
            let seen = seen.into_inner().unwrap();
            let mut cursor = 0;
            let mut streamed = Vec::new();
            for (start, end, verdicts) in &seen {
                assert_eq!(*start, cursor, "segments must tile without gaps");
                assert!(end > start && end - start <= 7, "segment cadence respected");
                assert_eq!(verdicts.len(), end - start);
                streamed.extend_from_slice(verdicts);
                cursor = *end;
            }
            assert_eq!(cursor, u.len(), "segments must cover the whole universe");
            assert_eq!(streamed, oracle, "streamed verdicts must equal the verdict table");
        }
    }

    #[test]
    fn resumed_progress_reports_restored_prefix() {
        // A hooked campaign resuming from a checkpoint announces the
        // restored prefix as one leading segment: sinks always see a
        // tiling of [0, total), even across a restart.
        let u = universe();
        let path = temp_ckpt("progress-resume");
        let token = CancelToken::new();
        let plan = Arc::new(chaos::ChaosPlan::new().cancel_after(u.len() / 2, &token));
        let _ = Campaign::new(&u, toy_runner)
            .with_parallelism(Parallelism::Sequential)
            .with_cancel(&token)
            .with_checkpoint(&path, 8)
            .with_chaos(plan)
            .try_run()
            .expect("partial run");
        let segments: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let resumed = Campaign::new(&u, toy_runner)
            .with_checkpoint(&path, 8)
            .with_progress(8, |seg: SegmentProgress<'_>| {
                segments.lock().unwrap().push((seg.start, seg.end));
            })
            .run();
        assert!(resumed.partial().is_none());
        let segments = segments.into_inner().unwrap();
        assert!(segments[0].0 == 0 && segments[0].1 > 0, "restored prefix must be announced");
        let mut cursor = 0;
        for (start, end) in &segments {
            assert_eq!(*start, cursor);
            cursor = *end;
        }
        assert_eq!(cursor, u.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        // Segmenting the universe for checkpoints must not change the
        // verdicts — scalar and lane-batched engines alike.
        let u = universe();
        let prog = toy_program(u.geometry());
        let plain = Campaign::new(&u, &prog).with_name("toy").run();
        let path = temp_ckpt("segmented");
        let segmented = Campaign::new(&u, &prog).with_name("toy").with_checkpoint(&path, 10).run();
        assert_eq!(plain, segmented);
        let _ = std::fs::remove_file(&path);
    }
}
