//! The compiled memory-test program IR.
//!
//! Every test family in this workspace — March tests, π-tests, PRT schemes
//! and bit-plane schemes — ultimately reduces to a fixed, data-independent
//! sequence of memory operations whose *values* are known at configuration
//! time (the fault-free LFSR sequences, March backgrounds and stale-cell
//! expectations are all precomputable). The historical runners re-derived
//! that sequence from their high-level notation on **every fault trial**:
//! a campaign over 10⁵–10⁶ faults paid the trajectory materialisation,
//! field clones and coefficient normalisation 10⁵–10⁶ times.
//!
//! [`TestProgram`] is the compile-once alternative: a flat sequence of
//! typed [`MemOp`]s plus a table of GF(2)-linear maps, executed by one
//! allocation-free interpreter ([`TestProgram::execute`] /
//! [`TestProgram::detect`]) that drives a [`Ram`] through
//! [`Ram::read`] / [`Ram::write`] / [`Ram::cycle_ref`].
//!
//! # Execution model
//!
//! The interpreter owns [`ACC_LANES`] `u64` *accumulator lanes* (one per
//! concurrently running automaton — the quad-port multi-LFSR scheme drives
//! two). Data-dependent tests (the π-wave, whose writes combine previous
//! **actual** read values so that errors propagate to the signature)
//! compile to [`MemOp::AccSet`] / [`MemOp::ReadAcc`] / [`MemOp::WriteAcc`]:
//! each `ReadAcc` XORs a linear image of the value read into its lane.
//! Multiplication by a constant `c` in GF(2^m) is GF(2)-linear in its
//! operand, so `c·v` is exactly the XOR of per-bit masks `c·z^j` over the
//! set bits `j` of `v` — the interpreter needs **no field arithmetic**,
//! only the precompiled mask table, and reproduces the interpreted
//! runners' results bit-for-bit (property-tested).
//!
//! Checked reads come in three flavours that feed two error channels:
//!
//! * [`MemOp::ReadExpect`] — verdict channel (a March `r d`, a readback
//!   sweep),
//! * [`MemOp::ReadCapture`] — verdict channel *and* records the value read
//!   (the π-test's `Fin` cells),
//! * [`MemOp::ReadStale`] — stale channel (pre-read mode's check of the
//!   previous iteration's leftovers).
//!
//! Every checked read is also a **response observation**: the diagnosis
//! layer (`prt-diag`) taps the observed stream through
//! [`TestProgram::execute_observed`] and compacts it into a MISR
//! signature, with the fault-free reference stream available without a
//! device from [`TestProgram::expected_responses`].
//!
//! # Multi-port slots
//!
//! [`MemOp::CycleN`] issues up to [`MAX_PORTS`] [`SlotOp`]s in **one**
//! device cycle via [`Ram::cycle_ref`] (slot position = port index, so
//! idle slots keep the port assignment of the source schedule). Reads
//! observe the pre-cycle state and writes commit after all reads (the
//! device contract), which is what makes the dual-port *pre-read*
//! transformation free: a stale check and the wave write of the same cell
//! fuse into a single cycle.
//!
//! # Lane-batched execution
//!
//! [`TestProgram::detect_batch`] (verdicts, early exit) and
//! [`TestProgram::execute_batch_observed`] (per-lane summaries and the
//! observed response planes, no early exit) run one program against up
//! to `64·K` fault trials on a [`LaneRam`]. Both take an optional
//! activity slice: `None` steps every op (the full pass), `Some((index,
//! active))` steps only the ops the chunk's faults can disturb and
//! splices in the fault-free reference for the rest (the sliced pass).
//! Behind both sits one walk and one op step, generic over what the
//! pass records, so the batch op semantics — the accumulator's
//! per-plane GF(2) map step included — are written once. The scalar
//! interpreter stays separate: it is the oracle the batch passes are
//! property-tested against.
//!
//! # Example
//!
//! ```
//! use prt_ram::prog::ProgramBuilder;
//! use prt_ram::{FaultKind, Geometry, Ram};
//!
//! // A two-op "program": write 1, read it back.
//! let mut b = ProgramBuilder::new(Geometry::bom(4));
//! b.write(2, 1);
//! b.read_expect(2, 1);
//! let prog = b.build();
//!
//! let mut good = Ram::new(Geometry::bom(4));
//! assert!(!prog.detect(&mut good));
//! let mut bad = Ram::new(Geometry::bom(4));
//! bad.inject(FaultKind::StuckAt { cell: 2, bit: 0, value: 0 })?;
//! assert!(prog.detect(&mut bad));
//! # Ok::<(), prt_ram::RamError>(())
//! ```

use crate::batch::{lane_word, LaneChunk, LaneRam};
use crate::slice::{ActiveSet, ActivityIndex, NO_READ};
use crate::{Geometry, PortOp, Ram, RamError, MAX_PORTS};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Lazily-built cache of the program's [`ActivityIndex`]. The index is a
/// pure function of the program, so the cache is transparent: equality
/// ignores it, and clones taken after the first build share the built
/// index through the `Arc`.
#[derive(Default)]
struct ActivityCache(OnceLock<Arc<ActivityIndex>>);

impl Clone for ActivityCache {
    fn clone(&self) -> ActivityCache {
        ActivityCache(self.0.clone())
    }
}

impl std::fmt::Debug for ActivityCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately constant: program Debug output feeds checkpoint
        // fingerprints and service cache keys, which must not change when
        // the lazy index happens to build.
        f.write_str("ActivityCache")
    }
}

impl PartialEq for ActivityCache {
    fn eq(&self, _other: &ActivityCache) -> bool {
        true
    }
}

impl Eq for ActivityCache {}

/// Number of independent accumulator lanes the interpreter provides (one
/// per concurrently running automaton; the §4 multi-LFSR quad-port scheme
/// uses two).
pub const ACC_LANES: usize = 4;

/// Per-accumulator-lane bit-plane images (one plane set per trial lane)
/// of the batch interpreters.
type AccPlanes<const K: usize> = [[LaneChunk<K>; Geometry::MAX_WIDTH as usize]; ACC_LANES];

/// Per-port buffered read planes of one batched multi-port cycle.
type ReadPlanes<const K: usize> = [[LaneChunk<K>; Geometry::MAX_WIDTH as usize]; MAX_PORTS];

/// The interpreter state of one batch walk: accumulator and buffered
/// read planes plus the flagged and frozen lane masks.
struct BatchState<const K: usize> {
    acc: AccPlanes<K>,
    reads: ReadPlanes<K>,
    detected: LaneChunk<K>,
    errored: LaneChunk<K>,
}

/// What a batch walk does beyond driving the device and the lane masks —
/// the whole difference between [`TestProgram::detect_batch`]
/// ([`Detect`]) and [`TestProgram::execute_batch_observed`]
/// ([`Observe`]).
trait BatchSink<const K: usize> {
    /// Whether the walk stops once every active lane is flagged or frozen.
    const EARLY_EXIT: bool;
    /// One device cycle carrying `ops` reads and writes.
    fn cycle(&mut self, ops: u64);
    /// One checked read of op `op_index`: `planes` as read, `diff` the
    /// unfrozen lanes whose word differed from `expected`.
    fn checked(
        &mut self,
        planes: &[LaneChunk<K>],
        diff: LaneChunk<K>,
        stale: bool,
        op_index: usize,
        addr: u32,
        expected: u64,
    );
    /// The ops in `gap`, skipped by a sliced walk.
    fn skipped(&mut self, index: &ActivityIndex, gap: Range<u32>);
}

/// The detect sink: verdict masks only, early exit.
struct Detect;

impl<const K: usize> BatchSink<K> for Detect {
    const EARLY_EXIT: bool = true;
    #[inline]
    fn cycle(&mut self, _: u64) {}
    #[inline]
    fn checked(&mut self, _: &[LaneChunk<K>], _: LaneChunk<K>, _: bool, _: usize, _: u32, _: u64) {}
    #[inline]
    fn skipped(&mut self, _: &ActivityIndex, _: Range<u32>) {}
}

/// The observed sink: counts ops and cycles, books per-lane mismatches,
/// and feeds the observer every checked read — the reference response
/// for a read a sliced walk skipped.
struct Observe<'a, const K: usize> {
    execs: &'a mut [Execution],
    observer: &'a mut dyn FnMut(&[LaneChunk<K>]),
    ops: u64,
    cycles: u64,
    /// Word width: the number of planes in a response.
    width: usize,
    /// Scratch planes for broadcast reference responses.
    gap: [LaneChunk<K>; Geometry::MAX_WIDTH as usize],
}

impl<const K: usize> BatchSink<K> for Observe<'_, K> {
    const EARLY_EXIT: bool = false;

    fn cycle(&mut self, ops: u64) {
        self.ops += ops;
        self.cycles += 1;
    }

    /// Each mismatching lane gets its channel counter bumped and, for the
    /// verdict channel, its first mismatch recorded with the lane's own
    /// de-sliced word.
    fn checked(
        &mut self,
        planes: &[LaneChunk<K>],
        diff: LaneChunk<K>,
        stale: bool,
        op_index: usize,
        addr: u32,
        expected: u64,
    ) {
        (self.observer)(planes);
        diff.for_each_lane(|lane| {
            let e = &mut self.execs[lane];
            if stale {
                e.stale_errors += 1;
            } else {
                e.mismatches += 1;
                if e.first_mismatch.is_none() {
                    let got = lane_word(planes, lane);
                    e.first_mismatch =
                        Some(OpMismatch { op_index, addr: addr as usize, expected, got });
                }
            }
        });
    }

    fn skipped(&mut self, index: &ActivityIndex, gap: Range<u32>) {
        let lo = index.responses_before[gap.start as usize] as usize;
        let hi = index.responses_before[gap.end as usize] as usize;
        let planes = &mut self.gap[..self.width];
        for &expect in &index.responses[lo..hi] {
            for (j, plane) in planes.iter_mut().enumerate() {
                *plane = LaneChunk::broadcast(expect, j as u32);
            }
            (self.observer)(planes);
        }
    }
}

/// The lanes whose read `planes` differ from the broadcast `expect`.
#[inline]
fn mismatch<const K: usize>(planes: &[LaneChunk<K>], expect: u64) -> LaneChunk<K> {
    let mut diff = LaneChunk::<K>::ZERO;
    for (j, &p) in planes.iter().enumerate() {
        diff |= p ^ LaneChunk::broadcast(expect, j as u32);
    }
    diff
}

/// One step of the accumulator automaton, per bit-plane: XORs the
/// linear image of the read `planes` under `masks` into the accumulator
/// planes `acc` (`acc[i] ^= planes[j]` for every set bit `i` of
/// `masks[j]`).
#[inline]
fn fold_map<const K: usize>(masks: &[u64], planes: &[LaneChunk<K>], acc: &mut [LaneChunk<K>]) {
    for (j, &p) in planes.iter().enumerate() {
        let mut img = masks[j];
        while img != 0 {
            let i = img.trailing_zeros() as usize;
            acc[i] ^= p;
            img &= img - 1;
        }
    }
}

/// One operation of a port slot inside a [`MemOp::CycleN`].
///
/// Slot reads observe the pre-cycle memory state; slot writes commit after
/// every read of the same cycle. A [`SlotOp::WriteAcc`] uses the lane
/// value from *before* the cycle (its reads have not been folded in
/// yet) — schedule accumulator reads in an earlier cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOp {
    /// The port stays idle this cycle.
    Idle,
    /// Read and XOR the mapped value into an accumulator lane.
    ReadAcc {
        /// Address to read.
        addr: u32,
        /// Index into the program's linear-map table.
        map: u16,
        /// Accumulator lane.
        lane: u8,
    },
    /// Read and compare on the verdict channel.
    ReadExpect {
        /// Address to read.
        addr: u32,
        /// Expected word.
        expect: u64,
    },
    /// Read and compare on the stale (pre-read) channel.
    ReadStale {
        /// Address to read.
        addr: u32,
        /// Contents the previous iteration should have left.
        expect: u64,
    },
    /// Read, record the value, and compare on the verdict channel.
    ReadCapture {
        /// Address to read.
        addr: u32,
        /// Expected word.
        expect: u64,
    },
    /// Write an immediate word.
    Write {
        /// Address to write.
        addr: u32,
        /// Data word.
        data: u64,
    },
    /// Write an accumulator lane (value as of the start of this cycle).
    WriteAcc {
        /// Address to write.
        addr: u32,
        /// Accumulator lane.
        lane: u8,
    },
}

/// One compiled memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Write an immediate word (seeds, March writes).
    Write {
        /// Address to write.
        addr: u32,
        /// Data word.
        data: u64,
    },
    /// Read and compare against a precomputed expected word; a mismatch
    /// counts on the **verdict** channel.
    ReadExpect {
        /// Address to read.
        addr: u32,
        /// Expected word.
        expect: u64,
    },
    /// Read and compare against the previous iteration's expected
    /// contents; a mismatch counts on the **stale** channel (pre-read
    /// mode).
    ReadStale {
        /// Address to read.
        addr: u32,
        /// Expected stale word.
        expect: u64,
    },
    /// Read, record the value into the caller's capture buffer, and
    /// compare on the verdict channel (signature / `Fin` reads).
    ReadCapture {
        /// Address to read.
        addr: u32,
        /// Expected word (`Fin*`).
        expect: u64,
    },
    /// Read and discard (keeps the op-count structure of schedules whose
    /// hardware senses a whole operand window, and of windowed diagnosis
    /// programs whose comparator is gated off outside the window).
    ReadAny {
        /// Address to read.
        addr: u32,
    },
    /// Load an accumulator lane with an immediate (a π-iteration's affine
    /// term, or 0).
    AccSet {
        /// Accumulator lane.
        lane: u8,
        /// New lane value.
        value: u64,
    },
    /// Read and XOR the mapped value into an accumulator lane:
    /// `acc[lane] ^= map(value)` — the compiled form of `acc += c·value`
    /// over GF(2^m).
    ReadAcc {
        /// Address to read.
        addr: u32,
        /// Index into the program's linear-map table.
        map: u16,
        /// Accumulator lane.
        lane: u8,
    },
    /// Write an accumulator lane.
    WriteAcc {
        /// Address to write.
        addr: u32,
        /// Accumulator lane.
        lane: u8,
    },
    /// One multi-port cycle: `len` slots from the program's slot table
    /// (slot position = port index) issue simultaneously through
    /// [`Ram::cycle_ref`].
    CycleN {
        /// First slot in the program's slot table.
        start: u32,
        /// Number of slots (1..=[`MAX_PORTS`]).
        len: u8,
    },
}

/// First verdict-channel mismatch of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMismatch {
    /// Index of the [`MemOp`] that observed the mismatch.
    pub op_index: usize,
    /// Address read.
    pub addr: usize,
    /// Expected word.
    pub expected: u64,
    /// Word actually returned.
    pub got: u64,
}

/// Summary of one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Execution {
    /// Verdict-channel mismatches observed
    /// ([`MemOp::ReadExpect`] / [`MemOp::ReadCapture`]).
    pub mismatches: u64,
    /// Stale-channel mismatches observed ([`MemOp::ReadStale`]).
    pub stale_errors: u64,
    /// The first verdict-channel mismatch, if any.
    pub first_mismatch: Option<OpMismatch>,
    /// Read + write operations performed.
    pub ops: u64,
    /// Device cycles consumed.
    pub cycles: u64,
}

impl Execution {
    /// `true` when any channel flagged the memory as faulty.
    pub fn detected(&self) -> bool {
        self.mismatches > 0 || self.stale_errors > 0
    }
}

/// A compiled memory-test program: flat ops, linear-map table, geometry.
///
/// Build with [`ProgramBuilder`]; run with [`TestProgram::detect`] (early
/// exit, allocation-free — the campaign hot path) or
/// [`TestProgram::execute`] (full counts, optional signature capture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestProgram {
    name: String,
    geom: Geometry,
    ports: usize,
    background: Option<u64>,
    window: Option<(u32, u32)>,
    ops: Vec<MemOp>,
    /// Slot table backing [`MemOp::CycleN`] ops.
    slots: Vec<SlotOp>,
    /// `maps[m][j]` is the XOR contribution of input bit `j` under linear
    /// map `m` (for a GF(2^m) constant `c`: `c·z^j`).
    maps: Vec<Vec<u64>>,
    /// `(op index, marker id)` pairs in ascending op order — compilers use
    /// these to recover source structure (March element, iteration…).
    marks: Vec<(usize, u32)>,
    captures: usize,
    /// Lazily-built activity index (see [`TestProgram::activity_index`]).
    activity: ActivityCache,
}

impl TestProgram {
    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Geometry the program was compiled for.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Ports the program needs (1, or the widest [`MemOp::CycleN`]).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The data background this program was compiled for, when the source
    /// notation has one (March compilers declare it; π/PRT/bit-plane
    /// programs have no background notion and leave it `None`). Campaign
    /// runners use it to reject a program/background mismatch loudly.
    pub fn background(&self) -> Option<u64> {
        self.background
    }

    /// The program's [`ActivityIndex`] — compiled on first use by one
    /// fault-free reference simulation, then shared: clones taken after
    /// the build reuse the same index through the `Arc`, so campaigns,
    /// signature collectors and services slicing the same program pay
    /// the compile once.
    pub fn activity_index(&self) -> Arc<ActivityIndex> {
        Arc::clone(self.activity.0.get_or_init(|| Arc::new(ActivityIndex::build(self))))
    }

    /// The check window this program was compiled with
    /// ([`ProgramBuilder::with_window`]), if any: only
    /// [`ProgramBuilder::read_checked`] reads of in-window addresses carry
    /// a comparison; out-of-window reads were demoted to
    /// [`MemOp::ReadAny`].
    pub fn window(&self) -> Option<Range<usize>> {
        self.window.map(|(lo, hi)| lo as usize..hi as usize)
    }

    /// The compiled operations.
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// The slot table backing [`MemOp::CycleN`] ops.
    pub fn slots(&self) -> &[SlotOp] {
        &self.slots
    }

    /// The GF(2)-linear map mask table (crate-internal: the activity
    /// index's fault-free reference simulation applies the same maps the
    /// interpreter does).
    pub(crate) fn map_table(&self) -> &[Vec<u64>] {
        &self.maps
    }

    /// Number of [`MemOp::ReadCapture`] ops (capacity needed by the
    /// capture buffer).
    pub fn captures(&self) -> usize {
        self.captures
    }

    /// The `(op index, marker id)` pairs, ascending.
    pub fn marks(&self) -> &[(usize, u32)] {
        &self.marks
    }

    /// The id of the last marker at or before `op_index`.
    pub fn mark_before(&self, op_index: usize) -> Option<u32> {
        match self.marks.binary_search_by_key(&op_index, |&(i, _)| i) {
            Ok(i) => Some(self.marks[i].1),
            Err(0) => None,
            Err(i) => Some(self.marks[i - 1].1),
        }
    }

    /// The fault-free response stream: the expected word of every checked
    /// read ([`MemOp::ReadExpect`] / [`MemOp::ReadStale`] /
    /// [`MemOp::ReadCapture`], scalar or slot) in execution order — the
    /// exact sequence an observer passed to
    /// [`TestProgram::execute_observed`] sees on a fault-free device
    /// (asserted in tests). Signature collectors compact this once at
    /// configuration time to obtain the reference signature without
    /// touching a device.
    pub fn expected_responses(&self) -> impl Iterator<Item = u64> + '_ {
        self.ops.iter().flat_map(move |op| {
            let (scalar, slots): (Option<u64>, &[SlotOp]) = match *op {
                MemOp::ReadExpect { expect, .. }
                | MemOp::ReadStale { expect, .. }
                | MemOp::ReadCapture { expect, .. } => (Some(expect), &[]),
                MemOp::CycleN { start, len } => {
                    (None, &self.slots[start as usize..start as usize + len as usize])
                }
                _ => (None, &[]),
            };
            scalar.into_iter().chain(slots.iter().filter_map(|s| match *s {
                SlotOp::ReadExpect { expect, .. }
                | SlotOp::ReadStale { expect, .. }
                | SlotOp::ReadCapture { expect, .. } => Some(expect),
                _ => None,
            }))
        })
    }

    /// Runs the program to the first failing read and reports whether the
    /// memory was flagged. Allocation-free (single-port programs touch the
    /// heap nowhere; multi-port cycles go through the [`Ram::cycle_ref`]
    /// scratch); a device error (a geometry-mismatched device, or e.g. a
    /// decoder-fault write conflict on a multi-port cycle) counts as *not
    /// detected*, mirroring the interpreted runners' error-as-escape
    /// convention.
    pub fn detect(&self, ram: &mut Ram) -> bool {
        self.run(ram, true, None, None).map(|e| e.detected()).unwrap_or(false)
    }

    /// Runs the program against up to [`LaneRam::<K>::LANES`] fault
    /// trials **simultaneously** on a lane-sliced [`LaneRam`], and
    /// returns the mask of lanes whose trial was flagged (either channel
    /// — the lane counterpart of [`TestProgram::detect`]).
    ///
    /// Checked reads compare every bit-plane against the broadcast
    /// expected word; accumulator lanes are widened to one bit-plane set
    /// per trial lane, with the precompiled GF(2)-linear maps applied
    /// per bit-plane (`acc_plane[i] ^= value_plane[j]` for every set bit
    /// `i` of mask `j` — no per-lane arithmetic anywhere). The run early
    /// exits once every active lane has been flagged or frozen (the
    /// lane-masked form of the scalar early exit; verdicts are unaffected
    /// because a flagged lane's verdict is final).
    ///
    /// Multi-port `CycleN` schedules batch too: each cycle stages its
    /// write claims through [`LaneRam::cycle_conflicts`] first (the
    /// bit-sliced form of the scalar write-write conflict check), then
    /// performs all reads in port order, all writes in port order, and
    /// finally processes the slot table in slot order — the exact scalar
    /// cycle sequencing. Lanes whose decoder image produces a conflict
    /// are *frozen*: their verdict is final (`false`, the scalar
    /// error-as-escape convention) and later reads on them can neither
    /// set nor clear detection.
    ///
    /// `slice` selects the pass. `None` runs the **full pass**: every op
    /// executes on the device. `Some((index, active))` runs the **sliced
    /// pass**: only the ops in `active` (the chunk's span-union activity
    /// set resolved against `index`) execute; the fault-free effect of
    /// every skipped gap is spliced in from the precomputed reference —
    /// the operation clock jumps, out-of-union cells an active op reads
    /// are poked to their pre-op reference value, and stuck-open sense
    /// amplifiers are restored from the per-port read history. Outside
    /// the span union the device state equals the fault-free reference
    /// on every lane, so a skipped op can neither flag a lane nor change
    /// any state an active op observes.
    ///
    /// Per lane, the verdict of either pass is **bit-identical** to
    /// [`TestProgram::detect`] on a scalar [`Ram`] carrying that lane's
    /// fault (property-tested in `tests/batch.rs` and `tests/slicing.rs`).
    ///
    /// # Panics
    ///
    /// Panics when the program needs more ports than `ram` was built
    /// with, when `ram`'s geometry differs from the one the program was
    /// compiled for, or when `index` was not built for this program. A
    /// whole *batch* on the wrong device would silently report every
    /// lane as an escape (0% coverage), so unlike the scalar per-trial
    /// error-as-escape convention these configuration errors are loud;
    /// campaign runtimes that must not abort catch the panic and degrade
    /// the batch to the scalar oracle.
    pub fn detect_batch<const K: usize>(
        &self,
        ram: &mut LaneRam<K>,
        slice: Option<(&ActivityIndex, &ActiveSet)>,
    ) -> LaneChunk<K> {
        self.walk(ram, slice, &mut Detect).0
    }

    /// Runs the program against up to [`LaneRam::<K>::LANES`] fault
    /// trials simultaneously **without early exit**, reporting per-lane
    /// channel counts and feeding `observer` the bit-planes of every
    /// checked read — the lane counterpart of
    /// [`TestProgram::execute_observed`], and the engine batched
    /// *measurement* campaigns (MISR signature collection, fault
    /// dictionaries) run on: the response-stream length is
    /// lane-independent, so a per-lane compactor sees exactly the stream
    /// a scalar run of that lane's fault would produce.
    ///
    /// `execs[k]` receives lane `k`'s execution summary (reset first);
    /// per lane it equals the scalar
    /// `execute_observed(ram, false, None, ..)` summary on a [`Ram`]
    /// carrying that lane's fault — counts, first mismatch, ops and
    /// cycles (property-tested in `tests/batch.rs`). Returns the mask of
    /// active lanes whose trial was flagged on either channel.
    ///
    /// `slice` selects the full or the sliced pass, as for
    /// [`TestProgram::detect_batch`]. In the sliced pass every *skipped*
    /// checked read feeds `observer` the broadcast of its expected word —
    /// exactly the fault-free response every unfrozen lane would have
    /// produced, per the [`TestProgram::expected_responses`] contract —
    /// so the observed stream keeps its lane-independent length and, for
    /// lanes outside [`LaneRam::errored_lanes`], is bit-identical to the
    /// full pass. Execution summaries report the precompiled full-pass
    /// op/cycle totals, and first-mismatch records keep their original
    /// op indices: a skipped checked read cannot mismatch on an unfrozen
    /// lane.
    ///
    /// Lanes frozen by a multi-port write-write conflict mirror the
    /// scalar error-as-escape convention for the *whole* execution: the
    /// scalar run returns `Err` and its summary is discarded, so frozen
    /// lanes report a default [`Execution`] and are excluded from the
    /// returned mask even if they mismatched before the conflict. Their
    /// observations are unspecified in both passes: compactors
    /// substitute the reference observation for lanes in
    /// [`LaneRam::errored_lanes`].
    ///
    /// # Panics
    ///
    /// As [`TestProgram::detect_batch`], and unless
    /// `execs.len() == LaneRam::<K>::LANES`.
    pub fn execute_batch_observed<const K: usize>(
        &self,
        ram: &mut LaneRam<K>,
        slice: Option<(&ActivityIndex, &ActiveSet)>,
        execs: &mut [Execution],
        observer: &mut dyn FnMut(&[LaneChunk<K>]),
    ) -> LaneChunk<K> {
        assert_eq!(execs.len(), LaneRam::<K>::LANES, "one execution summary per lane");
        execs.fill(Execution::default());
        let mut sink = Observe {
            execs,
            observer,
            ops: 0,
            cycles: 0,
            width: self.geom.width() as usize,
            gap: [LaneChunk::ZERO; Geometry::MAX_WIDTH as usize],
        };
        let (detected, errored) = self.walk(ram, slice, &mut sink);
        // Every lane executes every op — there is no early exit — so the
        // op/cycle totals are lane-independent; a sliced walk takes them
        // from the precompiled full pass. Frozen lanes report the default
        // summary: the scalar run they mirror returned `Err`.
        let (ops, cycles) = match slice {
            None => (sink.ops, sink.cycles),
            Some((index, _)) => (index.total_ops, index.total_cycles),
        };
        for (lane, e) in sink.execs.iter_mut().enumerate() {
            if errored.get(lane) {
                *e = Execution::default();
            } else {
                e.ops = ops;
                e.cycles = cycles;
            }
        }
        detected & !errored
    }

    /// Rejects the whole-batch configuration errors (validated before any
    /// lane is touched, so a rejected batch has no side effects).
    fn check_batch_config<const K: usize>(&self, ram: &LaneRam<K>) {
        assert!(
            self.ports <= ram.ports(),
            "program '{}' needs {} ports but the LaneRam was built with {}",
            self.name,
            self.ports,
            ram.ports()
        );
        assert!(
            ram.geometry() == self.geom,
            "program '{}' was compiled for a different geometry than the LaneRam",
            self.name
        );
    }

    /// The one walk behind both batch entry points: steps every op (the
    /// full pass, `slice == None`) or only the active ops, splicing in
    /// each skipped gap first (the sliced pass). The two loops stay
    /// separate so the full pass carries no per-op slicing branch.
    /// Returns the flagged active lanes and the frozen lanes.
    fn walk<const K: usize, S: BatchSink<K>>(
        &self,
        ram: &mut LaneRam<K>,
        slice: Option<(&ActivityIndex, &ActiveSet)>,
        sink: &mut S,
    ) -> (LaneChunk<K>, LaneChunk<K>) {
        self.check_batch_config(ram);
        let full = ram.active_lanes();
        let mut st = BatchState {
            acc: [[LaneChunk::ZERO; Geometry::MAX_WIDTH as usize]; ACC_LANES],
            reads: [[LaneChunk::ZERO; Geometry::MAX_WIDTH as usize]; MAX_PORTS],
            detected: LaneChunk::ZERO,
            errored: LaneChunk::ZERO,
        };
        match slice {
            None => {
                for (idx, &op) in self.ops.iter().enumerate() {
                    self.step(ram, idx, op, &mut st, sink);
                    if S::EARLY_EXIT && (st.detected | st.errored) & full == full {
                        break;
                    }
                }
            }
            Some((index, active)) => {
                assert!(index.matches(self), "activity index was built for a different program");
                let base_time = ram.op_time();
                let sof = ram.has_sof();
                let mut next = 0u32;
                for &opi in active.ops() {
                    sink.skipped(index, next..opi);
                    self.splice_gap(ram, index, active, base_time, sof, next..opi);
                    self.step(ram, opi as usize, self.ops[opi as usize], &mut st, sink);
                    if S::EARLY_EXIT && (st.detected | st.errored) & full == full {
                        break;
                    }
                    next = opi + 1;
                }
                sink.skipped(index, next..self.ops.len() as u32);
            }
        }
        (st.detected & full, st.errored)
    }

    /// One op of the batch interpreter — the only place the lane-batched
    /// op semantics live, shared by both entry points in both passes.
    #[inline]
    fn step<const K: usize, S: BatchSink<K>>(
        &self,
        ram: &mut LaneRam<K>,
        idx: usize,
        op: MemOp,
        st: &mut BatchState<K>,
        sink: &mut S,
    ) {
        let m = self.geom.width() as usize;
        match op {
            MemOp::Write { addr, data } => {
                ram.write_broadcast(addr as usize, data);
                sink.cycle(1);
            }
            MemOp::ReadExpect { addr, expect }
            | MemOp::ReadStale { addr, expect }
            | MemOp::ReadCapture { addr, expect } => {
                let planes = ram.read(addr as usize);
                sink.cycle(1);
                let diff = mismatch(planes, expect) & !st.errored;
                let stale = matches!(op, MemOp::ReadStale { .. });
                sink.checked(planes, diff, stale, idx, addr, expect);
                st.detected |= diff;
            }
            MemOp::ReadAny { addr } => {
                let _ = ram.read(addr as usize);
                sink.cycle(1);
            }
            MemOp::AccSet { lane, value } => {
                for (j, plane) in st.acc[lane as usize][..m].iter_mut().enumerate() {
                    *plane = LaneChunk::broadcast(value, j as u32);
                }
            }
            MemOp::ReadAcc { addr, map, lane } => {
                let planes = ram.read(addr as usize);
                sink.cycle(1);
                fold_map(&self.maps[map as usize], planes, &mut st.acc[lane as usize]);
            }
            MemOp::WriteAcc { addr, lane } => {
                ram.write_planes(addr as usize, &st.acc[lane as usize][..m]);
                sink.cycle(1);
            }
            MemOp::CycleN { start, len } => {
                let slots = &self.slots[start as usize..start as usize + len as usize];
                st.errored = self.cycle_batch_ram_phase(ram, slots, &st.acc, &mut st.reads);
                sink.cycle(slots.iter().filter(|s| !matches!(s, SlotOp::Idle)).count() as u64);
                for (port, &slot) in slots.iter().enumerate() {
                    let planes = &st.reads[port][..m];
                    match slot {
                        SlotOp::Idle | SlotOp::Write { .. } | SlotOp::WriteAcc { .. } => {}
                        SlotOp::ReadAcc { map, lane, .. } => {
                            fold_map(&self.maps[map as usize], planes, &mut st.acc[lane as usize]);
                        }
                        SlotOp::ReadExpect { addr, expect }
                        | SlotOp::ReadStale { addr, expect }
                        | SlotOp::ReadCapture { addr, expect } => {
                            let diff = mismatch(planes, expect) & !st.errored;
                            let stale = matches!(slot, SlotOp::ReadStale { .. });
                            sink.checked(planes, diff, stale, idx, addr, expect);
                            st.detected |= diff;
                        }
                    }
                }
            }
        }
    }

    /// Splices the fault-free reference effects of the skipped gap
    /// `[next, opi)` and preps active op `opi`: sense restores on
    /// stuck-open banks (the last skipped read's reference value, per
    /// port), device-clock re-sync, and reference pokes for every
    /// out-of-union cell the op is about to read (skipped writes to
    /// those cells never materialised — on every lane they would have
    /// stored exactly the reference value).
    fn splice_gap<const K: usize>(
        &self,
        ram: &mut LaneRam<K>,
        index: &ActivityIndex,
        active: &ActiveSet,
        base_time: u64,
        sof: bool,
        gap: Range<u32>,
    ) {
        let (next, opi) = (gap.start, gap.end);
        let j = opi as usize;
        if sof && opi > next {
            for (port, &(ri, rv)) in index.last_read_before[j][..self.ports].iter().enumerate() {
                if ri != NO_READ && ri >= next {
                    ram.force_sense_broadcast(port, rv);
                }
            }
        }
        ram.set_op_time(base_time + index.time_before[j]);
        for &(a, v) in index.read_refs_for(j) {
            if !active.contains(a as usize) {
                ram.poke_broadcast(a as usize, v);
            }
        }
    }

    /// The ram half of one batched multi-port cycle, mirroring the scalar
    /// [`crate::Ram::cycle_ref`] sequencing exactly: stage every write
    /// slot's decoder claims and freeze the lanes where two writes land
    /// on one cell (*before* any side effect), then perform all reads in
    /// port order, then all writes in port order. Read slots' bit-planes
    /// are buffered into `reads[port]`; write-accumulator slots take the
    /// **pre-cycle** accumulator image, as the scalar interpreter builds
    /// its port-op table before the cycle runs. Returns the cumulative
    /// frozen-lane mask.
    fn cycle_batch_ram_phase<const K: usize>(
        &self,
        ram: &mut LaneRam<K>,
        slots: &[SlotOp],
        acc: &AccPlanes<K>,
        reads: &mut ReadPlanes<K>,
    ) -> LaneChunk<K> {
        let m = self.geom.width() as usize;
        let mut write_addrs = [0usize; MAX_PORTS];
        let mut nw = 0;
        for &slot in slots {
            if let SlotOp::Write { addr, .. } | SlotOp::WriteAcc { addr, .. } = slot {
                write_addrs[nw] = addr as usize;
                nw += 1;
            }
        }
        let errored = ram.cycle_conflicts(&write_addrs[..nw]);
        for (port, &slot) in slots.iter().enumerate() {
            if let SlotOp::ReadAcc { addr, .. }
            | SlotOp::ReadExpect { addr, .. }
            | SlotOp::ReadStale { addr, .. }
            | SlotOp::ReadCapture { addr, .. } = slot
            {
                reads[port][..m].copy_from_slice(ram.read_on_port(port, addr as usize));
            }
        }
        for &slot in slots {
            match slot {
                SlotOp::Write { addr, data } => ram.write_broadcast(addr as usize, data),
                SlotOp::WriteAcc { addr, lane } => {
                    ram.write_planes(addr as usize, &acc[lane as usize][..m]);
                }
                _ => {}
            }
        }
        errored
    }

    /// Runs the program and reports full channel counts. With
    /// `stop_at_first` the run halts at the first failing read (either
    /// channel); `captures`, when given, receives the value of every
    /// [`MemOp::ReadCapture`] in program order (the buffer is cleared
    /// first and reused across calls).
    ///
    /// # Errors
    ///
    /// [`RamError::ProgramGeometryMismatch`] when `ram`'s geometry differs
    /// from the one the program was compiled for; otherwise device errors
    /// from multi-port cycles (single-port programs cannot fail beyond the
    /// geometry check: the builder validated every operand).
    pub fn execute(
        &self,
        ram: &mut Ram,
        stop_at_first: bool,
        captures: Option<&mut Vec<u64>>,
    ) -> Result<Execution, RamError> {
        self.run(ram, stop_at_first, captures, None)
    }

    /// [`TestProgram::execute`] with a response observer: `observer` is
    /// called with the word returned by **every checked read**
    /// (`ReadExpect` / `ReadStale` / `ReadCapture`, scalar or slot) in
    /// execution order — the stream a hardware response compactor (MISR)
    /// sees. On a fault-free device the observed stream equals
    /// [`TestProgram::expected_responses`]; run with
    /// `stop_at_first = false` so the stream length is
    /// response-independent.
    ///
    /// # Errors
    ///
    /// As [`TestProgram::execute`].
    pub fn execute_observed(
        &self,
        ram: &mut Ram,
        stop_at_first: bool,
        captures: Option<&mut Vec<u64>>,
        observer: &mut dyn FnMut(u64),
    ) -> Result<Execution, RamError> {
        self.run(ram, stop_at_first, captures, Some(observer))
    }

    fn run(
        &self,
        ram: &mut Ram,
        stop_at_first: bool,
        captures: Option<&mut Vec<u64>>,
        mut observer: Option<&mut dyn FnMut(u64)>,
    ) -> Result<Execution, RamError> {
        // A program's operands were validated against its own geometry at
        // build time — running it on a different device would panic inside
        // the access layer. Surface the mismatch as an error instead, so
        // campaigns apply the usual error-as-escape convention.
        if ram.geometry() != self.geom {
            return Err(RamError::ProgramGeometryMismatch {
                compiled: self.geom,
                device: ram.geometry(),
            });
        }
        let before = ram.stats();
        let mut acc = [0u64; ACC_LANES];
        let mut exec = Execution::default();
        let mut caps = captures;
        if let Some(c) = caps.as_deref_mut() {
            c.clear();
        }
        for (idx, op) in self.ops.iter().enumerate() {
            match *op {
                MemOp::Write { addr, data } => ram.write(addr as usize, data),
                MemOp::ReadExpect { addr, expect } => {
                    let got = ram.read(addr as usize);
                    if let Some(o) = observer.as_deref_mut() {
                        o(got);
                    }
                    if got != expect {
                        self.flag(&mut exec, idx, addr, expect, got);
                    }
                }
                MemOp::ReadStale { addr, expect } => {
                    let got = ram.read(addr as usize);
                    if let Some(o) = observer.as_deref_mut() {
                        o(got);
                    }
                    if got != expect {
                        exec.stale_errors += 1;
                    }
                }
                MemOp::ReadCapture { addr, expect } => {
                    let got = ram.read(addr as usize);
                    if let Some(o) = observer.as_deref_mut() {
                        o(got);
                    }
                    if let Some(c) = caps.as_deref_mut() {
                        c.push(got);
                    }
                    if got != expect {
                        self.flag(&mut exec, idx, addr, expect, got);
                    }
                }
                MemOp::ReadAny { addr } => {
                    let _ = ram.read(addr as usize);
                }
                MemOp::AccSet { lane, value } => acc[lane as usize] = value,
                MemOp::ReadAcc { addr, map, lane } => {
                    let v = ram.read(addr as usize);
                    acc[lane as usize] ^= apply_map(&self.maps[map as usize], v);
                }
                MemOp::WriteAcc { addr, lane } => ram.write(addr as usize, acc[lane as usize]),
                MemOp::CycleN { start, len } => {
                    let slots = &self.slots[start as usize..start as usize + len as usize];
                    let mut port_ops = [PortOp::Idle; MAX_PORTS];
                    for (p, &slot) in slots.iter().enumerate() {
                        port_ops[p] = self.slot_port_op(slot, &acc);
                    }
                    // Copy the results out before the next borrow of `ram`.
                    let res = ram.cycle_ref(&port_ops[..slots.len()])?;
                    let mut got = [None; MAX_PORTS];
                    got[..slots.len()].copy_from_slice(res);
                    for (&slot, got) in slots.iter().zip(got) {
                        self.apply_slot(
                            slot,
                            got,
                            &mut acc,
                            &mut exec,
                            idx,
                            &mut caps,
                            &mut observer,
                        );
                    }
                }
            }
            if stop_at_first && exec.detected() {
                break;
            }
        }
        let after = ram.stats();
        exec.ops = after.ops() - before.ops();
        exec.cycles = after.cycles - before.cycles;
        Ok(exec)
    }

    fn flag(&self, exec: &mut Execution, idx: usize, addr: u32, expected: u64, got: u64) {
        exec.mismatches += 1;
        if exec.first_mismatch.is_none() {
            exec.first_mismatch =
                Some(OpMismatch { op_index: idx, addr: addr as usize, expected, got });
        }
    }

    fn slot_port_op(&self, slot: SlotOp, acc: &[u64; ACC_LANES]) -> PortOp {
        match slot {
            SlotOp::Idle => PortOp::Idle,
            SlotOp::ReadAcc { addr, .. }
            | SlotOp::ReadExpect { addr, .. }
            | SlotOp::ReadStale { addr, .. }
            | SlotOp::ReadCapture { addr, .. } => PortOp::Read { addr: addr as usize },
            SlotOp::Write { addr, data } => PortOp::Write { addr: addr as usize, data },
            SlotOp::WriteAcc { addr, lane } => {
                PortOp::Write { addr: addr as usize, data: acc[lane as usize] }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // interpreter internals, one call site
    fn apply_slot(
        &self,
        slot: SlotOp,
        got: Option<u64>,
        acc: &mut [u64; ACC_LANES],
        exec: &mut Execution,
        idx: usize,
        caps: &mut Option<&mut Vec<u64>>,
        observer: &mut Option<&mut dyn FnMut(u64)>,
    ) {
        match slot {
            SlotOp::Idle | SlotOp::Write { .. } | SlotOp::WriteAcc { .. } => {}
            SlotOp::ReadAcc { map, lane, .. } => {
                let v = got.expect("read slot produced a value");
                acc[lane as usize] ^= apply_map(&self.maps[map as usize], v);
            }
            SlotOp::ReadExpect { addr, expect } => {
                let v = got.expect("read slot produced a value");
                if let Some(o) = observer.as_deref_mut() {
                    o(v);
                }
                if v != expect {
                    self.flag(exec, idx, addr, expect, v);
                }
            }
            SlotOp::ReadStale { expect, .. } => {
                let v = got.expect("read slot produced a value");
                if let Some(o) = observer.as_deref_mut() {
                    o(v);
                }
                if v != expect {
                    exec.stale_errors += 1;
                }
            }
            SlotOp::ReadCapture { addr, expect } => {
                let v = got.expect("read slot produced a value");
                if let Some(o) = observer.as_deref_mut() {
                    o(v);
                }
                if let Some(c) = caps.as_deref_mut() {
                    c.push(v);
                }
                if v != expect {
                    self.flag(exec, idx, addr, expect, v);
                }
            }
        }
    }
}

/// Applies a precompiled GF(2)-linear map: XOR of the per-bit masks over
/// the set bits of `v`.
#[inline]
fn apply_map(masks: &[u64], v: u64) -> u64 {
    let mut out = 0u64;
    let mut rest = v;
    while rest != 0 {
        let j = rest.trailing_zeros();
        out ^= masks[j as usize];
        rest &= rest - 1;
    }
    out
}

/// Incremental builder for [`TestProgram`]s.
///
/// Operand validation happens here, once per compile, so the interpreter
/// can run unguarded: every push method panics on an out-of-range address
/// or an over-wide data word, exactly like the corresponding [`Ram`]
/// access would.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    geom: Geometry,
    ports: usize,
    background: Option<u64>,
    window: Option<(u32, u32)>,
    ops: Vec<MemOp>,
    slots: Vec<SlotOp>,
    maps: Vec<Vec<u64>>,
    marks: Vec<(usize, u32)>,
    captures: usize,
}

impl ProgramBuilder {
    /// A builder for a single-port program over `geom`.
    pub fn new(geom: Geometry) -> ProgramBuilder {
        ProgramBuilder {
            name: "program".to_string(),
            geom,
            ports: 1,
            background: None,
            window: None,
            ops: Vec::new(),
            slots: Vec::new(),
            maps: Vec::new(),
            marks: Vec::new(),
            captures: 0,
        }
    }

    /// Sets the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> ProgramBuilder {
        self.name = name.into();
        self
    }

    /// Declares the data background the program is compiled for (see
    /// [`TestProgram::background`]).
    pub fn with_background(mut self, background: u64) -> ProgramBuilder {
        self.background = Some(background);
        self
    }

    /// Restricts the **check window** to `window`:
    /// [`ProgramBuilder::read_checked`] emits a verdict-channel
    /// [`MemOp::ReadExpect`] for in-window addresses and an unchecked
    /// [`MemOp::ReadAny`] otherwise. The operation stream — every read and
    /// write actually issued — is therefore *window-invariant*: only the
    /// comparator is gated, which is what makes windowed diagnosis
    /// bisection sound (a fault observable on the full window is
    /// observable on at least one half). Models address-range gating of a
    /// BIST comparator.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or one that exceeds the geometry.
    pub fn with_window(mut self, window: Range<usize>) -> ProgramBuilder {
        assert!(window.start < window.end, "empty check window");
        assert!(window.end <= self.geom.cells(), "check window exceeds the geometry");
        self.window = Some((window.start as u32, window.end as u32));
        self
    }

    /// Registers a GF(2)-linear map given its per-bit masks
    /// (`masks[j]` = image of input bit `j`) and returns its table index.
    /// Identical maps are deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the mask count differs from the cell width, any mask
    /// exceeds the data mask, or the table outgrows `u16`.
    pub fn add_map(&mut self, masks: Vec<u64>) -> u16 {
        assert_eq!(masks.len(), self.geom.width() as usize, "one mask per data bit");
        assert!(
            masks.iter().all(|&m| m <= self.geom.data_mask()),
            "map image exceeds the cell width"
        );
        if let Some(i) = self.maps.iter().position(|m| *m == masks) {
            return i as u16;
        }
        let idx = u16::try_from(self.maps.len()).expect("map table fits u16");
        self.maps.push(masks);
        idx
    }

    /// Registers the identity map (plain XOR accumulation, the GF(2)
    /// bit-plane case).
    pub fn identity_map(&mut self) -> u16 {
        let masks = (0..self.geom.width()).map(|j| 1u64 << j).collect();
        self.add_map(masks)
    }

    /// Records a marker at the current op position (March element index,
    /// iteration number, …).
    pub fn mark(&mut self, id: u32) {
        self.marks.push((self.ops.len(), id));
    }

    /// Pushes an immediate write.
    pub fn write(&mut self, addr: usize, data: u64) {
        self.check(addr, Some(data));
        self.ops.push(MemOp::Write { addr: addr as u32, data });
    }

    /// Pushes a verdict-channel checked read.
    pub fn read_expect(&mut self, addr: usize, expect: u64) {
        self.check(addr, Some(expect));
        self.ops.push(MemOp::ReadExpect { addr: addr as u32, expect });
    }

    /// Pushes a verdict-channel checked read when `addr` lies inside the
    /// check window ([`ProgramBuilder::with_window`]), an unchecked read
    /// otherwise. Without a window this is [`ProgramBuilder::read_expect`].
    pub fn read_checked(&mut self, addr: usize, expect: u64) {
        let in_window =
            self.window.is_none_or(|(lo, hi)| (lo as usize..hi as usize).contains(&addr));
        if in_window {
            self.read_expect(addr, expect);
        } else {
            self.read_any(addr);
        }
    }

    /// Pushes a stale-channel checked read (pre-read mode).
    pub fn read_stale(&mut self, addr: usize, expect: u64) {
        self.check(addr, Some(expect));
        self.ops.push(MemOp::ReadStale { addr: addr as u32, expect });
    }

    /// Pushes a capturing checked read (signature cell).
    pub fn read_capture(&mut self, addr: usize, expect: u64) {
        self.check(addr, Some(expect));
        self.captures += 1;
        self.ops.push(MemOp::ReadCapture { addr: addr as u32, expect });
    }

    /// Pushes an unchecked read.
    pub fn read_any(&mut self, addr: usize) {
        self.check(addr, None);
        self.ops.push(MemOp::ReadAny { addr: addr as u32 });
    }

    /// Pushes a lane-0 accumulator load.
    pub fn acc_set(&mut self, value: u64) {
        self.acc_set_in(0, value);
    }

    /// Pushes an accumulator load into `lane`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane or an over-wide value.
    pub fn acc_set_in(&mut self, lane: u8, value: u64) {
        self.check_lane(lane);
        assert!(value <= self.geom.data_mask(), "accumulator load exceeds the cell width");
        self.ops.push(MemOp::AccSet { lane, value });
    }

    /// Pushes a lane-0 accumulating read through map `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` was not registered.
    pub fn read_acc(&mut self, addr: usize, map: u16) {
        self.read_acc_in(0, addr, map);
    }

    /// Pushes an accumulating read into `lane` through map `map`.
    ///
    /// # Panics
    ///
    /// Panics if `map` was not registered or `lane` is out of range.
    pub fn read_acc_in(&mut self, lane: u8, addr: usize, map: u16) {
        self.check(addr, None);
        self.check_lane(lane);
        assert!((map as usize) < self.maps.len(), "unregistered map index");
        self.ops.push(MemOp::ReadAcc { addr: addr as u32, map, lane });
    }

    /// Pushes a lane-0 accumulator write.
    pub fn write_acc(&mut self, addr: usize) {
        self.write_acc_in(0, addr);
    }

    /// Pushes an accumulator write from `lane`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane.
    pub fn write_acc_in(&mut self, lane: u8, addr: usize) {
        self.check(addr, None);
        self.check_lane(lane);
        self.ops.push(MemOp::WriteAcc { addr: addr as u32, lane });
    }

    /// Pushes one multi-port cycle of `slots.len()` port slots (slot
    /// position = port index, so pad with [`SlotOp::Idle`] to address a
    /// specific port); the program then needs at least that many ports.
    ///
    /// # Panics
    ///
    /// Panics on zero slots or more than [`MAX_PORTS`], and on any invalid
    /// slot operand.
    pub fn cyclen(&mut self, slots: &[SlotOp]) {
        assert!(
            !slots.is_empty() && slots.len() <= MAX_PORTS,
            "a cycle carries 1..={MAX_PORTS} slots"
        );
        for &slot in slots {
            match slot {
                SlotOp::Idle => {}
                SlotOp::ReadAcc { addr, map, lane } => {
                    self.check(addr as usize, None);
                    self.check_lane(lane);
                    assert!((map as usize) < self.maps.len(), "unregistered map index");
                }
                SlotOp::ReadExpect { addr, expect }
                | SlotOp::ReadStale { addr, expect }
                | SlotOp::ReadCapture { addr, expect } => {
                    self.check(addr as usize, Some(expect));
                }
                SlotOp::Write { addr, data } => self.check(addr as usize, Some(data)),
                SlotOp::WriteAcc { addr, lane } => {
                    self.check(addr as usize, None);
                    self.check_lane(lane);
                }
            }
            if let SlotOp::ReadCapture { .. } = slot {
                self.captures += 1;
            }
        }
        self.ports = self.ports.max(slots.len());
        let start = u32::try_from(self.slots.len()).expect("slot table fits u32");
        self.slots.extend_from_slice(slots);
        self.ops.push(MemOp::CycleN { start, len: slots.len() as u8 });
    }

    /// Pushes one dual-port cycle (sugar for a two-slot
    /// [`ProgramBuilder::cyclen`]).
    pub fn cycle2(&mut self, a: SlotOp, b: SlotOp) {
        self.cyclen(&[a, b]);
    }

    /// Pushes a run of slot ops as dual-port cycles, two per cycle, the
    /// odd tail padded with [`SlotOp::Idle`] — the standard pairing every
    /// dual-port schedule (seeds, operand reads, signature, readback)
    /// uses.
    pub fn cycle2_pairs(&mut self, slots: impl IntoIterator<Item = SlotOp>) {
        let mut slots = slots.into_iter();
        while let Some(a) = slots.next() {
            self.cycle2(a, slots.next().unwrap_or(SlotOp::Idle));
        }
    }

    /// Finalises the program.
    pub fn build(self) -> TestProgram {
        TestProgram {
            name: self.name,
            geom: self.geom,
            ports: self.ports,
            background: self.background,
            window: self.window,
            ops: self.ops,
            slots: self.slots,
            maps: self.maps,
            marks: self.marks,
            captures: self.captures,
            activity: ActivityCache::default(),
        }
    }

    fn check(&self, addr: usize, data: Option<u64>) {
        assert!(u32::try_from(addr).is_ok(), "address exceeds the IR's u32 range");
        self.geom.check_addr(addr).expect("address in range");
        if let Some(d) = data {
            self.geom.check_data(d).expect("data fits cell width");
        }
    }

    fn check_lane(&self, lane: u8) {
        assert!((lane as usize) < ACC_LANES, "accumulator lane out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    #[test]
    fn march_like_program_detects_stuck_at() {
        let geom = Geometry::bom(8);
        let mut b = ProgramBuilder::new(geom);
        for a in 0..8 {
            b.write(a, 0);
        }
        for a in 0..8 {
            b.read_expect(a, 0);
            b.write(a, 1);
        }
        for a in 0..8 {
            b.read_expect(a, 1);
        }
        let prog = b.build();
        assert_eq!(prog.ports(), 1);
        let mut good = Ram::new(geom);
        let exec = prog.execute(&mut good, false, None).unwrap();
        assert!(!exec.detected());
        assert_eq!(exec.ops, 8 * 4);
        let mut bad = Ram::new(geom);
        bad.inject(FaultKind::StuckAt { cell: 5, bit: 0, value: 0 }).unwrap();
        let exec = prog.execute(&mut bad, false, None).unwrap();
        assert!(exec.detected());
        let m = exec.first_mismatch.unwrap();
        assert_eq!((m.addr, m.expected, m.got), (5, 1, 0));
    }

    #[test]
    fn stop_at_first_halts_early() {
        let geom = Geometry::bom(16);
        let mut b = ProgramBuilder::new(geom);
        for a in 0..16 {
            b.write(a, 1);
        }
        for a in 0..16 {
            b.read_expect(a, 1);
        }
        let prog = b.build();
        let mut bad = Ram::new(geom);
        bad.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }).unwrap();
        let full = prog.execute(&mut bad, false, None).unwrap();
        bad.eject_faults();
        bad.reset_to(0);
        bad.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }).unwrap();
        let early = prog.execute(&mut bad, true, None).unwrap();
        assert!(full.detected() && early.detected());
        assert!(early.ops < full.ops);
        assert_eq!(full.mismatches, 1); // only cell 0 is wrong
    }

    #[test]
    fn accumulator_reproduces_gf2_wave() {
        // k = 2 XOR wave: s_{t+2} = s_t ⊕ s_{t+1}, seeds (0, 1) — the
        // Figure 1a sequence 0 1 1 0 1 1 …
        let geom = Geometry::bom(9);
        let mut b = ProgramBuilder::new(geom);
        let id = b.identity_map();
        b.write(0, 0);
        b.write(1, 1);
        for t in 0..7 {
            b.acc_set(0);
            b.read_acc(t + 1, id);
            b.read_acc(t, id);
            b.write_acc(t + 2);
        }
        let expect = [0u64, 1, 1, 0, 1, 1, 0, 1, 1];
        b.read_capture(7, expect[7]);
        b.read_capture(8, expect[8]);
        let prog = b.build();
        assert_eq!(prog.captures(), 2);
        let mut ram = Ram::new(geom);
        let mut caps = Vec::new();
        let exec = prog.execute(&mut ram, false, Some(&mut caps)).unwrap();
        assert!(!exec.detected());
        assert_eq!(caps, vec![expect[7], expect[8]]);
        for (c, &e) in expect.iter().enumerate() {
            assert_eq!(ram.peek(c), e, "cell {c}");
        }
        assert_eq!(exec.ops, 3 * 9 - 2);
    }

    #[test]
    fn accumulator_lanes_are_independent() {
        // Two interleaved XOR waves over disjoint halves, one lane each —
        // the quad-port compilation pattern in miniature (single-port).
        let geom = Geometry::bom(12);
        let mut b = ProgramBuilder::new(geom);
        let id = b.identity_map();
        for base in [0usize, 6] {
            b.write(base, 0);
            b.write(base + 1, 1);
        }
        for t in 0..4 {
            for (lane, base) in [(0u8, 0usize), (1, 6)] {
                b.acc_set_in(lane, 0);
                b.read_acc_in(lane, base + t + 1, id);
                b.read_acc_in(lane, base + t, id);
            }
            // Writes deliberately after BOTH lanes accumulated, to prove
            // lane isolation.
            for (lane, base) in [(0u8, 0usize), (1, 6)] {
                b.write_acc_in(lane, base + t + 2);
            }
        }
        let prog = b.build();
        let mut ram = Ram::new(geom);
        assert!(!prog.execute(&mut ram, false, None).unwrap().detected());
        let expect = [0u64, 1, 1, 0, 1, 1];
        for (c, &e) in expect.iter().enumerate() {
            assert_eq!(ram.peek(c), e, "lo cell {c}");
            assert_eq!(ram.peek(6 + c), e, "hi cell {c}");
        }
    }

    #[test]
    fn linear_map_equals_field_multiplication() {
        // GF(2^4), p = 1 + z + z^4: mul-by-c as mask XOR must equal a
        // reference shift-and-add multiply for every (c, v).
        let poly = 0b1_0011u64;
        let clmul = |mut a: u64, mut b: u64| {
            let mut r = 0u64;
            while b != 0 {
                if b & 1 == 1 {
                    r ^= a;
                }
                b >>= 1;
                a <<= 1;
                if a & 0b1_0000 != 0 {
                    a ^= poly;
                }
            }
            r
        };
        let geom = Geometry::wom(4, 4).unwrap();
        for c in 0..16u64 {
            let mut b = ProgramBuilder::new(geom);
            let masks: Vec<u64> = (0..4).map(|j| clmul(c, 1 << j)).collect();
            let m = b.add_map(masks.clone());
            assert_eq!(m, 0);
            for v in 0..16u64 {
                assert_eq!(apply_map(&masks, v), clmul(c, v), "c={c} v={v}");
            }
        }
    }

    #[test]
    fn map_deduplication() {
        let mut b = ProgramBuilder::new(Geometry::bom(4));
        let a = b.identity_map();
        let c = b.add_map(vec![1]);
        assert_eq!(a, c);
        let d = b.add_map(vec![0]);
        assert_ne!(a, d);
    }

    #[test]
    fn stale_channel_is_separate() {
        let geom = Geometry::bom(4);
        let mut b = ProgramBuilder::new(geom);
        b.read_stale(0, 1); // fresh memory holds 0 → stale error
        b.read_expect(0, 0); // verdict channel is clean
        let prog = b.build();
        let mut ram = Ram::new(geom);
        let exec = prog.execute(&mut ram, false, None).unwrap();
        assert_eq!(exec.stale_errors, 1);
        assert_eq!(exec.mismatches, 0);
        assert!(exec.first_mismatch.is_none());
        assert!(exec.detected());
        assert!(prog.detect(&mut Ram::new(geom)));
    }

    #[test]
    fn dual_port_cycle_reads_before_writes() {
        let geom = Geometry::bom(4);
        let mut b = ProgramBuilder::new(geom);
        b.write(0, 1);
        // Same-cycle read + write of cell 0: the read must see the
        // pre-cycle value — the fused pre-read transformation.
        b.cycle2(SlotOp::ReadStale { addr: 0, expect: 1 }, SlotOp::Write { addr: 0, data: 0 });
        b.read_expect(0, 0);
        let prog = b.build();
        assert_eq!(prog.ports(), 2);
        let mut ram = Ram::with_ports(geom, 2).unwrap();
        let exec = prog.execute(&mut ram, false, None).unwrap();
        assert!(!exec.detected());
        assert_eq!(exec.cycles, 3);
        assert_eq!(exec.ops, 4);
    }

    #[test]
    fn quad_cycle_uses_port_positions() {
        // A 4-slot cycle with idle padding on ports 1 and 3, as the
        // multi-LFSR schedule issues; both lanes write in one cycle.
        let geom = Geometry::bom(8);
        let mut b = ProgramBuilder::new(geom);
        b.acc_set_in(0, 1);
        b.acc_set_in(1, 0);
        b.cyclen(&[
            SlotOp::WriteAcc { addr: 0, lane: 0 },
            SlotOp::Idle,
            SlotOp::WriteAcc { addr: 4, lane: 1 },
            SlotOp::Idle,
        ]);
        b.cyclen(&[
            SlotOp::ReadExpect { addr: 0, expect: 1 },
            SlotOp::Idle,
            SlotOp::ReadExpect { addr: 4, expect: 0 },
            SlotOp::Idle,
        ]);
        let prog = b.build();
        assert_eq!(prog.ports(), 4);
        let mut ram = Ram::with_ports(geom, 4).unwrap();
        let exec = prog.execute(&mut ram, false, None).unwrap();
        assert!(!exec.detected());
        assert_eq!(exec.cycles, 2);
        assert_eq!(exec.ops, 4);
        // A 2-port device cannot host it.
        let mut narrow = Ram::with_ports(geom, 2).unwrap();
        assert!(prog.execute(&mut narrow, false, None).is_err());
    }

    #[test]
    fn multi_port_program_on_single_port_device_is_an_escape() {
        let geom = Geometry::bom(4);
        let mut b = ProgramBuilder::new(geom);
        b.cycle2(SlotOp::ReadExpect { addr: 0, expect: 1 }, SlotOp::Idle);
        let prog = b.build();
        let mut ram = Ram::new(geom);
        assert!(prog.execute(&mut ram, false, None).is_err());
        assert!(!prog.detect(&mut ram), "device errors count as escapes");
    }

    #[test]
    fn geometry_mismatch_is_an_error_not_a_panic() {
        let mut b = ProgramBuilder::new(Geometry::wom(4, 4).unwrap());
        b.write(0, 0xF);
        let prog = b.build();
        let mut ram = Ram::new(Geometry::bom(4));
        assert!(matches!(
            prog.execute(&mut ram, false, None),
            Err(RamError::ProgramGeometryMismatch { .. })
        ));
        assert!(!prog.detect(&mut ram), "mismatch counts as an escape");
    }

    #[test]
    fn marks_recover_source_structure() {
        let mut b = ProgramBuilder::new(Geometry::bom(2));
        b.mark(0);
        b.write(0, 0);
        b.write(1, 0);
        b.mark(1);
        b.read_expect(0, 0);
        let prog = b.build();
        assert_eq!(prog.mark_before(0), Some(0));
        assert_eq!(prog.mark_before(1), Some(0));
        assert_eq!(prog.mark_before(2), Some(1));
        assert_eq!(prog.marks(), &[(0, 0), (2, 1)]);
    }

    #[test]
    fn observer_sees_checked_reads_in_order() {
        let geom = Geometry::bom(6);
        let mut b = ProgramBuilder::new(geom);
        b.write(0, 1);
        b.write(1, 0);
        b.read_expect(0, 1);
        b.read_any(2); // unchecked: invisible to the observer
        b.read_stale(1, 0);
        b.cycle2(
            SlotOp::ReadCapture { addr: 0, expect: 1 },
            SlotOp::ReadExpect { addr: 1, expect: 0 },
        );
        let prog = b.build();
        // Fault-free: observed stream equals the expected-response stream.
        let expected: Vec<u64> = prog.expected_responses().collect();
        assert_eq!(expected, vec![1, 0, 1, 0]);
        let mut ram = Ram::with_ports(geom, 2).unwrap();
        let mut seen = Vec::new();
        let exec = prog.execute_observed(&mut ram, false, None, &mut |v| seen.push(v)).unwrap();
        assert!(!exec.detected());
        assert_eq!(seen, expected);
        // Faulty: same stream length, different content.
        let mut bad = Ram::with_ports(geom, 2).unwrap();
        bad.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }).unwrap();
        let mut seen = Vec::new();
        let exec = prog.execute_observed(&mut bad, false, None, &mut |v| seen.push(v)).unwrap();
        assert!(exec.detected());
        assert_eq!(seen.len(), expected.len());
        assert_ne!(seen, expected);
    }

    #[test]
    fn check_window_gates_reads_but_not_the_op_stream() {
        let geom = Geometry::bom(8);
        let compile = |window: Option<Range<usize>>| {
            let mut b = ProgramBuilder::new(geom);
            if let Some(w) = window {
                b = b.with_window(w);
            }
            for a in 0..8 {
                b.write(a, 1);
            }
            for a in 0..8 {
                b.read_checked(a, 1);
            }
            b.build()
        };
        let full = compile(None);
        let lo = compile(Some(0..4));
        let hi = compile(Some(4..8));
        assert_eq!(full.window(), None);
        assert_eq!(lo.window(), Some(0..4));
        // Identical op stream on the device for every window.
        for prog in [&full, &lo, &hi] {
            let mut ram = Ram::new(geom);
            let exec = prog.execute(&mut ram, false, None).unwrap();
            assert_eq!(exec.ops, 16, "{}", prog.name());
            assert!(!exec.detected());
        }
        // A fault at cell 6 is flagged by the full and hi windows only.
        let run = |prog: &TestProgram| {
            let mut ram = Ram::new(geom);
            ram.inject(FaultKind::StuckAt { cell: 6, bit: 0, value: 0 }).unwrap();
            prog.detect(&mut ram)
        };
        assert!(run(&full));
        assert!(!run(&lo));
        assert!(run(&hi));
    }

    #[test]
    fn detect_batch_matches_scalar_per_lane() {
        // A March-like program over 64 lanes, each carrying a different
        // batchable fault: lane verdicts must equal scalar verdicts.
        let geom = Geometry::bom(8);
        let mut b = ProgramBuilder::new(geom);
        for a in 0..8 {
            b.write(a, 0);
        }
        for a in 0..8 {
            b.read_expect(a, 0);
            b.write(a, 1);
        }
        for a in (0..8).rev() {
            b.read_expect(a, 1);
            b.write(a, 0);
        }
        let prog = b.build();
        let mut faults = Vec::new();
        for cell in 0..8 {
            faults.push(FaultKind::StuckAt { cell, bit: 0, value: 0 });
            faults.push(FaultKind::StuckAt { cell, bit: 0, value: 1 });
            faults.push(FaultKind::Transition { cell, bit: 0, rising: true });
            faults.push(FaultKind::Transition { cell, bit: 0, rising: false });
        }
        for cell in 0..4 {
            for force in [0u8, 1] {
                faults.push(FaultKind::CouplingIdempotent {
                    agg_cell: cell,
                    agg_bit: 0,
                    victim_cell: cell + 4,
                    victim_bit: 0,
                    trigger: crate::CouplingTrigger::Rise,
                    force,
                });
            }
        }
        assert!(faults.len() <= 64);
        let mut lanes: crate::LaneRam = crate::LaneRam::new(geom);
        for (lane, fault) in faults.iter().enumerate() {
            lanes.inject(fault.clone(), lane).unwrap();
        }
        let got = prog.detect_batch(&mut lanes, None);
        for (lane, fault) in faults.iter().enumerate() {
            let mut ram = Ram::new(geom);
            ram.inject(fault.clone()).unwrap();
            let want = prog.detect(&mut ram);
            assert_eq!(got.get(lane), want, "{fault} in lane {lane}");
        }
    }

    #[test]
    fn detect_batch_accumulator_wave_is_lane_exact() {
        // The GF(2) XOR-wave program of `accumulator_reproduces_gf2_wave`
        // run batched: a fault-free lane passes, a faulted lane fails,
        // exactly as the scalar interpreter decides.
        let geom = Geometry::bom(9);
        let mut b = ProgramBuilder::new(geom);
        let id = b.identity_map();
        b.write(0, 0);
        b.write(1, 1);
        for t in 0..7 {
            b.acc_set(0);
            b.read_acc(t + 1, id);
            b.read_acc(t, id);
            b.write_acc(t + 2);
        }
        let expect = [0u64, 1, 1, 0, 1, 1, 0, 1, 1];
        for (c, &e) in expect.iter().enumerate() {
            b.read_expect(c, e);
        }
        let prog = b.build();
        let faults = [
            FaultKind::StuckAt { cell: 4, bit: 0, value: 0 },
            FaultKind::StuckAt { cell: 4, bit: 0, value: 1 },
            FaultKind::Transition { cell: 2, bit: 0, rising: true },
            FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, // matches the seed: escapes?
        ];
        let mut lanes: crate::LaneRam = crate::LaneRam::new(geom);
        for (lane, fault) in faults.iter().enumerate() {
            lanes.inject(fault.clone(), lane).unwrap();
        }
        let got = prog.detect_batch(&mut lanes, None);
        for (lane, fault) in faults.iter().enumerate() {
            let mut ram = Ram::new(geom);
            ram.inject(fault.clone()).unwrap();
            assert_eq!(got.get(lane), prog.detect(&mut ram), "{fault}");
        }
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn detect_batch_geometry_mismatch_is_loud() {
        // Regression: this used to return 0 ("all 64 lanes escaped"),
        // silently reporting 0% coverage for a mis-sized program, where
        // the scalar checked path errors with ProgramGeometryMismatch.
        let mut b = ProgramBuilder::new(Geometry::bom(8));
        b.read_expect(0, 1);
        let prog = b.build();
        let mut lanes: crate::LaneRam = crate::LaneRam::new(Geometry::bom(4));
        lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 0).unwrap();
        let _ = prog.detect_batch(&mut lanes, None);
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn execute_batch_observed_geometry_mismatch_is_loud() {
        let mut b = ProgramBuilder::new(Geometry::bom(8));
        b.read_expect(0, 1);
        let prog = b.build();
        let mut lanes: crate::LaneRam = crate::LaneRam::new(Geometry::bom(4));
        let mut execs = [Execution::default(); crate::LANES];
        let _ = prog.execute_batch_observed(&mut lanes, None, &mut execs, &mut |_| {});
    }

    #[test]
    fn execute_batch_observed_matches_scalar_per_lane() {
        // Per-lane execution summaries AND the per-lane observed response
        // stream must equal the scalar full-run (`stop_at_first = false`)
        // observed execution for every fault family, including the newly
        // batchable ones.
        let geom = Geometry::bom(8);
        let mut b = ProgramBuilder::new(geom);
        for a in 0..8 {
            b.write(a, 0);
        }
        for a in 0..8 {
            b.read_expect(a, 0);
            b.write(a, 1);
        }
        for a in (0..8).rev() {
            b.read_expect(a, 1);
            b.write(a, 0);
        }
        for a in 0..8 {
            b.read_expect(a, 0);
        }
        let prog = b.build();
        let faults = [
            FaultKind::StuckAt { cell: 5, bit: 0, value: 1 },
            FaultKind::Transition { cell: 2, bit: 0, rising: true },
            FaultKind::StuckOpen { cell: 3 },
            FaultKind::ReadDestructive { cell: 1, bit: 0 },
            FaultKind::DeceptiveRead { cell: 6, bit: 0 },
            FaultKind::IncorrectRead { cell: 4, bit: 0 },
            FaultKind::WriteDisturb { cell: 7, bit: 0 },
            FaultKind::DecoderNoAccess { addr: 2 },
            FaultKind::DecoderExtraCell { addr: 1, extra_cell: 6 },
            FaultKind::DecoderShadow { addr: 4, instead_cell: 0 },
        ];
        let mut lanes: crate::LaneRam = crate::LaneRam::new(geom);
        // Spread the trials over arbitrary lane positions.
        let lane_of = |i: usize| (i * 7 + 3) % crate::LANES;
        for (i, fault) in faults.iter().enumerate() {
            lanes.inject(fault.clone(), lane_of(i)).unwrap();
        }
        let mut execs = [Execution::default(); crate::LANES];
        let mut streams: Vec<Vec<u64>> = vec![Vec::new(); crate::LANES];
        let flagged = prog.execute_batch_observed(&mut lanes, None, &mut execs, &mut |planes| {
            for (lane, stream) in streams.iter_mut().enumerate() {
                stream.push(crate::batch::lane_word(planes, lane));
            }
        });
        for (i, fault) in faults.iter().enumerate() {
            let lane = lane_of(i);
            let mut ram = Ram::new(geom);
            ram.inject(fault.clone()).unwrap();
            let mut seen = Vec::new();
            let exec = prog
                .execute_observed(&mut ram, false, None, &mut |v| seen.push(v))
                .expect("single-port run");
            assert_eq!(execs[lane], exec, "{fault}: execution summary diverged");
            assert_eq!(streams[lane], seen, "{fault}: observed stream diverged");
            assert_eq!(flagged.get(lane), exec.detected(), "{fault}");
        }
    }

    fn dual_port_march(geom: Geometry) -> TestProgram {
        // A dual-port March-like schedule: paired read/write cycles that
        // sweep the array, exercising read slots and write slots on both
        // ports, plus an accumulator slot pair.
        let n = geom.cells();
        let mut b = ProgramBuilder::new(geom);
        let id = b.identity_map();
        for a in 0..n {
            b.write(a, 0);
        }
        for a in 0..n / 2 {
            b.cycle2(
                SlotOp::ReadExpect { addr: a as u32, expect: 0 },
                SlotOp::Write { addr: (a + n / 2) as u32, data: 1 },
            );
        }
        for a in 0..n / 2 {
            b.cycle2(
                SlotOp::Write { addr: a as u32, data: 1 },
                SlotOp::ReadExpect { addr: (a + n / 2) as u32, expect: 1 },
            );
        }
        b.acc_set(0);
        b.cycle2(
            SlotOp::ReadAcc { addr: 0, map: id, lane: 0 },
            SlotOp::WriteAcc { addr: 1, lane: 0 }, // pre-cycle acc: writes 0
        );
        b.read_expect(1, 0);
        for a in (0..n).rev() {
            b.read_any(a);
        }
        b.cycle2(
            SlotOp::ReadStale { addr: 0, expect: 1 },
            SlotOp::ReadCapture { addr: 2, expect: 1 },
        );
        b.build()
    }

    #[test]
    fn cycle_batch_matches_scalar_per_lane() {
        // Multi-port programs batch now: per-lane verdicts, execution
        // summaries, and observed streams must equal the scalar dual-port
        // run for faults across the taxonomy, decoder families included.
        let geom = Geometry::bom(8);
        let prog = dual_port_march(geom);
        let faults = [
            FaultKind::StuckAt { cell: 5, bit: 0, value: 1 },
            FaultKind::StuckAt { cell: 1, bit: 0, value: 0 },
            FaultKind::Transition { cell: 2, bit: 0, rising: true },
            FaultKind::StuckOpen { cell: 3 },
            FaultKind::ReadDestructive { cell: 1, bit: 0 },
            FaultKind::DeceptiveRead { cell: 6, bit: 0 },
            FaultKind::IncorrectRead { cell: 4, bit: 0 },
            FaultKind::WriteDisturb { cell: 7, bit: 0 },
            FaultKind::DecoderNoAccess { addr: 2 },
            FaultKind::DecoderExtraCell { addr: 1, extra_cell: 6 },
            FaultKind::DecoderShadow { addr: 4, instead_cell: 0 },
        ];
        let mut lanes = crate::LaneRam::<1>::with_ports(geom, 2).unwrap();
        let lane_of = |i: usize| (i * 5 + 2) % crate::LANES;
        for (i, fault) in faults.iter().enumerate() {
            lanes.inject(fault.clone(), lane_of(i)).unwrap();
        }
        let mut execs = [Execution::default(); crate::LANES];
        let mut streams: Vec<Vec<u64>> = vec![Vec::new(); crate::LANES];
        let flagged = prog.execute_batch_observed(&mut lanes, None, &mut execs, &mut |planes| {
            for (lane, stream) in streams.iter_mut().enumerate() {
                stream.push(crate::batch::lane_word(planes, lane));
            }
        });
        for (i, fault) in faults.iter().enumerate() {
            let lane = lane_of(i);
            let mut ram = Ram::with_ports(geom, 2).unwrap();
            ram.inject(fault.clone()).unwrap();
            let mut seen = Vec::new();
            let exec = prog
                .execute_observed(&mut ram, false, None, &mut |v| seen.push(v))
                .expect("dual-port run on a conflict-free schedule");
            assert_eq!(execs[lane], exec, "{fault}: execution summary diverged");
            assert_eq!(streams[lane], seen, "{fault}: observed stream diverged");
            assert_eq!(flagged.get(lane), exec.detected(), "{fault}");
        }
        // And the detect (early-exit) channel agrees with scalar detect.
        let mut lanes = crate::LaneRam::<1>::with_ports(geom, 2).unwrap();
        for (i, fault) in faults.iter().enumerate() {
            lanes.inject(fault.clone(), lane_of(i)).unwrap();
        }
        let got = prog.detect_batch(&mut lanes, None);
        for (i, fault) in faults.iter().enumerate() {
            let mut ram = Ram::with_ports(geom, 2).unwrap();
            ram.inject(fault.clone()).unwrap();
            assert_eq!(got.get(lane_of(i)), prog.detect(&mut ram), "{fault}");
        }
    }

    #[test]
    fn cycle_batch_write_conflicts_escape_like_scalar() {
        // A decoder shadow can fold a dual-port cycle's two writes onto
        // one cell: the scalar device errors (escape); the batch freezes
        // that lane and reports the same escape, while a healthy lane
        // with a detectable fault is still flagged.
        let geom = Geometry::bom(8);
        let mut b = ProgramBuilder::new(geom);
        b.write(6, 0);
        b.cycle2(SlotOp::Write { addr: 3, data: 1 }, SlotOp::Write { addr: 4, data: 1 });
        b.read_expect(3, 1);
        b.read_expect(6, 0);
        let prog = b.build();
        let shadow = FaultKind::DecoderShadow { addr: 4, instead_cell: 3 };
        let stuck = FaultKind::StuckAt { cell: 6, bit: 0, value: 1 };
        let mut lanes = crate::LaneRam::<1>::with_ports(geom, 2).unwrap();
        lanes.inject(shadow.clone(), 9).unwrap();
        lanes.inject(stuck.clone(), 20).unwrap();
        let got = prog.detect_batch(&mut lanes, None);
        let scalar = |fault: &FaultKind| {
            let mut ram = Ram::with_ports(geom, 2).unwrap();
            ram.inject(fault.clone()).unwrap();
            prog.detect(&mut ram)
        };
        assert!(!scalar(&shadow), "scalar conflict is an escape");
        assert!(!got.get(9), "conflicting lane escapes like scalar");
        assert!(scalar(&stuck));
        assert!(got.get(20), "healthy lanes keep detecting");
        assert_eq!(lanes.errored_lanes(), LaneChunk::single(9));
        // Observed form: the frozen lane's summary is the default one,
        // exactly as the scalar Err discards its counts.
        let mut lanes = crate::LaneRam::<1>::with_ports(geom, 2).unwrap();
        lanes.inject(shadow, 9).unwrap();
        lanes.inject(stuck, 20).unwrap();
        let mut execs = [Execution::default(); crate::LANES];
        let flagged = prog.execute_batch_observed(&mut lanes, None, &mut execs, &mut |_| {});
        assert!(!flagged.get(9));
        assert!(flagged.get(20));
        assert_eq!(execs[9], Execution::default());
        assert!(execs[20].detected());
    }

    #[test]
    #[should_panic(expected = "needs 2 ports")]
    fn detect_batch_port_shortfall_is_loud() {
        // A whole batch on an under-ported pool is a configuration error,
        // surfaced loudly like the geometry mismatch (the scalar path
        // treats TooManyPortOps per trial as an escape; a batch would
        // silently report 0% coverage).
        let geom = Geometry::bom(4);
        let mut b = ProgramBuilder::new(geom);
        b.cycle2(SlotOp::ReadExpect { addr: 0, expect: 0 }, SlotOp::Idle);
        let prog = b.build();
        let _ = prog.detect_batch::<1>(&mut crate::LaneRam::new(geom), None);
    }

    #[test]
    #[should_panic(expected = "address in range")]
    fn builder_rejects_out_of_range_address() {
        ProgramBuilder::new(Geometry::bom(4)).write(4, 0);
    }

    #[test]
    #[should_panic(expected = "data fits cell width")]
    fn builder_rejects_wide_data() {
        ProgramBuilder::new(Geometry::bom(4)).write(0, 2);
    }

    #[test]
    #[should_panic(expected = "accumulator lane out of range")]
    fn builder_rejects_bad_lane() {
        ProgramBuilder::new(Geometry::bom(4)).acc_set_in(ACC_LANES as u8, 0);
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn builder_rejects_oversized_cycle() {
        ProgramBuilder::new(Geometry::bom(4)).cyclen(&[SlotOp::Idle; MAX_PORTS + 1]);
    }

    #[test]
    #[should_panic(expected = "check window exceeds the geometry")]
    fn builder_rejects_bad_window() {
        let _ = ProgramBuilder::new(Geometry::bom(4)).with_window(0..5);
    }
}
