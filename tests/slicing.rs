//! Sliced ≡ full-pass differential property suite: activity-driven
//! program slicing must be **observationally invisible** — verdicts,
//! first-mismatch op indices, observed response streams, MISR
//! signatures, dictionary builds, coverage reports and checkpoints all
//! bit-identical to the full interpreter pass — across every compiled
//! test family, every fault family, every lane-chunk width and any
//! thread count. The full pass (`with_slicing(false)`) is the oracle —
//! these are the acceptance tests of the slicing layer, alongside the
//! locality-sorted chunk-assembly invariance the campaign scheduler
//! promises for reports and checkpoints. The default, automatic engine
//! (full or sliced pass per chunk, [`ActiveSet::prefers_full_pass`]) is
//! held to both forced modes and the scalar interpreter on a dense, a
//! sparse and a mixed universe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use prt_sim::{checkpoint, ClassTally};
use prt_suite::prelude::*;

/// Per-process unique checkpoint paths (proptest cases run many files).
static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_ckpt(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "prt-slicing-{}-{tag}-{}.ckpt",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The mixed universe every slicing property sweeps: every modelled
/// family — the single-cell families with tight spans, the coupling
/// families whose spans straddle aggressor/victim windows, and the
/// decoder/stuck-open/read-logic families with always-active footprints.
fn mixed_universe(geom: Geometry) -> FaultUniverse {
    let spec = UniverseSpec {
        coupling_radius: Some(2),
        intra_word: geom.width() > 1,
        ..UniverseSpec::full()
    };
    FaultUniverse::enumerate(geom, &spec)
}

/// Thread count for the differential sweeps: `PRT_TEST_THREADS`
/// overrides the proptest-chosen count, so CI pins every sweep to a
/// fixed multi-worker configuration.
fn test_threads(chosen: usize) -> usize {
    std::env::var("PRT_TEST_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(chosen)
}

/// Sliced and full-pass campaign verdicts over `universe` must be
/// identical — at the given width and thread count, and both must match
/// the scalar interpreter.
fn assert_sliced_equals_full(
    universe: &FaultUniverse,
    program: &TestProgram,
    width: LaneWidth,
    threads: usize,
) {
    let threads = test_threads(threads);
    let backgrounds = [program.background().unwrap_or(0)];
    let scalar = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_lane_batching(false)
        .with_parallelism(Parallelism::Sequential)
        .detections();
    let full = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_slicing(false)
        .with_lane_width(width)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    let sliced = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_slicing(true)
        .with_lane_width(width)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    assert_eq!(scalar, full, "{}: full pass diverged from scalar", program.name());
    for (i, (f, s)) in full.iter().zip(&sliced).enumerate() {
        assert_eq!(
            f,
            s,
            "{}: sliced verdict diverged on {} (lanes={}, threads={})",
            program.name(),
            universe.faults()[i],
            width.lanes(),
            threads
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// SLICED ≡ FULL (March): every library algorithm, random geometry
    /// (BOM and 4-bit WOM), background, lane width and thread count,
    /// over the full mixed universe.
    #[test]
    fn march_sliced_campaign_equals_full(
        test_idx in 0usize..15,
        bg in 0u64..16,
        n in 2usize..12,
        wom in any::<bool>(),
        width_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let bg = bg & geom.data_mask();
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program =
            Executor::new().with_background(bg).stop_at_first_mismatch().compile(test, geom);
        let width = [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512][width_pick];
        assert_sliced_equals_full(&u, &program, width, threads);
    }

    /// SLICED ≡ FULL (π-test): the compiled π program exercises the
    /// accumulator ops the slicer must treat as always-active.
    #[test]
    fn pi_sliced_campaign_equals_full(
        s0 in 0u64..16,
        s1 in 0u64..16,
        n in 3usize..14,
        width_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let field = Field::new(4, 0b1_0011).expect("GF(16)");
        let pi = PiTest::new(field, &[1, 2, 2], &[s0, s1]).expect("config");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let program = pi.compile(geom).expect("compile");
        let width = [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512][width_pick];
        assert_sliced_equals_full(&u, &program, width, threads);
    }

    /// SLICED ≡ FULL (PRT / bit-plane schemes): stale-channel pre-reads
    /// and multi-round plane programs.
    #[test]
    fn scheme_sliced_campaign_equals_full(
        which in 0usize..4,
        n in 3usize..12,
        width_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let width = [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512][width_pick];
        if which < 2 {
            let field = Field::new(1, 0b11).expect("GF(2)");
            let scheme = if which == 0 {
                PrtScheme::standard3(field).expect("scheme")
            } else {
                PrtScheme::standard4(field).expect("scheme")
            };
            let geom = Geometry::bom(n);
            let u = mixed_universe(geom);
            let program = scheme.compile(geom).expect("compile");
            assert_sliced_equals_full(&u, &program, width, threads);
        } else {
            let rounds = which - 1; // 1 or 2
            let scheme =
                PlaneScheme::standard(Poly2::from_bits(0b111), 4, rounds).expect("scheme");
            let geom = Geometry::wom(n, 4).expect("geometry");
            let u = mixed_universe(geom);
            let program = scheme.compile(geom).expect("compile");
            assert_sliced_equals_full(&u, &program, width, threads);
        }
    }

    /// SLICED ≡ FULL (multi-background): the `ProgramBank` dispatch path
    /// with the per-fault early exit across backgrounds — the sliced
    /// interpreter re-derives each background's activity index.
    #[test]
    fn multibackground_sliced_equals_full(
        test_idx in 0usize..15,
        n in 2usize..10,
        threads in 1usize..5,
    ) {
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let ex = Executor::new().stop_at_first_mismatch();
        let bgs = prt_march::coverage::standard_backgrounds(4);
        let bank = prt_march::coverage::compile_bank(test, geom, &ex, &bgs);
        let threads = test_threads(threads);
        let full = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_slicing(false)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        let sliced = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_slicing(true)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        prop_assert_eq!(full, sliced, "{} n={}", test.name(), n);
    }

    /// SLICED OBSERVED ≡ FULL OBSERVED: at the interpreter level, the
    /// sliced observed pass must reproduce the full pass **exactly** —
    /// the observed response planes (gap reads spliced from the
    /// reference), every per-lane execution summary including the
    /// first-mismatch op index, the detection chunk and the frozen-lane
    /// set — for random fault chunks at both K = 1 and K = 8. Besides a
    /// single-port March program, every case runs a single-port π
    /// program (`ReadAcc`/`WriteAcc` accumulator ops) and a dual-port π
    /// program (`CycleN` slots plus accumulators). Observations of lanes
    /// frozen by a multi-port write-write conflict are unspecified in
    /// both passes and are not compared.
    #[test]
    fn sliced_observed_stream_is_bit_identical(
        test_idx in 0usize..15,
        n in 2usize..10,
        wom in any::<bool>(),
        offset in 0usize..64,
        s0 in 0u64..16,
        s1 in 0u64..16,
    ) {
        fn check_chunks<const K: usize>(program: &TestProgram, faults: &[FaultKind]) {
            let geom = program.geometry();
            let index = ActivityIndex::build(program);
            let name = program.name();
            for chunk in faults.chunks(LaneRam::<K>::LANES) {
                let mut active = ActiveSet::new();
                for f in chunk {
                    active.insert_fault(f);
                }
                active.finalize(&index);
                let lane_ram = || LaneRam::<K>::with_ports(geom, program.ports()).expect("ports");
                let (mut full_ram, mut sliced_ram) = (lane_ram(), lane_ram());
                for (lane, f) in chunk.iter().enumerate() {
                    full_ram.inject(f.clone(), lane).expect("inject");
                    sliced_ram.inject(f.clone(), lane).expect("inject");
                }
                let mut full_execs = vec![Execution::default(); LaneRam::<K>::LANES];
                let mut sliced_execs = full_execs.clone();
                let mut full_stream: Vec<Vec<u64>> = Vec::new();
                let mut sliced_stream: Vec<Vec<u64>> = Vec::new();
                let full_det =
                    program.execute_batch_observed(&mut full_ram, None, &mut full_execs, &mut |p| {
                        full_stream
                            .push((0..LaneRam::<K>::LANES).map(|l| lane_word(p, l)).collect());
                    });
                let sliced_det = program.execute_batch_observed(
                    &mut sliced_ram,
                    Some((&index, &active)),
                    &mut sliced_execs,
                    &mut |p| {
                        sliced_stream
                            .push((0..LaneRam::<K>::LANES).map(|l| lane_word(p, l)).collect());
                    },
                );
                let errored = full_ram.errored_lanes();
                assert_eq!(errored, sliced_ram.errored_lanes(), "{name}: frozen lanes diverged (K={K})");
                assert_eq!(full_det, sliced_det, "{name}: detection chunk diverged (K={K})");
                assert_eq!(full_execs, sliced_execs, "{name}: execution summaries diverged (K={K})");
                let unfrozen = |stream: Vec<Vec<u64>>| -> Vec<Vec<u64>> {
                    stream
                        .into_iter()
                        .map(|words| {
                            words
                                .into_iter()
                                .enumerate()
                                .filter(|&(l, _)| !errored.get(l))
                                .map(|(_, w)| w)
                                .collect()
                        })
                        .collect()
                };
                assert_eq!(
                    unfrozen(full_stream),
                    unfrozen(sliced_stream),
                    "{name}: observed response planes diverged (K={K})"
                );
            }
        }
        fn check_program(program: &TestProgram, offset: usize) {
            let u = mixed_universe(program.geometry());
            // Rotate the universe so chunks mix families across cases.
            let mut faults = u.faults().to_vec();
            let pivot = offset % faults.len().max(1);
            faults.rotate_left(pivot);
            check_chunks::<1>(program, &faults);
            check_chunks::<8>(program, &faults);
        }
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        check_program(&Executor::new().compile(test, geom), offset);
        let field = Field::new(4, 0b1_0011).expect("GF(16)");
        let pi = PiTest::new(field, &[1, 2, 2], &[s0, s1]).expect("config");
        let pi_geom = Geometry::wom(n.max(3), 4).expect("geometry");
        check_program(&pi.compile(pi_geom).expect("compile"), offset);
        check_program(&pi.compile_dual_port(pi_geom, None).expect("compile dual"), offset);
    }

    /// ASSEMBLY-ORDER INVARIANCE: the locality-sorted chunk assembly the
    /// sliced scheduler uses must be invisible in the published coverage
    /// report — sliced and full-pass runs (different batch compositions
    /// entirely) produce identical reports at any width/thread count,
    /// and so does a sliced run over a pre-shuffled fault list versus
    /// its own full-pass twin.
    #[test]
    fn reports_invariant_under_chunk_assembly(
        test_idx in 0usize..15,
        n in 4usize..10,
        seed in any::<u64>(),
        width_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().stop_at_first_mismatch().compile(test, geom);
        let width = [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512][width_pick];
        let threads = test_threads(threads);
        let full = Campaign::new(&u, &program)
            .with_name("assembly")
            .with_slicing(false)
            .with_lane_width(width)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        let sliced = Campaign::new(&u, &program)
            .with_name("assembly")
            .with_slicing(true)
            .with_lane_width(width)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        prop_assert_eq!(&full, &sliced, "report changed under locality assembly");
        // A shuffled universe: chunk compositions change again; each
        // engine must still agree with the other on the permuted list.
        let mut shuffled = u.faults().to_vec();
        let mut rng = SplitMix64::new(seed);
        rng.shuffle(&mut shuffled);
        let full_shuffled = Campaign::over(geom, &shuffled, &program)
            .with_name("assembly")
            .with_slicing(false)
            .with_lane_width(width)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        let sliced_shuffled = Campaign::over(geom, &shuffled, &program)
            .with_name("assembly")
            .with_slicing(true)
            .with_lane_width(width)
            .with_parallelism(Parallelism::Threads(threads))
            .run();
        prop_assert_eq!(&full_shuffled, &sliced_shuffled);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CHECKPOINT INVARIANCE: slicing is deliberately excluded from the
    /// checkpoint fingerprint — a campaign checkpointed mid-run under one
    /// slicing setting resumes under the OTHER setting (and a different
    /// thread count) to a report bit-identical to an uninterrupted run,
    /// from any rewound prefix (a prefix that need not align with either
    /// engine's chunk boundaries).
    #[test]
    fn checkpoint_resumes_across_slicing_settings(
        n in 6usize..10,
        cut_permille in 0usize..1000,
        every in 5usize..60,
        threads in 1usize..5,
        first_sliced in any::<bool>(),
    ) {
        let u = mixed_universe(Geometry::bom(n));
        let program = Executor::new().compile(&march_library::march_c_minus(), u.geometry());
        let baseline = Campaign::new(&u, &program).with_name("sliced-ckpt").run();
        let path = temp_ckpt("slice");
        let full = Campaign::new(&u, &program)
            .with_name("sliced-ckpt")
            .with_slicing(first_sliced)
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &full);
        let fp = checkpoint::peek_fingerprint(&path).unwrap();
        let saved: Vec<bool> = checkpoint::load_records(&path, fp, u.len()).unwrap().unwrap();
        let cut = saved.len() * cut_permille / 1000;
        checkpoint::save_records(&path, fp, u.len(), &saved[..cut]).unwrap();
        let resumed = Campaign::new(&u, &program)
            .with_name("sliced-ckpt")
            .with_slicing(!first_sliced)
            .with_parallelism(Parallelism::Threads(test_threads(threads)))
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &resumed);
        let _ = std::fs::remove_file(&path);
    }

    /// SLICED DICTIONARY ≡ SCALAR DICTIONARY: the batched dictionary
    /// build slices through the `SignatureCollector`'s activity index —
    /// every per-fault signature, execution summary and the aggregate
    /// statistics must match the scalar build exactly.
    #[test]
    fn sliced_dictionary_build_equals_scalar(
        test_idx in 0usize..3,
        n in 6usize..14,
        threads in 1usize..5,
    ) {
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let tests =
            [march_library::march_diag(), march_library::march_c_minus(), march_library::mats_plus()];
        let program = Executor::new().compile(&tests[test_idx], geom);
        let poly = Poly2::from_bits(0b1_0001_1011);
        let scalar = FaultDictionary::build_with_batching(
            &u, &program, poly, Parallelism::Sequential, false,
        )
        .expect("scalar build");
        let sliced =
            FaultDictionary::build(&u, &program, poly, Parallelism::Threads(test_threads(threads)))
                .expect("sliced batched build");
        for (i, (s, b)) in scalar.observations().iter().zip(sliced.observations()).enumerate() {
            prop_assert_eq!(
                s, b,
                "observation diverged on {} ({})", &u.faults()[i], tests[test_idx].name()
            );
        }
        prop_assert_eq!(scalar.stats(), sliced.stats());
    }
}

/// The single-thread fast path (no claim counter, no fan-out) is verdict-
/// and report-identical to the multi-worker schedule, sliced and full,
/// across widths — the guard for the `workers <= 1` bypass.
#[test]
fn single_thread_fast_path_matches_fanout() {
    let u = mixed_universe(Geometry::bom(12));
    let program = Executor::new().compile(&march_library::march_c_minus(), u.geometry());
    for slicing in [false, true] {
        for width in [LaneWidth::X64, LaneWidth::X512] {
            let sequential = Campaign::new(&u, &program)
                .with_name("fast-path")
                .with_slicing(slicing)
                .with_lane_width(width)
                .with_parallelism(Parallelism::Sequential)
                .run();
            let threaded = Campaign::new(&u, &program)
                .with_name("fast-path")
                .with_slicing(slicing)
                .with_lane_width(width)
                .with_parallelism(Parallelism::Threads(4))
                .run();
            assert_eq!(sequential, threaded, "slicing={slicing} lanes={}", width.lanes());
        }
    }
}

/// The three engine settings: `None` is the default automatic engine,
/// `Some(sliced)` forces one pass.
const ENGINES: [Option<bool>; 3] = [None, Some(false), Some(true)];

fn with_engine<'a, R: FaultRunner>(
    campaign: Campaign<'a, R>,
    engine: Option<bool>,
) -> Campaign<'a, R> {
    match engine {
        Some(sliced) => campaign.with_slicing(sliced),
        None => campaign,
    }
}

/// The auto engine's differential universes, the sparse one on
/// `sparse_cells` cells: `(label, universe, chunks can be dense, chunks
/// can be sparse)` under March C-.
fn auto_engine_universes(sparse_cells: usize) -> Vec<(&'static str, FaultUniverse, bool, bool)> {
    vec![
        // Every chunk spans (nearly) every cell: always the full pass.
        (
            "dense",
            FaultUniverse::enumerate(Geometry::bom(16), &UniverseSpec::paper_claim()),
            true,
            false,
        ),
        // Single-cell faults on a large array: always the sliced pass.
        (
            "sparse",
            FaultUniverse::enumerate(Geometry::bom(sparse_cells), &UniverseSpec::single_cell()),
            false,
            true,
        ),
        // SAF/TF/CFin chunks span the array, radius-2 CFid/CFst chunks
        // only half of it: one campaign takes both branches.
        (
            "mixed",
            FaultUniverse::enumerate(
                Geometry::bom(64),
                &UniverseSpec { coupling_radius: Some(2), ..UniverseSpec::paper_claim() },
            ),
            true,
            true,
        ),
    ]
}

/// `(dense, sparse)` chunk counts of `faults` in universe order under the
/// auto engine's rule.
fn rule_decisions(faults: &[FaultKind], program: &TestProgram, lanes: usize) -> (usize, usize) {
    let index = program.activity_index();
    let mut active = ActiveSet::new();
    let dense =
        faults.chunks(lanes).filter(|chunk| active.prefers_full_pass(&index, *chunk)).count();
    (dense, faults.len().div_ceil(lanes) - dense)
}

/// AUTO ≡ FORCED FULL ≡ FORCED SLICED ≡ SCALAR: verdicts and coverage
/// reports of the default engine equal both forced passes and the scalar
/// interpreter on a dense, a sparse and a mixed universe, at every lane
/// width and at one and two threads — and each universe really drives
/// the rule down the branches it is named for.
#[test]
fn auto_engine_equals_forced_engines_and_scalar() {
    for (label, u, dense, sparse) in auto_engine_universes(1024) {
        let program = Executor::new()
            .stop_at_first_mismatch()
            .compile(&march_library::march_c_minus(), u.geometry());
        let scalar_verdicts = Campaign::new(&u, &program)
            .with_lane_batching(false)
            .with_parallelism(Parallelism::Threads(2))
            .detections();
        // The scalar report is the class tally of the scalar verdicts.
        let mut tally = ClassTally::new();
        for (fault, &detected) in u.faults().iter().zip(&scalar_verdicts) {
            tally.record(fault.mnemonic(), detected);
        }
        let scalar = tally.into_report(label);
        for width in [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512] {
            let (d, s) = rule_decisions(u.faults(), &program, width.lanes());
            assert_eq!((d > 0, s > 0), (dense, sparse), "{label}: {d} dense / {s} sparse chunks");
            for threads in [1, 2] {
                for engine in ENGINES {
                    let campaign = || {
                        with_engine(Campaign::new(&u, &program), engine)
                            .with_name(label)
                            .with_lane_width(width)
                            .with_parallelism(Parallelism::Threads(threads))
                    };
                    let at = format!("{label}, engine {engine:?}, {width:?}, {threads} threads");
                    assert_eq!(campaign().detections(), scalar_verdicts, "{at}: verdicts");
                    assert_eq!(campaign().run(), scalar, "{at}: report");
                }
            }
        }
    }
}

/// Accumulator-driven programs skip the per-chunk rule (no chunk can
/// prefer slicing); the default engine still equals both forced passes.
#[test]
fn auto_engine_equals_forced_engines_on_prt_programs() {
    let u = FaultUniverse::enumerate(Geometry::bom(16), &UniverseSpec::paper_claim());
    let field = Field::new(1, 0b11).expect("GF(2)");
    let program =
        PrtScheme::standard3(field).expect("scheme").compile(u.geometry()).expect("compile");
    assert!(program.activity_index().always_prefers_full_pass());
    let reports: Vec<CoverageReport> =
        ENGINES.iter().map(|&e| with_engine(Campaign::new(&u, &program), e).run()).collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

/// AUTO DICTIONARY ≡ FORCED DICTIONARIES: the default batched dictionary
/// build (whose collector picks its pass per chunk by the same rule)
/// records the same per-fault observation — MISR signature and execution
/// summary — as the scalar build and as builds forced onto the full and
/// the sliced observed pass, on the dense, sparse and mixed universes.
#[test]
fn dictionary_observations_identical_for_auto_and_forced_builds() {
    let poly = Poly2::from_bits(0b1_0001_1011);
    // 1024 single-cell faults on 256 cells: still sparse in 512-lane
    // chunks, and small enough for the scalar oracle build.
    for (label, u, _, _) in auto_engine_universes(256) {
        let program = Executor::new().compile(&march_library::march_diag(), u.geometry());
        let auto = FaultDictionary::build(&u, &program, poly, Parallelism::Threads(2))
            .expect("auto build");
        let scalar = FaultDictionary::build_with_batching(
            &u,
            &program,
            poly,
            Parallelism::Sequential,
            false,
        )
        .expect("scalar build");
        assert_eq!(auto.observations(), scalar.observations(), "{label}: auto vs scalar");
        for sliced in [false, true] {
            let forced = forced_observations(&program, u.faults(), poly, sliced);
            assert_eq!(auto.observations(), &forced[..], "{label}: auto vs forced sliced={sliced}");
        }
    }
}

/// Per-fault observations of a 512-lane batched sweep forced onto the
/// full (`sliced = false`) or the sliced observed pass: one MISR per lane
/// over that lane's checked-read words, as a dictionary compacts them.
fn forced_observations(
    program: &TestProgram,
    faults: &[FaultKind],
    poly: Poly2,
    sliced: bool,
) -> Vec<Observation> {
    let index = program.activity_index();
    prt_sim::map_trials_batched::<8, _, _, _>(
        program.geometry(),
        program.ports(),
        faults,
        Parallelism::Sequential,
        |ram, out| {
            let k = ram.active_lanes().count_ones() as usize;
            let mut misrs = vec![Misr::new(poly).expect("poly"); k];
            let mut execs = vec![Execution::default(); LaneRam::<8>::LANES];
            let mut observer = |planes: &[LaneChunk<8>]| {
                for (lane, misr) in misrs.iter_mut().enumerate() {
                    misr.absorb(lane_word(planes, lane));
                }
            };
            let mut active = ActiveSet::new();
            if sliced {
                for (fault, _) in ram.fault_bank().faults() {
                    active.insert_fault(fault);
                }
                active.finalize(&index);
            }
            let slice = sliced.then_some((&*index, &active));
            program.execute_batch_observed(ram, slice, &mut execs, &mut observer);
            assert_eq!(
                ram.errored_lanes(),
                LaneChunk::ZERO,
                "single-port programs never freeze lanes"
            );
            out.extend(
                misrs
                    .iter()
                    .zip(&execs)
                    .map(|(m, &exec)| Observation { signature: m.signature(), exec }),
            );
        },
        |_, _| unreachable!("every batch completes"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CHECKPOINT INVARIANCE ACROSS ENGINES: a campaign over the mixed
    /// universe checkpointed under one engine setting (auto, forced full
    /// or forced sliced) resumes under any other — from any rewound
    /// prefix, at another thread count — to the uninterrupted report.
    #[test]
    fn checkpoint_resumes_across_auto_and_forced_engines(
        first in 0usize..3,
        second in 0usize..3,
        cut_permille in 0usize..1000,
        every in 50usize..700,
        threads in 1usize..4,
    ) {
        let (_, u, _, _) = auto_engine_universes(1024).swap_remove(2);
        let program = Executor::new().compile(&march_library::march_c_minus(), u.geometry());
        let baseline = Campaign::new(&u, &program).with_name("engine-ckpt").run();
        let path = temp_ckpt("engine");
        let written = with_engine(Campaign::new(&u, &program), ENGINES[first])
            .with_name("engine-ckpt")
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &written);
        let fp = checkpoint::peek_fingerprint(&path).unwrap();
        let saved: Vec<bool> = checkpoint::load_records(&path, fp, u.len()).unwrap().unwrap();
        let cut = saved.len() * cut_permille / 1000;
        checkpoint::save_records(&path, fp, u.len(), &saved[..cut]).unwrap();
        let resumed = with_engine(Campaign::new(&u, &program), ENGINES[second])
            .with_name("engine-ckpt")
            .with_parallelism(Parallelism::Threads(test_threads(threads)))
            .with_checkpoint(&path, every)
            .run();
        prop_assert_eq!(&baseline, &resumed);
        let _ = std::fs::remove_file(&path);
    }
}
