//! Sliced ≡ full-pass differential property suite: activity-driven
//! program slicing must be **observationally invisible** — verdicts,
//! first-mismatch op indices, observed response streams, MISR
//! signatures, dictionary builds, coverage reports and checkpoints all
//! bit-identical to the full interpreter pass and the scalar oracle —
//! across every compiled test family, every fault family, every
//! lane-chunk width and any thread count, and for any chunk composition.
//! The default, automatic engine (full or sliced pass per chunk,
//! [`ActiveSet::prefers_full_pass`]) is held to both forced passes and
//! the scalar interpreter on a dense, a sparse and a mixed universe. The
//! sweeps run on the shared differential harness (`tests/common/`).

mod common;

use common::compare::{
    assert_engines_agree, assert_observations_agree, assert_reproduces, assert_resume_agrees, run,
    Faults,
};
use common::engines::{matrix, test_threads, Engine, Setting, WIDTHS};
use common::programs::{march, march_bank, march_observed, march_test, pi, plane, scheme, Subject};
use common::universes::{auto_engine, auto_mixed, geometry, mixed, shuffled};
use proptest::prelude::*;
use prt_suite::prelude::*;

/// Both forced passes at `width` on `threads` workers.
fn forced(width: LaneWidth, threads: usize) -> Vec<Setting> {
    matrix(&Engine::FORCED, &[width], &[test_threads(threads)])
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
        let geom = geometry(n, wom);
        let subject = march(&march_test(test_idx), geom, bg);
        assert_engines_agree(&mixed(geom, None), &subject, &forced(WIDTHS[width_pick], threads));
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
        let geom = geometry(n, true);
        let subject = pi(s0, s1, geom, 1);
        assert_engines_agree(&mixed(geom, None), &subject, &forced(WIDTHS[width_pick], threads));
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
        // standard3 and standard4 on BOM, one- and two-round planes on WOM.
        let geom = geometry(n, which >= 2);
        let subject = if which < 2 { scheme(which, geom) } else { plane(which - 1, geom) };
        assert_engines_agree(&mixed(geom, None), &subject, &forced(WIDTHS[width_pick], threads));
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
        let geom = geometry(n, true);
        let subject = march_bank(&march_test(test_idx), geom);
        assert_engines_agree(&mixed(geom, None), &subject, &forced(LaneWidth::X512, threads));
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
            // Rotate the universe so chunks mix families across cases.
            let mut faults = mixed(program.geometry(), None).faults().to_vec();
            let pivot = offset % faults.len().max(1);
            faults.rotate_left(pivot);
            check_chunks::<1>(program, &faults);
            check_chunks::<8>(program, &faults);
        }
        let geom = geometry(n, wom);
        check_program(&march_observed(&march_test(test_idx), geom), offset);
        let pi_geom = geometry(n.max(3), true);
        check_program(pi(s0, s1, pi_geom, 1).program(), offset);
        check_program(pi(s0, s1, pi_geom, 2).program(), offset);
    }

    /// CHUNK-COMPOSITION INVARIANCE: which faults share a lane chunk must
    /// be invisible in the published coverage report — the forced full
    /// and sliced passes (different chunk widths entirely) reproduce the
    /// scalar report at any width/thread count, over the universe in
    /// enumeration order and over a shuffled copy of it.
    #[test]
    fn reports_invariant_under_chunk_assembly(
        test_idx in 0usize..15,
        n in 4usize..10,
        seed in any::<u64>(),
        width_pick in 0usize..3,
        threads in 1usize..5,
    ) {
        let geom = geometry(n, false);
        let u = mixed(geom, None);
        let subject = march(&march_test(test_idx), geom, 0);
        let settings = forced(WIDTHS[width_pick], threads);
        assert_engines_agree(&u, &subject, &settings);
        let shuffled = shuffled(&u, seed);
        assert_engines_agree(Faults { list: &shuffled, ..(&u).into() }, &subject, &settings);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// CHECKPOINT INVARIANCE: the engine is deliberately excluded from
    /// the checkpoint fingerprint — a campaign checkpointed mid-run under
    /// one forced pass resumes under the OTHER (and a different thread
    /// count) to a report bit-identical to an uninterrupted run, from any
    /// rewound prefix (a prefix that need not align with either engine's
    /// chunk boundaries).
    #[test]
    fn checkpoint_resumes_across_slicing_settings(
        n in 6usize..10,
        cut_permille in 0usize..1000,
        every in 5usize..60,
        threads in 1usize..5,
        first_sliced in any::<bool>(),
    ) {
        let u = mixed(geometry(n, false), None);
        let subject = Subject::single(march_observed(&march_library::march_c_minus(), u.geometry()));
        let [first, second] = if first_sliced { [Engine::Sliced, Engine::Full] } else { Engine::FORCED };
        let first = Setting { engine: first, ..Setting::DEFAULT };
        let second = Setting::new(second, LaneWidth::X512, test_threads(threads));
        assert_resume_agrees(&u, &subject, first, second, every, cut_permille);
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
        let geom = geometry(n, false);
        let tests =
            [march_library::march_diag(), march_library::march_c_minus(), march_library::mats_plus()];
        let program = march_observed(&tests[test_idx], geom);
        let settings = matrix(&[Engine::Auto], &[LaneWidth::X512], &[test_threads(threads)]);
        assert_observations_agree(&mixed(geom, None), &program, &settings);
    }
}

/// The single-thread fast path (no claim counter, no fan-out) is verdict-
/// and report-identical to the multi-worker schedule, sliced and full,
/// across widths — the guard for the `workers <= 1` bypass.
#[test]
fn single_thread_fast_path_matches_fanout() {
    let u = mixed(geometry(12, false), None);
    let subject = Subject::single(march_observed(&march_library::march_c_minus(), u.geometry()));
    let settings = matrix(&Engine::FORCED, &[LaneWidth::X64, LaneWidth::X512], &[1, 4]);
    assert_engines_agree(&u, &subject, &settings);
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
    for kind in auto_engine(1024) {
        let (label, u) = (kind.label, &kind.universe);
        let subject = march(&march_library::march_c_minus(), u.geometry(), 0);
        for width in WIDTHS {
            let (d, s) = rule_decisions(u.faults(), subject.program(), width.lanes());
            let taken = (d > 0, s > 0);
            assert_eq!(taken, (kind.dense, kind.sparse), "{label}: {d} dense / {s} sparse chunks");
        }
        let oracle = run(u, &subject, Setting::new(Engine::Scalar, LaneWidth::X512, 2));
        assert_reproduces(u, &subject, &matrix(&Engine::BATCHED, &WIDTHS, &[1, 2]), &oracle);
    }
}

/// Accumulator-driven programs skip the per-chunk rule (no chunk can
/// prefer slicing); the default engine still equals both forced passes.
#[test]
fn auto_engine_equals_forced_engines_on_prt_programs() {
    let [dense, ..] = auto_engine(1024);
    let subject = scheme(0, dense.universe.geometry());
    assert!(subject.program().activity_index().always_prefers_full_pass());
    let settings = Engine::BATCHED.map(|engine| Setting { engine, ..Setting::DEFAULT });
    assert_engines_agree(&dense.universe, &subject, &settings);
}

/// AUTO DICTIONARY ≡ FORCED DICTIONARIES: the default batched dictionary
/// build (whose collector picks its pass per chunk by the same rule)
/// records the same per-fault observation — MISR signature and execution
/// summary — as the scalar build and as 512-lane sweeps forced onto the
/// full and the sliced observed pass, on the dense, sparse and mixed
/// universes.
#[test]
fn dictionary_observations_identical_for_auto_and_forced_builds() {
    let settings = [
        Setting::new(Engine::Auto, LaneWidth::X512, 2),
        Setting::new(Engine::Full, LaneWidth::X512, 1),
        Setting::new(Engine::Sliced, LaneWidth::X512, 1),
    ];
    // 1024 single-cell faults on 256 cells: still sparse in 512-lane
    // chunks, and small enough for the scalar oracle build.
    for kind in auto_engine(256) {
        let program = march_observed(&march_library::march_diag(), kind.universe.geometry());
        assert_observations_agree(&kind.universe, &program, &settings);
    }
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
        let u = auto_mixed();
        let subject = Subject::single(march_observed(&march_library::march_c_minus(), u.geometry()));
        let first = Setting { engine: Engine::BATCHED[first], ..Setting::DEFAULT };
        let second = Setting::new(Engine::BATCHED[second], LaneWidth::X512, test_threads(threads));
        assert_resume_agrees(&u, &subject, first, second, every, cut_permille);
    }
}
