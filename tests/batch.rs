//! Batch-vs-scalar differential property tests: the lane-sliced batch
//! engine must produce **bit-identical verdicts** to the scalar campaign
//! engine, per fault, over full BOM/WOM universes, for every compiled
//! test family (March, π, PRT scheme, bit-plane scheme), every fault
//! family — including the read/write-logic (RDF/DRDF/IRF/WDF),
//! stuck-open and address-decoder families that batch since the decoder
//! model landed — any lane position and any thread count; and the
//! batched `map_trials` measurement mode must reproduce the scalar
//! per-fault MISR signatures exactly. The scalar path is the oracle —
//! these are the acceptance tests of the lane-sliced refactor. The
//! sweeps run on the shared differential harness (`tests/common/`).

mod common;

use common::compare::{
    assert_engines_agree, assert_observations_agree, assert_reproduces, Outcome,
};
use common::engines::{matrix, test_threads, Engine, Setting, WIDTHS};
use common::programs::{march, march_bank, march_observed, march_test, pi, pi_test, plane, scheme};
use common::universes::{geometry, mixed};
use proptest::prelude::*;
use prt_suite::prelude::*;

/// The default engine at the default width on `threads` workers.
fn auto(threads: usize) -> Vec<Setting> {
    matrix(&[Engine::Auto], &[LaneWidth::X512], &[test_threads(threads)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BATCH ≡ SCALAR (March): every library algorithm, random geometry
    /// (BOM and 4-bit WOM), background and thread count, over the full
    /// mixed universe.
    #[test]
    fn march_batch_campaign_equals_scalar(
        test_idx in 0usize..15,
        bg in 0u64..16,
        n in 2usize..12,
        wom in any::<bool>(),
        threads in 1usize..5,
    ) {
        let geom = geometry(n, wom);
        assert_engines_agree(&mixed(geom, None), &march(&march_test(test_idx), geom, bg), &auto(threads));
    }

    /// BATCH ≡ SCALAR (March, multi-background WOM): the `ProgramBank`
    /// dispatch path with the per-fault early exit across backgrounds.
    #[test]
    fn march_multibackground_batch_equals_scalar(
        test_idx in 0usize..15,
        n in 2usize..10,
        threads in 1usize..5,
    ) {
        let geom = geometry(n, true);
        assert_engines_agree(&mixed(geom, None), &march_bank(&march_test(test_idx), geom), &auto(threads));
    }

    /// BATCH ≡ SCALAR (π-test): random seeds and sizes; the compiled π
    /// program exercises the accumulator ops (AccSet/ReadAcc/WriteAcc)
    /// whose lanes the batch interpreter widens to per-trial bit-planes.
    #[test]
    fn pi_batch_campaign_equals_scalar(
        s0 in 0u64..16,
        s1 in 0u64..16,
        n in 3usize..14,
        threads in 1usize..5,
    ) {
        let geom = geometry(n, true);
        assert_engines_agree(&mixed(geom, None), &pi(s0, s1, geom, 1), &auto(threads));
    }

    /// BATCH ≡ SCALAR (PRT schemes): the flat scheme program including
    /// stale-channel pre-reads and the final readback sweep.
    #[test]
    fn scheme_batch_campaign_equals_scalar(
        which in 0usize..4,
        n in 3usize..14,
        threads in 1usize..5,
    ) {
        let geom = geometry(n, false);
        assert_engines_agree(&mixed(geom, None), &scheme(which, geom), &auto(threads));
    }

    /// BATCH ≡ SCALAR (bit-plane schemes): multi-round GF(2) plane
    /// programs on word-oriented memories.
    #[test]
    fn plane_batch_campaign_equals_scalar(
        rounds in 1usize..4,
        n in 3usize..10,
        threads in 1usize..5,
    ) {
        let geom = geometry(n, true);
        assert_engines_agree(&mixed(geom, None), &plane(rounds, geom), &auto(threads));
    }

    /// Any lane position, any chunk width: a single batchable fault placed
    /// in an arbitrary lane of an otherwise empty `LaneRam<K>` yields
    /// exactly the scalar verdict in exactly that lane — and nothing
    /// anywhere else. K = 1 probes the original 64-lane path; K = 8 probes
    /// the same fault in a high word of the 512-lane chunk.
    #[test]
    fn any_lane_position_matches_scalar(
        fault_pick in 0usize..100_000,
        lane in 0usize..LANES,
        test_idx in 0usize..15,
        n in 2usize..12,
    ) {
        fn check_at<const K: usize>(
            program: &TestProgram,
            fault: &FaultKind,
            lane: usize,
            want: bool,
        ) {
            let mut lanes = LaneRam::<K>::new(program.geometry());
            lanes.inject(fault.clone(), lane).expect("inject");
            let got = program.detect_batch(&mut lanes, None);
            assert_eq!(got.get(lane), want, "{fault} in lane {lane} (K={K})");
            assert_eq!(
                got & !LaneChunk::single(lane),
                LaneChunk::<K>::ZERO,
                "inactive lanes must stay silent (K={K})"
            );
        }
        let geom = geometry(n, true);
        // Every modelled family lane-batches: the whole universe is the pool.
        let batchable: Vec<FaultKind> = mixed(geom, None).faults().to_vec();
        let fault = batchable[fault_pick % batchable.len()].clone();
        let subject = march(&march_test(test_idx), geom, 0);
        let program = subject.program();
        let mut scalar = Ram::new(geom);
        scalar.inject(fault.clone()).expect("inject");
        let want = program.detect(&mut scalar);
        check_at::<1>(program, &fault, lane, want);
        check_at::<8>(program, &fault, lane + 7 * LANES, want);
    }

    /// WIDTH INVARIANCE: the campaign verdict table is bit-identical at
    /// every lane-chunk width (64 ≡ 256 ≡ 512 ≡ scalar), for random March
    /// programs, geometries and thread counts.
    #[test]
    fn campaign_verdicts_invariant_across_lane_widths(
        test_idx in 0usize..15,
        n in 2usize..12,
        wom in any::<bool>(),
        threads in 1usize..5,
    ) {
        let geom = geometry(n, wom);
        let settings = matrix(&[Engine::Auto], &WIDTHS, &[test_threads(threads)]);
        assert_engines_agree(&mixed(geom, None), &march(&march_test(test_idx), geom, 0), &settings);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BATCHED MEASUREMENT ≡ SCALAR MEASUREMENT: lane-batched signature
    /// collection must reproduce, per fault index, the exact MISR
    /// signature and execution summary the scalar `collect` path
    /// measures — for random March programs, sizes and thread counts, at
    /// every lane-chunk width.
    #[test]
    fn signature_map_batched_equals_scalar(
        test_idx in 0usize..15,
        n in 2usize..10,
        threads in 1usize..5,
    ) {
        let geom = geometry(n, false);
        let program = march_observed(&march_test(test_idx), geom);
        let settings = matrix(&[Engine::Auto], &WIDTHS, &[test_threads(threads)]);
        assert_observations_agree(&mixed(geom, None), &program, &settings);
    }
}

/// MULTI-PORT BATCH ≡ INTERPRETED ORACLE: the batched campaign verdicts
/// of the compiled dual- and quad-port π programs must match the
/// interpreted runners (`run_dual_port` / `run_quad_port`) fault for
/// fault — device errors (multi-port write-write conflicts under decoder
/// faults) escape on both sides. This is the acceptance property of the
/// `CycleN` batch interpreter: multi-port schedules used to be the whole
/// scalar remainder.
#[test]
fn multi_port_batch_matches_interpreted_oracle() {
    let (s0, s1) = (3, 7);
    let interpreted = pi_test(s0, s1);
    let geom = geometry(12, true);
    let u = mixed(geom, None);
    let settings = matrix(&[Engine::Auto], &[LaneWidth::X64, LaneWidth::X512], &[1, 4]);
    for ports in [2, 4] {
        let subject = pi(s0, s1, geom, ports);
        let verdicts = u
            .faults()
            .iter()
            .map(|f| {
                let mut ram = Ram::with_ports(geom, ports).expect("ports");
                ram.inject(f.clone()).expect("inject");
                let result = match ports {
                    2 => interpreted.run_dual_port(&mut ram),
                    _ => interpreted.run_quad_port(&mut ram),
                };
                result.map(|r| r.detected()).unwrap_or(false)
            })
            .collect();
        let oracle = Outcome::from_verdicts(subject.name(), u.faults(), verdicts);
        assert_reproduces(&u, &subject, &settings, &oracle);
    }
}

/// Every modelled fault family is lane-batchable: the whole mixed
/// universe injects into lane memories with **no scalar remainder**.
/// (The old `is_lane_batchable` partition predicate is gone — this
/// regression test is what proves the property it used to gate.)
#[test]
fn full_universe_is_entirely_batchable() {
    let u = mixed(geometry(6, true), None);
    for chunk in u.faults().chunks(LANES) {
        let mut lanes: LaneRam = LaneRam::new(u.geometry());
        for (lane, fault) in chunk.iter().enumerate() {
            lanes.inject(fault.clone(), lane).expect("every family injects");
        }
    }
}

/// A geometry-mismatched batch run is a LOUD configuration error — the
/// regression guard for the silent-zero-coverage bug, at the integration
/// level the campaign engine drives.
#[test]
#[should_panic(expected = "different geometry")]
fn geometry_mismatched_detect_batch_is_loud() {
    let program = Executor::new().compile(&march_library::march_c_minus(), Geometry::bom(16));
    let mut lanes: LaneRam = LaneRam::new(Geometry::bom(8));
    lanes.inject(FaultKind::StuckAt { cell: 0, bit: 0, value: 0 }, 0).expect("inject");
    let _ = program.detect_batch(&mut lanes, None);
}

/// BATCHED DICTIONARY ≡ SCALAR DICTIONARY: a `FaultDictionary` built on
/// the lane-batched `map_trials` mode must carry identical per-fault
/// signatures (and identical aggregate statistics) to the scalar build,
/// over a universe spanning every family.
#[test]
fn dictionary_build_batched_equals_scalar() {
    let geom = geometry(16, false);
    let program = march_observed(&march_library::march_diag(), geom);
    let settings = matrix(&[Engine::Auto], &[LaneWidth::X512], &[1, 4]);
    assert_observations_agree(&mixed(geom, None), &program, &settings);
}

/// The aggregated coverage reports — the artifact campaigns publish —
/// must be identical between the batch and scalar engines for every
/// library March test over a mixed universe, at several thread counts.
#[test]
fn coverage_reports_identical_across_engines_and_threads() {
    let geom = geometry(16, false);
    let u = mixed(geom, None);
    let settings = matrix(&[Engine::Auto], &[LaneWidth::X512], &[1, 3, 8]);
    for test in march_library::all() {
        assert_engines_agree(&u, &march(&test, geom, 0), &settings);
    }
}
