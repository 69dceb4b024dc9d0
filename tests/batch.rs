//! Batch-vs-scalar differential property tests: the lane-sliced batch
//! engine must produce **bit-identical verdicts** to the scalar campaign
//! engine, per fault, over full BOM/WOM universes, for every compiled
//! test family (March, π, PRT scheme, bit-plane scheme), every fault
//! family — including the read/write-logic (RDF/DRDF/IRF/WDF),
//! stuck-open and address-decoder families that batch since the decoder
//! model landed — any lane position and any thread count; and the
//! batched `map_trials` measurement mode must reproduce the scalar
//! per-fault MISR signatures exactly. The scalar path is the oracle —
//! these are the acceptance tests of the lane-sliced refactor.

use proptest::prelude::*;
use prt_suite::prelude::*;

fn gf16() -> Field {
    Field::new(4, 0b1_0011).expect("GF(16)")
}

/// The mixed universe every campaign property sweeps: **every** modelled
/// family — SAF/TF/CFin/CFid/CFst (intra-word included on WOM) plus AF,
/// SOF and the read/write-logic families. All of it batches now; the
/// sweep proves the per-lane decoder/sense/read-logic models against the
/// scalar oracle.
fn mixed_universe(geom: Geometry) -> FaultUniverse {
    let spec = UniverseSpec {
        coupling_radius: Some(2),
        intra_word: geom.width() > 1,
        ..UniverseSpec::full()
    };
    FaultUniverse::enumerate(geom, &spec)
}

/// Thread count for the batch differential sweeps: `PRT_TEST_THREADS`
/// overrides the proptest-chosen count, so CI pins every sweep to a fixed
/// multi-worker configuration (the thread-count-invariance guard).
fn test_threads(chosen: usize) -> usize {
    std::env::var("PRT_TEST_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(chosen)
}

/// Batched (given thread count) vs scalar-sequential verdicts of the same
/// campaign must be identical.
fn assert_batch_equals_scalar(universe: &FaultUniverse, program: &TestProgram, threads: usize) {
    let threads = test_threads(threads);
    let backgrounds = [program.background().unwrap_or(0)];
    let scalar = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_lane_batching(false)
        .with_parallelism(Parallelism::Sequential)
        .detections();
    let batched = Campaign::new(universe, program)
        .with_backgrounds(&backgrounds)
        .with_parallelism(Parallelism::Threads(threads))
        .detections();
    for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
        assert_eq!(
            s,
            b,
            "{}: verdict diverged on {} (threads={})",
            program.name(),
            universe.faults()[i],
            threads
        );
    }
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
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let bg = bg & geom.data_mask();
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let ex = Executor::new().with_background(bg).stop_at_first_mismatch();
        let program = ex.compile(test, geom);
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// BATCH ≡ SCALAR (March, multi-background WOM): the `ProgramBank`
    /// dispatch path with the per-fault early exit across backgrounds.
    #[test]
    fn march_multibackground_batch_equals_scalar(
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
        let scalar = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_lane_batching(false)
            .with_parallelism(Parallelism::Sequential)
            .detections();
        let batched = Campaign::new(&u, &bank)
            .with_backgrounds(&bgs)
            .with_parallelism(Parallelism::Threads(threads))
            .detections();
        prop_assert_eq!(scalar, batched, "{} n={}", test.name(), n);
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
        let pi = PiTest::new(gf16(), &[1, 2, 2], &[s0, s1]).expect("config");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let program = pi.compile(geom).expect("compile");
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// BATCH ≡ SCALAR (PRT schemes): the flat scheme program including
    /// stale-channel pre-reads and the final readback sweep.
    #[test]
    fn scheme_batch_campaign_equals_scalar(
        which in 0usize..4,
        n in 3usize..14,
        threads in 1usize..5,
    ) {
        let field = Field::new(1, 0b11).expect("GF(2)");
        let scheme = match which {
            0 => PrtScheme::standard3(field).expect("scheme"),
            1 => PrtScheme::standard4(field).expect("scheme"),
            2 => PrtScheme::plain(field, 3).expect("scheme"),
            _ => PrtScheme::plain(field, 5).expect("scheme"),
        };
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let program = scheme.compile(geom).expect("compile");
        assert_batch_equals_scalar(&u, &program, threads);
    }

    /// BATCH ≡ SCALAR (bit-plane schemes): multi-round GF(2) plane
    /// programs on word-oriented memories.
    #[test]
    fn plane_batch_campaign_equals_scalar(
        rounds in 1usize..4,
        n in 3usize..10,
        threads in 1usize..5,
    ) {
        let scheme = PlaneScheme::standard(Poly2::from_bits(0b111), 4, rounds).expect("scheme");
        let geom = Geometry::wom(n, 4).expect("geometry");
        let u = mixed_universe(geom);
        let program = scheme.compile(geom).expect("compile");
        assert_batch_equals_scalar(&u, &program, threads);
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
        let geom = Geometry::wom(n, 4).expect("geometry");
        // Every modelled family lane-batches: the whole universe is the pool.
        let batchable: Vec<FaultKind> = mixed_universe(geom).faults().to_vec();
        let fault = batchable[fault_pick % batchable.len()].clone();
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().stop_at_first_mismatch().compile(test, geom);
        let mut scalar = Ram::new(geom);
        scalar.inject(fault.clone()).expect("inject");
        let want = program.detect(&mut scalar);
        check_at::<1>(&program, &fault, lane, want);
        check_at::<8>(&program, &fault, lane + 7 * LANES, want);
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
        let geom = if wom { Geometry::wom(n, 4).expect("geometry") } else { Geometry::bom(n) };
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().stop_at_first_mismatch().compile(test, geom);
        let scalar = Campaign::new(&u, &program)
            .with_lane_batching(false)
            .with_parallelism(Parallelism::Sequential)
            .detections();
        let threads = test_threads(threads);
        for width in [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512] {
            let batched = Campaign::new(&u, &program)
                .with_lane_width(width)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            prop_assert_eq!(
                &scalar, &batched,
                "{} lanes={} threads={}", test.name(), width.lanes(), threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// BATCHED MEASUREMENT ≡ SCALAR MEASUREMENT: `map_trials_batched`
    /// signature collection must reproduce, per fault index, the exact
    /// MISR signature and execution summary the scalar `collect` path
    /// measures — for random March programs, sizes and thread counts, at
    /// every lane-chunk width.
    #[test]
    fn signature_map_batched_equals_scalar(
        test_idx in 0usize..15,
        n in 2usize..10,
        threads in 1usize..5,
    ) {
        fn batched_at<const K: usize>(
            geom: Geometry,
            u: &FaultUniverse,
            collector: &SignatureCollector,
            program: &TestProgram,
            threads: usize,
        ) -> Vec<Observation> {
            prt_sim::map_trials_batched::<K, _, _, _>(
                geom,
                1,
                u.faults(),
                Parallelism::Threads(threads),
                |lanes, out| collector.collect_batch(program, lanes, out),
                |_, ram| collector.collect(program, ram).expect("single-port run"),
            )
        }
        let geom = Geometry::bom(n);
        let u = mixed_universe(geom);
        let tests = march_library::all();
        let test = &tests[test_idx % tests.len()];
        let program = Executor::new().compile(test, geom);
        let collector = SignatureCollector::new(&program, Poly2::from_bits(0b1_0001_1011))
            .expect("collector");
        let threads = test_threads(threads);
        let scalar: Vec<Observation> =
            prt_sim::map_trials(geom, 1, u.len(), Parallelism::Sequential, |i, ram| {
                ram.inject(u.faults()[i].clone()).expect("valid");
                collector.collect(&program, ram).expect("single-port run")
            });
        for (lanes, batched) in [
            (64usize, batched_at::<1>(geom, &u, &collector, &program, threads)),
            (256, batched_at::<4>(geom, &u, &collector, &program, threads)),
            (512, batched_at::<8>(geom, &u, &collector, &program, threads)),
        ] {
            for (i, (s, b)) in scalar.iter().zip(&batched).enumerate() {
                prop_assert_eq!(
                    s, b,
                    "{}: observation diverged on {} (lanes={}, threads={})",
                    test.name(), &u.faults()[i], lanes, threads
                );
            }
        }
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
    let pi = PiTest::new(gf16(), &[1, 2, 2], &[3, 7]).expect("config");
    let geom = Geometry::wom(12, 4).expect("geometry");
    let u = mixed_universe(geom);

    let dual = pi.compile_dual_port(geom, None).expect("compile dual");
    let dual_oracle: Vec<bool> = u
        .faults()
        .iter()
        .map(|f| {
            let mut ram = Ram::with_ports(geom, 2).expect("ports");
            ram.inject(f.clone()).expect("inject");
            pi.run_dual_port(&mut ram).map(|r| r.detected()).unwrap_or(false)
        })
        .collect();
    let quad = pi.compile_quad_port(geom).expect("compile quad");
    let quad_oracle: Vec<bool> = u
        .faults()
        .iter()
        .map(|f| {
            let mut ram = Ram::with_ports(geom, 4).expect("ports");
            ram.inject(f.clone()).expect("inject");
            pi.run_quad_port(&mut ram).map(|r| r.detected()).unwrap_or(false)
        })
        .collect();
    for threads in [1usize, 4] {
        for width in [LaneWidth::X64, LaneWidth::X512] {
            let got = Campaign::over(geom, u.faults(), &dual)
                .with_ports(2)
                .with_lane_width(width)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            assert_eq!(
                dual_oracle,
                got,
                "dual-port verdicts diverged (lanes={}, threads={threads})",
                width.lanes()
            );
            let got = Campaign::over(geom, u.faults(), &quad)
                .with_ports(4)
                .with_lane_width(width)
                .with_parallelism(Parallelism::Threads(threads))
                .detections();
            assert_eq!(
                quad_oracle,
                got,
                "quad-port verdicts diverged (lanes={}, threads={threads})",
                width.lanes()
            );
        }
    }
}

/// Every modelled fault family is lane-batchable: the whole mixed
/// universe injects into lane memories with **no scalar remainder**.
/// (The old `is_lane_batchable` partition predicate is gone — this
/// regression test is what proves the property it used to gate.)
#[test]
fn full_universe_is_entirely_batchable() {
    let u = mixed_universe(Geometry::wom(6, 4).expect("geometry"));
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
    let geom = Geometry::bom(16);
    let u = mixed_universe(geom);
    let program = Executor::new().compile(&march_library::march_diag(), geom);
    let poly = Poly2::from_bits(0b1_0001_1011);
    let scalar =
        FaultDictionary::build_with_batching(&u, &program, poly, Parallelism::Sequential, false)
            .expect("scalar build");
    for threads in [1usize, 4] {
        let batched = FaultDictionary::build(&u, &program, poly, Parallelism::Threads(threads))
            .expect("batched build");
        for (i, (s, b)) in scalar.observations().iter().zip(batched.observations()).enumerate() {
            assert_eq!(
                s.signature,
                b.signature,
                "signature diverged on {} (threads={threads})",
                &u.faults()[i]
            );
            assert_eq!(s, b, "observation diverged on {}", &u.faults()[i]);
        }
        assert_eq!(scalar.stats(), batched.stats(), "threads={threads}");
    }
}

/// The aggregated coverage reports — the artifact campaigns publish —
/// must be identical between the batch and scalar engines for every
/// library March test over a mixed universe, at several thread counts.
#[test]
fn coverage_reports_identical_across_engines_and_threads() {
    let geom = Geometry::bom(16);
    let u = mixed_universe(geom);
    let ex = Executor::new().stop_at_first_mismatch();
    for test in march_library::all() {
        let program = ex.compile(&test, geom);
        let scalar = Campaign::new(&u, &program)
            .with_name(test.name())
            .with_lane_batching(false)
            .with_parallelism(Parallelism::Sequential)
            .run();
        for threads in [1usize, 3, 8] {
            let batched = Campaign::new(&u, &program)
                .with_name(test.name())
                .with_parallelism(Parallelism::Threads(threads))
                .run();
            assert_eq!(scalar, batched, "{} threads={threads}", test.name());
        }
    }
}
