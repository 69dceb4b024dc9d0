//! Physical-topology property tests: the `Topology` algebra (round-trip,
//! composition) and the scrambled-campaign acceptance sweep — under any
//! generated scramble, the auto, sliced, full-pass-batched and scalar
//! engines must agree bit-exactly on every verdict and report, at every
//! lane width and thread count, and dictionary observations (per-fault
//! MISR signatures) must match between the batched and scalar builds —
//! both on the shared differential harness (`tests/common/`). The identity
//! topology must be bit-identical to the pre-topology code paths,
//! checkpoints included; a checkpoint written under one scramble must
//! refuse to resume under another.

mod common;

use common::compare::{assert_engines_agree, assert_observations_agree, temp_ckpt};
use common::engines::{matrix, test_threads, Engine, WIDTHS};
use common::programs::{march, march_observed, march_test};
use common::universes::{geometry, mixed};
use proptest::prelude::*;
use prt_suite::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ROUND TRIP: `inv ∘ phys = id` and `phys ∘ inv = id` for generated
    /// topologies of arbitrary (not just power-of-two) size — and the
    /// forward map really is a permutation.
    #[test]
    fn generated_topologies_round_trip(n in 1usize..600, seed in any::<u64>()) {
        let t = Topology::generate(n, seed);
        prop_assert_eq!(t.cells(), n);
        let mut seen = vec![false; n];
        for a in 0..n {
            let p = t.to_physical(a);
            prop_assert!(p < n, "physical {p} out of range");
            prop_assert_eq!(t.to_logical(p), a, "inv ∘ phys must be identity");
            seen[p] = true;
        }
        prop_assert!(seen.into_iter().all(|b| b), "forward map must be onto");
        for p in 0..n {
            prop_assert_eq!(t.to_physical(t.to_logical(p)), p, "phys ∘ inv must be identity");
        }
    }

    /// COMPOSITION: `compose` is associative and agrees with sequential
    /// application of the operands' maps.
    #[test]
    fn composition_is_associative(
        n in 1usize..200,
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
    ) {
        let a = Topology::generate(n, s1);
        let b = Topology::generate(n, s2);
        let c = Topology::generate(n, s3);
        let left = a.clone().compose(&b).unwrap().compose(&c).unwrap();
        let right = a.clone().compose(&b.clone().compose(&c).unwrap()).unwrap();
        for x in 0..n {
            let seq = c.to_physical(b.to_physical(a.to_physical(x)));
            prop_assert_eq!(left.to_physical(x), seq, "compose must apply left-to-right");
            prop_assert_eq!(right.to_physical(x), seq, "associativity");
            prop_assert_eq!(left.to_logical(seq), x, "composed inverse");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SCRAMBLED CAMPAIGNS: sliced == full == auto == scalar verdicts
    /// and reports, bit-exact, for random March families over scrambled
    /// mixed universes on BOM and WOM geometries, across lane widths and
    /// thread counts.
    #[test]
    fn scrambled_sliced_equals_full_equals_scalar(
        test_idx in 0usize..15,
        n in 2usize..12,
        wom in any::<bool>(),
        seed in any::<u64>(),
        threads in 1usize..5,
        width_idx in 0usize..3,
    ) {
        let geom = geometry(n, wom);
        let settings = matrix(&Engine::BATCHED, &[WIDTHS[width_idx]], &[test_threads(threads)]);
        assert_engines_agree(&mixed(geom, Some(seed)), &march(&march_test(test_idx), geom, 0), &settings);
    }

    /// SCRAMBLED SIGNATURES: the batched dictionary build reproduces the
    /// scalar per-fault observations (MISR signature + execution summary)
    /// and statistics over scrambled universes, at multiple thread
    /// counts, and keeps the universe's topology.
    #[test]
    fn scrambled_dictionary_observations_batch_equals_scalar(
        n in 2usize..10,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let geom = geometry(n, false);
        let program = march_observed(&march_library::march_diag(), geom);
        let settings = matrix(&[Engine::Auto], &[LaneWidth::X512], &[test_threads(threads)]);
        assert_observations_agree(&mixed(geom, Some(seed)), &program, &settings);
    }
}

/// IDENTITY ≡ LEGACY: the identity topology yields bit-identical fault
/// lists, verdicts, coverage rows and checkpoint fingerprints to the
/// topology-free code path — a legacy checkpoint resumes under an
/// identity-topology campaign and vice versa.
#[test]
fn identity_topology_is_bit_identical_to_legacy() {
    let geom = Geometry::bom(12);
    let spec = UniverseSpec::full();
    let legacy = FaultUniverse::enumerate(geom, &spec);
    let id = FaultUniverse::enumerate_with(geom, &spec, Topology::identity(12));
    assert_eq!(legacy.faults(), id.faults(), "identity enumeration must be bit-identical");
    let program =
        Executor::new().stop_at_first_mismatch().compile(&march_library::march_c_minus(), geom);
    let a = Campaign::new(&legacy, &program).run();
    let b = Campaign::new(&id, &program).run();
    assert_eq!(a.rows(), b.rows(), "identity coverage must be bit-identical");
    // Checkpoint interchange: the fingerprints are equal, so a file
    // written by the legacy path is adopted by the identity-topology
    // campaign (and explicitly declaring identity changes nothing).
    let path = temp_ckpt("identity");
    let first = Campaign::new(&legacy, &program).with_checkpoint(&path, 16).run();
    let resumed = Campaign::new(&id, &program)
        .with_topology(Topology::identity(12))
        .with_checkpoint(&path, 16)
        .try_run()
        .expect("identity fingerprint must match the legacy checkpoint");
    assert_eq!(first.rows(), resumed.rows());
    let _ = std::fs::remove_file(&path);
}

/// CROSS-SCRAMBLE REFUSAL, through the `Campaign::new` inheritance path:
/// a checkpoint written by a campaign over one scrambled universe is
/// refused by a campaign over a differently-scrambled (or identity)
/// universe — no explicit `with_topology` call required.
#[test]
fn scrambled_checkpoint_refuses_other_topologies() {
    let geom = Geometry::bom(8);
    let spec = UniverseSpec::single_cell();
    let u1 = FaultUniverse::enumerate_with(geom, &spec, Topology::generate(8, 11));
    let u2 = FaultUniverse::enumerate_with(geom, &spec, Topology::generate(8, 12));
    assert_ne!(u1.topology(), u2.topology(), "seeds 11/12 must generate distinct scrambles");
    let program = Executor::new().stop_at_first_mismatch().compile(&march_library::mats(), geom);
    let path = temp_ckpt("cross");
    let first = Campaign::new(&u1, &program).with_checkpoint(&path, 16).run();
    for other in [&u2, &FaultUniverse::enumerate(geom, &spec)] {
        let err = Campaign::new(other, &program)
            .with_checkpoint(&path, 16)
            .try_run()
            .expect_err("a foreign-topology checkpoint must be refused");
        assert!(
            matches!(err, CampaignError::Checkpoint(CheckpointError::FingerprintMismatch { .. })),
            "expected FingerprintMismatch, got {err:?}"
        );
    }
    // The originating topology still resumes its own file.
    let again = Campaign::new(&u1, &program)
        .with_checkpoint(&path, 16)
        .try_run()
        .expect("same-topology resume");
    assert_eq!(first.rows(), again.rows());
    let _ = std::fs::remove_file(&path);
}
