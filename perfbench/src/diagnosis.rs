//! `diagnosis`: `FaultDictionary::build` for March C-D on a bit-oriented
//! n=32 array, then `Localizer::diagnose` on a seeded sample of injected
//! faults. The only workload that reaches the localizer, which runs
//! windowed recompilations and probes.

use crate::layers::{active_ops, program_ops, ratio};
use crate::{stats, trace, Ctx, Outcome};
use prt_diag::{FaultDictionary, Localizer};
use prt_gf::Poly2;
use prt_march::{library, Executor};
use prt_ram::{fault_cells, FaultKind, FaultUniverse, Geometry, Ram, SplitMix64, UniverseSpec};
use prt_sim::Parallelism;
use std::time::Instant;

const CELLS: usize = 32;
/// Diagnoses per pass.
const SAMPLE: usize = 100;
/// The suite-wide 8-bit MISR polynomial `x⁸+x⁴+x³+x+1`.
const POLY_BITS: u128 = 0b1_0001_1011;

/// Dictionary statistics recorded at the parent tree: universe size,
/// distinct signatures, aliased faults and the largest candidate bucket.
const GOLDEN_DICTIONARY: [usize; 4] = [10144, 209, 30, 180];

/// Candidates a diagnosis leaves, recorded at the parent tree for every
/// fault of the universe: the probes cannot separate a stuck-at-0, a
/// rising transition or a no-access decoder fault from two look-alikes, a
/// shadowing decoder fault from one; every other fault resolves to itself.
fn golden_candidates(fault: &FaultKind) -> usize {
    match fault {
        FaultKind::StuckAt { value: 0, .. }
        | FaultKind::Transition { rising: true, .. }
        | FaultKind::DecoderNoAccess { .. } => 3,
        FaultKind::DecoderShadow { .. } => 2,
        _ => 1,
    }
}

/// The cells a correct diagnosis may name as the victim: the victim of a
/// coupling fault, any cell of another fault's span.
fn injected_cells(fault: &FaultKind) -> Vec<usize> {
    match fault {
        FaultKind::CouplingInversion { victim_cell, .. }
        | FaultKind::CouplingIdempotent { victim_cell, .. }
        | FaultKind::CouplingState { victim_cell, .. } => vec![*victim_cell],
        other => {
            let mut cells = Vec::new();
            fault_cells(other, &mut |c| cells.push(c));
            cells
        }
    }
}

struct Pass {
    wall: f64,
    setup: f64,
    build: f64,
    faults: usize,
    /// Per diagnosis: `(seconds, resolved, candidates)`.
    diagnoses: Vec<(f64, bool, usize)>,
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let tr = &ctx.tracer;
    let geom = Geometry::bom(CELLS);
    let mut rng = SplitMix64::new(ctx.seed);
    let sample = if ctx.smoke { 10 } else { SAMPLE };
    let mut golden = GOLDEN_DICTIONARY;
    if ctx.wrong_golden {
        golden[1] += 1;
    }
    let mut ops = 0usize;
    let mut active = (0u64, 0u64);

    let (plain, traced) = ctx.run_passes(|pass| {
        let started = Instant::now();
        let universe = tr.span("ram.universe.enumerate", None, || {
            FaultUniverse::enumerate(geom, &UniverseSpec::paper_claim())
        });
        let program = tr
            .span("march.compile", None, || Executor::new().compile(&library::march_diag(), geom));
        tr.span("ram.slice.index_build", None, || program.activity_index());
        let t = Instant::now();
        let dictionary = tr.span("diag.dictionary_build", None, || {
            FaultDictionary::build(
                &universe,
                &program,
                Poly2::from_bits(POLY_BITS),
                Parallelism::Auto,
            )
        });
        let build = t.elapsed().as_secs_f64();
        let setup = started.elapsed().as_secs_f64();
        let mut diagnoses = Vec::with_capacity(sample);
        if let Some(dictionary) = out.check("dictionary build", dictionary) {
            let s = dictionary.stats();
            let got = [s.universe, s.distinct_signatures, s.aliased, s.max_candidates];
            out.op(got == golden, || format!("dictionary stats {got:?}, golden {golden:?}"));
            let localizer =
                Localizer::new(library::march_diag(), geom).with_dictionary(&dictionary);
            for k in 0..sample {
                let fault = &universe.faults()[rng.next_below(universe.len() as u64) as usize];
                let mut ram = Ram::new(geom);
                if out.check("inject", ram.inject(fault.clone())).is_none() {
                    continue;
                }
                let t = Instant::now();
                let id = Some((pass * sample + k) as u64);
                let result = tr.span("diag.diagnose", id, || localizer.diagnose(&mut ram));
                let secs = t.elapsed().as_secs_f64();
                match out.check("diagnose", result) {
                    Some(Some(d)) => {
                        let resolved = injected_cells(fault).contains(&d.victim());
                        let candidates = d.candidates().len();
                        out.op(resolved && candidates == golden_candidates(fault), || {
                            format!("{fault}: victim {} with {candidates} candidates", d.victim())
                        });
                        diagnoses.push((secs, resolved, candidates));
                    }
                    Some(None) => out.op(false, || format!("{fault}: not detected")),
                    None => {}
                }
            }
        }
        if pass == 0 {
            ops = program.ops().len();
            active = active_ops(universe.faults(), &program);
        }
        let wall = started.elapsed().as_secs_f64();
        Pass { wall, setup, build, faults: universe.len(), diagnoses }
    });

    let walls: Vec<f64> = plain.iter().map(|p| p.wall).collect();
    let latencies: Vec<f64> = plain.iter().flat_map(|p| p.diagnoses.iter().map(|d| d.0)).collect();
    println!("diagnosis: pass {}", stats::summary(&walls, 1.0, "s"));
    println!("diagnosis: diagnose {}", stats::summary(&latencies, 1e3, "ms"));
    if !ctx.traced {
        out.set("wall_s", stats::median(&walls));
        out.set("setup_s", stats::median(&plain.iter().map(|p| p.setup).collect::<Vec<_>>()));
        out.set(
            "faults_per_s",
            stats::median(&plain.iter().map(|p| p.faults as f64 / p.build).collect::<Vec<_>>()),
        );
        out.set("jobs_per_s", latencies.len() as f64 / latencies.iter().sum::<f64>());
        return;
    }

    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    out.set("trace.overhead_s", stats::median(&traced_walls) - stats::median(&walls));
    let spans = tr.spans();
    for (metric, span) in [
        ("ram.universe.enumerate_s", "ram.universe.enumerate"),
        ("march.compile_s", "march.compile"),
        ("ram.slice.index_build_s", "ram.slice.index_build"),
        ("diag.dictionary_build_s", "diag.dictionary_build"),
    ] {
        out.set(metric, trace::per_pass_median(&spans, span));
    }
    let all: Vec<&(f64, bool, usize)> =
        plain.iter().chain(&traced).flat_map(|p| &p.diagnoses).collect();
    let n = all.len() as f64;
    out.set("diag.diagnose_ms", stats::median(&trace::durations(&spans, "diag.diagnose")) * 1e3);
    out.set("diag.diagnose_p90_ms", stats::quantile(&latencies, 0.9) * 1e3);
    out.set("diag.mean_candidates", ratio(all.iter().map(|d| d.2 as f64).sum(), n));
    out.set("diag.resolved_ratio", ratio(all.iter().filter(|d| d.1).count() as f64, n));
    out.set("ram.universe.faults", plain.first().map_or(0.0, |p| p.faults as f64));
    out.set("ram.slice.active_op_fraction", ratio(active.0 as f64, active.1 as f64));
    program_ops(out, ops as u64, 448);
    out.not_reached(&[
        "bench.table_bom_s",
        "bench.table_wom_s",
        "core.compile_s",
        "core.synth_s",
        "sim.campaign_s",
        "sim.degraded_batches",
        "sim.full_pass_s",
        "sim.sliced_s",
        "sim.default_over_best",
        "sim.parallel_speedup",
        "sim.checkpoint_s",
        "svc.connect_ms",
        "svc.submit_to_accepted_ms",
        "svc.accepted_to_first_delta_ms",
        "svc.delta_gap_ms",
        "svc.last_delta_to_done_ms",
        "svc.encode_ns",
        "svc.decode_ns",
        "svc.frame_bytes",
        "svc.codec_share",
        "svc.program_compiles",
        "svc.dictionary_builds",
        "svc.cache_hit_ratio",
        "svc.small_job_p50_ms",
        "svc.small_job_p99_ms",
        "svc.first_delta_p50_ms",
        "svc.medium_job_p50_ms",
        "svc.lookup_p50_ms",
    ]);
}
