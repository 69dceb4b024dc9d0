//! `large_array`: March C- on a bit-oriented n=8192 array, identity
//! topology, over two universes. `single_cell()` is dominated by set-up
//! (universe enumeration and the activity index); `paper_claim()` with
//! radius-1 couplings is dominated by the campaign, which checkpoints into
//! a scratch file as a long campaign would. Activity slicing, enumeration,
//! memory and checkpoint I/O do the work here.

use crate::layers::{active_ops, class_counts, program_ops, ratio, EngineTimes};
use crate::{stats, trace, Ctx, Outcome};
use prt_march::{library, Executor};
use prt_ram::{FaultUniverse, Geometry, UniverseSpec};
use prt_sim::Campaign;
use std::path::Path;
use std::time::Instant;

const CELLS: usize = 8192;
/// Checkpoint writes per checkpointed campaign.
const CHECKPOINTS: usize = 8;

/// Per-class `(class, detected, total)` recorded at the parent tree:
/// March C- detects every instance of both universes.
const GOLDEN_SINGLE: &[(&str, usize, usize)] = &[("SAF", 16384, 16384), ("TF", 16384, 16384)];
const GOLDEN_COUPLED: &[(&str, usize, usize)] = &[
    ("AF", 24576, 24576),
    ("CFid", 65528, 65528),
    ("CFin", 32764, 32764),
    ("CFst", 65528, 65528),
    ("SAF", 16384, 16384),
    ("TF", 16384, 16384),
];

fn coupled_spec() -> UniverseSpec {
    UniverseSpec { coupling_radius: Some(1), ..UniverseSpec::paper_claim() }
}

fn golden(ctx: &Ctx, rows: &[(&str, usize, usize)]) -> Vec<(String, usize, usize)> {
    let mut rows: Vec<(String, usize, usize)> =
        rows.iter().map(|&(c, d, t)| (c.to_string(), d, t)).collect();
    if ctx.wrong_golden {
        rows[0].1 -= 1;
    }
    rows
}

struct Pass {
    wall: f64,
    setup: f64,
    campaign: f64,
    faults: usize,
}

/// Removes a checkpoint left by the previous campaign: a campaign finding
/// a compatible checkpoint resumes from it instead of simulating.
fn clear(path: &Path) {
    let _ = std::fs::remove_file(path);
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let tr = &ctx.tracer;
    let geom = Geometry::bom(CELLS);
    let checkpoint = ctx.scratch.join(format!("large_array-{}.ckpt", std::process::id()));
    let want = [golden(ctx, GOLDEN_SINGLE), golden(ctx, GOLDEN_COUPLED)];

    let (plain, traced) = ctx.run_passes(|_| {
        let started = Instant::now();
        let enumerate = |spec: &UniverseSpec| {
            tr.span("ram.universe.enumerate", None, || FaultUniverse::enumerate(geom, spec))
        };
        let single = enumerate(&UniverseSpec::single_cell());
        let coupled = enumerate(&coupled_spec());
        let program = tr.span("march.compile", None, || {
            Executor::new().compile(&library::march_c_minus(), geom)
        });
        tr.span("ram.slice.index_build", None, || program.activity_index());
        let setup = started.elapsed().as_secs_f64();

        let t = Instant::now();
        let a = tr.span("sim.campaign", None, || Campaign::new(&single, &program).try_run());
        clear(&checkpoint);
        let every = coupled.len().div_ceil(CHECKPOINTS);
        let b = tr.span("sim.campaign", None, || {
            Campaign::new(&coupled, &program).with_checkpoint(&checkpoint, every).try_run()
        });
        clear(&checkpoint);
        let campaign = t.elapsed().as_secs_f64();
        let wall = started.elapsed().as_secs_f64();

        for ((label, report), want) in
            [("single_cell", a), ("paper_claim r=1", b)].into_iter().zip(&want)
        {
            if let Some(report) = out.check(label, report) {
                let got = class_counts(&report);
                out.op(&got == want && !report.is_partial(), || {
                    format!("{label}: per-class detected {got:?}, golden {want:?}")
                });
            }
        }
        Pass { wall, setup, campaign, faults: single.len() + coupled.len() }
    });

    let walls: Vec<f64> = plain.iter().map(|p| p.wall).collect();
    println!("large_array: pass {}", stats::summary(&walls, 1.0, "s"));
    if !ctx.traced {
        out.set("wall_s", stats::median(&walls));
        out.set("setup_s", stats::median(&plain.iter().map(|p| p.setup).collect::<Vec<_>>()));
        let per_campaign = |f: &dyn Fn(&Pass) -> f64| {
            stats::median(&plain.iter().map(|p| f(p) / p.campaign).collect::<Vec<_>>())
        };
        out.set("faults_per_s", per_campaign(&|p| p.faults as f64));
        out.set("jobs_per_s", per_campaign(&|_| 2.0));
        return;
    }

    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
    out.set("trace.overhead_s", stats::median(&traced_walls) - stats::median(&walls));
    let spans = tr.spans();
    for (metric, span) in [
        ("ram.universe.enumerate_s", "ram.universe.enumerate"),
        ("march.compile_s", "march.compile"),
        ("ram.slice.index_build_s", "ram.slice.index_build"),
        ("sim.campaign_s", "sim.campaign"),
    ] {
        out.set(metric, trace::per_pass_median(&spans, span));
    }
    layer_variants(ctx, out, geom, &checkpoint);
    out.not_reached(&[
        "bench.table_bom_s",
        "bench.table_wom_s",
        "core.compile_s",
        "core.synth_s",
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
        "diag.dictionary_build_s",
        "diag.mean_candidates",
        "diag.diagnose_ms",
        "diag.diagnose_p90_ms",
        "diag.resolved_ratio",
    ]);
}

/// The traced run's engine comparisons: both campaigns under every engine
/// configuration, and the coupled campaign with and without checkpoints.
fn layer_variants(ctx: &Ctx, out: &mut Outcome, geom: Geometry, checkpoint: &Path) {
    let tr = &ctx.tracer;
    let program = Executor::new().compile(&library::march_c_minus(), geom);
    let mut engines = EngineTimes::default();
    let (mut active, mut full, mut faults) = (0u64, 0u64, 0usize);
    for (label, spec, checkpointed) in [
        ("single_cell", UniverseSpec::single_cell(), false),
        ("paper_claim r=1", coupled_spec(), true),
    ] {
        let universe = FaultUniverse::enumerate(geom, &spec);
        faults += universe.len();
        let (a, f) = active_ops(universe.faults(), &program);
        active += a;
        full += f;
        let before = engines.default;
        engines.measure(tr, out, label, &universe, &program, &[0]);
        let default_s = engines.default - before;
        if checkpointed {
            clear(checkpoint);
            let every = universe.len().div_ceil(CHECKPOINTS);
            let t = Instant::now();
            let r = tr.span("variant.checkpoint", None, || {
                Campaign::new(&universe, &program).with_checkpoint(checkpoint, every).try_run()
            });
            let with_checkpoint = t.elapsed().as_secs_f64();
            clear(checkpoint);
            if let Some(r) = out.check("checkpointed campaign", r) {
                out.op(class_counts(&r) == golden(ctx, GOLDEN_COUPLED), || {
                    "checkpointed campaign: per-class detected differ from golden".into()
                });
            }
            out.set("sim.checkpoint_s", with_checkpoint - default_s);
        }
    }
    out.set("ram.universe.faults", faults as f64);
    out.set("ram.slice.active_op_fraction", ratio(active as f64, full as f64));
    program_ops(out, program.ops().len() as u64, 81920);
    engines.emit(out);
}
