//! `paper_tables`: the two coverage-table binaries a reproducer runs,
//! `table_coverage_bom 128` and `table_coverage_wom 64`, as child
//! processes. Many small dense campaigns: per-campaign fixed cost and the
//! engine choice dominate, and slicing cannot win here.
//!
//! The traced run replays the tables' compiled-program campaigns in
//! process (the binaries are opaque from outside) to time compile,
//! synthesis and each engine configuration, and checks the replayed
//! coverage against the same golden rows.

use crate::layers::{active_ops, program_ops, ratio, EngineTimes};
use crate::{stats, trace, Ctx, Outcome};
use prt_core::{plane::PlaneScheme, PrtScheme};
use prt_gf::{Field, Poly2};
use prt_march::{coverage, library, Executor};
use prt_ram::{FaultUniverse, Geometry, TestProgram, UniverseSpec};
use prt_sim::{CoverageReport, ProgramBank};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `(binary, argument, span, golden coverage rows recorded at the parent
/// tree)`.
const TABLES: [(&str, &str, &str, &str); 2] = [
    (
        "table_coverage_bom",
        "128",
        "bench.table_bom",
        include_str!("../golden/table_coverage_bom_128.txt"),
    ),
    (
        "table_coverage_wom",
        "64",
        "bench.table_wom",
        include_str!("../golden/table_coverage_wom_64.txt"),
    ),
];

/// The cells of a table row, split at column gaps (two or more spaces).
fn cells(line: &str) -> Vec<String> {
    line.trim().split("  ").map(str::trim).filter(|c| !c.is_empty()).map(String::from).collect()
}

/// The coverage rows of a table binary's output: every line reporting a
/// percentage.
fn coverage_rows(text: &str) -> Vec<Vec<String>> {
    text.lines().filter(|l| l.contains('%')).map(cells).collect()
}

fn golden(ctx: &Ctx, text: &str) -> Vec<Vec<String>> {
    let mut rows = coverage_rows(text);
    if ctx.wrong_golden {
        // Claim full coverage where the table reports half.
        for cell in rows.iter_mut().flatten().filter(|c| *c == "50.0%").take(1) {
            *cell = "100.0%".into();
        }
    }
    rows
}

struct TableRun {
    /// Spawn to the first output line: the binary's start-up and universe
    /// enumeration, which it announces before simulating anything.
    setup: f64,
    /// Fault instances of the universe announced on the first line.
    faults: f64,
}

fn run_table(
    ctx: &Ctx,
    out: &mut Outcome,
    bin: &str,
    arg: &str,
    want: &[Vec<String>],
) -> Option<TableRun> {
    let started = Instant::now();
    let child = Command::new(ctx.bin_dir.join(bin))
        .arg(arg)
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn();
    let mut child = out.check(&format!("spawn {bin}"), child)?;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    let read = reader.read_line(&mut first);
    let setup = started.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = read.and_then(|_| reader.read_to_string(&mut rest));
    let status = child.wait();
    let ok = matches!(&status, Ok(s) if s.success()) && read.is_ok();
    let got = coverage_rows(&rest);
    let faults = first
        .strip_prefix("universe: ")
        .and_then(|s| s.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    out.op(ok && got == want && faults.is_some(), || {
        if !ok {
            format!("{bin} {arg}: exit {status:?}, read {read:?}")
        } else {
            let diff = got.iter().zip(want).find(|(g, w)| g != w);
            format!("{bin} {arg}: coverage rows differ from golden (first difference {diff:?})")
        }
    });
    Some(TableRun { setup, faults: faults.unwrap_or(0.0) })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let goldens: Vec<Vec<Vec<String>>> = TABLES.iter().map(|t| golden(ctx, t.3)).collect();
    let tr = &ctx.tracer;
    // One pass runs both binaries: `(wall, setup, announced faults)`.
    let (plain, traced) = ctx.run_passes(|_| {
        let started = Instant::now();
        let (mut setup, mut faults) = (0.0, 0.0);
        for ((bin, arg, span, _), want) in TABLES.iter().zip(&goldens) {
            if let Some(run) = tr.span(span, None, || run_table(ctx, out, bin, arg, want)) {
                setup += run.setup;
                faults += run.faults;
            }
        }
        (started.elapsed().as_secs_f64(), setup, faults)
    });
    let walls: Vec<f64> = plain.iter().map(|p| p.0).collect();
    println!("paper_tables: pass {}", stats::summary(&walls, 1.0, "s"));
    if !ctx.traced {
        out.set("wall_s", stats::median(&walls));
        out.set("setup_s", stats::median(&plain.iter().map(|p| p.1).collect::<Vec<_>>()));
        out.set(
            "faults_per_s",
            stats::median(&plain.iter().map(|p| p.2 / p.0).collect::<Vec<_>>()),
        );
        out.set(
            "jobs_per_s",
            stats::median(&plain.iter().map(|p| TABLES.len() as f64 / p.0).collect::<Vec<_>>()),
        );
        return;
    }
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.0).collect();
    out.set("trace.overhead_s", stats::median(&traced_walls) - stats::median(&walls));
    let spans = tr.spans();
    out.set("bench.table_bom_s", trace::per_pass_median(&spans, "bench.table_bom"));
    out.set("bench.table_wom_s", trace::per_pass_median(&spans, "bench.table_wom"));
    replay(ctx, out, &goldens);
    out.not_reached(&[
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
        "diag.dictionary_build_s",
        "diag.mean_candidates",
        "diag.diagnose_ms",
        "diag.diagnose_p90_ms",
        "diag.resolved_ratio",
    ]);
}

/// The percent cells of a coverage row as the tables print them: the six
/// classes, then overall.
fn percent_cells(report: &CoverageReport) -> Vec<String> {
    let pct = |x: f64| format!("{x:.1}%");
    let mut row: Vec<String> = ["SAF", "TF", "AF", "CFin", "CFid", "CFst"]
        .iter()
        .map(|c| report.class(c).map_or("—".into(), |r| pct(r.percent())))
        .collect();
    row.push(pct(report.overall_percent()));
    row
}

/// One replayed table row: its label in the table and what it runs.
enum Row {
    Program(&'static str, TestProgram),
    Bank(&'static str, ProgramBank, Vec<u64>),
}

/// Replays the compiled-program rows of tables E3 (BOM n=128) and E4a
/// (WOM n=64) in process, timing each layer around its public call.
fn replay(ctx: &Ctx, out: &mut Outcome, goldens: &[Vec<Vec<String>>]) {
    let tr = &ctx.tracer;
    let mut engines = EngineTimes::default();
    let (mut ops, mut active, mut full) = (0u64, 0u64, 0u64);
    let mut faults = 0usize;
    let ex = Executor::new().stop_at_first_mismatch();
    let march = library::march_c_minus();

    let bom = Geometry::bom(128);
    let gf2 = || Field::new(1, 0b11).expect("GF(2)");
    let wom = Geometry::wom(64, 4).expect("64x4 geometry");
    let gf16 = || Field::new(4, 0b1_0011).expect("GF(16)");
    let wom_spec =
        UniverseSpec { coupling_radius: Some(3), intra_word: true, ..UniverseSpec::paper_claim() };
    let compile = |s: &PrtScheme, g: Geometry| {
        tr.span("core.compile", None, || s.compile(g)).expect("table schemes fit their geometry")
    };

    for (geom, spec, golden) in
        [(bom, UniverseSpec::paper_claim(), &goldens[0]), (wom, wom_spec, &goldens[1])]
    {
        let universe =
            tr.span("ram.universe.enumerate", None, || FaultUniverse::enumerate(geom, &spec));
        faults += universe.len();
        let mut rows: Vec<Row> = Vec::new();
        if geom.is_bom() {
            for iters in 1..=2usize {
                let s3 = PrtScheme::standard3(gf2()).expect("standard3");
                let s = PrtScheme::new(gf2(), &[1, 1, 1], s3.iterations()[..iters].to_vec())
                    .expect("truncated scheme")
                    .with_preread(true)
                    .with_final_readback(true);
                let label = if iters == 1 { "π×1 (pre-read)" } else { "π×2 (pre-read)" };
                rows.push(Row::Program(label, compile(&s, geom)));
            }
            let s3 = PrtScheme::standard3(gf2()).expect("standard3");
            rows.push(Row::Program("π×3 standard3 (paper's claim)", compile(&s3, geom)));
            let s4 = PrtScheme::standard4(gf2()).expect("standard4");
            rows.push(Row::Program("π×4 standard4", compile(&s4, geom)));
            let synth = tr.span("core.synth", None, || PrtScheme::full_coverage(gf2(), geom));
            if let Some((s, _)) = out.check("full_coverage synthesis", synth) {
                rows.push(Row::Program("π×5 synthesized", compile(&s, geom)));
            }
            let plain = PrtScheme::plain(gf2(), 3).expect("plain");
            rows.push(Row::Program("π×3 plain (paper cost)", compile(&plain, geom)));
            let bank =
                tr.span("march.compile", None, || coverage::compile_bank(&march, geom, &ex, &[0]));
            rows.push(Row::Bank("March C- (baseline)", bank, vec![0]));
        } else {
            let s3 = PrtScheme::standard3(gf16()).expect("standard3");
            rows.push(Row::Program("π×3 standard3", compile(&s3, geom)));
            let s4 = PrtScheme::standard4(gf16()).expect("standard4");
            rows.push(Row::Program("π×4 standard4", compile(&s4, geom)));
            let plain = PrtScheme::plain(gf16(), 6).expect("plain");
            rows.push(Row::Program("π×6 plain", compile(&plain, geom)));
            let bank =
                tr.span("march.compile", None, || coverage::compile_bank(&march, geom, &ex, &[0]));
            rows.push(Row::Bank("March C- (bg 0)", bank, vec![0]));
            let bgs = coverage::standard_backgrounds(4);
            let bank =
                tr.span("march.compile", None, || coverage::compile_bank(&march, geom, &ex, &bgs));
            rows.push(Row::Bank("March C- ×3 bg", bank, bgs));
            let planes =
                PlaneScheme::standard(Poly2::from_bits(0b111), 4, 8).expect("plane scheme");
            let program =
                tr.span("core.compile", None, || planes.compile(geom)).expect("plane program");
            rows.push(Row::Program("plane π×8 (decorrelated)", program));
        }

        for row in &rows {
            let (label, programs): (&str, Vec<&TestProgram>) = match row {
                Row::Program(label, p) => (label, vec![p]),
                Row::Bank(label, bank, bgs) => {
                    (label, bgs.iter().filter_map(|&bg| bank.program(bg)).collect())
                }
            };
            for p in &programs {
                tr.span("ram.slice.index_build", None, || p.activity_index());
                ops += p.ops().len() as u64;
                let (a, f) = active_ops(universe.faults(), p);
                active += a;
                full += f;
            }
            let report = match row {
                Row::Program(_, p) => engines.measure(tr, out, label, &universe, p, &[0]),
                Row::Bank(_, bank, bgs) => engines.measure(tr, out, label, &universe, bank, bgs),
            };
            let want = golden.iter().find(|g| g.first().map(String::as_str) == Some(label));
            let got = report.as_ref().map(percent_cells);
            let matches = match (want, &got) {
                (Some(w), Some(g)) => w.len() >= g.len() && w[w.len() - g.len()..] == g[..],
                _ => false,
            };
            out.op(matches, || {
                format!("replayed row '{label}': {got:?} differs from golden {want:?}")
            });
        }
    }

    let spans = tr.spans();
    let total = |name: &str| trace::durations(&spans, name).iter().sum::<f64>();
    out.set("ram.universe.enumerate_s", total("ram.universe.enumerate"));
    out.set("ram.universe.faults", faults as f64);
    out.set("ram.slice.index_build_s", total("ram.slice.index_build"));
    out.set("ram.slice.active_op_fraction", ratio(active as f64, full as f64));
    out.set("march.compile_s", total("march.compile"));
    out.set("core.compile_s", total("core.compile"));
    out.set("core.synth_s", total("core.synth"));
    program_ops(out, ops, 20644);
    out.set("sim.campaign_s", engines.default);
    engines.emit(out);
}
