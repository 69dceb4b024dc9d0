//! One workload of the end-to-end benchmark, in its own process.
//!
//! `perfbench/run.py` builds this binary and the paper-table binaries,
//! runs one workload through it and adds the peak memory of the process
//! tree. Run directly:
//!
//! ```text
//! prt-perfbench --workload <paper_tables|large_array|service_mix|diagnosis>
//!     --seed <n> --seconds <s> --trace <0|1> --bin-dir <dir> --scratch <dir>
//!     [--smoke] [--wrong-golden]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`) and `failures`.
//! `--smoke` shortens every pass for the self-test; `--wrong-golden`
//! perturbs one recorded golden value to prove the output checks fail.

mod diagnosis;
mod large;
mod layers;
mod service;
mod stats;
mod tables;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics this binary measures (`peak_rss_mb` is added by
/// `run.py`, which reaps the process tree).
const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("faults_per_s", "1/s"), ("jobs_per_s", "1/s")];

/// Per-layer metrics, emitted by every workload in a traced run; a layer a
/// workload does not reach reads 0 (see `perfbench/README.md`).
const PER_LAYER: &[(&str, &str)] = &[
    ("bench.table_bom_s", "s"),
    ("bench.table_wom_s", "s"),
    ("ram.universe.enumerate_s", "s"),
    ("ram.universe.faults", "count"),
    ("ram.slice.index_build_s", "s"),
    ("ram.slice.active_op_fraction", "ratio"),
    ("march.compile_s", "s"),
    ("core.compile_s", "s"),
    ("core.synth_s", "s"),
    ("program.ops", "count"),
    ("sim.campaign_s", "s"),
    ("sim.degraded_batches", "count"),
    ("sim.full_pass_s", "s"),
    ("sim.sliced_s", "s"),
    ("sim.default_over_best", "ratio"),
    ("sim.parallel_speedup", "ratio"),
    ("sim.checkpoint_s", "s"),
    ("svc.connect_ms", "ms"),
    ("svc.submit_to_accepted_ms", "ms"),
    ("svc.accepted_to_first_delta_ms", "ms"),
    ("svc.delta_gap_ms", "ms"),
    ("svc.last_delta_to_done_ms", "ms"),
    ("svc.encode_ns", "ns"),
    ("svc.decode_ns", "ns"),
    ("svc.frame_bytes", "B"),
    ("svc.codec_share", "ratio"),
    ("svc.program_compiles", "count"),
    ("svc.dictionary_builds", "count"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.small_job_p50_ms", "ms"),
    ("svc.small_job_p99_ms", "ms"),
    ("svc.first_delta_p50_ms", "ms"),
    ("svc.medium_job_p50_ms", "ms"),
    ("svc.lookup_p50_ms", "ms"),
    ("diag.dictionary_build_s", "s"),
    ("diag.mean_candidates", "count"),
    ("diag.diagnose_ms", "ms"),
    ("diag.diagnose_p90_ms", "ms"),
    ("diag.resolved_ratio", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub smoke: bool,
    pub wrong_golden: bool,
    pub bin_dir: PathBuf,
    pub scratch: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Passes a workload repeats at least, so every reported median has
    /// several samples even when one pass outlasts `--seconds`.
    fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Runs `pass` until `--seconds` are spent and the minimum pass count
    /// is reached. A traced run alternates untraced and traced passes, so
    /// the two halves measure the same work and their difference is the
    /// tracing overhead. Returns `(untraced, traced)` pass results.
    pub fn run_passes<P>(&self, mut pass: impl FnMut(usize) -> P) -> (Vec<P>, Vec<P>) {
        let started = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for i in 0.. {
            let trace_this = self.traced && i % 2 == 1;
            self.tracer.begin_pass(i, trace_this);
            let result = self.tracer.span("pass", None, || pass(i));
            if trace_this {
                traced.push(result);
            } else {
                plain.push(result);
            }
            let enough = plain.len() >= self.min_passes()
                && (!self.traced || traced.len() >= self.min_passes());
            if enough && started.elapsed() >= self.seconds {
                break;
            }
        }
        self.tracer.begin_pass(usize::MAX, self.traced);
        (plain, traced)
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Counts one attempted operation, failed when `r` is an error.
    pub fn op_result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        let value = self.check(what, r)?;
        self.op(true, String::new);
        Some(value)
    }

    /// A step inside an operation: an error counts the operation as
    /// attempted and failed; success counts nothing (the operation's own
    /// [`Outcome::op`] does).
    pub fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Marks layers this workload does not reach: they read 0.
    pub fn not_reached(&mut self, names: &[&'static str]) {
        for &n in names {
            self.metrics.insert(n, 0.0);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    wrong_golden: bool,
    bin_dir: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        wrong_golden: false,
        bin_dir: PathBuf::new(),
        scratch: PathBuf::new(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--bin-dir" => a.bin_dir = value()?.into(),
            "--scratch" => a.scratch = value()?.into(),
            "--smoke" => a.smoke = true,
            "--wrong-golden" => a.wrong_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.scratch).unwrap_or_else(|e| {
        eprintln!("error: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    });
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        traced: args.trace,
        smoke: args.smoke,
        wrong_golden: args.wrong_golden,
        bin_dir: args.bin_dir,
        scratch: args.scratch,
        tracer: Tracer::new(),
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "paper_tables" => tables::run(&ctx, &mut out),
        "large_array" => large::run(&ctx, &mut out),
        "service_mix" => service::run(&ctx, &mut out),
        "diagnosis" => diagnosis::run(&ctx, &mut out),
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    }

    if ctx.traced {
        let spans = ctx.tracer.spans();
        println!("self time per span (count, total s, self s):");
        for (name, (count, total, own)) in trace::self_times(&spans) {
            println!("  {name:<36} {count:>7} {total:>12.6} {own:>12.6}");
        }
        let path = ctx.scratch.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, trace::to_json(&spans)) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => out.op(false, || format!("writing {}: {e}", path.display())),
        }
    }

    let wanted = if ctx.traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = out
            .metrics
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("workload {} did not set metric {name}", args.workload));
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"failures\":[{}]}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(","),
        failures.join(",")
    );
}
