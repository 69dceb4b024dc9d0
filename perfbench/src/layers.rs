//! Per-layer measurements shared by the workloads: the campaign engine
//! forced into each of its configurations, and the slicing prediction.

use crate::trace::Tracer;
use crate::Outcome;
use prt_ram::{fault_locality_key, ActiveSet, FaultKind, FaultUniverse, TestProgram};
use prt_sim::{Campaign, CoverageReport, FaultRunner, Parallelism};
use std::time::Instant;

/// Lane chunk size the slicing prediction assumes (the narrowest width
/// the engine assembles).
const CHUNK: usize = 64;

/// Summed campaign times of one workload's campaigns under each engine
/// configuration, measured once per campaign in the traced run.
#[derive(Debug, Default)]
pub struct EngineTimes {
    pub default: f64,
    pub full_pass: f64,
    pub sliced: f64,
    pub sequential: f64,
    /// Per campaign, the faster of full pass and sliced.
    pub best: f64,
    pub degraded: usize,
}

impl EngineTimes {
    /// Runs `universe` × `runner` under the default engine, forced full
    /// pass, forced slicing and sequential parallelism; checks every
    /// configuration returns the default's verdicts and coverage.
    /// Returns the default engine's report.
    pub fn measure<R: FaultRunner + Copy>(
        &mut self,
        tr: &Tracer,
        out: &mut Outcome,
        label: &str,
        universe: &FaultUniverse,
        runner: R,
        backgrounds: &[u64],
    ) -> Option<CoverageReport> {
        let campaign = || Campaign::new(universe, runner).with_backgrounds(backgrounds);
        let timed = |name: &'static str, c: Campaign<'_, R>| {
            let t = Instant::now();
            let v = tr.span(name, None, || c.try_detections());
            (v, t.elapsed().as_secs_f64())
        };
        let t = Instant::now();
        let report = tr.span("variant.default", None, || campaign().try_run());
        let default_s = t.elapsed().as_secs_f64();
        let reference = campaign().try_detections();
        let (full, full_s) = timed("variant.full_pass", campaign().with_slicing(false));
        let (sliced, sliced_s) = timed("variant.sliced", campaign().with_slicing(true));
        let (seq, seq_s) =
            timed("variant.sequential", campaign().with_parallelism(Parallelism::Sequential));

        let mut problems = Vec::new();
        match (&report, &reference) {
            (Ok(report), Ok(reference)) => {
                for (what, v) in [("full pass", full), ("sliced", sliced), ("sequential", seq)] {
                    match v {
                        Ok(v) if &v == reference => {}
                        Ok(_) => {
                            problems.push(format!("{what} verdicts differ from the default's"))
                        }
                        Err(e) => problems.push(format!("{what}: {e}")),
                    }
                }
                let detected = reference.iter().filter(|&&d| d).count();
                let reported: usize = report.rows().iter().map(|r| r.detected).sum();
                if detected != reported || report.is_partial() {
                    problems
                        .push(format!("report counts {reported} detected, verdicts {detected}"));
                }
            }
            (Err(e), _) | (_, Err(e)) => problems.push(format!("default engine: {e}")),
        }
        out.op(problems.is_empty(), || format!("{label}: {}", problems.join("; ")));
        self.default += default_s;
        self.full_pass += full_s;
        self.sliced += sliced_s;
        self.sequential += seq_s;
        self.best += full_s.min(sliced_s);
        let report = report.ok()?;
        self.degraded += report.degraded_batches();
        Some(report)
    }

    pub fn emit(&self, out: &mut Outcome) {
        out.set("sim.full_pass_s", self.full_pass);
        out.set("sim.sliced_s", self.sliced);
        out.set("sim.default_over_best", ratio(self.default, self.best));
        out.set("sim.parallel_speedup", ratio(self.sequential, self.default));
        out.set("sim.degraded_batches", self.degraded as f64);
    }
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Active ops a sliced pass would run, summed over 64-fault chunks of
/// `faults` sorted by locality, and the ops a full pass would run over
/// the same chunks: `(active, full)`. Their ratio predicts where slicing
/// can pay; both are exact counts.
pub fn active_ops(faults: &[FaultKind], program: &TestProgram) -> (u64, u64) {
    let index = program.activity_index();
    let mut order: Vec<&FaultKind> = faults.iter().collect();
    order.sort_by_key(|f| fault_locality_key(f));
    let mut set = ActiveSet::new();
    let (mut active, mut full) = (0u64, 0u64);
    for chunk in order.chunks(CHUNK) {
        set.clear();
        for f in chunk {
            set.insert_fault(f);
        }
        set.finalize(&index);
        active += set.ops().len() as u64;
        full += program.ops().len() as u64;
    }
    (active, full)
}

/// Sets `program.ops`, the modelled test length summed over a workload's
/// compiled programs, and checks it against the length recorded at the
/// parent tree: a change may make the engine faster, never the test longer.
pub fn program_ops(out: &mut Outcome, ops: u64, recorded: u64) {
    out.op(ops == recorded, || format!("program.ops is {ops}, recorded {recorded}"));
    out.set("program.ops", ops as f64);
}

/// Per-class `(detected, total)` of a report, keyed by class mnemonic.
pub fn class_counts(report: &CoverageReport) -> Vec<(String, usize, usize)> {
    let mut rows: Vec<(String, usize, usize)> =
        report.rows().iter().map(|r| (r.class.to_string(), r.detected, r.total)).collect();
    rows.sort();
    rows
}
