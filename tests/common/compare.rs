//! The comparators: verdicts plus coverage reports, dictionary
//! observations, and checkpoint resume, each across engine settings.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use prt_sim::checkpoint;
use prt_suite::prelude::*;

use super::engines::{Engine, Setting};
use super::programs::Subject;

/// What a campaign publishes: the per-fault verdicts and the coverage
/// report.
pub struct Outcome {
    pub verdicts: Vec<bool>,
    pub report: CoverageReport,
}

impl Outcome {
    /// The outcome an engine must reproduce when `verdicts` are right:
    /// the report is their class tally, in universe order.
    pub fn from_verdicts(name: &str, faults: &[FaultKind], verdicts: Vec<bool>) -> Outcome {
        let mut tally = prt_sim::ClassTally::new();
        for (fault, &detected) in faults.iter().zip(&verdicts) {
            tally.record(fault.mnemonic(), detected);
        }
        Outcome { verdicts, report: tally.into_report(name) }
    }
}

/// A fault list under campaign: its geometry, the faults in the order
/// the campaign walks them, and the topology they were enumerated under.
#[derive(Clone, Copy)]
pub struct Faults<'a> {
    pub geom: Geometry,
    pub list: &'a [FaultKind],
    pub topology: &'a Topology,
}

impl<'a> From<&'a FaultUniverse> for Faults<'a> {
    fn from(u: &'a FaultUniverse) -> Faults<'a> {
        Faults { geom: u.geometry(), list: u.faults(), topology: u.topology() }
    }
}

/// The campaign of `subject` over `faults` under `setting`, named after
/// the subject.
pub fn campaign<'a>(
    faults: Faults<'a>,
    subject: &'a Subject,
    setting: Setting,
) -> Campaign<'a, &'a ProgramBank> {
    let campaign = Campaign::over(faults.geom, faults.list, &subject.bank)
        .with_topology(faults.topology.clone())
        .with_backgrounds(&subject.backgrounds)
        .with_ports(subject.ports())
        .with_name(subject.name());
    setting.configure(campaign)
}

/// One run of [`campaign`]: the verdicts (collected from the progress
/// stream, one segment) and the report of the same run.
pub fn run<'a>(faults: impl Into<Faults<'a>>, subject: &Subject, setting: Setting) -> Outcome {
    let faults = faults.into();
    let verdicts = Mutex::new(vec![false; faults.list.len()]);
    let report = campaign(faults, subject, setting)
        .with_progress(faults.list.len(), |segment| {
            verdicts.lock().expect("verdicts")[segment.start..segment.end]
                .copy_from_slice(segment.verdicts);
        })
        .run();
    Outcome { verdicts: verdicts.into_inner().expect("verdicts"), report }
}

/// Every setting reproduces `expected`: the verdict of every fault, and
/// the report — with no degraded batch.
pub fn assert_reproduces<'a>(
    faults: impl Into<Faults<'a>>,
    subject: &Subject,
    settings: &[Setting],
    expected: &Outcome,
) {
    let faults = faults.into();
    for &setting in settings {
        let got = run(faults, subject, setting);
        let at = format!("{} on {:?}, {setting:?}", subject.name(), faults.geom);
        if let Some(i) = (0..faults.list.len()).find(|&i| got.verdicts[i] != expected.verdicts[i]) {
            panic!("{at}: verdict diverged on {} (fault {i})", faults.list[i]);
        }
        assert_eq!(got.report, expected.report, "{at}: report diverged");
    }
}

/// THE engine comparator: every setting reproduces the scalar oracle's
/// verdicts and report.
pub fn assert_engines_agree<'a>(
    faults: impl Into<Faults<'a>>,
    subject: &Subject,
    settings: &[Setting],
) {
    let faults = faults.into();
    assert_reproduces(faults, subject, settings, &run(faults, subject, Setting::ORACLE));
}

/// The MISR polynomial every dictionary comparison compacts with.
pub const POLY: Poly2 = Poly2::from_bits(0b1_0001_1011);

/// Per-fault observations — MISR signature plus execution summary — of
/// `program` over `u` under `setting`, with the dictionary statistics
/// when the setting is a dictionary build. The scalar engine and the
/// auto engine at 512 lanes are [`FaultDictionary`] builds (the scalar
/// oracle build and the default build); every other setting is a
/// lane-batched sweep at its width, observed by the auto engine's rule
/// or forced onto the full or the sliced pass.
pub fn observations(
    u: &FaultUniverse,
    program: &TestProgram,
    setting: Setting,
) -> (Vec<Observation>, Option<DictionaryStats>) {
    let dictionary = match (setting.engine, setting.width) {
        (Engine::Scalar, _) => {
            FaultDictionary::build_with_batching(u, program, POLY, setting.parallelism, false)
        }
        (Engine::Auto, LaneWidth::X512) => {
            FaultDictionary::build(u, program, POLY, setting.parallelism)
        }
        (engine, LaneWidth::X64) => return (sweep::<1>(u, program, engine, setting), None),
        (engine, LaneWidth::X256) => return (sweep::<4>(u, program, engine, setting), None),
        (engine, LaneWidth::X512) => return (sweep::<8>(u, program, engine, setting), None),
    };
    let dictionary = dictionary.expect("dictionary build");
    assert_eq!(dictionary.topology(), u.topology(), "a dictionary keeps its universe's topology");
    (dictionary.observations().to_vec(), Some(*dictionary.stats()))
}

/// A lane-batched observation sweep at `K` chunk words: the auto engine
/// observes through [`SignatureCollector::collect_batch`]; the forced
/// passes run [`TestProgram::execute_batch_observed`] with one MISR per
/// lane, as a dictionary compacts them.
fn sweep<const K: usize>(
    u: &FaultUniverse,
    program: &TestProgram,
    engine: Engine,
    setting: Setting,
) -> Vec<Observation> {
    let collector = SignatureCollector::new(program, POLY).expect("collector");
    let index = program.activity_index();
    let (observations, degraded) = prt_sim::try_map_trials_batched::<K, _, _, _>(
        program.geometry(),
        program.ports(),
        u.faults(),
        setting.parallelism,
        |ram, out| {
            let sliced = match engine {
                Engine::Auto => return collector.collect_batch(program, ram, out),
                Engine::Full => false,
                Engine::Sliced => true,
                Engine::Scalar => unreachable!("the scalar engine observes by dictionary build"),
            };
            let k = ram.active_lanes().count_ones() as usize;
            let mut misrs = vec![Misr::new(POLY).expect("poly"); k];
            let mut execs = vec![Execution::default(); LaneRam::<K>::LANES];
            let mut active = ActiveSet::new();
            if sliced {
                for (fault, _) in ram.fault_bank().faults() {
                    active.insert_fault(fault);
                }
                active.finalize(&index);
            }
            let slice = sliced.then_some((&*index, &active));
            program.execute_batch_observed(ram, slice, &mut execs, &mut |planes| {
                for (lane, misr) in misrs.iter_mut().enumerate() {
                    misr.absorb(lane_word(planes, lane));
                }
            });
            assert_eq!(ram.errored_lanes(), LaneChunk::ZERO, "single-port programs never freeze");
            out.extend(
                misrs
                    .iter()
                    .zip(&execs)
                    .map(|(m, &exec)| Observation { signature: m.signature(), exec }),
            );
        },
        |_, ram| collector.collect(program, ram).expect("single-port run"),
    )
    .expect("valid sweep");
    assert_eq!(degraded, 0, "{engine:?} sweep degraded");
    observations
}

/// The observation comparator: every setting records the scalar
/// dictionary's observation for every fault (and, for dictionary
/// builds, its statistics).
pub fn assert_observations_agree(u: &FaultUniverse, program: &TestProgram, settings: &[Setting]) {
    let (oracle, oracle_stats) = observations(u, program, Setting::ORACLE);
    for &setting in settings {
        let (got, stats) = observations(u, program, setting);
        let at = format!("{} on {:?}, {setting:?}", program.name(), u.geometry());
        if let Some(i) = (0..oracle.len()).find(|&i| got[i] != oracle[i]) {
            panic!("{at}: observation diverged on {} (fault {i})", u.faults()[i]);
        }
        assert_eq!(got.len(), oracle.len(), "{at}");
        if let Some(stats) = stats {
            assert_eq!(Some(stats), oracle_stats, "{at}: statistics diverged");
        }
    }
}

/// Per-process unique checkpoint paths (proptest cases write many files).
pub fn temp_ckpt(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "prt-differential-{}-{tag}-{}.ckpt",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// The resume comparator: a campaign checkpointed every `every` faults
/// under `first`, rewound to an arbitrary prefix (`cut_permille` of the
/// saved records — the file a killed run leaves behind, its cursor on no
/// particular chunk boundary), resumes under `second` to the report of an
/// uninterrupted default run.
pub fn assert_resume_agrees(
    u: &FaultUniverse,
    subject: &Subject,
    first: Setting,
    second: Setting,
    every: usize,
    cut_permille: usize,
) {
    let baseline = campaign(u.into(), subject, Setting::DEFAULT).run();
    let path = temp_ckpt("resume");
    let written = campaign(u.into(), subject, first).with_checkpoint(&path, every).run();
    assert_eq!(baseline, written, "{first:?}: checkpointed run diverged");
    let fp = checkpoint::peek_fingerprint(&path).expect("fingerprint");
    let saved: Vec<bool> =
        checkpoint::load_records(&path, fp, u.len()).expect("load").expect("records");
    let cut = saved.len() * cut_permille / 1000;
    checkpoint::save_records(&path, fp, u.len(), &saved[..cut]).expect("rewind");
    let resumed = campaign(u.into(), subject, second).with_checkpoint(&path, every).run();
    assert_eq!(baseline, resumed, "{first:?} → {second:?}: resume from {cut} diverged");
    let _ = std::fs::remove_file(&path);
}
