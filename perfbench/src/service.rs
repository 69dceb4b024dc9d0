//! `service_mix`: a closed loop of two clients against an in-process
//! loopback `prt_svc` server; each client holds at most one connection at
//! a time and sends its next request when the previous one completes. The
//! seeded mix is 80% small Submits (March C-, 16 cells, `paper_claim`),
//! 10% medium Submits (1024 cells, radius-1 couplings, lazily sharded) and
//! 10% dictionary Lookups. Accept, frame codec, program and dictionary
//! caches and streaming do the work; compute is a small share.

use crate::layers::{active_ops, class_counts, program_ops, ratio, EngineTimes};
use crate::{stats, trace, Ctx, Outcome};
use prt_diag::FaultDictionary;
use prt_gf::Poly2;
use prt_march::{library, Executor};
use prt_ram::{FaultUniverse, Geometry, SplitMix64, TestProgram, UniverseSpec};
use prt_sim::Parallelism;
use prt_svc::proto::{Event, JobSpec, LookupSpec, Request, StopKind};
use prt_svc::server::DEFAULT_POLY_BITS;
use prt_svc::{Client, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop clients (the host this benchmark was tuned on has 2 cores).
const CLIENTS: usize = 2;
/// Requests per pass; both clients drain at the end of a pass.
const PASS_REQUESTS: usize = 40;
const SMALL_CELLS: u64 = 16;
const MEDIUM_CELLS: u64 = 1024;
/// Set-ups (server spawn plus cold requests) per run.
const SETUPS: usize = 10;
/// The cold requests of a set-up: they compile the shared 16-cell program
/// and build the lookup dictionary. A cold medium job would only add its
/// campaign, quantized by the server's accept poll, to the set-up time.
const WARM_UP: [Kind; 2] = [Kind::Small, Kind::Lookup];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Small,
    Medium,
    Lookup,
}

fn job(cells: u64, spec: UniverseSpec) -> JobSpec {
    JobSpec {
        family: "March C-".into(),
        cells,
        width: 1,
        spec,
        backgrounds: vec![0],
        lane_width: 0,
        deadline_ms: 0,
        segment: 0,
        topology: None,
    }
}

fn medium_spec() -> UniverseSpec {
    UniverseSpec { coupling_radius: Some(1), ..UniverseSpec::paper_claim() }
}

/// What a correct server answers, computed in process before any timing.
struct Reference {
    small: JobSpec,
    medium: JobSpec,
    /// Per-class `(class, detected, total)` of each Submit kind.
    small_classes: Vec<(String, usize, usize)>,
    medium_classes: Vec<(String, usize, usize)>,
    dictionary: FaultDictionary,
    universes: Vec<FaultUniverse>,
}

impl Reference {
    fn new(ctx: &Ctx) -> Reference {
        let build = |cells: u64, spec: UniverseSpec| {
            let geom = Geometry::bom(cells as usize);
            let universe = FaultUniverse::enumerate(geom, &spec);
            let program =
                Executor::new().with_background(0).compile(&library::march_c_minus(), geom);
            (universe, program)
        };
        let (small_u, small_p) = build(SMALL_CELLS, UniverseSpec::paper_claim());
        let (medium_u, medium_p) = build(MEDIUM_CELLS, medium_spec());
        let classes = |u: &FaultUniverse, p: &TestProgram| {
            let report = prt_sim::Campaign::new(u, p).run();
            let mut rows = class_counts(&report);
            if ctx.wrong_golden {
                rows[0].1 += 1;
            }
            rows
        };
        let small_classes = classes(&small_u, &small_p);
        let medium_classes = classes(&medium_u, &medium_p);
        let poly = Poly2::from_bits(u128::from(DEFAULT_POLY_BITS));
        let dictionary = FaultDictionary::build(&small_u, &small_p, poly, Parallelism::Auto)
            .expect("the reference dictionary builds");
        Reference {
            small: job(SMALL_CELLS, UniverseSpec::paper_claim()),
            medium: job(MEDIUM_CELLS, medium_spec()),
            small_classes,
            medium_classes,
            dictionary,
            universes: vec![small_u, medium_u],
        }
    }

    fn lookup(&self, signature: u64) -> LookupSpec {
        LookupSpec {
            family: "March C-".into(),
            cells: SMALL_CELLS,
            width: 1,
            spec: UniverseSpec::paper_claim(),
            signature,
            prefix_bits: 0,
        }
    }
}

/// One generated request: its kind and, for a Lookup, the signature of a
/// seeded fault.
#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    signature: u64,
}

fn generate(rng: &mut SplitMix64, reference: &Reference) -> Req {
    let kind = match rng.next_below(10) {
        0..=7 => Kind::Small,
        8 => Kind::Medium,
        _ => Kind::Lookup,
    };
    let observations = reference.dictionary.observations();
    let fault = rng.next_below(observations.len() as u64) as usize;
    Req { kind, signature: observations[fault].signature }
}

/// Client-side timings of one completed request, from the start of its
/// connect.
#[derive(Debug, Default)]
struct Record {
    kind: Option<Kind>,
    latency: f64,
    first_delta: Option<f64>,
    faults: u64,
}

/// Runs one request to completion and checks the answer.
fn request(
    ctx: &Ctx,
    addr: SocketAddr,
    reference: &Reference,
    req: Req,
    id: u64,
) -> Result<Record, String> {
    let tr = &ctx.tracer;
    let job_id = Some(id);
    tr.span("svc.job", job_id, || {
        let t0 = Instant::now();
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let t1 = Instant::now();
        tr.record("svc.connect", job_id, t0, t1);
        if req.kind == Kind::Lookup {
            let spec = reference.lookup(req.signature);
            let reply = client.lookup(&spec).map_err(|e| format!("lookup: {e}"))?;
            let t2 = Instant::now();
            tr.record("svc.lookup", job_id, t1, t2);
            let want: Vec<u64> =
                reference.dictionary.candidates(req.signature).iter().map(|&i| i as u64).collect();
            if reply.candidates != want || reply.builds != 1 {
                return Err(format!(
                    "lookup {:#x}: {} candidates after {} builds, want {} after 1",
                    req.signature,
                    reply.candidates.len(),
                    reply.builds,
                    want.len()
                ));
            }
            return Ok(Record { kind: Some(req.kind), latency: (t2 - t0).as_secs_f64(), ..Record::default() });
        }

        let (spec, want) = match req.kind {
            Kind::Small => (&reference.small, &reference.small_classes),
            _ => (&reference.medium, &reference.medium_classes),
        };
        let mut stream = client.submit(spec).map_err(|e| format!("submit: {e}"))?;
        let t2 = Instant::now();
        tr.record("svc.submit_to_accepted", job_id, t1, t2);
        let (mut cursor, mut seq, mut last, mut first) = (0u64, 0u64, t2, None);
        let mut classes: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        loop {
            let event = stream.next_event().map_err(|e| format!("stream: {e}"))?;
            let now = Instant::now();
            match event {
                Some(Event::Delta(delta)) => {
                    if delta.start != cursor || delta.seq != seq || delta.end <= delta.start {
                        return Err(format!("delta {seq} [{}, {}) after {cursor}", delta.start, delta.end));
                    }
                    let name = if first.is_none() { "svc.accepted_to_first_delta" } else { "svc.delta_gap" };
                    tr.record(name, job_id, last, now);
                    first.get_or_insert(now);
                    for row in delta.rows {
                        let e = classes.entry(row.class).or_default();
                        e.0 += row.detected as usize;
                        e.1 += row.total as usize;
                    }
                    (cursor, seq, last) = (delta.end, seq + 1, now);
                }
                Some(Event::Done(done)) => {
                    tr.record("svc.last_delta_to_done", job_id, last, now);
                    let got: Vec<(String, usize, usize)> =
                        classes.into_iter().map(|(c, (d, t))| (c, d, t)).collect();
                    let tiled = done.evaluated == done.total
                        && done.total == cursor
                        && done.total == stream.total()
                        && done.cause == StopKind::Complete;
                    if !tiled || &got != want {
                        return Err(format!(
                            "{:?} job: done {done:?} after deltas up to {cursor}, classes {got:?}, want {want:?}",
                            req.kind
                        ));
                    }
                    return Ok(Record {
                        kind: Some(req.kind),
                        latency: (now - t0).as_secs_f64(),
                        first_delta: first.map(|f| (f - t0).as_secs_f64()),
                        faults: done.total,
                    });
                }
                other => return Err(format!("unexpected event {other:?}")),
            }
        }
    })
}

/// Spawns a server and sends the [`WARM_UP`] requests.
fn setup(
    ctx: &Ctx,
    out: &mut Outcome,
    reference: &Reference,
    ids: &mut u64,
) -> (ServerHandle, f64) {
    let started = Instant::now();
    let server = Server::spawn(ServerConfig::default()).expect("bind a loopback port");
    for kind in WARM_UP {
        let signature = reference.dictionary.observations()[0].signature;
        *ids += 1;
        let r = request(ctx, server.addr(), reference, Req { kind, signature }, *ids);
        out.op_result(&format!("warm-up {kind:?}"), r);
    }
    (server, started.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let tr = &ctx.tracer;
    let reference = Reference::new(ctx);
    let mut rng = SplitMix64::new(ctx.seed);
    let mut ids = 0u64;
    let setups = if ctx.smoke { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..setups {
        let (s, t) = setup(ctx, out, &reference, &mut ids);
        setup_times.push(t);
        if let Some(previous) = server.replace(s) {
            previous.shutdown();
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let per_pass = if ctx.smoke { 10 } else { PASS_REQUESTS };

    let (plain, traced) = ctx.run_passes(|_| {
        let batch: Vec<(Req, u64)> = (0..per_pass)
            .map(|_| {
                ids += 1;
                (generate(&mut rng, &reference), ids)
            })
            .collect();
        let next = AtomicUsize::new(0);
        let records = Mutex::new(Vec::new());
        let started = Instant::now();
        let parent = tr.current();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    tr.adopt(parent);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(req, id)) = batch.get(i) else { break };
                        let r = request(ctx, addr, &reference, req, id);
                        records.lock().expect("record list lock").push((req.kind, r));
                    }
                });
            }
        });
        let wall = started.elapsed().as_secs_f64();
        let records = records.into_inner().expect("record list lock");
        let mut done = Vec::new();
        for (kind, r) in records {
            if let Some(rec) = out.op_result(&format!("{kind:?} request"), r) {
                done.push(rec);
            }
        }
        (wall, done)
    });
    let program_compiles = server.program_compiles();
    let dictionary_builds = server.dictionary_builds();
    server.shutdown();

    let walls: Vec<f64> = plain.iter().map(|p| p.0).collect();
    let records: Vec<&Record> = plain.iter().flat_map(|p| &p.1).collect();
    let latencies = |kind: Kind| -> Vec<f64> {
        records.iter().filter(|r| r.kind == Some(kind)).map(|r| r.latency).collect()
    };
    let (small, medium, lookup) =
        (latencies(Kind::Small), latencies(Kind::Medium), latencies(Kind::Lookup));
    let first: Vec<f64> = records
        .iter()
        .filter(|r| r.kind == Some(Kind::Small))
        .filter_map(|r| r.first_delta)
        .collect();
    println!("service_mix: pass {}", stats::summary(&walls, 1.0, "s"));
    println!("service_mix: small job {}", stats::summary(&small, 1e3, "ms"));
    println!("service_mix: small first delta {}", stats::summary(&first, 1e3, "ms"));
    println!("service_mix: medium job {}", stats::summary(&medium, 1e3, "ms"));
    println!("service_mix: lookup {}", stats::summary(&lookup, 1e3, "ms"));
    let busy: f64 = walls.iter().sum();
    if !ctx.traced {
        out.set("wall_s", stats::median(&walls));
        out.set("setup_s", stats::median(&setup_times));
        out.set("faults_per_s", records.iter().map(|r| r.faults as f64).sum::<f64>() / busy);
        out.set("jobs_per_s", records.len() as f64 / busy);
        return;
    }

    let traced_walls: Vec<f64> = traced.iter().map(|p| p.0).collect();
    out.set("trace.overhead_s", stats::median(&traced_walls) - stats::median(&walls));
    let small_p50 = stats::median(&small);
    out.set("svc.small_job_p50_ms", small_p50 * 1e3);
    out.set("svc.small_job_p99_ms", stats::quantile(&small, 0.99) * 1e3);
    out.set("svc.first_delta_p50_ms", stats::median(&first) * 1e3);
    out.set("svc.medium_job_p50_ms", stats::median(&medium) * 1e3);
    out.set("svc.lookup_p50_ms", stats::median(&lookup) * 1e3);
    let spans = tr.spans();
    for (metric, span) in [
        ("svc.connect_ms", "svc.connect"),
        ("svc.submit_to_accepted_ms", "svc.submit_to_accepted"),
        ("svc.accepted_to_first_delta_ms", "svc.accepted_to_first_delta"),
        ("svc.delta_gap_ms", "svc.delta_gap"),
        ("svc.last_delta_to_done_ms", "svc.last_delta_to_done"),
    ] {
        out.set(metric, stats::median(&trace::durations(&spans, span)) * 1e3);
    }

    // Cache effectiveness over the measured server's lifetime: every
    // request fetches one compiled program, every Lookup one dictionary.
    let served: Vec<&Record> =
        records.iter().copied().chain(traced.iter().flat_map(|p| &p.1)).collect();
    let lookups = served.iter().filter(|r| r.kind == Some(Kind::Lookup)).count()
        + WARM_UP.iter().filter(|&&k| k == Kind::Lookup).count();
    let fetches = (served.len() + WARM_UP.len() + lookups) as f64;
    let misses = (program_compiles + dictionary_builds) as f64;
    out.set("svc.program_compiles", program_compiles as f64);
    out.set("svc.dictionary_builds", dictionary_builds as f64);
    out.set("svc.cache_hit_ratio", ratio(fetches - misses, fetches));

    let (frames, small_frames) = sample_frames(out, &reference);
    codec(out, &frames, small_frames, small_p50);
    engine_layers(ctx, out, &reference);
    out.not_reached(&[
        "bench.table_bom_s",
        "bench.table_wom_s",
        "ram.universe.enumerate_s",
        "core.compile_s",
        "core.synth_s",
        "sim.checkpoint_s",
        "diag.dictionary_build_s",
        "diag.mean_candidates",
        "diag.diagnose_ms",
        "diag.diagnose_p90_ms",
        "diag.resolved_ratio",
    ]);
}

/// The frames of one small job, one medium job and one Lookup, as a fresh
/// server sends and receives them: `(frames, frames of the small job)`.
fn sample_frames(out: &mut Outcome, reference: &Reference) -> (Vec<Vec<u8>>, usize) {
    let server = Server::spawn(ServerConfig::default()).expect("bind a loopback port");
    let mut frames = Vec::new();
    let mut small_frames = 0;
    for spec in [&reference.small, &reference.medium] {
        frames.push(Request::Submit(spec.clone()).encode());
        let stream = Client::connect(server.addr())
            .map_err(|e| e.to_string())
            .and_then(|c| c.submit(spec).map_err(|e| e.to_string()));
        if let Some(stream) = out.check("codec sample submit", stream) {
            frames.push(Event::Accepted { total: stream.total() }.encode());
            if let Some((deltas, done)) = out.check("codec sample stream", stream.drain()) {
                frames.extend(deltas.into_iter().map(|d| Event::Delta(d).encode()));
                frames.push(Event::Done(done).encode());
            }
        }
        if small_frames == 0 {
            small_frames = frames.len();
        }
    }
    let lookup = reference.lookup(reference.dictionary.observations()[0].signature);
    frames.push(Request::Lookup(lookup.clone()).encode());
    let reply = Client::connect(server.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.lookup(&lookup).map_err(|e| e.to_string()));
    if let Some(reply) = out.check("codec sample lookup", reply) {
        frames.push(Event::Candidates(reply).encode());
    }
    server.shutdown();
    (frames, small_frames)
}

/// Encode and decode cost on the workload's own frames, and its share of
/// the small-job median.
fn codec(out: &mut Outcome, frames: &[Vec<u8>], small_frames: usize, small_p50: f64) {
    let reps = 200;
    let decode = |f: &[u8]| -> Result<(), String> {
        if Request::decode(f).is_ok() || Event::decode(f).is_ok() {
            Ok(())
        } else {
            Err("frame does not decode".into())
        }
    };
    for f in frames {
        out.check("frame decode", decode(f));
    }
    let t = Instant::now();
    for _ in 0..reps {
        for f in frames {
            std::hint::black_box(decode(std::hint::black_box(f)).is_ok());
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
    let decoded: Vec<Result<Request, Event>> = frames
        .iter()
        .filter_map(|f| match Request::decode(f) {
            Ok(r) => Some(Ok(r)),
            Err(_) => Event::decode(f).ok().map(Err),
        })
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        for m in &decoded {
            let bytes = match m {
                Ok(r) => r.encode(),
                Err(e) => e.encode(),
            };
            std::hint::black_box(bytes);
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (reps * decoded.len().max(1)) as f64;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.set("svc.encode_ns", encode_ns);
    out.set("svc.decode_ns", decode_ns);
    out.set("svc.frame_bytes", ratio(bytes as f64, frames.len() as f64));
    let small_codec_s = small_frames as f64 * (encode_ns + decode_ns) * 1e-9;
    let share = ratio(small_codec_s, small_p50);
    println!("service_mix: frame codec is {:.4}% of the small-job median", share * 100.0);
    out.set("svc.codec_share", share);
}

/// The Submit kinds' campaigns run in process under every engine
/// configuration (the server runs the same engine on lazily sliced shards).
fn engine_layers(ctx: &Ctx, out: &mut Outcome, reference: &Reference) {
    let tr = &ctx.tracer;
    let mut engines = EngineTimes::default();
    let (mut ops, mut active, mut full, mut faults) = (0u64, 0u64, 0u64, 0usize);
    let mut compile_s = 0.0;
    for (label, universe) in ["small job", "medium job"].into_iter().zip(&reference.universes) {
        // A fresh compile, so the activity index is built here rather than
        // reused from the reference campaign.
        let t = Instant::now();
        let program = Executor::new()
            .with_background(0)
            .compile(&library::march_c_minus(), universe.geometry());
        compile_s += t.elapsed().as_secs_f64();
        tr.span("ram.slice.index_build", None, || program.activity_index());
        ops += program.ops().len() as u64;
        faults += universe.len();
        let (a, f) = active_ops(universe.faults(), &program);
        active += a;
        full += f;
        engines.measure(tr, out, label, universe, &program, &[0]);
    }
    let spans = tr.spans();
    out.set("march.compile_s", compile_s);
    out.set(
        "ram.slice.index_build_s",
        trace::durations(&spans, "ram.slice.index_build").iter().sum(),
    );
    out.set("ram.slice.active_op_fraction", ratio(active as f64, full as f64));
    out.set("ram.universe.faults", faults as f64);
    program_ops(out, ops, 10400);
    out.set("sim.campaign_s", engines.default);
    engines.emit(out);
}
