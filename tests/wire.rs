//! Fuzz of the service wire decoders (`prt_svc::proto`): `Request::decode`
//! and `Event::decode` parse bytes straight off a socket, so no input may
//! make them panic. Each property feeds them random bytes, every strict
//! prefix of a valid frame and single-byte mutations of valid frames,
//! and checks that generated v1 and v2 `Submit`, `Lookup` and every
//! `Event` survive `decode(encode(x)) == x`.

use proptest::prelude::*;
use prt_suite::prelude::*;
use prt_svc::proto::Request;
use prt_svc::{
    CoverageDelta, DeltaRow, Event, JobDone, JobSpec, LookupReply, LookupSpec, StopKind,
};

/// Short strings over ASCII and multi-byte code points.
fn text(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let len = rng.next_below(12) as usize;
    (0..len)
        .map(|_| match rng.next_below(4) {
            0 => char::from_u32(0x80 + rng.next_below(0xD000) as u32).unwrap_or('?'),
            1 => char::from_u32(0x1_0000 + rng.next_below(0x1000) as u32).unwrap_or('?'),
            _ => char::from(b' ' + rng.next_below(95) as u8),
        })
        .collect()
}

/// Every family flag set or not by `flags`, plus an optional radius.
fn universe_spec(flags: u16, radius: Option<u64>) -> UniverseSpec {
    let on = |bit: u16| flags >> bit & 1 == 1;
    UniverseSpec {
        saf: on(0),
        tf: on(1),
        cfin: on(2),
        cfid: on(3),
        cfst: on(4),
        af: on(5),
        sof: on(6),
        rdf: on(7),
        drdf: on(8),
        irf: on(9),
        wdf: on(10),
        coupling_radius: radius.map(|r| r as usize),
        intra_word: on(11),
    }
}

/// A `Submit` (v1 without a topology, v2 with one generated over 1–64
/// cells) or a `Lookup`, from one seed.
fn request(seed: u64) -> Request {
    let mut rng = SplitMix64::new(seed);
    let flags = rng.next_u64() as u16;
    let radius = rng.next_bool().then(|| rng.next_u64() >> rng.next_below(64));
    let spec = universe_spec(flags, radius);
    match rng.next_below(3) {
        0 => Request::Lookup(LookupSpec {
            family: text(rng.next_u64()),
            cells: rng.next_u64(),
            width: rng.next_u64() as u32,
            spec,
            signature: rng.next_u64(),
            prefix_bits: rng.next_u64() as u32,
        }),
        version => {
            let backgrounds = (0..rng.next_below(5)).map(|_| rng.next_u64()).collect();
            let topology = (version == 2).then(|| {
                let cells = 1 + rng.next_below(64) as usize;
                Topology::generate(cells, rng.next_u64())
            });
            Request::Submit(JobSpec {
                family: text(rng.next_u64()),
                cells: rng.next_u64(),
                width: rng.next_u64() as u32,
                spec,
                backgrounds,
                lane_width: rng.next_u64() as u16,
                deadline_ms: rng.next_u64(),
                segment: rng.next_u64() as u32,
                topology,
            })
        }
    }
}

/// Any `Event`, from one seed.
fn event(seed: u64) -> Event {
    let mut rng = SplitMix64::new(seed);
    match rng.next_below(5) {
        0 => Event::Accepted { total: rng.next_u64() },
        1 => Event::Delta(CoverageDelta {
            seq: rng.next_u64(),
            start: rng.next_u64(),
            end: rng.next_u64(),
            rows: (0..rng.next_below(4))
                .map(|_| DeltaRow {
                    class: text(rng.next_u64()),
                    detected: rng.next_u64(),
                    total: rng.next_u64(),
                })
                .collect(),
        }),
        2 => Event::Done(JobDone {
            evaluated: rng.next_u64(),
            total: rng.next_u64(),
            cause: [StopKind::Complete, StopKind::Deadline, StopKind::Cancelled]
                [rng.next_below(3) as usize],
            degraded: rng.next_u64(),
        }),
        3 => Event::Candidates(LookupReply {
            candidates: (0..rng.next_below(5)).map(|_| rng.next_u64()).collect(),
            faults: (0..rng.next_below(4)).map(|_| text(rng.next_u64())).collect(),
            builds: rng.next_u64(),
            reference: rng.next_u64(),
        }),
        _ => Event::Error { code: rng.next_u64() as u16, message: text(rng.next_u64()) },
    }
}

/// Every strict prefix of a valid frame is a truncation, so a decoder
/// must refuse it (and not panic).
fn truncations_are_refused<T, E>(frame: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    for len in 0..frame.len() {
        assert!(decode(&frame[..len]).is_err(), "{len}-byte prefix of {frame:02x?} decoded");
    }
}

/// A mutated frame either fails to decode or decodes to a value whose
/// encoding is that frame again: the wire form is canonical, so the
/// decoder accepts nothing it would not also write.
fn mutation_is_refused_or_canonical<T>(
    frame: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, prt_svc::proto::WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    if let Ok(value) = decode(frame) {
        assert_eq!(encode(&value), frame, "non-canonical frame accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_and_refuse_truncation(seed in any::<u64>()) {
        let req = request(seed);
        let frame = req.encode();
        prop_assert_eq!(Request::decode(&frame).expect("valid frame"), req);
        truncations_are_refused(&frame, Request::decode);
    }

    #[test]
    fn events_round_trip_and_refuse_truncation(seed in any::<u64>()) {
        let ev = event(seed);
        let frame = ev.encode();
        prop_assert_eq!(Event::decode(&frame).expect("valid frame"), ev);
        truncations_are_refused(&frame, Event::decode);
    }

    #[test]
    fn mutated_frames_never_panic(
        seed in any::<u64>(),
        flips in prop::collection::vec((any::<u64>(), any::<u8>()), 1..16),
    ) {
        let request = request(seed).encode();
        let event = event(seed).encode();
        for (pos, byte) in flips {
            let mut frame = request.clone();
            frame[pos as usize % request.len()] = byte;
            mutation_is_refused_or_canonical(&frame, Request::decode, Request::encode);
            let mut frame = event.clone();
            frame[pos as usize % event.len()] = byte;
            mutation_is_refused_or_canonical(&frame, Event::decode, Event::encode);
        }
    }

    #[test]
    fn random_bytes_never_panic(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // Behind a random first byte, and behind every known tag so the
        // bytes reach the message parsers.
        for first in [tag, 0x01, 0x02, 0x03, 0x81, 0x82, 0x83, 0x84, 0x7F] {
            let mut frame = vec![first];
            frame.extend_from_slice(&body);
            let _ = Request::decode(&frame);
            let _ = Event::decode(&frame);
        }
        let _ = Request::decode(&body);
        let _ = Event::decode(&body);
    }
}
