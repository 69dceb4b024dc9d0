//! Chaos injection for resilience testing.
//!
//! Compiled only for tests (`cfg(test)`) and under the `chaos` feature —
//! production campaigns carry no injection sites. A [`ChaosPlan`] is
//! armed on a campaign via `Campaign::with_chaos` and fires deliberate
//! failures at deterministic points:
//!
//! * **worker kills** — a panic in the middle of a scalar chunk at a
//!   chosen universe index ([`ChaosPlan::panic_on_trial`]),
//! * **batch kills** — a panic inside a lane-batch interpreter pass
//!   ([`ChaosPlan::panic_on_batch`]), which must *degrade* to the scalar
//!   oracle, not kill the campaign,
//! * **cancellation** — a [`CancelToken`] fired after a chosen number of
//!   chaos events ([`ChaosPlan::cancel_after`]).
//!
//! Every site fires **once**: a retry or a resumed run sails past it,
//! which is exactly the recovery the resilience suite asserts on. File
//! corruption ([`truncate_file`], [`flip_bit`]) is provided here too so
//! chaos proptests damage checkpoints through one audited helper.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::CancelToken;

/// A deterministic schedule of injected failures (see the module docs).
#[derive(Debug, Default)]
pub struct ChaosPlan {
    /// Universe indices whose scalar trial panics (each fires once).
    panic_trials: Mutex<Vec<usize>>,
    /// First-fault indices of lane batches that panic (each fires once).
    panic_batches: Mutex<Vec<usize>>,
    /// Fire this token when `events` chaos checkpoints have passed.
    cancel: Mutex<Option<(usize, CancelToken)>>,
    /// Chaos checkpoints passed so far (trial + batch events).
    events: AtomicUsize,
}

impl ChaosPlan {
    /// An empty plan: no injections.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Panic when the scalar engine reaches universe index `i` — kills
    /// that worker's chunk. Fires once.
    pub fn panic_on_trial(self, i: usize) -> ChaosPlan {
        self.panic_trials.lock().expect("chaos plan lock").push(i);
        self
    }

    /// Panic inside the lane batch whose first fault index is `i` —
    /// every lane-batched setting cuts each segment once, in universe
    /// order, so that is the segment start plus a multiple of the chunk
    /// width; without checkpoint or progress segments, every multiple of
    /// the configured lane width is one (the chunk width divides it).
    /// Exercises the batch→scalar degradation path. Fires once.
    pub fn panic_on_batch(self, i: usize) -> ChaosPlan {
        self.panic_batches.lock().expect("chaos plan lock").push(i);
        self
    }

    /// Fire `token` after `events` chaos checkpoints (trial starts and
    /// batch starts) have passed — a cancellation arriving at an
    /// arbitrary point mid-campaign.
    pub fn cancel_after(self, events: usize, token: &CancelToken) -> ChaosPlan {
        *self.cancel.lock().expect("chaos plan lock") = Some((events, token.clone()));
        self
    }

    fn bump_events(&self) {
        let seen = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        let mut cancel = self.cancel.lock().expect("chaos plan lock");
        if let Some((after, token)) = cancel.as_ref() {
            if seen >= *after {
                token.cancel();
                *cancel = None;
            }
        }
    }

    /// Chaos checkpoint at the start of the scalar trial for universe
    /// index `i`. Called by the campaign's primary scalar path only —
    /// never by degraded retries, so degradation always succeeds.
    pub(crate) fn trial_event(&self, i: usize) {
        self.bump_events();
        let mut trials = self.panic_trials.lock().expect("chaos plan lock");
        if let Some(pos) = trials.iter().position(|&t| t == i) {
            trials.remove(pos);
            drop(trials);
            std::panic::panic_any(format!("chaos: injected panic at trial {i}"));
        }
    }

    /// Chaos checkpoint at the start of the lane batch whose first fault
    /// index is `first`.
    pub(crate) fn batch_event(&self, first: usize) {
        self.bump_events();
        let mut batches = self.panic_batches.lock().expect("chaos plan lock");
        if let Some(pos) = batches.iter().position(|&b| b == first) {
            batches.remove(pos);
            drop(batches);
            std::panic::panic_any(format!("chaos: injected panic in batch at fault {first}"));
        }
    }
}

/// Truncates a file to its first `keep` bytes — a crash mid-write (of a
/// non-atomic writer) or a torn copy.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn truncate_file(path: &Path, keep: usize) -> io::Result<()> {
    let bytes = fs::read(path)?;
    fs::write(path, &bytes[..keep.min(bytes.len())])
}

/// Flips one bit of a file in place — silent media corruption.
///
/// # Errors
///
/// Any underlying I/O error, or `InvalidInput` when the file is too
/// short to contain `bit`.
pub fn flip_bit(path: &Path, bit: usize) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    let byte = bit / 8;
    if byte >= bytes.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bit {bit} is past the {}-byte file", bytes.len()),
        ));
    }
    bytes[byte] ^= 1 << (bit % 8);
    fs::write(path, &bytes)
}
