//! Campaign engine settings: which engine, at which lane width, on how
//! many worker threads.

use prt_suite::prelude::*;

/// A campaign engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The scalar interpreter, one fault per pass (`with_lane_batching(false)`).
    Scalar,
    /// The default engine: full or sliced pass per lane chunk.
    Auto,
    /// The full pass on every lane chunk (`with_slicing(false)`).
    Full,
    /// The sliced pass on every lane chunk (`with_slicing(true)`).
    Sliced,
}

impl Engine {
    /// The lane-batched engines.
    pub const BATCHED: [Engine; 3] = [Engine::Auto, Engine::Full, Engine::Sliced];
    /// The two forced passes.
    pub const FORCED: [Engine; 2] = [Engine::Full, Engine::Sliced];
}

/// Every lane-chunk width.
pub const WIDTHS: [LaneWidth; 3] = [LaneWidth::X64, LaneWidth::X256, LaneWidth::X512];

/// One point of the engine matrix.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    pub engine: Engine,
    pub width: LaneWidth,
    pub parallelism: Parallelism,
}

impl Setting {
    /// The oracle every sweep is held to: the scalar engine, sequential.
    pub const ORACLE: Setting = Setting {
        engine: Engine::Scalar,
        width: LaneWidth::X512,
        parallelism: Parallelism::Sequential,
    };

    /// The campaign defaults: auto engine, widest chunks, automatic
    /// parallelism.
    pub const DEFAULT: Setting =
        Setting { engine: Engine::Auto, width: LaneWidth::X512, parallelism: Parallelism::Auto };

    /// `engine` at `width` on `threads` workers.
    pub fn new(engine: Engine, width: LaneWidth, threads: usize) -> Setting {
        Setting { engine, width, parallelism: Parallelism::Threads(threads) }
    }

    /// Applies this setting through the campaign's own setters.
    pub fn configure<'a, R: FaultRunner>(self, campaign: Campaign<'a, R>) -> Campaign<'a, R> {
        let campaign = match self.engine {
            Engine::Scalar => campaign.with_lane_batching(false),
            Engine::Auto => campaign,
            Engine::Full => campaign.with_slicing(false),
            Engine::Sliced => campaign.with_slicing(true),
        };
        campaign.with_lane_width(self.width).with_parallelism(self.parallelism)
    }
}

/// Every setting of `engines` × `widths` × `threads`.
pub fn matrix(engines: &[Engine], widths: &[LaneWidth], threads: &[usize]) -> Vec<Setting> {
    let mut out = Vec::new();
    for &engine in engines {
        for &width in widths {
            out.extend(threads.iter().map(|&t| Setting::new(engine, width, t)));
        }
    }
    out
}

/// Thread count for a proptest-chosen worker count: `PRT_TEST_THREADS`
/// overrides it, so CI pins the sweeps to a fixed multi-worker
/// configuration (the thread-count-invariance guard).
pub fn test_threads(chosen: usize) -> usize {
    std::env::var("PRT_TEST_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(chosen)
}
