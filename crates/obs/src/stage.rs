//! Per-stage request timing.
//!
//! A request crossing the stack spends its latency in a handful of
//! distinguishable places: waiting in the worker queue, doing erasure
//! arithmetic, moving chunk bytes, and flushing frames onto the socket.
//! [`Stage`] names those places once for the whole workspace;
//! [`StageTimes`] is the plain accumulator a single request threads
//! through its layers; [`StageSet`] is the shared, lock-free bundle of
//! per-stage histograms those accumulators drain into.
//!
//! Overhead discipline: recording into a [`StageSet`] is a few relaxed
//! atomic adds per stage.

use std::time::Duration;

use crate::hist::{HistogramSnapshot, LatencyHistogram, Summary};

/// The stages a request's latency is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time between enqueueing work for a worker pool and the worker
    /// picking it up.
    Queue,
    /// Erasure arithmetic: encode, planned rebuild, reconstruct.
    Erasure,
    /// Chunk bytes moving to/from disks or chunk servers.
    ChunkIo,
    /// Writing response frames onto the client socket.
    Flush,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 4;

    /// All stages, in display order.
    pub const ALL: [Stage; Stage::COUNT] =
        [Stage::Queue, Stage::Erasure, Stage::ChunkIo, Stage::Flush];

    /// Stable snake_case name, used in metric names and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Erasure => "erasure",
            Stage::ChunkIo => "chunk_io",
            Stage::Flush => "flush",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Erasure => 1,
            Stage::ChunkIo => 2,
            Stage::Flush => 3,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Plain per-stage microsecond accumulator for one request (or one unit
/// of work). Cheap to copy, merge, and send across threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    us: [u64; Stage::COUNT],
}

impl StageTimes {
    /// All-zero times.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `micros` to a stage.
    #[inline]
    pub fn add(&mut self, stage: Stage, micros: u64) {
        self.us[stage.index()] += micros;
    }

    /// Add a [`Duration`] to a stage.
    #[inline]
    pub fn add_duration(&mut self, stage: Stage, d: Duration) {
        self.add(stage, d.as_micros() as u64);
    }

    /// Microseconds accumulated for a stage.
    pub fn get(&self, stage: Stage) -> u64 {
        self.us[stage.index()]
    }

    /// Add another accumulator into this one, stage by stage.
    pub fn merge(&mut self, other: &StageTimes) {
        for i in 0..Stage::COUNT {
            self.us[i] += other.us[i];
        }
    }

    /// Difference `self - earlier`, saturating per stage. Used to turn a
    /// cumulative trace into a per-stripe delta.
    pub fn since(&self, earlier: &StageTimes) -> StageTimes {
        let mut out = StageTimes::default();
        for i in 0..Stage::COUNT {
            out.us[i] = self.us[i].saturating_sub(earlier.us[i]);
        }
        out
    }
}

/// A shared bundle of one latency histogram per [`Stage`].
#[derive(Default)]
pub struct StageSet {
    hists: [LatencyHistogram; Stage::COUNT],
}

impl StageSet {
    /// A new, empty stage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `micros` for one stage.
    #[inline]
    pub fn record(&self, stage: Stage, micros: u64) {
        self.hists[stage.index()].record(micros);
    }

    /// Record a whole request's [`StageTimes`], one sample per stage.
    pub fn record_times(&self, times: &StageTimes) {
        for stage in Stage::ALL {
            self.hists[stage.index()].record(times.get(stage));
        }
    }

    /// Snapshot every stage's histogram.
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            stages: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }
}

impl std::fmt::Debug for StageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageSet").finish_non_exhaustive()
    }
}

/// Immutable per-stage histogram snapshots.
#[derive(Clone, Debug)]
pub struct StageSnapshot {
    stages: [HistogramSnapshot; Stage::COUNT],
}

impl StageSnapshot {
    /// Snapshot for one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }

    /// Merge another snapshot into this one, stage by stage.
    pub fn merge(&mut self, other: &StageSnapshot) {
        for i in 0..Stage::COUNT {
            self.stages[i].merge(&other.stages[i]);
        }
    }

    /// Render as a JSON object keyed by stage name, each value a
    /// [`Summary`] object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(stage.as_str());
            out.push_str("\":");
            out.push_str(&self.stage(*stage).summary().to_json());
        }
        out.push('}');
        out
    }

    /// Per-stage summaries in [`Stage::ALL`] order.
    pub fn summaries(&self) -> [(Stage, Summary); Stage::COUNT] {
        std::array::from_fn(|i| (Stage::ALL[i], self.stages[i].summary()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_accumulate_and_merge() {
        let mut a = StageTimes::new();
        a.add(Stage::Queue, 5);
        a.add(Stage::ChunkIo, 100);
        let mut b = StageTimes::new();
        b.add(Stage::ChunkIo, 50);
        b.add(Stage::Flush, 7);
        a.merge(&b);
        assert_eq!(a.get(Stage::Queue), 5);
        assert_eq!(a.get(Stage::ChunkIo), 150);
        assert_eq!(a.get(Stage::Flush), 7);
    }

    #[test]
    fn since_gives_saturating_delta() {
        let mut early = StageTimes::new();
        early.add(Stage::Erasure, 10);
        let mut late = early;
        late.add(Stage::Erasure, 15);
        late.add(Stage::ChunkIo, 3);
        let d = late.since(&early);
        assert_eq!(d.get(Stage::Erasure), 15);
        assert_eq!(d.get(Stage::ChunkIo), 3);
        assert_eq!(early.since(&late).get(Stage::Erasure), 0);
    }

    #[test]
    fn record_times_takes_one_sample_per_stage() {
        let set = StageSet::new();
        let mut t = StageTimes::new();
        t.add(Stage::Queue, 10);
        t.add(Stage::Erasure, 20);
        set.record_times(&t);
        set.record_times(&t);
        let snap = set.snapshot();
        for stage in Stage::ALL {
            assert_eq!(snap.stage(stage).count(), 2, "{stage}");
        }
        assert_eq!(snap.stage(Stage::Flush).max(), 0);
    }

    #[test]
    fn stage_json_lists_all_stages() {
        let set = StageSet::new();
        set.record(Stage::ChunkIo, 42);
        let j = set.snapshot().to_json();
        for stage in Stage::ALL {
            assert!(j.contains(&format!("\"{}\":", stage.as_str())), "{j}");
        }
    }
}
