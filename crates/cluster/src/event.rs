//! The discrete-event engine.
//!
//! Time is measured in minutes (f64) from the start of the simulation. The
//! queue is a binary heap keyed on time; ties are broken by insertion order
//! so runs are fully deterministic for a fixed seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::topology::MachineId;

/// Simulation time in minutes since the start of the run.
pub type SimTime = f64;

/// Events processed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A machine becomes unavailable; `until` is the scheduled return time
    /// (`f64::INFINITY` for permanent failures).
    MachineDown {
        /// The affected machine.
        machine: MachineId,
        /// When the machine will come back.
        until: SimTime,
    },
    /// A machine returns to service.
    MachineUp {
        /// The returning machine.
        machine: MachineId,
        /// The down event this return corresponds to (guards against stale
        /// events when a machine fails again while already down).
        incarnation: u64,
    },
    /// The detection timeout for a down machine expired; if it is still down
    /// the recovery pipeline starts work for its blocks.
    DetectFailure {
        /// The machine to check.
        machine: MachineId,
        /// The down event this detection corresponds to.
        incarnation: u64,
    },
    /// A recovery task (a batch of block reconstructions) finished.
    RecoveryTaskDone {
        /// The machine whose blocks were being rebuilt.
        machine: MachineId,
        /// Blocks rebuilt by this task.
        blocks: u64,
        /// Helper bytes read and transferred across racks by this task.
        cross_rack_bytes: u64,
    },
    /// Periodic census of the sampled stripes (for the §2.2 degradation
    /// statistics).
    StripeCensus,
    /// End of a simulated day: daily metrics are rolled over.
    DayEnd {
        /// The day (0-based) that just ended.
        day: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time pops first,
        // breaking ties by insertion order.
        other
            .time
            .partial_cmp(&self.time)
            // pbrs-lint: allow(panic-hygiene) -- event times are finite simulation instants; NaN is structurally impossible
            .expect("event times are never NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: SimTime,
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current time.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedules `event` `delay` minutes from now.
    pub fn schedule_in(&mut self, delay: f64, event: Event) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| {
            self.now = s.time;
            (s.time, s.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(10.0, Event::StripeCensus);
        q.schedule(5.0, Event::DayEnd { day: 0 });
        q.schedule(7.5, Event::StripeCensus);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![5.0, 7.5, 10.0]);
        assert_eq!(q.now, 10.0);
        assert!(q.heap.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, Event::DayEnd { day: 1 });
        q.schedule(1.0, Event::DayEnd { day: 2 });
        q.schedule(1.0, Event::DayEnd { day: 3 });
        let days: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::DayEnd { day } => day,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(days, vec![1, 2, 3]);
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, Event::StripeCensus);
        q.pop();
        q.schedule_in(2.0, Event::StripeCensus);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 5.0);
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.heap.len(), 0);
        q.schedule(1.0, Event::StripeCensus);
        q.schedule(2.0, Event::StripeCensus);
        assert_eq!(q.heap.len(), 2);
        q.pop();
        assert_eq!(q.heap.len(), 1);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10.0, Event::StripeCensus);
        q.pop();
        q.schedule(5.0, Event::StripeCensus);
    }

    #[test]
    fn infinite_times_sort_last() {
        let mut q = EventQueue::new();
        q.schedule(
            f64::INFINITY,
            Event::MachineUp {
                machine: MachineId(1),
                incarnation: 0,
            },
        );
        q.schedule(1.0, Event::StripeCensus);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 1.0);
        let (t, _) = q.pop().unwrap();
        assert!(t.is_infinite());
    }
}
