//! Time-bucketed metrics over a trace stream.

use crate::event::{TraceEvent, TraceEventKind};
use serde::Serialize;
use std::error::Error;
use std::fmt;

/// Most counters one series may hold: rows × buckets, where the rows are
/// the nine run-wide series plus one per shard and one per node. Every
/// row is dense from bucket 0, so the bound caps a series at 128 MiB of
/// counters and its rendered report at about as much again. A late event
/// under a narrow window would otherwise ask for more memory than exists.
pub const MAX_SERIES_COUNTERS: u64 = 1 << 24;

/// Rows every series holds besides its per-shard and per-node rows.
const RUN_WIDE_ROWS: u64 = 9;

/// A stream whose series would hold more than [`MAX_SERIES_COUNTERS`]
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesTooLarge {
    /// Rows of the series.
    pub rows: u64,
    /// Most buckets a refused event asked for (saturating at `u64::MAX`),
    /// whatever order the events came in.
    pub buckets: u64,
}

impl fmt::Display for SeriesTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a time series of {} rows over {} buckets holds more than {} counters",
            self.rows, self.buckets, MAX_SERIES_COUNTERS
        )
    }
}

impl Error for SeriesTooLarge {}

/// Per-bucket counter vector that grows to cover the highest bucket seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters(Vec<u64>);

impl Counters {
    fn add(&mut self, bucket: usize, amount: u64) {
        if self.0.len() <= bucket {
            self.0.resize(bucket + 1, 0);
        }
        self.0[bucket] = self.0[bucket].saturating_add(amount);
    }

    fn padded(&self, buckets: usize) -> Vec<u64> {
        let mut out = self.0.clone();
        out.resize(buckets, 0);
        out
    }
}

/// Folds [`TraceEvent`]s into fixed-window sim-time buckets, one event at
/// a time, so a run can fold its trace as the kernel emits it and keep no
/// events.
///
/// Every accumulator is a per-bucket `u64` sum (saturating), so feeding
/// the collector any permutation of the same event multiset produces the
/// same [`TelemetryReport`] — which is what keeps the report's `telemetry`
/// section byte-identical across thread counts. Occupancy events are
/// split across the bucket boundaries they straddle.
///
/// The node and shard counts are fixed when the series is built; the
/// shard sizes, which migrations change, are given when it renders. The
/// series holds at most [`MAX_SERIES_COUNTERS`] counters: an event that
/// would grow it past that is not folded, and [`TimeSeries::report`]
/// refuses.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: u64,
    nodes: usize,
    events: u64,
    /// Buckets every row covers: one past the highest bucket charged.
    buckets: usize,
    /// The refusal [`TimeSeries::report`] returns, once an event was
    /// refused.
    refused: Option<SeriesTooLarge>,
    busy: Counters,
    per_shard_busy: Vec<Counters>,
    per_node_busy: Vec<Counters>,
    parks: Counters,
    wakes: Counters,
    nacks: Counters,
    repairs: Counters,
    opens: Counters,
    admitted: Counters,
    reordered: Counters,
    shed: Counters,
}

impl TimeSeries {
    /// A collector bucketing sim time into `window`-tick buckets over a
    /// pool of `nodes` nodes in `shards` shards (a flat run is one shard
    /// holding the whole pool). `window` is clamped to at least 1.
    pub fn new(window: u64, nodes: usize, shards: usize) -> Self {
        TimeSeries {
            window: window.max(1),
            nodes,
            events: 0,
            buckets: 0,
            refused: None,
            busy: Counters::default(),
            per_shard_busy: vec![Counters::default(); shards],
            per_node_busy: vec![Counters::default(); nodes],
            parks: Counters::default(),
            wakes: Counters::default(),
            nacks: Counters::default(),
            repairs: Counters::default(),
            opens: Counters::default(),
            admitted: Counters::default(),
            reordered: Counters::default(),
            shed: Counters::default(),
        }
    }

    /// Folds one event in.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let end = ev.time.saturating_add(ev.dur);
        // The last bucket the event charges, checked before any row grows:
        // an occupancy span charges up to its last tick, a count its own
        // bucket.
        let last = match ev.kind {
            TraceEventKind::SendFinish | TraceEventKind::ChunkRelease | TraceEventKind::Abandon => {
                return
            }
            kind if kind.is_occupancy() && end > ev.time => (end - 1) / self.window,
            TraceEventKind::SendStart | TraceEventKind::Receive => return,
            _ => ev.time / self.window,
        };
        if !self.reserve(last) {
            return;
        }
        let bucket = (ev.time / self.window) as usize;
        match ev.kind {
            TraceEventKind::SessionOpen => self.opens.add(bucket, 1),
            TraceEventKind::Park => self.parks.add(bucket, 1),
            TraceEventKind::Wake => self.wakes.add(bucket, 1),
            TraceEventKind::Nack => self.nacks.add(bucket, 1),
            TraceEventKind::Admitted => self.admitted.add(bucket, 1),
            TraceEventKind::Reordered => self.reordered.add(bucket, 1),
            TraceEventKind::Shed => self.shed.add(bucket, 1),
            TraceEventKind::Repair => {
                self.repairs.add(bucket, 1);
                self.occupy(ev, end);
            }
            TraceEventKind::SendStart | TraceEventKind::Receive => self.occupy(ev, end),
            TraceEventKind::SendFinish | TraceEventKind::ChunkRelease | TraceEventKind::Abandon => {
            }
        }
    }

    /// Extends the series to cover bucket `last` (rows are padded to it
    /// when they render), unless that would pass [`MAX_SERIES_COUNTERS`];
    /// then records the refusal and returns `false`.
    fn reserve(&mut self, last: u64) -> bool {
        if last < self.buckets as u64 {
            return true;
        }
        let rows = RUN_WIDE_ROWS + (self.per_shard_busy.len() + self.nodes) as u64;
        let buckets = last.saturating_add(1);
        if rows
            .checked_mul(buckets)
            .is_some_and(|counters| counters <= MAX_SERIES_COUNTERS)
        {
            self.buckets = buckets as usize;
            true
        } else {
            let buckets = self.refused.map_or(buckets, |r| r.buckets.max(buckets));
            self.refused = Some(SeriesTooLarge { rows, buckets });
            false
        }
    }

    /// Charges an occupancy interval `[time, end)` to every bucket it
    /// overlaps.
    fn occupy(&mut self, ev: &TraceEvent, end: u64) {
        let mut start = ev.time;
        while start < end {
            let bucket = start / self.window;
            // Saturates: the last bucket before `u64::MAX` may end past it.
            let bucket_end = (bucket * self.window).saturating_add(self.window);
            let ticks = end.min(bucket_end) - start;
            self.busy.add(bucket as usize, ticks);
            if let Some(shard) = ev.shard {
                self.per_shard_busy[shard].add(bucket as usize, ticks);
            } else if self.per_shard_busy.len() == 1 {
                self.per_shard_busy[0].add(bucket as usize, ticks);
            }
            if let Some(node) = ev.node {
                self.per_node_busy[node].add(bucket as usize, ticks);
            }
            start = bucket_end;
        }
    }

    /// Folds a whole stream and renders the report in one call: the
    /// reference the run's inline fold is tested against.
    pub fn over(
        events: &[TraceEvent],
        window: u64,
        shard_sizes: &[usize],
    ) -> Result<TelemetryReport, SeriesTooLarge> {
        let mut series = TimeSeries::new(window, shard_sizes.iter().sum(), shard_sizes.len());
        for ev in events {
            series.observe(ev);
        }
        series.report(shard_sizes)
    }

    /// The refusal [`TimeSeries::report`] returns, once an event would have
    /// grown the series past [`MAX_SERIES_COUNTERS`].
    pub fn refused(&self) -> Option<SeriesTooLarge> {
        self.refused
    }

    /// Renders the collected buckets as the report's `telemetry` section,
    /// with `shard_sizes` holding one node count per shard the series was
    /// built with. Refuses a series that an event would have grown past
    /// [`MAX_SERIES_COUNTERS`].
    pub fn report(&self, shard_sizes: &[usize]) -> Result<TelemetryReport, SeriesTooLarge> {
        if let Some(refused) = self.refused {
            return Err(refused);
        }
        assert_eq!(
            shard_sizes.len(),
            self.per_shard_busy.len(),
            "one size per shard the series was built with"
        );
        let buckets = self.buckets;
        // Port-ticks `nodes` ports offer per bucket, in floating point so a
        // wide window cannot overflow.
        let capacity = |nodes: usize| (self.window as f64 * nodes as f64).max(1.0);
        let busy_ticks = self.busy.padded(buckets);
        let total = capacity(self.nodes);
        let utilization = busy_ticks.iter().map(|&b| b as f64 / total).collect();
        let per_shard_utilization = self
            .per_shard_busy
            .iter()
            .zip(shard_sizes)
            .map(|(c, &n)| {
                let capacity = capacity(n);
                c.padded(buckets)
                    .iter()
                    .map(|&b| b as f64 / capacity)
                    .collect()
            })
            .collect();
        let cumulative_depth = |plus: &Counters, minus: &Counters| {
            let mut depth = 0u64;
            plus.padded(buckets)
                .iter()
                .zip(minus.padded(buckets))
                .map(|(&p, m)| {
                    depth = (depth + p).saturating_sub(m);
                    depth
                })
                .collect::<Vec<u64>>()
        };
        Ok(TelemetryReport {
            window: self.window,
            buckets,
            events: self.events,
            busy_ticks,
            utilization,
            queue_depth: cumulative_depth(&self.parks, &self.wakes),
            session_opens: self.opens.padded(buckets),
            nacks: self.nacks.padded(buckets),
            repair_backlog: cumulative_depth(&self.nacks, &self.repairs),
            admitted: self.admitted.padded(buckets),
            reordered: self.reordered.padded(buckets),
            shed: self.shed.padded(buckets),
            per_shard_utilization,
            per_node_busy: self
                .per_node_busy
                .iter()
                .map(|c| c.padded(buckets))
                .collect(),
        })
    }
}

/// The optional `telemetry` section of a schema-5 traffic report: fixed-
/// window time series over the run's trace stream. Every series has
/// [`TelemetryReport::buckets`] entries covering sim time
/// `[0, buckets * window)`; index `i` describes
/// `[i * window, (i + 1) * window)`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetryReport {
    /// Bucket width in sim ticks.
    pub window: u64,
    /// Number of buckets every series below carries.
    pub buckets: usize,
    /// Total trace events folded in.
    pub events: u64,
    /// Port-busy ticks per bucket, summed over all nodes.
    pub busy_ticks: Vec<u64>,
    /// `busy_ticks / (window * nodes)`: mean cluster utilization per
    /// bucket, in `[0, 1]`.
    pub utilization: Vec<f64>,
    /// Parked (deferred) claims still waiting at each bucket's close.
    pub queue_depth: Vec<u64>,
    /// Sessions opened per bucket.
    pub session_opens: Vec<u64>,
    /// NACKs raised per bucket (a rate: count per window).
    pub nacks: Vec<u64>,
    /// NACKs not yet answered by a repair transmission at each bucket's
    /// close.
    pub repair_backlog: Vec<u64>,
    /// Control-plane in-order admissions per bucket (arrival-stamped).
    pub admitted: Vec<u64>,
    /// Control-plane reordered admissions per bucket.
    pub reordered: Vec<u64>,
    /// Control-plane shed sessions per bucket.
    pub shed: Vec<u64>,
    /// Per-shard utilization in `[0, 1]`, indexed `[shard][bucket]`.
    pub per_shard_utilization: Vec<Vec<f64>>,
    /// Per-node busy ticks, indexed `[node][bucket]`; divide by `window`
    /// for per-node utilization.
    pub per_node_busy: Vec<Vec<u64>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind as K;

    fn ev(time: u64, kind: K) -> TraceEvent {
        TraceEvent::new(time, kind, 1)
    }

    #[test]
    fn occupancy_splits_across_bucket_boundaries() {
        let events = [
            ev(8, K::SendStart).node(0).dur(7), // 2 ticks in bucket 0, 5 in bucket 1
            ev(25, K::Receive).node(1).dur(5),  // all in bucket 2
        ];
        let report = TimeSeries::over(&events, 10, &[2]).unwrap();
        assert_eq!(report.buckets, 3);
        assert_eq!(report.busy_ticks, vec![2, 5, 5]);
        assert_eq!(report.utilization, vec![0.1, 0.25, 0.25]);
        assert_eq!(report.per_node_busy, vec![vec![2, 5, 0], vec![0, 0, 5]]);
        // One shard holding the whole pool mirrors overall utilization.
        assert_eq!(report.per_shard_utilization, vec![vec![0.1, 0.25, 0.25]]);
    }

    #[test]
    fn cumulative_series_track_backlogs() {
        let events = [
            ev(1, K::Park),
            ev(2, K::Park),
            ev(12, K::Wake),
            ev(13, K::Nack).band(2),
            ev(14, K::Nack).band(2),
            ev(27, K::Repair).node(0).dur(2),
        ];
        let report = TimeSeries::over(&events, 10, &[1]).unwrap();
        assert_eq!(report.queue_depth, vec![2, 1, 1]);
        assert_eq!(report.nacks, vec![0, 2, 0]);
        assert_eq!(report.repair_backlog, vec![0, 2, 1]);
    }

    #[test]
    fn report_is_order_independent() {
        let mut events = vec![
            ev(3, K::SessionOpen),
            ev(5, K::SendStart).node(0).dur(12),
            ev(17, K::Receive).node(2).dur(4),
            ev(6, K::Park),
            ev(17, K::Wake),
            ev(30, K::Admitted),
        ];
        let forward = TimeSeries::over(&events, 8, &[2, 1]).unwrap();
        events.reverse();
        let backward = TimeSeries::over(&events, 8, &[2, 1]).unwrap();
        assert_eq!(forward, backward);
        assert_eq!(forward.events, 6);
    }

    #[test]
    fn empty_stream_is_empty_but_nan_free() {
        let report = TimeSeries::over(&[], 100, &[4, 4]).unwrap();
        assert_eq!(report.buckets, 0);
        assert!(report.utilization.is_empty());
        assert_eq!(report.per_shard_utilization.len(), 2);
        assert_eq!(report.per_node_busy.len(), 8);
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn a_series_past_the_bound_is_refused_before_any_row_grows() {
        // Without the bound, either stream would ask for a dense row of
        // 2^52 or more counters: more address space than exists.
        let late = ev(u64::MAX - 10, K::SendStart).node(0).dur(5);
        let refused = TimeSeries::over(&[late], 4096, &[2]).unwrap_err();
        assert_eq!(refused.rows, 12);
        assert_eq!(refused.buckets, (u64::MAX - 6) / 4096 + 1);
        assert!(refused.to_string().contains("12 rows"));
        let last = ev(u64::MAX, K::Park);
        let refused = TimeSeries::over(&[ev(3, K::Park), last, ev(5, K::Wake)], 1, &[1]);
        assert_eq!(
            refused,
            Err(SeriesTooLarge {
                rows: 11,
                buckets: u64::MAX
            })
        );
        // The bound itself is accepted, one bucket more is not.
        let mut series = TimeSeries::new(1, 4096, 1);
        let rows = 9 + 1 + 4096;
        series.observe(&ev(MAX_SERIES_COUNTERS / rows - 1, K::Wake));
        assert_eq!(series.buckets as u64, MAX_SERIES_COUNTERS / rows);
        assert_eq!(series.refused, None);
        series.observe(&ev(MAX_SERIES_COUNTERS / rows, K::Wake));
        assert!(series.refused.is_some());
    }

    #[test]
    fn bucket_ends_and_sums_saturate_at_the_end_of_time() {
        // With a 2^63-tick window the second bucket ends at 2^64, one past
        // the clock.
        let window = 1 << 63;
        let events = [
            ev(u64::MAX - 10, K::SendStart).node(0).dur(5),
            ev(window - 2, K::Receive).node(1).dur(5), // 2 ticks in bucket 0, 3 in bucket 1
            ev(u64::MAX - 2, K::Repair).node(0).dur(10), // ends at the clock's last tick
        ];
        let report = TimeSeries::over(&events, window, &[2]).unwrap();
        assert_eq!(report.buckets, 2);
        assert_eq!(report.busy_ticks, vec![2, 10]);
        assert_eq!(report.per_node_busy, vec![vec![0, 7], vec![2, 3]]);
        assert_eq!(report.repair_backlog, vec![0, 0]);
        // Two ports busy for 2^63 ticks each in one bucket sum past the
        // clock: the sum saturates.
        let events = [
            ev(0, K::SendStart).node(0).dur(window),
            ev(0, K::Receive).node(1).dur(window),
        ];
        let report = TimeSeries::over(&events, u64::MAX, &[2]).unwrap();
        assert_eq!(report.busy_ticks, vec![u64::MAX]);
        assert_eq!(report.per_node_busy, vec![vec![window], vec![window]]);
    }
}
