//! Structured trace events, the sink trait they flow into, and the
//! [`Recorder`] handle the simulator emits through.

use std::sync::Mutex;

/// What happened at a traced instant of the simulation.
///
/// The first ten kinds are emitted by the occupancy kernel; the last three
/// are admission decisions emitted by the sharded control plane (stamped
/// with the session's arrival time). Variant order is the deterministic
/// tie-break rank used when exporting a stream, so it is part of the
/// crate's stability surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEventKind {
    /// A session's first chunk entered the kernel's event queue (band 0,
    /// injection rank as sequence number).
    SessionOpen,
    /// A sender port went busy transmitting one chunk to one child;
    /// [`TraceEvent::dur`] is the occupancy length.
    SendStart,
    /// The sender port went idle again (the message is now in flight).
    SendFinish,
    /// A receiver port went busy absorbing a delivered chunk;
    /// [`TraceEvent::dur`] is the occupancy length.
    Receive,
    /// A claim found its node busy and joined that node's FIFO park queue.
    Park,
    /// A parked claim was popped (node freed, or passed on by an
    /// abandoning claim) and re-entered the event queue.
    Wake,
    /// A receiver missed a chunk and scheduled a NACK to its repairer.
    Nack,
    /// A repairer port went busy retransmitting a missed chunk;
    /// [`TraceEvent::dur`] is the occupancy length.
    Repair,
    /// A streaming session released its next chunk into the train.
    ChunkRelease,
    /// A session gave up: churn patience or repair deadline exceeded.
    Abandon,
    /// The control plane admitted a session in arrival order.
    Admitted,
    /// The control plane admitted a session ahead of earlier arrivals.
    Reordered,
    /// The control plane shed a session without starting it.
    Shed,
}

impl TraceEventKind {
    /// Short lower-case label used by the Chrome exporter.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::SessionOpen => "session_open",
            TraceEventKind::SendStart => "send",
            TraceEventKind::SendFinish => "send_finish",
            TraceEventKind::Receive => "receive",
            TraceEventKind::Park => "park",
            TraceEventKind::Wake => "wake",
            TraceEventKind::Nack => "nack",
            TraceEventKind::Repair => "repair",
            TraceEventKind::ChunkRelease => "chunk_release",
            TraceEventKind::Abandon => "abandon",
            TraceEventKind::Admitted => "admitted",
            TraceEventKind::Reordered => "reordered",
            TraceEventKind::Shed => "shed",
        }
    }

    /// Deterministic tie-break rank (declaration order).
    pub(crate) fn rank(self) -> u8 {
        self as u8
    }

    /// Whether events of this kind occupy a node port for
    /// [`TraceEvent::dur`] ticks.
    pub fn is_occupancy(self) -> bool {
        matches!(
            self,
            TraceEventKind::SendStart | TraceEventKind::Receive | TraceEventKind::Repair
        )
    }
}

/// One sim-time-stamped structured record out of the simulator.
///
/// Times are raw sim ticks; `node` is a global node id once the emitting
/// [`Recorder`] has applied its dense→global remap, and `shard` is filled
/// in by the recorder's shard map when one is attached (flat runs leave it
/// `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim tick the event happened at.
    pub time: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Session id the event belongs to.
    pub session: u64,
    /// Global node id, when the event is tied to a port.
    pub node: Option<usize>,
    /// Shard owning [`TraceEvent::node`], when a shard map is attached.
    pub shard: Option<usize>,
    /// Scheduling band of the kernel queue entry that produced the event
    /// (0 = session opening, 1 = planned traffic, 2 = NACK/repair).
    pub band: u8,
    /// Chunk index within the session's train (0 for atomic sessions).
    pub chunk: u32,
    /// Sequence number of the kernel queue entry that produced the event.
    pub seq: u64,
    /// Port occupancy length for occupancy kinds, 0 otherwise.
    pub dur: u64,
}

impl TraceEvent {
    /// A minimal event: everything beyond `(time, kind, session)` defaults
    /// to "not applicable" and is filled in with the builder methods.
    pub fn new(time: u64, kind: TraceEventKind, session: u64) -> Self {
        TraceEvent {
            time,
            kind,
            session,
            node: None,
            shard: None,
            band: 0,
            chunk: 0,
            seq: 0,
            dur: 0,
        }
    }

    /// Ties the event to a node port (dense id at emission time; the
    /// recorder remaps it to the global id).
    pub fn node(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Stamps the scheduling band.
    pub fn band(mut self, band: u8) -> Self {
        self.band = band;
        self
    }

    /// Stamps the chunk index.
    pub fn chunk(mut self, chunk: u32) -> Self {
        self.chunk = chunk;
        self
    }

    /// Stamps the queue sequence number.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Stamps the occupancy duration.
    pub fn dur(mut self, dur: u64) -> Self {
        self.dur = dur;
        self
    }
}

/// Where trace events go. Implementations must tolerate concurrent calls:
/// component simulations record from rayon worker threads.
pub trait TraceSink: Send + Sync {
    /// Accepts one event. Must not block on the caller's progress.
    fn record(&self, ev: &TraceEvent);
}

/// The bundled emission handle the simulator threads through the kernel:
/// a fan-out over one or two sinks plus the dense→global node remap and
/// global→shard map of the emitting component.
///
/// Emission sites cost one `Option<&Recorder>` branch when tracing is
/// disabled — the kernel never constructs an event unless a recorder is
/// attached.
pub struct Recorder<'a> {
    sinks: Vec<&'a dyn TraceSink>,
    nodes: Option<&'a [usize]>,
    shard_of: Option<&'a [usize]>,
}

impl<'a> Recorder<'a> {
    /// A recorder feeding a single sink, with identity node mapping.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Recorder {
            sinks: vec![sink],
            nodes: None,
            shard_of: None,
        }
    }

    /// A recorder duplicating every event into each of `sinks`.
    pub fn fanout(sinks: Vec<&'a dyn TraceSink>) -> Self {
        Recorder {
            sinks,
            nodes: None,
            shard_of: None,
        }
    }

    /// Attaches a dense→global node remap: an emitted `node(i)` becomes
    /// `nodes[i]` before reaching the sinks. Component simulations over a
    /// dense node subset use this so traces always carry global ids.
    pub fn with_node_map(mut self, nodes: &'a [usize]) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Attaches a global→shard map: events tied to a node gain its shard.
    pub fn with_shards(mut self, shard_of: &'a [usize]) -> Self {
        self.shard_of = Some(shard_of);
        self
    }

    /// Remaps and records one event into every sink.
    pub fn emit(&self, mut ev: TraceEvent) {
        if let (Some(map), Some(local)) = (self.nodes, ev.node) {
            ev.node = Some(map[local]);
        }
        if let (Some(shard_of), Some(node)) = (self.shard_of, ev.node) {
            ev.shard = Some(shard_of[node]);
        }
        for sink in &self.sinks {
            sink.record(&ev);
        }
    }
}

/// An in-memory sink: a mutex around a growable event buffer. The mutex is
/// uncontended in flat runs and held for one push in sharded ones; each
/// worker's own emission order is preserved, which is what the per-node
/// FIFO replay in [`check_invariants`](crate::check_invariants) relies on.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Copies out everything recorded so far, leaving the buffer intact.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, ev: &TraceEvent) {
        self.events.lock().unwrap().push(*ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_remaps_dense_nodes_and_assigns_shards() {
        let sink = MemorySink::new();
        let dense_to_global = [7usize, 3];
        let shard_of = [0usize, 0, 0, 1, 0, 0, 0, 2];
        let rec = Recorder::new(&sink)
            .with_node_map(&dense_to_global)
            .with_shards(&shard_of);
        rec.emit(
            TraceEvent::new(5, TraceEventKind::SendStart, 42)
                .node(0)
                .dur(3),
        );
        rec.emit(
            TraceEvent::new(9, TraceEventKind::Receive, 42)
                .node(1)
                .dur(2),
        );
        rec.emit(TraceEvent::new(9, TraceEventKind::Abandon, 42));
        let events = sink.take();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].node, Some(7));
        assert_eq!(events[0].shard, Some(2));
        assert_eq!(events[1].node, Some(3));
        assert_eq!(events[1].shard, Some(1));
        assert_eq!(events[2].node, None);
        assert_eq!(events[2].shard, None);
        assert!(sink.is_empty());
    }

    #[test]
    fn fanout_duplicates_into_every_sink() {
        let a = MemorySink::new();
        let b = MemorySink::new();
        let rec = Recorder::fanout(vec![&a, &b]);
        rec.emit(
            TraceEvent::new(1, TraceEventKind::Nack, 7)
                .band(2)
                .chunk(3)
                .seq(11),
        );
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.len(), 1);
        assert_eq!(a.snapshot()[0].band, 2);
    }
}
