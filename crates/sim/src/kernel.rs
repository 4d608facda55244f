//! The one occupancy kernel: the single discrete-event loop behind the
//! session pipeline's component simulation ([`crate::cluster`]) and the
//! single-schedule [`kernel_replay`](crate::perturb::kernel_replay).
//!
//! This module is the only event loop in the crate; every caller feeds it
//! [`SessionRuntime`]s and gets the identical occupancy semantics, so a
//! request vector produces the same report whichever engine serves it.
//!
//! # The tie-break rule
//!
//! Events are executed in ascending `(time, band, seq)` order:
//!
//! 1. **Band 0 — session openings.** A session's first claim (its source's
//!    first send) carries band 0 and its injection rank, so at any instant
//!    all newly arriving sessions open *before* every already-scheduled
//!    event of that instant, in request order. Arrivals are still injected
//!    lazily — a session enters the queue only once the clock reaches it —
//!    but the band makes lazy injection observationally identical to
//!    pre-loading every arrival up front.
//! 2. **Band 1 — scheduled events.** Everything else of the planned
//!    schedule (follow-up sends, message arrivals, receive claims, node
//!    wake-ups) executes in scheduling order: whichever event was pushed
//!    first wins a same-instant tie.
//! 3. **Band 2 — repair traffic.** NACKs and repair retransmissions (the
//!    fault model's recovery path, see below) carry band 2, so at any
//!    instant repair traffic yields the node to every same-instant claim
//!    of the original schedule. Loss can therefore only *add* events after
//!    the point of the first loss — a lossless [`LossProfile`] is
//!    event-for-event identical to running with no fault injection at all.
//! 4. **Deferred claims yield.** A message's delivery is recorded the
//!    instant it arrives, but its receive overhead re-enters the queue as a
//!    fresh band-1 event, so it loses same-instant ties against claims
//!    scheduled before the message landed. Likewise a parked claim woken by
//!    a node release re-enters with a fresh sequence number (in its own
//!    event's band, so a parked repair send keeps yielding to schedule
//!    traffic).
//! 5. **FIFO per node.** Claims finding a node busy park in that node's
//!    FIFO queue; every completed activity schedules a wake at its end
//!    which re-injects exactly one parked waiter (stale wakes — the node
//!    was re-claimed at the same instant — are dropped, because the
//!    claimant scheduled its own). Event count thus stays linear in the
//!    activity count even on a saturated node.
//!
//! The rule is pinned by an executable specification: the pre-unification
//! flat loop survives as a `#[cfg(test)]` reference in `sessions.rs`, and a
//! property test replays random contended traffic through both.
//!
//! # The event queue
//!
//! The rule is realised without comparing keys. Events due at the current
//! instant wait in three FIFOs, one per band, and a pop drains band 0, then
//! band 1, then band 2. Later events sit in 64 radix buckets: an event's
//! bucket is the highest bit in which its time differs from the current
//! instant, so every event in a lower bucket is earlier than every event in
//! a higher one. When the FIFOs run dry, the lowest non-empty bucket is
//! redistributed around its earliest time, which becomes the new instant.
//! Its events share every bit above the bucket's, so each moves to a lower
//! bucket or to a FIFO; an event moves down at most 64 times.
//!
//! The FIFOs and buckets are linked lists threaded through one slab of
//! entries: a push takes a free slot or appends one, redistribution
//! relinks slots without moving entries, and a pop frees its slot. The
//! queue's memory is therefore one vector as long as the queue has ever
//! been, grown by doubling as a binary heap's is. That keeps the
//! allocator steady: vectors per bucket, each growing on its own in the
//! middle of a run, varied from one run to the next how much of a large
//! workload's heap the allocator handed back to the system and then had
//! to fault in again.
//!
//! FIFO order is `seq` order. Bands 1 and 2 number their events from one
//! counter in push order, and band 0 by injection rank, so within one band
//! push order is `seq` order. Events of equal time always share a bucket,
//! buckets only append and redistribution is stable, so the events of an
//! instant reach their FIFOs in push order, and pushes at the current
//! instant append behind them.
//!
//! The queue is **monotone**: no push may land before the instant being
//! executed. Every push in the loop lands at `t`, `t + dur`,
//! `end + latency`, `t + delay` or `max(t, release)` after an event at `t`;
//! carried horizons are pushed before the first pop, and arrivals only once
//! due. A `debug_assert!` checks the precondition. Times that wrap past
//! `Time::MAX` in a release build break it; the queue then pops in a wrong
//! but finite order and still drops no event.
//!
//! # Loss and repair
//!
//! With a [`LossProfile`] the kernel injects message loss and runs
//! NACK-driven local repair:
//!
//! * **Loss.** Every delivery — original send or repair — draws from the
//!   [`LossProfile`], keyed by `(session, sender, receiver, attempt)` and
//!   never by event-processing order (the determinism contract; see
//!   [`crate::faults`]). A lost delivery still consumes the sender's full
//!   one-port send occupancy; only the receiver side never happens.
//! * **NACK.** The receiver detects the gap one network latency after the
//!   lost transmission and issues a NACK to its designated repairer
//!   ([`SessionRuntime`]'s repairer table, assigned by a
//!   [`hnow_core::RepairPlacement`] policy at admission; absent tables
//!   default to source-only). NACKs are control traffic and consume no
//!   node occupancy; the *retransmission* claims the repairer's one-port
//!   send occupancy exactly like a scheduled send, in band 2.
//! * **Backoff and bounded retries.** Retransmission `a` waits the
//!   profile's keyed exponential backoff; after `max_retries` lost
//!   retransmissions — or once the profile's optional `repair_deadline`
//!   elapses after the first miss, counting time spent queued on a busy
//!   repairer — the receiver **fails** and the session completes
//!   *partially* (graceful degradation): `pending` is discharged, the
//!   failure is counted, and the receiver's would-be children are told to
//!   request repair from their own repairers (escalating past failed ones,
//!   terminating at the source, which holds the payload from time zero).
//! * **Repairer readiness.** A repairer that has not yet completed its own
//!   reception parks incoming repair requests and replays them the moment
//!   it is reached (or hands them up the escalation chain if it fails),
//!   so repair can never deadlock on an unserved repairer.
//!
//! # Chunk trains
//!
//! A streaming session ([`SessionRuntime::chunks`] > 1) moves its payload
//! as a train of chunks over the *same* planned tree: every event carries
//! a chunk index, occupancy claims of different chunks contend for the one
//! port under the ordinary `(time, band, seq)` rule, and the fault model
//! keys each chunk's losses independently (chunk 0 keys exactly like the
//! atomic session). Two release disciplines exist:
//!
//! * **Pipelined** (the streaming default): the source opens chunk `c + 1`
//!   the moment its last send of chunk `c` finishes and the chunk's
//!   release time (`arrival + c·interval`) has passed. Consecutive chunks
//!   overlap down the tree like a software pipeline.
//! * **Sequential** (the one-shot re-send baseline): chunk `c + 1` opens
//!   only once chunk `c` has fully settled — received or given up on — at
//!   every member, and its release is due.
//!
//! Repair state is kept per `(chunk, node)`, so a failed or late chunk
//! degrades only itself; later chunks of the same receiver are unaffected.
//! A `chunks == 1` session takes none of these branches and is
//! event-for-event identical to the atomic path.

use crate::faults::LossProfile;
use crate::sessions::SessionRuntime;
use hnow_model::{NetParams, NodeSpec, Time};
use hnow_telemetry::{Recorder, TraceEvent, TraceEventKind as Kind};
use std::collections::VecDeque;

/// A discrete event of the occupancy simulation. "Claim" events ([`Send`],
/// [`Recv`], [`RepairSend`]) ask for node time and park in the node's FIFO
/// wait queue while it is busy.
///
/// [`Send`]: KernelEvent::Send
/// [`Recv`]: KernelEvent::Recv
/// [`RepairSend`]: KernelEvent::RepairSend
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelEvent {
    /// The session's tree node `local` wants to start its `child`-th send
    /// of chunk `chunk`.
    Send {
        local: usize,
        child: usize,
        chunk: u32,
    },
    /// Chunk `chunk` reaches tree node `local` (records delivery, then
    /// re-queues the receive claim per tie-break rule 4).
    Arrive { local: usize, chunk: u32 },
    /// Tree node `local` wants to start its receiving overhead for chunk
    /// `chunk`.
    Recv { local: usize, chunk: u32 },
    /// The node finished an activity; wake its next parked waiter.
    Free { node: usize },
    /// Tree node `local` missed chunk `chunk` and requests retransmission
    /// `attempt` from its repairer (band 2; control traffic, no occupancy).
    Nack {
        local: usize,
        attempt: u32,
        chunk: u32,
    },
    /// `local`'s repairer wants to start retransmission `attempt` of chunk
    /// `chunk` (band 2; claims the repairer's send occupancy).
    RepairSend {
        local: usize,
        attempt: u32,
        chunk: u32,
    },
}

impl KernelEvent {
    /// Tie-break band: repair traffic yields to the planned schedule.
    fn band(&self) -> u8 {
        match self {
            KernelEvent::Nack { .. } | KernelEvent::RepairSend { .. } => 2,
            _ => 1,
        }
    }

    /// Chunk index the event belongs to (0 for node wakes), for trace
    /// emission.
    fn chunk(&self) -> u32 {
        match self {
            KernelEvent::Send { chunk, .. }
            | KernelEvent::Arrive { chunk, .. }
            | KernelEvent::Recv { chunk, .. }
            | KernelEvent::Nack { chunk, .. }
            | KernelEvent::RepairSend { chunk, .. } => *chunk,
            KernelEvent::Free { .. } => 0,
        }
    }
}

/// A queued event: `(time, band, seq, session slot, event)`. The first
/// three fields are its execution order; `seq` is unique within a band.
type Entry = (Time, u8, u64, usize, KernelEvent);

/// The end of a [`List`].
const NIL: usize = usize::MAX;

/// A FIFO of slab slots, linked through each slot's successor.
#[derive(Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// The kernel's monotone radix event queue (see the module docs): pops
/// entries in ascending `(time, band, seq)` order as long as no entry is
/// pushed before the instant last popped. Every entry sits in one slab and
/// the FIFOs and buckets are lists threaded through it, so the queue's
/// memory is one buffer as long as the queue ever was.
struct RadixQueue {
    /// The current instant: the time of the last popped entry.
    now: Time,
    /// Queued entries, each with the slot of its successor in its list.
    slab: Vec<(Entry, usize)>,
    /// First slot of the stack of popped slots, linked through the same
    /// successor field and reused before the slab grows.
    free: usize,
    /// Entries due at `now`, one FIFO per band.
    due: [List; 3],
    /// Later entries: bucket `b` holds those whose time first differs from
    /// `now` in bit `b`.
    buckets: [List; 64],
    /// Earliest time in each bucket (`Time::MAX` when empty).
    mins: [Time; 64],
    /// Bit `b` is set when bucket `b` is non-empty.
    occupied: u64,
}

impl RadixQueue {
    /// An empty queue at instant zero; allocates nothing until pushed to.
    fn new() -> Self {
        RadixQueue {
            now: Time::ZERO,
            slab: Vec::new(),
            free: NIL,
            due: [List::EMPTY; 3],
            buckets: [List::EMPTY; 64],
            mins: [Time::MAX; 64],
            occupied: 0,
        }
    }

    fn push(&mut self, entry: Entry) {
        let slot = match self.free {
            NIL => {
                self.slab.push((entry, NIL));
                self.slab.len() - 1
            }
            slot => {
                self.free = self.slab[slot].1;
                self.slab[slot].0 = entry;
                slot
            }
        };
        self.file(slot);
    }

    /// Appends the entry in `slot` to the FIFO or bucket its time selects.
    fn file(&mut self, slot: usize) {
        let (time, band, ..) = self.slab[slot].0;
        debug_assert!(
            time >= self.now,
            "event at {time} pushed behind the current instant {}",
            self.now
        );
        let list = if time == self.now {
            &mut self.due[usize::from(band)]
        } else {
            let bucket = 63 - (time.raw() ^ self.now.raw()).leading_zeros() as usize;
            self.mins[bucket] = self.mins[bucket].min(time);
            self.occupied |= 1 << bucket;
            &mut self.buckets[bucket]
        };
        self.slab[slot].1 = NIL;
        match list.tail {
            NIL => list.head = slot,
            tail => self.slab[tail].1 = slot,
        }
        list.tail = slot;
    }

    /// Time of the entry the next [`Self::pop`] returns.
    fn min_time(&self) -> Option<Time> {
        if self.due.iter().any(|fifo| fifo.head != NIL) {
            Some(self.now)
        } else if self.occupied != 0 {
            Some(self.mins[self.occupied.trailing_zeros() as usize])
        } else {
            None
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        loop {
            if let Some(fifo) = self.due.iter_mut().find(|fifo| fifo.head != NIL) {
                let slot = fifo.head;
                let (entry, next) = self.slab[slot];
                fifo.head = next;
                if next == NIL {
                    fifo.tail = NIL;
                }
                self.slab[slot].1 = self.free;
                self.free = slot;
                return Some(entry);
            }
            if self.occupied == 0 {
                return None;
            }
            // Advance to the lowest bucket's earliest time; redistributing
            // the bucket puts at least that entry into a FIFO.
            let lowest = self.occupied.trailing_zeros() as usize;
            self.now = std::mem::replace(&mut self.mins[lowest], Time::MAX);
            self.occupied &= !(1 << lowest);
            let mut slot = std::mem::replace(&mut self.buckets[lowest], List::EMPTY).head;
            while slot != NIL {
                let next = self.slab[slot].1;
                self.file(slot);
                slot = next;
            }
        }
    }
}

/// The fault-model session key of one chunk. Chunk 0 keys exactly like the
/// atomic session — so a `chunks == 1` run draws bit-identical losses to
/// the unchunked path — while every later chunk mixes its index in, giving
/// each chunk of a train an independent (but still seeded and
/// order-independent) loss pattern.
fn fault_id(session_id: u64, chunk: u32) -> u64 {
    if chunk == 0 {
        session_id
    } else {
        session_id ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(chunk))
    }
}

/// Repair progress of one `(chunk, node)` slot.
#[derive(Clone, Copy)]
enum RepairSlot {
    /// Reception not yet completed (the initial state of every non-source
    /// node), with the instant the node first learned it missed a delivery.
    Pending(Option<Time>),
    /// Reception completed; the node can serve as a repairer.
    Reached,
    /// Retries exhausted; the node is given up on.
    Failed,
}

/// Per-session repair bookkeeping, allocated only for faulted runs. Each
/// chunk of a streaming session runs its own independent repair state over
/// the same tree, so a late repair degrades only that chunk.
struct RepairState {
    /// Tree size: the stride of the `(chunk, node)` index.
    nodes: usize,
    /// One record per `(chunk, node)`, indexed by [`Self::idx`].
    slots: Vec<RepairSlot>,
    /// Repair requests parked on a repairer not yet reached, as
    /// `(repairer's slot index, requesting node, attempt)` in park order.
    parked: Vec<(usize, usize, u32)>,
}

impl RepairState {
    fn new(nodes: usize, chunks: u32) -> Self {
        let mut slots = vec![RepairSlot::Pending(None); nodes * chunks as usize];
        for chunk in 0..chunks as usize {
            // The source holds every chunk from its release.
            slots[chunk * nodes] = RepairSlot::Reached;
        }
        RepairState {
            nodes,
            slots,
            parked: Vec::new(),
        }
    }

    /// Dense `(chunk, node)` index.
    fn idx(&self, chunk: u32, local: usize) -> usize {
        chunk as usize * self.nodes + local
    }

    /// Removes the requests parked on slot `at` and hands each to `replay`
    /// as `(requesting node, attempt)`, in park order.
    fn unpark(&mut self, at: usize, mut replay: impl FnMut(usize, u32)) {
        self.parked.retain(|&(slot, local, attempt)| {
            if slot != at {
                return true;
            }
            replay(local, attempt);
            false
        });
    }
}

/// Per-node state carried across epoch-synchronous kernel runs: the busy
/// time accumulated by this run (the utilization numerator) and each
/// node's busy horizon at the end of it (the next epoch's carry-in).
pub(crate) struct CarryOut {
    pub(crate) busy_time: Vec<u64>,
    pub(crate) busy_until: Vec<Time>,
}

/// Runs every session to completion against shared per-node busy state and
/// returns the accumulated busy time per node (the utilization numerator).
///
/// `specs` defines the node id space: `node_map` entries in `sessions`
/// index into it. The pipeline passes one contact component's nodes
/// compacted to a dense range.
/// `sessions` must be in request order — the slice position is the
/// tie-break identity of rule 1, so two callers handing the kernel the same
/// sessions in the same order get byte-identical outcomes regardless of how
/// the surrounding work was partitioned or threaded. `loss` switches on
/// message loss and NACK-driven repair (see the module docs).
pub(crate) fn simulate(
    specs: &[NodeSpec],
    net: NetParams,
    sessions: &mut [SessionRuntime],
    loss: Option<&LossProfile>,
    trace: Option<&Recorder<'_>>,
) -> Vec<u64> {
    let idle = vec![Time::ZERO; specs.len()];
    simulate_from(specs, net, sessions, &idle, loss, trace).busy_time
}

/// [`simulate`] with carried-in busy state: `busy0[node]` is the node's
/// busy horizon at the start of this run (the control loop's
/// epoch-synchronous carry). Each carried-busy node gets one initial
/// band-1 `Free` wake at its horizon — before any injection, in ascending
/// node order — so claims parking behind carried work are woken exactly
/// like claims parking behind this run's own activities. An all-`ZERO`
/// carry reproduces [`simulate`] event for event.
pub(crate) fn simulate_from(
    specs: &[NodeSpec],
    net: NetParams,
    sessions: &mut [SessionRuntime],
    busy0: &[Time],
    loss: Option<&LossProfile>,
    trace: Option<&Recorder<'_>>,
) -> CarryOut {
    run(specs, net, sessions, busy0, loss, None, trace)
}

/// [`simulate`] with a full activity log: every occupancy interval the run
/// charged, as `(node, start, end)` in charge order. Test instrumentation
/// for the one-port property (`validate::check_one_port`).
#[cfg(test)]
pub(crate) fn simulate_logged(
    specs: &[NodeSpec],
    net: NetParams,
    sessions: &mut [SessionRuntime],
    loss: Option<&LossProfile>,
) -> (Vec<u64>, Vec<(usize, Time, Time)>) {
    let idle = vec![Time::ZERO; specs.len()];
    let mut log = Vec::new();
    let carry = run(specs, net, sessions, &idle, loss, Some(&mut log), None);
    (carry.busy_time, log)
}

/// The event loop. `log`, when present, records every charged occupancy
/// interval; `trace`, when present, receives a structured [`TraceEvent`]
/// at every instrumented instant (session openings, send start/finish,
/// receives, park/wake pairs, NACKs, repair transmissions, chunk
/// releases, abandonments). Tracing is observation only — no emission
/// site reads the recorder back — so an attached recorder cannot perturb
/// the event order, and a `None` recorder costs one predictable branch
/// per site.
fn run(
    specs: &[NodeSpec],
    net: NetParams,
    sessions: &mut [SessionRuntime],
    busy0: &[Time],
    loss: Option<&LossProfile>,
    mut log: Option<&mut Vec<(usize, Time, Time)>>,
    trace: Option<&Recorder<'_>>,
) -> CarryOut {
    let n = specs.len();
    debug_assert_eq!(busy0.len(), n);
    // A lossless profile draws no losses, so skipping the fault path
    // entirely makes "rate 0 equals no injection" structural rather than
    // statistical.
    let loss = loss.filter(|profile| !profile.is_lossless());
    let mut busy_until = busy0.to_vec();
    let mut busy_time = vec![0u64; n];
    let mut waiting: Vec<VecDeque<(usize, KernelEvent)>> = vec![VecDeque::new(); n];
    let mut queue = RadixQueue::new();
    let mut seq = 0u64;
    let mut repair: Vec<RepairState> = match loss {
        Some(_) => sessions
            .iter()
            .map(|session| RepairState::new(session.node_map.len(), session.chunks))
            .collect(),
        None => Vec::new(),
    };

    // Lazy injection order: by arrival, ties by slot (= request order).
    let mut order: Vec<usize> = (0..sessions.len()).collect();
    order.sort_by_key(|&slot| (sessions[slot].arrival, slot));
    let mut next_inject = 0usize;

    // Session ids by slot, so wake emissions can name the woken session
    // while another session holds the `&mut sessions` borrow. Only traced
    // runs pay for the table.
    let ids: Vec<u64> = match trace {
        Some(_) => sessions.iter().map(|session| session.id).collect(),
        None => Vec::new(),
    };

    macro_rules! push {
        ($time:expr, $slot:expr, $event:expr) => {{
            let event = $event;
            queue.push(($time, event.band(), seq, $slot, event));
            seq += 1;
        }};
    }

    macro_rules! trace_ev {
        ($ev:expr) => {
            if let Some(recorder) = trace {
                recorder.emit($ev);
            }
        };
    }

    // Gives receiver `$local` of the session in `$slot` up on chunk
    // `$chunk` at time `$t`: graceful degradation shared by retry
    // exhaustion and repair-deadline expiry. The would-be children are
    // pointed at their own repairers and requests parked on the failed
    // node escalate. Streaming bookkeeping mirrors the receive path, so a
    // lost cause still advances a sequential chunk train.
    macro_rules! give_up {
        ($state:expr, $session:expr, $slot:expr, $local:expr, $chunk:expr, $t:expr) => {{
            let at = $state.idx($chunk, $local);
            $state.slots[at] = RepairSlot::Failed;
            $session.pending -= 1;
            $session.failed_members += 1;
            trace_ev!(TraceEvent::new($t.raw(), Kind::Abandon, $session.id)
                .node($session.node_map[$local])
                .band(2)
                .chunk($chunk));
            for child in 0..$session.children[$local].len() {
                let c = $session.children[$local][child];
                push!(
                    $t + net.latency(),
                    $slot,
                    KernelEvent::Nack {
                        local: c,
                        attempt: 1,
                        chunk: $chunk,
                    }
                );
            }
            $state.unpark(at, |target, attempt| {
                push!(
                    $t,
                    $slot,
                    KernelEvent::RepairSend {
                        local: target,
                        attempt,
                        chunk: $chunk,
                    }
                )
            });
            if $session.chunks > 1 {
                let c = $chunk as usize;
                $session.chunk_pending[c] -= 1;
                if $session.chunk_pending[c] == 0
                    && !$session.pipelined
                    && $chunk + 1 < $session.chunks
                {
                    let release =
                        $session.arrival + $session.chunk_interval * (u64::from($chunk) + 1);
                    trace_ev!(TraceEvent::new(
                        $t.max(release).raw(),
                        Kind::ChunkRelease,
                        $session.id
                    )
                    .node($session.node_map[0])
                    .band(1)
                    .chunk($chunk + 1)
                    .seq(seq));
                    push!(
                        $t.max(release),
                        $slot,
                        KernelEvent::Send {
                            local: 0,
                            child: 0,
                            chunk: $chunk + 1,
                        }
                    );
                }
            }
        }};
    }

    // Arm one wake per carried-busy node (the slot field is meaningless
    // for Free events).
    for (node, &until) in busy_until.iter().enumerate() {
        if until > Time::ZERO {
            push!(until, 0, KernelEvent::Free { node });
        }
    }

    loop {
        // Admit sessions whose arrival is due. Popped times are
        // nondecreasing and `order` ascends by arrival, so every arrival
        // ≤ the current front is injected before anything at that instant
        // executes; band 0 then lets it open first (rule 1).
        while next_inject < order.len() {
            let slot = order[next_inject];
            let arrival = sessions[slot].arrival;
            if queue.min_time().is_some_and(|t| arrival > t) {
                break;
            }
            if !sessions[slot].children[0].is_empty() {
                trace_ev!(
                    TraceEvent::new(arrival.raw(), Kind::SessionOpen, sessions[slot].id)
                        .node(sessions[slot].node_map[0])
                        .seq(next_inject as u64)
                );
                queue.push((
                    arrival,
                    0,
                    next_inject as u64,
                    slot,
                    KernelEvent::Send {
                        local: 0,
                        child: 0,
                        chunk: 0,
                    },
                ));
            }
            next_inject += 1;
        }
        let Some((t, _, eseq, slot, event)) = queue.pop() else {
            break;
        };

        if let KernelEvent::Free { node } = event {
            // Obsolete when a same-instant event already re-claimed the
            // node; the claimant scheduled its own wake (rule 5).
            if busy_until[node] <= t {
                if let Some((waiter, parked)) = waiting[node].pop_front() {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Wake, ids[waiter])
                        .node(node)
                        .band(parked.band())
                        .chunk(parked.chunk())
                        .seq(seq));
                    push!(t, waiter, parked);
                }
            }
            continue;
        }

        let session = &mut sessions[slot];
        // A popped claim always belongs to a live session: a session can
        // only abandon at its first-ever claim (`started` is still `None`),
        // and until that claim executes it is the session's *only* event —
        // nothing else of the session is queued or parked, and the
        // abandon path schedules nothing. So no event of an abandoned
        // session can surface here. Checked rather than silently skipped:
        // were this reachable, a popped claim on a free node would have to
        // pass the node to the next parked waiter or risk starvation.
        debug_assert!(
            !session.abandoned,
            "event popped for abandoned session in slot {slot}"
        );
        if session.abandoned {
            continue;
        }
        match event {
            KernelEvent::Send {
                local,
                child,
                chunk,
            } => {
                let node = session.node_map[local];
                if busy_until[node] > t {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Park, session.id)
                        .node(node)
                        .band(event.band())
                        .chunk(chunk)
                        .seq(eseq));
                    waiting[node].push_back((slot, event));
                    continue;
                }
                if session.started.is_none() {
                    // First activity of the session: the churn gate.
                    if session.deadline.is_some_and(|d| t > d) {
                        session.abandoned = true;
                        trace_ev!(TraceEvent::new(t.raw(), Kind::Abandon, session.id)
                            .node(node)
                            .band(1)
                            .chunk(chunk));
                        // The session declined a free node; pass it on so
                        // parked waiters never starve (no wake is pending
                        // for this idle node).
                        if let Some((waiter, parked)) = waiting[node].pop_front() {
                            trace_ev!(TraceEvent::new(t.raw(), Kind::Wake, ids[waiter])
                                .node(node)
                                .band(parked.band())
                                .chunk(parked.chunk())
                                .seq(seq));
                            push!(t, waiter, parked);
                        }
                        continue;
                    }
                    session.started = Some(t);
                }
                let dur = specs[node].send();
                let end = t + dur;
                busy_until[node] = end;
                busy_time[node] += dur.raw();
                if let Some(log) = log.as_deref_mut() {
                    log.push((node, t, end));
                }
                trace_ev!(TraceEvent::new(t.raw(), Kind::SendStart, session.id)
                    .node(node)
                    .band(1)
                    .chunk(chunk)
                    .seq(eseq)
                    .dur(dur.raw()));
                trace_ev!(TraceEvent::new(end.raw(), Kind::SendFinish, session.id)
                    .node(node)
                    .band(1)
                    .chunk(chunk)
                    .seq(eseq));
                let target = session.children[local][child];
                // A lost delivery consumed the sender's occupancy all the
                // same; the receiver detects the gap one latency later
                // (when the delivery would have landed) and NACKs.
                let lost = loss.is_some_and(|profile| {
                    profile.lost(fault_id(session.id, chunk), local, target, 0, t)
                });
                if lost {
                    push!(
                        end + net.latency(),
                        slot,
                        KernelEvent::Nack {
                            local: target,
                            attempt: 1,
                            chunk,
                        }
                    );
                } else {
                    push!(
                        end + net.latency(),
                        slot,
                        KernelEvent::Arrive {
                            local: target,
                            chunk,
                        }
                    );
                }
                if child + 1 < session.children[local].len() {
                    push!(
                        end,
                        slot,
                        KernelEvent::Send {
                            local,
                            child: child + 1,
                            chunk,
                        }
                    );
                } else if local == 0 && session.pipelined && chunk + 1 < session.chunks {
                    // Pipelined train: the source opens the next chunk the
                    // moment its port is free and the chunk is released —
                    // relays downstream are still draining this one.
                    let release = session.arrival + session.chunk_interval * (u64::from(chunk) + 1);
                    trace_ev!(TraceEvent::new(
                        end.max(release).raw(),
                        Kind::ChunkRelease,
                        session.id
                    )
                    .node(node)
                    .band(1)
                    .chunk(chunk + 1)
                    .seq(seq));
                    push!(
                        end.max(release),
                        slot,
                        KernelEvent::Send {
                            local: 0,
                            child: 0,
                            chunk: chunk + 1,
                        }
                    );
                }
                push!(end, slot, KernelEvent::Free { node });
            }
            KernelEvent::Arrive { local, chunk } => {
                // Delivery is the message hitting the node, busy or not;
                // the receive overhead queues for node time separately
                // (rule 4).
                session.delivered_at = session.delivered_at.max(t);
                push!(t, slot, KernelEvent::Recv { local, chunk });
            }
            KernelEvent::Recv { local, chunk } => {
                let node = session.node_map[local];
                if busy_until[node] > t {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Park, session.id)
                        .node(node)
                        .band(event.band())
                        .chunk(chunk)
                        .seq(eseq));
                    waiting[node].push_back((slot, event));
                    continue;
                }
                let dur = specs[node].recv();
                let end = t + dur;
                busy_until[node] = end;
                busy_time[node] += dur.raw();
                if let Some(log) = log.as_deref_mut() {
                    log.push((node, t, end));
                }
                trace_ev!(TraceEvent::new(t.raw(), Kind::Receive, session.id)
                    .node(node)
                    .band(1)
                    .chunk(chunk)
                    .seq(eseq)
                    .dur(dur.raw()));
                session.pending -= 1;
                session.completed_at = session.completed_at.max(end);
                if !repair.is_empty() {
                    let state = &mut repair[slot];
                    let at = state.idx(chunk, local);
                    if let RepairSlot::Pending(Some(first_missed)) = state.slots[at] {
                        session
                            .repair_delays
                            .push(end.saturating_sub(first_missed).raw());
                    }
                    state.slots[at] = RepairSlot::Reached;
                    // The node holds the chunk now: replay every repair
                    // request that was waiting for it.
                    state.unpark(at, |target, attempt| {
                        push!(
                            end,
                            slot,
                            KernelEvent::RepairSend {
                                local: target,
                                attempt,
                                chunk,
                            }
                        )
                    });
                }
                if session.chunks > 1 {
                    let c = chunk as usize;
                    session.chunk_pending[c] -= 1;
                    session.chunk_completed_at[c] = session.chunk_completed_at[c].max(end);
                    if session.chunk_pending[c] == 0
                        && !session.pipelined
                        && chunk + 1 < session.chunks
                    {
                        // Sequential train (the one-shot re-send baseline):
                        // the next chunk only opens once this one has fully
                        // settled at every member and its release is due.
                        let release =
                            session.arrival + session.chunk_interval * (u64::from(chunk) + 1);
                        trace_ev!(TraceEvent::new(
                            end.max(release).raw(),
                            Kind::ChunkRelease,
                            session.id
                        )
                        .node(session.node_map[0])
                        .band(1)
                        .chunk(chunk + 1)
                        .seq(seq));
                        push!(
                            end.max(release),
                            slot,
                            KernelEvent::Send {
                                local: 0,
                                child: 0,
                                chunk: chunk + 1,
                            }
                        );
                    }
                }
                if !session.children[local].is_empty() {
                    push!(
                        end,
                        slot,
                        KernelEvent::Send {
                            local,
                            child: 0,
                            chunk,
                        }
                    );
                }
                push!(end, slot, KernelEvent::Free { node });
            }
            KernelEvent::Nack {
                local,
                attempt,
                chunk,
            } => {
                let profile = loss.expect("repair events only exist in faulted runs");
                let state = &mut repair[slot];
                let at = state.idx(chunk, local);
                let RepairSlot::Pending(missed) = &mut state.slots[at] else {
                    continue;
                };
                let first_missed = *missed.get_or_insert(t);
                let expired = profile
                    .repair_deadline
                    .is_some_and(|d| t.raw() > first_missed.raw().saturating_add(d));
                if attempt > profile.max_retries || expired {
                    // Retries exhausted or recovery-liveness bound blown:
                    // the session completes partially.
                    give_up!(state, session, slot, local, chunk, t);
                    continue;
                }
                session.nacks += 1;
                trace_ev!(TraceEvent::new(t.raw(), Kind::Nack, session.id)
                    .node(session.node_map[local])
                    .band(2)
                    .chunk(chunk)
                    .seq(eseq));
                let delay = profile.retry_delay(fault_id(session.id, chunk), local, attempt);
                push!(
                    t + Time::new(delay),
                    slot,
                    KernelEvent::RepairSend {
                        local,
                        attempt,
                        chunk,
                    }
                );
            }
            KernelEvent::RepairSend {
                local,
                attempt,
                chunk,
            } => {
                let profile = loss.expect("repair events only exist in faulted runs");
                let state = &mut repair[slot];
                let at = state.idx(chunk, local);
                let RepairSlot::Pending(missed) = state.slots[at] else {
                    continue;
                };
                let first_missed = missed.expect("set by the NACK that scheduled this repair");
                // Resolve the repairer, escalating past failed ones; every
                // placement walks strictly upstream and the source is
                // always `Reached` (it holds every chunk from release), so
                // this terminates.
                let repairer_of = |v: usize| session.repairer.as_ref().map_or(0, |table| table[v]);
                let mut rp = repairer_of(local);
                while matches!(state.slots[state.idx(chunk, rp)], RepairSlot::Failed) {
                    rp = repairer_of(rp);
                }
                let park = state.idx(chunk, rp);
                if matches!(state.slots[park], RepairSlot::Pending(_)) {
                    // The repairer has not been served this chunk yet
                    // itself; park the request — its reception (or
                    // failure) replays it.
                    state.parked.push((park, local, attempt));
                    continue;
                }
                let node = session.node_map[rp];
                if busy_until[node] > t {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Park, session.id)
                        .node(node)
                        .band(event.band())
                        .chunk(chunk)
                        .seq(eseq));
                    waiting[node].push_back((slot, event));
                    continue;
                }
                // The deadline is checked at the moment the claim holds a
                // free port, so the queueing delay accrued in a congested
                // repairer's FIFO counts against the recovery bound: a
                // retransmission that waited it out is abandoned, not sent.
                // The declined node is passed on like the churn gate does,
                // so parked waiters never starve.
                if profile
                    .repair_deadline
                    .is_some_and(|d| t.raw() > first_missed.raw().saturating_add(d))
                {
                    give_up!(state, session, slot, local, chunk, t);
                    if let Some((waiter, parked)) = waiting[node].pop_front() {
                        trace_ev!(TraceEvent::new(t.raw(), Kind::Wake, ids[waiter])
                            .node(node)
                            .band(parked.band())
                            .chunk(parked.chunk())
                            .seq(seq));
                        push!(t, waiter, parked);
                    }
                    continue;
                }
                let dur = specs[node].send();
                let end = t + dur;
                busy_until[node] = end;
                busy_time[node] += dur.raw();
                if let Some(log) = log.as_deref_mut() {
                    log.push((node, t, end));
                }
                trace_ev!(TraceEvent::new(t.raw(), Kind::Repair, session.id)
                    .node(node)
                    .band(2)
                    .chunk(chunk)
                    .seq(eseq)
                    .dur(dur.raw()));
                session.repair_sends += 1;
                let lost = profile.lost(fault_id(session.id, chunk), rp, local, attempt, t);
                if lost {
                    push!(
                        end + net.latency(),
                        slot,
                        KernelEvent::Nack {
                            local,
                            attempt: attempt + 1,
                            chunk,
                        }
                    );
                } else {
                    push!(
                        end + net.latency(),
                        slot,
                        KernelEvent::Arrive { local, chunk }
                    );
                }
                push!(end, slot, KernelEvent::Free { node });
            }
            KernelEvent::Free { .. } => unreachable!("handled before the session borrow"),
        }
    }
    debug_assert!(sessions
        .iter()
        .all(|session| session.abandoned || session.pending == 0));
    CarryOut {
        busy_time,
        busy_until,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Ticks from `now` to the next push: zero (the current instant) a
    /// third of the time, otherwise 1 tick to past 2⁶³, mostly short,
    /// capped so the time stays representable.
    fn gap(rng: &mut StdRng, now: u64) -> u64 {
        if rng.gen_range(0..3) == 0 {
            return 0;
        }
        let bits: u32 = match rng.gen_range(0..10) {
            0..=5 => rng.gen_range(1..=8),
            6..=8 => rng.gen_range(9..=32),
            _ => rng.gen_range(33..=64),
        };
        let gap = rng.next_u64() >> (64 - bits) | 1 << (bits - 1);
        gap.min(u64::MAX - now)
    }

    #[test]
    fn radix_queue_pops_in_binary_heap_order() {
        for seed in 1..=4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Even seeds start near the top of the time range.
            let start = if seed % 2 == 0 {
                u64::MAX - (1 << 20)
            } else {
                0
            };
            let mut queue = RadixQueue::new();
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq, mut rank) = (start, 0u64, 0u64);
            let (mut pops, mut peeks) = (0, 0);
            for _ in 0..120_000 {
                match rng.gen_range(0..20) {
                    0..=8 => {
                        let band = rng.gen_range(0..3u8);
                        // Band 0 numbers its pushes from a counter of its
                        // own, as the kernel numbers openings by rank.
                        let counter = if band == 0 { &mut rank } else { &mut seq };
                        *counter += 1;
                        let time = Time::new(now + gap(&mut rng, now));
                        let event = KernelEvent::Free { node: 0 };
                        queue.push((time, band, *counter, 0, event));
                        heap.push(Reverse((time, band, *counter)));
                    }
                    9 => {
                        let peek = heap.peek().map(|&Reverse((time, ..))| time);
                        assert_eq!(queue.min_time(), peek, "seed {seed}");
                        peeks += 1;
                    }
                    _ => {
                        let popped = queue.pop().map(|(time, band, seq, ..)| (time, band, seq));
                        assert_eq!(popped, heap.pop().map(|Reverse(key)| key), "seed {seed}");
                        match popped {
                            Some((time, ..)) => {
                                now = time.raw();
                                pops += 1;
                            }
                            // Drained near the top of the range: start a
                            // fresh queue, as the next kernel run would.
                            None if now > u64::MAX - (1 << 24) => {
                                queue = RadixQueue::new();
                                now = start;
                            }
                            None => {}
                        }
                    }
                }
            }
            while let Some(Reverse(key)) = heap.pop() {
                let popped = queue.pop().map(|(time, band, seq, ..)| (time, band, seq));
                assert_eq!(popped, Some(key), "seed {seed}");
            }
            assert!(queue.pop().is_none());
            assert!(pops > 40_000 && peeks > 4_000, "seed {seed}: {pops} pops");
        }
    }
}
