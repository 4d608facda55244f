//! The one occupancy kernel: the single discrete-event loop behind the
//! session pipeline's component simulation ([`crate::cluster`]) and the
//! single-schedule [`kernel_replay`](crate::perturb::kernel_replay).
//!
//! This module is the only event loop in the crate; every caller feeds it
//! [`SessionRuntime`]s and gets the identical occupancy semantics, so a
//! request vector produces the same report whichever engine serves it. The
//! loop itself runs on the kernel's own dense copy of the sessions (see
//! [Session state](#session-state)).
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
//! The rule is realised without comparing keys. Time is cut into windows
//! of 256 ticks. Events due in the current instant's window wait in one
//! slot per instant, three FIFOs per slot, one per band; a pop takes the
//! first occupied slot at or after the current instant, found in a
//! 256-bit occupancy mask, and drains its band 0, then band 1, then band
//! 2. Later events sit in radix buckets: an event's bucket is the highest
//! bit in which its time differs from the current instant (at least bit
//! 8), so every event in a lower bucket is earlier than every event in a
//! higher one. When the window runs dry, the lowest non-empty bucket is
//! redistributed around its earliest time, which becomes the new instant.
//! Its events share every bit above the bucket's, so each moves to a lower
//! bucket or into the new window; an event moves at most 56 times. Most
//! events land within 256 ticks of the instant that pushes them and are
//! filed once.
//!
//! The FIFOs and buckets are linked lists threaded through one slab of
//! entries: a push takes a free slot or appends one, redistribution
//! relinks slots without moving entries, and a pop frees its slot. The
//! queue's memory is therefore one vector as long as the queue has ever
//! been, grown by doubling as a binary heap's is, plus the window's fixed
//! table of 256 slots. That keeps the
//! allocator steady: vectors per bucket, each growing on its own in the
//! middle of a run, varied from one run to the next how much of a large
//! workload's heap the allocator handed back to the system and then had
//! to fault in again.
//!
//! FIFO order is `seq` order. Bands 1 and 2 number their events from one
//! counter in push order, and band 0 by injection rank, so within one band
//! push order is `seq` order. Events of equal time always share a bucket,
//! buckets only append and redistribution is stable, and the window only
//! moves on once its slots are empty, so the events of an instant reach
//! their FIFOs in push order, and later pushes append behind them.
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
//!   *partially* (graceful degradation): its pending reception is
//!   discharged, the failure is counted, and the receiver's would-be
//!   children are told to request repair from their own repairers
//!   (escalating past failed ones, terminating at the source, which holds
//!   the payload from time zero).
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
//!
//! # Session state
//!
//! At entry, one pass over the component's sessions builds the kernel's own
//! dense working state, with one entry per slot (a session's position in
//! the slice):
//!
//! * **Records.** One 64-byte record per slot holds every field the loop
//!   touches per event: the session's id, its patience deadline (then its
//!   start), completion and delivery, its member receptions still pending
//!   (members × chunks), and where its entries start in the arrays below.
//!   The record holds a second handle on the child lists of the session's
//!   shared plan, so no tree is copied or hashed per call. The injection
//!   order carries each slot's arrival.
//! * **Node map.** One flat `u32` array of every session's tree node →
//!   node id, session after session.
//! * **Chunks.** One flat `(completed, pending)` entry per chunk of every
//!   streaming session: its latest reception completion, and the members
//!   still to settle it (which opens a sequential train's next chunk).
//!   Atomic sessions have none.
//! * **Repair status** (lossy runs only). One byte per `(chunk, node)`,
//!   chunk by chunk: pending, missed, reached or failed in the low two
//!   bits, plus a has-parked bit, set while repair requests wait on that
//!   node for that chunk. A reception or a give-up replays parked requests
//!   only when the bit is set. Only the repair path reads the instant a
//!   node first missed a chunk: NACKs, retransmissions, and the reception
//!   that ends a repair. It lives in a side map that holds the misses still
//!   open. A dense side array, 8 bytes per slot, was the kernel's largest
//!   table (9 MB on the benchmark's lossy stream), and glibc handed it back
//!   and faulted it in again on every pass. Each slot's NACK,
//!   retransmission and give-up counts sit in a side array.
//!
//! The loop reads a [`SessionRuntime`] only where the records stop: the
//! repairer table on a retransmission, and the arrival and interval at a
//! chunk release. Sessions stay read-only until the loop ends. The kernel
//! then writes each slot's outcome back to its session once: start,
//! abandonment, completion and delivery times, NACK, retransmission and
//! give-up counts, each chunk's completion time, and the repair delays,
//! which are buffered in completion order. These are all that
//! [`record_for`](crate::sessions::record_for) reads of a run.
//!
//! Slots, node ids, tree node ids and chunk indices are 32-bit in the
//! records, the events and the wait queues. Each narrowing is checked once
//! at entry: a component too large for it is
//! [`SimError::ComponentTooLarge`], never a truncation. The pipeline bounds
//! each session's (members + 1) × chunks by
//! [`MAX_TRAIN_SLOTS`](crate::sessions::MAX_TRAIN_SLOTS) before anything is
//! sized for it.

use crate::error::SimError;
use crate::faults::LossProfile;
use crate::sessions::SessionRuntime;
use hnow_model::{NetParams, NodeSpec, Time};
use hnow_telemetry::{Recorder, TraceEvent, TraceEventKind as Kind};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A discrete event of the occupancy simulation. "Claim" events ([`Send`],
/// [`Recv`], [`RepairSend`]) ask for node time and park in the node's FIFO
/// wait queue while it is busy. Ids are 32-bit (see "Session state").
///
/// [`Send`]: KernelEvent::Send
/// [`Recv`]: KernelEvent::Recv
/// [`RepairSend`]: KernelEvent::RepairSend
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelEvent {
    /// The session's tree node `local` wants to start its `child`-th send
    /// of chunk `chunk`.
    Send { local: u32, child: u32, chunk: u32 },
    /// Chunk `chunk` reaches tree node `local` (records delivery, then
    /// re-queues the receive claim per tie-break rule 4).
    Arrive { local: u32, chunk: u32 },
    /// Tree node `local` wants to start its receiving overhead for chunk
    /// `chunk`.
    Recv { local: u32, chunk: u32 },
    /// The node finished an activity; wake its next parked waiter.
    Free { node: u32 },
    /// Tree node `local` missed chunk `chunk` and requests retransmission
    /// `attempt` from its repairer (band 2; control traffic, no occupancy).
    Nack {
        local: u32,
        attempt: u32,
        chunk: u32,
    },
    /// `local`'s repairer wants to start retransmission `attempt` of chunk
    /// `chunk` (band 2; claims the repairer's send occupancy).
    RepairSend {
        local: u32,
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
type Entry = (Time, u8, u64, u32, KernelEvent);

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

/// Width in ticks of the queue's near window: a power of two.
const NEAR: u64 = 256;

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
    /// Entries due in the window of [`NEAR`] ticks holding `now`: slot
    /// `time % NEAR`, one FIFO per band.
    near: Vec<[List; 3]>,
    /// Bit `s % 64` of word `s / 64` is set while near slot `s` holds
    /// entries.
    near_occupied: [u64; 4],
    /// Later entries: bucket `b` holds those whose time first differs from
    /// `now` in bit `b`, which is at least `log2(NEAR)`.
    buckets: [List; 64],
    /// Earliest time in each bucket (`Time::MAX` when empty).
    mins: [Time; 64],
    /// Bit `b` is set when bucket `b` is non-empty.
    occupied: u64,
}

impl RadixQueue {
    /// An empty queue at instant zero.
    fn new() -> Self {
        RadixQueue {
            now: Time::ZERO,
            slab: Vec::new(),
            free: NIL,
            near: vec![[List::EMPTY; 3]; NEAR as usize],
            near_occupied: [0; 4],
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

    /// Appends the entry in `slot` to the near FIFO or bucket its time
    /// selects.
    fn file(&mut self, slot: usize) {
        let (time, band, ..) = self.slab[slot].0;
        debug_assert!(
            time >= self.now,
            "event at {time} pushed behind the current instant {}",
            self.now
        );
        let list = if time.raw() / NEAR == self.now.raw() / NEAR {
            let near = (time.raw() % NEAR) as usize;
            self.near_occupied[near / 64] |= 1 << (near % 64);
            &mut self.near[near][usize::from(band)]
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

    /// The first near slot that holds entries. No slot before `now`'s
    /// does while pushes stay monotone; an entry wrapped behind `now` is
    /// still found, so the queue drops no event.
    fn next_near(&self) -> Option<usize> {
        let word = self.near_occupied.iter().position(|&bits| bits != 0)?;
        Some(word * 64 + self.near_occupied[word].trailing_zeros() as usize)
    }

    /// The instant of near slot `near`.
    fn near_time(&self, near: usize) -> Time {
        Time::new(self.now.raw() - self.now.raw() % NEAR + near as u64)
    }

    /// Time of the entry the next [`Self::pop`] returns.
    fn min_time(&self) -> Option<Time> {
        match self.next_near() {
            Some(near) => Some(self.near_time(near)),
            None if self.occupied != 0 => Some(self.mins[self.occupied.trailing_zeros() as usize]),
            None => None,
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        loop {
            if let Some(near) = self.next_near() {
                self.now = self.near_time(near);
                let fifos = &mut self.near[near];
                let fifo = fifos
                    .iter_mut()
                    .find(|fifo| fifo.head != NIL)
                    .expect("an occupied near slot holds an entry");
                let slot = fifo.head;
                let (entry, next) = self.slab[slot];
                fifo.head = next;
                if next == NIL {
                    fifo.tail = NIL;
                    if fifos.iter().all(|fifo| fifo.head == NIL) {
                        self.near_occupied[near / 64] &= !(1 << (near % 64));
                    }
                }
                self.slab[slot].1 = self.free;
                self.free = slot;
                return Some(entry);
            }
            if self.occupied == 0 {
                return None;
            }
            // The window is spent: advance to the lowest bucket's earliest
            // time, in a later window; redistributing the bucket puts at
            // least that entry into a near slot.
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

/// Repair status of one `(chunk, node)`, one byte each (see "Session
/// state" in the module docs): a state in the low two bits, plus
/// [`PARKED`].
type Status = u8;
/// Not yet received, and no miss detected: the initial state of every
/// non-source node.
const PENDING: Status = 0;
/// Not yet received; the instant of the first miss is in the first-miss
/// array.
const MISSED: Status = 1;
/// Reception completed: the node can serve as a repairer.
const REACHED: Status = 2;
/// Retries exhausted or deadline passed: the node is given up on.
const FAILED: Status = 3;
/// The state bits of a status byte.
const STATE: Status = 3;
/// Repair requests are parked on this slot until it is reached or fails.
const PARKED: Status = 4;

/// The kernel's working record of one session slot: every field the loop
/// touches per event, in one cache line (see "Session state" in the module
/// docs).
#[repr(align(64))]
struct Slot {
    /// Child lists of the session's shared plan: a second handle, no copy.
    children: Arc<Vec<Vec<usize>>>,
    id: u64,
    /// Before the session starts, its patience deadline (`Time::MAX` when
    /// it has none); from its first claim on, when that claim started.
    gate: Time,
    completed_at: Time,
    delivered_at: Time,
    /// First entry of the session in the flat node map.
    node_base: u32,
    /// First entry of the session in the per-chunk array (streaming
    /// sessions only).
    chunk_base: u32,
    /// First status byte of the session (lossy runs only).
    status_base: u32,
    chunks: u32,
    /// Member receptions, one per chunk, still to complete or fail.
    pending: u32,
    pipelined: bool,
    started: bool,
    abandoned: bool,
}

impl Slot {
    /// Index of tree node `local` in the flat node map.
    fn node(&self, local: u32) -> usize {
        debug_assert!((local as usize) < self.children.len());
        self.node_base as usize + local as usize
    }

    /// Index of `(chunk, local)` in the status bytes: one row of tree
    /// nodes per chunk.
    fn status(&self, chunk: u32, local: u32) -> usize {
        debug_assert!(chunk < self.chunks && (local as usize) < self.children.len());
        self.status_base as usize + chunk as usize * self.children.len() + local as usize
    }

    /// Index of chunk `chunk` in the per-chunk array.
    fn chunk(&self, chunk: u32) -> usize {
        debug_assert!(chunk < self.chunks);
        self.chunk_base as usize + chunk as usize
    }
}

/// A slot's repair counts, kept on lossy runs only.
struct Tally {
    nacks: u64,
    repair_sends: u64,
    failed_members: usize,
}

/// Release time of chunk `chunk` of `session`: `arrival + chunk · interval`.
fn release(session: &SessionRuntime, chunk: u32) -> Time {
    session.arrival + session.chunk_interval * u64::from(chunk)
}

/// Removes the repair requests parked on status index `at` and hands each
/// to `replay` as `(requesting node, attempt)`, in park order.
fn unpark(parked: &mut Vec<(u32, u32, u32)>, at: usize, mut replay: impl FnMut(u32, u32)) {
    parked.retain(|&(slot, local, attempt)| {
        if slot as usize != at {
            return true;
        }
        replay(local, attempt);
        false
    });
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
/// message loss and NACK-driven repair (see the module docs). A component
/// too large for the kernel's 32-bit ids is
/// [`SimError::ComponentTooLarge`].
pub(crate) fn simulate(
    specs: &[NodeSpec],
    net: NetParams,
    sessions: &mut [SessionRuntime],
    loss: Option<&LossProfile>,
    trace: Option<&Recorder<'_>>,
) -> Result<Vec<u64>, SimError> {
    let idle = vec![Time::ZERO; specs.len()];
    Ok(simulate_from(specs, net, sessions, &idle, loss, trace)?.busy_time)
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
) -> Result<CarryOut, SimError> {
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
    let carry = run(specs, net, sessions, &idle, loss, Some(&mut log), None)
        .expect("test components fit the kernel's 32-bit ids");
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
) -> Result<CarryOut, SimError> {
    let n = specs.len();
    debug_assert_eq!(busy0.len(), n);
    // A lossless profile draws no losses, so skipping the fault path
    // entirely makes "rate 0 equals no injection" structural rather than
    // statistical.
    let loss = loss.filter(|profile| !profile.is_lossless());

    // The dense state (see "Session state"), in one pass over the
    // sessions. Every 32-bit id is checked here, once.
    let fits = {
        let too_large = SimError::ComponentTooLarge {
            sessions: sessions.len(),
            nodes: n,
        };
        move |value: u64| u32::try_from(value).map_err(|_| too_large.clone())
    };
    fits(sessions.len() as u64)?;
    fits(n as u64)?;
    let mut slots: Vec<Slot> = Vec::with_capacity(sessions.len());
    // Lazy injection order: by arrival, ties by slot (= request order).
    let mut order: Vec<(Time, u32)> = Vec::with_capacity(sessions.len());
    let mut node_map: Vec<u32> = Vec::new();
    let mut chunk_state: Vec<(Time, u32)> = Vec::new();
    let mut status_len = 0u64;
    for session in sessions.iter() {
        debug_assert_eq!(session.children.len(), session.node_map.len());
        let nodes = fits(session.node_map.len() as u64)?;
        let members = nodes - 1;
        order.push((session.arrival, slots.len() as u32));
        slots.push(Slot {
            children: Arc::clone(&session.children),
            id: session.id,
            gate: session.started.or(session.deadline).unwrap_or(Time::MAX),
            completed_at: session.completed_at,
            delivered_at: session.delivered_at,
            node_base: fits(node_map.len() as u64)?,
            chunk_base: fits(chunk_state.len() as u64)?,
            status_base: fits(status_len)?,
            chunks: session.chunks,
            pending: fits(u64::from(members) * u64::from(session.chunks))?,
            pipelined: session.pipelined,
            started: session.started.is_some(),
            abandoned: session.abandoned,
        });
        // Node ids are below `n`, which fits 32 bits.
        node_map.extend(session.node_map.iter().map(|&node| node as u32));
        if session.chunks > 1 {
            let fresh = (session.arrival, members);
            chunk_state.resize(chunk_state.len() + session.chunks as usize, fresh);
        }
        status_len += u64::from(nodes) * u64::from(session.chunks);
    }
    // Parked requests name status bytes by 32-bit index.
    fits(status_len)?;
    let mut status = match loss {
        Some(_) => {
            let mut status = vec![PENDING; status_len as usize];
            for s in &slots {
                for chunk in 0..s.chunks {
                    // The source holds every chunk from its release.
                    status[s.status(chunk, 0)] = REACHED;
                }
            }
            status
        }
        None => Vec::new(),
    };
    let mut tallies: Vec<Tally> = match loss {
        Some(_) => sessions
            .iter()
            .map(|session| Tally {
                nacks: session.nacks,
                repair_sends: session.repair_sends,
                failed_members: session.failed_members,
            })
            .collect(),
        None => Vec::new(),
    };
    // The first-miss instant of every slot still missed, by status index
    // (see "Session state").
    let mut first_missed: HashMap<usize, Time> = HashMap::new();

    let mut busy_until = busy0.to_vec();
    let mut busy_time = vec![0u64; n];
    let mut waiting: Vec<VecDeque<(u32, KernelEvent)>> = vec![VecDeque::new(); n];
    let mut queue = RadixQueue::new();
    let mut seq = 0u64;
    // Repair requests parked on a repairer not yet reached, as (the
    // repairer's status index, requesting node, attempt) in park order.
    let mut parked: Vec<(u32, u32, u32)> = Vec::new();
    // Repair delays as (slot, delay) in completion order, handed to the
    // sessions at exit.
    let mut repair_delays: Vec<(u32, u64)> = Vec::new();

    order.sort_unstable();
    let mut next_inject = 0usize;

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

    // Opens chunk `$chunk + 1` of the sequential train in `$s` once chunk
    // `$chunk` has settled at every member at `$t`, and its release is due.
    macro_rules! settle {
        ($s:expr, $slot:expr, $chunk:expr, $t:expr) => {{
            let pending = &mut chunk_state[$s.chunk($chunk)].1;
            *pending -= 1;
            if *pending == 0 && !$s.pipelined && $chunk + 1 < $s.chunks {
                let release = $t.max(release(&sessions[$slot as usize], $chunk + 1));
                trace_ev!(TraceEvent::new(release.raw(), Kind::ChunkRelease, $s.id)
                    .node(node_map[$s.node(0)] as usize)
                    .band(1)
                    .chunk($chunk + 1)
                    .seq(seq));
                push!(
                    release,
                    $slot,
                    KernelEvent::Send {
                        local: 0,
                        child: 0,
                        chunk: $chunk + 1,
                    }
                );
            }
        }};
    }

    // Gives receiver `$local` of the session in `$slot` (record `$s`) up
    // on chunk `$chunk` at time `$t`: graceful degradation shared by retry
    // exhaustion and repair-deadline expiry. The would-be children are
    // pointed at their own repairers and requests parked on the failed
    // node escalate. Streaming bookkeeping mirrors the receive path, so a
    // lost cause still advances a sequential chunk train.
    macro_rules! give_up {
        ($s:expr, $slot:expr, $local:expr, $chunk:expr, $t:expr) => {{
            let at = $s.status($chunk, $local);
            let was = status[at];
            status[at] = FAILED;
            first_missed.remove(&at);
            $s.pending -= 1;
            tallies[$slot as usize].failed_members += 1;
            trace_ev!(TraceEvent::new($t.raw(), Kind::Abandon, $s.id)
                .node(node_map[$s.node($local)] as usize)
                .band(2)
                .chunk($chunk));
            for &c in &$s.children[$local as usize] {
                push!(
                    $t + net.latency(),
                    $slot,
                    KernelEvent::Nack {
                        local: c as u32,
                        attempt: 1,
                        chunk: $chunk,
                    }
                );
            }
            if was & PARKED != 0 {
                unpark(&mut parked, at, |target, attempt| {
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
            }
            if $s.chunks > 1 {
                settle!($s, $slot, $chunk, $t);
            }
        }};
    }

    // Arm one wake per carried-busy node (the slot field is meaningless
    // for Free events).
    for (node, &until) in busy_until.iter().enumerate() {
        if until > Time::ZERO {
            push!(until, 0, KernelEvent::Free { node: node as u32 });
        }
    }

    loop {
        // Admit sessions whose arrival is due. Popped times are
        // nondecreasing and `order` ascends by arrival, so every arrival
        // ≤ the current front is injected before anything at that instant
        // executes; band 0 then lets it open first (rule 1).
        while next_inject < order.len() {
            let (arrival, slot) = order[next_inject];
            if queue.min_time().is_some_and(|t| arrival > t) {
                break;
            }
            let s = &slots[slot as usize];
            if !s.children[0].is_empty() {
                trace_ev!(TraceEvent::new(arrival.raw(), Kind::SessionOpen, s.id)
                    .node(node_map[s.node(0)] as usize)
                    .seq(next_inject as u64));
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
            let node = node as usize;
            // Obsolete when a same-instant event already re-claimed the
            // node; the claimant scheduled its own wake (rule 5).
            if busy_until[node] <= t {
                if let Some((waiter, claim)) = waiting[node].pop_front() {
                    trace_ev!(
                        TraceEvent::new(t.raw(), Kind::Wake, slots[waiter as usize].id)
                            .node(node)
                            .band(claim.band())
                            .chunk(claim.chunk())
                            .seq(seq)
                    );
                    push!(t, waiter, claim);
                }
            }
            continue;
        }

        let s = &mut slots[slot as usize];
        // A popped claim always belongs to a live session: a session can
        // only abandon at its first-ever claim (`started` is still `None`),
        // and until that claim executes it is the session's *only* event —
        // nothing else of the session is queued or parked, and the
        // abandon path schedules nothing. So no event of an abandoned
        // session can surface here. Checked rather than silently skipped:
        // were this reachable, a popped claim on a free node would have to
        // pass the node to the next parked waiter or risk starvation.
        debug_assert!(
            !s.abandoned,
            "event popped for abandoned session in slot {slot}"
        );
        if s.abandoned {
            continue;
        }
        match event {
            KernelEvent::Send {
                local,
                child,
                chunk,
            } => {
                let node = node_map[s.node(local)] as usize;
                if busy_until[node] > t {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Park, s.id)
                        .node(node)
                        .band(event.band())
                        .chunk(chunk)
                        .seq(eseq));
                    waiting[node].push_back((slot, event));
                    continue;
                }
                if !s.started {
                    // First activity of the session: the churn gate.
                    if t > s.gate {
                        s.abandoned = true;
                        trace_ev!(TraceEvent::new(t.raw(), Kind::Abandon, s.id)
                            .node(node)
                            .band(1)
                            .chunk(chunk));
                        // The session declined a free node; pass it on so
                        // parked waiters never starve (no wake is pending
                        // for this idle node).
                        if let Some((waiter, claim)) = waiting[node].pop_front() {
                            trace_ev!(TraceEvent::new(
                                t.raw(),
                                Kind::Wake,
                                slots[waiter as usize].id
                            )
                            .node(node)
                            .band(claim.band())
                            .chunk(claim.chunk())
                            .seq(seq));
                            push!(t, waiter, claim);
                        }
                        continue;
                    }
                    s.started = true;
                    s.gate = t;
                }
                let dur = specs[node].send();
                let end = t + dur;
                busy_until[node] = end;
                busy_time[node] += dur.raw();
                if let Some(log) = log.as_deref_mut() {
                    log.push((node, t, end));
                }
                trace_ev!(TraceEvent::new(t.raw(), Kind::SendStart, s.id)
                    .node(node)
                    .band(1)
                    .chunk(chunk)
                    .seq(eseq)
                    .dur(dur.raw()));
                trace_ev!(TraceEvent::new(end.raw(), Kind::SendFinish, s.id)
                    .node(node)
                    .band(1)
                    .chunk(chunk)
                    .seq(eseq));
                let siblings = &s.children[local as usize];
                let target = siblings[child as usize];
                // A lost delivery consumed the sender's occupancy all the
                // same; the receiver detects the gap one latency later
                // (when the delivery would have landed) and NACKs.
                let lost = loss.is_some_and(|profile| {
                    profile.lost(fault_id(s.id, chunk), local as usize, target, 0, t)
                });
                let target = target as u32;
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
                if child as usize + 1 < siblings.len() {
                    push!(
                        end,
                        slot,
                        KernelEvent::Send {
                            local,
                            child: child + 1,
                            chunk,
                        }
                    );
                } else if local == 0 && s.pipelined && chunk + 1 < s.chunks {
                    // Pipelined train: the source opens the next chunk the
                    // moment its port is free and the chunk is released —
                    // relays downstream are still draining this one.
                    let release = end.max(release(&sessions[slot as usize], chunk + 1));
                    trace_ev!(TraceEvent::new(release.raw(), Kind::ChunkRelease, s.id)
                        .node(node)
                        .band(1)
                        .chunk(chunk + 1)
                        .seq(seq));
                    push!(
                        release,
                        slot,
                        KernelEvent::Send {
                            local: 0,
                            child: 0,
                            chunk: chunk + 1,
                        }
                    );
                }
                push!(end, slot, KernelEvent::Free { node: node as u32 });
            }
            KernelEvent::Arrive { local, chunk } => {
                // Delivery is the message hitting the node, busy or not;
                // the receive overhead queues for node time separately
                // (rule 4).
                s.delivered_at = s.delivered_at.max(t);
                push!(t, slot, KernelEvent::Recv { local, chunk });
            }
            KernelEvent::Recv { local, chunk } => {
                let node = node_map[s.node(local)] as usize;
                if busy_until[node] > t {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Park, s.id)
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
                trace_ev!(TraceEvent::new(t.raw(), Kind::Receive, s.id)
                    .node(node)
                    .band(1)
                    .chunk(chunk)
                    .seq(eseq)
                    .dur(dur.raw()));
                s.pending -= 1;
                s.completed_at = s.completed_at.max(end);
                if loss.is_some() {
                    let at = s.status(chunk, local);
                    let was = status[at];
                    if was & STATE == MISSED {
                        let first = first_missed
                            .remove(&at)
                            .expect("a missed slot has its miss");
                        repair_delays.push((slot, end.saturating_sub(first).raw()));
                    }
                    status[at] = REACHED;
                    if was & PARKED != 0 {
                        // The node holds the chunk now: replay every repair
                        // request that was waiting for it.
                        unpark(&mut parked, at, |target, attempt| {
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
                }
                if s.chunks > 1 {
                    let done = &mut chunk_state[s.chunk(chunk)].0;
                    *done = (*done).max(end);
                    // Sequential train (the one-shot re-send baseline): the
                    // next chunk only opens once this one has fully settled
                    // at every member and its release is due.
                    settle!(s, slot, chunk, end);
                }
                if !s.children[local as usize].is_empty() {
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
                push!(end, slot, KernelEvent::Free { node: node as u32 });
            }
            KernelEvent::Nack {
                local,
                attempt,
                chunk,
            } => {
                let profile = loss.expect("repair events only exist in faulted runs");
                let at = s.status(chunk, local);
                match status[at] & STATE {
                    PENDING => {
                        status[at] |= MISSED;
                        first_missed.insert(at, t);
                    }
                    MISSED => {}
                    _ => continue,
                }
                let expired = profile
                    .repair_deadline
                    .is_some_and(|d| t.raw() > first_missed[&at].raw().saturating_add(d));
                if attempt > profile.max_retries || expired {
                    // Retries exhausted or recovery-liveness bound blown:
                    // the session completes partially.
                    give_up!(s, slot, local, chunk, t);
                    continue;
                }
                tallies[slot as usize].nacks += 1;
                trace_ev!(TraceEvent::new(t.raw(), Kind::Nack, s.id)
                    .node(node_map[s.node(local)] as usize)
                    .band(2)
                    .chunk(chunk)
                    .seq(eseq));
                let delay = profile.retry_delay(fault_id(s.id, chunk), local as usize, attempt);
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
                let at = s.status(chunk, local);
                if status[at] & STATE > MISSED {
                    continue;
                }
                debug_assert_eq!(
                    status[at] & STATE,
                    MISSED,
                    "the NACK that scheduled this repair marked the miss"
                );
                // Resolve the repairer, escalating past failed ones; every
                // placement walks strictly upstream and the source is
                // always reached (it holds every chunk from release), so
                // this terminates.
                let repairer = sessions[slot as usize].repairer.as_deref();
                let repairer_of = |v: u32| repairer.map_or(0, |table| table[v as usize] as u32);
                let mut rp = repairer_of(local);
                while status[s.status(chunk, rp)] & STATE == FAILED {
                    rp = repairer_of(rp);
                }
                let park = s.status(chunk, rp);
                if status[park] & STATE <= MISSED {
                    // The repairer has not been served this chunk yet
                    // itself; park the request — its reception (or
                    // failure) replays it.
                    status[park] |= PARKED;
                    parked.push((park as u32, local, attempt));
                    continue;
                }
                let node = node_map[s.node(rp)] as usize;
                if busy_until[node] > t {
                    trace_ev!(TraceEvent::new(t.raw(), Kind::Park, s.id)
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
                    .is_some_and(|d| t.raw() > first_missed[&at].raw().saturating_add(d))
                {
                    give_up!(s, slot, local, chunk, t);
                    if let Some((waiter, claim)) = waiting[node].pop_front() {
                        trace_ev!(
                            TraceEvent::new(t.raw(), Kind::Wake, slots[waiter as usize].id)
                                .node(node)
                                .band(claim.band())
                                .chunk(claim.chunk())
                                .seq(seq)
                        );
                        push!(t, waiter, claim);
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
                trace_ev!(TraceEvent::new(t.raw(), Kind::Repair, s.id)
                    .node(node)
                    .band(2)
                    .chunk(chunk)
                    .seq(eseq)
                    .dur(dur.raw()));
                tallies[slot as usize].repair_sends += 1;
                let lost = profile.lost(
                    fault_id(s.id, chunk),
                    rp as usize,
                    local as usize,
                    attempt,
                    t,
                );
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
                push!(end, slot, KernelEvent::Free { node: node as u32 });
            }
            KernelEvent::Free { .. } => unreachable!("handled before the slot borrow"),
        }
    }
    debug_assert!(slots.iter().all(|s| s.abandoned || s.pending == 0));

    // Write-back: each session receives its outcome once.
    let mut chunk_base = 0;
    for (i, (session, s)) in sessions.iter_mut().zip(slots).enumerate() {
        session.started = s.started.then_some(s.gate);
        session.abandoned = s.abandoned;
        session.completed_at = s.completed_at;
        session.delivered_at = s.delivered_at;
        if let Some(tally) = tallies.get(i) {
            session.nacks = tally.nacks;
            session.repair_sends = tally.repair_sends;
            session.failed_members = tally.failed_members;
        }
        if s.chunks > 1 {
            let chunks = &chunk_state[chunk_base..][..s.chunks as usize];
            session.chunk_completed_at = chunks.iter().map(|&(done, _)| done).collect();
            chunk_base += chunks.len();
        }
    }
    for (slot, delay) in repair_delays {
        sessions[slot as usize].repair_delays.push(delay);
    }
    Ok(CarryOut {
        busy_time,
        busy_until,
    })
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

    /// Source 0 sends to 1, then to 2, and 2's repairer is its sibling 1,
    /// which no placement picks (each picks a proper ancestor, which holds
    /// the chunk before any descendant can miss it). Returns the session
    /// after a run under `loss`, with its trace.
    fn sibling_repair(loss: &LossProfile) -> (SessionRuntime, Vec<TraceEvent>) {
        let mut session = SessionRuntime::new(
            7,
            Time::ZERO,
            vec![0, 1, 2],
            std::sync::Arc::new(vec![vec![1, 2], vec![], vec![]]),
        );
        session.repairer = Some(std::sync::Arc::new(vec![0, 0, 1]));
        let sink = hnow_telemetry::MemorySink::new();
        let recorder = Recorder::new(&sink);
        let specs = [NodeSpec::new(2, 3); 3];
        simulate(
            &specs,
            NetParams::new(1),
            std::slice::from_mut(&mut session),
            Some(loss),
            Some(&recorder),
        )
        .unwrap();
        (session, sink.take())
    }

    #[test]
    fn a_repair_request_parked_on_an_unreached_repairer_replays_when_it_is_reached() {
        // Seed 15 loses both first deliveries. Node 2's loss lands at 5
        // (sends 0..2 and 2..4, latency 1), and its retransmission is due
        // before node 1 starts receiving its own repair at 14. So the
        // request parks on node 1 and is replayed the instant that
        // reception ends, at 17, without queueing on the node.
        let loss = LossProfile::iid(0.5, 15);
        let issued = 5 + loss.retry_delay(7, 2, 1);
        assert!(issued < 14, "the request must find node 1 unreached");
        let (session, events) = sibling_repair(&loss);
        let at = |kind| -> Vec<(u64, Option<usize>)> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| (e.time, e.node))
                .collect()
        };
        assert_eq!(at(Kind::Repair), [(11, Some(0)), (17, Some(1))]);
        assert_eq!(at(Kind::Receive), [(14, Some(1)), (20, Some(2))]);
        assert!(at(Kind::Park).is_empty());
        assert_eq!((session.nacks, session.repair_sends), (2, 2));
        assert_eq!(session.failed_members, 0);
        assert_eq!(session.completed_at, Time::new(23));
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
