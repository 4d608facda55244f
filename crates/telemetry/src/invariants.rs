//! Structural invariant checking over a collected trace stream.

use crate::event::{TraceEvent, TraceEventKind};
use std::collections::VecDeque;

/// Replays a trace stream against the occupancy kernel's structural
/// invariants; `Err` carries a description of the first violation.
///
/// Checked, in order:
///
/// 1. **Band labeling** — session openings carry band 0, planned traffic
///    band 1, NACK/repair traffic band 2.
/// 2. **One-port occupancy** — per node, the `[time, time + dur)`
///    intervals of `send`/`receive`/`repair` events never overlap
///    (zero-length occupancies cannot overlap anything).
/// 3. **FIFO park order** — per node, every wake pops the oldest parked
///    claim: replaying parks into a queue, each wake must match the
///    queue's head `(session, chunk)`, and no wake may fire on an empty
///    queue.
/// 4. **Causality** — a session's first kernel event is its opening, and
///    at no point has a session seen more repair transmissions than
///    NACKs.
///
/// The FIFO and causality replays walk the stream in recorded order;
/// that order is meaningful because every node (and every session)
/// belongs to exactly one simulation component, whose events enter the
/// sink in emission order even when components run on parallel workers.
pub fn check_invariants(events: &[TraceEvent]) -> Result<(), String> {
    check_bands(events)?;
    check_one_port(events)?;
    check_fifo(events)?;
    check_causality(events)
}

fn check_bands(events: &[TraceEvent]) -> Result<(), String> {
    for ev in events {
        let ok = match ev.kind {
            TraceEventKind::SessionOpen => ev.band == 0,
            TraceEventKind::SendStart
            | TraceEventKind::SendFinish
            | TraceEventKind::Receive
            | TraceEventKind::ChunkRelease => ev.band == 1,
            TraceEventKind::Nack | TraceEventKind::Repair => ev.band == 2,
            // Parks, wakes and abandonments inherit the band of the claim
            // that parked, woke or gave up; admission decisions carry no
            // kernel band.
            TraceEventKind::Park
            | TraceEventKind::Wake
            | TraceEventKind::Abandon
            | TraceEventKind::Admitted
            | TraceEventKind::Reordered
            | TraceEventKind::Shed => true,
        };
        if !ok {
            return Err(format!(
                "band violation: {} event of session {} at t={} carries band {}",
                ev.kind.name(),
                ev.session,
                ev.time,
                ev.band
            ));
        }
    }
    Ok(())
}

fn check_one_port(events: &[TraceEvent]) -> Result<(), String> {
    let mut per_node: Vec<(usize, u64, u64)> = events
        .iter()
        .filter(|ev| ev.kind.is_occupancy() && ev.dur > 0)
        .map(|ev| {
            ev.node
                .map(|node| (node, ev.time, ev.time + ev.dur))
                .ok_or_else(|| format!("{} event without a node", ev.kind.name()))
        })
        .collect::<Result<_, _>>()?;
    per_node.sort_unstable();
    for pair in per_node.windows(2) {
        let ((node, _, end), (next_node, next_start, _)) = (pair[0], pair[1]);
        if node == next_node && next_start < end {
            return Err(format!(
                "one-port violation: node {node} busy past t={end} overlaps a claim at t={next_start}"
            ));
        }
    }
    Ok(())
}

fn check_fifo(events: &[TraceEvent]) -> Result<(), String> {
    let nodes = events
        .iter()
        .filter_map(|ev| ev.node)
        .max()
        .map_or(0, |n| n + 1);
    let mut queues: Vec<VecDeque<(u64, u32)>> = vec![VecDeque::new(); nodes];
    for ev in events {
        let Some(node) = ev.node else { continue };
        match ev.kind {
            TraceEventKind::Park => queues[node].push_back((ev.session, ev.chunk)),
            TraceEventKind::Wake => match queues[node].pop_front() {
                Some(head) if head == (ev.session, ev.chunk) => {}
                Some((session, chunk)) => {
                    return Err(format!(
                        "FIFO violation: node {node} woke session {} chunk {} at t={} \
                         ahead of parked session {session} chunk {chunk}",
                        ev.session, ev.chunk, ev.time
                    ));
                }
                None => {
                    return Err(format!(
                        "FIFO violation: node {node} woke session {} at t={} with nothing parked",
                        ev.session, ev.time
                    ));
                }
            },
            _ => {}
        }
    }
    Ok(())
}

fn check_causality(events: &[TraceEvent]) -> Result<(), String> {
    // Session ids are sparse; a sorted probe list keeps this allocation-
    // light without hashing (determinism is irrelevant here, but the
    // checker runs inside property tests and should stay cheap).
    let mut sessions: Vec<u64> = events.iter().map(|ev| ev.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    let slot = |id: u64| sessions.binary_search(&id).expect("probed above");
    let mut opened = vec![false; sessions.len()];
    let mut nack_balance = vec![0i64; sessions.len()];
    for ev in events {
        let s = slot(ev.session);
        match ev.kind {
            TraceEventKind::SessionOpen => opened[s] = true,
            // Admission decisions precede the kernel; wakes of carried-over
            // busy nodes can also precede a session's own opening only via
            // another session, so any session-tagged kernel event requires
            // an opening first.
            TraceEventKind::Admitted | TraceEventKind::Reordered | TraceEventKind::Shed => {}
            kind => {
                if !opened[s] {
                    return Err(format!(
                        "causality violation: {} event of session {} at t={} before its opening",
                        kind.name(),
                        ev.session,
                        ev.time
                    ));
                }
                match kind {
                    TraceEventKind::Nack => nack_balance[s] += 1,
                    TraceEventKind::Repair => {
                        nack_balance[s] -= 1;
                        if nack_balance[s] < 0 {
                            return Err(format!(
                                "causality violation: session {} repaired at t={} \
                                 with no outstanding NACK",
                                ev.session, ev.time
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind as K;

    fn open(session: u64) -> TraceEvent {
        TraceEvent::new(0, K::SessionOpen, session)
    }

    #[test]
    fn a_clean_stream_passes() {
        let events = [
            open(1),
            TraceEvent::new(0, K::SendStart, 1).node(0).band(1).dur(4),
            TraceEvent::new(2, K::Park, 1).node(0).band(1),
            TraceEvent::new(4, K::SendFinish, 1).node(0).band(1),
            TraceEvent::new(4, K::Wake, 1).node(0).band(1),
            TraceEvent::new(4, K::Receive, 1).node(1).band(1).dur(3),
            TraceEvent::new(9, K::Nack, 1).node(1).band(2).chunk(0),
            TraceEvent::new(12, K::Repair, 1).node(0).band(2).dur(4),
        ];
        assert_eq!(check_invariants(&events), Ok(()));
    }

    #[test]
    fn double_booked_ports_are_caught() {
        let events = [
            open(1),
            open(2),
            TraceEvent::new(0, K::SendStart, 1).node(3).band(1).dur(10),
            TraceEvent::new(5, K::Receive, 2).node(3).band(1).dur(2),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("one-port"), "{err}");
    }

    #[test]
    fn out_of_order_wakes_are_caught() {
        let events = [
            open(1),
            open(2),
            TraceEvent::new(1, K::Park, 1).node(0).band(1),
            TraceEvent::new(2, K::Park, 2).node(0).band(1),
            TraceEvent::new(3, K::Wake, 2).node(0).band(1),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("FIFO"), "{err}");
    }

    #[test]
    fn activity_before_opening_is_caught() {
        let events = [TraceEvent::new(3, K::Receive, 9).node(1).band(1).dur(2)];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("before its opening"), "{err}");
    }

    #[test]
    fn repairs_without_nacks_are_caught() {
        let events = [
            open(1),
            TraceEvent::new(5, K::Repair, 1).node(0).band(2).dur(2),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("outstanding NACK"), "{err}");
    }

    #[test]
    fn mislabeled_bands_are_caught() {
        let events = [open(1), TraceEvent::new(2, K::Nack, 1).node(0).band(1)];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("band violation"), "{err}");
    }
}
