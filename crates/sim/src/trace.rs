//! Execution traces and their rendering.

use hnow_model::{NodeId, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a node was doing during a busy interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activity {
    /// Incurring its sending overhead for a transmission to `to`.
    Send {
        /// Destination of the transmission.
        to: NodeId,
    },
    /// Incurring its receiving overhead for the message sent by `from`.
    Receive {
        /// The node that sent the message.
        from: NodeId,
    },
}

/// A half-open busy interval `[start, end)` of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusyInterval {
    /// Interval start.
    pub start: Time,
    /// Interval end (exclusive).
    pub end: Time,
    /// What the node was doing.
    pub activity: Activity,
}

/// The full execution trace of a multicast schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimTrace {
    /// Busy intervals per node (indexed by node id), each list sorted by
    /// start time.
    pub timelines: Vec<Vec<BusyInterval>>,
    /// Delivery time per node (instant the message arrived); 0 for the
    /// source.
    pub delivery: Vec<Time>,
    /// Reception time per node (instant the receive overhead finished); 0
    /// for the source.
    pub reception: Vec<Time>,
    /// The simulated reception completion time.
    pub completion: Time,
}

impl SimTrace {
    /// Number of participating nodes.
    pub fn num_nodes(&self) -> usize {
        self.timelines.len()
    }

    /// Reception time of a node.
    pub fn reception(&self, v: NodeId) -> Time {
        self.reception[v.index()]
    }

    /// Delivery time of a node.
    pub fn delivery(&self, v: NodeId) -> Time {
        self.delivery[v.index()]
    }

    /// Total busy time (send + receive overheads) of a node.
    pub fn busy_time(&self, v: NodeId) -> Time {
        self.timelines[v.index()]
            .iter()
            .map(|i| i.end - i.start)
            .sum()
    }

    /// Renders an ASCII Gantt chart of the execution, `width` characters
    /// wide. Send overheads render as `S`, receive overheads as `R`, idle
    /// time as `.`.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let span = self.completion.raw().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "time 0 .. {} ({} units per column)\n",
            self.completion,
            (span as f64 / width as f64).max(1.0).ceil() as u64
        ));
        for (i, timeline) in self.timelines.iter().enumerate() {
            let mut row = vec!['.'; width];
            for interval in timeline {
                let a = (interval.start.raw() * width as u64 / span) as usize;
                let b = ((interval.end.raw() * width as u64).div_ceil(span) as usize).min(width);
                let ch = match interval.activity {
                    Activity::Send { .. } => 'S',
                    Activity::Receive { .. } => 'R',
                };
                for slot in row.iter_mut().take(b).skip(a) {
                    *slot = ch;
                }
            }
            out.push_str(&format!(
                "{:>5} |{}|\n",
                format!("p{i}"),
                row.iter().collect::<String>()
            ));
        }
        out
    }
}

impl fmt::Display for SimTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "completion: {}", self.completion)?;
        for (i, timeline) in self.timelines.iter().enumerate() {
            write!(f, "p{i}:")?;
            for interval in timeline {
                match interval.activity {
                    Activity::Send { to } => write!(
                        f,
                        " send->{}[{},{})",
                        to.index(),
                        interval.start,
                        interval.end
                    )?,
                    Activity::Receive { from } => write!(
                        f,
                        " recv<-{}[{},{})",
                        from.index(),
                        interval.start,
                        interval.end
                    )?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> SimTrace {
        SimTrace {
            timelines: vec![
                vec![BusyInterval {
                    start: Time::new(0),
                    end: Time::new(2),
                    activity: Activity::Send { to: NodeId(1) },
                }],
                vec![BusyInterval {
                    start: Time::new(3),
                    end: Time::new(4),
                    activity: Activity::Receive { from: NodeId(0) },
                }],
            ],
            delivery: vec![Time::ZERO, Time::new(3)],
            reception: vec![Time::ZERO, Time::new(4)],
            completion: Time::new(4),
        }
    }

    #[test]
    fn accessors() {
        let t = tiny_trace();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.reception(NodeId(1)), Time::new(4));
        assert_eq!(t.delivery(NodeId(1)), Time::new(3));
        assert_eq!(t.busy_time(NodeId(0)), Time::new(2));
        assert_eq!(t.busy_time(NodeId(1)), Time::new(1));
    }

    #[test]
    fn rendering() {
        let t = tiny_trace();
        let text = t.to_string();
        assert!(text.contains("send->1[0,2)"));
        assert!(text.contains("recv<-0[3,4)"));
        let gantt = t.render_gantt(40);
        assert!(gantt.contains("p0"));
        assert!(gantt.contains('S'));
        assert!(gantt.contains('R'));
        // Width floor.
        let small = t.render_gantt(1);
        assert!(small.lines().count() >= 3);
    }
}
