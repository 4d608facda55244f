//! # hnow-telemetry
//!
//! The observability layer of the workstation-multicast reproduction:
//! structured event tracing out of the occupancy kernel, time-bucketed
//! metrics, fixed-allocation log-bucketed histograms, and wall-clock phase
//! profiling — all built so that attaching any of it never perturbs the
//! simulation's byte-identical-per-seed determinism contract.
//!
//! The crate is deliberately free of simulator dependencies: everything is
//! expressed over raw `u64` sim ticks and dense ids, and the simulator
//! adapts its own types at the emission boundary. Three rules keep the
//! determinism contract intact:
//!
//! 1. **Tracing is observation only.** A [`TraceSink`] receives copies of
//!    [`TraceEvent`]s; nothing flows back into the kernel. A disabled sink
//!    is a single predictable `Option` branch per event site.
//! 2. **Aggregation is order-independent.** The [`TimeSeries`] collector
//!    folds events into per-bucket `u64` sums and counts, so any thread
//!    interleaving of component simulations produces the same
//!    [`TelemetryReport`]. Floats appear only in final divisions. A run
//!    folds each event into its series as it is recorded, so a series
//!    costs no event buffer, and the series holds at most
//!    [`MAX_SERIES_COUNTERS`] counters.
//! 3. **Wall-clock data never enters a report.** The [`PhaseProfiler`]
//!    keeps `plan`/`admit`/`bind`/`simulate`/`rebalance` spans on the
//!    side; sim-time reports stay comparable byte for byte.
//!
//! [`chrome_trace_json`] renders a collected event stream as Chrome
//! `trace_event` JSON (load it at `chrome://tracing` or in Perfetto), one
//! "process" per shard and one "thread" per node port.
//! [`check_invariants`] replays a stream against the kernel's structural
//! invariants (one-port occupancy, FIFO park/wake order, causality).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod chrome;
mod config;
mod event;
mod histogram;
mod invariants;
mod profile;
mod series;

pub use chrome::chrome_trace_json;
pub use config::TelemetryConfig;
pub use event::{MemorySink, Recorder, TraceEvent, TraceEventKind, TraceSink};
pub use histogram::LogHistogram;
pub use invariants::check_invariants;
pub use profile::{PhaseGuard, PhaseProfiler, PhaseSpan};
pub use series::{SeriesTooLarge, TelemetryReport, TimeSeries, MAX_SERIES_COUNTERS};
