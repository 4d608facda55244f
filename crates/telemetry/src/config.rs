//! The telemetry attachment carried by a run configuration.

use crate::event::TraceSink;
use crate::profile::PhaseProfiler;
use std::fmt;
use std::sync::Arc;

/// What a run should observe: an optional event sink, an optional
/// time-series window, and an optional phase profiler. The default
/// (`TelemetryConfig::new()`) observes nothing and is indistinguishable
/// from running without telemetry.
///
/// Sinks and profilers are shared handles (`Arc`), so equality of two
/// configs — needed because run configurations are comparable — is
/// *identity* of the attachments plus equality of the window: two configs
/// are equal when they observe into the same objects.
#[derive(Clone, Default)]
pub struct TelemetryConfig {
    /// Receives every kernel and control-plane trace event of the run.
    pub sink: Option<Arc<dyn TraceSink>>,
    /// When set, the run folds its own trace into fixed windows of this
    /// many sim ticks and attaches a `telemetry` section to the report.
    pub timeseries: Option<u64>,
    /// Collects wall-clock phase spans (never part of the report).
    pub profiler: Option<Arc<PhaseProfiler>>,
}

impl TelemetryConfig {
    /// Observe nothing (every attachment off).
    pub fn new() -> Self {
        TelemetryConfig::default()
    }

    /// Streams every trace event of the run into `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Buckets the run's trace into `window`-tick time series, folding
    /// each event as it is recorded, and attaches the result to the
    /// report's `telemetry` section. A window so narrow that the series
    /// would pass [`MAX_SERIES_COUNTERS`](crate::MAX_SERIES_COUNTERS)
    /// fails the run.
    pub fn with_timeseries(mut self, window: u64) -> Self {
        self.timeseries = Some(window);
        self
    }

    /// Records wall-clock phase spans into `profiler`.
    pub fn with_profiler(mut self, profiler: Arc<PhaseProfiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Whether this config observes anything at all.
    pub fn is_active(&self) -> bool {
        self.sink.is_some() || self.timeseries.is_some() || self.profiler.is_some()
    }
}

impl fmt::Debug for TelemetryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryConfig")
            .field("sink", &self.sink.as_ref().map(|_| "<dyn TraceSink>"))
            .field("timeseries", &self.timeseries)
            .field(
                "profiler",
                &self.profiler.as_ref().map(|_| "<PhaseProfiler>"),
            )
            .finish()
    }
}

impl PartialEq for TelemetryConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_sink = match (&self.sink, &other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let same_profiler = match (&self.profiler, &other.profiler) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_sink && same_profiler && self.timeseries == other.timeseries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemorySink;

    #[test]
    fn equality_is_attachment_identity() {
        let sink: Arc<dyn TraceSink> = Arc::new(MemorySink::new());
        let a = TelemetryConfig::new().with_sink(Arc::clone(&sink));
        let b = TelemetryConfig::new().with_sink(Arc::clone(&sink));
        let c = TelemetryConfig::new().with_sink(Arc::new(MemorySink::new()));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, TelemetryConfig::new());
        assert!(!TelemetryConfig::new().is_active());
        assert!(a.is_active());
        assert!(TelemetryConfig::new().with_timeseries(500).is_active());
        let debug = format!("{a:?}");
        assert!(debug.contains("dyn TraceSink"));
    }
}
