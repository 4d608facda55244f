//! Multicast schedule representation, timing and transformations.

pub mod compose;
pub mod ops;
pub mod repair;
pub mod times;
pub mod tree;
pub mod validate;

pub use compose::{compose, ComposedSchedule};
pub use ops::refine_leaves;
pub use repair::{RepairPlacement, REPAIR_PLACEMENTS};
pub use times::{
    delivery_completion, evaluate, evaluate_with_specs, reception_completion, ScheduleTiming,
};
pub use tree::ScheduleTree;
pub use validate::{is_layered, is_layered_with_timing, validate};
