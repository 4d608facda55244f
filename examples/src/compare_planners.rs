//! The planner registry at a glance: capability metadata for every
//! registered algorithm, a head-to-head comparison on the paper's Figure 1
//! instance, and a batched sweep over a small heterogeneous cluster.
//!
//! Run with `cargo run -p hnow-examples --bin compare_planners [destinations]`.

use hnow_core::planner::{self, supporting_planners, PlanRequest};
use hnow_core::{lower_bound, theorem1_bound};
use hnow_experiments::comparison::{run_sweep, table, DEFAULT_PLANNERS};
use hnow_model::{MulticastSet, NetParams, NodeSpec};
use hnow_workload::Sweep;

fn main() {
    let destinations: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);

    println!("== Registered planners ==\n");
    println!(
        "{:<14} {:<28} {:>6} {:>8}  summary",
        "name", "kind", "max n", "max k"
    );
    for p in planner::registry() {
        let c = p.capabilities();
        let fmt_limit = |l: Option<usize>| l.map_or("-".to_string(), |v| v.to_string());
        println!(
            "{:<14} {:<28} {:>6} {:>8}  {}",
            p.name(),
            format!("{:?}", c.kind),
            fmt_limit(c.max_destinations),
            fmt_limit(c.max_distinct_types),
            c.summary
        );
    }

    println!("\n== Head-to-head on the paper's Figure 1 instance ==\n");
    let slow = NodeSpec::new(2, 3);
    let fast = NodeSpec::new(1, 1);
    let set = MulticastSet::new(slow, vec![fast, fast, fast, slow]).expect("valid instance");
    let request = PlanRequest::new(set, NetParams::new(1)).with_seed(7);
    let lb = lower_bound(&request.set, request.net);
    println!(
        "{:<14} {:>5} {:>5} {:>8} {:>10}  theorem-1 rhs",
        "planner", "R_T", "D_T", "proven", "lower bnd"
    );
    for p in supporting_planners(&request.set) {
        let plan = p.plan(&request).expect("planning succeeds");
        println!(
            "{:<14} {:>5} {:>5} {:>8} {:>10}  {:.1}",
            plan.planner,
            plan.reception_completion().raw(),
            plan.delivery_completion().raw(),
            if plan.proven_optimal { "yes" } else { "no" },
            lb.value.raw(),
            theorem1_bound(&request.set, plan.reception_completion())
        );
    }

    println!("\n== Batched sweep: slow-node fraction on a {destinations}-destination cluster ==\n");
    let sweep = Sweep::over_slow_fraction(
        destinations,
        &[0.0, 0.25, 0.5, 0.75, 1.0],
        4,
        0xC0DE ^ destinations as u64,
    );
    let points = run_sweep(&sweep, &DEFAULT_PLANNERS, 7);
    println!(
        "{}",
        table("slow fraction", &points, &DEFAULT_PLANNERS).to_markdown()
    );
    println!(
        "all {} planners above were driven through hnow_core::planner::plan_many — \
         one request shape, no per-algorithm dispatch",
        DEFAULT_PLANNERS.len()
    );
}
