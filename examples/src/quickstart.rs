//! Quickstart: plan a multicast on a small heterogeneous cluster through
//! the unified planner facade, print the schedule tree, its timing, and an
//! execution Gantt chart.
//!
//! Run with `cargo run -p hnow-examples --bin quickstart`.

use hnow_core::planner::{self, PlanRequest};
use hnow_core::{lower_bound, stats};
use hnow_model::{MulticastSet, NetParams, NodeId, NodeSpec};
use hnow_sim::execute;

fn main() {
    // A nine-node cluster: one fast source, five fast destinations, three
    // slower legacy machines. Overheads are in abstract time units (think
    // tens of microseconds); the network latency is 2 units.
    let fast = NodeSpec::new(3, 4);
    let slow = NodeSpec::new(9, 15);
    let set = MulticastSet::new(fast, vec![fast, fast, fast, fast, fast, slow, slow, slow])
        .expect("valid multicast set");
    let net = NetParams::new(2);

    println!("cluster: {set}");
    println!("network: {net}");
    println!(
        "receive-send ratios: alpha_min = {:.2}, alpha_max = {:.2}, beta = {}",
        set.alpha_min(),
        set.alpha_max(),
        set.beta()
    );
    println!();

    // Plan with the paper's greedy algorithm plus the leaf refinement. All
    // planners answer the same request shape; see `compare_planners` for
    // the full registry.
    let request = PlanRequest::new(set.clone(), net);
    let plan = planner::find("greedy+leaf")
        .expect("the refined greedy planner is registered")
        .plan(&request)
        .expect("planning succeeds");
    println!("greedy schedule tree (children listed in delivery order):");
    print!("{}", plan.tree);
    println!();

    let s = stats(&plan.tree, &set, net).expect("complete schedule");
    println!("reception completion time R_T = {}", s.reception_completion);
    println!("delivery  completion time D_T = {}", s.delivery_completion);
    println!(
        "tree depth = {}, source fan-out = {}",
        s.depth, s.source_fanout
    );
    println!("layered: {}", s.layered);
    println!(
        "always-valid lower bound on OPT_R: {}",
        lower_bound(&set, net).value
    );
    println!();

    // Execute the plan on the discrete-event simulator and show the Gantt.
    let trace = execute(&plan.tree, &set, net).expect("execution succeeds");
    println!("execution trace:");
    println!("{}", trace.render_gantt(72));
    for id in set.destination_ids().take(3) {
        println!(
            "  {} delivered at {}, reception complete at {}",
            NodeId(id.index()),
            trace.delivery(id),
            trace.reception(id)
        );
    }
    println!("  ...");
    println!();

    // Because this cluster has only two distinct workstation types, the
    // Theorem 2 dynamic program gives the exact optimum to compare against.
    let optimum = planner::find("dp-optimal")
        .expect("the DP planner is registered")
        .plan(&request)
        .expect("planning succeeds");
    assert!(optimum.proven_optimal);
    println!(
        "exact optimum (Theorem 2 DP): {}  —  greedy is within {:.1}% of it",
        optimum.reception_completion(),
        (s.reception_completion.as_f64() / optimum.reception_completion().as_f64() - 1.0) * 100.0
    );
}
