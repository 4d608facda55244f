//! Runs the full experiment suite (E1–E14) and prints the markdown report
//! that forms the body of `EXPERIMENTS.md`.
//!
//! Run with `cargo run -p hnow-examples --bin experiments_report [seed]`.

use hnow_experiments::{render_markdown, run_all};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0xC0FFEE);
    let reports = run_all(seed);
    println!("{}", render_markdown(&reports));
}
