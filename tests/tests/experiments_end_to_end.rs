//! Smoke test: the full experiment suite (reduced scale) runs end to end,
//! every headline claim holds, and the deterministic tables match
//! `tests/golden/experiments.md` byte for byte.
//!
//! E2 and E11 report wall-clock running times, so they are left out of the
//! golden. To accept an intended change to the other tables, regenerate it
//! with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hnow-integration --test experiments_end_to_end
//! ```
//!
//! and review the diff.

use hnow_experiments::{render_markdown, run_all};
use std::path::PathBuf;

/// Experiments whose tables or headlines carry wall-clock readings.
const TIMED: [&str; 2] = ["E2", "E11"];

#[test]
fn all_experiments_run_and_report() {
    let reports = run_all(0xE2E);
    assert_eq!(reports.len(), 13);
    let md = render_markdown(&reports);
    // Every experiment id appears.
    for id in [
        "E1", "E2", "E3", "E4+E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14",
    ] {
        assert!(md.contains(&format!("## {id}")), "missing {id}");
    }
    // The Figure 1 headline carries the paper's numbers.
    let e1 = &reports[0];
    assert!(e1.headline.contains("(a) = 10"));
    assert!(e1.headline.contains("(b) = 9"));
    // No experiment reports violations in its headline.
    let e3 = reports.iter().find(|r| r.id == "E3").unwrap();
    assert!(!e3.headline.contains("violat") || e3.headline.contains("held"));
    let e9 = reports.iter().find(|r| r.id == "E9").unwrap();
    assert!(e9.headline.contains("yes"));

    let pinned: Vec<_> = reports
        .into_iter()
        .filter(|r| !TIMED.contains(&r.id))
        .collect();
    assert_eq!(pinned.len(), 11);
    compare_golden("experiments.md", &render_markdown(&pinned));
}

/// Compares `text` with `tests/golden/<file>`, or rewrites the file under
/// `UPDATE_GOLDEN=1`.
fn compare_golden(file: &str, text: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", file]
        .iter()
        .collect();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "{}: {err}; run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if golden != text {
        let line = golden
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(text.lines().count()));
        panic!(
            "{file} differs from {} at line {}: golden {:?}, now {:?}; \
             rerun with UPDATE_GOLDEN=1 and review the diff if the change is intended",
            path.display(),
            line + 1,
            golden.lines().nth(line),
            text.lines().nth(line)
        );
    }
}
