//! A traced repetition must compute exactly what the untraced one does: the
//! timing wrappers forward every trait method, so the warm-start models
//! reach `fit_many` and the corner fan-out stays batched.

use perfbench::workloads::{identity_check, Sizes, Workload};

#[test]
fn traced_history_is_bit_identical_to_untraced_for_every_workload() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-identity");
    std::fs::create_dir_all(&dir).unwrap();
    for w in Workload::ALL {
        identity_check(w, &Sizes::tiny(), 7, &dir).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
