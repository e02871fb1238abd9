//! Checkpoint/resume integration suite: a resumed run must continue
//! bit-identically — same future suggestions, same evaluations, same refit
//! bookkeeping — whatever the snapshot straddles (fixed-cadence windows,
//! drift windows with incrementally-updated surrogates, JSON round-trips).

use nnbo_core::problems::{ConstrainedBranin, Hartmann6};
use nnbo_core::{BayesOpt, BoConfig, BoError, BoSnapshot, EnsembleConfig, Problem, RefitPolicy};
use serde::{Deserialize, Serialize, Value};

fn driver(config: BoConfig) -> BayesOpt<nnbo_core::NeuralGpEnsembleTrainer> {
    BayesOpt::neural_with(config, EnsembleConfig::fast())
}

/// Runs to completion twice — once uninterrupted, once snapshotted (through
/// JSON) after `pause_after` model-guided steps — and asserts bit-identity.
fn assert_resume_transparent(config: BoConfig, problem: &dyn Problem, pause_after: usize) {
    let bo = driver(config.clone());
    let reference = bo.run(problem).unwrap();

    let mut state = bo.start(problem).unwrap();
    for _ in 0..pause_after {
        assert!(bo.step(problem, &mut state).unwrap());
    }
    let snap = BoSnapshot::from_json(&bo.snapshot(&state).to_json()).unwrap();

    // A fresh driver (as a new process would build) resumes the checkpoint.
    let bo2 = driver(config);
    let mut resumed = bo2.resume(&snap).unwrap();
    while bo2.step(problem, &mut resumed).unwrap() {}
    let result = bo2.finish(resumed);

    assert_eq!(result.evaluations(), reference.evaluations());
    assert_eq!(result.full_refits(), reference.full_refits());
    assert_eq!(result.recovery(), reference.recovery());
}

#[test]
fn resume_is_transparent_under_fixed_cadence() {
    // Cadence 3: pause points cover a just-refitted state (step 1), the
    // middle of an incremental window (step 2) and a window boundary.
    for pause in [1, 2, 3, 5] {
        assert_resume_transparent(
            BoConfig::fast(6, 14)
                .with_seed(41)
                .with_refit_policy(RefitPolicy::Fixed(3)),
            &ConstrainedBranin::new(),
            pause,
        );
    }
}

#[test]
fn resume_is_transparent_mid_drift_window() {
    // An effectively-infinite drift threshold pins the loop to the
    // incremental path after the first full fit, so every pause point ≥ 2
    // lands mid-drift-window: the snapshot must carry the incrementally
    // updated surrogates and the NLL drift reference exactly.
    let config = BoConfig::fast(6, 14)
        .with_seed(19)
        .with_refit_policy(RefitPolicy::NllDrift {
            threshold: 1e9,
            min_gap: 1,
            max_gap: 100,
        });
    let bo = driver(config.clone());
    let mut state = bo.start(&ConstrainedBranin::new()).unwrap();
    for _ in 0..4 {
        assert!(bo.step(&ConstrainedBranin::new(), &mut state).unwrap());
    }
    // One full fit so far — everything since ran on the incremental path.
    assert_eq!(state.full_refits(), 1);

    for pause in [2, 4, 6] {
        assert_resume_transparent(config.clone(), &ConstrainedBranin::new(), pause);
    }
}

#[test]
fn resume_is_transparent_with_a_real_drift_threshold() {
    // A realistic threshold interleaves incremental updates and drift-timed
    // full refits; the pause points straddle both.
    for pause in [1, 3, 5] {
        assert_resume_transparent(
            BoConfig::fast(6, 14)
                .with_seed(29)
                .with_refit_policy(RefitPolicy::nll_drift(0.25)),
            &ConstrainedBranin::new(),
            pause,
        );
    }
}

#[test]
fn resume_is_transparent_on_unconstrained_problems() {
    assert_resume_transparent(BoConfig::fast(8, 14).with_seed(3), &Hartmann6::new(), 2);
}

#[test]
fn snapshot_before_any_step_resumes_the_whole_guided_phase() {
    let problem = ConstrainedBranin::new();
    assert_resume_transparent(BoConfig::fast(6, 12).with_seed(57), &problem, 0);
}

/// Rewrites every hex `Matrix` payload in a value tree as the array of
/// decimal floats that version-2 checkpoints stored.
fn to_float_array_matrices(value: &mut Value) {
    match value {
        Value::Map(fields) => {
            for (key, item) in fields.iter_mut() {
                match item {
                    Value::Str(hex) if key == "data" => {
                        let floats = hex
                            .as_bytes()
                            .chunks(16)
                            .map(|d| std::str::from_utf8(d).unwrap())
                            .map(|d| f64::from_bits(u64::from_str_radix(d, 16).unwrap()))
                            .map(Value::F64)
                            .collect();
                        *item = Value::Seq(floats);
                    }
                    _ => to_float_array_matrices(item),
                }
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(to_float_array_matrices),
        _ => {}
    }
}

#[test]
fn version_2_checkpoints_are_refused() {
    let problem = ConstrainedBranin::new();
    let bo = driver(BoConfig::fast(6, 12).with_seed(23));
    let mut state = bo.start(&problem).unwrap();
    assert!(bo.step(&problem, &mut state).unwrap());
    let json = bo.snapshot(&state).to_json();
    assert!(json.starts_with(r#"{"version":3,"#), "{}", &json[..20]);

    // A checkpoint labelled version 2 parses but does not resume.
    let v2 = BoSnapshot::from_json(&json.replacen("3", "2", 1)).unwrap();
    assert_eq!(v2.version(), 2);
    assert!(matches!(
        bo.resume(&v2),
        Err(BoError::SnapshotMismatch { .. })
    ));

    // The version-2 matrix layout under a forged version-3 label is refused
    // as a model payload, not decoded into a wrong model.
    let mut tree = bo.snapshot(&state).to_value();
    to_float_array_matrices(&mut tree);
    let forged = BoSnapshot::from_value(&tree).unwrap();
    assert_eq!(forged.version(), 3);
    match bo.resume(&forged) {
        Err(BoError::SnapshotMismatch { details }) => {
            assert!(details.contains("model payload"), "{details}")
        }
        other => panic!("expected SnapshotMismatch, got {:?}", other.map(|_| ())),
    }
}
