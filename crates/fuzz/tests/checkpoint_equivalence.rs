//! Fast-forward equivalence gate: every corpus reproducer must reach the
//! same architectural end state whether it is simulated in detail from
//! cycle 0 or functionally fast-forwarded half-way and resumed in detail
//! from a checkpoint.
//!
//! The corpus programs are shrunk adversarial cases — short, branchy, and
//! historically good at exposing pipeline/oracle drift — which makes them
//! a sharper probe of the checkpoint restore path than the benchmark
//! proxies. The resumed machine runs with ISA verification on, so the
//! post-resume retire stream is checked instruction-by-instruction, not
//! just at the final state.

use looseloops::checkpoint::{capture_checkpoint, restore_into, Checkpoint};
use looseloops::Machine;
use looseloops_fuzz::{corpus, FuzzCase};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

#[test]
fn corpus_cases_survive_fast_forward_then_detailed_resume() {
    let entries = corpus::load_dir(&corpus_dir()).expect("corpus must load");
    assert!(!entries.is_empty());
    let mut resumed_cases = 0;
    for entry in entries {
        let case = &entry.case;

        // Reference: fully detailed from cycle 0.
        let mut reference = Machine::new(case.config.clone(), case.programs.clone())
            .expect("corpus config must construct");
        reference
            .run(u64::MAX, case.max_cycles)
            .unwrap_or_else(|e| panic!("`{}` detailed run failed: {e}", entry.name));
        assert!(reference.is_done(), "`{}` did not halt", entry.name);
        let total = reference.stats().total_retired();
        if total < 4 {
            continue; // nothing worth fast-forwarding over
        }

        // Fast-forward half the work functionally, resume in detail with
        // the ISA oracle checking every post-resume retirement.
        let ckpt = capture_checkpoint(&case.config, case.programs.clone(), total / 2)
            .unwrap_or_else(|e| panic!("`{}` functional warm-up failed: {e}", entry.name));
        let mut resumed = Machine::new(case.config.clone(), case.programs.clone()).unwrap();
        restore_into(&mut resumed, &ckpt)
            .unwrap_or_else(|e| panic!("`{}` restore failed: {e}", entry.name));
        resumed.enable_verification();
        resumed
            .run(u64::MAX, case.max_cycles)
            .unwrap_or_else(|e| panic!("`{}` resumed run diverged: {e}", entry.name));
        assert!(resumed.is_done(), "`{}` resume did not halt", entry.name);

        // The functional prefix plus the detailed suffix must cover the
        // whole retire stream exactly once.
        assert_eq!(
            ckpt.instructions + resumed.stats().total_retired(),
            total,
            "`{}`: fast-forwarded {} + resumed {} != detailed {}",
            entry.name,
            ckpt.instructions,
            resumed.stats().total_retired(),
            total
        );

        // Final architectural state and memory must be bit-identical to
        // the reference — checkpoints may not leak into architecture.
        for t in 0..case.programs.len() {
            let d = reference.arch_state(t).diff(&resumed.arch_state(t));
            assert!(
                d.is_empty(),
                "`{}` thread {t} end-state drift: {}",
                entry.name,
                d.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
        let md = reference.data_mem().diff(resumed.data_mem());
        assert!(
            md.is_empty(),
            "`{}` memory drift: {}",
            entry.name,
            md.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        resumed_cases += 1;
    }
    assert!(
        resumed_cases >= 3,
        "only {resumed_cases} corpus cases exercised the resume path"
    );
}

#[test]
fn checkpoints_round_trip_byte_identically_over_generated_programs() {
    // Serialization property check: encode → decode → re-encode must be
    // the identity on bytes. Driven by the corpus (shrunk adversarial
    // cases) plus a band of freshly generated fuzz cases, so the format
    // is exercised across varied predictors, policies, thread counts,
    // and memory footprints.
    let mut cases: Vec<(String, FuzzCase)> = corpus::load_dir(&corpus_dir())
        .expect("corpus must load")
        .into_iter()
        .map(|e| (e.name, e.case))
        .collect();
    cases.extend((0..24u64).map(|seed| (format!("seed-{seed}"), FuzzCase::from_seed(seed, None))));
    for (name, case) in cases {
        let ckpt = capture_checkpoint(&case.config, case.programs.clone(), 64)
            .unwrap_or_else(|e| panic!("`{name}` warm-up failed: {e}"));
        let bytes = ckpt.encode(&name);
        let (key, back) =
            Checkpoint::decode(&bytes).unwrap_or_else(|e| panic!("`{name}` decode failed: {e}"));
        assert_eq!(key, name);
        assert_eq!(
            bytes,
            back.encode(&name),
            "`{name}`: checkpoint encoding is not a fixed point"
        );
    }
}
