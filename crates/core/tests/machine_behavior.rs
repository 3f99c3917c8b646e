//! Cross-crate behavioral tests: the machine's loops must *fire* and
//! *recover* the way the paper describes, observable through statistics.

use looseloops::isa::asm;
use looseloops::mem::{PrefetchConfig, TlbMissPolicy};
use looseloops::workload::{synthetic, SyntheticParams};
use looseloops::{
    loop_inventory, Benchmark, FaultPlan, LoadSpecPolicy, Machine, PipelineConfig, RegisterScheme,
    RunBudget, SimStats, Workload,
};

fn small() -> RunBudget {
    RunBudget {
        warmup: 2_000,
        measure: 15_000,
        max_cycles: 4_000_000,
    }
}

/// `b` on `cfg` at the small budget.
fn run(cfg: &PipelineConfig, b: Benchmark) -> SimStats {
    Workload::Single(b)
        .try_run(cfg, small())
        .expect("the run completes")
}

#[test]
fn branch_resolution_loop_fires_on_branchy_code() {
    let s = run(&PipelineConfig::base(), Benchmark::Go);
    assert!(s.branches > 1_000, "go is branch-dominated");
    assert!(
        s.branch_mispredict_rate() > 0.05,
        "go's branches are data-dependent"
    );
    assert!(s.branch_squashes > 100);
    assert!(s.squashed > 1_000, "wrong-path work must be squashed");
}

#[test]
fn load_resolution_loop_fires_on_missy_code() {
    let s = run(&PipelineConfig::base(), Benchmark::Swim);
    assert!(s.loads > 2_000);
    assert!(s.load_miss_rate() > 0.02, "swim streams past L1");
    assert!(
        s.load_replays > 0,
        "missed loads replay their issued dependents"
    );
}

#[test]
fn stall_policy_never_replays() {
    let cfg = PipelineConfig {
        load_policy: LoadSpecPolicy::Stall,
        ..PipelineConfig::base()
    };
    let s = run(&cfg, Benchmark::Swim);
    assert_eq!(s.load_replays, 0);
    assert_eq!(s.shadow_replays, 0);
}

#[test]
fn shadow_policy_replays_more_than_tree() {
    let tree = run(&PipelineConfig::base(), Benchmark::Swim);
    let cfg = PipelineConfig {
        load_policy: LoadSpecPolicy::ReissueShadow,
        ..PipelineConfig::base()
    };
    let shadow = run(&cfg, Benchmark::Swim);
    assert!(
        shadow.load_replays + shadow.shadow_replays > tree.load_replays,
        "21264-style shadow kill wastes more work: {} vs {}",
        shadow.load_replays + shadow.shadow_replays,
        tree.load_replays
    );
}

#[test]
fn operand_resolution_loop_exists_only_under_dra() {
    let base = run(&PipelineConfig::base_for_rf(5), Benchmark::Apsi);
    assert_eq!(base.operand_misses, 0);
    let dra = run(&PipelineConfig::dra_for_rf(5), Benchmark::Apsi);
    assert!(
        dra.operand_misses > 0,
        "apsi is the DRA's pathological case"
    );
    assert!(dra.operand_miss_rate() > 0.001);
    assert!(dra.operand_replays > 0);
}

#[test]
fn dra_never_uses_the_iq_ex_register_read() {
    let s = run(&PipelineConfig::dra_for_rf(3), Benchmark::Gcc);
    assert_eq!(s.operand_sources[3], 0, "no RegFile-path reads under DRA");
    assert!(s.operand_sources[0] > 0, "pre-reads happen");
    assert!(s.operand_sources[1] > 0, "forwarding happens");
    assert!(s.operand_sources[2] > 0, "the CRCs are used");
}

#[test]
fn tlb_traps_fire_for_page_hungry_code() {
    let s = run(&PipelineConfig::base(), Benchmark::Turb3d);
    assert!(s.tlb_traps > 0, "turb3d's long strides must trap the dTLB");
}

#[test]
fn tlb_penalty_policy_avoids_traps() {
    let mut cfg = PipelineConfig::base();
    cfg.mem.dtlb.miss_policy = TlbMissPolicy::Penalty(30);
    let s = run(&cfg, Benchmark::Turb3d);
    assert_eq!(s.tlb_traps, 0);
}

#[test]
fn memory_order_violation_trains_the_store_wait_table() {
    // A store whose address depends on a slow multiply chain, followed by a
    // load to the same address: the load speculates past the store, the
    // store detects the violation, and the second encounter waits.
    let prog = asm::assemble(
        "
            addi r1, r31, 0x4000
            addi r9, r31, 3
        top:
            mul  r2, r9, r9      ; slow address math
            mul  r2, r2, r9
            andi r2, r2, 0       ; ... which is always 0
            add  r2, r2, r1
            addi r3, r3, 1
            stq  r3, 0(r2)       ; store to 0x4000
            ldq  r4, 0(r1)       ; load from 0x4000 — races the store
            add  r5, r5, r4
            addi r6, r6, 1
            slti r7, r6, 2000
            bne  r7, top
            halt
    ",
    )
    .unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 2_000_000).unwrap();
    assert!(m.is_done());
    assert!(
        m.stats().mem_order_traps > 0,
        "the race must trap at least once"
    );
    // The store-wait table keeps re-trapping bounded: far fewer traps than
    // iterations.
    assert!(
        m.stats().mem_order_traps < 200,
        "store-wait prediction must stop repeat offenders, got {}",
        m.stats().mem_order_traps
    );
}

#[test]
fn a_window_after_reset_stats_counts_only_itself() {
    // A DRA machine with a prefetcher under a fault storm, so every count
    // a structure keeps (caches, TLB, banks, MSHRs, prefetches, IQ
    // occupancy, line predictor, insertion tables, faults) has work.
    let mut cfg = PipelineConfig::dra_for_rf(5);
    cfg.mem.prefetch = Some(PrefetchConfig::default());
    cfg.faults = Some(FaultPlan {
        seed: 7,
        branch_flip_rate: 0.05,
        load_spike_rate: 0.05,
        load_spike_cycles: 60,
        operand_miss_rate: 0.05,
        window: None,
    });
    let w = Workload::Single(Benchmark::Swim);
    let mut m = Machine::new(w.config_for(&cfg), w.programs()).expect("valid config");
    let warm = m.run(20_000, 4_000_000).expect("warm-up runs").clone();
    let counted: Vec<&str> = warm
        .counters()
        .into_iter()
        .filter(|(_, slots)| slots.iter().all(|&v| v > 0))
        .map(|(name, _)| name)
        .collect();
    for name in [
        "l1i_hits",
        "l1d_misses",
        "l2_hits",
        "dtlb_misses",
        "bank_conflicts",
        "mshr_waits",
        "prefetches",
        "line_pred_wrong",
        "insertion_saturations",
        "faults_by_kind",
    ] {
        assert!(counted.contains(&name), "the warm-up counts no {name}");
    }
    assert!(warm.iq_peak > 0 && warm.iq_occupancy_mean > 0.0);
    m.reset_stats();
    let s = m.run(0, 4_000_000).expect("an empty window");
    for (name, slots) in s.counters() {
        assert!(slots.iter().all(|&v| v == 0), "{name} = {slots:?}");
    }
    assert_eq!(
        (s.iq_occupancy_mean, s.iq_post_issue_mean, s.iq_peak),
        (0.0, 0.0, 0)
    );
}

#[test]
fn loop_inventory_matches_machine_shape() {
    for cfg in [PipelineConfig::base(), PipelineConfig::dra_for_rf(5)] {
        let loops = loop_inventory(&cfg);
        let has_op = loops.iter().any(|l| l.name == "operand resolution");
        assert_eq!(has_op, matches!(cfg.scheme, RegisterScheme::Dra { .. }));
        // Tight loops are exactly next-line prediction and forwarding.
        let tight: Vec<_> = loops
            .iter()
            .filter(|l| l.is_tight())
            .map(|l| l.name)
            .collect();
        assert_eq!(tight, ["next line prediction", "forwarding"]);
    }
}

#[test]
fn smt_beats_the_worse_member_under_mispredict_pressure() {
    // go alone wastes huge fetch bandwidth on wrong paths; paired with the
    // well-behaved su2cor, total throughput must beat go alone.
    let go = run(&PipelineConfig::base(), Benchmark::Go).ipc();
    let pair = Workload::Pair(Benchmark::pairs()[1]) // go-su2cor
        .try_run(&PipelineConfig::base(), small())
        .expect("the run completes");
    assert!(
        pair.ipc() > go,
        "SMT pair throughput {} must exceed go alone {}",
        pair.ipc(),
        go
    );
}

#[test]
fn synthetic_branch_knob_controls_mispredicts() {
    let base = SyntheticParams {
        branches: 0,
        ..SyntheticParams::default()
    };
    let branchy = SyntheticParams {
        branches: 6,
        taken_bits: 1,
        ..SyntheticParams::default()
    };
    let cfg = PipelineConfig::base();
    let run = |p| {
        let prog = synthetic(p);
        let mut m = Machine::new(cfg.clone(), vec![prog]).unwrap();
        m.run(10_000, 2_000_000).unwrap();
        m.stats().branch_mispredict_rate()
    };
    assert!(run(branchy) > run(base) + 0.05);
}

#[test]
fn memory_barrier_drains_the_pipe() {
    let prog = asm::assemble(
        "
            addi r1, r31, 200
        top:
            addi r2, r2, 1
            mb
            addi r3, r3, 1
            subi r1, r1, 1
            bne  r1, top
            halt
    ",
    )
    .unwrap();
    let mut m = Machine::new(PipelineConfig::base(), vec![prog]).unwrap();
    m.enable_verification();
    m.run(u64::MAX, 1_000_000).unwrap();
    assert!(m.is_done());
    assert_eq!(m.stats().mem_barriers, 200);
    // Each barrier costs roughly a pipeline drain; IPC collapses.
    assert!(
        m.stats().ipc() < 1.0,
        "barriers must hurt: ipc={}",
        m.stats().ipc()
    );
}
