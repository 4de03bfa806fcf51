//! Tier-1 event-vs-lockstep oracle: replays the full fuzz corpus in both
//! scheduler modes and demands bit-identical results.
//!
//! The event-driven scheduler ([`axi_pack::SchedMode::Event`]) may
//! fast-forward across provably idle spans, but nothing observable is
//! allowed to change: completion cycles, the final backing store, every
//! report counter and every utilization ratio must match a lockstep run
//! exactly. This suite replays every [`SEED_CORPUS`] entry solo on all
//! three system kinds and as a 2-requestor shared-bus topology, once per
//! mode, and compares everything.
//!
//! The run loop additionally parks blocked engines on their leaf FIFOs
//! and sleeps blocked muxes in event mode. The fabric grid below holds
//! that to the same oracle over every fabric shape, the deep and wide
//! trees over five levels and eight-port muxes, and the hang tests pin
//! the watchdog signature, which counts parked engines' owed scalar
//! stalls.

use std::sync::Arc;

use axi_pack::differential::SEED_CORPUS;
use axi_pack::{
    run_kernel_probed, run_system, run_system_probed, FabricSpec, Requestor, RunError, RunProbe,
    RunReport, SchedMode, SystemConfig, Topology,
};
use simkit::fault::{FaultSpec, HangReport};
use vproc::{Program, ProgramBuilder, SystemKind};
use workloads::kernel::Check;
use workloads::{gemv, scatter, spmv, synth, CsrMatrix, Dataflow, Kernel};

const KINDS: [SystemKind; 3] = [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal];

fn system(kind: SystemKind, sched: SchedMode) -> SystemConfig {
    let mut sys = SystemConfig::with_bus(kind, 128);
    sys.max_cycles = 20_000_000;
    sys.sched = sched;
    sys
}

/// Panics on the first field where the two reports differ. Floats are
/// compared by bit pattern: the oracle demands exactness, not tolerance.
fn assert_reports_identical(ev: &RunReport, lk: &RunReport, ctx: &str) {
    assert_eq!(ev.cycles, lk.cycles, "{ctx}: cycles");
    assert_eq!(ev.r_util.to_bits(), lk.r_util.to_bits(), "{ctx}: r_util");
    assert_eq!(
        ev.r_util_no_idx.to_bits(),
        lk.r_util_no_idx.to_bits(),
        "{ctx}: r_util_no_idx"
    );
    assert_eq!(ev.r_busy.to_bits(), lk.r_busy.to_bits(), "{ctx}: r_busy");
    assert_eq!(
        ev.data_mismatches, lk.data_mismatches,
        "{ctx}: data_mismatches"
    );
    assert_eq!(
        ev.ar_stall_cycles, lk.ar_stall_cycles,
        "{ctx}: ar_stall_cycles"
    );
    assert_eq!(
        ev.w_stall_cycles, lk.w_stall_cycles,
        "{ctx}: w_stall_cycles"
    );
    assert_eq!(
        ev.bank_conflicts, lk.bank_conflicts,
        "{ctx}: bank_conflicts"
    );
    assert_eq!(ev.activity, lk.activity, "{ctx}: activity");
    assert_eq!(
        ev.power_mw.to_bits(),
        lk.power_mw.to_bits(),
        "{ctx}: power_mw"
    );
    assert_eq!(
        ev.energy_uj.to_bits(),
        lk.energy_uj.to_bits(),
        "{ctx}: energy_uj"
    );
}

#[test]
fn corpus_solo_runs_agree_across_modes() {
    let max_vl = system(SystemKind::Pack, SchedMode::Event)
        .kernel_params()
        .max_vl;
    let mut skipped = 0u64;
    for case in SEED_CORPUS {
        let built = synth::build_kinds(case.seed, &case.cfg, max_vl, &KINDS);
        for (kind, sk) in KINDS.iter().zip(built) {
            let ctx = format!("seed {} on {kind}", case.seed);
            let mut ev_probe = RunProbe::default();
            let ev = run_kernel_probed(&system(*kind, SchedMode::Event), &sk.kernel, &mut ev_probe)
                .unwrap_or_else(|e| panic!("{ctx}: event run failed: {e}"));
            let mut lk_probe = RunProbe::default();
            let lk = run_kernel_probed(
                &system(*kind, SchedMode::Lockstep),
                &sk.kernel,
                &mut lk_probe,
            )
            .unwrap_or_else(|e| panic!("{ctx}: lockstep run failed: {e}"));
            assert_eq!(
                lk_probe.sched.skip_spans, 0,
                "{ctx}: lockstep mode must never fast-forward"
            );
            assert_eq!(
                ev_probe.storage_digest, lk_probe.storage_digest,
                "{ctx}: final memory differs between modes"
            );
            assert_reports_identical(&ev, &lk, &ctx);
            skipped += ev_probe.sched.skipped_cycles;
        }
    }
    assert!(
        skipped > 0,
        "event mode never fast-forwarded across the whole corpus — the scheduler is not engaged"
    );
}

#[test]
fn corpus_topologies_agree_across_modes() {
    let max_vl = system(SystemKind::Pack, SchedMode::Event)
        .kernel_params()
        .max_vl;
    for case in SEED_CORPUS {
        let kinds = [SystemKind::Pack, SystemKind::Base];
        let built = synth::build_kinds(case.seed, &case.cfg, max_vl, &kinds);
        let requestors: Vec<Requestor> = kinds
            .iter()
            .zip(&built)
            .map(|(&kind, sk)| Requestor::new(kind, sk.kernel.clone()))
            .collect();
        let run = |sched: SchedMode| {
            let topo = Topology::builder(&system(SystemKind::Pack, sched))
                .requestors(requestors.clone())
                .build()
                .unwrap_or_else(|e| panic!("seed {}: topology not DRC-clean: {e}", case.seed));
            let mut probe = RunProbe::default();
            let report = run_system_probed(&topo, &mut probe)
                .unwrap_or_else(|e| panic!("seed {} ({sched}): topology failed: {e}", case.seed));
            (report, probe)
        };
        let (ev, ev_probe) = run(SchedMode::Event);
        let (lk, lk_probe) = run(SchedMode::Lockstep);
        let ctx = format!("seed {} shared-bus", case.seed);
        assert_eq!(
            lk_probe.sched.skip_spans, 0,
            "{ctx}: lockstep mode must never fast-forward"
        );
        assert_eq!(ev.cycles, lk.cycles, "{ctx}: completion cycles");
        assert_eq!(
            ev_probe.storage_digest, lk_probe.storage_digest,
            "{ctx}: shared store differs between modes"
        );
        assert_eq!(
            ev.bus_r_busy.to_bits(),
            lk.bus_r_busy.to_bits(),
            "{ctx}: bus_r_busy"
        );
        assert_eq!(
            ev.bus_r_util.to_bits(),
            lk.bus_r_util.to_bits(),
            "{ctx}: bus_r_util"
        );
        assert_eq!(
            ev.bank_conflicts, lk.bank_conflicts,
            "{ctx}: bank_conflicts"
        );
        assert_eq!(ev.word_accesses, lk.word_accesses, "{ctx}: word_accesses");
        for (r, (e, l)) in ev.requestors.iter().zip(&lk.requestors).enumerate() {
            assert_reports_identical(e, l, &format!("{ctx}, requestor {r}"));
        }
    }
}

/// Two loads, then ten reductions (each with the full reduction tail)
/// interleaved with chained computes: more vector instructions than the
/// engine's 16-entry window holds, with computes that retire ahead of the
/// older reductions still in their tails.
fn window_kernel() -> Kernel {
    let a: Vec<f32> = (0..64).map(|k| k as f32).collect();
    let b: Vec<f32> = (0..64).map(|k| 1.0 + (k % 5) as f32).collect();
    let mut p = ProgramBuilder::new()
        .set_vl(64)
        .vle(1, 0x0)
        .vle(2, 0x1000)
        .vfmul(3, 1, 2);
    for k in 0..10u8 {
        p = p.vfredsum(12 + k, 1).vfadd(4 + k % 2, 3 + k % 2, 2);
    }
    for k in 0..10u8 {
        p = p.scalar_store_f32(12 + k, 0x4000 + 4 * u64::from(k));
    }
    let bytes = |v: &[f32]| -> Arc<[u8]> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let check = |addr, values: Vec<f32>, label: &str| Check {
        addr,
        values: values.into(),
        label: label.into(),
    };
    let sum: f32 = a.iter().sum();
    let v4: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x * y + y).collect();
    Kernel {
        name: "window".into(),
        image: vec![(0x0, bytes(&a)), (0x1000, bytes(&b))],
        storage_size: 0x6000,
        program: Arc::new(p.vse(4, 0x5000).build()),
        expected: vec![
            check(0x4000, vec![sum; 10], "reductions"),
            check(0x5000, v4, "chain"),
        ],
        read_only_streams: true,
        useful_bytes: 3 * 64 * 4,
    }
}

#[test]
fn a_full_window_with_out_of_order_retirement_agrees_across_modes() {
    let kernel = window_kernel();
    for kind in KINDS {
        let ctx = format!("window kernel on {kind}");
        let mut ev_probe = RunProbe::default();
        let ev = run_kernel_probed(&system(kind, SchedMode::Event), &kernel, &mut ev_probe)
            .unwrap_or_else(|e| panic!("{ctx}: event run failed: {e}"));
        let mut lk_probe = RunProbe::default();
        let lk = run_kernel_probed(&system(kind, SchedMode::Lockstep), &kernel, &mut lk_probe)
            .unwrap_or_else(|e| panic!("{ctx}: lockstep run failed: {e}"));
        assert_eq!(
            ev_probe.storage_digest, lk_probe.storage_digest,
            "{ctx}: final memory differs between modes"
        );
        assert_reports_identical(&ev, &lk, &ctx);
        assert_eq!(format!("{ev:?}"), format!("{lk:?}"), "{ctx}: report");
        assert!(
            ev_probe.sched.skipped_cycles > 0,
            "{ctx}: the reduction tails were never skipped"
        );
    }
}

/// Six small requestors of one kind: row-wise gemv (reductions blocking
/// scalar stores), indirect spmv (index traffic) and scatter (AW and W
/// traffic), twice over, so loads, stores and scalar stores all meet
/// back-pressure somewhere in the tree.
fn mixed_requestors(kind: SystemKind) -> Vec<Requestor> {
    let p = SystemConfig::paper(kind).kernel_params();
    (0..6u64)
        .map(|i| {
            let kernel = match i % 3 {
                0 => gemv::build(16, 40 + i, Dataflow::RowWise, &p),
                1 => spmv::build(&CsrMatrix::random(12, 48, 5.0, 50 + i), 60 + i, &p),
                _ => scatter::build(96, 1.5, 70 + i, &p),
            };
            Requestor::new(kind, kernel)
        })
        .collect()
}

fn fabric_topology(
    kind: SystemKind,
    fabric: FabricSpec,
    sched: SchedMode,
    requestors: Vec<Requestor>,
) -> Topology {
    let mut sys = SystemConfig::paper(kind);
    sys.sched = sched;
    sys.max_cycles = 2_000_000;
    Topology::builder(&sys)
        .requestors(requestors)
        .fabric(fabric)
        .build()
        .unwrap_or_else(|e| panic!("{kind} {fabric:?}: not DRC-clean: {e}"))
}

#[test]
fn fabric_grid_agrees_across_modes() {
    // Every fabric shape the loop supports: 1, 2 or 4 channels, arity 2
    // or 4, with and without row buffers, BASE and PACK. Event mode may
    // park engines but must reproduce lockstep's report, per-level beats
    // and final memory exactly.
    let (mut ar_stalls, mut w_stalls) = (0u64, 0u64);
    for kind in [SystemKind::Base, SystemKind::Pack] {
        let requestors = mixed_requestors(kind);
        for channels in [1, 2, 4] {
            for arity in [2, 4] {
                for row_buffer in [false, true] {
                    let mut fabric = FabricSpec::tree(arity).with_channels(channels);
                    if row_buffer {
                        fabric = fabric.with_row_buffer(8, 6);
                    }
                    let ctx = format!("{kind} {fabric:?}");
                    let run = |sched: SchedMode| {
                        let topo = fabric_topology(kind, fabric, sched, requestors.clone());
                        let mut probe = RunProbe::default();
                        let report = run_system_probed(&topo, &mut probe)
                            .unwrap_or_else(|e| panic!("{ctx} ({sched}): run failed: {e}"));
                        (report, probe)
                    };
                    let (ev, ev_probe) = run(SchedMode::Event);
                    let (lk, lk_probe) = run(SchedMode::Lockstep);
                    assert_eq!(
                        format!("{ev:?}"),
                        format!("{lk:?}"),
                        "{ctx}: system reports differ between modes"
                    );
                    assert_eq!(ev.levels, lk.levels, "{ctx}: per-level beats");
                    assert_eq!(
                        ev_probe.storage_digest, lk_probe.storage_digest,
                        "{ctx}: final memory differs between modes"
                    );
                    assert!(
                        !lk_probe.sched.skipped_any(),
                        "{ctx}: lockstep skipped {:?}",
                        lk_probe.sched
                    );
                    assert!(
                        ev_probe.sched.parked_engine_ticks > 0,
                        "{ctx}: event mode never parked an engine"
                    );
                    assert!(lk_probe.sched.engine_ticks > ev_probe.sched.engine_ticks);
                    ar_stalls += ev.requestors.iter().map(|r| r.ar_stall_cycles).sum::<u64>();
                    w_stalls += ev.requestors.iter().map(|r| r.w_stall_cycles).sum::<u64>();
                }
            }
        }
    }
    assert!(ar_stalls > 0, "no engine ever waited on a full AR FIFO");
    assert!(w_stalls > 0, "no engine ever waited on a full W FIFO");
}

#[test]
fn deep_and_wide_trees_agree_across_modes() {
    // 32 requestors on one row-buffered channel: arity 2 stacks five mux
    // levels, arity 8 makes each level as wide as the ID space allows.
    // Event mode sleeps blocked muxes and commits only touched bundles;
    // both must leave every report bit as lockstep's.
    let mixed = mixed_requestors(SystemKind::Pack);
    let requestors: Vec<Requestor> = (0..32).map(|i| mixed[i % mixed.len()].clone()).collect();
    for arity in [2, 8] {
        let fabric = FabricSpec::tree(arity).with_row_buffer(8, 6);
        let ctx = format!("{fabric:?}");
        let run = |sched: SchedMode| {
            let topo = fabric_topology(SystemKind::Pack, fabric, sched, requestors.clone());
            let mut probe = RunProbe::default();
            let report = run_system_probed(&topo, &mut probe)
                .unwrap_or_else(|e| panic!("{ctx} ({sched}): run failed: {e}"));
            (report, probe)
        };
        let (ev, ev_probe) = run(SchedMode::Event);
        let (lk, lk_probe) = run(SchedMode::Lockstep);
        assert_eq!(ev.levels.len(), if arity == 2 { 5 } else { 2 }, "{ctx}");
        assert_eq!(
            format!("{ev:?}"),
            format!("{lk:?}"),
            "{ctx}: system reports differ between modes"
        );
        assert_eq!(
            ev_probe.storage_digest, lk_probe.storage_digest,
            "{ctx}: final memory differs between modes"
        );
        assert_eq!(ev_probe.violation_summary(), None, "{ctx}: event monitors");
        assert_eq!(
            lk_probe.violation_summary(),
            None,
            "{ctx}: lockstep monitors"
        );
        assert!(
            ev_probe.sched.parked_mux_ticks > 0,
            "{ctx}: event mode never slept a mux"
        );
        assert_eq!(
            lk_probe.sched.parked_mux_ticks, 0,
            "{ctx}: lockstep slept a mux"
        );
        assert!(!lk_probe.sched.skipped_any(), "{ctx}: lockstep skipped");
    }
}

#[test]
fn parked_tick_counts_repeat_exactly() {
    let fabric = FabricSpec::tree(2).with_channels(2);
    let run = || {
        let topo = fabric_topology(
            SystemKind::Pack,
            fabric,
            SchedMode::Event,
            mixed_requestors(SystemKind::Pack),
        );
        let mut probe = RunProbe::default();
        run_system_probed(&topo, &mut probe).expect("verifies");
        probe.sched
    };
    assert_eq!(run(), run());
}

#[test]
fn an_empty_program_requestor_completes_on_a_fabric() {
    // An engine with nothing to run is done before its first tick. It
    // must still tick once and finish, in both modes, not park forever.
    let idle = Kernel {
        name: "idle".into(),
        image: Vec::new(),
        storage_size: 4096,
        program: Arc::new(Program::default()),
        expected: Vec::new(),
        read_only_streams: true,
        useful_bytes: 0,
    };
    let mut requestors = mixed_requestors(SystemKind::Pack);
    requestors.insert(2, Requestor::new(SystemKind::Pack, idle));
    let fabric = FabricSpec::tree(2).with_channels(2);
    let reports: Vec<String> = [SchedMode::Event, SchedMode::Lockstep]
        .into_iter()
        .map(|sched| {
            let topo = fabric_topology(SystemKind::Pack, fabric, sched, requestors.clone());
            let report = run_system(&topo).unwrap_or_else(|e| panic!("{sched}: {e}"));
            assert_eq!(
                report.requestors[2].cycles, 1,
                "{sched}: the idle requestor"
            );
            format!("{report:?}")
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
}

/// Runs a fault-stalled fabric in one mode and returns its hang report.
fn fabric_hang(
    spec: FaultSpec,
    dataflow: Dataflow,
    max_cycles: u64,
    sched: SchedMode,
) -> HangReport {
    let mut sys = SystemConfig::paper(SystemKind::Pack);
    sys.sched = sched;
    sys.watchdog = 3_000;
    sys.max_cycles = max_cycles;
    sys.fault = Some(spec);
    let p = sys.kernel_params();
    let requestors = (0..6u64).map(|i| {
        let kernel = if i % 2 == 0 {
            gemv::build(16, 80 + i, dataflow, &p)
        } else {
            scatter::build(24, 1.5, 90 + i, &p)
        };
        Requestor::new(SystemKind::Pack, kernel)
    });
    let topo = Topology::builder(&sys)
        .requestors(requestors)
        .fabric(FabricSpec::tree(2).with_channels(2))
        .build()
        .expect("DRC-clean");
    match run_system(&topo) {
        Err(RunError::Hang(h)) => *h,
        other => panic!("{sched}: a wedged fabric must hang, got {other:?}"),
    }
}

#[test]
fn a_stormed_fabric_hangs_identically_in_both_modes() {
    // A grant storm that never lifts parks every engine on a full AR or
    // AW FIFO. The watchdog must fire on the same cycle, with the same
    // suspect and the same component states, as in lockstep.
    let mut spec = FaultSpec::silent(2);
    spec.grant_storm_period = 1;
    spec.grant_storm_len = u32::MAX;
    let ev = fabric_hang(spec, Dataflow::ColWise, 1_000_000, SchedMode::Event);
    let lk = fabric_hang(spec, Dataflow::ColWise, 1_000_000, SchedMode::Lockstep);
    assert!(
        ev.no_progress,
        "the watchdog, not the cycle ceiling, fired:\n{ev}"
    );
    assert_eq!(ev, lk);
}

#[test]
fn a_bank_stalled_fabric_hangs_identically_in_both_modes() {
    // Permanent bank-delay spikes starve every response. Column-wise
    // engines stop progressing and the watchdog fires; row-wise engines
    // park on scalar stores, whose stall cycles count as progress in
    // lockstep, so the run must instead reach the cycle ceiling in both
    // modes.
    let mut spec = FaultSpec::silent(1);
    spec.bank_delay_period = 1;
    spec.bank_delay_len = u32::MAX;
    for (dataflow, watchdog_fires) in [(Dataflow::ColWise, true), (Dataflow::RowWise, false)] {
        let ev = fabric_hang(spec, dataflow, 20_000, SchedMode::Event);
        let lk = fabric_hang(spec, dataflow, 20_000, SchedMode::Lockstep);
        assert_eq!(ev.no_progress, watchdog_fires, "{dataflow:?}:\n{ev}");
        assert_eq!(ev, lk, "{dataflow:?}");
    }
}
