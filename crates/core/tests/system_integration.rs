//! Cross-crate integration: every benchmark kernel runs to completion and
//! verifies against its scalar reference on every system, deterministically.

use axi_pack::{run_kernel, run_system, FabricSpec, Requestor, RunReport, SystemConfig, Topology};
use vproc::SystemKind;
use workloads::{gemv, ismt, prank, spmv, sssp, trmv, CsrMatrix, Dataflow, Kernel, KernelParams};

const KINDS: [SystemKind; 3] = [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal];

fn kernels(p: &KernelParams) -> Vec<Kernel> {
    let m = CsrMatrix::random(40, 64, 9.0, 5);
    let g = CsrMatrix::random_graph(40, 5.0, 6);
    vec![
        ismt::build(20, 1, p),
        gemv::build(24, 2, Dataflow::RowWise, p),
        gemv::build(24, 2, Dataflow::ColWise, p),
        trmv::build(24, 3, Dataflow::RowWise, p),
        trmv::build(24, 3, Dataflow::ColWise, p),
        spmv::build(&m, 4, p),
        prank::build(&g, 2, p),
        sssp::build(&g, 0, 3, p),
    ]
}

fn run(kind: SystemKind, kernel: &Kernel) -> RunReport {
    let cfg = SystemConfig::paper(kind);
    run_kernel(&cfg, kernel).unwrap_or_else(|e| panic!("{kind}: {e}"))
}

#[test]
fn every_kernel_verifies_on_every_system() {
    for kind in KINDS {
        let cfg = SystemConfig::paper(kind);
        for kernel in kernels(&cfg.kernel_params()) {
            let r = run(kind, &kernel);
            assert!(r.cycles > 0, "{kind}/{}", kernel.name);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    for kind in [SystemKind::Base, SystemKind::Pack] {
        let cfg = SystemConfig::paper(kind);
        let k1 = spmv::build(&CsrMatrix::random(32, 48, 7.0, 9), 9, &cfg.kernel_params());
        let k2 = spmv::build(&CsrMatrix::random(32, 48, 7.0, 9), 9, &cfg.kernel_params());
        let a = run(kind, &k1);
        let b = run(kind, &k2);
        assert_eq!(a.cycles, b.cycles, "{kind}: cycle counts must reproduce");
        assert_eq!(a.bank_conflicts, b.bank_conflicts);
        assert_eq!(
            a.activity.r_payload_bytes, b.activity.r_payload_bytes,
            "{kind}: bus traffic must reproduce"
        );
    }
}

#[test]
fn read_only_kernels_have_exact_bus_payloads() {
    // The engine compares every R beat against its issue-time snapshot;
    // for kernels without overlapping load/store streams there must be no
    // mismatch on either AXI system — the packing datapath moves the
    // right bytes.
    for kind in [SystemKind::Base, SystemKind::Pack] {
        let cfg = SystemConfig::paper(kind);
        for kernel in kernels(&cfg.kernel_params()) {
            if !kernel.read_only_streams {
                continue;
            }
            let r = run(kind, &kernel);
            assert_eq!(
                r.data_mismatches, 0,
                "{kind}/{}: bus payload diverged",
                kernel.name
            );
        }
    }
}

#[test]
fn smaller_buses_run_strictly_slower_on_pack() {
    let mut last = 0u64;
    for bus in [256u32, 128, 64] {
        let cfg = SystemConfig::with_bus(SystemKind::Pack, bus);
        let k = gemv::build(32, 4, Dataflow::ColWise, &cfg.kernel_params());
        let r = run_kernel(&cfg, &k).expect("verifies");
        assert!(
            r.cycles > last,
            "{bus}-bit bus should be slower than the previous width"
        );
        last = r.cycles;
    }
}

#[test]
fn queue_depth_matters_under_conflict_pressure() {
    // Deeper decoupling queues ride out bank conflicts better: with a
    // conflict-heavy configuration, depth 32 must not be slower than depth 2.
    let mk = |depth: usize| {
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.queue_depth = depth;
        cfg.banks = 16; // power-of-two: conflicts bite
        let k = ismt::build(32, 5, &cfg.kernel_params());
        run_kernel(&cfg, &k).expect("verifies").cycles
    };
    let shallow = mk(2);
    let deep = mk(32);
    assert!(
        deep <= shallow,
        "deeper queues can't hurt: depth2={shallow} depth32={deep}"
    );
}

#[test]
fn bank_count_sensitivity_is_visible_system_level() {
    // The ismt column accesses stride by the matrix dimension; a
    // power-of-two dimension on power-of-two banks conflicts hard, while
    // 17 banks stay fast (the paper's reason for choosing 17).
    let mk = |banks: usize| {
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.banks = banks;
        let k = ismt::build(32, 5, &cfg.kernel_params());
        let r = run_kernel(&cfg, &k).expect("verifies");
        (r.cycles, r.bank_conflicts)
    };
    let (cycles_pow2, conflicts_pow2) = mk(8);
    let (cycles_prime, conflicts_prime) = mk(17);
    assert!(conflicts_pow2 > 4 * conflicts_prime.max(1));
    assert!(cycles_prime < cycles_pow2);
}

#[test]
fn single_requestor_topology_matches_run_kernel() {
    // The acceptance contract of the Topology refactor: a 1-requestor
    // run_system is byte-identical to the classic run_kernel on every
    // system kind — cycles, beats, utilizations, energy.
    for kind in KINDS {
        let cfg = SystemConfig::paper(kind);
        let k = gemv::build(
            24,
            2,
            if kind == SystemKind::Base {
                Dataflow::RowWise
            } else {
                Dataflow::ColWise
            },
            &cfg.kernel_params(),
        );
        let classic = run_kernel(&cfg, &k).expect("run_kernel verifies");
        let topo = Topology::builder(&cfg)
            .requestor(kind, k.clone())
            .build()
            .expect("DRC-clean");
        let sys = run_system(&topo).expect("run_system verifies");
        assert_eq!(sys.requestors.len(), 1);
        let topo = &sys.requestors[0];
        assert_eq!(classic.cycles, topo.cycles, "{kind}");
        assert_eq!(classic.cycles, sys.cycles, "{kind}");
        assert_eq!(classic.bank_conflicts, topo.bank_conflicts, "{kind}");
        assert_eq!(
            classic.activity.r_payload_bytes, topo.activity.r_payload_bytes,
            "{kind}"
        );
        assert_eq!(
            classic.activity.word_accesses, topo.activity.word_accesses,
            "{kind}"
        );
        assert_eq!(classic.r_util, topo.r_util, "{kind}");
        assert_eq!(classic.r_util_no_idx, topo.r_util_no_idx, "{kind}");
        assert_eq!(classic.energy_uj, topo.energy_uj, "{kind}");
    }
}

#[test]
fn two_requestors_in_disjoint_windows_both_match_their_references() {
    // Each engine writes only its own address window; run_system verifies
    // each functional result against that requestor's scalar reference.
    // Exercise a write-heavy strided kernel next to an indirect one, on a
    // homogeneous PACK pair and on a mixed BASE+PACK bus.
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let g = CsrMatrix::random_graph(32, 5.0, 11);
    for second_kind in [SystemKind::Pack, SystemKind::Base] {
        let topo = Topology::builder(&cfg)
            .requestor(
                SystemKind::Pack,
                ismt::build(20, 6, &cfg.kernel_params_for(SystemKind::Pack)),
            )
            .requestor(
                second_kind,
                sssp::build(&g, 0, 2, &cfg.kernel_params_for(second_kind)),
            )
            .build()
            .expect("DRC-clean");
        // run_system errors if either requestor's memory image diverges
        // from its own scalar reference, so success IS the equivalence
        // check for both disjoint regions.
        let report = run_system(&topo).expect("both requestors verify");
        assert_eq!(report.requestors.len(), 2);
        assert_eq!(report.requestors[0].kernel, "ismt");
        assert_eq!(report.requestors[1].kernel, "sssp");
        for r in &report.requestors {
            assert!(r.cycles > 0 && r.cycles <= report.cycles);
        }
        assert!(report.word_accesses > 0);
    }
}

#[test]
fn four_requestors_saturate_the_shared_bus() {
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let p = cfg.kernel_params();
    let solo = run_kernel(&cfg, &gemv::build(24, 3, Dataflow::ColWise, &p)).expect("verifies");
    let reqs: Vec<Requestor> = (0..4)
        .map(|i| {
            Requestor::new(
                SystemKind::Pack,
                gemv::build(24, 3 + i as u64, Dataflow::ColWise, &p),
            )
        })
        .collect();
    let topo = Topology::builder(&cfg)
        .requestors(reqs)
        .build()
        .expect("DRC-clean");
    let report = run_system(&topo).expect("all four verify");
    assert_eq!(report.requestors.len(), 4);
    // Four bus-bound kernels through one endpoint: higher aggregate bus
    // occupancy than one alone, and everyone slower than solo.
    assert!(report.bus_r_busy > solo.r_busy);
    for r in &report.requestors {
        assert!(r.cycles > solo.cycles);
    }
    // Round-robin arbitration keeps the finish spread tight: the slowest
    // identical requestor must not take twice as long as the fastest.
    assert!(report.slowest().cycles < 2 * report.fastest().cycles);
}

#[test]
fn indirect_write_path_works_end_to_end() {
    // The scatter kernel (extension beyond the paper's read-only plots)
    // drives the indirect *write* converter on PACK and the per-element
    // scatter path on BASE; both must produce the verified permutation,
    // and PACK must be faster.
    use workloads::scatter;
    let base_cfg = SystemConfig::paper(SystemKind::Base);
    let pack_cfg = SystemConfig::paper(SystemKind::Pack);
    let kb = scatter::build(256, 2.5, 7, &base_cfg.kernel_params());
    let kp = scatter::build(256, 2.5, 7, &pack_cfg.kernel_params());
    let rb = run_kernel(&base_cfg, &kb).expect("base scatter verifies");
    let rp = run_kernel(&pack_cfg, &kp).expect("pack scatter verifies");
    assert!(
        rp.cycles < rb.cycles,
        "packed scatter must win: {} vs {}",
        rp.cycles,
        rb.cycles
    );
    let ideal_cfg = SystemConfig::paper(SystemKind::Ideal);
    let ki = scatter::build(256, 2.5, 7, &ideal_cfg.kernel_params());
    run_kernel(&ideal_cfg, &ki).expect("ideal scatter verifies");
}

#[test]
fn a_channels_only_member_is_charged_its_adapter_counters() {
    // A requestor alone on its channel owns the adapter's whole
    // activity, whatever the fabric shape: its word accesses, bank
    // conflicts and absorbed faults are the adapter's, not the
    // one-word-per-element estimate and zeros a shared adapter reports.
    use simkit::FaultSpec;
    let mut cfg = SystemConfig::paper(SystemKind::Pack);
    cfg.banks = 8;
    cfg.fault = Some(FaultSpec::transient(3));
    let p = cfg.kernel_params();
    let topo = Topology::builder(&cfg)
        .requestor(SystemKind::Pack, ismt::build(32, 5, &p))
        .fabric(FabricSpec::flat().with_row_buffer(8, 16))
        .build()
        .expect("DRC-clean");
    let sys = run_system(&topo).expect("transient faults are absorbed");
    assert!(sys.all_completed());
    let r = &sys.requestors[0];
    assert_eq!(r.activity.word_accesses, sys.word_accesses);
    assert!(sys.bank_conflicts > 0, "power-of-two banks conflict");
    assert_eq!(r.bank_conflicts, sys.bank_conflicts);
    assert!(r.injected_faults > 0, "the fault plan reached the banks");
    assert!(r.fault_retries > 0, "absorbed faults were retried");

    // Two requestors on two channels: one member each, so the
    // per-requestor counters add up to the system totals.
    let topo = Topology::builder(&cfg)
        .requestor(SystemKind::Pack, ismt::build(32, 5, &p))
        .requestor(SystemKind::Pack, ismt::build(32, 6, &p))
        .fabric(FabricSpec::flat().with_channels(2).with_row_buffer(8, 16))
        .build()
        .expect("DRC-clean");
    let sys = run_system(&topo).expect("transient faults are absorbed");
    let sum = |f: fn(&RunReport) -> u64| sys.requestors.iter().map(f).sum::<u64>();
    assert_eq!(sum(|r| r.activity.word_accesses), sys.word_accesses);
    assert_eq!(sum(|r| r.bank_conflicts), sys.bank_conflicts);
}
