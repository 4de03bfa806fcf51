//! Golden pins for the result-cache key canon.
//!
//! The content-addressed store survives across commits, so key digests are
//! an on-disk compatibility surface: if any of these pins move, old cache
//! entries silently become unreachable (stale entries are never *served* —
//! they just rot). That is sometimes the right call — an encoder bug, a
//! semantic change to what a key must capture — but it must be a *decision*:
//! bump `KEY_VERSION` (which moves every pin at once) and update the pins
//! here in the same commit. A pin moving without a `KEY_VERSION` bump means
//! the encoder drifted by accident.

use axi_pack::cache::{indirect_key, single_run_key, strided_avg_key, topology_key};
use axi_pack::requestor::SweepConfig;
use axi_pack::{FabricSpec, SystemConfig, Topology};
use axi_proto::{ElemSize, IdxSize};
use vproc::SystemKind;
use workloads::sparse::CsrMatrix;
use workloads::{gemv, spmv, Dataflow};

/// The fixture kernel: small deterministic GEMV, seed 7.
fn fixture_gemv(cfg: &SystemConfig) -> workloads::Kernel {
    gemv::build(8, 7, Dataflow::ColWise, &cfg.kernel_params())
}

#[test]
fn single_run_keys_are_pinned() {
    let cases = [
        (SystemKind::Base, "04c469b00c3a4852e9819aeb27bcd683"),
        (SystemKind::Pack, "1ea11846add96601536609ad0f87622b"),
        (SystemKind::Ideal, "1c148ef902b18719f7e1620f70f057eb"),
    ];
    for (kind, pin) in cases {
        let cfg = SystemConfig::paper(kind);
        let key = single_run_key(&cfg, kind, &fixture_gemv(&cfg));
        assert_eq!(
            key.to_hex(),
            pin,
            "single-run key for {kind:?} moved — bump KEY_VERSION if intentional"
        );
    }
}

#[test]
fn topology_key_is_pinned() {
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let m = CsrMatrix::random(16, 16, 4.0, 3);
    let topo = Topology::builder(&cfg)
        .requestor(SystemKind::Pack, fixture_gemv(&cfg))
        .requestor(SystemKind::Base, spmv::build(&m, 5, &cfg.kernel_params()))
        .build()
        .expect("two-requestor fixture is DRC-clean");
    assert_eq!(
        topology_key(&topo).to_hex(),
        "33d81f512c3cdec2ea2aa33a34d95551",
        "topology key moved — bump KEY_VERSION if intentional"
    );
}

#[test]
fn utilization_keys_are_pinned() {
    let sweep = SweepConfig::default();
    assert_eq!(
        strided_avg_key(&sweep, ElemSize::B2).to_hex(),
        "a1e4573bb56d40975c5d9c387ea582b4",
        "strided-avg key moved — bump KEY_VERSION if intentional"
    );
    assert_eq!(
        indirect_key(&sweep, ElemSize::B4, IdxSize::B2, 11).to_hex(),
        "90e5cd4a805055107ef1f7f46d4c6d23",
        "indirect key moved — bump KEY_VERSION if intentional"
    );
}

#[test]
fn keys_separate_what_must_be_separate() {
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let kernel = fixture_gemv(&cfg);
    let base = single_run_key(&cfg, SystemKind::Pack, &kernel);

    // A different kernel seed is a different workload image.
    let reseeded = gemv::build(8, 8, Dataflow::ColWise, &cfg.kernel_params());
    assert_ne!(base, single_run_key(&cfg, SystemKind::Pack, &reseeded));

    // The backend kind is part of the key even with identical configs.
    assert_ne!(base, single_run_key(&cfg, SystemKind::Base, &kernel));

    // A config knob that changes timing (queue depth) must move the key.
    let mut deeper = cfg;
    deeper.queue_depth += 1;
    assert_ne!(base, single_run_key(&deeper, SystemKind::Pack, &kernel));

    // The sweep seed separates indirect-utilization points.
    let sweep = SweepConfig::default();
    assert_ne!(
        indirect_key(&sweep, ElemSize::B4, IdxSize::B2, 11),
        indirect_key(&sweep, ElemSize::B4, IdxSize::B2, 12)
    );

    // The fabric shape is part of a topology key: the same requestors on
    // a different channel count or mux arity are different measurements.
    let topo = Topology::builder(&cfg)
        .requestor(SystemKind::Pack, fixture_gemv(&cfg))
        .requestor(
            SystemKind::Pack,
            gemv::build(8, 9, Dataflow::ColWise, &cfg.kernel_params()),
        )
        .build()
        .expect("DRC-clean");
    let flat_key = topology_key(&topo);
    let mut channels2 = topo.clone();
    channels2.fabric = FabricSpec::flat().with_channels(2);
    assert_ne!(flat_key, topology_key(&channels2));
    let mut tree2 = topo.clone();
    tree2.fabric = FabricSpec::tree(2);
    assert_ne!(flat_key, topology_key(&tree2));
    let mut dram = topo;
    dram.fabric = FabricSpec::flat().with_row_buffer(8, 16);
    assert_ne!(flat_key, topology_key(&dram));
}
