//! The benchmark's three workloads, each built from a seed.
//!
//! Every workload is a list of simulation points drawn from traffic the
//! figure families already run. A point is one BASE or PACK system —
//! a solo kernel on the flat path, or a fabric topology — and points come
//! in BASE/PACK pairs that differ only in the system kind.

use std::time::Instant;

use axi_pack::{Requestor, SystemConfig, Topology};
use axi_pack_bench::{scale::fabric_for, Scale, SEED};
use vproc::SystemKind;
use workloads::{
    gemv, ismt, prank, scatter, spmv, sssp, trmv, CsrMatrix, Dataflow, Kernel, KernelParams,
};

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3a's six kernels plus `scatter` at paper sizes, solo at 256 bits.
    SoloPaper,
    /// Fig. 3e-style short-row spmv over nnz/row × bus width.
    SparseRows,
    /// Smoke-size gemv on the scale family's fabric at 8, 32 and 128
    /// requestors; the 32-requestor point mixes in indirect spmv.
    FabricScale,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SoloPaper,
        Workload::SparseRows,
        Workload::FabricScale,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloPaper => "solo_paper",
            Workload::SparseRows => "sparse_rows",
            Workload::FabricScale => "fabric_scale",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Solo kernels of `solo_paper`, in the paper's order, then `scatter`.
pub const SOLO_KERNELS: [&str; 7] = ["ismt", "gemv", "trmv", "spmv", "prank", "sssp", "scatter"];
/// Average nonzeros per row of the `sparse_rows` matrices.
const SPARSE_NNZ: [usize; 3] = [2, 6, 15];
/// Rows of every `sparse_rows` matrix.
const SPARSE_ROWS: usize = 4096;
/// Bus widths of `sparse_rows`.
const SPARSE_BUS: [u32; 3] = [64, 128, 256];
/// Requestor counts of `fabric_scale`.
const FABRIC_COUNTS: [usize; 3] = [8, 32, 128];
/// The `fabric_scale` count that runs the strided+indirect slot mix.
const MIXED_COUNT: usize = 32;

/// How a point is simulated.
#[derive(Debug)]
pub enum Sys {
    /// `run_kernel` on the flat solo path.
    Solo {
        /// The system.
        cfg: SystemConfig,
        /// The kernel, built for `cfg.kind`.
        kernel: Kernel,
    },
    /// `run_system` on a fabric topology.
    Fabric(Topology),
}

/// One simulation point.
#[derive(Debug)]
pub struct Point {
    /// Unique label within the workload, ending in `/base` or `/pack`.
    pub label: String,
    /// Kernel group the point's PACK speedup is reported under.
    pub group: &'static str,
    /// BASE or PACK.
    pub kind: SystemKind,
    /// The system to run.
    pub sys: Sys,
}

impl Point {
    /// The label of the BASE/PACK pair, without the kind suffix.
    pub fn pair(&self) -> &str {
        self.label
            .rsplit_once('/')
            .map_or(&self.label, |(pair, _)| pair)
    }
}

/// A built workload and what building it cost.
pub struct Setup {
    /// The points, BASE before PACK in each pair.
    pub points: Vec<Point>,
    /// Host seconds inside the kernel builders (`workloads::*::build`,
    /// `CsrMatrix::random*`).
    pub build_s: f64,
    /// Host seconds building systems: `SystemConfig`s for solos,
    /// `Topology::builder(..).build()` (with its DRC) for fabrics.
    pub topo_s: f64,
}

/// Accumulates the two set-up stages' host time.
#[derive(Default)]
struct Clock {
    build_s: f64,
    topo_s: f64,
}

impl Clock {
    fn build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.build_s += t.elapsed().as_secs_f64();
        out
    }

    fn topo<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.topo_s += t.elapsed().as_secs_f64();
        out
    }
}

/// The data seed of a benchmark seed: seed 0 is the figure families' own
/// data set.
pub fn data_seed(seed: u64) -> u64 {
    SEED.wrapping_add(seed)
}

fn dataflow(kind: SystemKind) -> Dataflow {
    match kind {
        SystemKind::Base => Dataflow::RowWise,
        _ => Dataflow::ColWise,
    }
}

/// The fig3 spmv operand: wide enough that the nonzeros per row fit.
fn spmv_matrix(rows: usize, nnz_per_row: f64, seed: u64) -> CsrMatrix {
    let cols = rows.max((nnz_per_row * 2.5) as usize).next_power_of_two();
    CsrMatrix::random(rows, cols, nnz_per_row, seed)
}

/// Fig. 3a's kernel builders at paper scale, plus the extensions table's
/// `scatter` (4 × the dense dimension).
fn solo_kernel(name: &str, kind: SystemKind, seed: u64, p: &KernelParams) -> Kernel {
    let s = Scale::Paper;
    let n = s.dense_dim();
    match name {
        "ismt" => ismt::build(n, seed, p),
        "gemv" => gemv::build(n, seed, dataflow(kind), p),
        "trmv" => trmv::build(n, seed, dataflow(kind), p),
        "spmv" => spmv::build(
            &spmv_matrix(s.sparse_rows(), s.spmv_nnz_per_row(), seed),
            seed,
            p,
        ),
        "prank" => prank::build(
            &CsrMatrix::random(s.graph_nodes(), s.graph_nodes(), s.graph_degree(), seed),
            2,
            p,
        ),
        "sssp" => sssp::build(
            &CsrMatrix::random_graph(s.graph_nodes(), s.graph_degree(), seed),
            0,
            3,
            p,
        ),
        "scatter" => scatter::build(4 * n, 2.0, seed, p),
        other => unreachable!("no solo kernel {other}"),
    }
}

/// The kernel of fabric slot `slot`: the scale family's smoke gemv, or on
/// the mixed point's odd slots the contention family's smoke-size
/// indirect spmv.
fn fabric_kernel(
    slot: usize,
    mixed: bool,
    kind: SystemKind,
    seed: u64,
    p: &KernelParams,
) -> Kernel {
    let s = Scale::Smoke;
    let seed = seed.wrapping_add(slot as u64);
    if mixed && slot % 2 == 1 {
        spmv::build(
            &spmv_matrix(s.contention_dim() / 2, s.contention_nnz(), seed),
            seed,
            p,
        )
    } else {
        gemv::build(s.scale_dim(), seed, dataflow(kind), p)
    }
}

const KINDS: [SystemKind; 2] = [SystemKind::Base, SystemKind::Pack];

/// Builds a workload's points from a benchmark seed.
///
/// # Errors
///
/// A topology the design-rule check rejects.
pub fn build(w: Workload, seed: u64) -> Result<Setup, String> {
    let seed = data_seed(seed);
    let mut clock = Clock::default();
    let mut points = Vec::new();
    match w {
        Workload::SoloPaper => {
            for name in SOLO_KERNELS {
                for kind in KINDS {
                    let cfg = clock.topo(|| SystemConfig::with_bus(kind, 256));
                    let kernel =
                        clock.build(|| solo_kernel(name, kind, seed, &cfg.kernel_params()));
                    points.push(Point {
                        label: format!("{name}/{kind}"),
                        group: name,
                        kind,
                        sys: Sys::Solo { cfg, kernel },
                    });
                }
            }
        }
        Workload::SparseRows => {
            for nnz in SPARSE_NNZ {
                let m = clock.build(|| spmv_matrix(SPARSE_ROWS, nnz as f64, seed));
                for bus in SPARSE_BUS {
                    for kind in KINDS {
                        let cfg = clock.topo(|| SystemConfig::with_bus(kind, bus));
                        let kernel = clock.build(|| spmv::build(&m, seed, &cfg.kernel_params()));
                        points.push(Point {
                            label: format!("spmv/nnz{nnz}/bus{bus}/{kind}"),
                            group: "spmv",
                            kind,
                            sys: Sys::Solo { cfg, kernel },
                        });
                    }
                }
            }
        }
        Workload::FabricScale => {
            for n in FABRIC_COUNTS {
                let mixed = n == MIXED_COUNT;
                for kind in KINDS {
                    let mut cfg = SystemConfig::with_bus(kind, 256);
                    cfg.max_cycles = 40_000_000;
                    let p = cfg.kernel_params();
                    let requestors: Vec<Requestor> = clock.build(|| {
                        (0..n)
                            .map(|slot| {
                                Requestor::new(kind, fabric_kernel(slot, mixed, kind, seed, &p))
                            })
                            .collect()
                    });
                    let topo = clock
                        .topo(|| {
                            Topology::builder(&cfg)
                                .requestors(requestors)
                                .fabric(fabric_for(n))
                                .build()
                        })
                        .map_err(|e| format!("fabric_scale n={n} {kind}: {e}"))?;
                    let group = if mixed { "gemv_spmv" } else { "gemv" };
                    points.push(Point {
                        label: format!("n{n}/{group}/{kind}"),
                        group,
                        kind,
                        sys: Sys::Fabric(topo),
                    });
                }
            }
        }
    }
    Ok(Setup {
        points,
        build_s: clock.build_s,
        topo_s: clock.topo_s,
    })
}
