//! `vproc` — a functional-and-timing model of an Ara-style RISC-V vector
//! processor, extended (as in the paper) to emit AXI-Pack bursts.
//!
//! The model reproduces the aspects of Ara + CVA6 the evaluation exercises:
//!
//! * a frontend that issues one vector instruction per cycle, with explicit
//!   [`VInsn::Scalar`] markers modeling CVA6 loop overhead between vector
//!   instructions (the effect that rolls speedups off for short streams,
//!   paper Fig. 3d/3e);
//! * *lanes* that process `lanes` elements per cycle with element-wise
//!   *chaining*: a dependent instruction may consume element *k* as soon as
//!   its producer has produced it;
//! * slow *reductions* (`vfredsum`/`vfredmin`), the cost that makes
//!   column-wise dataflows attractive once strided loads are fast
//!   (Fig. 3b/3c);
//! * a decoupled vector load-store unit with three back-ends:
//!   - **BASE**: strided/indexed accesses issue one narrow AXI4 transaction
//!     per element;
//!   - **PACK**: strided accesses become AXI-Pack strided bursts, and the
//!     new `vlimxei`/`vsimxei` instructions become indirect bursts with
//!     memory-side index fetching;
//!   - **IDEAL**: one port per lane with perfect packing and fixed latency
//!     (indices still fetched into the core, as in the paper).
//!
//! Execution is *eager-functional, timed-structural*: each instruction's
//! architectural effect is applied in program order at issue, while the
//! timing of data movement is simulated cycle by cycle through the real
//! channel FIFOs — so kernels compute correct results *and* produce
//! cycle-accurate bus traffic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod isa;
pub mod regfile;

pub use config::{SystemKind, VprocConfig};
pub use engine::{BusFault, Engine, EngineStats, Parked};
pub use isa::{Program, ProgramBuilder, VInsn, VReg};
pub use regfile::RegFile;
