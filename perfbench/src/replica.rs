//! Traced lockstep replica of the product run loops.
//!
//! `axi_pack::run_kernel` and `axi_pack::run_system` own their cycle
//! loops, so nothing outside them can time one layer's calls. This module
//! rebuilds the two loops the benchmark's workloads take — the flat solo
//! loop (one engine, one channel bundle, one adapter) and the
//! hierarchical-fabric loop (engines on leaf bundles, cascaded mux trees,
//! one adapter per memory channel) — from the components' public APIs,
//! ticks every component every cycle (lockstep), and wraps each layer's
//! calls in a host-time span:
//!
//! | span      | calls                                          |
//! |-----------|------------------------------------------------|
//! | `engine`  | `vproc::Engine::tick`                          |
//! | `mux`     | `axi_proto::AxiMux::tick` on every tree level  |
//! | `adapter` | `pack_ctrl::Adapter::tick` + `end_cycle`       |
//! | `channel` | `axi_proto::AxiChannels::end_cycle`            |
//!
//! Whatever the loop spends outside these spans (done, drained and
//! progress scans, the idle accounting) is the loop's own bookkeeping.
//! The adapter owns the banked memory, so bank time is inside `adapter`.
//!
//! A replica is only worth its numbers while it simulates exactly what
//! the product does; [`check_fidelity`] and the benchmark's per-run
//! comparison hold it to the product's cycles, word accesses and bank
//! conflicts.

use std::time::Instant;

use axi_pack::{run_kernel, run_system, FabricSpec, SchedMode, SystemConfig, Topology};
use axi_proto::{AxiChannels, AxiMux, BusConfig, LOCAL_ID_BITS, MAX_FAN_IN};
use banked_mem::{BankConfig, Storage};
use pack_ctrl::{Adapter, CtrlConfig};
use vproc::{Engine, EngineStats, SystemKind};
use workloads::Kernel;

/// Host time per layer and tick counts of one or more traced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTrace {
    /// Simulated cycles.
    pub cycles: u64,
    /// Bank word reads plus writes over every adapter.
    pub word_accesses: u64,
    /// Bank conflicts over every adapter.
    pub bank_conflicts: u64,
    /// Host ns of the whole call: construction, loop and verification.
    pub call_ns: u64,
    /// Host ns of the cycle loop alone.
    pub loop_ns: u64,
    /// Host ns inside `Engine::tick`.
    pub engine_ns: u64,
    /// Host ns inside `AxiMux::tick`.
    pub mux_ns: u64,
    /// Host ns inside `Adapter::tick` and `Adapter::end_cycle`.
    pub adapter_ns: u64,
    /// Host ns inside `AxiChannels::end_cycle`.
    pub channel_ns: u64,
    /// Engine ticks, and those that left the progress signature unchanged.
    pub engine_ticks: u64,
    /// See `engine_ticks`.
    pub engine_idle: u64,
    /// Mux ticks, and those of a quiescent mux with empty inputs.
    pub mux_ticks: u64,
    /// See `mux_ticks`.
    pub mux_idle: u64,
    /// Adapter ticks, and those of a quiescent adapter with an empty bundle.
    pub adapter_ticks: u64,
    /// See `adapter_ticks`.
    pub adapter_idle: u64,
}

impl LayerTrace {
    /// Accumulates another trace into this one.
    pub fn add(&mut self, o: &LayerTrace) {
        self.cycles += o.cycles;
        self.word_accesses += o.word_accesses;
        self.bank_conflicts += o.bank_conflicts;
        self.call_ns += o.call_ns;
        self.loop_ns += o.loop_ns;
        self.engine_ns += o.engine_ns;
        self.mux_ns += o.mux_ns;
        self.adapter_ns += o.adapter_ns;
        self.channel_ns += o.channel_ns;
        self.engine_ticks += o.engine_ticks;
        self.engine_idle += o.engine_idle;
        self.mux_ticks += o.mux_ticks;
        self.mux_idle += o.mux_idle;
        self.adapter_ticks += o.adapter_ticks;
        self.adapter_idle += o.adapter_idle;
    }

    /// Loop time outside every layer span.
    pub fn other_ns(&self) -> u64 {
        self.loop_ns
            .saturating_sub(self.engine_ns + self.mux_ns + self.adapter_ns + self.channel_ns)
    }
}

/// The engine's real-work progress signature: the same sum the product's
/// watchdog uses. A tick that leaves it unchanged is an idle tick.
fn progress(s: &EngineStats) -> u64 {
    s.issued + s.lane_elems + s.load_elems + s.store_elems + s.w_beats + s.scalar_stall_cycles
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// The controller configuration the product derives for one channel:
/// 32-bit single-cycle banks that keep timing only (the engine's eager
/// execution owns memory contents), plus the fabric's row-buffer model.
fn ctrl_config(sys: &SystemConfig, fabric: Option<&FabricSpec>) -> CtrlConfig {
    let bank = BankConfig {
        banks: sys.banks,
        word_bytes: 4,
        latency: 1,
        ports: 0,
        conflict_free: false,
        commit_writes: false,
        row_words: fabric.map_or(0, |f| f.row_words),
        row_miss_penalty: fabric.map_or(0, |f| f.row_miss_penalty),
    };
    CtrlConfig::new(BusConfig::new(sys.bus_bits), bank, sys.queue_depth)
}

/// The product's post-run functional check of one requestor.
fn verify(kernel: &Kernel, engine: &Engine, storage: &Storage) -> Result<(), String> {
    if let Some(fault) = engine.first_fault() {
        return Err(format!("{}: bus fault {fault:?}", kernel.name));
    }
    kernel.verify(storage)?;
    if kernel.read_only_streams && engine.stats().data_mismatches > 0 {
        return Err(format!(
            "{}: {} R-payload mismatches on read-only streams",
            kernel.name,
            engine.stats().data_mismatches
        ));
    }
    Ok(())
}

/// Traced replica of the flat solo loop (a BASE or PACK kernel through
/// `run_kernel`). `limit` is the product's cycle count: a replica that
/// runs past it already disagrees, so it stops there instead of running
/// to `max_cycles`.
///
/// # Errors
///
/// A functional mismatch, a bus fault, or a run past `limit`.
pub fn solo(
    cfg: &SystemConfig,
    kind: SystemKind,
    kernel: &Kernel,
    limit: u64,
) -> Result<LayerTrace, String> {
    assert!(
        kind != SystemKind::Ideal,
        "the replica models bus-attached solos"
    );
    let call = Instant::now();
    let mut t = LayerTrace::default();
    let bus = BusConfig::new(cfg.bus_bits);
    let mut engine = Engine::new(cfg.vproc, kind, bus, kernel.program.clone());
    let mut adapter = Adapter::new(ctrl_config(cfg, None), kernel.build_storage());
    let mut ch = AxiChannels::new();
    let mut sig = progress(engine.stats());
    let start = Instant::now();
    while !(engine.done() && adapter.quiescent() && ch.is_empty()) {
        // Staged pushes stay invisible until end_cycle, so what the
        // adapter can act on this cycle is fixed before the engine ticks.
        t.adapter_idle += u64::from(adapter.quiescent() && ch.is_empty());
        let t0 = Instant::now();
        engine.tick(Some(&mut ch), adapter.storage_mut());
        let t1 = Instant::now();
        adapter.tick(&mut ch);
        adapter.end_cycle();
        let t2 = Instant::now();
        ch.end_cycle();
        let t3 = Instant::now();
        t.engine_ns += nanos(t0, t1);
        t.adapter_ns += nanos(t1, t2);
        t.channel_ns += nanos(t2, t3);
        t.cycles += 1;
        let now = progress(engine.stats());
        t.engine_idle += u64::from(now == sig);
        sig = now;
        if t.cycles > limit {
            return Err(format!(
                "{}: past the product's {limit} cycles",
                kernel.name
            ));
        }
    }
    t.loop_ns = nanos(start, Instant::now());
    t.engine_ticks = t.cycles;
    t.adapter_ticks = t.cycles;
    t.word_accesses = adapter.word_reads() + adapter.word_writes();
    t.bank_conflicts = adapter.bank_conflicts();
    verify(kernel, &engine, adapter.storage())?;
    t.call_ns = nanos(call, Instant::now());
    Ok(t)
}

/// ID-prefix bits of one mux level: enough for `arity` ports.
fn level_bits(arity: usize) -> u32 {
    (arity.max(2) - 1).ilog2() + 1
}

/// One memory channel of the fabric: leaf bundles, the cascaded mux tree
/// bottom-up (`levels[l][k]` drains into `links[l][k]`), and the adapter.
struct Channel {
    members: Vec<usize>,
    leaves: Vec<AxiChannels>,
    levels: Vec<Vec<AxiMux>>,
    links: Vec<Vec<AxiChannels>>,
    adapter: Adapter,
}

impl Channel {
    fn new(sys: &SystemConfig, fabric: &FabricSpec, members: Vec<usize>, storage: Storage) -> Self {
        let arity = fabric.arity.clamp(2, MAX_FAN_IN);
        let bits = level_bits(fabric.arity);
        let leaves = (0..members.len()).map(|_| AxiChannels::new()).collect();
        let (mut levels, mut links) = (Vec::new(), Vec::new());
        let (mut width, mut shift) = (members.len(), LOCAL_ID_BITS);
        while width > 1 {
            let groups = width.div_ceil(arity);
            levels.push(
                (0..groups)
                    .map(|k| AxiMux::cascade((width - k * arity).min(arity), shift))
                    .collect::<Vec<_>>(),
            );
            links.push((0..groups).map(|_| AxiChannels::new()).collect::<Vec<_>>());
            width = groups;
            shift += bits;
        }
        Channel {
            members,
            leaves,
            levels,
            links,
            adapter: Adapter::new(ctrl_config(sys, Some(fabric)), storage),
        }
    }

    /// The bundles level `l` muxes read from.
    fn inputs(&self, l: usize) -> &[AxiChannels] {
        if l == 0 {
            &self.leaves
        } else {
            &self.links[l - 1]
        }
    }

    /// The bundle the adapter serves: the root link, or the only leaf.
    fn root(&self) -> &AxiChannels {
        self.links.last().map_or(&self.leaves[0], |row| &row[0])
    }

    fn tick_muxes(&mut self, arity: usize) {
        for l in 0..self.levels.len() {
            let (lower, upper) = self.links.split_at_mut(l);
            let ups: &mut [AxiChannels] = if l == 0 {
                &mut self.leaves
            } else {
                &mut lower[l - 1]
            };
            for (k, mux) in self.levels[l].iter_mut().enumerate() {
                let lo = k * arity;
                let hi = (lo + arity).min(ups.len());
                mux.tick(&mut ups[lo..hi], &mut upper[0][k]);
            }
        }
    }

    fn tick_adapter(&mut self) {
        match self.links.last_mut() {
            Some(root) => self.adapter.tick(&mut root[0]),
            None => self.adapter.tick(&mut self.leaves[0]),
        }
        self.adapter.end_cycle();
    }

    fn end_cycle(&mut self) {
        for ch in self
            .leaves
            .iter_mut()
            .chain(self.links.iter_mut().flatten())
        {
            ch.end_cycle();
        }
    }

    fn drained(&self) -> bool {
        self.adapter.quiescent()
            && self.leaves.iter().all(AxiChannels::is_empty)
            && self.links.iter().flatten().all(AxiChannels::is_empty)
            && self.levels.iter().flatten().all(AxiMux::quiescent)
    }
}

/// Traced replica of the hierarchical-fabric loop (`run_system` on a
/// topology that leaves the flat path). Every requestor must be BASE or
/// PACK.
///
/// The product ticks one channel's muxes, adapter and register stage
/// before the next channel's; channels share no state, so the replica
/// ticks each layer across all channels in one span.
///
/// # Errors
///
/// A functional mismatch, a bus fault, or a run past `limit`, the
/// product's cycle count.
pub fn fabric(topo: &Topology, limit: u64) -> Result<LayerTrace, String> {
    let call = Instant::now();
    let mut t = LayerTrace::default();
    let sys = &topo.system;
    let spec = &topo.fabric;
    let arity = spec.arity.clamp(2, MAX_FAN_IN);
    let placement = topo.placement();
    let kernels: Vec<Kernel> = topo
        .requestors
        .iter()
        .zip(&placement.window_bases)
        .map(|(r, &b)| r.kernel.rebased(b))
        .collect();
    let nch = spec.channels.max(1);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nch];
    let mut slots = Vec::with_capacity(kernels.len());
    for (i, r) in topo.requestors.iter().enumerate() {
        assert!(
            r.kind != SystemKind::Ideal,
            "the replica models bus-attached requestors"
        );
        let c = placement.channel_of[i];
        slots.push((c, members[c].len()));
        members[c].push(i);
    }
    let mut storages: Vec<Storage> = (0..nch)
        .map(|_| Storage::new(placement.storage_bytes))
        .collect();
    for (i, k) in kernels.iter().enumerate() {
        k.apply_image(&mut storages[placement.channel_of[i]]);
    }
    let mut chans: Vec<Channel> = members
        .into_iter()
        .zip(storages)
        .map(|(m, s)| Channel::new(sys, spec, m, s))
        .collect();
    let bus = BusConfig::new(sys.bus_bits);
    let mut engines: Vec<Engine> = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let mut vcfg = sys.vproc;
            if chans[slots[i].0].members.len() > 1 {
                vcfg.axi_id_bits = LOCAL_ID_BITS;
            }
            Engine::new(vcfg, topo.requestors[i].kind, bus, k.program.clone())
        })
        .collect();
    let mut done = vec![false; engines.len()];
    let mut sigs: Vec<u64> = engines.iter().map(|e| progress(e.stats())).collect();
    let start = Instant::now();
    loop {
        // Idle accounting at the cycle boundary: staged pushes stay
        // invisible until end_cycle, so what a mux or adapter can act on
        // this cycle is fixed before anything ticks.
        for ch in chans.iter().filter(|ch| !ch.members.is_empty()) {
            for l in 0..ch.levels.len() {
                let ins = ch.inputs(l);
                for (k, mux) in ch.levels[l].iter().enumerate() {
                    let lo = k * arity;
                    let hi = (lo + arity).min(ins.len());
                    t.mux_ticks += 1;
                    t.mux_idle +=
                        u64::from(mux.quiescent() && ins[lo..hi].iter().all(AxiChannels::is_empty));
                }
            }
            t.adapter_ticks += 1;
            t.adapter_idle += u64::from(ch.adapter.quiescent() && ch.root().is_empty());
        }
        let t0 = Instant::now();
        for (i, engine) in engines.iter_mut().enumerate() {
            if !done[i] {
                let (c, j) = slots[i];
                let ch = &mut chans[c];
                engine.tick(Some(&mut ch.leaves[j]), ch.adapter.storage_mut());
            }
        }
        let t1 = Instant::now();
        for ch in chans.iter_mut() {
            ch.tick_muxes(arity);
        }
        let t2 = Instant::now();
        for ch in chans.iter_mut().filter(|ch| !ch.members.is_empty()) {
            ch.tick_adapter();
        }
        let t3 = Instant::now();
        for ch in chans.iter_mut() {
            ch.end_cycle();
        }
        let t4 = Instant::now();
        t.engine_ns += nanos(t0, t1);
        t.mux_ns += nanos(t1, t2);
        t.adapter_ns += nanos(t2, t3);
        t.channel_ns += nanos(t3, t4);
        t.cycles += 1;
        for (i, engine) in engines.iter().enumerate() {
            if done[i] {
                continue;
            }
            let now = progress(engine.stats());
            t.engine_ticks += 1;
            t.engine_idle += u64::from(now == sigs[i]);
            sigs[i] = now;
            done[i] = engine.done();
        }
        if done.iter().all(|&d| d) && chans.iter().all(Channel::drained) {
            break;
        }
        if t.cycles > limit {
            return Err(format!(
                "fabric of {}: past the product's {limit} cycles",
                engines.len()
            ));
        }
    }
    t.loop_ns = nanos(start, Instant::now());
    for ch in &chans {
        t.word_accesses += ch.adapter.word_reads() + ch.adapter.word_writes();
        t.bank_conflicts += ch.adapter.bank_conflicts();
    }
    for (i, engine) in engines.iter().enumerate() {
        verify(&kernels[i], engine, chans[slots[i].0].adapter.storage())
            .map_err(|e| format!("requestor {i}: {e}"))?;
    }
    t.call_ns = nanos(call, Instant::now());
    Ok(t)
}

/// The replica's self-test: a tiny solo, a 1-level fabric and a 2-level
/// fabric, each compared with the product in both scheduling modes on
/// cycles, word accesses and bank conflicts. Returns one line per case.
///
/// # Errors
///
/// Names the case and the first differing count when the replica and the
/// product disagree — the sign that a run-loop change needs the replica
/// updated before its layer times mean anything.
pub fn check_fidelity() -> Result<Vec<String>, String> {
    use workloads::{gemv, ismt, spmv, CsrMatrix, Dataflow};

    let mut lines = Vec::new();
    let compare = |case: &str, product: (u64, u64, u64), replica: Result<LayerTrace, String>| {
        let t = replica.map_err(|e| format!("replica fidelity: {case}: {e}"))?;
        let got = (t.cycles, t.word_accesses, t.bank_conflicts);
        if got == product {
            Ok(format!(
                "{case}: {} cycles, {} word accesses, {} bank conflicts",
                got.0, got.1, got.2
            ))
        } else {
            Err(format!(
                "replica fidelity: {case}: product (cycles, word accesses, bank conflicts) = \
                 {product:?}, replica = {got:?}"
            ))
        }
    };
    for mode in [SchedMode::Event, SchedMode::Lockstep] {
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.sched = mode;
        let kernel = ismt::build(16, 3, &cfg.kernel_params());
        let r = run_kernel(&cfg, &kernel).map_err(|e| format!("solo product run: {e}"))?;
        let product = (r.cycles, r.activity.word_accesses, r.bank_conflicts);
        let trace = solo(&cfg, SystemKind::Pack, &kernel, r.cycles);
        lines.push(compare(
            &format!("solo ismt16 pack ({mode})"),
            product,
            trace,
        )?);

        // 4 requestors on one channel are one mux level; 8 are two. The
        // row buffer keeps both off the flat path.
        for n in [4usize, 8] {
            for kind in [SystemKind::Base, SystemKind::Pack] {
                let mut sys = SystemConfig::with_bus(kind, 256);
                sys.sched = mode;
                let p = sys.kernel_params();
                let dataflow = if kind == SystemKind::Base {
                    Dataflow::RowWise
                } else {
                    Dataflow::ColWise
                };
                let reqs = (0..n).map(|s| {
                    let seed = 11 + s as u64;
                    let k = if s % 2 == 1 {
                        spmv::build(&CsrMatrix::random(16, 16, 4.0, seed), seed, &p)
                    } else {
                        gemv::build(12, seed, dataflow, &p)
                    };
                    axi_pack::Requestor::new(kind, k)
                });
                let topo = Topology::builder(&sys)
                    .requestors(reqs)
                    .fabric(FabricSpec::tree(4).with_row_buffer(8, 6))
                    .build()
                    .map_err(|e| format!("fabric self-test topology: {e}"))?;
                let r = run_system(&topo).map_err(|e| format!("fabric product run: {e}"))?;
                let product = (r.cycles, r.word_accesses, r.bank_conflicts);
                let case = format!("{}-level fabric of {n} {kind} ({mode})", r.levels.len());
                lines.push(compare(&case, product, fabric(&topo, r.cycles))?);
            }
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    #[test]
    fn replica_matches_the_product() {
        let lines = super::check_fidelity().expect("replica and product agree");
        assert!(lines.iter().any(|l| l.starts_with("1-level")));
        assert!(lines.iter().any(|l| l.starts_with("2-level")));
    }
}
