//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo_paper|sparse_rows|fabric_scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload from the seed and repeats passes of it — set-up,
//! every simulation run, verification — serially on one thread until
//! `--seconds` have passed. With `--trace 0` it reports the end-to-end
//! metrics (event scheduler, no tracing, host times at the nominal host
//! speed of `hostref.rs`); with `--trace 1` it
//! also runs every point in lockstep and through the traced replica
//! (see `replica.rs`) and reports the per-layer metrics. The result
//! cache is never installed, so every run simulates.
//!
//! Every run's simulated statistics are checked: at the default seed 0
//! against the values in `recorded.rs`, at other seeds against the
//! first pass; lockstep and traced runs against the event run. A
//! mismatch or a `RunError` counts as a failed run. The last line of
//! standard output is one JSON object with the verdict and the metrics.
//! `--record` prints `recorded.rs` for the current code instead.

mod hostref;
mod recorded;
mod replica;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use axi_pack::{
    run_kernel, run_kernel_probed, run_system, run_system_probed, RunProbe, RunReport, SchedMode,
    SystemReport,
};
use vproc::SystemKind;

use hostref::HostRef;
use replica::LayerTrace;
use workload::{Point, Sys, Workload};

/// The seed whose simulated statistics `recorded.rs` holds.
const DEFAULT_SEED: u64 = 0;
/// Set-up samples every run takes at least, for a steady `setup_s`.
const MIN_SETUP_SAMPLES: usize = 40;
/// Failure messages printed before the rest are only counted.
const MAX_REPORTED_FAILURES: usize = 20;

/// Simulated statistics of one run: what a change to the simulator alone
/// must leave bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Cycles until the system quiesced.
    pub cycles: u64,
    /// R-channel payload utilisation.
    pub r_util: f64,
    /// Root R beats per cycle (R busy fraction on a single bus).
    pub r_busy: f64,
    /// AR stall cycles summed over requestors.
    pub ar_stall: u64,
    /// W stall cycles summed over requestors.
    pub w_stall: u64,
    /// Bank word accesses.
    pub word_accesses: u64,
    /// Bank conflicts.
    pub bank_conflicts: u64,
    /// (AR, R) beats forwarded per mux level, leaf level first.
    pub levels: Vec<(u64, u64)>,
}

impl SimStats {
    fn of_solo(r: &RunReport) -> Self {
        SimStats {
            cycles: r.cycles,
            r_util: r.r_util,
            r_busy: r.r_busy,
            ar_stall: r.ar_stall_cycles,
            w_stall: r.w_stall_cycles,
            word_accesses: r.activity.word_accesses,
            bank_conflicts: r.bank_conflicts,
            levels: Vec::new(),
        }
    }

    fn of_system(r: &SystemReport) -> Self {
        SimStats {
            cycles: r.cycles,
            r_util: r.bus_r_util,
            r_busy: r.bus_r_busy,
            ar_stall: r.requestors.iter().map(|q| q.ar_stall_cycles).sum(),
            w_stall: r.requestors.iter().map(|q| q.w_stall_cycles).sum(),
            word_accesses: r.word_accesses,
            bank_conflicts: r.bank_conflicts,
            levels: r.levels.iter().map(|l| (l.ar_beats, l.r_beats)).collect(),
        }
    }

    /// The first field that differs from `want`, if any.
    fn diff(&self, want: &SimStats) -> Option<String> {
        let fields: [(&str, String, String); 8] = [
            ("cycles", self.cycles.to_string(), want.cycles.to_string()),
            (
                "r_util",
                format!("{:?}", self.r_util),
                format!("{:?}", want.r_util),
            ),
            (
                "r_busy",
                format!("{:?}", self.r_busy),
                format!("{:?}", want.r_busy),
            ),
            (
                "ar_stall",
                self.ar_stall.to_string(),
                want.ar_stall.to_string(),
            ),
            (
                "w_stall",
                self.w_stall.to_string(),
                want.w_stall.to_string(),
            ),
            (
                "word_accesses",
                self.word_accesses.to_string(),
                want.word_accesses.to_string(),
            ),
            (
                "bank_conflicts",
                self.bank_conflicts.to_string(),
                want.bank_conflicts.to_string(),
            ),
            (
                "levels",
                format!("{:?}", self.levels),
                format!("{:?}", want.levels),
            ),
        ];
        fields
            .into_iter()
            .find(|(_, got, exp)| got != exp)
            .map(|(name, got, exp)| format!("{name} {got}, expected {exp}"))
    }
}

fn set_sched(p: &mut Point, mode: SchedMode) {
    match &mut p.sys {
        Sys::Solo { cfg, .. } => cfg.sched = mode,
        Sys::Fabric(topo) => topo.system.sched = mode,
    }
}

/// One untraced product run.
fn run(p: &Point) -> Result<SimStats, String> {
    match &p.sys {
        Sys::Solo { cfg, kernel } => run_kernel(cfg, kernel)
            .map(|r| SimStats::of_solo(&r))
            .map_err(|e| e.to_string()),
        Sys::Fabric(topo) => {
            let r = run_system(topo).map_err(|e| e.to_string())?;
            if !r.all_completed() {
                return Err("a requestor faulted".into());
            }
            Ok(SimStats::of_system(&r))
        }
    }
}

/// One probed product run: its statistics and the cycles the event
/// scheduler skipped.
fn run_probed(p: &Point) -> Result<(SimStats, u64), String> {
    let mut probe = RunProbe::default();
    let stats = match &p.sys {
        Sys::Solo { cfg, kernel } => SimStats::of_solo(
            &run_kernel_probed(cfg, kernel, &mut probe).map_err(|e| e.to_string())?,
        ),
        Sys::Fabric(topo) => {
            SimStats::of_system(&run_system_probed(topo, &mut probe).map_err(|e| e.to_string())?)
        }
    };
    Ok((stats, probe.sched.skipped_cycles))
}

/// One traced replica run, stopped once it runs past the product's
/// `cycles`.
fn run_traced(p: &Point, cycles: u64) -> Result<LayerTrace, String> {
    match &p.sys {
        Sys::Solo { cfg, kernel } => replica::solo(cfg, p.kind, kernel, cycles),
        Sys::Fabric(topo) => replica::fabric(topo, cycles),
    }
}

/// The output gate: counts runs, compares statistics, and keeps the
/// reference statistics every later run of a point must reproduce.
struct Gate {
    reference: BTreeMap<String, SimStats>,
    /// At the default seed every label must have recorded statistics.
    recorded: bool,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn new(w: Workload, seed: u64) -> Self {
        let recorded = seed == DEFAULT_SEED;
        let mut reference = BTreeMap::new();
        if recorded {
            let prefix = format!("{}/", w.name());
            for &(
                label,
                cycles,
                r_util,
                r_busy,
                ar_stall,
                w_stall,
                word_accesses,
                bank_conflicts,
                levels,
            ) in recorded::RUNS
            {
                if let Some(label) = label.strip_prefix(&prefix) {
                    let stats = SimStats {
                        cycles,
                        r_util,
                        r_busy,
                        ar_stall,
                        w_stall,
                        word_accesses,
                        bank_conflicts,
                        levels: levels.to_vec(),
                    };
                    reference.insert(label.to_string(), stats);
                }
            }
        }
        Gate {
            reference,
            recorded,
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, msg: &str) {
        self.failed += 1;
        if self.failed as usize <= MAX_REPORTED_FAILURES {
            eprintln!("FAILED {msg}");
        }
    }

    /// Checks one run of `label` against its reference (the first run
    /// becomes the reference at seeds without recorded values).
    fn check(
        &mut self,
        label: &str,
        what: &str,
        got: Result<SimStats, String>,
    ) -> Option<SimStats> {
        self.attempted += 1;
        let stats = match got {
            Ok(s) => s,
            Err(e) => {
                self.fail(&format!("{label} ({what}): {e}"));
                return None;
            }
        };
        match self.reference.get(label) {
            Some(want) => match stats.diff(want) {
                None => Some(stats),
                Some(d) => {
                    self.fail(&format!("{label} ({what}): {d}"));
                    None
                }
            },
            None if self.recorded => {
                self.fail(&format!("{label} ({what}): no recorded statistics"));
                None
            }
            None => {
                self.reference.insert(label.to_string(), stats.clone());
                Some(stats)
            }
        }
    }

    /// Checks a traced replica run against the event run's statistics.
    fn check_traced(
        &mut self,
        label: &str,
        want: &SimStats,
        got: Result<LayerTrace, String>,
    ) -> Option<LayerTrace> {
        self.attempted += 1;
        match got {
            Ok(t)
                if (t.cycles, t.word_accesses, t.bank_conflicts)
                    == (want.cycles, want.word_accesses, want.bank_conflicts) =>
            {
                Some(t)
            }
            Ok(t) => {
                self.fail(&format!(
                    "{label} (traced): cycles/word accesses/bank conflicts {}/{}/{}, product {}/{}/{}",
                    t.cycles, t.word_accesses, t.bank_conflicts, want.cycles, want.word_accesses, want.bank_conflicts
                ));
                None
            }
            Err(e) => {
                self.fail(&format!("{label} (traced): {e}"));
                None
            }
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// The paper's reported figures the `solo_paper` kernels are set beside:
/// (kernel, PACK speedup over BASE, PACK R utilisation).
const PAPER: [(&str, Option<f64>, Option<f64>); 4] = [
    ("ismt", Some(5.4), None),
    ("gemv", None, Some(0.87)),
    ("spmv", Some(2.4), None),
    ("sssp", None, Some(0.39)),
];

/// Per-pair PACK speedups, PACK utilisations and the kernel-group
/// geometric means, from one pass's event-run statistics.
struct SimSummary {
    /// (pair label, group, BASE/PACK cycles, PACK R utilisation).
    pairs: Vec<(String, &'static str, f64, f64)>,
}

impl SimSummary {
    fn new(points: &[Point], stats: &BTreeMap<String, SimStats>) -> Self {
        let mut pairs = Vec::new();
        for pack in points.iter().filter(|p| p.kind == SystemKind::Pack) {
            let base = points
                .iter()
                .find(|b| b.kind == SystemKind::Base && b.pair() == pack.pair());
            if let (Some(base), Some(ps)) = (base, stats.get(&pack.label)) {
                if let Some(bs) = stats.get(&base.label) {
                    pairs.push((
                        pack.pair().to_string(),
                        pack.group,
                        ratio(bs.cycles as f64, ps.cycles as f64),
                        ps.r_util,
                    ));
                }
            }
        }
        SimSummary { pairs }
    }

    fn group_speedup(&self, group: &str) -> f64 {
        let logs: Vec<f64> = self
            .pairs
            .iter()
            .filter(|p| p.1 == group)
            .map(|p| p.2.ln())
            .collect();
        if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    }

    fn print(&self, w: Workload) {
        println!("{:<28} {:>10} {:>12}", "pair", "pack/base", "pack r_util");
        for (pair, _, s, u) in &self.pairs {
            println!("{pair:<28} {s:>9.2}x {u:>12.3}");
        }
        if w != Workload::SoloPaper {
            return;
        }
        println!();
        println!("paper reference (the model is checked only against the paper's reported figures, not against RTL):");
        for (kernel, speedup, util) in PAPER {
            let Some(&(_, _, s, u)) = self.pairs.iter().find(|p| p.0 == kernel) else {
                continue;
            };
            if let Some(want) = speedup {
                println!(
                    "  {kernel:<6} speedup   sim {s:.2}x  paper {want:.1}x  diff {:+.2}x",
                    s - want
                );
            }
            if let Some(want) = util {
                println!(
                    "  {kernel:<6} r_util    sim {:.1}%  paper {:.0}%  diff {:+.1} pp",
                    100.0 * u,
                    100.0 * want,
                    100.0 * (u - want)
                );
            }
        }
    }
}

/// Every metric a run reports, by name, with its unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// Runs `--trace 0`: passes of set-up, event-mode runs and verification.
fn end_to_end(
    w: Workload,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
) -> Result<(Metrics, SimSummary), String> {
    // Raw host times per sample, and the host-speed scale of each sample.
    let (mut setup, mut wall, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_scale, mut pass_scale) = (Vec::new(), Vec::new());
    let mut host = HostRef::new();
    let mut summary = None;
    let start = Instant::now();
    while summary.is_none() || start.elapsed().as_secs_f64() < seconds {
        let mark = host.mark();
        let pass = Instant::now();
        let mut built = workload::build(w, seed)?;
        setup.push(pass.elapsed().as_secs_f64());
        let (mut sim_s, mut cycles) = (0.0, 0u64);
        let mut stats = BTreeMap::new();
        for p in built.points.iter_mut() {
            set_sched(p, SchedMode::Event);
            let t = Instant::now();
            let got = run(p);
            let busy = t.elapsed().as_secs_f64();
            sim_s += busy;
            host.follow(busy);
            if let Some(s) = gate.check(&p.label, "event", got) {
                cycles += s.cycles;
                stats.insert(p.label.clone(), s);
            }
        }
        if summary.is_none() {
            summary = Some(SimSummary::new(&built.points, &stats));
        }
        drop(built);
        let ref_s = host.seconds() - mark.seconds();
        wall.push(pass.elapsed().as_secs_f64() - ref_s);
        rate.push(ratio(cycles as f64, sim_s));
        let scale = host.scale_since(&mark);
        pass_scale.push(scale);
        setup_scale.push(scale);
    }
    while setup.len() < MIN_SETUP_SAMPLES {
        let mark = host.mark();
        let t = Instant::now();
        drop(workload::build(w, seed)?);
        let busy = t.elapsed().as_secs_f64();
        setup.push(busy);
        host.follow(busy);
        setup_scale.push(host.scale_since(&mark));
    }
    println!(
        "{} passes, {} set-up samples; host speed (nominal/measured reference time) {:.3} median, {:.3}..{:.3}",
        wall.len(),
        setup.len(),
        median(pass_scale.clone()),
        pass_scale.iter().copied().fold(f64::INFINITY, f64::min),
        pass_scale.iter().copied().fold(0.0, f64::max),
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass raw wall_s: {}", list(&wall));
    println!("pass host speed: {}", list(&pass_scale));
    println!(
        "raw medians: setup_s {:.6} wall_s {:.6} sim_cycles_per_s {:.1}",
        median(setup.clone()),
        median(wall.clone()),
        median(rate.clone())
    );
    let at_nominal = |raw: &[f64], scale: &[f64], time: bool| {
        let v = raw
            .iter()
            .zip(scale)
            .map(|(r, k)| if time { r * k } else { r / k });
        median(v.collect())
    };
    let metrics = vec![
        (
            "setup_s".to_string(),
            at_nominal(&setup, &setup_scale, true),
            "s",
        ),
        (
            "wall_s".to_string(),
            at_nominal(&wall, &pass_scale, true),
            "s",
        ),
        (
            "sim_cycles_per_s".to_string(),
            at_nominal(&rate, &pass_scale, false),
            "cycles/s",
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb()?, "MB"),
    ];
    Ok((metrics, summary.expect("at least one pass")))
}

/// Per-pass host-time figures of the traced mode.
#[derive(Default)]
struct TracedPass {
    event_s: f64,
    lockstep_s: f64,
    trace: LayerTrace,
}

/// Runs `--trace 1`: per pass, every point in event mode, in lockstep
/// and through the traced replica; the first pass also runs each point
/// probed for the scheduler's skip count.
fn per_layer(
    w: Workload,
    seed: u64,
    seconds: f64,
    gate: &mut Gate,
) -> Result<(Metrics, SimSummary), String> {
    let (mut build_s, mut topo_s) = (Vec::new(), Vec::new());
    let mut passes: Vec<TracedPass> = Vec::new();
    let mut first: Option<(BTreeMap<String, SimStats>, SimSummary, u64)> = None;
    let mut points: Vec<(String, LayerTrace)> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut built = workload::build(w, seed)?;
        build_s.push(built.build_s);
        topo_s.push(built.topo_s);
        let mut pass = TracedPass::default();
        let mut stats = BTreeMap::new();
        let mut skipped = 0u64;
        for p in built.points.iter_mut() {
            set_sched(p, SchedMode::Event);
            let t = Instant::now();
            let got = run(p);
            pass.event_s += t.elapsed().as_secs_f64();
            let Some(event) = gate.check(&p.label, "event", got) else {
                continue;
            };
            if first.is_none() {
                let probed = run_probed(p);
                skipped += probed.as_ref().map_or(0, |(_, s)| *s);
                gate.check(&p.label, "probed", probed.map(|(s, _)| s));
            }
            set_sched(p, SchedMode::Lockstep);
            let t = Instant::now();
            let got = run(p);
            pass.lockstep_s += t.elapsed().as_secs_f64();
            gate.check(&p.label, "lockstep", got);
            if let Some(trace) = gate.check_traced(&p.label, &event, run_traced(p, event.cycles)) {
                pass.trace.add(&trace);
                if first.is_none() {
                    points.push((p.label.clone(), trace));
                }
            }
            stats.insert(p.label.clone(), event);
        }
        if first.is_none() {
            let summary = SimSummary::new(&built.points, &stats);
            first = Some((stats, summary, skipped));
        }
        passes.push(pass);
    }
    while build_s.len() < MIN_SETUP_SAMPLES {
        let built = workload::build(w, seed)?;
        build_s.push(built.build_s);
        topo_s.push(built.topo_s);
    }
    println!(
        "{} traced passes, {} set-up samples",
        passes.len(),
        build_s.len()
    );
    print_points(&points);
    let (stats, summary, skipped) = first.expect("at least one pass");

    let per_cycle = |f: &dyn Fn(&LayerTrace) -> u64| {
        median(
            passes
                .iter()
                .map(|p| ratio(f(&p.trace) as f64, p.trace.cycles as f64))
                .collect(),
        )
    };
    let t0 = &passes[0].trace;
    let sum = |f: &dyn Fn(&SimStats) -> f64| stats.values().map(f).sum::<f64>();
    let cycles = sum(&|s| s.cycles as f64);
    let words = sum(&|s| s.word_accesses as f64);
    let mut m: Metrics = vec![
        (
            "vproc.tick_ns_per_cycle".into(),
            per_cycle(&|t| t.engine_ns),
            "ns/cycle",
        ),
        (
            "vproc.idle_tick_frac".into(),
            ratio(t0.engine_idle as f64, t0.engine_ticks as f64),
            "fraction",
        ),
        (
            "axi.mux_tick_ns_per_cycle".into(),
            per_cycle(&|t| t.mux_ns),
            "ns/cycle",
        ),
        (
            "axi.mux_idle_tick_frac".into(),
            ratio(t0.mux_idle as f64, t0.mux_ticks as f64),
            "fraction",
        ),
        (
            "axi.channel_end_cycle_ns_per_cycle".into(),
            per_cycle(&|t| t.channel_ns),
            "ns/cycle",
        ),
        (
            "ctrl.adapter_tick_ns_per_cycle".into(),
            per_cycle(&|t| t.adapter_ns),
            "ns/cycle",
        ),
        (
            "ctrl.idle_tick_frac".into(),
            ratio(t0.adapter_idle as f64, t0.adapter_ticks as f64),
            "fraction",
        ),
        (
            "core.loop_other_ns_per_cycle".into(),
            per_cycle(&LayerTrace::other_ns),
            "ns/cycle",
        ),
        (
            "sched.skipped_cycle_frac".into(),
            ratio(skipped as f64, cycles),
            "fraction",
        ),
        (
            "sched.event_speedup".into(),
            median(
                passes
                    .iter()
                    .map(|p| ratio(p.lockstep_s, p.event_s))
                    .collect(),
            ),
            "x",
        ),
        ("workloads.build_s".into(), median(build_s), "s"),
        ("core.topology_build_s".into(), median(topo_s), "s"),
        ("mem.word_accesses".into(), words, "count"),
        (
            "mem.bank_conflict_rate".into(),
            ratio(sum(&|s| s.bank_conflicts as f64), words),
            "fraction",
        ),
        (
            "axi.root_r_beats_per_cycle".into(),
            ratio(sum(&|s| s.r_busy * s.cycles as f64), cycles),
            "beats/cycle",
        ),
        ("sim.cycles".into(), cycles, "cycles"),
        (
            "sim.r_util".into(),
            ratio(sum(&|s| s.r_util * s.cycles as f64), cycles),
            "fraction",
        ),
    ];
    for group in workload::SOLO_KERNELS.iter().chain(&["gemv_spmv"]) {
        m.push((
            format!("sim.pack_speedup.{group}"),
            summary.group_speedup(group),
            "x",
        ));
    }
    m.push((
        "trace.overhead".into(),
        median(
            passes
                .iter()
                .map(|p| ratio(p.trace.call_ns as f64 * 1e-9, p.lockstep_s) - 1.0)
                .collect(),
        ),
        "fraction",
    ));
    Ok((m, summary))
}

/// The first traced pass, point by point: host ns per simulated cycle in
/// each layer and the idle share of each layer's ticks.
fn print_points(points: &[(String, LayerTrace)]) {
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}",
        "traced point",
        "cycles",
        "engine",
        "mux",
        "adapter",
        "channel",
        "other",
        "eng%idl",
        "mux%idl",
        "ctl%idl"
    );
    let pct = |idle: u64, ticks: u64| 100.0 * ratio(idle as f64, ticks as f64);
    for (label, t) in points {
        let ns = |v: u64| ratio(v as f64, t.cycles as f64);
        println!(
            "{label:<28} {:>8} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>7.1} {:>7.1} {:>7.1}",
            t.cycles,
            ns(t.engine_ns),
            ns(t.mux_ns),
            ns(t.adapter_ns),
            ns(t.channel_ns),
            ns(t.other_ns()),
            pct(t.engine_idle, t.engine_ticks),
            pct(t.mux_idle, t.mux_ticks),
            pct(t.adapter_idle, t.adapter_ticks)
        );
    }
    println!("(ns per simulated cycle, first traced pass)");
    println!();
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `--record`: one event pass of every workload at the default seed,
/// printed as the source of `recorded.rs`.
fn record() -> Result<(), String> {
    println!("//! Simulated statistics of every benchmark run at the default seed 0.");
    println!("//!");
    println!(
        "//! Generated by `cargo run --release --manifest-path perfbench/Cargo.toml -- --record`;"
    );
    println!("//! regenerate only for a change meant to alter simulated behaviour.");
    println!();
    println!("use crate::Recorded;");
    println!();
    println!("/// (label, statistics) of every run, labels prefixed with the workload.");
    println!("#[rustfmt::skip]");
    println!("pub const RUNS: &[Recorded] = &[");
    for w in Workload::ALL {
        let mut built = workload::build(w, DEFAULT_SEED)?;
        for p in built.points.iter_mut() {
            set_sched(p, SchedMode::Event);
            let s = run(p).map_err(|e| format!("{}: {e}", p.label))?;
            println!(
                "    (\"{}/{}\", {}, {:?}, {:?}, {}, {}, {}, {}, &{:?}),",
                w.name(),
                p.label,
                s.cycles,
                s.r_util,
                s.r_busy,
                s.ar_stall,
                s.w_stall,
                s.word_accesses,
                s.bank_conflicts,
                s.levels
            );
        }
    }
    println!("];");
    Ok(())
}

/// One recorded run: label, cycles, R utilisation, R busy, AR stall
/// cycles, W stall cycles, word accesses, bank conflicts, level beats.
pub type Recorded = (
    &'static str,
    u64,
    f64,
    f64,
    u64,
    u64,
    u64,
    u64,
    &'static [(u64, u64)],
);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <solo_paper|sparse_rows|fabric_scale> \
                     [--seed N] [--seconds S] [--trace 0|1] | --record";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record") {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("record: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every run must simulate: a served cache hit would time a lookup.
    assert!(
        axi_pack::cache::active().is_none(),
        "the result cache must not be installed"
    );
    let w = args.workload;
    println!(
        "workload {} seed {} (data seed {:#x}) seconds {} trace {}",
        w.name(),
        args.seed,
        workload::data_seed(args.seed),
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        match replica::check_fidelity() {
            Ok(lines) => lines
                .iter()
                .for_each(|l| println!("replica self-test: {l}")),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut gate = Gate::new(w, args.seed);
    let result = if args.trace {
        per_layer(w, args.seed, args.seconds, &mut gate)
    } else {
        end_to_end(w, args.seed, args.seconds, &mut gate)
    };
    let (metrics, summary) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    assert!(
        axi_pack::cache::active().is_none(),
        "the result cache must not be installed"
    );
    summary.print(w);
    println!();
    for (name, value, unit) in &metrics {
        println!("{name:<38} {value:>16.6} {unit}");
    }
    println!("runs {} failed_runs {}", gate.attempted, gate.failed);
    println!(
        "{}",
        json(gate.failed == 0, gate.attempted, gate.failed, &metrics)
    );
    ExitCode::SUCCESS
}
