//! The traced run: the per-layer profile.
//!
//! Spans are the benchmark's own, wrapped around calls into each layer's
//! public functions; the program carries no instrumentation of its own.
//! The lang program runs statement by statement (each statement as a
//! one-statement slice of the `CompiledProgram`), so directive execution,
//! GeoCoL construction, partitioning, remap and each FORALL's first run
//! (its inspector) get their own spans; timesteps are timed per FORALL.

use crate::alloc;
use crate::handcoded::{self, HandSample};
use crate::inputs::Engine;
use crate::rounds::{self, check_round, front_end, with_executor, Prepared, Round};
use crate::stats::{median, quantile};
use chaos_dmsim::{Backend, CommStats, Machine, PhaseKind, PooledBackend};
use chaos_lang::ast::Program;
use chaos_lang::kernel::GroupSpec;
use chaos_lang::{
    compile_kernel, lower_program, parse_program, CompiledProgram, Executor, Stmt,
    SAVED_GATHER_LABEL,
};
use chaos_runtime::Distribution;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Every per-layer metric, in output order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("lang.front_end_us", "us"),
    ("lang.compile_us", "us"),
    ("lang.vs_handcoded", "ratio"),
    ("exec.load_ms", "ms"),
    ("geocol.construct_ms", "ms"),
    ("geocol.construct_modeled_s", "s"),
    ("partition.wall_ms", "ms"),
    ("partition.modeled_s", "s"),
    ("partition.edge_cut", "count"),
    ("partition.imbalance", "ratio"),
    ("remap.wall_ms", "ms"),
    ("remap.modeled_s", "s"),
    ("remap.mbytes", "MB"),
    ("inspect.first_forall_ms.L1", "ms"),
    ("inspect.first_forall_ms.L2", "ms"),
    ("inspect.iterpart_ms", "ms"),
    ("inspect.localize_ms", "ms"),
    ("inspect.dereference_ms", "ms"),
    ("inspect.modeled_s", "s"),
    ("inspect.messages", "count"),
    ("inspect.mbytes", "MB"),
    ("inspect.allocs", "count"),
    ("inspect.reuse_check_us", "us"),
    ("sweep.L1_ms", "ms"),
    ("sweep.L2_ms", "ms"),
    ("sweep.gather_us", "us"),
    ("sweep.compute_us", "us"),
    ("sweep.scatter_us", "us"),
    ("sweep.compute_ns_per_iter", "ns"),
    ("sweep.messages", "count"),
    ("sweep.kbytes", "kB"),
    ("sweep.saved_kbytes", "kB"),
    ("sweep.allocs", "count"),
    ("engine.phase_us_p50", "us"),
    ("engine.phase_us_p95", "us"),
    ("ckpt.modeled_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Empty compute phases timed for the engine metrics.
const ENGINE_PHASES: usize = 300;
/// Kernel compiles timed (median taken).
const COMPILES: usize = 21;
/// Hand-coded timesteps timed.
const HAND_STEPS: usize = 10;

/// One traced round's wall total and layer figures.
struct TracedRound {
    total_s: f64,
    values: BTreeMap<&'static str, f64>,
    dist: Distribution,
}

fn delta(after: &CommStats, before: &CommStats) -> (f64, f64) {
    (
        (after.messages - before.messages) as f64,
        (after.bytes - before.bytes) as f64,
    )
}

/// Run one round with a span around every statement and every FORALL of
/// every timestep.
fn traced_round<B: Backend>(
    make: impl FnOnce() -> Executor<B>,
    prep: &Prepared,
) -> Result<TracedRound, String> {
    let labels = prep.inputs.loop_labels();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let start = Instant::now();
    let mut exec = make();
    let t = Instant::now();
    let parsed = parse_program(prep.inputs.workload.program_text()).map_err(|e| e.to_string())?;
    let program = lower_program(parsed).map_err(|e| e.to_string())?;
    v.insert("lang.front_end_us", t.elapsed().as_secs_f64() * 1e6);

    for stmt in &program.program.stmts {
        let slice = CompiledProgram {
            program: Program {
                stmts: vec![stmt.clone()],
            },
            info: program.info.clone(),
            plans: program.plans.clone(),
        };
        let key = match stmt {
            Stmt::Distribute { .. } | Stmt::Align { .. } | Stmt::ReadData { .. } => {
                Some("exec.load_ms")
            }
            Stmt::Construct { .. } => Some("geocol.construct_ms"),
            Stmt::SetPartition { .. } => Some("partition.wall_ms"),
            Stmt::Redistribute { .. } => Some("remap.wall_ms"),
            Stmt::Forall { label, .. } => match label.as_str() {
                "L1" => Some("inspect.first_forall_ms.L1"),
                "L2" => Some("inspect.first_forall_ms.L2"),
                _ => None,
            },
            Stmt::Declare { .. } | Stmt::Decomposition { .. } => None,
        };
        let t = Instant::now();
        exec.run(&slice).map_err(|e| e.to_string())?;
        if let Some(key) = key {
            *v.entry(key).or_default() += t.elapsed().as_secs_f64() * 1e3;
        }
    }

    let m = exec.machine();
    v.insert(
        "geocol.construct_modeled_s",
        m.phase_elapsed(PhaseKind::GraphGeneration),
    );
    v.insert(
        "partition.modeled_s",
        m.phase_elapsed(PhaseKind::Partitioner),
    );
    v.insert("remap.modeled_s", m.phase_elapsed(PhaseKind::Remap));
    v.insert(
        "remap.mbytes",
        m.stats().totals_for(PhaseKind::Remap).bytes as f64 / 1e6,
    );
    v.insert("inspect.modeled_s", m.phase_elapsed(PhaseKind::Inspector));
    let inspector = m.stats().totals_for(PhaseKind::Inspector);
    v.insert("inspect.messages", inspector.messages as f64);
    v.insert("inspect.mbytes", inspector.bytes as f64 / 1e6);

    let mut per_loop: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut messages, mut kbytes, mut saved, mut allocs) = (vec![], vec![], vec![], vec![]);
    alloc::set_counting(true);
    for _ in 0..prep.inputs.timesteps {
        let stats0 = exec.machine().stats().grand_totals();
        let saved0 = exec.machine().stats().saved_labelled(SAVED_GATHER_LABEL);
        let allocs0 = alloc::count();
        for &label in labels {
            let t = Instant::now();
            let result = exec.execute_loop(&program, label);
            per_loop
                .entry(label)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = result {
                alloc::set_counting(false);
                return Err(e.to_string());
            }
        }
        allocs.push((alloc::count() - allocs0) as f64);
        let stats = exec.machine().stats();
        let (msg, bytes) = delta(&stats.grand_totals(), &stats0);
        messages.push(msg);
        kbytes.push(bytes / 1e3);
        saved.push(delta(&stats.saved_labelled(SAVED_GATHER_LABEL), &saved0).1 / 1e3);
    }
    alloc::set_counting(false);
    let total_s = start.elapsed().as_secs_f64();

    for (label, key) in [("L1", "sweep.L1_ms"), ("L2", "sweep.L2_ms")] {
        if let Some(walls) = per_loop.get_mut(label) {
            v.insert(key, median(walls));
        }
    }
    v.insert("sweep.messages", median(&mut messages));
    v.insert("sweep.kbytes", median(&mut kbytes));
    v.insert("sweep.saved_kbytes", median(&mut saved));
    v.insert("sweep.allocs", median(&mut allocs));
    v.insert(
        "ckpt.modeled_s",
        exec.machine().phase_elapsed(PhaseKind::Checkpoint),
    );

    check_round(&exec, prep, &program)?;
    let decomp = prep.inputs.workload.mapped_decomposition();
    let dist = exec
        .decomposition(decomp)
        .cloned()
        .ok_or_else(|| format!("decomposition {decomp} not distributed"))?;
    Ok(TracedRound {
        total_s,
        values: v,
        dist,
    })
}

/// `compile_kernel` over every `LoopPlan`, grouped by decomposition the way
/// the executor groups slots; median of [`COMPILES`] passes, in µs.
fn compile_us(program: &CompiledProgram) -> Result<f64, String> {
    let mut decomp_of: HashMap<&str, &str> = HashMap::new();
    for stmt in &program.program.stmts {
        if let Stmt::Align { arrays, decomp } = stmt {
            for a in arrays {
                decomp_of.insert(a, decomp);
            }
        }
    }
    let mut groups: Vec<(&chaos_lang::LoopPlan, Vec<GroupSpec>)> = Vec::new();
    for plan in program.plans.values() {
        let mut by_decomp: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, slot) in plan.slots.iter().enumerate() {
            let d = decomp_of
                .get(slot.array.as_str())
                .ok_or_else(|| format!("array {} not aligned", slot.array))?;
            by_decomp.entry(d).or_default().push(i);
        }
        let specs = by_decomp
            .into_iter()
            .map(|(decomp, slot_ids)| GroupSpec {
                decomp: decomp.to_string(),
                slot_ids,
            })
            .collect();
        groups.push((plan, specs));
    }
    let mut samples = Vec::with_capacity(COMPILES);
    for _ in 0..COMPILES {
        let t = Instant::now();
        for (plan, specs) in &groups {
            std::hint::black_box(compile_kernel(plan, specs)?);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&mut samples))
}

/// Empty `run_compute` phases on a fresh engine of the workload's kind.
fn engine_phase_us<B: Backend>(backend: &mut B) -> (f64, f64) {
    let p = backend.nprocs();
    let mut samples = Vec::with_capacity(ENGINE_PHASES);
    for i in 0..ENGINE_PHASES + 20 {
        let t = Instant::now();
        backend.run_compute((0..p).map(|_| ()), |_ctx, ()| {});
        if i >= 20 {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    (quantile(&mut samples, 0.5), quantile(&mut samples, 0.95))
}

/// Partition quality of the program's distribution over the loop graph
/// (mesh edges, or MD pairs): edge cut and max/mean part size.
fn quality(prep: &Prepared, dist: &Distribution) -> Result<(f64, f64), String> {
    let inputs = &prep.inputs;
    let geocol = chaos_geocol::GeoColBuilder::new(inputs.n)
        .link(inputs.edges.a.clone(), inputs.edges.b.clone())
        .build()
        .map_err(|e| format!("{e:?}"))?;
    let parts = chaos_geocol::Partitioning::new(crate::reference::owners(dist), inputs.nprocs);
    let q = chaos_geocol::PartitionQuality::evaluate(&geocol, &parts);
    Ok((q.edge_cut as f64, q.load_imbalance))
}

/// The result of a traced run.
pub struct LayerRun {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub rounds: usize,
    pub failed_rounds: usize,
}

/// Alternate untraced and traced rounds for `seconds`, then run the
/// hand-coded layers and the engine probe once.
pub fn run(prep: &Prepared, seconds: f64) -> Result<LayerRun, String> {
    let start = Instant::now();
    let (mut untraced, mut traced): (Vec<Round>, Vec<TracedRound>) = (vec![], vec![]);
    let mut failed_rounds = 0;
    while untraced.is_empty() || traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match rounds::round(prep) {
            Ok(r) => untraced.push(r),
            Err(e) => {
                eprintln!("untraced round failed: {e}");
                failed_rounds += 1;
            }
        }
        match with_executor!(prep, make => traced_round(make, prep)) {
            Ok(r) => traced.push(r),
            Err(e) => {
                eprintln!("traced round failed: {e}");
                failed_rounds += 1;
            }
        }
        if failed_rounds > 0 {
            break;
        }
    }
    let rounds = untraced.len() + traced.len() + failed_rounds;
    if failed_rounds > 0 || traced.is_empty() || untraced.is_empty() {
        return Ok(LayerRun {
            metrics: Vec::new(),
            rounds,
            failed_rounds: failed_rounds.max(1),
        });
    }

    // Per-metric medians over the traced rounds.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let keys: Vec<&'static str> = traced[0].values.keys().copied().collect();
    for key in keys {
        let mut s: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.values.get(key).copied())
            .collect();
        values.insert(key, median(&mut s));
    }
    let mut traced_total: Vec<f64> = traced.iter().map(|r| r.total_s).collect();
    let mut untraced_total: Vec<f64> = untraced.iter().map(|r| r.total_s).collect();
    values.insert(
        "trace.overhead",
        median(&mut traced_total) / median(&mut untraced_total),
    );
    let mut lang_steps: Vec<f64> = untraced.iter().flat_map(|r| r.step_ms.clone()).collect();
    let lang_step_ms = median(&mut lang_steps);

    let program = front_end(prep.inputs.workload).map_err(|e| e.to_string())?;
    values.insert("lang.compile_us", compile_us(&program)?);
    let dist = &traced[traced.len() - 1].dist;
    let (cut, imbalance) = quality(prep, dist)?;
    values.insert("partition.edge_cut", cut);
    values.insert("partition.imbalance", imbalance);

    let ops: Vec<f64> = prep
        .inputs
        .loop_labels()
        .iter()
        .map(|l| program.plans[*l].ops_per_iteration)
        .collect();
    let config = prep.config();
    let (hand, (p50, p95)): (HandSample, (f64, f64)) = match prep.inputs.engine {
        Engine::Machine => {
            let mut m = Machine::new(config.clone());
            let hand = handcoded::run(
                &mut m,
                &prep.inputs,
                &prep.references,
                dist,
                &ops,
                HAND_STEPS,
            )?;
            (hand, engine_phase_us(&mut Machine::new(config)))
        }
        Engine::Pool { workers } => {
            let hand = {
                let mut pool = PooledBackend::from_config_with_workers(config.clone(), workers);
                handcoded::run(
                    &mut pool,
                    &prep.inputs,
                    &prep.references,
                    dist,
                    &ops,
                    HAND_STEPS,
                )?
            };
            let mut pool = PooledBackend::from_config_with_workers(config, workers);
            (hand, engine_phase_us(&mut pool))
        }
    };
    values.insert("lang.vs_handcoded", lang_step_ms / hand.step_ms);
    values.insert("inspect.iterpart_ms", hand.iterpart_ms);
    values.insert("inspect.localize_ms", hand.localize_ms);
    values.insert("inspect.dereference_ms", hand.dereference_ms);
    values.insert("inspect.allocs", hand.inspect_allocs);
    values.insert("inspect.reuse_check_us", hand.reuse_check_us);
    values.insert("sweep.gather_us", hand.gather_us);
    values.insert("sweep.compute_us", hand.compute_us);
    values.insert("sweep.scatter_us", hand.scatter_us);
    values.insert("sweep.compute_ns_per_iter", hand.compute_ns_per_iter);
    values.insert("engine.phase_us_p50", p50);
    values.insert("engine.phase_us_p95", p95);

    // The second FORALL's metrics read 0 on a one-loop workload; any other
    // metric left unmeasured is a fault of this benchmark.
    let one_loop = !prep.inputs.loop_labels().contains(&"L2");
    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for &(name, unit) in LAYER_METRICS {
        let value = match values.get(name) {
            Some(&v) => v,
            None if one_loop && name.contains("L2") => 0.0,
            None => return Err(format!("per-layer metric {name} was not measured")),
        };
        metrics.push((name, value, unit));
    }
    Ok(LayerRun {
        metrics,
        rounds,
        failed_rounds: 0,
    })
}
