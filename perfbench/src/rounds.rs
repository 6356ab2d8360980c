//! One round = one whole paper program: executor construction, parse and
//! lower, every statement once, then the steady-state timesteps.

use crate::inputs::{Engine, Inputs, Workload};
use crate::reference::{self, Reference};
use chaos_dmsim::{Backend, MachineConfig, PhaseKind};
use chaos_geocol::{partitioner_by_name, GeoColBuilder};
use chaos_lang::{CompiledProgram, Executor, LangError};
use std::time::Instant;

/// Inputs plus everything the checks need, computed before timing.
pub struct Prepared {
    pub inputs: Inputs,
    pub references: Vec<Reference>,
    /// Owners from the pure `Partitioner::partition` of the directive's
    /// `RSB` partitioner on the program's LINK GeoCoL (RSB workload only).
    pub rsb_owners: Option<Vec<u32>>,
}

impl Prepared {
    /// Compute the references, and with `rsb_check` the pure RSB owners.
    pub fn new(inputs: Inputs, rsb_check: bool) -> Self {
        let references = reference::references(&inputs);
        let rsb_owners = (rsb_check && inputs.workload == Workload::EulerRsbSetup).then(|| {
            let geocol = GeoColBuilder::new(inputs.n)
                .link(inputs.edges.a.clone(), inputs.edges.b.clone())
                .build()
                .expect("mesh edges form a valid LINK GeoCoL");
            partitioner_by_name("RSB")
                .expect("RSB is a registered partitioner")
                .partition(&geocol, inputs.nprocs)
                .owners()
                .to_vec()
        });
        Prepared {
            inputs,
            references,
            rsb_owners,
        }
    }

    pub fn config(&self) -> MachineConfig {
        MachineConfig::ipsc860(self.inputs.nprocs)
    }

    /// Operations one round attempts: every source statement, then every
    /// steady-state timestep.
    pub fn ops_per_round(&self, program: &CompiledProgram) -> usize {
        program.program.stmts.len() + self.inputs.timesteps
    }
}

/// Build the workload's executor on its engine and hand it to `f`.
macro_rules! with_executor {
    ($prep:expr, $exec:ident => $body:expr) => {{
        let prep: &Prepared = $prep;
        let inputs = prep.inputs.program_inputs();
        let every = prep.inputs.workload.checkpoint_every();
        match prep.inputs.engine {
            Engine::Machine => {
                let make =
                    move || Executor::new(prep.config(), inputs).with_checkpoint_every(every);
                let $exec = make;
                $body
            }
            Engine::Pool { workers } => {
                let make = move || {
                    Executor::new_pooled_with_workers(prep.config(), workers, inputs)
                        .with_checkpoint_every(every)
                };
                let $exec = make;
                $body
            }
        }
    }};
}
pub(crate) use with_executor;

/// Modeled figures of one round; identical in every round of a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    pub modeled_s: f64,
    pub modeled_sweep_ms: f64,
    pub messages: usize,
    pub bytes: usize,
}

/// Read the modeled figures off a finished round.
pub fn modeled<B: Backend>(exec: &Executor<B>, executor_after_setup: f64, steps: usize) -> Modeled {
    let m = exec.machine();
    let totals = m.stats().grand_totals();
    Modeled {
        modeled_s: m.elapsed().max_seconds(),
        modeled_sweep_ms: (m.phase_elapsed(PhaseKind::Executor) - executor_after_setup) * 1e3
            / steps.max(1) as f64,
        messages: totals.messages,
        bytes: totals.bytes,
    }
}

/// The wall figures and modeled figures of one untraced round.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    pub setup_s: f64,
    pub total_s: f64,
    pub step_ms: Vec<f64>,
    pub modeled: Modeled,
    /// Peak resident memory of the process when the round ended.
    pub peak_rss_mb: f64,
    /// FNV-1a hash of the mapped decomposition's owner map.
    pub owners_hash: u64,
}

impl Round {
    /// One line of whitespace-separated fields (a round run in a child
    /// process reports this way; `f64` display round-trips exactly).
    pub fn to_line(&self) -> String {
        let m = &self.modeled;
        let mut line = format!(
            "round {} {} {} {} {} {} {} {}",
            self.setup_s,
            self.total_s,
            m.modeled_s,
            m.modeled_sweep_ms,
            m.messages,
            m.bytes,
            self.peak_rss_mb,
            self.owners_hash
        );
        for s in &self.step_ms {
            line.push_str(&format!(" {s}"));
        }
        line
    }

    /// Parse [`Round::to_line`]'s output.
    pub fn from_line(line: &str) -> Result<Round, String> {
        let bad = || format!("malformed round line: {line}");
        let mut f = line.split_whitespace();
        if f.next() != Some("round") {
            return Err(bad());
        }
        let mut num =
            || -> Result<f64, String> { f.next().and_then(|v| v.parse().ok()).ok_or_else(bad) };
        let (setup_s, total_s, modeled_s, modeled_sweep_ms) = (num()?, num()?, num()?, num()?);
        let (messages, bytes, peak_rss_mb) = (num()? as usize, num()? as usize, num()?);
        let owners_hash = f.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
        let step_ms = f
            .map(|v| v.parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        Ok(Round {
            setup_s,
            total_s,
            step_ms,
            modeled: Modeled {
                modeled_s,
                modeled_sweep_ms,
                messages,
                bytes,
            },
            peak_rss_mb,
            owners_hash,
        })
    }
}

/// FNV-1a over an owner map.
pub fn owners_hash(owners: &[u32]) -> u64 {
    owners.iter().fold(0xcbf2_9ce4_8422_2325, |h, &o| {
        o.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Peak resident set of this process, in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// Check a finished round's outputs, partition and reuse counters.
pub fn check_round<B: Backend>(
    exec: &Executor<B>,
    prep: &Prepared,
    program: &CompiledProgram,
) -> Result<(), String> {
    let inputs = &prep.inputs;
    let sweeps = inputs.timesteps + 1;
    for r in &prep.references {
        let actual = exec
            .real_global(r.array)
            .ok_or_else(|| format!("array {} missing after the run", r.array))?;
        r.check(&actual, sweeps)?;
        if inputs.workload == Workload::MdPool {
            reference::check_momentum(&actual, r, sweeps)?;
        }
    }
    let decomp = inputs.workload.mapped_decomposition();
    let dist = exec
        .decomposition(decomp)
        .ok_or_else(|| format!("decomposition {decomp} not distributed"))?;
    reference::check_ownership(dist, inputs.n)?;
    if let Some(pure) = &prep.rsb_owners {
        if reference::owners(dist) != *pure {
            return Err(
                "RSB partition through the coupler differs from the pure partitioner".into(),
            );
        }
    }
    let nloops = program.plans.len();
    let report = exec.report();
    if report.inspector_runs != nloops || report.kernels_compiled != nloops {
        return Err(format!(
            "{} inspector runs and {} kernel compiles for {nloops} FORALLs",
            report.inspector_runs, report.kernels_compiled
        ));
    }
    Ok(())
}

/// Parse and lower the workload's program.
pub fn front_end(w: Workload) -> Result<CompiledProgram, LangError> {
    chaos_lang::lower_program(chaos_lang::parse_program(w.program_text())?)
}

/// Run one untraced round on the executor `make` builds.
pub fn run_round<B: Backend>(
    make: impl FnOnce() -> Executor<B>,
    prep: &Prepared,
) -> Result<Round, String> {
    let labels = prep.inputs.loop_labels();
    let start = Instant::now();
    let mut exec = make();
    let program = front_end(prep.inputs.workload).map_err(|e| e.to_string())?;
    exec.run(&program).map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();
    let executor_after_setup = exec.machine().phase_elapsed(PhaseKind::Executor);
    let mut step_ms = Vec::with_capacity(prep.inputs.timesteps);
    for _ in 0..prep.inputs.timesteps {
        let t = Instant::now();
        for label in labels {
            exec.execute_loop(&program, label)
                .map_err(|e| e.to_string())?;
        }
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let total_s = start.elapsed().as_secs_f64();
    check_round(&exec, prep, &program)?;
    let decomp = prep.inputs.workload.mapped_decomposition();
    let owners = exec
        .decomposition(decomp)
        .map(reference::owners)
        .ok_or_else(|| format!("decomposition {decomp} not distributed"))?;
    Ok(Round {
        setup_s,
        total_s,
        step_ms,
        modeled: modeled(&exec, executor_after_setup, prep.inputs.timesteps),
        peak_rss_mb: peak_rss_mb()?,
        owners_hash: owners_hash(&owners),
    })
}

/// Run one untraced round on the workload's own engine.
pub fn round(prep: &Prepared) -> Result<Round, String> {
    with_executor!(prep, make => run_round(make, prep))
}
