//! Whole-program benchmark: three paper workloads through the public
//! `chaos_lang` pipeline, from `parse_program` to the last `execute_loop`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--engine machine|pool]
//! ```
//!
//! With `--trace 0` it repeats whole rounds of the workload's program for
//! `--seconds`, each round in a fresh child process (so per-process
//! effects such as memory layout and arena placement are sampled, not
//! frozen for the run), and prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer profile. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. See `README.md` beside this package.

mod alloc;
mod handcoded;
mod inputs;
mod layers;
mod reference;
mod rounds;
mod stats;

use inputs::{Engine, Inputs, Scale, Workload};
use rounds::{front_end, Prepared, Round};
use stats::median;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Whole rounds every end-to-end run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Internal flag: run exactly one round and print it as a `round` line.
const ROUND_FLAG: &str = "--one-round";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    engine: Option<Engine>,
    one_round: bool,
    /// The arguments as given, passed on to child rounds.
    raw: Vec<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--engine machine|pool]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = raw.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut engine, mut one_round) = (None, false);
    while let Some(flag) = args.next() {
        if flag == ROUND_FLAG {
            one_round = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--engine" => {
                engine = Some(match value.as_str() {
                    "machine" => Engine::Machine,
                    "pool" => Engine::Pool { workers: 2 },
                    _ => return Err("--engine takes machine or pool".into()),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        engine,
        one_round,
        raw,
    })
}

/// The outcome of one benchmark invocation.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// A non-finite figure is a failed measurement: it makes the run
    /// incorrect.
    fn reject_non_finite(&mut self) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                eprintln!("metric {name} is not finite ({value})");
                self.correct = false;
            }
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; such a run is already marked
                // incorrect by `reject_non_finite`.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run one round in a child process of this binary and read its line.
fn child_round(raw: &[String]) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(raw)
        .arg(ROUND_FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("round exited with {}: {last}", out.status));
    }
    Round::from_line(last)
}

/// Repeat whole rounds for `seconds` (at least [`MIN_ROUNDS`]) and report
/// the end-to-end metrics.
fn end_to_end(
    prep: &Prepared,
    seconds: f64,
    mut run_round: impl FnMut() -> Result<Round, String>,
) -> Result<Report, String> {
    let program = front_end(prep.inputs.workload).map_err(|e| e.to_string())?;
    let ops = prep.ops_per_round(&program);
    let pure_hash = prep.rsb_owners.as_deref().map(rounds::owners_hash);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while attempted < MIN_ROUNDS * ops || start.elapsed().as_secs_f64() < seconds {
        attempted += ops;
        let result = run_round().and_then(|r| match pure_hash {
            Some(h) if h != r.owners_hash => {
                Err("RSB partition through the coupler differs from the pure partitioner".into())
            }
            _ => Ok(r),
        });
        match result {
            Ok(r) => {
                eprintln!(
                    "round {}: setup {:.3} s, median timestep {:.3} ms, total {:.3} s",
                    rounds.len() + 1,
                    r.setup_s,
                    median(&mut r.step_ms.clone()),
                    r.total_s
                );
                rounds.push(r);
            }
            Err(e) => {
                eprintln!("round failed: {e}");
                failed += ops;
            }
        }
    }
    let mut correct = failed == 0;
    // Modeled figures are deterministic: every round of a seed must agree
    // bit for bit.
    if rounds.windows(2).any(|w| w[0].modeled != w[1].modeled) {
        eprintln!("modeled figures differ between rounds of one seed");
        correct = false;
    }
    let mut setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let mut total: Vec<f64> = rounds.iter().map(|r| r.total_s).collect();
    let mut rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    let mut steps: Vec<f64> = rounds.iter().flat_map(|r| r.step_ms.clone()).collect();
    let modeled = rounds.first().map(|r| r.modeled);
    let metrics = vec![
        ("setup_s", median(&mut setup), "s"),
        ("sweep_ms", median(&mut steps), "ms"),
        ("total_s", median(&mut total), "s"),
        ("modeled_s", modeled.map_or(0.0, |m| m.modeled_s), "s"),
        (
            "modeled_sweep_ms",
            modeled.map_or(0.0, |m| m.modeled_sweep_ms),
            "ms",
        ),
        (
            "messages",
            modeled.map_or(0.0, |m| m.messages as f64),
            "count",
        ),
        (
            "mbytes",
            modeled.map_or(0.0, |m| m.bytes as f64 / 1e6),
            "MB",
        ),
        ("peak_rss_mb", median(&mut rss), "MB"),
    ];
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: the per-layer profile.
fn traced(prep: &Prepared, seconds: f64) -> Result<Report, String> {
    let program = front_end(prep.inputs.workload).map_err(|e| e.to_string())?;
    let ops = prep.ops_per_round(&program);
    let run = layers::run(prep, seconds)?;
    let failed = run.failed_rounds * ops;
    Ok(Report {
        correct: failed == 0,
        attempted: run.rounds * ops,
        failed,
        metrics: run.metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let mut inputs = Inputs::generate(args.workload, &Scale::full(), args.seed);
    if let Some(engine) = args.engine {
        inputs.engine = engine;
    }
    // A child round reports its owner-map hash; the parent checks it
    // against the pure partitioner, so the child skips that work.
    let prep = Prepared::new(inputs, !args.one_round);
    if args.one_round {
        return match rounds::round(&prep) {
            Ok(r) => {
                println!("{}", r.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("failed {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!(
        "{}: {} nodes, {} pairs{}, {} timesteps per round; inputs and checks prepared in {:.2} s",
        args.workload.name(),
        prep.inputs.n,
        prep.inputs.edges.len(),
        if prep.inputs.faces.len() > 0 {
            format!(" + {} faces", prep.inputs.faces.len())
        } else {
            String::new()
        },
        prep.inputs.timesteps,
        t.elapsed().as_secs_f64()
    );
    let report = if args.trace {
        traced(&prep, args.seconds)
    } else {
        end_to_end(&prep, args.seconds, || child_round(&args.raw))
    };
    match report {
        Ok(mut r) => {
            r.reject_non_finite();
            println!("{}", r.json());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Self-test: every workload runs at a tiny size and passes its checks in
/// both modes, and the checks reject deliberately wrong outputs.
#[cfg(test)]
mod tests {
    use super::*;
    use chaos_lang::Executor;

    fn tiny(w: Workload) -> Prepared {
        Prepared::new(Inputs::generate(w, &Scale::tiny(), 7), true)
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        for w in Workload::ALL {
            let prep = tiny(w);
            let report = end_to_end(&prep, 0.0, || rounds::round(&prep)).unwrap();
            assert!(report.correct, "{}", w.name());
            assert_eq!(report.failed, 0);
            assert!(report.metrics.iter().all(|m| m.1 > 0.0), "{}", w.name());
            let traced = traced(&prep, 0.0).unwrap();
            assert!(traced.correct, "{} traced", w.name());
            assert_eq!(traced.metrics.len(), layers::LAYER_METRICS.len());
        }
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![
                ("sweep_ms", 1.5, "ms"),
                ("lang.vs_handcoded", f64::INFINITY, "ratio"),
            ],
        };
        r.reject_non_finite();
        assert!(!r.correct);
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn round_lines_round_trip() {
        let prep = tiny(Workload::Euler2LoopPool);
        let r = rounds::round(&prep).unwrap();
        assert_eq!(Round::from_line(&r.to_line()).unwrap(), r);
        assert!(Round::from_line("failed: no").is_err());
    }

    #[test]
    fn inputs_repeat_per_seed_and_change_across_seeds() {
        let scale = Scale::tiny();
        let a = Inputs::generate(Workload::Euler2LoopPool, &scale, 3);
        let b = Inputs::generate(Workload::Euler2LoopPool, &scale, 3);
        let c = Inputs::generate(Workload::Euler2LoopPool, &scale, 4);
        assert_eq!(
            (&a.x, &a.edges.a, &a.faces.b),
            (&b.x, &b.edges.a, &b.faces.b)
        );
        assert_ne!(a.x, c.x);
        assert!(!a.faces.a.is_empty());
    }

    /// The executor's `y` after one sweep of the RSB program.
    fn one_sweep(prep: &Prepared) -> (Executor, Vec<f64>) {
        let program = front_end(prep.inputs.workload).unwrap();
        let mut exec = Executor::new(prep.config(), prep.inputs.program_inputs());
        exec.run(&program).unwrap();
        let y = exec.real_global("y").unwrap();
        (exec, y)
    }

    #[test]
    fn perturbed_output_array_is_rejected() {
        let prep = tiny(Workload::EulerRsbSetup);
        let r = &prep.references[0];
        let (_, mut y) = one_sweep(&prep);
        r.check(&y, 1).unwrap();
        assert!(r.check(&y, 2).is_err(), "sweep count must matter");
        let i = (0..y.len())
            .max_by(|&a, &b| r.magnitude[a].total_cmp(&r.magnitude[b]))
            .unwrap();
        y[i] += 1e-6 * r.magnitude[i];
        assert!(r.check(&y, 1).is_err());
    }

    #[test]
    fn forces_that_do_not_cancel_are_rejected() {
        let prep = tiny(Workload::MdPool);
        let r = &prep.references[0];
        let mut f: Vec<f64> = r.value.clone();
        reference::check_momentum(&f, r, 1).unwrap();
        f[0] += 1e-3 * r.magnitude.iter().sum::<f64>();
        assert!(reference::check_momentum(&f, r, 1).is_err());
    }

    #[test]
    fn partition_checks_reject_a_wrong_partition() {
        let mut prep = tiny(Workload::EulerRsbSetup);
        let program = front_end(prep.inputs.workload).unwrap();
        let (exec, _) = one_sweep(&prep);
        let dist = exec.decomposition("reg").unwrap();
        reference::check_ownership(dist, prep.inputs.n).unwrap();
        assert!(reference::check_ownership(dist, prep.inputs.n + 1).is_err());
        // One sweep ran, so compare against a one-sweep run's references.
        prep.inputs.timesteps = 0;
        rounds::check_round(&exec, &prep, &program).unwrap();
        let owners = prep.rsb_owners.as_mut().unwrap();
        let other = owners.iter().position(|&o| o != owners[0]).unwrap();
        owners.swap(0, other);
        assert!(rounds::check_round(&exec, &prep, &program).is_err());
    }
}
