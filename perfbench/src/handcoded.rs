//! The workload's loops hand-coded against `chaos_runtime`, with the
//! benchmark's spans around each call into the runtime's public layers:
//! iteration partitioning, the inspector, translation-table dereference,
//! the reuse check, and the sweep's gather, compute and scatter.
//!
//! The distribution is the one the program's mapping directives produced,
//! so the hand-coded sweep and the program's sweep do the same work on the
//! same engine: their wall ratio is the paper's Table 2 comparison.

use crate::alloc;
use crate::inputs::{Inputs, Pairs, Workload};
use crate::reference::{self, eflux, Reference};
use crate::stats::median;
use chaos_dmsim::Backend;
use chaos_runtime::iterpart::partition_iterations;
use chaos_runtime::{
    gather_into, scatter_add, AccessPattern, Dad, DistArray, Distribution, Inspector,
    InspectorResult, IterPartitionPolicy, IterationPartition, LocalRef, LocalizeScratch, LoopId,
    ReuseRegistry, TTablePolicy, TranslationTable,
};
use std::time::Instant;

/// Reuse checks timed per loop.
const REUSE_CHECKS: usize = 200;

/// Per-layer figures of the hand-coded run.
#[derive(Debug, Clone, Default)]
pub struct HandSample {
    pub iterpart_ms: f64,
    pub localize_ms: f64,
    pub dereference_ms: f64,
    pub inspect_allocs: f64,
    pub reuse_check_us: f64,
    pub gather_us: f64,
    pub compute_us: f64,
    pub scatter_us: f64,
    pub compute_ns_per_iter: f64,
    /// Median wall of one hand-coded timestep (every loop once).
    pub step_ms: f64,
}

/// Which loop body a hand-coded loop runs.
#[derive(Debug, Clone, Copy)]
enum Body {
    EdgeFlux,
    Face,
    PairForce,
}

impl Body {
    /// Contributions `(to a, to b)` from the read values at both ends.
    #[inline]
    fn eval(self, a: &[f64; 4], b: &[f64; 4]) -> (f64, f64) {
        match self {
            Body::EdgeFlux => eflux(a[0], b[0]),
            Body::Face => (a[0] * b[0], a[0] + b[0]),
            Body::PairForce => {
                let dx = a[0] - b[0];
                let dy = a[1] - b[1];
                let dz = a[2] - b[2];
                let r2 = dx * dx + dy * dy + dz * dz;
                let force = a[3] * b[3] * dx / (r2 * r2.sqrt());
                (force, -force)
            }
        }
    }
}

/// One hand-coded loop: its pair list, inspector state and buffers.
struct Loop {
    label: &'static str,
    body: Body,
    /// Indices into the read arrays.
    reads: Vec<usize>,
    /// Index of the written array.
    write: usize,
    ops_per_iteration: f64,
    iter_part: IterationPartition,
    inspect: InspectorResult,
    id: LoopId,
    data_dads: Vec<Dad>,
    ind_dads: Vec<Dad>,
    /// ghosts[read][rank]
    ghosts: Vec<Vec<Vec<f64>>>,
    contributions: Vec<Vec<f64>>,
}

/// Run the hand-coded inspector and `steps` sweeps on `backend`, checking
/// the results against the references.
pub fn run<B: Backend>(
    backend: &mut B,
    inputs: &Inputs,
    references: &[Reference],
    dist: &Distribution,
    ops_per_iteration: &[f64],
    steps: usize,
) -> Result<HandSample, String> {
    let p = backend.nprocs();
    let n = inputs.n;
    // Data arrays on the program's distribution: reads first, then writes.
    let (read_names, read_values, write_names): (Vec<&str>, Vec<&Vec<f64>>, Vec<&'static str>) =
        match inputs.workload {
            Workload::MdPool => (
                vec!["xc", "yc", "zc", "q"],
                vec![&inputs.xc, &inputs.yc, &inputs.zc, &inputs.q],
                vec!["f"],
            ),
            Workload::Euler2LoopPool => (vec!["x"], vec![&inputs.x], vec!["y", "z"]),
            Workload::EulerRsbSetup => (vec!["x"], vec![&inputs.x], vec!["y"]),
        };
    let reads: Vec<DistArray<f64>> = read_names
        .iter()
        .zip(&read_values)
        .map(|(name, v)| DistArray::from_global(name, dist.clone(), v))
        .collect();
    let mut writes: Vec<DistArray<f64>> = write_names
        .iter()
        .map(|name| DistArray::from_global(name, dist.clone(), &vec![0.0; n]))
        .collect();

    let specs: Vec<(&'static str, Body, &Pairs, Vec<usize>, usize)> = match inputs.workload {
        Workload::MdPool => vec![("L1", Body::PairForce, &inputs.edges, vec![0, 1, 2, 3], 0)],
        Workload::Euler2LoopPool => vec![
            ("L1", Body::EdgeFlux, &inputs.edges, vec![0], 0),
            ("L2", Body::Face, &inputs.faces, vec![0], 1),
        ],
        Workload::EulerRsbSetup => vec![("L1", Body::EdgeFlux, &inputs.edges, vec![0], 0)],
    };

    let mut sample = HandSample::default();
    let table = TranslationTable::from_map_with_policy(
        &reference::owners(dist),
        p,
        TTablePolicy::Distributed,
    );
    let mut registry = ReuseRegistry::new();
    let mut loops = Vec::with_capacity(specs.len());
    let mut iterations = 0usize;
    for (k, (label, body, pairs, read_ids, write)) in specs.into_iter().enumerate() {
        let iteration_refs: Vec<Vec<u32>> = pairs
            .a
            .iter()
            .zip(&pairs.b)
            .map(|(&a, &b)| vec![a, b])
            .collect();
        iterations += pairs.len();

        let allocs = alloc::count();
        alloc::set_counting(true);
        let t = Instant::now();
        let iter_part = partition_iterations(
            backend.machine_mut(),
            dist,
            &iteration_refs,
            IterPartitionPolicy::AlmostOwnerComputes,
        );
        sample.iterpart_ms += ms(t);
        alloc::set_counting(false);

        let mut pattern = AccessPattern::new(p);
        for (q, refs) in pattern.refs.iter_mut().enumerate() {
            for &it in iter_part.iters(q) {
                refs.push(pairs.a[it as usize]);
                refs.push(pairs.b[it as usize]);
            }
        }
        let mut scratch = LocalizeScratch::default();
        alloc::set_counting(true);
        let t = Instant::now();
        let inspect = Inspector.localize_with_scratch(backend, label, dist, &pattern, &mut scratch);
        sample.localize_ms += ms(t);
        alloc::set_counting(false);
        sample.inspect_allocs += (alloc::count() - allocs) as f64;

        let t = Instant::now();
        let answers = table.dereference(backend, label, &pattern.refs);
        sample.dereference_ms += ms(t);
        for (q, refs) in pattern.refs.iter().enumerate() {
            for (&g, &(owner, offset)) in refs.iter().zip(&answers[q]) {
                let g = g as usize;
                if (owner as usize, offset as usize) != (dist.owner(g), dist.local_offset(g)) {
                    return Err(format!(
                        "{label}: dereference of node {g} disagrees with the distribution"
                    ));
                }
            }
        }

        // The reuse record, over the loop's data and indirection arrays.
        let ind_dist = Distribution::block(pairs.len(), p);
        let ind_dads = vec![
            DistArray::from_global("ind1", ind_dist.clone(), &pairs.a).dad(),
            DistArray::from_global("ind2", ind_dist, &pairs.b).dad(),
        ];
        let data_dads: Vec<Dad> = read_ids
            .iter()
            .map(|&r| reads[r].dad())
            .chain(std::iter::once(writes[write].dad()))
            .collect();
        let id = LoopId::new(label);
        registry.save_inspector(id, data_dads.clone(), ind_dads.clone());

        let ghosts = read_ids
            .iter()
            .map(|_| inspect.ghost_counts.iter().map(|&c| vec![0.0; c]).collect())
            .collect();
        let contributions = inspect.ghost_counts.iter().map(|&c| vec![0.0; c]).collect();
        loops.push(Loop {
            label,
            body,
            reads: read_ids,
            write,
            ops_per_iteration: ops_per_iteration[k],
            iter_part,
            inspect,
            id,
            data_dads,
            ind_dads,
            ghosts,
            contributions,
        });
    }

    let mut checks = Vec::with_capacity(REUSE_CHECKS);
    for lp in &loops {
        for _ in 0..REUSE_CHECKS {
            let t = Instant::now();
            let decision = registry.check_on_machine(
                backend.machine_mut(),
                lp.label,
                &lp.id,
                &lp.data_dads,
                &lp.ind_dads,
            );
            checks.push(t.elapsed().as_secs_f64() * 1e6);
            if !decision.can_reuse() {
                return Err(format!("{}: saved schedule not reusable", lp.label));
            }
        }
    }
    sample.reuse_check_us = median(&mut checks);

    let (mut gather, mut compute, mut scatter, mut step) = (vec![], vec![], vec![], vec![]);
    for _ in 0..steps {
        let (mut g, mut c, mut s) = (0.0, 0.0, 0.0);
        let t_step = Instant::now();
        for lp in loops.iter_mut() {
            let decision = registry.check_on_machine(
                backend.machine_mut(),
                lp.label,
                &lp.id,
                &lp.data_dads,
                &lp.ind_dads,
            );
            if !decision.can_reuse() {
                return Err(format!("{}: saved schedule not reusable", lp.label));
            }
            let t = Instant::now();
            for (&r, ghost) in lp.reads.iter().zip(lp.ghosts.iter_mut()) {
                gather_into(backend, lp.label, &lp.inspect.schedule, &reads[r], ghost);
            }
            g += us(t);
            for buf in lp.contributions.iter_mut() {
                buf.fill(0.0);
            }
            let t = Instant::now();
            compute_sweep(backend, lp, &reads, &mut writes[lp.write]);
            c += us(t);
            let t = Instant::now();
            scatter_add(
                backend,
                lp.label,
                &lp.inspect.schedule,
                &mut writes[lp.write],
                &lp.contributions,
            );
            s += us(t);
            registry.record_write(&writes[lp.write].dad());
        }
        step.push(t_step.elapsed().as_secs_f64() * 1e3);
        gather.push(g);
        compute.push(c);
        scatter.push(s);
    }
    sample.gather_us = median(&mut gather);
    sample.compute_us = median(&mut compute);
    sample.scatter_us = median(&mut scatter);
    sample.step_ms = median(&mut step);
    sample.compute_ns_per_iter = sample.compute_us * 1e3 / iterations.max(1) as f64;

    for (lp, r) in loops.iter().zip(references) {
        r.check(&writes[lp.write].to_global(), steps)
            .map_err(|e| format!("hand-coded {}: {e}", lp.label))?;
    }
    Ok(sample)
}

/// The loop body over every rank's local iterations: read phase into the
/// owned shard or the ghost contribution buffer.
fn compute_sweep<B: Backend>(
    backend: &mut B,
    lp: &mut Loop,
    reads: &[DistArray<f64>],
    write: &mut DistArray<f64>,
) {
    let Loop {
        body,
        reads: read_ids,
        iter_part,
        inspect,
        ghosts,
        contributions,
        ops_per_iteration,
        ..
    } = lp;
    let (body, ops) = (*body, *ops_per_iteration);
    let (read_ids, iter_part, inspect, ghosts) = (&*read_ids, &*iter_part, &*inspect, &*ghosts);
    backend.run_compute(
        write.par_shards_mut().zip(contributions.iter_mut()),
        |ctx, (out, contrib): (&mut [f64], &mut Vec<f64>)| {
            let q = ctx.rank();
            let localized = &inspect.localized[q];
            let niters = iter_part.iters(q).len();
            let (mut va, mut vb) = ([0.0; 4], [0.0; 4]);
            for it in 0..niters {
                let (ra, rb) = (localized[2 * it], localized[2 * it + 1]);
                for (k, &r) in read_ids.iter().enumerate() {
                    let (local, ghost) = (reads[r].local(q), &ghosts[k][q]);
                    va[k] = *ra.resolve(local, ghost);
                    vb[k] = *rb.resolve(local, ghost);
                }
                let (ta, tb) = body.eval(&va, &vb);
                for (r, t) in [(ra, ta), (rb, tb)] {
                    match r {
                        LocalRef::Owned(off) => out[off as usize] += t,
                        LocalRef::Ghost(slot) => contrib[slot as usize] += t,
                    }
                }
            }
            ctx.charge_compute(q, niters as f64 * ops);
        },
    );
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
