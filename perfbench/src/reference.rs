//! Output checks that do not depend on the program under test.
//!
//! The reference results come from plain sequential loops over the global
//! edge, face and pair lists, written here from the loop bodies' formulas.
//! A run's arrays must match them within [`RTOL`] of the summed magnitudes
//! of the contributions each element received: the distributed runs add
//! the same per-iteration terms in a different order, so only rounding may
//! differ.

use crate::inputs::{Inputs, Pairs, Workload};
use chaos_runtime::Distribution;

/// Relative tolerance, against the sum of |contribution| per element.
pub const RTOL: f64 = 1e-9;

/// A reference array and the per-element sum of contribution magnitudes.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Program array name (`y`, `z` or `f`).
    pub array: &'static str,
    /// Value after one sweep.
    pub value: Vec<f64>,
    /// Σ |term| per element after one sweep.
    pub magnitude: Vec<f64>,
}

impl Reference {
    fn new(array: &'static str, n: usize) -> Self {
        Reference {
            array,
            value: vec![0.0; n],
            magnitude: vec![0.0; n],
        }
    }

    fn add(&mut self, i: u32, term: f64) {
        self.value[i as usize] += term;
        self.magnitude[i as usize] += term.abs();
    }

    /// Check `actual` against `sweeps` sweeps of this reference.
    pub fn check(&self, actual: &[f64], sweeps: usize) -> Result<(), String> {
        if actual.len() != self.value.len() {
            return Err(format!(
                "{}: {} elements, expected {}",
                self.array,
                actual.len(),
                self.value.len()
            ));
        }
        let k = sweeps as f64;
        for (i, &a) in actual.iter().enumerate() {
            let expected = k * self.value[i];
            let allowed = RTOL * k * self.magnitude[i] + f64::MIN_POSITIVE;
            let error = (a - expected).abs();
            if error.is_nan() || error > allowed {
                return Err(format!(
                    "{}[{i}] = {a:e}, reference {expected:e} (allowed error {allowed:e})",
                    self.array
                ));
            }
        }
        Ok(())
    }
}

/// The edge-flux intrinsics `EFLUX1` / `EFLUX2`.
pub fn eflux(x1: f64, x2: f64) -> (f64, f64) {
    let avg = 0.5 * (x1 + x2);
    let diff = x2 - x1;
    let flux = avg * diff + 0.25 * diff.abs() * x1;
    (flux, -flux)
}

/// The MD loop's pair term: `q1 q2 dx / (r2 sqrt(r2))`, evaluated in the
/// program's operand order.
pub fn pair_force(inputs: &Inputs, i: usize, j: usize) -> f64 {
    let dx = inputs.xc[i] - inputs.xc[j];
    let dy = inputs.yc[i] - inputs.yc[j];
    let dz = inputs.zc[i] - inputs.zc[j];
    let r2 = dx * dx + dy * dy + dz * dz;
    inputs.q[i] * inputs.q[j] * dx / (r2 * r2.sqrt())
}

fn edge_reference(x: &[f64], edges: &Pairs, array: &'static str) -> Reference {
    let mut r = Reference::new(array, x.len());
    for (&a, &b) in edges.a.iter().zip(&edges.b) {
        let (f1, f2) = eflux(x[a as usize], x[b as usize]);
        r.add(a, f1);
        r.add(b, f2);
    }
    r
}

fn face_reference(x: &[f64], faces: &Pairs) -> Reference {
    let mut r = Reference::new("z", x.len());
    for (&a, &b) in faces.a.iter().zip(&faces.b) {
        let (xa, xb) = (x[a as usize], x[b as usize]);
        r.add(a, xa * xb);
        r.add(b, xa + xb);
    }
    r
}

fn md_reference(inputs: &Inputs) -> Reference {
    let mut r = Reference::new("f", inputs.n);
    for (&a, &b) in inputs.edges.a.iter().zip(&inputs.edges.b) {
        let force = pair_force(inputs, a as usize, b as usize);
        r.add(a, force);
        r.add(b, -force);
    }
    r
}

/// The reference arrays of a workload, one per FORALL (in label order).
pub fn references(inputs: &Inputs) -> Vec<Reference> {
    match inputs.workload {
        Workload::Euler2LoopPool => vec![
            edge_reference(&inputs.x, &inputs.edges, "y"),
            face_reference(&inputs.x, &inputs.faces),
        ],
        Workload::EulerRsbSetup => vec![edge_reference(&inputs.x, &inputs.edges, "y")],
        Workload::MdPool => vec![md_reference(inputs)],
    }
}

/// Newton's third law: the forces of a pair loop sum to zero, up to
/// rounding of the summed magnitudes.
pub fn check_momentum(f: &[f64], reference: &Reference, sweeps: usize) -> Result<(), String> {
    let total: f64 = f.iter().sum();
    let scale: f64 = reference.magnitude.iter().sum::<f64>() * sweeps as f64;
    if total.abs() <= RTOL * scale {
        Ok(())
    } else {
        Err(format!(
            "sum of forces {total:e} is not ~0 (scale {scale:e})"
        ))
    }
}

/// Every node is owned by exactly one processor, and `owner()` agrees with
/// the processors' owned lists.
pub fn check_ownership(dist: &Distribution, n: usize) -> Result<(), String> {
    if dist.len() != n {
        return Err(format!("distribution covers {} of {n} nodes", dist.len()));
    }
    let mut seen = vec![u32::MAX; n];
    for p in 0..dist.nprocs() {
        for g in dist.owned_globals(p) {
            if g >= n || seen[g] != u32::MAX {
                return Err(format!("node {g} owned twice or out of range"));
            }
            seen[g] = p as u32;
        }
    }
    for (g, &p) in seen.iter().enumerate() {
        if p == u32::MAX {
            return Err(format!("node {g} has no owner"));
        }
        if dist.owner(g) != p as usize {
            return Err(format!(
                "node {g}: owner() says {}, lists say {p}",
                dist.owner(g)
            ));
        }
    }
    Ok(())
}

/// The owner of every node under a distribution.
pub fn owners(dist: &Distribution) -> Vec<u32> {
    (0..dist.len()).map(|g| dist.owner(g) as u32).collect()
}
