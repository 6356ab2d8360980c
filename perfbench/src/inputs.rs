//! Workload definitions and their seeded inputs.
//!
//! Every input is generated from `--seed` before any timing starts; the
//! program under test only ever receives the generated arrays through
//! [`ProgramInputs`]. The same seed always yields the same inputs.

use chaos_lang::ProgramInputs;
use chaos_workloads::{MdConfig, MeshConfig, UnstructuredMesh, WaterBox};

/// The three paper workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Euler template, edge loop plus face loop, RCB, pooled engine.
    Euler2LoopPool,
    /// Figure 4 program with RSB mapping, sequential `Machine` engine.
    EulerRsbSetup,
    /// Non-bonded MD force loop on a water box, RCB, pooled engine,
    /// epoch checkpoints on.
    MdPool,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Euler2LoopPool,
        Workload::EulerRsbSetup,
        Workload::MdPool,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Euler2LoopPool => "euler-2loop-pool",
            Workload::EulerRsbSetup => "euler-rsb-setup",
            Workload::MdPool => "md-pool",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The SPMD engine the workload runs on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::EulerRsbSetup => Engine::Machine,
            Workload::Euler2LoopPool | Workload::MdPool => Engine::Pool { workers: 2 },
        }
    }

    /// Epoch checkpoint cadence (0 = off).
    pub fn checkpoint_every(self) -> u64 {
        match self {
            Workload::MdPool => 8,
            _ => 0,
        }
    }

    /// The mini-language program the workload runs.
    pub fn program_text(self) -> &'static str {
        match self {
            Workload::Euler2LoopPool => EULER_2LOOP,
            Workload::EulerRsbSetup => EULER_RSB,
            Workload::MdPool => MD_FORCE,
        }
    }

    /// The decomposition the mapping directives redistribute.
    pub fn mapped_decomposition(self) -> &'static str {
        match self {
            Workload::MdPool => "atoms",
            _ => "reg",
        }
    }
}

/// Which `Backend` the executor runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential oracle engine.
    Machine,
    /// The persistent worker pool.
    Pool { workers: usize },
}

/// Problem sizes: the paper scale, and a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub nprocs: usize,
    pub mesh_nodes: usize,
    pub md_molecules: usize,
    /// Steady-state timesteps per round, per workload.
    pub timesteps: [usize; 3],
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            nprocs: 16,
            mesh_nodes: 53_000,
            md_molecules: 2_000,
            timesteps: [60, 4, 6],
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Scale {
            nprocs: 4,
            mesh_nodes: 400,
            md_molecules: 40,
            timesteps: [3, 2, 3],
        }
    }

    pub fn timesteps(&self, w: Workload) -> usize {
        self.timesteps[Workload::ALL
            .iter()
            .position(|&x| x == w)
            .expect("workload is listed")]
    }
}

/// The edge-flux FORALL over the mesh, then a face FORALL that reads `x`
/// and reduces into `z`, on an RCB geometry partition.
const EULER_2LOOP: &str = "
        REAL*8 x(nnode), y(nnode), z(nnode)
        REAL*8 xc(nnode), yc(nnode), zc(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge), face1(nface), face2(nface)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge), reg3(nface)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        DISTRIBUTE reg3(BLOCK)
        ALIGN x, y, z, xc, yc, zc WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        ALIGN face1, face2 WITH reg3
        CALL READ_DATA(x, y, z, xc, yc, zc, end_pt1, end_pt2, face1, face2)
C$      CONSTRUCT G (nnode, GEOMETRY(3, xc, yc, zc))
C$      SET distfmt BY PARTITIONING G USING RCB
C$      REDISTRIBUTE reg(distfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
        FORALL j = 1, nface
          REDUCE(ADD, z(face1(j)), x(face1(j)) * x(face2(j)))
          REDUCE(ADD, z(face2(j)), x(face1(j)) + x(face2(j)))
        END FORALL
";

/// The paper's Figure 4 program: LINK GeoCoL, RSB, one edge FORALL.
const EULER_RSB: &str = "
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, end_pt1, end_pt2)
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RSB
C$      REDISTRIBUTE reg(distfmt)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
";

/// The non-bonded force loop: a Coulomb-like x-force `q1 q2 dx / r^3`,
/// added at `p1(i)` and subtracted at `p2(i)`.
const MD_FORCE: &str = "
        REAL*8 xc(natom), yc(natom), zc(natom), q(natom), f(natom)
        INTEGER p1(npair), p2(npair)
        DYNAMIC, DECOMPOSITION atoms(natom), pairs(npair)
        DISTRIBUTE atoms(BLOCK)
        DISTRIBUTE pairs(BLOCK)
        ALIGN xc, yc, zc, q, f WITH atoms
        ALIGN p1, p2 WITH pairs
        CALL READ_DATA(xc, yc, zc, q, f, p1, p2)
C$      CONSTRUCT G (natom, GEOMETRY(3, xc, yc, zc))
C$      SET distfmt BY PARTITIONING G USING RCB
C$      REDISTRIBUTE atoms(distfmt)
        FORALL i = 1, npair
          REDUCE(ADD, f(p1(i)), q(p1(i)) * q(p2(i)) * (xc(p1(i)) - xc(p2(i))) / (((xc(p1(i)) - xc(p2(i))) * (xc(p1(i)) - xc(p2(i))) + (yc(p1(i)) - yc(p2(i))) * (yc(p1(i)) - yc(p2(i))) + (zc(p1(i)) - zc(p2(i))) * (zc(p1(i)) - zc(p2(i)))) * SQRT((xc(p1(i)) - xc(p2(i))) * (xc(p1(i)) - xc(p2(i))) + (yc(p1(i)) - yc(p2(i))) * (yc(p1(i)) - yc(p2(i))) + (zc(p1(i)) - zc(p2(i))) * (zc(p1(i)) - zc(p2(i))))))
          REDUCE(ADD, f(p2(i)), 0.0 - q(p1(i)) * q(p2(i)) * (xc(p1(i)) - xc(p2(i))) / (((xc(p1(i)) - xc(p2(i))) * (xc(p1(i)) - xc(p2(i))) + (yc(p1(i)) - yc(p2(i))) * (yc(p1(i)) - yc(p2(i))) + (zc(p1(i)) - zc(p2(i))) * (zc(p1(i)) - zc(p2(i)))) * SQRT((xc(p1(i)) - xc(p2(i))) * (xc(p1(i)) - xc(p2(i))) + (yc(p1(i)) - yc(p2(i))) * (yc(p1(i)) - yc(p2(i))) + (zc(p1(i)) - zc(p2(i))) * (zc(p1(i)) - zc(p2(i))))))
        END FORALL
";

/// SplitMix64: a small, seedable, dependency-free generator for the
/// benchmark's own values (node states) and sub-seeds.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A pair list (two 0-based endpoint arrays), the shape of every loop here.
#[derive(Debug, Clone, Default)]
pub struct Pairs {
    pub a: Vec<u32>,
    pub b: Vec<u32>,
}

impl Pairs {
    pub fn len(&self) -> usize {
        self.a.len()
    }

    fn one_based(v: &[u32]) -> Vec<u32> {
        v.iter().map(|&i| i + 1).collect()
    }
}

/// Everything one workload run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// The engine the program runs on (the workload's own unless
    /// overridden for a reference run).
    pub engine: Engine,
    pub nprocs: usize,
    pub timesteps: usize,
    /// Number of nodes (mesh points or atoms).
    pub n: usize,
    /// Mesh edges, or MD pairs.
    pub edges: Pairs,
    /// Mesh faces (euler-2loop-pool only; empty otherwise).
    pub faces: Pairs,
    /// Node state `x` (Euler) — empty for MD.
    pub x: Vec<f64>,
    /// Coordinates.
    pub xc: Vec<f64>,
    pub yc: Vec<f64>,
    pub zc: Vec<f64>,
    /// Charges (MD only).
    pub q: Vec<f64>,
}

/// The face list of a mesh: two edges emitted consecutively by the mesh
/// generator from the same first endpoint span a triangle; its third side,
/// `(end_pt2[e], end_pt2[e + 1])`, is a face pair. Local like the edges,
/// overlapping their ghost sets without equalling them.
pub fn face_pairs(e1: &[u32], e2: &[u32]) -> Pairs {
    let mut faces = Pairs::default();
    for e in 1..e1.len() {
        if e1[e] == e1[e - 1] && e2[e] != e2[e - 1] {
            faces.a.push(e2[e - 1]);
            faces.b.push(e2[e]);
        }
    }
    faces
}

impl Inputs {
    pub fn generate(workload: Workload, scale: &Scale, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0xC4A0_5BE7_C400_0000);
        let sub_seed = rng.next_u64();
        let mut inputs = Inputs {
            workload,
            engine: workload.engine(),
            nprocs: scale.nprocs,
            timesteps: scale.timesteps(workload),
            n: 0,
            edges: Pairs::default(),
            faces: Pairs::default(),
            x: Vec::new(),
            xc: Vec::new(),
            yc: Vec::new(),
            zc: Vec::new(),
            q: Vec::new(),
        };
        match workload {
            Workload::Euler2LoopPool | Workload::EulerRsbSetup => {
                let mesh = UnstructuredMesh::generate(MeshConfig {
                    nnodes: scale.mesh_nodes,
                    seed: sub_seed,
                    ..MeshConfig::default()
                });
                inputs.n = mesh.nnodes();
                if workload == Workload::Euler2LoopPool {
                    inputs.faces = face_pairs(&mesh.end_pt1, &mesh.end_pt2);
                }
                inputs.x = (0..inputs.n).map(|_| 1.0 + 0.5 * rng.next_f64()).collect();
                inputs.edges = Pairs {
                    a: mesh.end_pt1,
                    b: mesh.end_pt2,
                };
                inputs.xc = mesh.xc;
                inputs.yc = mesh.yc;
                inputs.zc = mesh.zc;
            }
            Workload::MdPool => {
                let water = WaterBox::generate(MdConfig {
                    nmolecules: scale.md_molecules,
                    seed: sub_seed,
                    ..MdConfig::default()
                });
                inputs.n = water.natoms();
                inputs.edges = Pairs {
                    a: water.pair1,
                    b: water.pair2,
                };
                inputs.xc = water.xc;
                inputs.yc = water.yc;
                inputs.zc = water.zc;
                inputs.q = water.charge;
            }
        }
        inputs
    }

    /// The FORALL labels `lower_program` assigns, in source order.
    pub fn loop_labels(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::Euler2LoopPool => &["L1", "L2"],
            _ => &["L1"],
        }
    }

    /// The generated arrays bound to the program's `READ_DATA` arrays and
    /// size scalars (indirection values are 1-based, as in the language).
    pub fn program_inputs(&self) -> ProgramInputs {
        let zeros = vec![0.0; self.n];
        match self.workload {
            Workload::Euler2LoopPool | Workload::EulerRsbSetup => {
                let mut p = ProgramInputs::new()
                    .scalar("nnode", self.n)
                    .scalar("nedge", self.edges.len())
                    .real("x", self.x.clone())
                    .real("y", zeros.clone())
                    .int("end_pt1", Pairs::one_based(&self.edges.a))
                    .int("end_pt2", Pairs::one_based(&self.edges.b));
                if self.workload == Workload::Euler2LoopPool {
                    p = p
                        .scalar("nface", self.faces.len())
                        .real("z", zeros)
                        .real("xc", self.xc.clone())
                        .real("yc", self.yc.clone())
                        .real("zc", self.zc.clone())
                        .int("face1", Pairs::one_based(&self.faces.a))
                        .int("face2", Pairs::one_based(&self.faces.b));
                }
                p
            }
            Workload::MdPool => ProgramInputs::new()
                .scalar("natom", self.n)
                .scalar("npair", self.edges.len())
                .real("xc", self.xc.clone())
                .real("yc", self.yc.clone())
                .real("zc", self.zc.clone())
                .real("q", self.q.clone())
                .real("f", zeros)
                .int("p1", Pairs::one_based(&self.edges.a))
                .int("p2", Pairs::one_based(&self.edges.b)),
        }
    }
}
