"""The four benchmark workloads: seeded CLI argv and work counts.

Each workload is one `mmdg` CLI invocation.  The seed only moves the eps
values inside narrow bands around their nominal values; the bands were
chosen so that `march`, `refine` and `ap-limit` advance the same number of
steps for every seed (see README.md).  The program receives only the argv.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    model: str
    nv: int  # velocity nodes; the telegraph model always has 2
    degree: int
    cells: tuple
    tmax: float
    eps_nominal: tuple  # nominal eps values, in the order given to the CLI
    eps_band: float  # relative half-width of the seeded band around each value
    why: str

    @property
    def block(self):
        """Unknowns per cell: (1 + nv) fields of degree + 1 modes each."""
        return (1 + self.nv) * (self.degree + 1)

    def draw_eps(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        values = []
        for eps in self.eps_nominal:
            factor = 1.0 + self.eps_band * (2.0 * rng.random() - 1.0)
            values.append(float(f"{eps * factor:.12g}"))
        return tuple(values)

    def argv(self, seed, out):
        """CLI argv for this seed, writing its CSV to `out`."""
        argv = [
            self.mode,
            "--model", self.model,
            "--k", str(self.degree),
            "--cells", ",".join(str(n) for n in self.cells),
            "--eps", ",".join(repr(e) for e in self.draw_eps(seed)),
            "--tmax", repr(self.tmax),
            "--ic", "sin",
            "--out", out,
        ]
        if self.model == "slab":
            argv[3:3] = ["--nv", str(self.nv)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="march",
            mode="solve",
            model="telegraph",
            nv=2,
            degree=1,
            cells=(64,),
            tmax=0.1,
            eps_nominal=(1e-6,),
            eps_band=0.1,
            why="README solve case at tmax 0.1: Python loop over scheme.step with "
            "per-step monitors, a CSV row per step and a checkpoint; no stencil",
        ),
        Workload(
            name="sweep",
            mode="stability-scan",
            model="slab",
            nv=8,
            degree=1,
            cells=(128,),
            tmax=0.05,
            eps_nominal=(1e-6, 1e-2, 1.0),
            eps_band=1e-6,
            why="stability-scan: many short probes, each a stencil build and a "
            "loop over StencilStepper.apply with packed norms",
        ),
        Workload(
            name="refine",
            mode="converge",
            model="slab",
            nv=32,
            degree=2,
            cells=(64, 128, 256),
            tmax=0.1,
            eps_nominal=(1e-2,),
            eps_band=2e-6,
            why="converge: large stencil builds and batched matrix powers in "
            "propagate on a working set several times the L3 cache",
        ),
        Workload(
            name="ap-limit",
            mode="ap-limit",
            model="slab",
            nv=8,
            degree=1,
            cells=(64,),
            tmax=0.05,
            eps_nominal=(1e-2, 1e-4, 1e-6, 1e-8, 0.0),
            eps_band=0.1,
            why="ap-limit: scheme.step loop without monitors or I/O plus the "
            "limit module, to separate stepper gains from march's I/O",
        ),
    )
}


def dof_updates(workload, counts, rows):
    """Unknowns advanced: n_cells * (k+1) * (1+nv) per step actually run.

    `counts` holds what the worker's counters saw (steps advanced by
    run_fixed_steps, steps run by energy_history probes); `rows` are the
    driver's CSV rows.  The limit scheme of `ap-limit` carries two fields
    (rho and q), so it counts as nv = 1.
    """
    k1 = workload.degree + 1
    if workload.mode == "solve":
        return int(rows[-1]["n"]) * workload.cells[0] * workload.block
    if workload.mode == "ap-limit":
        steps = int(rows[0]["steps"])
        per_step = workload.cells[0] * k1 * (len(rows) * (1 + workload.nv) + 2)
        return steps * per_step
    if workload.mode == "converge":
        return counts["cell_steps_advanced"] * workload.block
    return counts["cell_steps_probed"] * workload.block


def working_set_bytes(workload):
    """Computed size of the largest arrays a run keeps live, in bytes.

    For `refine` it is the Fourier symbol of the finest (reference) mesh
    plus the three same-sized arrays of the batched power (result, base and
    product).  For the other workloads it is three copies of the packed
    state and the five stencil blocks, which fit in the L1 cache.
    """
    b = workload.block
    if workload.mode == "converge":
        n_ref = 4 * max(workload.cells)  # run_convergence's ref_factor_x
        freqs = n_ref // 2 + 1
        return 4 * freqs * b * b * 16
    n = max(workload.cells)
    return n * b * 8 * 3 + 5 * b * b * 8
