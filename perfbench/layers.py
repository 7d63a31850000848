"""Per-layer metrics derived from one traced pass: calls, total and self
seconds of the functions the planned optimisations target, work counters
(solve columns, solver iterations, SWR sweeps), and the Parareal split into
oracle, fine map and coarse work.  Counts are reported as counts, and a
function that no longer exists reads as 0.  ``trace_overhead_frac`` needs
the untraced run as well and is added by ``run.py``.
"""

from __future__ import annotations

from tracer import PARAREAL_SOLVERS

EXPERIMENT_IDS = (
    "idc-order-lift",
    "paradiag1-bvm-wave",
    "paradiag1-geometric",
    "paradiag2-alpha1-clustering",
    "paradiag2-contraction",
    "paraexp-exactness",
    "parareal-diag-variants",
    "parareal-finite-termination",
    "parareal-heat-contraction",
    "parareal-rho-ceiling",
    "pfasst-radau",
    "stmg-suite",
    "swr-ad-iterations",
    "swr-wave-utp",
)

# (function, fields) pairs reported straight from the trace table.
FUNCTION_FIELDS = [
    ("kernels.solve_shifted_banded", ("calls", "self_s")),
    ("models.CompanionSystem.solve_shift", ("calls", "self_s")),
    ("kernels.expm_action", ("calls", "self_s")),
    ("kernels.BandedMatrix.matvec", ("calls",)),
    ("numpy.norm", ("calls",)),
    ("kernels.dft", ("calls",)),
    ("kernels.idft", ("calls",)),
    ("kernels.solve_poly_in_matrix", ("calls", "self_s")),
    ("kernels.gmres", ("calls",)),
    ("scipy.lu_solve", ("calls",)),
    ("scipy.lu_factor", ("calls",)),
    ("swr.oswr_solve_ad", ("s", "self_s")),
    ("models.SemiDiscreteSystem.jacobian", ("calls",)),
    ("integrators.propagate", ("calls", "s")),
    ("integrators.propagate_block", ("calls", "s")),
    ("paradiag.paradiag1_direct_solve", ("s",)),
    ("paradiag.paradiag1_bvm_solve", ("s",)),
    ("paradiag.paradiag2_solve", ("s",)),
    ("paradiag.alpha_circulant_factor", ("calls",)),
    ("paraexp.paraexp_linear_solve", ("s",)),
    ("paraexp.paraexp_nonlinear_iterate", ("s",)),
    ("paraexp.linear_g_parareal", ("s",)),
    ("swr.swr_solve_wave", ("s",)),
    ("swr.utp_advance", ("s",)),
    ("idc.idc_run", ("s",)),
    ("idc.pfasst_two_level", ("s",)),
    ("stmg.stmg_two_level", ("s",)),
    ("stmg.stmg_fas_nonlinear", ("s",)),
    ("stmg.block_jacobi_smooth", ("calls",)),
    ("experiments.result_to_csv", ("s",)),
    ("experiments.load_registry", ("s",)),
    ("pool.make_pmap", ("calls",)),
] + [(f"experiments.{eid}", ("s",)) for eid in EXPERIMENT_IDS]

# Work counters taken from arguments or returned iteration traces.
COUNTERS = [
    "kernels.solve_shifted_banded.cols",
    "kernels.gmres.iters",
    "integrators.propagate_block.cols",
    "parareal.iterations",
    "paradiag.iterations",
    "paraexp.iterations",
    "idc.iterations",
    "stmg.iterations",
    "swr.sweeps",
]

# The fine map is propagate_block called by a Parareal solver; everything
# else a solver calls, apart from the oracle, is coarse work.
FINE_MAP = {"integrators.propagate_block"}
ORACLE = {"parareal.fine_sequential"}


def unit(name):
    if name == "trace_overhead_frac":
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def per_layer(tracer):
    table = tracer.table()
    out = {}
    absent = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for fn, fields in FUNCTION_FIELDS:
        row = table.get(fn, absent)
        for field in fields:
            out[f"{fn}.{field}"] = row[field]
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    solvers = set(PARAREAL_SOLVERS)
    out["parareal.oracle_s"] = table.get("parareal.fine_sequential", absent)["s"]
    out["parareal.fine_s"] = tracer.phase(solvers, include=FINE_MAP)[1]
    coarse_calls, coarse_s = tracer.phase(solvers, exclude=FINE_MAP | ORACLE)
    out["parareal.coarse_s"] = coarse_s
    out["parareal.coarse.calls"] = coarse_calls
    out["parareal.self_s"] = tracer.layer_self_s("parareal")
    out["swr.oracle_s"] = sum(row["s"] for name, row in table.items()
                              if name.startswith("swr.monodomain_"))
    return out
