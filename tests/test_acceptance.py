"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.

Criteria C1-C14 are the registered experiments (each bundles the bound
checks of one criterion); C15 re-runs the cross-cutting property checks
(kernel round trips, quadrature exactness, fixed points, order slopes,
parallel-order determinism) in compact form.  Two reachability guards
check that the 14 experiments enter every public function of the package
and run every line of its function bodies, and an option guard that they
set every defaulted parameter to a value other than its default, but for
allow-listed ones.
"""

import ast
import collections
import importlib
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import pintlab
from pintlab.experiments import load_registry, result_to_csv, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "pint-out"

CRITERIA = {
    "C1": ("parareal-rho-ceiling",
           "Parareal/MGRiT convergence-factor ceilings 0.2984 / 0.1115 (+/- 0.002)"),
    "C2": ("parareal-finite-termination",
           "finite termination after N_t (Parareal) and ceil(N_t/2) (MGRiT) sweeps"),
    "C3": ("parareal-heat-contraction",
           "measured heat contraction in [0.2, 0.4] at J=50"),
    "C4": ("paradiag1-geometric",
           "direct-solve oracle equivalence at 1e-8 plus 10x roundoff blow-up 32->256"),
    "C5": ("paradiag1-bvm-wave",
           "BVM wave slope 2 +/- 0.2 without deterioration; cond(V) = O(N_t^2)"),
    "C6": ("paradiag2-contraction",
           "stationary contraction and spectral radius within alpha/(1-alpha)"),
    "C7": ("paradiag2-alpha1-clustering",
           "at most N_x eigenvalues of P^-1 K away from 1 at alpha=1"),
    "C8": ("paraexp-exactness",
           "linear superposition within red error; nonlinear bitwise Parareal match"),
    "C9": ("swr-ad-iterations",
           "4-subdomain sweep counts 92/28 within 20%"),
    "C10": ("swr-wave-utp",
            "wave finite convergence past T*c/overlap; tent exactness"),
    "C11": ("idc-order-lift",
            "correction order min(M, k+1) +/- 0.3"),
    "C12": ("pfasst-radau",
            "identity case exact in one pass; heat monotone to the truncation line"),
    "C13": ("stmg-suite",
            "smoother bound 1/sqrt(2); V-cycle <= 0.25; FAS monotone"),
    "C14": ("parareal-diag-variants",
            "diag-CGC matches classic rho; diag-coarse contracts at alpha; wave robust in N_t"),
}


@pytest.fixture(scope="module")
def registry():
    return load_registry()


@pytest.fixture(scope="module")
def ran():
    """{(file, qualname, first line): line numbers run} of the package code
    objects that ran while ``results`` runs the experiments."""
    return collections.defaultdict(set)


@pytest.fixture(scope="module")
def options_set():
    """{"module.function(parameter)"} of the defaulted parameters that were
    given a value other than their default while ``results`` runs the
    experiments."""
    return set()


@pytest.fixture(scope="module")
def results(registry, ran, options_set):
    cache = {}
    package_dir = str(Path(pintlab.__file__).parent)
    options = option_defaults()

    def record_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[code.co_filename, code.co_qualname, code.co_firstlineno].add(frame.f_lineno)
        return record_line

    def record_call(frame, event, arg):
        code = frame.f_code
        # before the package check: a dataclass __init__ is generated outside it
        if id(code) in options:
            name, defaults = options[id(code)]
            args = frame.f_locals
            options_set.update(f"{name}({param})" for param, default in defaults.items()
                               if differs(args[param], default))
        # line events only in package frames: None leaves the others untraced
        return record_line if code.co_filename.startswith(package_dir) else None

    def get(exp_id):
        if exp_id not in cache:
            previous = sys.gettrace()
            sys.settrace(record_call)
            try:
                cache[exp_id] = run_experiment(registry[exp_id], seed=0)
            finally:
                sys.settrace(previous)
        return cache[exp_id]

    return get


@pytest.mark.parametrize("criterion", sorted(CRITERIA, key=lambda c: int(c[1:])))
def test_criterion(criterion, results, capsys):
    exp_id, summary = CRITERIA[criterion]
    result = results(exp_id)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n{status} {criterion} [{exp_id}] {summary}")
        for name, ok, detail in result.checks:
            print(f"      {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    failed = [f"{name}: {detail}" for name, ok, detail in result.checks if not ok]
    assert not failed, f"{criterion} failed checks: {failed}"


def golden_mismatches(csv_text, golden_text, rel=1e-8, floor=1e-11):
    """Cells where ``csv_text`` departs from its golden CSV.  Integer columns
    (every non-empty golden cell an integer) and text must match exactly;
    floats to ``rel`` plus an absolute ``floor``, since roundoff-level entries
    move when a kernel reorders its floating-point operations."""
    new = [line.split(",") for line in csv_text.splitlines()]
    old = [line.split(",") for line in golden_text.splitlines()]
    if new[:1] != old[:1] or len(new) != len(old):
        return [f"header or row count differs ({len(new)} vs golden {len(old)} lines)"]
    int_cols = {j for j in range(len(old[0]))
                if all(re.fullmatch(r"-?\d+", row[j]) for row in old[1:] if row[j])}
    problems = []
    for i, (a_row, b_row) in enumerate(zip(new[1:], old[1:]), start=1):
        if len(a_row) != len(b_row):
            problems.append(f"row {i}: {len(a_row)} cells vs golden {len(b_row)}")
            continue
        for j, (a, b) in enumerate(zip(a_row, b_row)):
            if a == b:
                continue
            try:
                close = j not in int_cols and abs(float(a) - float(b)) <= rel * abs(float(b)) + floor
            except ValueError:
                close = False
            if not close:
                problems.append(f"row {i} {old[0][j]}: {a!r} vs golden {b!r}")
    return problems


@pytest.mark.parametrize("exp_id", [exp_id for exp_id, _ in CRITERIA.values()])
def test_csv_matches_golden(exp_id, results):
    golden = (GOLDEN_DIR / f"{exp_id}.csv").read_text(encoding="utf-8")
    problems = golden_mismatches(result_to_csv(results(exp_id)), golden)
    assert not problems, f"{exp_id} departs from pint-out/{exp_id}.csv: {problems[:5]}"


# Public functions no experiment enters, each with the reason it stays.
UNREACHED_ALLOWED = {
    "experiments.load_registry": "harness: the registry fixture calls it before the runs",
    "experiments.result_to_csv": "harness: test_csv_matches_golden formats the results",
    "experiments.ExperimentResult.passed": "harness: read by the CLI and perfbench",
    "stmg.SpaceTimeGrid.nx": "time-only coarsening; every C13 grid also coarsens in space",
}

# Lines of function bodies no experiment runs, keyed by (module, function
# qualname, stripped source line), each with the reason it stays.  Lines
# that only report an error (see error_lines) and the lines of a function
# in UNREACHED_ALLOWED need no entry.
GATED_BY_C15 = "gated by C15: test_criterion_c15_property_suites runs it"
C15_PADDING = "gated by C15: the n < 3 tridiagonal padding, on its random 2-11-unknown systems"
SDIRK_REFERENCE = "SDIRK22's stability function: tests check SDIRK22 steps against it"
STEPPED = "stepped propagation: Burgers, sourced systems and n > 512 have no window matrix"
TOL_BREAK = "convergence break on tol: every experiment runs a fixed iteration count"
LINES_ALLOWED = {
    ("integrators", "stability", "g, a21, (b1, b2) = method.gamma, method.a21, method.b"):
        SDIRK_REFERENCE,
    ("integrators", "stability", "den = 1.0 - g * z"): SDIRK_REFERENCE,
    ("integrators", "stability", "if np.any(den == 0):"): SDIRK_REFERENCE,
    ("integrators", "stability", "k1 = z / den"): SDIRK_REFERENCE,
    ("integrators", "stability", "k2 = z * (1.0 + a21 * k1) / den"): SDIRK_REFERENCE,
    ("integrators", "stability", "return 1.0 + b1 * k1 + b2 * k2"): SDIRK_REFERENCE,
    ("integrators", "_step_nonlinear", "g, a21, (b1, b2) = method.gamma, method.a21, method.b"):
        GATED_BY_C15,
    ("integrators", "_step_nonlinear", "t1, t2 = t0s + g * dt, t0s + (a21 + g) * dt"): GATED_BY_C15,
    ("integrators", "_step_nonlinear", "y1 = _newton(sys, g * dt, U, t1, U)"): GATED_BY_C15,
    ("integrators", "_step_nonlinear", "k1 = sys.f(y1, t1)"): GATED_BY_C15,
    ("integrators", "_step_nonlinear", "y2 = _newton(sys, g * dt, U + dt * a21 * k1, t2, y1)"):
        GATED_BY_C15,
    ("integrators", "_step_nonlinear", "k2 = sys.f(y2, t2)"): GATED_BY_C15,
    ("integrators", "_step_nonlinear", "return U + dt * (b1 * k1 + b2 * k2)"): GATED_BY_C15,
    ("integrators", "OneStepMethod.__str__", "return self.name"): "test ids name a method by it",
    ("kernels", "StackedTridiagonalLU._factor", "pad = np.zeros(3 - self._n)"): C15_PADDING,
    ("kernels", "StackedTridiagonalLU._factor",
     "lower, diag, upper = (np.concatenate((v, pad + z)) for v, z in"): C15_PADDING,
    ("kernels", "StackedTridiagonalLU._factor", "((lower, 0.0), (diag, 1.0), (upper, 0.0)))"):
        C15_PADDING,
    ("kernels", "StackedTridiagonalLU.block_rcond", "zero = np.zeros(1, dtype=d.dtype)"): C15_PADDING,
    ("kernels", "StackedTridiagonalLU.block_rcond",
     "block = (np.append(dl[r], zero), np.append(d[r:r + 2], norm),"): C15_PADDING,
    ("kernels", "StackedTridiagonalLU.block_rcond",
     "np.append(du[r], zero), zero, np.append(ipiv[r:r + 2] - r, np.int32(3)))"): C15_PADDING,
    ("kernels", "StackedTridiagonalLU.solve",
     "rhs = np.concatenate((rhs, np.zeros((3 - self._n,) + rhs.shape[1:])))"): C15_PADDING,
    ("kernels", "StackedTridiagonalLU.solve", "return self._gttrs(*self._factors, rhs)[0][: self._n]"):
        C15_PADDING,
    ("models", "SemiDiscreteSystem.f", "gval = self.source(t)"):
        "a source in f: Burgers keeps its tested source",
    ("models", "SemiDiscreteSystem.f", "out = out + (gval[:, None] if gval.ndim < u.ndim else gval)"):
        "a source in f: Burgers keeps its tested source",
    ("paradiag", "_phi_log", "return 2.0 * math.lgamma((n_t - 1) / 2 + 1)"):
        "odd n_t, which the caller chooses; C4 takes even ones",
    ("paraexp", "paraexp_nonlinear_iterate", "break"): TOL_BREAK,
    ("paraexp", "linear_g_parareal", "break"): TOL_BREAK,
    ("parareal", "_coarse_propagator",
     "return lambda n, u: propagate(cfg.coarse, target, *cfg.grid.window(n), u)"): STEPPED,
    ("parareal", "_fine_map",
     "return propagate_block(cfg.fine, target, cfg.grid.boundaries[first:-1], starts.T.copy()).T"):
        STEPPED,
    ("parareal", "mgrit_fcf_solve", "break"): TOL_BREAK,
    ("parareal", "parareal_diag_cgc_solve", "break"): TOL_BREAK,
    ("stmg", "_two_level", "sys_c = rebuild(sys, grid.nx, grid.dx)"):
        "time-only coarsening, which STMG takes whenever dt/dx^2 < 1/sqrt(2)",
    ("stmg", "_two_level", "Px = None"):
        "time-only coarsening, which STMG takes whenever dt/dx^2 < 1/sqrt(2)",
    ("swr", "robin_p_star", "fn = lambda p: y0 - p * np.sqrt(p / (4.0 + p))"):
        "the Y_CRITICAL branch of the Robin parameter, for l/nu above it",
    ("swr", "_bisect", "return lo"): "a bracket end that is a root",
    ("swr", "_bisect", "return hi"): "a bracket end that is a root",
    ("swr", "_bisect", "return 0.5 * (lo + hi)"): "bisection that reaches max_iter",
    ("swr", "swr_solve_wave", "break"): TOL_BREAK,
    ("trace", "IterationTrace.converged_at", "return -1"): "a run whose error never falls below tol",
}


def package_modules():
    """(name, module) of every pintlab module but ``cli``."""
    return [(info.name, importlib.import_module(f"pintlab.{info.name}"))
            for info in pkgutil.iter_modules(pintlab.__path__) if info.name != "cli"]


def code_key(code):
    """The key of ``code`` in the ``ran`` record."""
    return code.co_filename, code.co_qualname, code.co_firstlineno


def public_functions(inits=False):
    """{name: function} of the public functions of every pintlab module but
    ``cli``, and of the public methods and properties of its classes; with
    ``inits``, also each class's own ``__init__``, named by its class."""
    found = {}
    for module_name, module in package_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                if attr == "__init__" and inits:
                    attr = ""
                elif attr.startswith("_"):
                    continue
                if inspect.isfunction(fn):
                    found[f"{module_name}.{name}" + (f".{attr}" if attr else "")] = fn
    return found


def test_experiments_reach_every_public_function(results, ran):
    for exp_id, _ in CRITERIA.values():
        results(exp_id)
    unreached = {name for name, fn in public_functions().items() if code_key(fn.__code__) not in ran}
    extra = sorted(unreached - UNREACHED_ALLOWED.keys())
    assert not extra, f"no experiment reaches {extra}: delete them, or allow-list them with a reason"
    stale = sorted(UNREACHED_ALLOWED.keys() - unreached)
    assert not stale, f"allow-listed, but reached or gone: {stale}"


def error_lines(tree):
    """Line numbers that only report or clean up an error: those of a
    ``raise`` statement, those of an ``if`` or ``else`` body whose last
    statement is a ``raise``, and those of an ``except`` clause whose body
    ends in one."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.If):
            for body in (node.body, node.orelse):
                if body and isinstance(body[-1], ast.Raise):
                    lines.update(range(body[0].lineno, body[-1].end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and isinstance(node.body[-1], ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def unreached_lines(ran):
    """(module, qualname, stripped source) of each line of a function body
    that did not run, from ``co_lines()`` of every code object flagged
    CO_OPTIMIZED, leaving out its ``def`` line, the :func:`error_lines` and
    the functions in UNREACHED_ALLOWED, nested ones included."""
    found = []
    for module_name, module in package_modules():
        source = Path(module.__file__).read_text(encoding="utf-8")
        text, exempt = source.splitlines(), error_lines(ast.parse(source))
        stack = [compile(source, module.__file__, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            outer = f"{module_name}.{code.co_qualname}".split(".<locals>.")[0]
            if not code.co_flags & inspect.CO_OPTIMIZED or outer in UNREACHED_ALLOWED:
                continue
            lines = {line for *_, line in code.co_lines() if line is not None}
            missed = lines - ran.get(code_key(code), set()) - exempt - {code.co_firstlineno}
            found.extend((module_name, line, code.co_qualname, text[line - 1].strip())
                         for line in missed)
    return [(module_name, qualname, source) for module_name, _, qualname, source in sorted(found)]


def test_experiments_run_every_line(results, ran):
    for exp_id, _ in CRITERIA.values():
        results(exp_id)
    unreached = unreached_lines(ran)
    extra = [f"{module}:{qualname}: {source}" for module, qualname, source in unreached
             if (module, qualname, source) not in LINES_ALLOWED]
    assert not extra, ("no experiment runs these lines: delete them, or allow-list them "
                       "with a reason\n" + "\n".join(extra))
    stale = sorted(LINES_ALLOWED.keys() - set(unreached))
    assert not stale, f"allow-listed, but run or gone: {stale}"


def option_defaults():
    """{id(code): (name, {parameter: default})} of every function in
    ``public_functions(inits=True)`` that has defaulted parameters."""
    found = {}
    for name, fn in public_functions(inits=True).items():
        defaults = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                    if p.default is not p.empty}
        if defaults:  # by id: two generated __init__ code objects can compare equal
            found[id(fn.__code__)] = (name, defaults)
    return found


def differs(value, default):
    """Whether an argument ``value`` is not its parameter's ``default``."""
    if value is default:
        return False
    try:
        return not bool(value == default)
    except ValueError:  # an array compares elementwise
        return True


# Defaulted parameters, as "module.function(parameter)" (a class's __init__
# named by its class), that no experiment sets to a value other than their
# default, each with the reason it stays.
SEED = "the random seed, which `pint --seed` sets and every experiment passes on"
C15_FIXED_POINT = "gated by C15: its fixed-point checks start from the solution"
TRACE_STATE = "trace state that the solvers record, not an option"
NO_SETTER = "no caller sets it, tests included: a candidate constant (ROADMAP item 5)"
TESTS_ONLY = "only tests set it: a candidate constant (ROADMAP item 5)"
OPTIONS_ALLOWED = {
    "experiments.run_experiment(seed)": SEED,
    **{f"experiments.{spec.runner.__name__}(seed)": SEED for spec in load_registry().values()},
    "parareal.PararealConfig(seed)": SEED,
    "swr.oswr_solve_ad(seed)": SEED,
    "swr.swr_solve_wave(seed)": SEED,
    "swr.utp_advance(seed)": SEED,
    "experiments.run_experiment(jobs)": "perfbench passes jobs=1; ROADMAP item 3 drops it",
    "paradiag.paradiag2_solve(u_init)": C15_FIXED_POINT,
    "stmg.stmg_fas_nonlinear(U0)": C15_FIXED_POINT,
    "trace.IterationTrace(errors)": TRACE_STATE,
    "trace.IterationTrace(residuals)": TRACE_STATE,
    "trace.IterationTrace(fine_solves)": TRACE_STATE,
    "trace.IterationTrace(meta)": TRACE_STATE,
    "idc.collocation_solve(Mf)": NO_SETTER,
    "idc.dense_pfasst_b10(Mf)": NO_SETTER,
    "idc.pfasst_two_level(Mf)": NO_SETTER,
    "models.SourcePulse(amplitude)": NO_SETTER,
    "models.SourcePulse(x_center)": NO_SETTER,
    "stmg.stmg_two_level(U0)": NO_SETTER,
    "swr.oswr_solve_ad(tol)": NO_SETTER,
    "models.SourcePulse(centers)": TESTS_ONLY,
    "models.build_burgers(source)": TESTS_ONLY,
    "stmg.stmg_two_level(cycles)": TESTS_ONLY,
    "stmg.stmg_two_level(integrator)": TESTS_ONLY,
    "swr.oswr_solve_ad(max_iter)": TESTS_ONLY,
}


def test_experiments_set_every_option(results, options_set):
    for exp_id, _ in CRITERIA.values():
        results(exp_id)
    unset = {f"{name}({param})" for name, defaults in option_defaults().values()
             for param in defaults} - options_set
    extra = sorted(unset - OPTIONS_ALLOWED.keys())
    assert not extra, ("no experiment sets these options: make each a constant, or "
                       "allow-list it with a reason\n" + "\n".join(extra))
    stale = sorted(OPTIONS_ALLOWED.keys() - unset)
    assert not stale, f"allow-listed, but set or gone: {stale}"


def test_criterion_c15_property_suites(capsys):
    """Cross-cutting properties: kernel round trips, quadrature exactness,
    stationary/FAS fixed points, order slopes, parallel-order determinism."""
    from pintlab import idc, paradiag, stmg
    from pintlab.integrators import Propagator, TimeGrid, propagate, propagate_block, sdirk22
    from pintlab.kernels import BandedMatrix, dft, idft, solve_shifted_banded
    from pintlab.models import build_burgers, build_heat

    failures = []

    # DFT isometry and round trip
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    if abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) > 1e-13 * np.linalg.norm(v):
        failures.append("dft isometry")
    if np.abs(idft(dft(v)) - v).max() > 1e-13:
        failures.append("dft round trip")

    # shifted-banded solve residuals (randomized diagonally dominant)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
        diag = rng.standard_normal(n)
        bulk = np.zeros(n)
        bulk[:-1] += np.abs(upper)
        bulk[1:] += np.abs(lower)
        diag = np.sign(diag) * (np.abs(diag) + bulk + 1.0)
        A = BandedMatrix(diag, lower, upper)
        r = rng.standard_normal(n)
        x = solve_shifted_banded(A, (1.5, 0.1), r)
        worst = max(worst, np.abs(1.5 * x - 0.1 * A.matvec(x) - r).max() / np.abs(r).max())
    if worst > 1e-12:
        failures.append(f"solve residual {worst:.1e}")

    # quadrature exactness (degree < M)
    for M in (3, 5):
        t = np.linspace(0.0, 1.0, M + 1)
        w = idc.idc_weights(t)
        for q in range(M):
            exact = (t[1:] ** (q + 1) - t[:-1] ** (q + 1)) / (q + 1)
            if np.abs(w @ (t[1:] ** q) - exact).max() > 1e-12:
                failures.append(f"quadrature degree {q} at M={M}")

    # integrator order slope (sdirk22)
    A = BandedMatrix(np.array([-1.0]), np.zeros(0), np.zeros(0))
    from pintlab.models import SemiDiscreteSystem

    scal = SemiDiscreteSystem(A=A, u0=np.ones(1), dx=1.0, bc="dirichlet",
                              kind="heat", x=np.zeros(1))
    errs, dts = [], [0.1, 0.05, 0.025]
    for dt in dts:
        prop = Propagator(sdirk22(), dt=dt, steps=int(round(1.0 / dt)))
        errs.append(abs(propagate(prop, scal, 0.0, 1.0, np.ones(1))[0] - np.exp(-1)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    if abs(slope - 2.0) > 0.25:
        failures.append(f"sdirk22 slope {slope:.2f}")

    # stationary fixed point (alpha-circulant iteration)
    sysh = build_heat(10, 1.0 / 11, 1.0, "dirichlet")
    sysh.u0[:] = np.sin(np.pi * sysh.x)
    op = paradiag.make_all_at_once(sysh, "trapezoidal", 0.02, 12)
    U_star = op.sequential_solve()
    traj, _ = paradiag.paradiag2_solve(sysh, "trapezoidal", 0.2, 0.02, 12,
                                       max_iter=1, u_init=U_star)
    if np.abs(traj[1:] - U_star).max() > 1e-12 * np.abs(U_star).max():
        failures.append("stationary fixed point moved")

    # FAS fixed point
    nxb = 15
    sysb = build_burgers(nxb, 1.0 / (nxb + 1), 0.1, "dirichlet")
    sysb.u0[:] = np.sin(2 * np.pi * sysb.x) ** 2
    grid = stmg.SpaceTimeGrid(lx=4, lt=4, dx=1.0 / (nxb + 1), dt=8.0 / (nxb + 1) ** 2)
    opb = stmg.NonlinearAllAtOnce(sysb, grid.dt, grid.nt)
    Ub = opb.forward_substitution(opb.rhs())
    outb, _ = stmg.stmg_fas_nonlinear(sysb, grid, stmg.SmootherConfig(eta=0.25),
                                      cycles=1, U0=Ub)
    if np.abs(outb[1:] - Ub).max() > 1e-11 * max(np.abs(Ub).max(), 1.0):
        failures.append("FAS fixed point moved")

    # parallel-order determinism: a nonlinear window solve does not depend on
    # the other windows of its block, so window order cannot change a bit
    nxp = 24
    sysp = build_burgers(nxp, 1.0 / nxp, 0.5, "periodic")
    gridp = TimeGrid.uniform(0.5, 6)
    dT = gridp.window_length()
    fine = Propagator(sdirk22(), dt=dT / 4, steps=4)
    t0s = gridp.boundaries[:-1]
    Up = np.sin(2 * np.pi * sysp.x)[:, None] ** 2 * np.linspace(0.5, 1.5, 6)
    perm = np.array([5, 2, 0, 4, 1, 3])
    out = propagate_block(fine, sysp, t0s, Up)
    out_p = propagate_block(fine, sysp, t0s[perm], Up[:, perm])
    if not np.array_equal(out_p[:, np.argsort(perm)], out):
        failures.append("results depend on window order")

    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n{status} C15 [property-suites] kernel round-trips, quadrature "
              f"exactness, order slopes, fixed points, parallel determinism")
        if failures:
            for f in failures:
                print(f"      FAIL {f}")
    assert not failures
