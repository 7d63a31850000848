"""Experiment registry: each entry reproduces one desk-scale convergence
study and evaluates its expected bounds.

The registry is the table :data:`EXPERIMENTS` at the end of this module,
sorted by id: each :class:`ExperimentSpec` holds its id, its gate (the
bound family it checks), its runner in this module and a one-line
description.  A runner takes only ``seed`` and returns an
:class:`ExperimentResult` holding CSV rows and named pass/fail checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import idc, paradiag, paraexp, parareal, stmg, swr
from .integrators import (
    METHODS,
    Propagator,
    TimeGrid,
    backward_euler,
    trapezoidal,
)
from .kernels import BandedMatrix, expm_action
from .models import (
    CompanionSystem,
    SemiDiscreteSystem,
    SourcePulse,
    build_advection_diffusion,
    build_burgers,
    build_heat,
    build_wave,
)


@dataclass
class ExperimentResult:
    rows: list  # list of dicts, one CSV row each
    checks: list  # (name, passed: bool, detail: str)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _geo_mean(xs):
    return float(np.exp(np.mean(np.log(xs))))


def _parareal_cfg(T, n_w, J, fine="backward_euler", coarse="backward_euler", **kw):
    grid = TimeGrid.uniform(T, n_w)
    dT = grid.window_length()
    return parareal.PararealConfig(
        grid=grid,
        fine=Propagator(METHODS[fine](), dt=dT / J, steps=J),
        coarse=Propagator(METHODS[coarse](), dt=dT, steps=1),
        **kw,
    )


def _modes(A):
    """(lam, Q) with A = Q diag(lam) Q^T, for a symmetric spatial matrix A
    (a non-symmetric one is a ValueError).  ``np.linalg.eig``, which the
    suite already loads, where ``eigh`` would add to its peak memory."""
    D = A.to_dense()
    if not np.array_equal(D, D.T):
        raise ValueError("the mode split needs a symmetric spatial matrix A")
    return np.linalg.eig(D)


def _spectral_radius_by_mode(M, A):
    """Spectral radius of an (n_t n) x (n_t n) matrix M over (time, space)
    whose time matrices act on each eigenmode of the symmetric A alone:
    (I (x) Q^T) M (I (x) Q) is then n diagonal n_t x n_t blocks, whose
    eigenvalues one batched ``eigvals`` gives.  Off-diagonal blocks above
    1e-12 max|M| (a coupling between modes) raise ValueError."""
    _, Q = _modes(A)
    n = len(Q)
    n_t = len(M) // n
    # B[s, t] = Q^T M_st Q for the (s, t) space block M_st
    B = Q.T @ (M.reshape(n_t, n, n_t, n) @ Q).transpose(0, 2, 1, 3)
    coupling = float(np.abs(B[:, :, ~np.eye(n, dtype=bool)]).max())
    if coupling > 1e-12 * np.abs(M).max():
        raise ValueError(f"M couples the eigenmodes of A: off-diagonal blocks reach {coupling:.1e}")
    blocks = np.moveaxis(B.diagonal(axis1=2, axis2=3), -1, 0)
    return float(np.abs(np.linalg.eigvals(blocks)).max())


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_parareal_rho_ceiling(seed=0):
    Rg = parareal.stability_function(backward_euler())
    Rf = np.exp
    rho_p = parareal.max_rho_negative_axis(lambda z: parareal.rho_linear(Rg, Rf, 1, z))
    rho_m = parareal.max_rho_negative_axis(
        lambda z: parareal.mgrit_rho_linear(Rg, Rf, 1, z)
    )
    rows = [
        {"quantity": "max_rho_parareal", "value": rho_p},
        {"quantity": "max_rho_mgrit_fcf", "value": rho_m},
    ]
    checks = [
        ("parareal_ceiling_0.2984", abs(rho_p - 0.2984) <= 0.002,
         f"max rho = {rho_p:.6f}, target 0.2984 +/- 0.002"),
        ("mgrit_ceiling_0.1115", abs(rho_m - 0.1115) <= 0.002,
         f"max rho = {rho_m:.6f}, target 0.1115 +/- 0.002"),
    ]
    return ExperimentResult(rows, checks)


def run_parareal_finite_termination(seed=0):
    n_w = 10
    heat = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
    heat.u0[:] = np.sin(np.pi * heat.x)
    ad = build_advection_diffusion(16, 1.0 / 16, 0.1, "periodic")
    ad.u0[:] = np.sin(2 * np.pi * ad.x)
    wave = build_wave(16, 1.0 / 17, np.sqrt(0.2), "dirichlet")
    wave.u0[:] = np.sin(np.pi * wave.x)
    rows, checks = [], []
    for model, sys in (("heat", heat), ("advection_diffusion", ad), ("wave", wave)):
        cfg = _parareal_cfg(1.0, n_w, 4, fine="trapezoidal", max_iter=n_w, tol=0.0)
        oracle = parareal.fine_sequential(cfg.grid, cfg.fine, sys)
        scale = max(np.abs(oracle).max(), 1.0)
        _, tr = parareal.parareal_solve(cfg, sys, oracle=oracle)
        for k, e in enumerate(tr.errors):
            rows.append({"model": model, "method": "parareal", "iter": k, "max_error": e})
        checks.append((f"parareal_{model}_terminates", tr.errors[n_w] <= 1e-10 * scale,
                       f"error after {n_w} iterations = {tr.errors[n_w]:.2e}"))
        _, trm = parareal.mgrit_fcf_solve(cfg, sys, oracle=oracle)
        half = -(-n_w // 2)
        for k, e in enumerate(trm.errors):
            rows.append({"model": model, "method": "mgrit_fcf", "iter": k, "max_error": e})
        checks.append((f"mgrit_{model}_terminates_half", trm.errors[half] <= 1e-10 * scale,
                       f"error after {half} iterations = {trm.errors[half]:.2e}"))
    return ExperimentResult(rows, checks)


def run_parareal_heat_contraction(seed=0):
    nx = 256
    sys = build_heat(nx, 1.0 / nx, 0.1, "periodic")
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    rows, checks = [], []
    for fine in ("backward_euler", "sdirk22"):
        # random initial guess: the measured rate then reflects the worst
        # mode of the spectrum rather than the initial data's single mode
        cfg = _parareal_cfg(4.0, 40, 50, fine=fine, max_iter=14, tol=1e-13,
                            initial_guess="random", seed=seed)
        _, tr = parareal.parareal_solve(cfg, sys)
        for k, e in enumerate(tr.errors):
            rows.append({"fine": fine, "iter": k, "max_error": e})
        factors = tr.contraction_factors()
        mean = _geo_mean(factors)
        checks.append((f"contraction_{fine}_in_band", 0.2 <= mean <= 0.4,
                       f"mean contraction {mean:.3f}, band [0.2, 0.4]"))
    return ExperimentResult(rows, checks)


def run_paradiag1_geometric(seed=0):
    nx = 49
    sys = build_heat(nx, 1.0 / 50, 1.0, "dirichlet")
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    rows, checks = [], []
    for n_t in (8, 16):
        mesh = paradiag.GeometricTimeMesh(T=0.2, n_t=n_t, rho=0.3)
        direct = paradiag.paradiag1_direct_solve(sys, mesh)
        seq = paradiag.sequential_variable_step_solve(sys, mesh)
        rel = float(np.abs(direct - seq).max() / np.abs(seq).max())
        rows.append({"check": "oracle_equivalence", "n_t": n_t, "rel_error": rel})
        checks.append((f"oracle_match_nt{n_t}", rel <= 1e-8,
                       f"relative gap to sequential solve: {rel:.2e}"))
    lam, Q = _modes(sys.A)
    lam_max = float(np.abs(lam).max())
    u0_modes = Q.T @ sys.u0
    errs = {}
    for n_t in (32, 256):
        rho = paradiag.rho_opt_first_order(n_t, 0.5, lam_max)
        mesh = paradiag.GeometricTimeMesh(T=0.5, n_t=n_t, rho=rho)
        direct = paradiag.paradiag1_direct_solve(sys, mesh)
        # the exact solution at every mesh time, each mode decaying alone
        exact = (np.exp(np.outer(mesh.times[1:], lam)) * u0_modes) @ Q.T
        err = float(np.abs(direct[1:] - exact).max())
        errs[n_t] = err
        rows.append({"check": "roundoff_blowup", "n_t": n_t, "err_vs_exact": err})
    checks.append(("roundoff_blowup_10x", errs[256] >= 10 * errs[32],
                   f"error grows {errs[256] / errs[32]:.1e}x from N_t=32 to 256"))
    return ExperimentResult(rows, checks)


def run_paradiag1_bvm_wave(seed=0):
    nx = 39
    sys = build_wave(nx, 1.0 / (nx + 1), 1.0, "dirichlet")
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    comp = CompanionSystem(sys)
    T = 0.5
    rows, errs, nts = [], [], [2**k for k in range(4, 9)]
    for n_t in nts:
        dt = T / n_t
        traj = paradiag.paradiag1_bvm_solve(sys, dt, n_t)
        w, err = comp.u0.copy(), 0.0
        for n in range(1, n_t + 1):
            w = expm_action(comp, dt, w)
            err = max(err, float(np.abs(traj[n] - w[:nx]).max()))
        errs.append(err)
        rows.append({"n_t": n_t, "max_error": err})
    slope = float(np.polyfit(np.log([T / n for n in nts]), np.log(errs), 1)[0])
    conds = []
    for n_t in (8, 16, 32, 64, 128):
        _, V = np.linalg.eig(paradiag.bvm_time_matrix(n_t, 0.01))
        conds.append(float(np.linalg.cond(V)) / n_t**2)
        rows.append({"n_t": n_t, "cond_over_nt2": conds[-1]})
    checks = [
        ("second_order_slope", abs(slope - 2.0) <= 0.2, f"slope {slope:.3f}"),
        ("no_roundoff_deterioration", errs[-1] < errs[0],
         f"error falls {errs[0]:.1e} -> {errs[-1]:.1e} through N_t=2^8"),
        ("eigvec_cond_quadratic", max(conds) <= 10 * min(conds),
         f"cond(V)/N_t^2 stays within 10x across N_t"),
    ]
    return ExperimentResult(rows, checks)


def run_paradiag2_contraction(seed=0):
    rows, checks = [], []
    heat = build_heat(12, 1.0 / 13, 1.0, "dirichlet")
    heat.u0[:] = np.sin(np.pi * heat.x)
    wave = build_wave(8, 1.0 / 9, 1.0, "dirichlet")
    wave.u0[:] = np.sin(2 * np.pi * wave.x)
    ref = paradiag.make_all_at_once(heat, "trapezoidal", 0.02, 16).sequential_solve()
    refw = paradiag.make_all_at_once(wave, "numerov", 0.05, 16).sequential_solve()
    for alpha in (0.05, 0.1, 0.2):
        bound = alpha / (1 - alpha)
        _, tr = paradiag.paradiag2_solve(heat, "trapezoidal", alpha, 0.02, 16,
                                         reference=ref, tol=1e-13, max_iter=25)
        f_heat = tr.contraction_factors(floor=1e-12, skip=1)
        _, trw = paradiag.paradiag2_solve(wave, "numerov", alpha, 0.05, 16,
                                          reference=refw, tol=1e-13, max_iter=40)
        f_wave = trw.contraction_factors(floor=1e-12, skip=1)
        worst = max(max(f_heat, default=0.0), max(f_wave, default=0.0))
        rows.append({"alpha": alpha, "worst_contraction": worst, "bound": bound})
        checks.append((f"contraction_alpha_{alpha}", worst <= bound + 0.02,
                       f"worst factor {worst:.4f} vs alpha/(1-alpha)+0.02 = {bound + 0.02:.4f}"))
        for sysname, s, integ, dt in (("heat", heat, "trapezoidal", 0.02),
                                      ("wave", wave, "numerov", 0.05)):
            PK = paradiag.dense_preconditioned_operator(s, integ, alpha, dt, 16)
            rho = _spectral_radius_by_mode(np.eye(PK.shape[0]) - PK, s.A)
            rows.append({"alpha": alpha, "model": sysname, "spectral_radius": rho})
            checks.append((f"rho_{sysname}_alpha_{alpha}", rho <= bound + 1e-8,
                           f"rho(I - P^-1 K) = {rho:.4f} <= {bound:.4f}"))
    return ExperimentResult(rows, checks)


def run_paradiag2_alpha1_clustering(seed=0):
    sys = build_heat(6, 1.0 / 7, 1.0, "dirichlet")
    sys.u0[:] = np.sin(np.pi * sys.x)
    lam = np.linalg.eigvals(
        paradiag.dense_preconditioned_operator(sys, "backward_euler", 1.0, 0.05, 8))
    n_off = int(np.sum(np.abs(lam - 1.0) > 1e-8))
    rows = [{"eig_index": i, "re": float(l.real), "im": float(l.imag)}
            for i, l in enumerate(np.sort_complex(lam))]
    checks = [("clustering_at_most_nx", n_off <= 6,
               f"{n_off} eigenvalues differ from 1 (limit N_x = 6)")]
    return ExperimentResult(rows, checks)


def run_paraexp_exactness(seed=0):
    rows, checks = [], []
    # linear: heat with the four-pulse source
    sys = build_heat(32, 1.0 / 33, 1.0, "dirichlet", source=SourcePulse(200.0))
    grid = TimeGrid.uniform(2.0, 4)
    dT = grid.window_length()
    plan = paraexp.ParaExpPlan(grid=grid, red=Propagator(trapezoidal(), dt=dT / 64, steps=64))
    out = paraexp.paraexp_linear_solve(plan, sys)
    seq = parareal.fine_sequential(grid, plan.red, sys)
    plan_fine = paraexp.ParaExpPlan(
        grid=grid, red=Propagator(trapezoidal(), dt=dT / 256, steps=256))
    ref = paraexp.paraexp_linear_solve(plan_fine, sys)
    red_err = float(np.abs(seq - ref).max())
    gap = float(np.abs(out - seq).max())
    rows.append({"check": "linear_superposition", "gap_to_oracle": gap,
                 "red_discretization_error": red_err})
    checks.append(("linear_within_red_error", gap <= red_err + 1e-10 * np.abs(seq).max(),
                   f"superposition gap {gap:.2e} vs red error {red_err:.2e} + slack"))
    # nonlinear: Burgers, bitwise Parareal equality and finite termination
    nb = 50
    sysb = build_burgers(nb, 1.0 / nb, 1.0, "periodic")
    sysb.u0[:] = np.sin(2 * np.pi * sysb.x) ** 2
    n_w = 5
    gridb = TimeGrid.uniform(1.0, n_w)
    dTb = gridb.window_length()
    planb = paraexp.ParaExpPlan(grid=gridb,
                                red=Propagator(backward_euler(), dt=dTb / 10, steps=10),
                                max_iter=n_w, tol=0.0)
    # both iterations share the system, grid and fine propagator: one oracle
    oracle = parareal.fine_sequential(gridb, planb.red, sysb)
    U1, tr1 = paraexp.paraexp_nonlinear_iterate(planb, sysb, oracle=oracle)
    U2, tr2 = paraexp.linear_g_parareal(planb, sysb, oracle=oracle)
    bitwise = bool(np.array_equal(U1, U2))
    for k, e in enumerate(tr1.errors):
        rows.append({"check": "nonlinear_error", "iter": k, "max_error": e})
    checks.append(("nonlinear_bitwise_parareal", bitwise,
                   "window-endpoint iterates identical bit for bit"))
    checks.append(("nonlinear_finite_termination", tr1.errors[n_w - 1] <= 1e-10,
                   f"error after {n_w} iterations: {tr1.errors[n_w - 1]:.2e}"))
    return ExperimentResult(rows, checks)


def run_swr_ad_iterations(seed=0):
    L, T, dt, dx, nu = 8.2, 5.0, 0.01, 0.02, 0.1
    n_nodes = int(round(L / dx)) + 1
    dec_d = swr.Decomposition1D.uniform(n_nodes, 4, 2, tc="dirichlet")
    p_star, rho = swr.robin_p_star(2 * dx, nu, T, dt)
    dec_r = swr.Decomposition1D.uniform(n_nodes, 4, 2, tc="robin", p=p_star)
    tr_d, tr_r = swr.oswr_solve_ad(nu, L, T, dx, dt, [dec_d, dec_r], seed=seed)
    rows = [{"tc": "dirichlet", "iterations": tr_d.iterations},
            {"tc": "robin", "iterations": tr_r.iterations,
             "p_star": p_star, "rho_bound": rho}]
    checks = [
        ("dirichlet_iterations_92", 92 * 0.8 <= tr_d.iterations <= 92 * 1.2,
         f"{tr_d.iterations} sweeps (target 92 +/- 20%)"),
        ("robin_iterations_28", 28 * 0.8 <= tr_r.iterations <= 28 * 1.2,
         f"{tr_r.iterations} sweeps (target 28 +/- 20%)"),
    ]
    return ExperimentResult(rows, checks)


def run_swr_wave_utp(seed=0):
    c = np.sqrt(0.2)
    dx = 1.0 / 80
    rows, checks = [], []
    for T, frac in ((2.0, 0.25), (2.0, 0.5)):
        overlap_cells = int(round(frac * 80))
        dec = swr.Decomposition1D.uniform(81, 2, overlap_cells, tc="dirichlet")
        k_star = int(np.ceil(T * c / frac)) + 1
        _, tr = swr.swr_solve_wave(c, 1.0, T, dx, dec, tol=0.0, max_iter=k_star, seed=seed)
        err = tr.errors[k_star - 1]
        rows.append({"T": T, "overlap": frac, "k_star": k_star, "interface_error": err})
        checks.append((f"wave_finite_T{T}_l{frac}", err < 1e-10,
                       f"interface error {err:.1e} at sweep {k_star} (T={T}, overlap={frac})"))
    # tents: certified region grows by one slab per sweep
    L, dxu = 1.0, 1.0 / 120
    sched = swr.TentSchedule(n_red=3)
    x, dtu, mono = swr.monodomain_solve_wave(c, L, 1.0, dxu, partial(swr.wave_initial_data, L=L))
    bounds = np.linspace(0, x.shape[0] - 1, 7).round().astype(int)
    overlap = x[bounds[2]] - x[bounds[1]]
    slab = overlap / (2 * c)
    ok = True
    heatmap = []
    for sweeps in (2, 4, 6):
        U, tr, heatmap = swr.utp_advance(c, L, 1.0, dxu, sched, sweeps=sweeps, seed=seed)
        m_cert = int(np.floor((sweeps - 1) * slab / dtu))
        err = float(np.abs(U[: m_cert + 1] - mono[: m_cert + 1]).max())
        rows.append({"utp_sweeps": sweeps, "certified_error": err})
        ok = ok and err < 1e-9
    checks.append(("utp_tent_exactness", ok, "error < 1e-9 inside certified slabs"))
    for xv, tv, rv in heatmap:  # residual heat map of the final sweep
        rows.append({"x": float(xv), "t": float(tv), "residual": float(rv)})
    return ExperimentResult(rows, checks)


def run_idc_order_lift(seed=0):
    A = BandedMatrix(np.array([-1.0]), np.zeros(0), np.zeros(0))
    sys = SemiDiscreteSystem(A=A, u0=np.ones(1), dx=1.0, bc="dirichlet",
                             kind="heat", x=np.zeros(1))
    M = 5
    rows, checks = [], []
    for k in range(4):
        errs, hs = [], []
        for n_w in (8, 16, 32):
            _, _, endpoints = idc.idc_run(sys, 1.0, n_w, M, k)
            errs.append(abs(endpoints[k + 1, -1, 0] - np.exp(-1.0)))
            hs.append(1.0 / (n_w * M))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        expected = min(M, k + 1)
        rows.append({"corrections": k, "slope": slope, "expected": expected})
        checks.append((f"order_k{k}", abs(slope - expected) <= 0.3,
                       f"slope {slope:.2f}, expected {expected}"))
    return ExperimentResult(rows, checks)


def run_pfasst_radau(seed=0):
    rows, checks = [], []
    sys0 = build_heat(16, 1.0 / 17, 1.0, "dirichlet")
    sys0.u0[:] = np.sin(np.pi * sys0.x)
    B10 = idc.dense_pfasst_b10(sys0, 0.05, Mc=3,
                               identity_transfers=True, sweeper_exact=True)
    b10 = float(np.abs(B10).max())
    _, tr_id = idc.pfasst_two_level(sys0, 6, 0.05, k_max=1, Mc=3,
                                    identity_transfers=True, sweeper_exact=True)
    rows.append({"check": "identity_case", "B10_max": b10, "error_after_1": tr_id.errors[1]})
    checks.append(("identity_B10_vanishes", b10 <= 1e-10, f"|B10| = {b10:.1e}"))
    checks.append(("identity_one_pass_exact", tr_id.errors[1] <= 1e-10,
                   f"error after one pass {tr_id.errors[1]:.1e}"))

    nx = 127
    dt, n_w = 1.0 / 64, 64
    line = max(dt**2, (1.0 / 128) ** 2)
    results = {}
    for name, builder, kwargs in (
        ("heat", build_heat, dict(nu=1.0)),
        ("advection_diffusion", build_advection_diffusion, dict(nu=1e-3)),
    ):
        s = builder(nx, 1.0 / 128, bc="dirichlet", source=SourcePulse(1000.0), **kwargs)
        ref = idc.collocation_solve(s, dt / 2, 2 * n_w)[::2]
        _, tr = idc.pfasst_two_level(s, n_w, dt, k_max=10, reference=ref)
        results[name] = tr.errors
        for k, e in enumerate(tr.errors):
            rows.append({"model": name, "iter": k, "max_error": e})
    e_h = results["heat"]
    monotone = all(b <= a * (1 + 1e-10) for a, b in zip(e_h[:-1], e_h[1:]))
    checks.append(("heat_monotone", monotone, "heat errors decay monotonically"))
    checks.append(("heat_reaches_truncation_line", e_h[10] <= line,
                   f"heat error {e_h[10]:.2e} <= max(dt^2, dx^2) = {line:.2e}"))
    checks.append(("weak_diffusion_slower", results["advection_diffusion"][10] > line,
                   f"AD error {results['advection_diffusion'][10]:.2e} still above the line"))
    return ExperimentResult(rows, checks)


def run_stmg_suite(seed=0):
    rows, checks = [], []
    dx = 1.0 / 32
    for ratio in (1.0 / np.sqrt(2.0), 2.0, 50.0):
        worst = stmg.lfa_max_high_frequency(0.5, ratio * dx**2, dx)
        rows.append({"check": "lfa_bound", "ratio": ratio, "max_symbol": worst})
        checks.append((f"lfa_bound_ratio_{ratio:.3f}",
                       worst <= 1.0 / np.sqrt(2.0) + 1e-10,
                       f"max high-frequency |symbol| = {worst:.6f}"))
    # mode injection agreement
    nxp, ntp = 32, 64
    dxp = 1.0 / nxp
    dtp = 2.0 * dxp**2
    sysp = build_heat(nxp, dxp, 1.0, "periodic")
    op = stmg.AllAtOnce(sysp, 1.0, dtp, ntp)
    omega = 2 * np.pi * 7 / (ntp * dtp)
    xi = 2 * np.pi * 5
    n_idx = np.arange(1, ntp + 1)[:, None]
    m_idx = np.arange(nxp)[None, :]
    mode = np.exp(1j * omega * n_idx * dtp) * np.exp(1j * xi * m_idx * dxp)
    smoothed = mode + 0.5 * op.solve_r1(-op.apply(mode))
    rho_sym = stmg.lfa_rho(omega, xi, 0.5, dtp, dxp)
    gap = float(np.abs(smoothed[1:] / mode[1:] - rho_sym).max())
    rows.append({"check": "mode_injection", "gap": gap})
    checks.append(("mode_injection_matches_symbol", gap <= 1e-8, f"gap {gap:.1e}"))
    # V-cycle contraction
    lx, lt = 4, 5
    nx = 2**lx - 1
    dxh = 1.0 / (nx + 1)
    sysh = build_heat(nx, dxh, 1.0, "dirichlet")
    sysh.u0[:] = np.sin(np.pi * sysh.x)
    grid = stmg.SpaceTimeGrid(lx=lx, lt=lt, dx=dxh, dt=8 * dxh**2)
    _, tr = stmg.stmg_two_level(sysh, grid, stmg.SmootherConfig(eta=0.5, s1=4, s2=4),
                                cycles=10)
    factors = tr.contraction_factors(floor=1e-12, skip=3)
    worst = max(factors)
    for k, e in enumerate(tr.errors):
        rows.append({"check": "vcycle", "iter": k, "max_error": e})
    checks.append(("vcycle_contraction_quarter", worst <= 0.25,
                   f"worst per-cycle factor {worst:.3f} <= 0.25"))
    # FAS on Burgers
    nxb = 31
    dxb = 1.0 / (nxb + 1)
    sysb = build_burgers(nxb, dxb, 0.1, "dirichlet")
    sysb.u0[:] = np.sin(2 * np.pi * sysb.x) ** 2
    gridb = stmg.SpaceTimeGrid(lx=5, lt=5, dx=dxb, dt=8 * dxb**2)
    _, trb = stmg.stmg_fas_nonlinear(sysb, gridb,
                                     stmg.SmootherConfig(eta=0.25, s1=2, s2=2),
                                     cycles=15)
    eb = trb.errors
    for k, e in enumerate(eb):
        rows.append({"check": "fas_burgers", "iter": k, "max_error": e})
    checks.append(("fas_monotone", all(b <= a * (1 + 1e-12) for a, b in zip(eb[:-1], eb[1:])),
                   "FAS errors decay monotonically"))
    return ExperimentResult(rows, checks)


def run_parareal_diag_variants(seed=0):
    rows, checks = [], []
    # diag CGC threshold behaviour on heat
    sys = build_heat(64, 1.0 / 64, 0.1, "periodic")
    sys.u0[:] = np.sin(2 * np.pi * sys.x)
    cfg_c = _parareal_cfg(4.0, 40, 10, fine="sdirk22", max_iter=10, tol=1e-12)
    # both solvers share the system, grid and fine propagator: one oracle
    oracle = parareal.fine_sequential(cfg_c.grid, cfg_c.fine, sys)
    _, tr_c = parareal.parareal_solve(cfg_c, sys, oracle=oracle)
    rho = _geo_mean(tr_c.contraction_factors(floor=1e-10))
    alpha = rho / (1 + rho)
    cfg_d = _parareal_cfg(4.0, 40, 10, fine="sdirk22", max_iter=10, tol=1e-12, alpha=alpha)
    _, tr_d = parareal.parareal_diag_cgc_solve(cfg_d, sys, oracle=oracle)
    rho_d = _geo_mean(tr_d.contraction_factors(floor=1e-10))
    rows.append({"variant": "diag_cgc", "rho_classic": rho, "rho_diag": rho_d,
                 "alpha": alpha})
    checks.append(("cgc_matches_classic_rho", abs(rho_d - rho) <= 0.1 * rho,
                   f"rho {rho_d:.3f} vs classic {rho:.3f} (10% band) at alpha={alpha:.3f}"))
    # diag coarse solver: heat rate = alpha
    sysh = build_heat(50, 1.0 / 51, 0.05, "dirichlet")
    sysh.u0[:] = np.sin(2 * np.pi * sysh.x) ** 2
    oracle = None  # one for both alphas: the grid and fine propagator do not depend on it
    for alpha in (1e-2, 1e-3):
        cfg = _parareal_cfg(8.0, 96, 10, fine="trapezoidal", coarse="trapezoidal",
                            max_iter=7, tol=1e-13, alpha=alpha)
        if oracle is None:
            oracle = parareal.fine_sequential(cfg.grid, cfg.fine, sysh)
        _, tr = parareal.parareal_diag_coarse_solve(cfg, sysh, oracle=oracle)
        factors = tr.contraction_factors(skip=1)
        mean = _geo_mean(factors)
        rows.append({"variant": "diag_coarse_heat", "alpha": alpha, "rate": mean})
        checks.append((f"coarse_rate_alpha_{alpha}", abs(mean - alpha) <= 0.3 * alpha,
                       f"measured rate {mean:.2e} vs alpha {alpha:.0e} (30% band)"))
    # diag coarse solver: wave iterations robust in N_t
    nxw = 32
    iters = {}
    for n_w in (24, 240):
        sysw = build_wave(nxw, 1.0 / nxw, 1.0, "periodic")
        sysw.u0[:] = np.sin(2 * np.pi * sysw.x) ** 2
        cfg = _parareal_cfg(n_w / 12.0, n_w, 10, fine="trapezoidal",
                            coarse="trapezoidal", max_iter=10, tol=0.0, alpha=1e-4)
        _, tr = parareal.parareal_diag_coarse_solve(cfg, sysw)
        tol = max((cfg.fine.dt) ** 2, (1.0 / nxw) ** 2)
        iters[n_w] = tr.converged_at(tol)
        rows.append({"variant": "diag_coarse_wave", "n_windows": n_w,
                     "iters_to_tol": iters[n_w]})
    checks.append(("wave_iters_robust_in_nt",
                   0 <= iters[240] <= iters[24] + 2,
                   f"{iters[24]} -> {iters[240]} iterations as N_t goes 24 -> 240"))
    return ExperimentResult(rows, checks)


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    gate: str
    runner: Callable[..., ExperimentResult]
    description: str


# sorted by id: `pint list`, `pint verify` and the benchmark follow this order
EXPERIMENTS = (
    ExperimentSpec(
        "idc-order-lift", "C11", run_idc_order_lift,
        "Deferred-correction order lift min(M, k+1) with backward-Euler sweeps on the "
        "scalar decay problem"),
    ExperimentSpec(
        "paradiag1-bvm-wave", "C5", run_paradiag1_bvm_wave,
        "Boundary-value-method all-at-once solve of the wave equation: second-order slope "
        "with no deterioration and quadratic eigenvector conditioning"),
    ExperimentSpec(
        "paradiag1-geometric", "C4", run_paradiag1_geometric,
        "Direct geometric-mesh diagonalization: equivalence with sequential variable-step "
        "stepping and the roundoff blow-up across N_t at the balanced step ratio"),
    ExperimentSpec(
        "paradiag2-alpha1-clustering", "C7", run_paradiag2_alpha1_clustering,
        "Strang-circulant preconditioner at alpha=1: at most N_x eigenvalues of the "
        "preconditioned operator differ from one for symmetric negative definite space "
        "operators"),
    ExperimentSpec(
        "paradiag2-contraction", "C6", run_paradiag2_contraction,
        "Alpha-circulant stationary iteration contraction bounded by alpha/(1-alpha) on "
        "heat (trapezoidal) and wave (Numerov), plus dense spectral-radius checks"),
    ExperimentSpec(
        "paraexp-exactness", "C8", run_paraexp_exactness,
        "Superposition exactness of the exponential splitting and the bitwise equivalence "
        "of the nonlinear iteration with exponential-coarse Parareal"),
    ExperimentSpec(
        "parareal-diag-variants", "C14", run_parareal_diag_variants,
        "Diagonalization-based Parareal variants: all-at-once CGC matching the classic "
        "rate below the alpha threshold, the shared-discretization coarse solver "
        "contracting at alpha, and wave iteration counts robust in N_t"),
    ExperimentSpec(
        "parareal-finite-termination", "C2", run_parareal_finite_termination,
        "Finite termination of Parareal (N_t sweeps) and MGRiT-FCF (half that) on heat, "
        "advection-diffusion and the companion wave system"),
    ExperimentSpec(
        "parareal-heat-contraction", "C3", run_parareal_heat_contraction,
        "Measured per-iteration contraction near 0.3 on the periodic heat equation with "
        "J=50, BE coarse and BE/SDIRK22 fine"),
    ExperimentSpec(
        "parareal-rho-ceiling", "C1", run_parareal_rho_ceiling,
        "Linear convergence-factor ceilings: backward-Euler coarse against the exact "
        "exponential, Parareal and MGRiT-FCF, maximized over the negative real axis"),
    ExperimentSpec(
        "pfasst-radau", "C12", run_pfasst_radau,
        "Two-level collocation block iteration: degenerate identity case is exact in one "
        "pass; with the 3/2 Radau pair heat decays monotonically below the truncation "
        "line while weak diffusion lags"),
    ExperimentSpec(
        "stmg-suite", "C13", run_stmg_suite,
        "Space-time multigrid: smoother symbol bound and measured mode damping, V-cycle "
        "contraction below 0.25, and monotone nonlinear FAS on Burgers"),
    ExperimentSpec(
        "swr-ad-iterations", "C9", run_swr_ad_iterations,
        "Four-subdomain advection-diffusion waveform relaxation sweep counts: about 92 "
        "with Dirichlet traces, 28 with the optimized Robin parameter"),
    ExperimentSpec(
        "swr-wave-utp", "C10", run_swr_wave_utp,
        "Finite convergence of wave waveform relaxation past T*c/overlap and tent "
        "exactness of the red-black schedule"),
)


def load_registry() -> dict:
    """The experiments of :data:`EXPERIMENTS` by id, in table order."""
    return {spec.id: spec for spec in EXPERIMENTS}


def run_experiment(spec: ExperimentSpec, seed: int = 0, jobs: int = 1) -> ExperimentResult:
    """Run one experiment in this process.  Experiments always run
    serially; ``jobs`` stays for callers that pass ``jobs=1``, and any
    other value is rejected."""
    if jobs != 1:
        raise ValueError(f"run_experiment runs serially, so jobs must be 1, got jobs={jobs!r}")
    return spec.runner(seed=seed)


def result_to_csv(result: ExperimentResult) -> str:
    """Render rows as CSV with a header; floats carry 17 significant digits."""
    if not result.rows:
        return "quantity,value\n"
    cols = []
    for row in result.rows:
        for key in row:
            if key not in cols:
                cols.append(key)

    def fmt(v):
        if isinstance(v, float):
            return f"{v:.17g}"
        return "" if v is None else str(v)

    lines = [",".join(cols)]
    for row in result.rows:
        lines.append(",".join(fmt(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"
