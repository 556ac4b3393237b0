"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy phantoms are
generated once per session and shared between criteria.
"""

import math

import numpy as np
import pytest

from test_flow import hs_reference_solution, random_instance

from speckleflow.elastic import (BoundaryConditions, LameField, forward_solve,
                                 frechet_adjoint, frechet_apply, young_modulus)
from speckleflow.flow import (FlowParams, assemble, evaluate_functional,
                              gradient, multiscale_flow, solve_flow)
from speckleflow.grids import ScalarGrid, VectorGrid, Volume, bilinear_sample, pyramid_sigma
from speckleflow.invert import (InversionConfig, boundary_band_mask,
                                field_error, field_inner, landweber_step,
                                nesterov_iterate)
from speckleflow.phantom import PhantomSpec, make_inclusion_phantom, make_moving_squares
from speckleflow.speckle import MatchCriteria, detect, match_bubbles, run_tracking


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# shared heavy artifacts -----------------------------------------------------

INCLUSION_SEED = 42


@pytest.fixture(scope="session")
def inclusion_bundle():
    """The 200x200, 200-bubble compression phantom plus its multiscale flow
    estimate (criterion 6 setup, reused by criterion 10)."""
    spec = PhantomSpec(kind="inclusion", nx=200, ny=200, bubble_count=200,
                       compression_px=20.0, inclusion_radius=30.0,
                       seed=INCLUSION_SEED)
    lame, bc, u_true, i1, i2, samples = make_inclusion_phantom(spec)
    params = FlowParams(alpha=4.0, beta=4.0, sigma_g=5.0, levels=5, eta=0.5,
                        sigma0=0.6)
    u_est = multiscale_flow(i1, i2, samples, params)
    return spec, lame, bc, u_true, i1, i2, samples, u_est


def inclusion_interior_mask(spec):
    xs, ys = np.meshgrid(np.arange(float(spec.nx)), np.arange(float(spec.ny)))
    cx, cy = (spec.nx - 1) / 2.0, (spec.ny - 1) / 2.0
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= (0.8 * spec.inclusion_radius) ** 2


# ---------------------------------------------------------------------------


def test_criterion_01_pyramid_constant():
    value = pyramid_sigma(0.5, 0.6)
    ok = abs(value - 1.03923) <= 1e-5
    report(1, ok, f"pyramid_sigma(0.5, 0.6) = {value:.6f} (want 1.03923 +/- 1e-5)")


def test_criterion_02_horn_schunck_equivalence():
    worst = 0.0
    for seed in range(20):
        grad, it, _, _ = random_instance(seed)
        p = FlowParams(alpha=0.8, beta=0.0)
        ours = solve_flow(assemble(grad, it, [], p)).data.ravel()
        ref = hs_reference_solution(grad, it, 0.8)
        worst = max(worst, float(np.abs(ours - ref).max()))
    report(2, worst <= 1e-8,
           f"beta=0 vs reference Horn-Schunck, 20 trials, max |diff| = {worst:.2e}")


def test_criterion_03_well_posedness():
    worst_a = math.inf
    worst_b = math.inf
    for seed in range(20):
        grad, it, samples, _ = random_instance(seed)
        A1 = assemble(grad, it, [], FlowParams(alpha=0.5, beta=0.0)).matrix.toarray()
        worst_a = min(worst_a, float(np.linalg.eigvalsh(A1).min()))
        grad0 = VectorGrid.zeros(8, 8)
        A2 = assemble(grad0, it, samples,
                      FlowParams(alpha=0.0, beta=0.8, sigma_g=2.0)).matrix.toarray()
        worst_b = min(worst_b, float(np.linalg.eigvalsh(A2).min()))
    ok = worst_a > 0 and worst_b > 0
    report(3, ok, f"smallest eigenvalues: alpha>0 case {worst_a:.3e}, "
                  f"beta-only case {worst_b:.3e} (both must be > 0)")


def test_criterion_04_gradient_check():
    worst = 0.0
    for seed in range(20):
        grad, it, samples, rng = random_instance(seed)
        p = FlowParams(alpha=0.4, beta=1.2, sigma_g=2.0)
        u = VectorGrid(8, 8, rng.standard_normal((8, 8, 2)))
        h = rng.standard_normal((8, 8, 2))
        g = gradient(u, grad, it, samples, p)
        eps = 1e-6
        up = VectorGrid(8, 8, u.data + eps * h)
        um = VectorGrid(8, 8, u.data - eps * h)
        fd = (evaluate_functional(up, grad, it, samples, p)
              - evaluate_functional(um, grad, it, samples, p)) / (2 * eps)
        inner = float(np.sum(g.data * h))
        worst = max(worst, abs(fd - inner) / max(abs(fd), 1e-30))
    report(4, worst <= 1e-5,
           f"directional-derivative check, 20 trials, worst rel err = {worst:.2e}")


def test_criterion_05_moving_squares_improvement():
    spec = PhantomSpec(kind="moving_squares", nx=128, ny=128, bubble_count=50,
                       noise_rel=0.001, seed=5, square_size=48,
                       square_shift=12.0)
    i1, i2, u_true, samples = make_moving_squares(spec)

    def epe(u):
        d = u.data - u_true.data
        return float(np.mean(np.hypot(d[:, :, 0], d[:, :, 1])))

    base = dict(alpha=0.8, beta=4.0, sigma_g=5.0, eta=0.5, sigma0=0.6)
    e_multi = epe(multiscale_flow(i1, i2, samples, FlowParams(levels=5, **base)))
    e_single = epe(multiscale_flow(i1, i2, samples, FlowParams(levels=1, **base)))
    e_beta0 = epe(multiscale_flow(i1, i2, [],
                                  FlowParams(levels=5, **{**base, "beta": 0.0})))
    ok = e_multi < e_beta0 and e_multi < e_single
    report(5, ok, f"mean EPE: multiscale beta=4 {e_multi:.4f} < "
                  f"single-scale {e_single:.4f} and < beta=0 {e_beta0:.4f}")


def test_criterion_06_inclusion_flow_error(inclusion_bundle):
    _, _, _, u_true, _, _, _, u_est = inclusion_bundle
    total, ex, ey = field_error(u_est, u_true)
    ok = total <= 0.15 and ex <= 0.12 and ey <= 0.12
    report(6, ok, f"flow errors: total {total:.4f} (<=0.15), "
                  f"x {ex:.4f}, y {ey:.4f} (<=0.12)")


def test_criterion_07_patch_test():
    rng = np.random.default_rng(0)
    nx, ny = 9, 8
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    worst = 0.0
    for _ in range(10):
        a, b = rng.uniform(-1, 1, 2)
        lam0, mu0 = rng.uniform(0.5, 10.0, 2)
        bc = BoundaryConditions(dirichlet=[
            ("bottom", "both", np.stack([a * np.arange(nx), np.zeros(nx)], axis=-1)),
            ("top", "both", np.stack([a * np.arange(nx), np.full(nx, b * (ny - 1))], axis=-1)),
            ("left", "both", np.stack([np.zeros(ny), b * np.arange(ny)], axis=-1)),
            ("right", "both", np.stack([np.full(ny, a * (nx - 1)), b * np.arange(ny)], axis=-1)),
        ])
        u = forward_solve(LameField.constant(nx, ny, lam0, mu0), bc)
        exact = np.stack([a * xs, b * ys], axis=-1)
        worst = max(worst, float(np.abs(u.data - exact).max()))
    report(7, worst <= 1e-9,
           f"affine patch test, 10 random fields, max |err| = {worst:.2e}")


def test_criterion_08_adjoint_test():
    bc = BoundaryConditions(dirichlet=[("bottom", "both", 0.0),
                                       ("top", "uy", -2.0)])
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 32
        lam = ScalarGrid(n, n, 5.0 + rng.random((n, n)))
        mu = ScalarGrid(n, n, 2.0 + rng.random((n, n)))
        p = LameField(lam, mu)
        u = forward_solve(p, bc)
        dl = ScalarGrid(n, n, rng.standard_normal((n, n)))
        dm = ScalarGrid(n, n, rng.standard_normal((n, n)))
        w = VectorGrid(n, n, rng.standard_normal((n, n, 2)))
        fh = frechet_apply(p, u, dl, dm, bc)
        gl, gm = frechet_adjoint(p, u, w, bc)
        lhs = field_inner(fh.data, w.data)
        rhs = field_inner(dl.data, gl.data) + field_inner(dm.data, gm.data)
        denom = np.linalg.norm(fh.data) * np.linalg.norm(w.data)
        worst = max(worst, abs(lhs - rhs) / max(denom, 1e-30))
    report(8, worst <= 1e-9,
           f"adjoint identity at 32x32, 20 trials, worst = {worst:.2e}")


def test_criterion_09_inversion_exact_data():
    spec = PhantomSpec(kind="inclusion", nx=100, ny=100, bubble_count=50,
                       compression_px=10.0, inclusion_radius=15.0,
                       seed=INCLUSION_SEED)
    lame, bc, u_true, *_ = make_inclusion_phantom(spec)
    mask = boundary_band_mask(100, 100, 6)
    cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                          stepsize="steepest", stopping="manual",
                          max_iter=100, boundary_mask=mask)
    rec, trace = nesterov_iterate(cfg, u_true, bc)
    interior = inclusion_interior_mask(spec)
    mu_t = lame.mu.data[interior].mean()
    e_t = young_modulus(lame).data[interior].mean()
    mu_r = rec.mu.data[interior].mean()
    e_r = young_modulus(rec).data[interior].mean()
    mu_err = abs(mu_r - mu_t) / mu_t
    e_err = abs(e_r - e_t) / e_t
    ok = mu_err <= 0.20 and e_err <= 0.20
    report(9, ok, f"exact-data inversion: mu {mu_r:.2f}/{mu_t:.2f} "
                  f"({mu_err:.1%}), E {e_r:.2f}/{e_t:.2f} ({e_err:.1%}), "
                  f"bounds 20%")


def test_criterion_10_inversion_estimated_data(inclusion_bundle):
    spec, lame, bc, u_true, _, _, _, u_est = inclusion_bundle
    mask = boundary_band_mask(spec.nx, spec.ny, 10)
    # noisy data: early stopping regularizes; index fixed by residual
    # monitoring, as in manual-stopping practice
    cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                          stepsize="steepest", stopping="manual",
                          max_iter=40, boundary_mask=mask)
    rec, trace = nesterov_iterate(cfg, u_est, bc)
    interior = inclusion_interior_mask(spec)
    mu_t = lame.mu.data[interior].mean()
    e_t = young_modulus(lame).data[interior].mean()
    mu_r = rec.mu.data[interior].mean()
    e_r = young_modulus(rec).data[interior].mean()
    mu_err = abs(mu_r - mu_t) / mu_t
    e_err = abs(e_r - e_t) / e_t
    ok = mu_err <= 0.30 and e_err <= 0.30
    report(10, ok, f"estimated-data inversion: mu {mu_r:.2f}/{mu_t:.2f} "
                   f"({mu_err:.1%}), E {e_r:.2f}/{e_t:.2f} ({e_err:.1%}), "
                   f"bounds 30%")


def test_criterion_11_nesterov_degeneration():
    worst = 0.0
    for seed in range(5):
        spec = PhantomSpec(kind="inclusion", nx=16, ny=16, bubble_count=3,
                           bubble_sigma_min=1.0, bubble_sigma_max=1.3,
                           compression_px=2.0, inclusion_radius=3.0,
                           seed=seed, margin=3)
        lame, bc, u_true, *_ = make_inclusion_phantom(spec)
        steps = 6
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=False,
                              stopping="manual", max_iter=steps)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        p = cfg.initial_for(16, 16)
        for k in range(steps):
            p, omega, rnorm = landweber_step(p, u_true, bc, cfg)
            worst = max(worst,
                        abs(trace.residuals[k] - rnorm) / max(rnorm, 1e-30),
                        abs(trace.stepsizes[k] - omega) / max(omega, 1e-30))
        worst = max(worst, float(np.abs(result.mu.data - p.mu.data).max()))
    report(11, worst <= 1e-12,
           f"acceleration off vs plain Landweber, 5 phantoms, worst dev = {worst:.2e}")


def test_criterion_12_speckle_pipeline_recall():
    spec = PhantomSpec(kind="inclusion", nx=200, ny=200, bubble_count=200,
                       compression_px=6.0, inclusion_radius=30.0, seed=11,
                       margin=8)
    lame, bc, u_true, i1, i2, samples = make_inclusion_phantom(spec)
    crit = MatchCriteria(d_max=8.0)
    v1 = Volume.from_array(i1.data)
    v2 = Volume.from_array(i2.data)
    tracked = run_tracking(v1, v2, crit, top_fraction=0.08, presmooth_sigma=0.9)

    good = 0
    for s in tracked:
        truth = bilinear_sample(u_true.data, np.array([s.position[0]]),
                                np.array([s.position[1]]))[0]
        if np.linalg.norm(s.displacement[:2] - truth) <= 0.5:
            good += 1
    recall_ok = good >= 0.9 * len(samples)

    # re-derive the matched pairs and recheck every inequality independently
    b1, g1 = detect(v1, crit, 0.08, 0.9)
    b2, g2 = detect(v2, crit, 0.08, 0.9)
    pairs = match_bubbles(b1, b2, g1, g2, crit, two_d=True)
    by_pos = {tuple(np.round(b.centroid[:2], 9)): b for b in b1}
    by_end = {tuple(np.round(b.centroid[:2], 9)): b for b in b2}
    recheck_ok = len(pairs) == len(tracked)
    for s in pairs:
        a = by_pos[tuple(np.round(s.position, 9))]
        b = by_end[tuple(np.round(s.position + s.displacement, 9))]
        eps = crit.epsilon_small if a.voxel_volume < crit.volume_split \
            else crit.epsilon_large
        d_ab = float(np.linalg.norm(b.centroid - a.centroid))
        d_oa = abs(a.centroid[0] - g1.center_xy[0])
        d_ob = abs(b.centroid[0] - g2.center_xy[0])
        alpha = math.acos(max(-1.0, min(1.0, (a.centroid[1] - b.centroid[1]) / d_ab)))
        checks = (abs(a.voxel_volume - b.voxel_volume) < eps
                  and 0.0 < d_ab <= crit.d_max
                  and d_oa <= d_ob
                  and b.centroid[1] < a.centroid[1]
                  and crit.alpha_min <= alpha <= crit.alpha_max)
        recheck_ok = recheck_ok and checks
    ok = recall_ok and recheck_ok
    report(12, ok, f"{good}/{len(samples)} bubbles recovered within 0.5 px "
                   f"(need >= 90%); all {len(pairs)} matches pass the "
                   f"inequality recheck: {recheck_ok}")
