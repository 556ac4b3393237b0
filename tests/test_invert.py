import math
from pathlib import Path

import numpy as np
import pytest

from speckleflow import linsolve
from speckleflow.config import finite_float, read_table
from speckleflow.elastic import ElasticModel, LameField, MU_FLOOR, forward_solve
from speckleflow.errors import DomainError, FormatError, ShapeMismatch
from speckleflow.grids import ScalarGrid, VectorGrid, write_f64grid
from speckleflow.invert import (InversionConfig, IterationTrace,
                                boundary_band_mask, field_error, field_norm,
                                landweber_step, nesterov_alpha, nesterov_iterate,
                                stop_heuristic, write_trace_csv)
from speckleflow.phantom import PhantomSpec, make_inclusion_phantom

DATA = Path(__file__).parent / "data"


def read_trace(path) -> IterationTrace:
    """The trace CSV at `path` as the README lays it out: an integer k and a
    finite residual on each row; the heuristic is recomputed."""
    trace = IterationTrace()
    for k, r, s, _ in read_table(path, "k,residual,stepsize,heuristic",
                                 (int, finite_float, float, float)):
        trace.append(k, r, s)
    return trace


def small_phantom(seed=0, n=24):
    spec = PhantomSpec(kind="inclusion", nx=n, ny=n, bubble_count=3,
                       bubble_sigma_min=1.0, bubble_sigma_max=1.3,
                       compression_px=2.0, inclusion_radius=n / 6.0,
                       seed=seed, margin=3)
    return make_inclusion_phantom(spec)


def reference_accelerated_run(cfg, udelta, bc, steps):
    """The accelerated loop with a factorization at every iterate and every
    extrapolated point.  Returns (residuals, stepsizes, last iterate)."""
    prev = p = cfg.initial_for(udelta.nx, udelta.ny)
    residuals, stepsizes = [], []
    for k in range(steps + 1):
        u = forward_solve(p, bc)
        residuals.append(field_norm(u.data - udelta.data))
        if k == steps:
            break
        alpha = nesterov_alpha(k + 1)
        lam = np.maximum(p.lam.data + alpha * (p.lam.data - prev.lam.data), 0.0)
        mu = np.maximum(p.mu.data + alpha * (p.mu.data - prev.mu.data), MU_FLOOR)
        bar = LameField(ScalarGrid(udelta.nx, udelta.ny, lam),
                        ScalarGrid(udelta.nx, udelta.ny, mu))
        new, omega, _ = landweber_step(bar, udelta, bc, cfg)
        stepsizes.append(omega)
        prev, p = p, new
    return residuals, stepsizes, p


def count_factorizations(monkeypatch) -> list:
    calls = []
    factorize = ElasticModel.factorize

    def counted(self, p):
        calls.append(p)
        return factorize(self, p)

    monkeypatch.setattr(ElasticModel, "factorize", counted)
    return calls


class TestLandweberStep:
    def test_fixed_point_at_exact_data(self):
        lame, bc, u_true, *_ = small_phantom(1)
        cfg = InversionConfig(stopping="manual", max_iter=1)
        p0 = LameField(ScalarGrid(lame.lam.nx, lame.lam.ny, lame.lam.data.copy()),
                       ScalarGrid(lame.mu.nx, lame.mu.ny, lame.mu.data.copy()))
        out, omega, rnorm = landweber_step(p0, u_true, bc, cfg)
        assert rnorm <= 1e-9
        np.testing.assert_allclose(out.lam.data, p0.lam.data, atol=1e-8)
        np.testing.assert_allclose(out.mu.data, p0.mu.data, atol=1e-8)

    def test_first_step_reduces_residual(self):
        lame, bc, u_true, *_ = small_phantom(2)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, stopping="manual",
                              max_iter=1, boundary_mask=None)
        p0 = cfg.initial_for(u_true.nx, u_true.ny)
        p1, omega, r0 = landweber_step(p0, u_true, bc, cfg)
        assert omega > 0
        _, _, r1 = landweber_step(p1, u_true, bc, cfg)
        assert r1 < r0

    def test_masked_pixels_bit_identical(self):
        lame, bc, u_true, *_ = small_phantom(3)
        n = u_true.nx
        mask = boundary_band_mask(n, n, 3)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, boundary_mask=mask,
                              stopping="manual", max_iter=1)
        p = cfg.initial_for(n, n)
        frozen = mask.data.astype(bool)
        lam0 = p.lam.data.copy()
        mu0 = p.mu.data.copy()
        for _ in range(10):
            p, _, _ = landweber_step(p, u_true, bc, cfg)
        np.testing.assert_array_equal(p.lam.data[frozen], lam0[frozen])
        np.testing.assert_array_equal(p.mu.data[frozen], mu0[frozen])

    def test_iterates_stay_admissible(self):
        lame, bc, u_true, *_ = small_phantom(4)
        cfg = InversionConfig(lambda0=1.0, mu0=1.0, stepsize="constant",
                              omega=50.0, stopping="manual", max_iter=1)
        p = cfg.initial_for(u_true.nx, u_true.ny)
        for _ in range(5):
            p, _, _ = landweber_step(p, u_true, bc, cfg)
            assert np.all(p.lam.data >= 0.0)
            assert np.all(p.mu.data >= MU_FLOOR)


class TestNesterov:
    def test_alpha_values(self):
        assert nesterov_alpha(1) == 0.0
        assert nesterov_alpha(8) == pytest.approx(0.7, abs=1e-15)
        assert nesterov_alpha(2) == pytest.approx(0.25, abs=1e-15)

    def test_first_accelerated_step_is_plain(self):
        lame, bc, u_true, *_ = small_phantom(5)
        n = u_true.nx
        cfg_acc = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                                  stopping="manual", max_iter=1)
        cfg_plain = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=False,
                                    stopping="manual", max_iter=1)
        r_acc, _ = nesterov_iterate(cfg_acc, u_true, bc)
        r_plain, _ = nesterov_iterate(cfg_plain, u_true, bc)
        np.testing.assert_array_equal(r_acc.lam.data, r_plain.lam.data)
        np.testing.assert_array_equal(r_acc.mu.data, r_plain.mu.data)

    def test_acceleration_off_matches_reference_loop(self):
        for seed in range(5):
            lame, bc, u_true, *_ = small_phantom(seed + 10, n=16)
            n = u_true.nx
            steps = 6
            cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=False,
                                  stopping="manual", max_iter=steps)
            result, trace = nesterov_iterate(cfg, u_true, bc)

            p = cfg.initial_for(n, n)
            ref_res, ref_steps = [], []
            for _ in range(steps):
                p, omega, rnorm = landweber_step(p, u_true, bc, cfg)
                ref_res.append(rnorm)
                ref_steps.append(omega)
            np.testing.assert_allclose(trace.residuals[:steps], ref_res,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(trace.stepsizes[:steps], ref_steps,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(result.mu.data, p.mu.data,
                                       rtol=1e-12, atol=1e-12)

    def test_accelerated_run_matches_pinned_reference(self, monkeypatch):
        # criterion 11's phantom (seed 0) with acceleration on, pinned to a
        # stored trace and final iterate
        spec = PhantomSpec(kind="inclusion", nx=16, ny=16, bubble_count=3,
                           bubble_sigma_min=1.0, bubble_sigma_max=1.3,
                           compression_px=2.0, inclusion_radius=3.0,
                           seed=0, margin=3)
        lame, bc, u_true, *_ = make_inclusion_phantom(spec)
        calls = count_factorizations(monkeypatch)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                              stopping="manual", max_iter=6)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        ref = np.load(DATA / "nesterov_accelerated_16.npz")
        np.testing.assert_allclose(trace.residuals, ref["residuals"], rtol=1e-12)
        np.testing.assert_allclose(trace.stepsizes, ref["stepsizes"], rtol=1e-12)
        np.testing.assert_allclose(result.lam.data, ref["lam"], rtol=1e-12)
        np.testing.assert_allclose(result.mu.data, ref["mu"], rtol=1e-12)
        assert (trace.stopped_by, trace.k_star) == ("manual", 6)
        # one factorization per step: step 1 at the iterate, steps 2..6 at
        # the extrapolated point; the iterates past the first get their
        # residuals from CG preconditioned with that factor
        assert len(calls) == 6

    @pytest.mark.parametrize("seed, n", [(30, 16), (31, 18), (32, 20),
                                         (33, 22), (34, 24)])
    def test_accelerated_run_matches_reference_loop(self, seed, n):
        # the iterates' residuals come from CG preconditioned with the
        # extrapolated point's factor; every step is taken as before
        lame, bc, u_true, *_ = small_phantom(seed, n=n)
        steps = 6
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                              stopping="manual", max_iter=steps)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        ref_res, ref_steps, p = reference_accelerated_run(cfg, u_true, bc, steps)
        np.testing.assert_allclose(trace.residuals, ref_res, rtol=1e-12)
        np.testing.assert_array_equal(trace.stepsizes[:steps], ref_steps)
        np.testing.assert_array_equal(result.lam.data, p.lam.data)
        np.testing.assert_array_equal(result.mu.data, p.mu.data)

    def test_cg_at_its_cap_falls_back_to_factorizing(self, monkeypatch):
        lame, bc, u_true, *_ = small_phantom(30, n=16)
        steps = 6
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                              stopping="manual", max_iter=steps)
        monkeypatch.setattr(linsolve, "_CG_MAX_ITER", 0)
        calls = count_factorizations(monkeypatch)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        # every iterate past the first is factorized afresh, as without CG
        assert len(calls) == 2 * steps
        ref_res, ref_steps, p = reference_accelerated_run(cfg, u_true, bc, steps)
        np.testing.assert_array_equal(trace.residuals, ref_res)
        np.testing.assert_array_equal(trace.stepsizes[:steps], ref_steps)
        np.testing.assert_array_equal(result.mu.data, p.mu.data)

    @pytest.mark.parametrize("seed, n", [(35, 32), (36, 48)])
    def test_cg_on_the_extrapolated_factor_never_gives_up(self, monkeypatch, seed, n):
        # each iterate's solve converges in a handful of iterations, so cg
        # never gives up early and no iterate is factorized afresh
        lame, bc, u_true, *_ = small_phantom(seed, n=n)
        steps = 8
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=True,
                              stopping="manual", max_iter=steps)
        calls = count_factorizations(monkeypatch)
        nesterov_iterate(cfg, u_true, bc)
        assert len(calls) == steps

    def test_monotone_residuals_exact_data(self):
        # steepest descent on exact data: residual non-increasing
        for seed in range(5):
            lame, bc, u_true, *_ = small_phantom(seed + 20, n=16)
            cfg = InversionConfig(lambda0=490.0, mu0=10.0, acceleration=False,
                                  stopping="manual", max_iter=50)
            _, trace = nesterov_iterate(cfg, u_true, bc)
            r = np.array(trace.residuals)
            assert np.all(r[1:] <= r[:-1] + 1e-9 * r[0])

    def test_discrepancy_stopping(self):
        lame, bc, u_true, *_ = small_phantom(6, n=16)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, tau=1.5, delta=0.05,
                              stopping="discrepancy", max_iter=100)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        assert trace.stopped_by == "discrepancy"
        # the first iterate within tau * delta, and the run ends there
        assert trace.k_star > 0
        assert trace.residuals[trace.k_star] <= 1.5 * 0.05
        assert min(trace.residuals[:trace.k_star]) > 1.5 * 0.05
        assert len(trace) == trace.k_star + 1

    def test_discrepancy_zero_delta_stops_at_exact_start(self):
        # data made at the initial guess: its residual is 0 <= tau * 0
        _, bc, *_ = small_phantom(6, n=16)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, tau=1.5, delta=0.0,
                              stopping="discrepancy", max_iter=5)
        udelta = forward_solve(cfg.initial_for(16, 16), bc)
        result, trace = nesterov_iterate(cfg, udelta, bc)
        assert (trace.stopped_by, trace.k_star, trace.residuals) == ("discrepancy", 0, [0.0])
        np.testing.assert_array_equal(result.mu.data, 10.0)

    def test_max_iter_flag_and_best_so_far(self):
        lame, bc, u_true, *_ = small_phantom(7, n=16)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, tau=1.5, delta=1e-12,
                              stopping="discrepancy", max_iter=3)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        assert trace.stopped_by == "max_iter"
        assert trace.k_star == int(np.argmin(trace.residuals))


class TestStoppingRules:
    def _trace(self, residuals, ks=None):
        t = IterationTrace()
        for i, r in enumerate(residuals):
            t.append(i if ks is None else ks[i], r, 1.0)
        return t

    def test_heuristic_example(self):
        t = self._trace([10.0, 1.0, 1.0, 1.0], ks=[1, 2, 3, 4])
        assert stop_heuristic(t) == 2

    def test_heuristic_single_entry(self):
        t = self._trace([3.0], ks=[1])
        assert stop_heuristic(t) == 1

    def test_heuristic_constant_residuals(self):
        t = self._trace([2.0, 2.0, 2.0, 2.0], ks=[1, 2, 3, 4])
        assert stop_heuristic(t) == 1

    def test_heuristic_skips_k_zero(self):
        t = self._trace([0.5, 10.0, 9.0], ks=[0, 1, 2])
        assert stop_heuristic(t) == 1


class TestFieldError:
    def test_identical(self):
        u = VectorGrid(4, 4, np.random.default_rng(0).standard_normal((4, 4, 2)))
        assert field_error(u, u) == (0.0, 0.0, 0.0)

    def test_scaling(self):
        u = VectorGrid(4, 4, np.random.default_rng(1).standard_normal((4, 4, 2)))
        v = VectorGrid(4, 4, 1.1 * u.data)
        tot, ex, ey = field_error(v, u)
        assert tot == pytest.approx(0.1, rel=1e-12)
        assert ex == pytest.approx(0.1, rel=1e-12)

    def test_matches_hand_computed_norms(self):
        rng = np.random.default_rng(2)
        a = VectorGrid(5, 3, rng.standard_normal((3, 5, 2)))
        b = VectorGrid(5, 3, rng.standard_normal((3, 5, 2)))
        tot, ex, ey = field_error(a, b)
        d = a.data - b.data
        assert tot == pytest.approx(np.linalg.norm(d) / np.linalg.norm(b.data),
                                    rel=1e-12)
        assert ex == pytest.approx(np.linalg.norm(d[:, :, 0])
                                   / np.linalg.norm(b.data[:, :, 0]), rel=1e-12)

    def test_zero_truth_rejected(self):
        u = VectorGrid.zeros(3, 3)
        v = VectorGrid(3, 3, np.ones((3, 3, 2)))
        with pytest.raises(DomainError):
            field_error(v, u)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeMismatch):
            field_error(VectorGrid.zeros(3, 3), VectorGrid.zeros(4, 3))


class TestConfigAndTrace:
    def test_mask_extents_checked(self):
        _, bc, u_true, *_ = small_phantom(1)
        cfg = InversionConfig(boundary_mask=boundary_band_mask(6, 5, 1))
        with pytest.raises(ShapeMismatch, match="^boundary mask extents 6x5 differ "
                                                "from the data grid 24x24$"):
            nesterov_iterate(cfg, u_true, bc)

    def test_config_parsing(self, tmp_path):
        path = tmp_path / "inv.cfg"
        path.write_text("tau = 1.5\ndelta = 0.1\nmax_iter = 50\n"
                        "acceleration = true\nstepsize = constant(2.5)\n"
                        "stopping = manual(12)\nlambda0 = 490\nmu0 = 10\n")
        cfg = InversionConfig.from_config(path)
        assert cfg.stepsize == "constant" and cfg.omega == 2.5
        assert cfg.stopping == "manual" and cfg.max_iter == 12
        assert cfg.acceleration is True

    def test_max_iter_zero_allowed_negative_rejected(self):
        assert InversionConfig(stopping="discrepancy", max_iter=0).max_iter == 0
        with pytest.raises(DomainError, match="^max_iter must be nonnegative$"):
            InversionConfig(max_iter=-1)

    def test_mask_file_loaded_by_reader(self, tmp_path, monkeypatch):
        # mask_file is relative to the working directory, not to the config
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "inv.cfg"
        path.write_text("mask_file = m.f64grid\n")
        mask = boundary_band_mask(6, 6, 1)
        write_f64grid(tmp_path / "m.f64grid", mask)
        cfg = InversionConfig.from_config(path)
        np.testing.assert_array_equal(cfg.boundary_mask.data, mask.data)
        write_f64grid(tmp_path / "m.f64grid", VectorGrid.zeros(6, 6))
        with pytest.raises(FormatError, match=f"^{path}: mask_file"):
            InversionConfig.from_config(path)

    @pytest.mark.parametrize("line", ["omega = 2", "manual_k = 3"])
    def test_derived_fields_are_not_keys(self, tmp_path, line):
        path = tmp_path / "inv.cfg"
        path.write_text(line + "\n")
        with pytest.raises(FormatError):
            InversionConfig.from_config(path)

    def test_invalid_stepsize_rejected(self):
        with pytest.raises(DomainError):
            InversionConfig(stepsize="bogus")

    @pytest.mark.parametrize("omega", [-1.0, 0.0, math.nan, math.inf])
    def test_constant_stepsize_needs_finite_positive_omega(self, omega):
        # omega = -1 ascended the residual and omega = 0 never moved
        with pytest.raises(DomainError):
            InversionConfig(stepsize="constant", omega=omega)
        InversionConfig(stepsize="steepest", omega=omega)  # omega unused

    def test_tau_validation_for_discrepancy(self):
        with pytest.raises(DomainError):
            InversionConfig(stopping="discrepancy", tau=0.9)

    @pytest.mark.parametrize("name, value", [
        ("lambda0", -1.0), ("lambda0", math.nan), ("mu0", 0.0), ("mu0", math.inf),
        ("tau", math.nan), ("delta", math.nan), ("delta", math.inf)])
    def test_start_point_and_discrepancy_values_checked(self, name, value):
        # a nan delta or tau compared false and ran to max_iter; mu0 = 0
        # failed only inside the iteration
        with pytest.raises(DomainError, match=name):
            InversionConfig(stopping="discrepancy", **{name: value})
        InversionConfig(stopping="discrepancy", lambda0=0.0, mu0=MU_FLOOR)

    def test_trace_csv_roundtrip(self, tmp_path):
        t = IterationTrace()
        for k, r in enumerate([5.0, 3.0, 2.0]):
            t.append(k, r, 0.5 * (k + 1))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, t)
        assert path.read_text().splitlines()[0] == "k,residual,stepsize,heuristic"
        back = read_trace(path)
        assert back.ks == t.ks
        assert back.residuals == t.residuals
        assert back.stepsizes == t.stepsizes

    @pytest.mark.parametrize("row", ["1,nan,0.5,1", "1,inf,0.5,1", "1,2,0.5,x",
                                     "1.5,2,0.5,1", "1,2,0.5"])
    def test_trace_csv_bad_row_names_line(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"k,residual,stepsize,heuristic\n0,3,0.5,inf\n\n{row}\n2,1,nan,1.4\n")
        with pytest.raises(FormatError) as err:
            read_trace(path)
        assert str(err.value).startswith(f"{path}:4:")
        path.write_text("k,residual,stepsize,heuristic\n0,3,0.5,inf\n\n2,1,nan,1.4\n")
        assert read_trace(path).ks == [0, 2]

    def test_trace_csv_not_utf8(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"k,residual,stepsize,heuristic\n0,\xff,1,1\n")
        with pytest.raises(FormatError, match="not a UTF-8 text file"):
            read_trace(path)

    def test_printed_stepsize_variant_runs(self):
        lame, bc, u_true, *_ = small_phantom(8, n=16)
        cfg = InversionConfig(lambda0=490.0, mu0=10.0, stepsize="printed",
                              acceleration=False, stopping="manual",
                              max_iter=3)
        result, trace = nesterov_iterate(cfg, u_true, bc)
        assert trace.residuals[1] < trace.residuals[0]
