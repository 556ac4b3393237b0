import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse.linalg as spla

from speckleflow import cli
from speckleflow.cli import main, read_lame_dir, write_lame_dir, write_pgm
from speckleflow.config import read_config, read_table
from speckleflow.elastic import LameField, write_bc_config
from speckleflow.errors import FormatError
from speckleflow.flow import FlowParams
from speckleflow.grids import ScalarGrid, VectorGrid, Volume, read_f64grid, write_f64grid
from speckleflow.invert import boundary_band_mask
from speckleflow.linsolve import GridFactor
from speckleflow.phantom import PhantomSpec, make_inclusion_phantom
from speckleflow.speckle import read_samples_csv


def write_inclusion_spec(path, n=48, bubbles=20, compression=3.0, radius=8.0,
                         seed=13):
    path.write_text(
        f"kind = inclusion\nnx = {n}\nny = {n}\nbubble_count = {bubbles}\n"
        f"seed = {seed}\ncompression_px = {compression}\n"
        f"inclusion_radius = {radius}\nmu_inc = 20\n")


class TestEval:
    def test_identical_fields_print_zeros(self, tmp_path, capsys):
        u = VectorGrid(5, 5, np.random.default_rng(0).standard_normal((5, 5, 2)))
        f = tmp_path / "u.f64grid"
        write_f64grid(f, u)
        assert main(["eval", "--est", str(f), "--truth", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "0,0,0"

    @pytest.mark.parametrize("est, truth, error", [
        (1e200, 1.0, 1e200), (1.0, 1e200, 1.0), (1.0, 1e-200, 1e200),
        (1e300, 1e-300, math.inf)])
    @pytest.mark.filterwarnings("error")
    def test_norms_beyond_the_squares_range_are_exact(self, tmp_path, capsys, est, truth,
                                                       error):
        # the squares of these entries leave the float64 range; their norms do
        # not, and only the last ratio does
        for name, value in (("est", est), ("truth", truth)):
            write_f64grid(tmp_path / f"{name}.f64grid", VectorGrid(8, 8, np.full((8, 8, 2), value)))
        assert main(["eval", "--est", str(tmp_path / "est.f64grid"),
                     "--truth", str(tmp_path / "truth.f64grid")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = [float(v) for v in captured.out.strip().split(",")]
        assert got == pytest.approx([error] * 3, rel=1e-12)


    @pytest.mark.filterwarnings("error")
    def test_difference_beyond_the_float64_range_is_exact(self, tmp_path, capsys):
        # est - truth = 3.4e308 leaves the float64 range; the relative error is 2
        for name, value in (("est", 1.7e308), ("truth", -1.7e308)):
            write_f64grid(tmp_path / f"{name}.f64grid", VectorGrid(8, 8, np.full((8, 8, 2), value)))
        assert main(["eval", "--est", str(tmp_path / "est.f64grid"),
                     "--truth", str(tmp_path / "truth.f64grid")]) == 0
        assert capsys.readouterr() == ("2,2,2\n", "")


def decode_pgm(path, w, h) -> np.ndarray:
    """The (h, w) bytes of an 8-bit binary PGM as `write_pgm` lays it out."""
    raw = path.read_bytes()
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    assert raw[:len(header)] == header
    assert len(raw) == len(header) + w * h
    return np.frombuffer(raw, dtype=np.uint8, offset=len(header)).reshape(h, w)


class TestRender:
    def test_constant_field_uniform_pgm(self, tmp_path):
        g = ScalarGrid(6, 4, np.full((4, 6), 3.0))
        f = tmp_path / "g.f64grid"
        write_f64grid(f, g)
        out = tmp_path / "img.pgm"
        assert main(["render", "--in", str(f), "--out", str(out)]) == 0
        img = decode_pgm(out, 6, 4)
        assert np.unique(img).size == 1
        assert (tmp_path / "img.pgm.quiver.csv").exists()

    def test_vector_field_quiver(self, tmp_path):
        v = VectorGrid(32, 32, np.random.default_rng(1).standard_normal((32, 32, 2)))
        f = tmp_path / "v.f64grid"
        write_f64grid(f, v)
        out = tmp_path / "v.pgm"
        assert main(["render", "--in", str(f), "--out", str(out)]) == 0
        quiver = (tmp_path / "v.pgm.quiver.csv").read_text().splitlines()
        assert quiver[0] == "x,y,ux,uy"
        assert len(quiver) > 1

    def test_pgm_roundtrip(self, tmp_path):
        vals = np.random.default_rng(2).integers(0, 256, (7, 9)) / 255.0
        path = tmp_path / "x.pgm"
        write_pgm(path, vals)
        back = decode_pgm(path, 9, 7) / 255.0
        scaled = (vals - vals.min()) / (vals.max() - vals.min())
        np.testing.assert_allclose(back, scaled, atol=0.5 / 255.0 + 1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_magnitude_is_named(self, tmp_path, capsys):
        data = np.zeros((8, 8, 2))
        data[3, 4] = 1.7e308
        write_f64grid(tmp_path / "v.f64grid", VectorGrid(8, 8, data))
        out = tmp_path / "v.pgm"
        assert main(["render", "--in", str(tmp_path / "v.f64grid"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: displacement magnitude overflows the float64 range\n")
        assert not out.exists()


class TestExitCodes:
    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["eval", "--est", str(tmp_path / "nope.f64grid"),
                   "--truth", str(tmp_path / "nope.f64grid")])
        assert rc == 2
        assert "missing file" in capsys.readouterr().err

    def test_unreadable_path_is_runtime_error(self, tmp_path, capsys):
        rc = main(["render", "--in", str(tmp_path), "--out", str(tmp_path / "r.pgm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_vector_volume_f64grid_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.f64grid"
        bad.write_bytes(b"F64GRID 2 3 3 2\n" + b"\x00" * (8 * 36))
        # a one-pixel-high frame reads, but has no gradient across it
        thin = tmp_path / "thin.f64grid"
        write_f64grid(thin, ScalarGrid(5, 1, np.arange(5.0)))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("alpha = 1\n")
        for argv, message in (
                (["render", "--in", str(bad), "--out", str(tmp_path / "r.pgm")],
                 "inadmissible extents"),
                (["eval", "--est", str(bad), "--truth", str(bad)], "inadmissible extents"),
                (["flow", "--i1", str(thin), "--i2", str(thin), "--config", str(cfg),
                  "--out", str(tmp_path / "u.f64grid")], "at least 2x2 pixels, got 5x1")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command, message", [
        ("flow", "flow needs frames of at least 2x2 pixels, got 5x1"),
        ("forward", "elasticity needs at least a 2x2 grid"),
        ("invert", "elasticity needs at least a 2x2 grid"),
    ], ids=["flow", "forward", "invert"])
    def test_grid_below_2x2_is_not_blamed_on_an_input_file(self, tmp_path, capsys,
                                                          command, message):
        # the pyramid and BC checks would also fail here; the grid comes first
        thin = tmp_path / "thin.f64grid"
        write_f64grid(thin, ScalarGrid(5, 1, np.arange(5.0)))
        data = tmp_path / "u.f64grid"
        write_f64grid(data, VectorGrid.zeros(5, 1))
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(5, 1, 1.0, 1.0))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet left ux 0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels = 3\n" if command == "flow" else "")
        argv = {
            "flow": ["--i1", str(thin), "--i2", str(thin), "--config", str(cfg)],
            "forward": ["--lame", str(lame), "--bc", str(bc)],
            "invert": ["--data", str(data), "--bc", str(bc), "--config", str(cfg)],
        }[command]
        assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["eval", "--bogus", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_malformed_f64grid_names_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.f64grid"
        bad.write_bytes(b"F64GRID 1 4 4 1\n" + b"\x00" * 10)
        rc = main(["eval", "--est", str(bad), "--truth", str(bad)])
        assert rc == 2
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("synth", "kind = inclusion\ninclusion_cx = 20\n"),
        ("track", "d_max = far\n"),
        ("flow", "levels = five\n"),
        ("flow", "F64GRID 1 1 1 1\n\xff\n"),
        ("invert", "stepsize = constant(abc)\n"),
        ("synth", "noise_rel = inf\n"),
        ("track", "d_max = nan\n"),
        ("flow", "alpha = nan\n"),
        ("invert", "stopping = discrepancy\ntau = nan\n"),
        ("invert", "stepsize = constant(nan)\n"),
        ("invert", "stepsize = constant(-1)\n"),
        ("invert", "stepsize = constant(0)\n"),
        ("synth", "margin = -1\n"),
        ("track", "d_max = -1\n"),
        ("track", "top_fraction = 1.5\n"),
        ("flow", "levels = 0\n"),
        ("flow", "solver = direct\n"),
        ("flow", "tol = 1e-8\n"),
        ("invert", "mu0 = 0\n"),
        ("flow", "alpha 1\n"),
        ("flow", "alpha = 1\nalpha = 2\n"),
    ], ids=["synth", "track", "flow", "flow-binary", "invert", "synth-inf",
            "track-nan", "flow-nan", "invert-nan", "invert-omega-nan",
            "invert-omega-negative", "invert-omega-zero", "synth-margin-negative",
            "track-d_max-negative", "track-top_fraction-above-1",
            "flow-levels-zero", "flow-removed-solver", "flow-removed-tol",
            "invert-mu0-zero", "flow-no-equals", "flow-duplicate-key"])
    def test_bad_config_value_is_runtime_error(self, tmp_path, capsys,
                                               command, text):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(8, 8, np.eye(8)))
        data = tmp_path / "u.f64grid"
        write_f64grid(data, VectorGrid.zeros(8, 8))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet bottom both 0\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text.encode("latin-1"))
        out = str(tmp_path / "out")
        argv = {
            "synth": ["--spec", str(cfg)],
            "track": ["--a", str(image), "--b", str(image), "--config", str(cfg)],
            "flow": ["--i1", str(image), "--i2", str(image), "--config", str(cfg)],
            "invert": ["--data", str(data), "--bc", str(bc), "--config", str(cfg)],
        }[command]
        assert main([command, *argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cfg) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("alpha 1\n", ":1: expected 'key = value'"),
        ("alpha = 1\nalpha = 2\n", ":2: duplicate key 'alpha'")])
    def test_config_line_errors_name_the_line(self, tmp_path, text, message):
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(text)
        with pytest.raises(FormatError) as info:
            read_config(cfg, "flow", FlowParams)
        assert str(info.value) == f"{cfg}{message}"

    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 GiB for an array"],
                             ids=["bare", "with-message"])
    def test_out_of_memory_is_runtime_error(self, tmp_path, capsys, monkeypatch, message):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(8, 8, np.eye(8)))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("alpha = 1\n")

        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.flowmod, "multiscale_flow", exhausted)
        rc = main(["flow", "--i1", str(image), "--i2", str(image), "--config", str(cfg),
                   "--out", str(tmp_path / "u.f64grid")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("failure", [MemoryError(), RuntimeError(
        "Not enough memory to perform factorization.")], ids=["memory-error", "superlu"])
    @pytest.mark.parametrize("command", ["forward", "flow"])
    def test_factorization_out_of_memory_is_runtime_error(self, tmp_path, capsys,
                                                          monkeypatch, command, failure):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(12, 10, np.random.default_rng(3).random((10, 12))))
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(12, 10, 1.0, 1.0))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet bottom both 0\ntraction top 0.3 -1\n")
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("alpha = 1\n")
        calls = []

        def exhausted(*args, **kwargs):
            calls.append(args)
            raise failure

        monkeypatch.setattr(spla, "splu", exhausted)
        argv = {
            "forward": ["--lame", str(lame), "--bc", str(bc)],
            "flow": ["--i1", str(image), "--i2", str(image), "--config", str(cfg)],
        }[command]
        assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory factorizing") and "nonzeros" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert len(calls) == 1

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_nonfinite_sample_is_runtime_error(self, tmp_path, capsys, value):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(8, 8, np.eye(8)))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("beta = 1\n")
        samples = tmp_path / "s.csv"
        samples.write_text(f"x,y,z,ux,uy,uz\n1,2,0,{value},0,0\n")
        assert main(["flow", "--i1", str(image), "--i2", str(image), "--samples", str(samples),
                     "--config", str(cfg), "--out", str(tmp_path / "u.f64grid")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {samples}:2:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["forward", "invert", "flow"])
    def test_binary_text_input_is_runtime_error(self, tmp_path, capsys, command):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(8, 8, np.eye(8)))
        data = tmp_path / "u.f64grid"
        write_f64grid(data, VectorGrid.zeros(8, 8))
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(8, 8, 1.0, 1.0))
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        binary = tmp_path / "binary.dat"
        binary.write_bytes(b"\xff\xfe\x00\x81 dirichlet\n")
        argv = {
            "forward": ["--lame", str(lame), "--bc", str(binary)],
            "invert": ["--data", str(data), "--bc", str(binary), "--config", str(cfg)],
            "flow": ["--i1", str(image), "--i2", str(image), "--samples", str(binary),
                     "--config", str(cfg)],
        }[command]
        assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {binary}: not a UTF-8 text file")
        assert "Traceback" not in err

    def test_mask_extents_named(self, tmp_path, capsys):
        data = tmp_path / "u.f64grid"
        write_f64grid(data, VectorGrid.zeros(8, 8))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet bottom both 0\ntraction top 0.3 -1\n")
        mask = tmp_path / "m.f64grid"
        write_f64grid(mask, boundary_band_mask(6, 5, 1))
        cfg = tmp_path / "inv.cfg"
        cfg.write_text(f"mask_file = {mask}\n")
        out = tmp_path / "rec"
        assert main(["invert", "--data", str(data), "--bc", str(bc), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: boundary mask extents 6x5 "
                                           f"differ from the data grid 8x8\n")
        assert not out.exists()

    def test_underconstrained_forward_is_runtime_error(self, tmp_path, capsys):
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(12, 10, 1.0, 1.0))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet left ux 0\ntraction top 0.3 -1\n")
        out = tmp_path / "u.f64grid"
        assert main(["forward", "--lame", str(lame), "--bc", str(bc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bc}: Dirichlet boundary leaves a rigid motion free\n"
        assert not out.exists()

    def test_underconstrained_invert_names_bc(self, tmp_path, capsys):
        data = tmp_path / "u.f64grid"
        write_f64grid(data, VectorGrid.zeros(8, 8))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet left ux 0\ntraction top 0.3 -1\n")
        cfg = tmp_path / "inv.cfg"
        cfg.write_text("")
        out = tmp_path / "rec"
        assert main(["invert", "--data", str(data), "--bc", str(bc), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {bc}: Dirichlet boundary leaves "
                                           f"a rigid motion free\n")
        assert not out.exists()

    @pytest.mark.parametrize("mu, message", [
        (ScalarGrid(8, 8, np.zeros((8, 8))), "mu must be at least 1e-06 everywhere"),
        (ScalarGrid(8, 6, np.ones((6, 8))), "lambda and mu extents differ"),
    ], ids=["mu-zero", "extents-differ"])
    def test_invalid_lame_dir_names_dir(self, tmp_path, capsys, mu, message):
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(8, 8, 1.0, 1.0))
        write_f64grid(lame / "mu.f64grid", mu)
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet bottom both 0\ntraction top 0.3 -1\n")
        out = tmp_path / "u.f64grid"
        assert main(["forward", "--lame", str(lame), "--bc", str(bc),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {lame}: {message}\n"
        assert not out.exists()

    def test_pyramid_too_deep_names_config(self, tmp_path, capsys):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(16, 16, np.random.default_rng(4).random((16, 16))))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("levels = 1000000\n")
        out = tmp_path / "u.f64grid"
        assert main(["flow", "--i1", str(image), "--i2", str(image), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: levels = 1000000 downsamples "
                                           f"16x16 frames to 1x1 at level 4, below 2x2\n")
        assert not out.exists()

    def test_pyramid_past_its_smallest_level_names_config(self, tmp_path, capsys):
        # at eta = 0.9, 16x16 frames stop shrinking at 4x4 on level 11, and a
        # million levels would repeat that level for minutes
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(16, 16, np.random.default_rng(4).random((16, 16))))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("levels = 1000000\neta = 0.9\n")
        out = tmp_path / "u.f64grid"
        assert main(["flow", "--i1", str(image), "--i2", str(image), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: levels = 1000000 exceeds 12: "
                                           f"16x16 frames stop shrinking at 4x4 on level 11\n")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e20", "1e300"])
    def test_track_smoothing_wider_than_input_names_config(self, tmp_path, capsys, sigma):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(20, 20, np.random.default_rng(4).random((20, 20))))
        cfg = tmp_path / "track.cfg"
        cfg.write_text(f"presmooth_sigma = {sigma}\n")
        out = tmp_path / "s.csv"
        assert main(["track", "--a", str(image), "--b", str(image), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: smoothing width {float(sigma):g} "
                                           f"exceeds the longest extent 20 it filters\n")
        assert not out.exists()

    def test_flow_smoothing_wider_than_level_names_config(self, tmp_path, capsys):
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(20, 20, np.random.default_rng(4).random((20, 20))))
        cfg = tmp_path / "flow.cfg"
        cfg.write_text("levels = 2\nsigma0 = 1e20\n")
        out = tmp_path / "u.f64grid"
        assert main(["flow", "--i1", str(image), "--i2", str(image), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}: sigma0 = 1e+20 at level 1: "
                                           f"smoothing width 1.73205e+20 exceeds the "
                                           f"longest extent 20 it filters\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("dirichlet middle both 0\n", "unknown side 'middle'"),
        ("traction top 0 -1\n", "at least one Dirichlet side is required"),
        ("dirichlet bottom both 0\ndirichlet top uy -1\ntraction top 0 1\n",
         "side 'top' has both Dirichlet and traction data"),
    ], ids=["unknown-side", "no-dirichlet", "both-kinds"])
    def test_invalid_bc_names_file(self, tmp_path, capsys, text, message):
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(8, 8, 1.0, 1.0))
        bc = tmp_path / "bc.cfg"
        bc.write_text(text)
        out = tmp_path / "u.f64grid"
        assert main(["forward", "--lame", str(lame), "--bc", str(bc),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bc}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("kind = inclusion\nnx = 24\nny = 24\nbubble_count = 3\ninclusion_radius = 20\n",
         "inclusion is not strictly interior"),
        ("kind = moving_squares\nnx = 16\nny = 16\nsquare_size = 48\n",
         "squares do not fit in the grid"),
        ("kind = inclusion\nnx = 24\nny = 24\nbubble_count = 3\ninclusion_radius = 4\n"
         "mu_bg = 0\n", "mu must be at least 1e-06 everywhere"),
        ("kind = inclusion\nnx = 24\nny = 24\nbubble_count = 3\ninclusion_radius = 4\n"
         "seed = -1\n", "seed must be nonnegative"),
        ("kind = moving_squares\nnx = 1000000000000000000000\n",
         "nx x ny = 1000000000000000000000 x 200 exceeds the largest array numpy can index"),
        # twice the shift overflows, so no integer gap between the squares holds it
        ("kind = moving_squares\nsquare_shift = 1e308\n", "squares do not fit in the grid"),
        ("kind = moving_squares\nsquare_shift = -1e308\n", "squares do not fit in the grid"),
        # square A would start past the right edge in frame 1, B before the left
        ("kind = moving_squares\nsquare_shift = -1e18\n", "squares do not fit in the grid"),
        # frame 2's square A would start at column -2, which numpy wraps around
        ("kind = moving_squares\nnx = 50\nny = 50\nsquare_size = 24\nsquare_shift = -3\n"
         "bubble_count = 20\n", "squares do not fit in the grid"),
        # square rows from -4, which numpy wraps around too
        ("kind = moving_squares\nny = 40\nbubble_count = 20\n",
         "squares do not fit in the grid"),
        ("kind = moving_squares\nsquare_shift = -10\n", "squares overlap"),
    ], ids=["inclusion-not-interior", "squares-do-not-fit", "mu_bg-zero", "seed-negative",
            "nx-beyond-numpy", "square-shift-1e308", "square-shift-minus-1e308",
            "square-shift-minus-1e18", "square-shift-wraps", "squares-taller-than-grid",
            "squares-overlap"])
    @pytest.mark.filterwarnings("error")
    def test_spec_failure_names_spec(self, tmp_path, capsys, text, message):
        spec = tmp_path / "spec.cfg"
        spec.write_text(text)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bubbles_that_cannot_fit_fail_at_once(self, tmp_path, capsys):
        # rejection sampling used to retry 1000 times per bubble, and the
        # inclusion's forward solve ran first
        spec = tmp_path / "spec.cfg"
        spec.write_text("kind = inclusion\nnx = 200\nny = 200\nbubble_count = 100000\n")
        start = time.perf_counter()
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (f"error: {spec}: bubble_count = 100000 exceeds "
                                           f"the 1485 bubbles that fit 5.7 pixels apart in "
                                           f"the 189x189 box the margin leaves\n")

    @pytest.mark.parametrize("command, config, message", [
        ("flow", "alpha = 1e308\n", "flow system matrix"),
        ("invert", "lambda0 = 1e308\n", "elastic stiffness"),
        ("invert", "stepsize = constant(1e308)\n", "inversion update at stepsize 1e+308"),
        ("forward", "", "elastic right-hand side"),
        # step 0 leaves a stiffness whose right-hand side passes 1e154, where
        # numpy's norm overflowed inside the next iterate's conjugate gradients
        ("invert", "stepsize = constant(1e300)\n", "elastic solve"),
    ], ids=["flow-alpha", "invert-lambda0", "invert-stepsize", "forward-bc",
            "invert-cg-norm"])
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_named(self, tmp_path, capsys, monkeypatch, command, config,
                               message):
        # a small inclusion phantom; the forward solve presses its top by 1e308 pixels
        lame, bc, u_true, image, _, _ = make_inclusion_phantom(PhantomSpec(
            nx=24, ny=24, bubble_count=3, inclusion_radius=4, compression_px=3))
        write_f64grid(tmp_path / "i.f64grid", image)
        write_f64grid(tmp_path / "u.f64grid", u_true)
        write_lame_dir(tmp_path / "lame", lame)
        write_bc_config(tmp_path / "bc.cfg", bc)
        if command == "forward":
            (tmp_path / "bc.cfg").write_text("dirichlet bottom both 0\ndirichlet top uy 1e308\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + ("stopping = manual(2)\n" if command == "invert" else ""))
        argv = {
            "flow": ["--i1", "i.f64grid", "--i2", "i.f64grid", "--config", "run.cfg"],
            "invert": ["--data", "u.f64grid", "--bc", "bc.cfg", "--config", "run.cfg"],
            "forward": ["--lame", "lame", "--bc", "bc.cfg"],
        }[command]
        monkeypatch.chdir(tmp_path)
        assert main([command, *argv, "--out", "out"]) == 2
        assert capsys.readouterr().err == f"error: {message} overflows the float64 range\n"
        assert not (tmp_path / "out").exists()

    def test_elastic_solve_overflow_is_named(self, tmp_path, capsys):
        # step 0 leaves mu near the float64 limit with a finite stiffness;
        # the next forward solve overflows
        data = np.random.default_rng(5).random((16, 16, 2))
        write_f64grid(tmp_path / "u.f64grid", VectorGrid(16, 16, data))
        (tmp_path / "bc.cfg").write_text("dirichlet bottom both 0\ndirichlet top uy -1\n")
        (tmp_path / "run.cfg").write_text("stepsize = constant(1e308)\nstopping = manual(2)\n")
        out = tmp_path / "out"
        assert main(["invert", "--data", str(tmp_path / "u.f64grid"),
                     "--bc", str(tmp_path / "bc.cfg"), "--config", str(tmp_path / "run.cfg"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: elastic solve overflows the float64 range\n"
        assert not out.exists()

    @staticmethod
    def invert_random_data(tmp_path, scale, config):
        """`invert` on scaled 16x16 random data, the bottom clamped and the top
        pressed by one pixel; its exit code."""
        data = scale * np.random.default_rng(5).random((16, 16, 2))
        write_f64grid(tmp_path / "u.f64grid", VectorGrid(16, 16, data))
        (tmp_path / "bc.cfg").write_text("dirichlet bottom both 0\ndirichlet top uy -1\n")
        (tmp_path / "run.cfg").write_text(config)
        return main(["invert", "--data", str(tmp_path / "u.f64grid"),
                     "--bc", str(tmp_path / "bc.cfg"), "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "out"), "--trace", str(tmp_path / "trace.csv")])

    @pytest.mark.parametrize("scale, config, young_max, residuals", [
        # one step leaves mu near 1e199, where mu (3 lambda + 2 mu) overflows but E fits
        (1.0, "stepsize = constant(1e200)\nstopping = manual(1)\n", 3.16e199, None),
        # residuals near 1e156, whose squares overflow but whose norms fit
        (1e155, "stepsize = constant(1)\nstopping = manual(2)\n", None,
         [1.2800818582725602e+156] * 3),
    ], ids=["young", "residual-norm"])
    @pytest.mark.filterwarnings("error")
    def test_inversion_results_that_fit_are_written(self, tmp_path, capsys, scale, config,
                                                    young_max, residuals):
        assert self.invert_random_data(tmp_path, scale, config) == 0
        assert capsys.readouterr() == ("", "")
        young = read_f64grid(tmp_path / "out" / "young.f64grid").data
        assert np.all(np.isfinite(young))
        if young_max is not None:
            assert young.max() == pytest.approx(young_max, rel=1e-3)
        if residuals is not None:
            rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
            assert [float(row.split(",")[1]) for row in rows] == residuals

    @pytest.mark.filterwarnings("error")
    def test_inversion_residual_norm_overflow_is_named(self, tmp_path, capsys):
        # the start point's residual, near the data's 1.5e308 per entry, has a
        # norm beyond the float64 range
        assert self.invert_random_data(tmp_path, 1.5e308, "stopping = manual(0)\n") == 2
        assert capsys.readouterr().err == ("error: inversion residual norm overflows "
                                           "the float64 range\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_inaccurate_factor_solve_is_refined_once(self, tmp_path, capsys):
        # the step leaves mu across about 155 orders of magnitude; the final
        # iterate's factor solve has a relative residual of 5.67e-09, and one
        # refinement step with the same factor passes the 1e-10 check.  That
        # verdict depends on summation order: with the reduced stiffness
        # gathered in nested-dissection order the residuals read 1.37e-2 and
        # 8.52e-3 and the run exits 2 with a false NotSPD, although the
        # normwise backward error is at most about 1e-142 in either order
        config = "stepsize = constant(1e150)\nstopping = manual(1)\n"
        assert self.invert_random_data(tmp_path, 1.0, config) == 0
        assert capsys.readouterr() == ("", "")
        young = read_f64grid(tmp_path / "out" / "young.f64grid").data
        assert young.max() == pytest.approx(3.16e149, rel=1e-3)

    @pytest.mark.filterwarnings("error")
    def test_flow_solve_overflow_is_named(self, tmp_path, capsys, monkeypatch):
        # a solution that is not finite overflowed; it is not a failed SPD check
        image = tmp_path / "i.f64grid"
        write_f64grid(image, ScalarGrid(12, 10, np.random.default_rng(3).random((10, 12))))
        (tmp_path / "flow.cfg").write_text("alpha = 1\n")
        monkeypatch.setattr(GridFactor, "solve", lambda self, b: np.full_like(b, np.inf))
        out = tmp_path / "u.f64grid"
        assert main(["flow", "--i1", str(image), "--i2", str(image),
                     "--config", str(tmp_path / "flow.cfg"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: flow solve overflows the float64 range\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, option, bad", [
        ("track", "a", VectorGrid), ("track", "b", VectorGrid),
        ("flow", "i1", Volume), ("flow", "i1", VectorGrid),
        ("flow", "i2", Volume), ("flow", "i2", VectorGrid),
        ("invert", "data", ScalarGrid),
        ("eval", "est", ScalarGrid), ("eval", "truth", ScalarGrid),
        ("forward", "lambda", VectorGrid), ("forward", "mu", VectorGrid),
    ])
    def test_wrong_kind_input_names_file_and_both_kinds(self, tmp_path, capsys,
                                                         command, option, bad):
        grids = {ScalarGrid: ScalarGrid(8, 8, np.eye(8)), VectorGrid: VectorGrid.zeros(8, 8),
                 Volume: Volume(8, 8, 3, np.ones((3, 8, 8)))}
        kinds = {"a": Volume, "b": Volume, "i1": ScalarGrid, "i2": ScalarGrid,
                 "data": VectorGrid, "est": VectorGrid, "truth": VectorGrid}
        path = {o: str(tmp_path / f"{o}.f64grid") for o in kinds}
        for o, kind in kinds.items():
            write_f64grid(path[o], grids[kind])
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(8, 8, 1.0, 1.0))
        path["lambda"], path["mu"] = str(lame / "lambda.f64grid"), str(lame / "mu.f64grid")
        write_f64grid(path[option], grids[bad])
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet bottom both 0\ndirichlet top uy -1\n")
        out = str(tmp_path / "out")
        argv = {
            "track": ["--a", path["a"], "--b", path["b"], "--config", str(cfg), "--out", out],
            "flow": ["--i1", path["i1"], "--i2", path["i2"], "--config", str(cfg),
                     "--out", out],
            "invert": ["--data", path["data"], "--bc", str(bc), "--config", str(cfg),
                       "--out", out],
            "eval": ["--est", path["est"], "--truth", path["truth"]],
            "forward": ["--lame", str(lame), "--bc", str(bc), "--out", out],
        }[command]
        assert main([command, *argv]) == 2
        wanted = kinds.get(option, ScalarGrid)
        assert capsys.readouterr().err == (f"error: {path[option]}: expected a "
                                           f"{wanted.__name__}, found a {bad.__name__} "
                                           f"(byte offset 8)\n")
        assert not (tmp_path / "out").exists()


class TestSynth:
    def test_inclusion_artifacts(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        write_inclusion_spec(spec)
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        for name in ("i1.f64grid", "i2.f64grid", "u_true.f64grid",
                     "samples.csv", "bc.cfg"):
            assert (out / name).exists()
        lame = read_lame_dir(out / "lame")
        assert lame.mu.data.max() == 20.0
        assert len(read_samples_csv(out / "samples.csv")) == 20

    def test_moving_squares_artifacts(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("kind = moving_squares\nnx = 128\nny = 128\n"
                        "bubble_count = 30\nseed = 4\n")
        out = tmp_path / "sq"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        flow = read_f64grid(out / "flow_true.f64grid")
        assert isinstance(flow, VectorGrid)

    def test_synth_deterministic(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        write_inclusion_spec(spec)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--spec", str(spec), "--out", str(out1)])
        main(["synth", "--spec", str(spec), "--out", str(out2)])
        assert (out1 / "i1.f64grid").read_bytes() == (out2 / "i1.f64grid").read_bytes()
        assert (out1 / "samples.csv").read_text() == (out2 / "samples.csv").read_text()


class TestManualStopping:
    """`stopping = manual(k)` is the step budget k; a smaller `max_iter`
    line caps it."""

    @pytest.fixture
    def phantom(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("kind = inclusion\nnx = 16\nny = 16\nbubble_count = 3\n"
                        "bubble_sigma_min = 1.0\nbubble_sigma_max = 1.3\n"
                        "compression_px = 2\ninclusion_radius = 3\nmargin = 3\n"
                        "seed = 0\n")
        out = tmp_path / "ph"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        return out

    def invert(self, tmp_path, phantom, config):
        """Run `invert` on the phantom's true field; the trace rows and
        the recovered Lame directory."""
        cfg, trace, rec = tmp_path / "inv.cfg", tmp_path / "trace.csv", tmp_path / "rec"
        cfg.write_text(config)
        assert main(["invert", "--data", str(phantom / "u_true.f64grid"),
                     "--bc", str(phantom / "bc.cfg"), "--config", str(cfg),
                     "--out", str(rec), "--trace", str(trace)]) == 0
        return read_table(trace, "k,residual,stepsize,heuristic", [float] * 4), rec

    @pytest.mark.parametrize("config, steps", [
        ("stopping = manual(120)\n", 120),  # above the default max_iter
        ("stopping = manual(12)\nmax_iter = 5\n", 5)],
        ids=["manual-120", "max-iter-caps"])
    def test_manual_k_runs_k_steps(self, tmp_path, phantom, config, steps):
        rows, _ = self.invert(tmp_path, phantom, config)
        assert [row[0] for row in rows] == list(range(steps + 1))

    def test_manual_zero_returns_start_point(self, tmp_path, phantom):
        rows, rec = self.invert(tmp_path, phantom,
                                "lambda0 = 300\nmu0 = 7\nstopping = manual(0)\n")
        assert len(rows) == 1
        lame = read_lame_dir(rec)
        assert np.all(lame.lam.data == 300.0) and np.all(lame.mu.data == 7.0)


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        write_inclusion_spec(spec, n=48, bubbles=16, compression=3.0, radius=8.0)
        out = tmp_path / "ph"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0

        track_cfg = tmp_path / "track.cfg"
        track_cfg.write_text("d_max = 5\ntop_fraction = 0.1\nmin_voxels = 3\n")
        tracked = tmp_path / "tracked.csv"
        assert main(["track", "--a", str(out / "i1.f64grid"),
                     "--b", str(out / "i2.f64grid"),
                     "--config", str(track_cfg), "--out", str(tracked)]) == 0
        assert len(read_samples_csv(tracked)) > 0

        flow_cfg = tmp_path / "flow.cfg"
        flow_cfg.write_text("alpha = 2\nbeta = 4\nsigma_g = 4\nlevels = 2\n")
        u_est = tmp_path / "u_est.f64grid"
        assert main(["flow", "--i1", str(out / "i1.f64grid"),
                     "--i2", str(out / "i2.f64grid"),
                     "--samples", str(out / "samples.csv"),
                     "--config", str(flow_cfg), "--out", str(u_est)]) == 0

        u_fwd = tmp_path / "u_fwd.f64grid"
        assert main(["forward", "--lame", str(out / "lame"),
                     "--bc", str(out / "bc.cfg"), "--out", str(u_fwd)]) == 0
        np.testing.assert_allclose(read_f64grid(u_fwd).data,
                                   read_f64grid(out / "u_true.f64grid").data,
                                   atol=1e-9)

        inv_cfg = tmp_path / "inv.cfg"
        inv_cfg.write_text("lambda0 = 490\nmu0 = 10\nacceleration = true\n"
                           "stopping = manual(5)\nmax_iter = 5\n")
        lame_out = tmp_path / "rec"
        trace = tmp_path / "trace.csv"
        assert main(["invert", "--data", str(out / "u_true.f64grid"),
                     "--bc", str(out / "bc.cfg"), "--config", str(inv_cfg),
                     "--out", str(lame_out), "--trace", str(trace)]) == 0
        assert (lame_out / "lambda.f64grid").exists()
        assert (lame_out / "mu.f64grid").exists()
        assert (lame_out / "young.f64grid").exists()
        rows = read_table(trace, "k,residual,stepsize,heuristic", [float] * 4)
        assert len(rows) == 6  # 5 steps + final residual row
        assert rows[-1][1] < rows[0][1]

        assert main(["eval", "--est", str(u_est),
                     "--truth", str(out / "u_true.f64grid")]) == 0
        total = float(capsys.readouterr().out.strip().split(",")[0])
        assert 0.0 < total < 1.0

    def test_flow_without_samples(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        write_inclusion_spec(spec, n=48, bubbles=12)
        out = tmp_path / "ph"
        main(["synth", "--spec", str(spec), "--out", str(out)])
        flow_cfg = tmp_path / "flow.cfg"
        flow_cfg.write_text("alpha = 1\nbeta = 0\nlevels = 1\n")
        u = tmp_path / "u.f64grid"
        assert main(["flow", "--i1", str(out / "i1.f64grid"),
                     "--i2", str(out / "i2.f64grid"),
                     "--config", str(flow_cfg), "--out", str(u)]) == 0
        assert isinstance(read_f64grid(u), VectorGrid)


_PINNED = Path(__file__).parent / "data" / "cli_outputs.json"

# the README's pipeline on a 64x64 inclusion phantom; the top flow level has
# 4096 pixels, so it is solved with the V-cycle
_PIN_INPUTS = {
    "phantom.cfg": "kind = inclusion\nnx = 64\nny = 64\nbubble_count = 40\n"
                   "compression_px = 3\ninclusion_radius = 10\nseed = 11\n",
    "track.cfg": "d_max = 8\ntop_fraction = 0.08\n",
    "flow.cfg": "alpha = 4\nbeta = 4\nsigma_g = 5\nlevels = 3\n",
    "inv.cfg": "stopping = manual(2)\n",
}
_PIN_COMMANDS = [
    ["synth", "--spec", "in/phantom.cfg", "--out", "out/ph"],
    ["track", "--a", "out/ph/i1.f64grid", "--b", "out/ph/i2.f64grid",
     "--config", "in/track.cfg", "--out", "out/tracked.csv"],
    ["flow", "--i1", "out/ph/i1.f64grid", "--i2", "out/ph/i2.f64grid",
     "--samples", "out/tracked.csv", "--config", "in/flow.cfg", "--out", "out/u_est.f64grid"],
    ["invert", "--data", "out/u_est.f64grid", "--bc", "out/ph/bc.cfg",
     "--config", "in/inv.cfg", "--out", "out/lame", "--trace", "out/trace.csv"],
    ["eval", "--est", "out/u_est.f64grid", "--truth", "out/ph/u_true.f64grid"],
]
_PIN_CHILD = """
import json, sys
from speckleflow.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"speckleflow {argv[0]} failed")
"""


def pinned_versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def pipeline_output_hashes(work: Path) -> dict:
    """SHA-256 of every file the pinned pipeline writes under `work`/out, and
    of `eval`'s stdout, from one process with one BLAS and OpenMP thread
    (the flow's output depends on the thread count)."""
    (work / "in").mkdir(parents=True)
    for name, text in _PIN_INPUTS.items():
        (work / "in" / name).write_text(text)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _PIN_CHILD, json.dumps(_PIN_COMMANDS)],
                         cwd=work, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr == b""
    out = work / "out"
    hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.rglob("*")) if p.is_file()}
    hashes["eval stdout"] = hashlib.sha256(run.stdout).hexdigest()
    return hashes


def test_pipeline_output_bytes_are_pinned(tmp_path):
    # every refactor that claims identical outputs is held to these bytes; a
    # change that moves them records new hashes with `pipeline_output_hashes`
    pinned = json.loads(_PINNED.read_text())
    if pinned["versions"] != pinned_versions():
        pytest.skip(f"hashes recorded with {pinned['versions']}, running {pinned_versions()}")
    assert pipeline_output_hashes(tmp_path) == pinned["sha256"]
