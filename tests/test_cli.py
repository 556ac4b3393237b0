import numpy as np
import pytest

from speckleflow.cli import main, read_lame_dir, read_pgm, write_lame_dir, write_pgm
from speckleflow.elastic import LameField
from speckleflow.grids import ScalarGrid, VectorGrid, read_f64grid, write_f64grid
from speckleflow.invert import read_trace_csv
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


class TestRender:
    def test_constant_field_uniform_pgm(self, tmp_path):
        g = ScalarGrid(6, 4, np.full((4, 6), 3.0))
        f = tmp_path / "g.f64grid"
        write_f64grid(f, g)
        out = tmp_path / "img.pgm"
        assert main(["render", "--in", str(f), "--out", str(out)]) == 0
        img = read_pgm(out)
        assert np.unique(img.data).size == 1
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
        back = read_pgm(path)
        scaled = (vals - vals.min()) / (vals.max() - vals.min())
        np.testing.assert_allclose(back.data, scaled, atol=0.5 / 255.0 + 1e-12)


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
        for argv in (["render", "--in", str(bad), "--out", str(tmp_path / "r.pgm")],
                     ["eval", "--est", str(bad), "--truth", str(bad)]):
            assert main(argv) == 2
            assert "inadmissible extents" in capsys.readouterr().err

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
    ], ids=["synth", "track", "flow", "flow-binary", "invert", "synth-inf",
            "track-nan", "flow-nan", "invert-nan", "invert-omega-nan",
            "invert-omega-negative", "invert-omega-zero", "synth-margin-negative",
            "track-d_max-negative", "track-top_fraction-above-1",
            "flow-levels-zero"])
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

    def test_underconstrained_forward_is_runtime_error(self, tmp_path, capsys):
        lame = tmp_path / "lame"
        write_lame_dir(lame, LameField.constant(12, 10, 1.0, 1.0))
        bc = tmp_path / "bc.cfg"
        bc.write_text("dirichlet left ux 0\ntraction top 0.3 -1\n")
        out = tmp_path / "u.f64grid"
        assert main(["forward", "--lame", str(lame), "--bc", str(bc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


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
        t = read_trace_csv(trace)
        assert len(t) == 6  # 5 steps + final residual row
        assert t.residuals[-1] < t.residuals[0]

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
