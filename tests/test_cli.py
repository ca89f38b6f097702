import json
import math

import numpy as np
import pytest

from driftlab import cli, evolution, fieldio
from driftlab.config import ConfigError, build_initial_field, parse_config, parse_text
from driftlab.grids import GridSpec, ScalarField, to_spectral
from driftlab.operators import random_band_limited

TWO_PI = 2 * np.pi


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSnapshotFormat:
    def test_roundtrip_exact(self, tmp_path):
        f = random_band_limited(GridSpec(d=2, N=16), 4, seed=9)
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        back = fieldio.load_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_header(self, tmp_path):
        f = ScalarField.constant(GridSpec(d=1, N=8), 1.5)
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        assert path.read_text().splitlines()[0] == "torusfield v1 d=1 N=8"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.tf"
        path.write_text("sphericalfield v1 d=1 N=8\n0\n")
        with pytest.raises(ValueError, match="torusfield"):
            fieldio.load_field(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.tf"
        path.write_text("torusfield v1 d=1 N=8\n0.0\n1.0\n")
        with pytest.raises(ValueError, match="expected 8 values"):
            fieldio.load_field(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            fieldio.load_field("/nonexistent/f.tf")

    @pytest.mark.parametrize("d, N", [(1, 16), (2, 8)])
    def test_bytes_of_the_per_value_formatter(self, tmp_path, d, N):
        grid = GridSpec(d=d, N=N)
        v = np.random.default_rng(3).standard_normal(grid.size)
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e20, -1e20, 1e-20, -1e-20, 1 / 3]
        v[: len(edge)] = edge
        f = ScalarField(grid, v)
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        lines = [f"torusfield v1 d={d} N={N}"] + [f"{x:.17g}" for x in f.values.reshape(-1)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = fieldio.load_field(path)
        assert back.values.tobytes() == f.values.tobytes()

    def test_parse_keeps_the_bits_of_edge_values(self, tmp_path):
        # the whole-array parse reads every value back as float() would
        grid = GridSpec(d=2, N=64)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(grid.size) * 10.0 ** rng.uniform(-320, 300, grid.size)
        big, tiny = np.finfo(float).max, np.finfo(float).tiny
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny, big, -big,
                np.nextafter(1.0, 2.0), 1 / 3, 0.1]
        v[: len(edge)] = edge
        f = ScalarField(grid, v)
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        back = fieldio.load_field(path)
        assert back.values.tobytes() == f.values.tobytes()
        tokens = path.read_text().split()[4:]
        assert back.values.tobytes() == np.array([float(t) for t in tokens]).tobytes()


class TestConfigParsing:
    def test_minimal_defaults(self, tmp_path):
        cfg = _write_cfg(
            tmp_path, "grid.d = 1\ngrid.N = 128\ntime.dt = 1e-3\ntime.T = 0.5\n"
        )
        plan = parse_config(cfg)
        assert plan.config.grid.N == 128
        assert plan.config.dt == 1e-3
        assert plan.config.t_end == 0.5
        assert plan.config.kind == "drift"
        assert plan.config.cadence == 10
        assert plan.suite == "all"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grid.M"):
            parse_text("grid.M = 3")

    def test_non_power_of_two_named(self, tmp_path):
        cfg = _write_cfg(tmp_path, "grid.N = 100\n")
        with pytest.raises(ConfigError, match="grid.N"):
            parse_config(cfg)

    def test_sqg_requires_d2(self, tmp_path):
        cfg = _write_cfg(tmp_path, "grid.d = 1\nequation.kind = sqg\n")
        with pytest.raises(ConfigError, match="d=2"):
            parse_config(cfg)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_text("grid.N = 64\ngrid.N = 32")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_text("grid.N = 64\nnonsense")

    def test_comments_and_blanks(self):
        assert parse_text("# comment\n\ngrid.N = 64\n") == {"grid.N": 64}

    def test_type_errors_named(self):
        with pytest.raises(ConfigError, match="grid.N"):
            parse_text("grid.N = pi")
        with pytest.raises(ConfigError, match="time.T"):
            parse_text("time.T = soon")

    def test_seed_override(self, tmp_path):
        cfg = _write_cfg(tmp_path, "seed = 5\n")
        assert parse_config(cfg).config.seed == 5
        assert parse_config(cfg, seed_override=9).config.seed == 9

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent.cfg")

    def test_initial_kinds(self, tmp_path):
        for text, check in [
            ("initial.kind = cosine\ngrid.N = 64\n", None),
            ("initial.kind = delta\ngrid.N = 64\n", None),
            ("initial.kind = band_kernel\ninitial.level = 2\ngrid.N = 64\n", None),
        ]:
            plan = parse_config(_write_cfg(tmp_path, text))
            f = build_initial_field(plan)
            assert f.grid == plan.config.grid
        with pytest.raises(ConfigError, match="initial.kind"):
            parse_text("initial.kind = wavelet") and None
            build_initial_field(parse_config(_write_cfg(tmp_path, "initial.kind = wavelet\n")))

    def test_initial_file_grid_mismatch(self, tmp_path):
        f = random_band_limited(GridSpec(d=1, N=64), 4, seed=0)
        fieldio.save_field(f, tmp_path / "f.tf")
        cfg = _write_cfg(
            tmp_path, f"grid.N = 128\ninitial.kind = file\ninitial.file = {tmp_path}/f.tf\n"
        )
        with pytest.raises(ConfigError, match="does not match"):
            build_initial_field(parse_config(cfg))


class TestSimulateCommand:
    def test_zero_velocity_decay(self, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 1\ngrid.N = 64\ntime.dt = 1e-3\ntime.T = 0.2\n"
            "initial.kind = cosine\noutput.cadence = 200\n",
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        final = fieldio.load_field(out / "snap_200.tf")
        x = final.grid.axis_coords()
        exact = math.exp(-TWO_PI * 0.2) * np.cos(TWO_PI * x)
        assert np.max(np.abs(final.values - exact)) < 1e-10
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "step,t,linf,l1,l2,mean,bmo_u,beta_hat"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "series.csv" in manifest["artifacts"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_cfg(
            tmp_path, "grid.d = 1\ngrid.N = 64\ntime.dt = 1e-3\ntime.T = 0.05\nseed = 3\n"
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("series.csv", "snap_0.tf", "snap_50.tf"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_invalid_config_no_partial_outputs(self, tmp_path):
        cfg = _write_cfg(tmp_path, "grid.N = 100\n")
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_flag(self):
        assert cli.main(["simulate"]) == 2

    def test_numerical_blowup_exits_3(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 2\ngrid.N = 32\ntime.dt = 1e-3\ntime.T = 0.01\n"
            "initial.amplitude = 1e307\nvelocity.kind = constant\n",
        )
        with np.errstate(all="ignore"):
            code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == 3
        assert "at step 1 " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, value",
        [("predictor", np.nan), ("corrector", np.nan), ("corrector", 1e308)],
        ids=["predictor_nan", "corrector_nan", "corrector_overflow"],
    )
    def test_a_poisoned_sqg_stage_exits_3(self, stage, value, tmp_path, capsys, poison_stage):
        poison_stage(stage, 3, value)
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 2\ngrid.N = 32\ntime.dt = 1e-3\ntime.T = 0.01\n"
            "equation.kind = sqg\ninitial.band = 4\noutput.cadence = 2\n",
        )
        with np.errstate(all="ignore"):
            code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == 3
        assert "at step 3 " in capsys.readouterr().err

    def test_sqg_history_not_kept(self, tmp_path, monkeypatch):
        # the run's velocity history would need 11 * 2 * 32^2 * 8 bytes
        monkeypatch.setattr(evolution, "HISTORY_MEMORY_CAP", 1024)
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 2\ngrid.N = 32\ntime.dt = 1e-3\ntime.T = 0.01\n"
            "equation.kind = sqg\ninitial.band = 4\n",
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "snap_10.tf").exists()

    def test_sqg_velocity_needs_the_sqg_equation(self, tmp_path, capsys):
        # a drift run would freeze the SQG velocity of the initial datum
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 2\ngrid.N = 32\ntime.dt = 1e-3\ntime.T = 0.01\nvelocity.kind = sqg\n",
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "velocity.kind" in capsys.readouterr().err

    def test_sqg_equation_rejects_a_prescribed_drift(self, tmp_path, capsys):
        # the SQG velocity is computed from theta; the shear would be ignored
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 2\ngrid.N = 32\ntime.dt = 1e-3\ntime.T = 0.01\n"
            "equation.kind = sqg\nvelocity.kind = shear\nvelocity.amplitude = 5\n",
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "velocity.kind" in capsys.readouterr().err

    def test_sqg_datum_on_the_nyquist_row(self, tmp_path):
        # both Riesz transforms are zero on the Nyquist lines, so the SQG
        # velocity of a datum with content there passes its divergence check
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 2\ngrid.N = 64\ntime.T = 0.01\n"
            "equation.kind = sqg\ninitial.kind = delta\n",
        )
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


class TestDualCommand:
    def test_membership_csv(self, tmp_path):
        cfg = _write_cfg(
            tmp_path,
            "grid.d = 1\ngrid.N = 256\ntime.dt = 1e-4\ninitial.kind = band_kernel\n"
            "initial.level = 4\ndual.horizon = 0.005\ndual.r = 0.0625\noutput.cadence = 10\n",
        )
        out = tmp_path / "run"
        assert cli.main(["dual", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "membership.csv").read_text().splitlines()
        assert lines[0] == "step,s,l1,linf,a"
        a_vals = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(a <= 1.0 for a in a_vals)

    def test_horizon_zero_identity(self, tmp_path):
        src = random_band_limited(GridSpec(d=1, N=64), 4, seed=1)
        fieldio.save_field(src, tmp_path / "in.tf")
        cfg = _write_cfg(
            tmp_path,
            f"grid.N = 64\ninitial.kind = file\ninitial.file = {tmp_path}/in.tf\n"
            "time.dt = 1e-3\ndual.horizon = 0\n",
        )
        out = tmp_path / "run"
        assert cli.main(["dual", "--config", cfg, "--out", str(out)]) == 0
        back = fieldio.load_field(out / "snap_final.tf")
        assert np.array_equal(back.values, src.values)

    def test_velocity_outgrowing_dt_exits_3(self, tmp_path, capsys):
        # dual time s sees u = 100 sin(10 pi s): CFL-admissible for dt = 1e-3
        # (u <= 7.8125) until the start of step 4, where u = 9.41
        text = (
            "grid.N = 64\ntime.dt = 1e-3\ndual.horizon = 0.05\n"
            "velocity.kind = constant\nvelocity.constant = 100\n"
        )
        cfg = _write_cfg(tmp_path, text + "velocity.omega = 31.41592653589793\n")
        assert cli.main(["dual", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "CFL" in err and "at step 4 (t=0.004)" in err
        assert "admissible dt <= 8.302e-04" in err
        # the same drift unmodulated violates the bound on the first step
        cfg = _write_cfg(tmp_path, text, name="steady.cfg")
        assert cli.main(["dual", "--config", cfg, "--out", str(tmp_path / "steady")]) == 2
        assert "admissible dt <= 7.813e-05" in capsys.readouterr().err

    def test_modulated_drift_with_a_derived_dt(self, tmp_path):
        # dt comes from the profile, which bounds the drift at every time,
        # not from the drift at the horizon (cos(pi/2) u here)
        cfg = _write_cfg(
            tmp_path,
            "grid.N = 64\ndual.horizon = 0.05\nvelocity.kind = constant\n"
            "velocity.constant = 100\nvelocity.omega = 31.41592653589793\n",
        )
        assert cli.main(["dual", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    def test_sqg_history_gap(self, tmp_path):
        cfg = _write_cfg(tmp_path, "grid.d = 2\ngrid.N = 16\nequation.kind = sqg\n")
        assert cli.main(["dual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestDiagnoseCommand:
    def test_constant_bmo_zero(self, tmp_path, capsys):
        fieldio.save_field(ScalarField.constant(GridSpec(d=1, N=64), 2.0), tmp_path / "c.tf")
        cfg = _write_cfg(
            tmp_path,
            f"diagnose.field = {tmp_path}/c.tf\ndiagnose.norms = norms,bmo\n",
        )
        assert cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        record = json.loads((tmp_path / "d" / "diagnose.json").read_text())
        assert record["bmo"] == 0.0
        assert record["norms"]["linf"] == 2.0

    def test_weierstrass_lp(self, tmp_path):
        g = GridSpec(d=1, N=1024)
        x = g.axis_coords()
        vals = sum(2.0 ** (-0.3 * k) * np.cos(TWO_PI * 2**k * x) for k in range(8))
        fieldio.save_field(ScalarField(g, vals), tmp_path / "w.tf")
        cfg = _write_cfg(
            tmp_path, f"diagnose.field = {tmp_path}/w.tf\ndiagnose.norms = lp\n"
        )
        assert cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        record = json.loads((tmp_path / "d" / "diagnose.json").read_text())
        assert 0.2 <= record["lp"]["beta"] <= 0.4

    def test_unknown_norm_listed(self, tmp_path, capsys):
        fieldio.save_field(ScalarField.constant(GridSpec(d=1, N=8), 0.0), tmp_path / "c.tf")
        cfg = _write_cfg(
            tmp_path, f"diagnose.field = {tmp_path}/c.tf\ndiagnose.norms = curvature\n"
        )
        assert cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert "bmo" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ["0.7", "0", "nan"])
    def test_holder_beta_checked_before_any_norm(self, tmp_path, capsys, beta):
        fieldio.save_field(ScalarField.constant(GridSpec(d=1, N=8), 0.0), tmp_path / "c.tf")
        cfg = _write_cfg(
            tmp_path,
            f"diagnose.field = {tmp_path}/c.tf\ndiagnose.norms = bmo,holder\n"
            f"diagnose.beta = {beta}\n",
        )
        out = tmp_path / "d"
        assert cli.main(["diagnose", "--config", cfg, "--out", str(out)]) == 2
        assert "diagnose.beta" in capsys.readouterr().err
        assert not (out / "diagnose.json").exists()


class TestVerifyCommand:
    def test_single_suite(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "suite = l1_single_mode\n")
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert "l1_single_mode: PASS" in capsys.readouterr().out
        report = json.loads((out / "report_l1_single_mode.json").read_text())
        assert report["passed"] is True

    def test_unknown_suite(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "suite = cohomology\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
        assert "duality" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("suite = l1_single_mode\ngrid.N = 64\n", "grid.N"),
            ("suite = l1_single_mode\nseed = 3\nvelocity.kind = constant\n"
             "velocity.constant = 3\n", "velocity.kind"),
        ],
        ids=["grid", "velocity"],
    )
    def test_a_key_the_suites_ignore_is_refused(self, tmp_path, capsys, text, key):
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "v"
        assert cli.main(["verify", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
        assert f"{key}: ignored by verify" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_reports_deterministic(self, tmp_path):
        cfg = _write_cfg(tmp_path, "suite = l1_single_mode\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        assert (
            (outs[0] / "report_l1_single_mode.json").read_bytes()
            == (outs[1] / "report_l1_single_mode.json").read_bytes()
        )
