import json
import math

import numpy as np
import pytest

from driftlab import cli, evolution, fieldio
from driftlab.config import ConfigError, build_initial_field, parse_config, parse_text
from driftlab.grids import GridSpec, ScalarField
from driftlab.operators import random_band_limited

TWO_PI = 2 * np.pi


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _edge_values(grid, rng):
    """Standard normals whose first entries are the float64 edge cases:
    signed zeros, subnormals, the smallest normal, the largest finite."""
    v = rng.standard_normal(grid.size)
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny, big, -big, 1 / 3, 0.1]
    v[: len(edge)] = edge
    return v


def _write_v1(path, grid, values):
    """A v1 (text) snapshot as it was written: the header, then one
    ``{v:.17g}`` line per value in row-major order."""
    lines = [f"torusfield v1 d={grid.d} N={grid.N}"]
    lines += [f"{x:.17g}" for x in np.asarray(values, dtype=float).reshape(-1)]
    path.write_bytes(("\n".join(lines) + "\n").encode())


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
        assert path.read_bytes().split(b"\n", 1)[0] == b"torusfield v2 d=1 N=8"
        # a hand-written v1 header still gives its grid
        _write_v1(tmp_path / "g.tf", GridSpec(d=2, N=8), np.zeros(64))
        assert fieldio.load_field(tmp_path / "g.tf").grid == GridSpec(d=2, N=8)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.tf"
        path.write_text("sphericalfield v1 d=1 N=8\n0\n")
        with pytest.raises(ValueError, match="torusfield"):
            fieldio.load_field(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"torusfield v3 d=1 N=8\n",
            b"torusfield v2 d=1\n",
            b"torusfield v2 d=1 N=8 extra\n",
            b"torusfield v2 dim=1 N=8\n",
            b"torusfield v2 d=1 N=8",
            b"torusfield\xff v1 d=1 N=8\n",
            b"\x00" * 200,
            b"",
        ],
    )
    def test_malformed_headers_name_the_file(self, tmp_path, header):
        path = tmp_path / "odd.tf"
        path.write_bytes(header + np.zeros(8).tobytes())
        with pytest.raises(ValueError, match="odd.tf.*torusfield"):
            fieldio.load_field(path)

    @pytest.mark.parametrize("header", [b"torusfield v2 d=3 N=8\n", b"torusfield v1 d=1 N=12\n",
                                        b"torusfield v2 d=one N=8\n"])
    def test_header_grid_checked(self, tmp_path, header):
        path = tmp_path / "grid.tf"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="grid.tf: malformed snapshot header"):
            fieldio.load_field(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.tf"
        path.write_text("torusfield v1 d=1 N=8\n0.0\n1.0\n")
        with pytest.raises(ValueError, match="expected 8 values"):
            fieldio.load_field(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            fieldio.load_field("/nonexistent/f.tf")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a regular file.*" + tmp_path.name):
            fieldio.load_field(tmp_path)

    def test_non_finite_values_name_the_file(self, tmp_path):
        path = tmp_path / "nan.tf"
        v = np.zeros(8)
        v[3] = np.nan
        path.write_bytes(b"torusfield v2 d=1 N=8\n" + v.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="nan.tf: field values must be finite"):
            fieldio.load_field(path)

    def test_v1_body_not_text_names_the_file(self, tmp_path):
        path = tmp_path / "bin.tf"
        path.write_bytes(b"torusfield v1 d=1 N=8\n" + b"\xff" * 64)
        with pytest.raises(ValueError, match="bin.tf"):
            fieldio.load_field(path)

    # v1: the text snapshots written before v2, read back as they were

    @pytest.mark.parametrize("d, N", [(1, 16), (2, 8)])
    def test_bytes_of_the_per_value_formatter(self, tmp_path, d, N):
        # the v1 file of a field, as its per-value formatter wrote it, loads
        # to the field's bytes
        grid = GridSpec(d=d, N=N)
        f = ScalarField(grid, _edge_values(grid, np.random.default_rng(3)))
        path = tmp_path / "f.tf"
        _write_v1(path, grid, f.values)
        lines = [f"torusfield v1 d={d} N={N}"] + [f"{x:.17g}" for x in f.values.reshape(-1)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = fieldio.load_field(path)
        assert back.grid == grid
        assert back.values.tobytes() == f.values.tobytes()

    def test_parse_keeps_the_bits_of_edge_values(self, tmp_path):
        # the whole-array parse reads every value back as float() would
        grid = GridSpec(d=2, N=64)
        rng = np.random.default_rng(5)
        v = _edge_values(grid, rng) * np.where(
            np.arange(grid.size) < 12, 1.0, 10.0 ** rng.uniform(-320, 300, grid.size)
        )
        v[12] = np.nextafter(1.0, 2.0)
        f = ScalarField(grid, v)
        path = tmp_path / "f.tf"
        _write_v1(path, grid, f.values)
        back = fieldio.load_field(path)
        assert back.values.tobytes() == f.values.tobytes()
        tokens = path.read_text().split()[4:]
        assert back.values.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    # v2: the header line, then the float64 values as they are

    @pytest.mark.parametrize("d, N", [(1, 16), (2, 8)])
    def test_v2_bytes(self, tmp_path, d, N):
        grid = GridSpec(d=d, N=N)
        f = ScalarField(grid, _edge_values(grid, np.random.default_rng(4)))
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        header = f"torusfield v2 d={d} N={N}\n".encode()
        assert path.read_bytes() == header + f.values.astype("<f8").tobytes()
        assert path.stat().st_size == len(header) + 8 * N**d

    def test_v2_roundtrip_keeps_the_bits_of_edge_values(self, tmp_path):
        grid = GridSpec(d=2, N=64)
        rng = np.random.default_rng(6)
        v = _edge_values(grid, rng) * np.where(
            np.arange(grid.size) < 12, 1.0, 10.0 ** rng.uniform(-320, 300, grid.size)
        )
        f = ScalarField(grid, v)
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        back = fieldio.load_field(path)
        assert back.grid == grid
        assert back.values.tobytes() == f.values.tobytes()
        assert not back.values.flags.writeable

    @pytest.mark.parametrize("extra", [-8, -1, 1, 8])
    def test_v2_payload_length_checked(self, tmp_path, extra):
        f = random_band_limited(GridSpec(d=2, N=8), 2, seed=1)
        path = tmp_path / "f.tf"
        fieldio.save_field(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:extra] if extra < 0 else data + b"\0" * extra)
        with pytest.raises(ValueError, match="f.tf: expected 64 values"):
            fieldio.load_field(path)

    @pytest.mark.parametrize("d, N", [(1, 64), (2, 32)])
    def test_v1_and_v2_load_to_the_same_bytes(self, tmp_path, d, N):
        grid = GridSpec(d=d, N=N)
        f = ScalarField(grid, _edge_values(grid, np.random.default_rng(7)))
        _write_v1(tmp_path / "v1.tf", grid, f.values)
        fieldio.save_field(f, tmp_path / "v2.tf")
        a = fieldio.load_field(tmp_path / "v1.tf")
        b = fieldio.load_field(tmp_path / "v2.tf")
        assert a.grid == b.grid == grid
        assert a.values.tobytes() == b.values.tobytes() == f.values.tobytes()


class TestSnapshotCompatibility:
    """A v1 file and a v2 file of one field give the same outputs in every
    command input that reads a snapshot.  The field is a random profile in
    x2 alone, so that it is also the first component of a divergence-free
    drift."""

    GRID = GridSpec(d=2, N=32)

    @pytest.fixture
    def snapshots(self, tmp_path):
        profile = random_band_limited(GridSpec(d=1, N=32), 4, seed=11).values
        f = ScalarField(self.GRID, np.broadcast_to(profile[None, :], self.GRID.shape))
        v1, v2 = tmp_path / "f_v1.tf", tmp_path / "f_v2.tf"
        _write_v1(v1, self.GRID, f.values)
        fieldio.save_field(f, v2)
        assert v1.read_bytes()[:13] == b"torusfield v1"
        assert v2.read_bytes()[:13] == b"torusfield v2"
        return {"v1": v1, "v2": v2}

    @staticmethod
    def _outputs(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}

    def test_diagnose_every_norm(self, tmp_path, snapshots):
        docs = {}
        for tag, snap in snapshots.items():
            cfg = _write_cfg(
                tmp_path,
                f"diagnose.field = {snap}\ndiagnose.norms = norms,bmo,lp,holder,class\n",
                name=f"{tag}.cfg",
            )
            out = tmp_path / f"d_{tag}"
            assert cli.main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
            text = (out / "diagnose.json").read_text()
            assert json.loads(text)["field"] == str(snap)
            docs[tag] = text.replace(json.dumps(str(snap)), '"<field>"')
        assert docs["v1"] == docs["v2"]
        assert set(json.loads(docs["v1"])) >= {"norms", "bmo", "lp", "holder", "class"}

    @pytest.mark.parametrize("use", ["initial", "velocity"])
    def test_simulate_from_a_snapshot(self, tmp_path, snapshots, use):
        zero = tmp_path / "zero.tf"
        fieldio.save_field(ScalarField.constant(self.GRID, 0.0), zero)
        outputs = {}
        for tag, snap in snapshots.items():
            if use == "initial":
                text = f"initial.kind = file\ninitial.file = {snap}\n"
            else:
                text = (
                    f"velocity.kind = file\nvelocity.file = {snap},{zero}\n"
                    "initial.kind = cosine\n"
                )
            cfg = _write_cfg(
                tmp_path,
                "grid.d = 2\ngrid.N = 32\ntime.dt = 0.001\ntime.T = 0.006\n"
                "output.cadence = 2\n" + text,
                name=f"{tag}.cfg",
            )
            out = tmp_path / f"run_{tag}"
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outputs[tag] = self._outputs(out)
        snaps = [f"snap_{step}.tf" for step in (0, 2, 4, 6)]
        assert sorted(outputs["v1"]) == ["series.csv", *snaps]
        assert outputs["v1"] == outputs["v2"]


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

    def test_tracked_bmo_and_beta_columns(self, tmp_path):
        from driftlab.spaces import bmo_norm, holder_from_lp

        text = (
            "grid.d = 2\ngrid.N = 32\nvelocity.kind = shear\nvelocity.amplitude = 0.5\n"
            "time.dt = 1e-3\ntime.T = 0.004\noutput.cadence = 2\nseed = 4\n"
        )
        grid = GridSpec(d=2, N=32)
        bmo_u = max(bmo_norm(c, stride=max(1, grid.N // 64))
                    for c in evolution.shear_velocity(grid, 0.5).components)
        for name, track in (("tracked", "track.bmo = true\ntrack.beta = true\n"), ("plain", "")):
            cfg = _write_cfg(tmp_path, text + track, name=f"{name}.cfg")
            out = tmp_path / name
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            lines = (out / "series.csv").read_text().splitlines()
            assert len(lines) == 4  # steps 0, 2 and 4
            for line in lines[1:]:
                cells = line.split(",")
                if not track:
                    assert cells[6:] == ["", ""]
                    continue
                snap = fieldio.load_field(out / f"snap_{cells[0]}.tf")
                assert float(cells[6]) == bmo_u
                assert float(cells[7]) == holder_from_lp(snap).beta

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

    def test_sqg_history_gap(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "grid.d = 2\ngrid.N = 16\nequation.kind = sqg\n")
        assert cli.main(["dual", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        # the key the file set, not one it left at its default
        assert "configuration error: equation.kind: dual runs" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("dual.A = 0.5", "dual.A"), ("dual.A = 1", "dual.A"), ("dual.A = nan", "dual.A"),
        ("initial.level = -1", "initial.level"),
    ])
    def test_class_keys_rejected_before_the_run(self, line, key, tmp_path, capsys):
        # checked with the configuration, not after the evolution or inside
        # the band kernel's transform
        cfg = _write_cfg(
            tmp_path,
            f"grid.d = 1\ngrid.N = 256\ninitial.kind = band_kernel\ndual.horizon = 0.005\n{line}\n",
        )
        out = tmp_path / "run"
        assert cli.main(["dual", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and key in err


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

    def test_snapshot_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, f"diagnose.field = {tmp_path}\ndiagnose.norms = norms\n")
        assert cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert "not a regular file" in err and str(tmp_path) in err

    def test_non_ascii_header_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "latin.tf"
        snap.write_bytes("torusfield v1 d=1 N=8 \u00e9\n".encode("latin-1") + b"0\n" * 8)
        cfg = _write_cfg(tmp_path, f"diagnose.field = {snap}\ndiagnose.norms = norms\n")
        assert cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert "latin.tf" in err and "torusfield" in err

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
        err = capsys.readouterr().err
        assert "configuration error: suite: unknown suite 'cohomology'" in err
        assert "duality" in err

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


class TestCommandLine:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, desc in cli.COMMAND_HELP.items():
            assert any(line.split() == [name, *desc.split()] for line in out.splitlines())

    def test_command_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["diagnose", "--help"])
        assert exc.value.code == 0
        assert "diagnose" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["--out", "o"], ["bogus"], ["Diagnose"]],
                             ids=["none", "options-only", "unknown", "case"])
    def test_missing_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err

    def test_options_follow_or_precede_the_command(self):
        parser = cli._build_parser()
        after = parser.parse_args(["verify", "--config", "c.cfg", "--jobs", "2", "--seed", "3"])
        before = parser.parse_args(["--config", "c.cfg", "--jobs", "2", "verify", "--seed", "3"])
        assert vars(after) == vars(before) == {
            "command": "verify", "config": "c.cfg", "out": "out", "jobs": 2, "seed": 3,
        }
