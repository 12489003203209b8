"""Tests for the command-line laboratory driver."""

import math
import os
import subprocess
import sys

import pytest

from petallab import verify
from petallab.hypcore import DomainError
from petallab.lab import _build_parser, main
from petallab.models import by_name

pytestmark = pytest.mark.usefixtures("clean_env")


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("PETALLAB_OUT", raising=False)


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def parse_summary(path):
    out = {}
    for line in read(path).splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


class TestSpeedsCommand:
    def test_writes_expected_rows(self, tmp_path, capsys):
        code = main([
            "speeds", "--model", "strip-slit", "--petal", "0",
            "--kmax", "16", "--out", str(tmp_path),
        ])
        assert code == 0
        path = tmp_path / "speeds_strip-slit_p0.csv"
        lines = read(path).splitlines()
        assert lines[0] == "t,v,v_o,v_T"
        assert len(lines) == 18
        assert "17 rows" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["speeds", "--model", "koebe-elliptic", "--kmax", "12",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = read(tmp_path / "speeds_koebe-elliptic_p0.csv")
        assert main(argv) == 0
        second = read(tmp_path / "speeds_koebe-elliptic_p0.csv")
        assert first == second

    def test_explicit_grid_wins_over_exponents(self, tmp_path):
        code = main([
            "speeds", "--model", "strip-slit", "--grid=-1,-2,-4",
            "--kmax", "16", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "speeds_strip-slit_p0.csv").splitlines()
        assert len(lines) == 4

    def test_base_override(self, tmp_path):
        code = main([
            "speeds", "--model", "strip-slit", "--base-re", "1.5",
            "--base-im", "0.4", "--kmax", "4", "--out", str(tmp_path),
        ])
        assert code == 0

    def test_petal_index_selects_lower(self, tmp_path):
        code = main([
            "speeds", "--model", "strip-slit", "--petal", "1",
            "--kmax", "4", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "speeds_strip-slit_p1.csv").exists()


class TestAsymptoteCommand:
    def test_elliptic_model_passes(self, tmp_path, capsys):
        code = main([
            "asymptote", "--model", "koebe-elliptic", "--petal", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = parse_summary(tmp_path / "asymptote_koebe-elliptic_p0_summary.txt")
        assert summary["status"] == "pass"
        assert float(summary["slope"]) == pytest.approx(-0.25, rel=1e-6)
        assert float(summary["target"]) == -0.25
        assert float(summary["r2"]) > 0.999
        assert "PASS asymptote" in capsys.readouterr().out

    def test_slope_is_verify_total_speed_slope(self, tmp_path, monkeypatch):
        # The subcommand and verify's total-speed-slopes check fit the
        # strip-slit upper petal by one path, so they read the same slope.
        rates = []
        backward_rate = verify.backward_rate

        def recording(*args, **kwargs):
            result = backward_rate(*args, **kwargs)
            rates.append(result[2])
            return result

        monkeypatch.setattr(verify, "backward_rate", recording)
        check = verify._check_total_slopes()
        assert check.passed
        code = main(["asymptote", "--model", "strip-slit", "--out", str(tmp_path)])
        assert code == 0
        summary = parse_summary(tmp_path / "asymptote_strip-slit_p0_summary.txt")
        assert float(summary["slope"]) == rates[0].slope
        assert f"strip-slit/upper: slope {rates[0].slope:.6f}" in check.detail

    def test_parabolic_target_is_zero(self, tmp_path):
        code = main([
            "asymptote", "--model", "sector-parabolic", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = parse_summary(
            tmp_path / "asymptote_sector-parabolic_p0_summary.txt"
        )
        assert float(summary["target"]) == 0.0
        assert abs(float(summary["slope"])) <= 1e-3

    def test_unreachable_tolerance_fails(self, tmp_path, capsys):
        code = main([
            "asymptote", "--model", "sector-parabolic", "--tol", "1e-9",
            "--out", str(tmp_path),
        ])
        assert code == 1
        summary = parse_summary(
            tmp_path / "asymptote_sector-parabolic_p0_summary.txt"
        )
        assert summary["status"] == "fail"
        assert "FAIL asymptote" in capsys.readouterr().out


class TestForwardCommand:
    def test_translation_rate(self, tmp_path):
        code = main(["forward", "--model", "strip-slit", "--out", str(tmp_path)])
        assert code == 0
        lines = read(tmp_path / "forward_strip-slit.csv").splitlines()
        assert lines[0] == "t,v"
        assert len(lines) == 14

    def test_parabolic_and_elliptic_rates_vanish(self, tmp_path):
        for name in ("sector-parabolic", "koebe-elliptic"):
            assert main(["forward", "--model", name, "--out", str(tmp_path)]) == 0

    def test_forward_rate_times_and_exponent_range(self):
        model = by_name("strip-slit")
        base = model.petals[0].base_default
        ts, _, _ = verify.forward_rate(model, base, 4, 16)
        assert ts == [2.0**k for k in range(4, 17)]
        with pytest.raises(DomainError, match="dyadic exponent 1100"):
            verify.forward_rate(model, base, 4, 1100)


class TestHmeasureCommand:
    def test_hyperbolic_orbit_nontangential(self, tmp_path):
        code = main([
            "hmeasure", "--model", "strip-slit", "--petal", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = parse_summary(tmp_path / "hmeasure_strip-slit_p0_summary.txt")
        assert summary["status"] == "pass"
        assert summary["tangential"] == "False"
        theta = float(summary["theta"])
        assert 0.05 * math.pi < theta < 0.95 * math.pi
        data = read(tmp_path / "hmeasure_strip-slit_p0.dat").splitlines()
        assert data[0].startswith("#")
        # One row per kept orbit point, t = -1 .. -9: the orbit stops where
        # disk_z comes within rounding reach of sigma.
        assert [float(row.split()[0]) for row in data[1:]] == [
            float(-k) for k in range(1, 10)
        ]

    @pytest.mark.parametrize("petal", ["0", "1"])
    def test_strip_slit_orbit_stops_above_rounding(self, tmp_path, petal):
        # Past t = -9 disk_z lies within about 2.2e-8 of sigma, and its
        # rounding error drove the lower petal's measures up to 0.565 by
        # t = -18, an inconclusive spread.
        code = main([
            "hmeasure", "--model", "strip-slit", "--petal", petal,
            "--out", str(tmp_path),
        ])
        assert code == 0
        tag = f"strip-slit_p{petal}"
        summary = parse_summary(tmp_path / f"hmeasure_{tag}_summary.txt")
        assert summary["status"] == "pass"
        assert summary["points"] == "9"
        assert summary["orbit_stop"] == "disk_z within 2.22e-08 of sigma at t = -10"
        rows = read(tmp_path / f"hmeasure_{tag}.dat").splitlines()[1:]
        assert len(rows) == 9
        assert abs(float(rows[-1].split()[1]) - 0.5) <= 1e-6

    def test_theta_is_verify_orbit_angle(self, tmp_path, monkeypatch):
        # verify's approach-angles check and the subcommand measure the
        # strip-slit upper orbit by one path, so they read the same theta.
        reports = []
        orbit_angle = verify.orbit_angle

        def recording(*args):
            result = orbit_angle(*args)
            reports.append(result[1])
            return result

        monkeypatch.setattr(verify, "orbit_angle", recording)
        assert verify._check_approach_angles().passed
        code = main([
            "hmeasure", "--model", "strip-slit", "--petal", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = parse_summary(tmp_path / "hmeasure_strip-slit_p0_summary.txt")
        (report,) = reports
        assert float(summary["theta"]) == report.theta

    def test_too_few_orbit_points_is_usage_error(self, tmp_path, capsys):
        code = main([
            "hmeasure", "--model", "strip-slit", "--kmax", "3",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "need at least 5 points" in capsys.readouterr().err

    def test_parabolic_orbit_tangential(self, tmp_path):
        # The parabolic orbit creeps into its boundary point along the
        # circle, so the non-tangential criterion fails by design.
        code = main([
            "hmeasure", "--model", "sector-parabolic", "--kmax", "400",
            "--out", str(tmp_path),
        ])
        assert code == 1
        summary = parse_summary(
            tmp_path / "hmeasure_sector-parabolic_p0_summary.txt"
        )
        assert summary["status"] == "fail"
        assert summary["tangential"] == "True"


class TestBoundsCommand:
    def test_logrecip_series(self, tmp_path):
        code = main(["bounds", "--profile", "logrecip", "--out", str(tmp_path)])
        assert code == 0
        lines = read(tmp_path / "bounds_logrecip.dat").splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 6
        t, ratio = lines[2].split()
        assert float(t) == -1000.0
        assert float(ratio) == pytest.approx(0.0059087552789821, rel=1e-12)

    def test_gaussian_single_point(self, tmp_path):
        code = main([
            "bounds", "--profile", "gaussian", "--grid=-1e3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "bounds_gaussian.dat").splitlines()
        ratio = float(lines[1].split()[1])
        assert ratio >= 0.249

    def test_gaussian_near_anchor_fails_window(self, tmp_path, capsys):
        code = main([
            "bounds", "--profile", "gaussian", "--grid=-10",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "FAIL bounds" in capsys.readouterr().out

    def test_ratio_where_t_squared_overflows(self, tmp_path, capsys):
        code = main([
            "bounds", "--profile", "logrecip", "--grid=-1e200",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.endswith("ratios 4.59517e-198\n")

    @pytest.mark.parametrize("profile,grid", [("logrecip", "-1e307"),
                                              ("gaussian", "-1e160")])
    def test_infinite_bound_is_usage_error(self, tmp_path, capsys, profile, grid):
        code = main([
            "bounds", "--profile", profile, f"--grid={grid}",
            "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bounds: profile '{profile}' has bound inf at t = ")
        assert not list(tmp_path.iterdir())

    def test_table_profile_from_file(self, tmp_path):
        table = tmp_path / "profile.txt"
        table.write_text("-1000.0 1.0\n-1.0 1.0\n")
        code = main([
            "bounds", "--profile", str(table), "--grid=-100,-500",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "bounds_custom.dat").splitlines()
        # constant unit gap: upper bound is d0 + (t0 - t) = 1 + (t0 - t)
        t, ratio = lines[1].split()
        assert float(ratio) == pytest.approx((1.0 + 99.0) / 1e4, rel=1e-12)


class TestVerifyCommand:
    def test_full_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        report = read(tmp_path / "verify_report.txt").splitlines()
        assert len(report) == 11
        assert all(line.startswith("PASS") for line in report)
        assert out.count("PASS") == 11

    def test_seed_override_still_passes(self, tmp_path):
        assert main(["verify", "--seed", "7", "--out", str(tmp_path)]) == 0


class TestOutputRouting:
    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PETALLAB_OUT", str(tmp_path / "enved"))
        code = main(["speeds", "--model", "strip-slit", "--kmax", "2"])
        assert code == 0
        assert (tmp_path / "enved" / "speeds_strip-slit_p0.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PETALLAB_OUT", str(tmp_path / "enved"))
        code = main([
            "speeds", "--model", "strip-slit", "--kmax", "2",
            "--out", str(tmp_path / "flagged"),
        ])
        assert code == 0
        assert (tmp_path / "flagged" / "speeds_strip-slit_p0.csv").exists()
        assert not (tmp_path / "enved").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "# experiment setup\n"
            "model = strip-slit\n"
            "kmax = 3\n"
            f"out = {tmp_path / 'cfgout'}\n"
        )
        code = main(["speeds", "--config", str(config)])
        assert code == 0
        lines = read(tmp_path / "cfgout" / "speeds_strip-slit_p0.csv").splitlines()
        assert len(lines) == 5

    def test_flags_beat_config(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("model = strip-slit\nkmax = 12\n")
        code = main([
            "speeds", "--config", str(config), "--kmax", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = read(tmp_path / "speeds_strip-slit_p0.csv").splitlines()
        assert len(lines) == 4

    def test_dashed_keys_accepted(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("model = strip-slit\nbase-re = 1.5\nkmax = 2\n")
        code = main(["speeds", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("flavor = chocolate\n")
        code = main(["speeds", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main([
            "speeds", "--config", str(tmp_path / "nope.cfg"),
            "--out", str(tmp_path),
        ])
        assert code == 2


# The flags each subcommand reads; every subcommand also takes --out and
# --config.
TAKES = {
    "speeds": {"model", "petal", "base-re", "base-im", "kmin", "kmax", "grid"},
    "asymptote": {"model", "petal", "base-re", "base-im", "kmin", "kmax", "grid", "tol"},
    "forward": {"model", "petal", "base-re", "base-im", "kmin", "kmax", "tol"},
    "hmeasure": {"model", "petal", "base-re", "base-im", "kmax"},
    "bounds": {"profile", "grid"},
    "verify": {"seed"},
}
FLAG_VALUES = {
    "model": "strip-slit", "petal": "0", "base-re": "1.5", "base-im": "0.4",
    "kmin": "4", "kmax": "8", "grid": "-1,-2", "profile": "gaussian",
    "seed": "3", "tol": "0.1",
}


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_takes_exactly_the_flags_it_reads(self, command):
        parser = _build_parser()
        for flag in [*FLAG_VALUES, "out", "config"]:
            argv = [command, f"--{flag}={FLAG_VALUES.get(flag, 'x')}"]
            if flag in TAKES[command] or flag in ("out", "config"):
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as info:
                    parser.parse_args(argv)
                assert info.value.code == 2, (command, flag)

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_config_key_it_does_not_read_is_usage_error(self, tmp_path, capsys, command):
        for flag in sorted(set(FLAG_VALUES) - TAKES[command]):
            config = tmp_path / "exp.cfg"
            config.write_text(f"{flag} = {FLAG_VALUES[flag]}\n")
            code = main([command, "--config", str(config), "--out", str(tmp_path)])
            assert code == 2, (command, flag)
            key = flag.replace("-", "_")
            assert f"{command} takes no key {key!r}" in capsys.readouterr().err
        assert not any(tmp_path.glob("*_*"))

    @pytest.mark.parametrize("argv", [
        ["forward", "--model", "strip-slit", "--grid=1,2,4"],
        ["verify", "--tol", "1e-12", "--model", "moon", "--profile", "nope"],
        ["bounds", "--profile", "gaussian", "--grid=-1e3", "--model", "moon",
         "--seed", "3", "--tol", "1e-9"],
    ], ids=["forward-grid", "verify-tol-model-profile", "bounds-model-seed-tol"])
    def test_unread_flags_exit_two(self, tmp_path, argv):
        # These ran, and exited 0, while silently ignoring the flags.
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert not list(tmp_path.iterdir())


class TestUsageErrors:
    def test_missing_model(self, tmp_path, capsys):
        assert main(["speeds", "--out", str(tmp_path)]) == 2
        assert "--model is required" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path):
        assert main(["speeds", "--model", "moon", "--out", str(tmp_path)]) == 2

    def test_bad_petal_index(self, tmp_path):
        assert main([
            "speeds", "--model", "koebe-elliptic", "--petal", "3",
            "--out", str(tmp_path),
        ]) == 2

    def test_bad_grid(self, tmp_path):
        assert main([
            "speeds", "--model", "strip-slit", "--grid=-1,apple",
            "--out", str(tmp_path),
        ]) == 2

    def test_forward_time_grid_inverted(self, tmp_path):
        assert main([
            "forward", "--model", "strip-slit", "--kmin", "9", "--kmax", "2",
            "--out", str(tmp_path),
        ]) == 2

    def test_forward_grid_too_short_to_fit(self, tmp_path):
        # The slope is fitted to the tail half of the grid, which needs
        # at least two points.
        for kmin, kmax in (("5", "5"), ("4", "5")):
            assert main([
                "forward", "--model", "strip-slit", "--kmin", kmin, "--kmax", kmax,
                "--out", str(tmp_path),
            ]) == 2
        assert main([
            "forward", "--model", "strip-slit", "--kmin", "4", "--kmax", "6",
            "--out", str(tmp_path),
        ]) == 0

    def test_grid_too_short_to_fit_is_usage_error(self, tmp_path, capsys):
        # The slope is fitted to the tail half of at least 6 samples.
        assert main([
            "asymptote", "--model", "strip-slit", "--grid=-16,-64,-256,-4096",
            "--out", str(tmp_path),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: slope estimation needs at least 6 samples\n")
        assert not list(tmp_path.iterdir())

    def test_grid_not_decreasing_is_usage_error(self, tmp_path, capsys):
        assert main([
            "speeds", "--model", "strip-slit", "--grid=-1,-4,-2",
            "--out", str(tmp_path),
        ]) == 2
        assert capsys.readouterr().err == "error: grid must be strictly decreasing\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--grid=nan", "--grid=-1,-inf"])
    def test_non_finite_time_is_usage_error(self, tmp_path, capsys, flag):
        assert main(["speeds", "--model", "strip-slit", flag, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: orbit time must be finite, got ")

    def test_non_finite_base_is_usage_error(self, tmp_path, capsys):
        assert main([
            "speeds", "--model", "strip-slit", "--base-re", "nan", "--kmax", "2",
            "--out", str(tmp_path),
        ]) == 2
        assert "is not in petal 'upper'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["speeds", "asymptote", "forward"])
    def test_dyadic_exponent_past_float_range(self, tmp_path, capsys, command):
        assert main([
            command, "--model", "strip-slit", "--kmax", "1100", "--out", str(tmp_path),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: dyadic exponent 1100 ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kmin", ["-1075", "-1100"])
    @pytest.mark.parametrize("command", ["speeds", "asymptote", "forward"])
    def test_dyadic_exponent_below_float_range(self, tmp_path, capsys, command, kmin):
        assert main([
            command, "--model", "strip-slit", f"--kmin={kmin}", "--kmax", "0",
            "--out", str(tmp_path),
        ]) == 2
        assert capsys.readouterr().err.startswith(f"error: dyadic exponent k_min = {kmin} ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["-0.1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command,model", [
        ("asymptote", "koebe-elliptic"), ("forward", "strip-slit"),
    ])
    def test_rate_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, command,
                                                        model, tol):
        # Each of these slopes equals its target, so a --tol that could
        # not judge it would print a verdict that means nothing.
        assert main([command, "--model", model, f"--tol={tol}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: rate tolerance must be finite and positive, got ")
        assert not list(tmp_path.iterdir())

    def test_unknown_profile(self, tmp_path):
        assert main(["bounds", "--profile", "cubic", "--out", str(tmp_path)]) == 2

    def test_base_outside_domain(self, tmp_path):
        assert main([
            "speeds", "--model", "strip-slit", "--base-re", "-5",
            "--base-im", "0", "--kmax", "2", "--out", str(tmp_path),
        ]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["orbit"])
        assert info.value.code == 2


def test_import_loads_no_dataclass_machinery():
    # Every subcommand pays this import in a fresh interpreter, and
    # dataclasses, with the inspect module it imports, cost more than
    # petallab itself.  The child compares its own sys.modules before and
    # after, so a module that a site hook loaded first does not count.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import petallab.lab\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
