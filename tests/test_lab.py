"""Tests for the command-line laboratory driver."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import petallab
from petallab import speeds, verify
from petallab.bounds import gaussian_profile, logrecip_profile
from petallab.hypcore import DomainError, PrecisionError
from petallab.lab import UsageError, _parse_argv, main
from petallab.models import by_name
from petallab.speeds import speed_series

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

    def test_readme_run_matches_the_committed_file(self, tmp_path):
        # tests/data holds the file the README's speeds command writes; a
        # change that moves a row on purpose rewrites it and says which
        # rows moved.
        assert main(["speeds", "--model", "strip-slit", "--petal", "0", "--kmax", "16",
                     "--out", str(tmp_path)]) == 0
        name = "speeds_strip-slit_p0.csv"
        committed = Path(__file__).resolve().parent / "data" / name
        assert (tmp_path / name).read_bytes() == committed.read_bytes()

    def test_parabolic_run_matches_the_committed_file(self, tmp_path):
        # The parabolic petal read out to t = -2^60, whose orbit angle's gap
        # to pi is of order 1e-18 there.
        assert main(["speeds", "--model", "sector-parabolic", "--petal", "0", "--kmax", "60",
                     "--out", str(tmp_path)]) == 0
        name = "speeds_sector-parabolic_p0.csv"
        committed = Path(__file__).resolve().parent / "data" / name
        assert (tmp_path / name).read_bytes() == committed.read_bytes()

    @pytest.mark.parametrize("model,petal,base_re,base_im,kmax,committed", [
        # A base whose image's height lies far below ulp of its real part,
        # where eta is vertical: v_o is read from the base's log height
        # (ROADMAP item 16; 19.542625377235272 at t = -1, as mpmath gives).
        ("sector-parabolic", "0", "-2.5", "1e-17", "2",
         "speeds_sector-parabolic_p0_near_axis.csv"),
        # A base 1e-20 above koebe-elliptic's slit, where arg w0 rounds onto
        # pi: the slit plane holds it, and its samples match mpmath to
        # 2.2e-16 out to t = -2^60.
        ("koebe-elliptic", "0", "-2", "1e-20", "60", "speeds_koebe-elliptic_p0_near_slit.csv"),
        # A base far left along strip-slit's lower petal, whose image lies
        # next to the finite sigma: the eta frame sends sigma to infinity,
        # and the samples match mpmath to 4.4e-16 out to t = -2^60
        # (ROADMAP item 17).
        ("strip-slit", "1", "-19.406498421755607", "-1.5707963267948963", "60",
         "speeds_strip-slit_p1_near_sigma.csv"),
    ], ids=["sector-parabolic", "koebe-elliptic", "strip-slit-near-sigma"])
    def test_near_axis_run_matches_the_committed_file(self, tmp_path, model, petal, base_re,
                                                      base_im, kmax, committed):
        # The file name is the default base's run's, so tests/data keeps
        # each under its own.
        assert main(["speeds", "--model", model, "--petal", petal, "--base-re", base_re,
                     "--base-im", base_im, "--kmax", kmax, "--out", str(tmp_path)]) == 0
        committed = Path(__file__).resolve().parent / "data" / committed
        assert (tmp_path / f"speeds_{model}_p{petal}.csv").read_bytes() == committed.read_bytes()

    @pytest.mark.parametrize("model,petal", [("strip-slit", "1"), ("koebe-elliptic", "0")])
    def test_other_petal_runs_match_the_committed_files(self, tmp_path, model, petal):
        # With the two runs above, every catalog petal's samples out to
        # t = -2^60 are held bit for bit.
        assert main(["speeds", "--model", model, "--petal", petal, "--kmax", "60",
                     "--out", str(tmp_path)]) == 0
        name = f"speeds_{model}_p{petal}.csv"
        committed = Path(__file__).resolve().parent / "data" / name
        assert (tmp_path / name).read_bytes() == committed.read_bytes()

    def test_precision_refusals_name_their_layer(self, tmp_path, capsys, monkeypatch):
        # A precision refusal is a DomainError: the usage-error status 2.
        assert issubclass(PrecisionError, DomainError)
        # At t = -2^1023 the true Re L is about -2^1024, past float range.
        assert main(["speeds", "--model", "strip-slit", "--petal", "0", "--kmin", "1020",
                     "--kmax", "1023", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: confmap.SlitCloseStep.apply_log: 2 Re L is past float range at "
            "L = (-8.98846567431158e+307+0.7853981633974483j)\n")
        # From -3 + 1e-300 i the parabolic orbit angle's gap underflows to 0.
        assert main(["speeds", "--model", "sector-parabolic", "--petal", "0",
                     "--base-re", "-3", "--base-im", "1e-300", "--grid=-1e24",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: models.uhp_orbit: sector-parabolic orbit from (-3+1e-300j) at "
            "t = -1e+24: signed log offset needs Im in (-pi, 0), got 0.0\n")
        # A framed angle planted onto the real axis.
        monkeypatch.setattr(speeds, "uhp_log_framed", lambda p, c: complex(0.0, math.pi))
        assert main(["speeds", "--model", "strip-slit", "--petal", "0", "--kmax", "2",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: speeds._sample_at: zero gap at t = -1.0, framed angle 3.141592653589793\n")

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["speeds", "--model", "koebe-elliptic", "--kmax", "12",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = read(tmp_path / "speeds_koebe-elliptic_p0.csv")
        assert main(argv) == 0
        second = read(tmp_path / "speeds_koebe-elliptic_p0.csv")
        assert first == second

    def test_csv_shape(self, tmp_path):
        code = main(["speeds", "--model", "strip-slit", "--grid=0,-1,-2",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = read(tmp_path / "speeds_strip-slit_p0.csv").split("\n")
        assert lines[0] == "t,v,v_o,v_T"
        assert lines[1] == "0,0,0,0"
        assert len(lines) == 5  # header + 3 rows + trailing newline split

    def test_csv_seventeen_digits(self, tmp_path):
        assert main(["speeds", "--model", "strip-slit", "--grid=-3",
                     "--out", str(tmp_path)]) == 0
        row = read(tmp_path / "speeds_strip-slit_p0.csv").split("\n")[1].split(",")
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        (sample,) = speed_series(m1, petal, petal.base_default, [-3.0]).samples
        assert [float(x) for x in row] == list(sample)  # round-trips exactly

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
        (text, passed), *_ = verify._check_total_speeds()
        assert passed
        code = main(["asymptote", "--model", "strip-slit", "--out", str(tmp_path)])
        assert code == 0
        summary = parse_summary(tmp_path / "asymptote_strip-slit_p0_summary.txt")
        assert float(summary["slope"]) == rates[0].slope
        assert text.startswith(f"strip-slit/upper: slope {rates[0].slope:.6f} ")

    def test_grid_past_the_square_root_of_float_range(self, tmp_path, capsys):
        # The speeds at |t| = 2^600 are exact; squaring the speeds in the
        # fit's residuals would overflow.
        code = main(["asymptote", "--model", "koebe-elliptic", "--kmin", "600",
                     "--kmax", "612", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS asymptote koebe-elliptic/main: slope -0.250000, target -0.250000" in (
            capsys.readouterr().out)

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

    def test_grid_past_the_square_root_of_float_range(self, tmp_path, capsys):
        # Squares of the times 2^600.. overflow in a plain least-squares fit.
        code = main(["forward", "--model", "strip-slit", "--kmin", "600", "--kmax", "612",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "PASS forward strip-slit: slope 0.500000, target 0.500000" in capsys.readouterr().out

    def test_forward_rate_times_and_exponent_range(self):
        model = by_name("strip-slit")
        base = model.petals[0].base_default
        ts, _, _ = verify.forward_rate(model, base, 4, 16)
        assert ts == [2.0**k for k in range(4, 17)]
        with pytest.raises(DomainError, match=r"^speeds\.dyadic_grid: dyadic exponent 1100 "):
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

    def test_readme_run_matches_the_committed_files(self, tmp_path):
        # tests/data holds the two files the README's hmeasure command
        # writes; a change that moves a line on purpose rewrites them and
        # says which lines moved.
        assert main(["hmeasure", "--model", "strip-slit", "--petal", "0",
                     "--out", str(tmp_path)]) == 0
        data = Path(__file__).resolve().parent / "data"
        for name in ("hmeasure_strip-slit_p0.dat", "hmeasure_strip-slit_p0_summary.txt"):
            assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name

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
        assert all(passed for _, passed in verify._check_approach_angles())
        code = main([
            "hmeasure", "--model", "strip-slit", "--petal", "0",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = parse_summary(tmp_path / "hmeasure_strip-slit_p0_summary.txt")
        (report,) = reports
        assert float(summary["theta"]) == report.theta

    @pytest.mark.parametrize("flags,points,stop", [
        (["--kmax", "3"], "3", "kmax 3 reached"),
        # From base -8 + i pi/4 every disk-chart point lies within the rounding
        # floor of sigma, so the probe keeps none of them.
        (["--base-re", "-8"], "0", "disk_z within 2.22e-08 of sigma at t = -1"),
    ], ids=["kmax", "rounding-floor"])
    def test_too_few_orbit_points_is_inconclusive(self, tmp_path, capsys, flags, points, stop):
        # Too few points is an inconclusive FAIL like a wide spread, and
        # the summary names why the orbit ended.
        code = main(["hmeasure", "--model", "strip-slit", "--petal", "0", *flags,
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out.endswith(
            "FAIL hmeasure strip-slit/upper: inconclusive\n")
        summary = parse_summary(tmp_path / "hmeasure_strip-slit_p0_summary.txt")
        assert summary["status"] == "inconclusive"
        assert summary["points"] == points
        assert summary["orbit_stop"] == stop
        assert summary["reason"] == f"need at least 5 points, got {points}"

    def test_orbit_stops_where_the_disk_chart_is_lost(self, tmp_path):
        # From -0.5 + 1e-12 i the elliptic orbit runs along the slit, and
        # at t = -21 its disk image rounds onto the unit circle: flow gives
        # no disk_z, so the orbit ends there, short of kmax, and the probe
        # keeps the 20 points before it.
        code = main(["hmeasure", "--model", "koebe-elliptic", "--base-re", "-0.5",
                     "--base-im", "1e-12", "--kmax", "60", "--out", str(tmp_path)])
        assert code == 1
        summary = parse_summary(tmp_path / "hmeasure_koebe-elliptic_p0_summary.txt")
        assert summary["points"] == "20"
        assert summary["orbit_stop"] == "disk chart lost at t = -21"
        rows = read(tmp_path / "hmeasure_koebe-elliptic_p0.dat").splitlines()[1:]
        assert [float(row.split()[0]) for row in rows] == [float(-k) for k in range(1, 21)]

    def test_kmax_below_one_is_usage_error(self, tmp_path, capsys):
        code = main(["hmeasure", "--model", "strip-slit", "--kmax", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: an orbit angle needs kmax >= 1, got 0\n"
        assert not list(tmp_path.iterdir())

    def test_base_outside_petal_is_usage_error(self, tmp_path, capsys):
        # 1 - 0.5i lies in strip-slit's lower petal: the upper petal's orbit
        # angle was measured from it and printed an inconclusive FAIL.
        code = main([
            "hmeasure", "--model", "strip-slit", "--petal", "0", "--base-im", "-0.5",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: (1-0.5j) is not in petal 'upper' of strip-slit\n")
        assert not list(tmp_path.iterdir())

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
        # Two times: the decrease rule refuses a grid of one.
        code = main([
            "bounds", "--profile", "logrecip", "--grid=-1e100,-1e200",
            "--out", str(tmp_path),
        ])
        assert code == 0
        # s log(-s) - s over t^2 at -1e100: 2.29259e-98.
        assert capsys.readouterr().out.endswith("ratios 2.29259e-98, 4.59517e-198\n")

    @pytest.mark.parametrize("profile,grid", [("logrecip", "-1e307"),
                                              ("gaussian", "-1e160")])
    def test_infinite_bound_is_usage_error(self, tmp_path, capsys, profile, grid):
        # A finite time first, so that the decrease rule has two times.
        code = main([
            "bounds", "--profile", profile, f"--grid=-1e3,{grid}",
            "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bounds: profile '{profile}' has bound inf at t = ")
        assert not list(tmp_path.iterdir())

    def test_bound_ratios_refuses_an_empty_grid(self):
        for profile in (logrecip_profile(), gaussian_profile()):
            with pytest.raises(DomainError, match=r"^verify\.bound_ratios: grid must not be empty$"):
                verify.bound_ratios(profile, [])

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

    def test_report_matches_the_committed_file(self, tmp_path):
        # tests/data/verify_report.txt is the report at the default seed; a
        # change that moves a line on purpose rewrites the file and says
        # which lines moved.
        assert main(["verify", "--out", str(tmp_path)]) == 0
        committed = Path(__file__).resolve().parent / "data" / "verify_report.txt"
        assert (tmp_path / "verify_report.txt").read_bytes() == committed.read_bytes()

    @pytest.mark.parametrize("seed", [7, 123456])
    def test_seeded_report_matches_the_committed_file(self, tmp_path, seed):
        # The reports at two more seeds, whose draws differ from the default
        # seed's, kept beside it as verify_report_seed<seed>.txt and
        # rewritten the same way.
        assert main(["verify", "--seed", str(seed), "--out", str(tmp_path)]) == 0
        committed = Path(__file__).resolve().parent / "data" / f"verify_report_seed{seed}.txt"
        assert (tmp_path / "verify_report.txt").read_bytes() == committed.read_bytes()


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

    @pytest.mark.parametrize("route", ["out-names-a-file", "env-var-below-a-file"])
    def test_unwritable_out_is_usage_error(self, tmp_path, monkeypatch, capsys, route):
        # Exit 1 is kept for a failed check; these escaped as tracebacks.
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        argv = ["bounds", "--profile", "gaussian", "--grid=-1e3"]
        if route == "out-names-a-file":
            argv += ["--out", str(blocker)]
        else:
            monkeypatch.setenv("PETALLAB_OUT", str(blocker / "sub"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {blocker}")
        assert blocker.read_text() == ""


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
        for flag in [*FLAG_VALUES, "out", "config"]:
            argv = [command, f"--{flag}={FLAG_VALUES.get(flag, 'x')}"]
            if flag in TAKES[command] or flag in ("out", "config"):
                _parse_argv(argv)
            else:
                with pytest.raises(UsageError):
                    _parse_argv(argv)

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
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,same", [
        (["speeds", "--grid", "-1e3,-1e4"], ["speeds", "--grid=-1e3,-1e4"]),
        (["speeds", "--kmax", "3", "--kmax=5"], ["speeds", "--kmax=5"]),
    ], ids=["grid-space-and-equals", "repeated-flag-last-wins"])
    def test_flag_forms_read_the_same(self, argv, same):
        command, args = _parse_argv(argv)
        assert (command, args) == _parse_argv(same)
        assert set(vars(args)) == {flag.replace("-", "_") for flag in FLAG_VALUES} | {
            "out", "config"}

    @pytest.mark.parametrize("command", [None, *sorted(TAKES)])
    def test_help_names_every_flag_and_writes_nothing(self, tmp_path, monkeypatch,
                                                      capsys, command):
        monkeypatch.chdir(tmp_path)
        argv = ["-h"] if command is None else [command, "--help"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        names = TAKES if command is None else [
            f"--{flag}" for flag in [*TAKES[command], "out", "config"]]
        for name in names:
            assert name in out, (command, name)
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

    @pytest.mark.parametrize("argv,config,message", [
        (["speeds", "--config", "{path}"], "model strip-slit\n",
         "{path}:1: expected key = value, got 'model strip-slit\\n'"),
        (["verify", "--config", "{path}"], "seed = abc\n",
         "{path}:1: invalid literal for int() with base 10: 'abc'"),
        (["speeds", "--model", "strip-slit", "--grid=,"], None,
         "--grid must list at least one time"),
        (["bounds"], None, "--profile is required (logrecip, gaussian, or a file path)"),
        # One ratio cannot show a decrease, and a grid out of order would
        # read the ratios backwards.
        (["bounds", "--profile", "logrecip", "--grid=-1e3"], None,
         "verify.bound_ratios: ratios strictly decreasing needs at least two grid times"),
        (["bounds", "--profile", "logrecip", "--grid=-1e4,-1e3"], None,
         "verify.bound_ratios: grid must be strictly decreasing"),
        (["bounds", "--profile", "gaussian", "--grid=-1e3,-1e3"], None,
         "verify.bound_ratios: grid must be strictly decreasing"),
        # Flags are read by the config reader's key check and conversion, so
        # none is matched by a prefix of its name.
        (["speeds", "--mod", "strip-slit"], None, "unknown flag --mod"),
        (["bounds", "--profile", "gaussian", "--model", "strip-slit"], None,
         "bounds takes no flag --model"),
        (["speeds", "--model", "strip-slit", "--kmax"], None, "--kmax needs a value"),
        (["speeds", "--model", "strip-slit", "--kmax", "sixteen"], None,
         "--kmax: invalid literal for int() with base 10: 'sixteen'"),
        (["speeds", "--model", "strip-slit", "--base-re", "1,5"], None,
         "--base-re: could not convert string to float: '1,5'"),
        (["speeds", "--model", "strip-slit", "16"], None, "unexpected argument '16'"),
        (["orbit"], None,
         "unknown command 'orbit' (one of speeds, asymptote, forward, hmeasure, bounds, "
         "verify)"),
    ], ids=["config-line-without-equals", "config-seed-not-int", "empty-grid",
            "bounds-without-profile", "bounds-one-time-under-the-decrease-rule",
            "bounds-grid-increasing", "bounds-grid-repeated", "flag-unknown",
            "flag-not-taken", "flag-without-value", "flag-bad-int", "flag-bad-float",
            "stray-argument", "unknown-command"])
    def test_refused_input(self, tmp_path, capsys, argv, config, message):
        path = tmp_path / "exp.cfg"
        if config is not None:
            path.write_text(config)
        out = tmp_path / "out"
        # --out goes right after the command, so that a row can end on a
        # flag that lacks its value.
        argv = [arg.format(path=path) for arg in argv]
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["speeds", "asymptote"])
    def test_exponents_inverted(self, tmp_path, capsys, command):
        assert main([
            command, "--model", "strip-slit", "--kmin", "5", "--kmax", "3",
            "--out", str(tmp_path),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: speeds.dyadic_grid: dyadic exponent k_min = 5 exceeds k_max = 3\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,content", [
        (["bounds", "--profile", "{path}"], None),
        (["bounds", "--profile", "{path}"], b"-1000.0 1.0\n-1.0 \xff\n"),
        (["speeds", "--config", "{path}"], b"model = strip-slit\xff\n"),
    ], ids=["profile-directory", "profile-not-utf8", "config-not-utf8"])
    def test_unreadable_input_file(self, tmp_path, capsys, argv, content):
        # Exit 1 is kept for a failed check; these escaped as tracebacks.
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        out = tmp_path / "out"
        argv = [arg.format(path=path) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and str(path) in err
        assert not out.exists()

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
        assert capsys.readouterr().err == (
            "error: speeds.speed_series: grid must be strictly decreasing\n")
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
        assert capsys.readouterr().err.startswith(
            "error: speeds.dyadic_grid: dyadic exponent 1100 ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kmin", ["-1075", "-1100"])
    @pytest.mark.parametrize("command", ["speeds", "asymptote", "forward"])
    def test_dyadic_exponent_below_float_range(self, tmp_path, capsys, command, kmin):
        assert main([
            command, "--model", "strip-slit", f"--kmin={kmin}", "--kmax", "0",
            "--out", str(tmp_path),
        ]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: speeds.dyadic_grid: dyadic exponent k_min = {kmin} ")
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
        assert capsys.readouterr().err == (
            "usage: petallab {speeds,asymptote,forward,hmeasure,bounds,verify} "
            "[--flag value ...]\n")

    def test_unknown_subcommand_exits_two(self):
        assert main(["orbit"]) == 2


def test_import_loads_no_dataclass_machinery():
    # Every subcommand pays this import in a fresh interpreter, and
    # dataclasses, with the inspect module it imports, cost more than
    # petallab itself; argparse, with the gettext and locale it loads, a
    # few milliseconds more.  The child compares its own sys.modules before
    # and after, so a module that a site hook loaded first does not count.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import petallab.lab\n"
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}\n"
            "             & (set(sys.modules) - before)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_imports_a_private_name_of_another():
    # An underscore name is its module's own business; another module that
    # needs it should get a public name.
    package = Path(petallab.__file__).parent
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "petallab"):
                imports += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert imports == []
