import io
import json

import numpy as np
import pytest

from conftest import kron_sum, system_document
from kronspec.cli import _fmt, _print_matrix, build_parser, main
from kronspec.sysio import SystemFileError
from kronspec.cli import demo_system
from kronspec.matrices import ConsistencyError, SystemSpec
from kronspec.spectral import summarize


def _write_system(tmp_path, spec, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(system_document(spec)))
    return str(path)


@pytest.fixture
def demo_file(tmp_path):
    return _write_system(tmp_path, demo_system(0.5, 0.7, 2.0))


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestAnalyze:
    def test_demo_discrete_exact(self, demo_file, capsys):
        code = main(["analyze", demo_file, "--mode=discrete", "--exact"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.49 <= spectral radius <= 4.25" in out
        assert "exact:    spectral radius = 0.49  (refined)" in out
        assert "ExactStable" in out

    def test_singular_perron_exact_reaches_the_dense_rung(self, tmp_path, capsys):
        path = _write_system(tmp_path, demo_system(1.5, 0.5, 2.0))
        code = main(["analyze", path, "--mode=discrete", "--exact", "--json"])
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        assert result["status"] == "ExactUnstable" and result["rung"] == "dense"
        assert result["exact"] == pytest.approx(2.25, abs=1e-10)
        assert len(result["eigenvalues"]) == 4

    def test_demo_discrete_bounds_only_is_indeterminate(self, demo_file, capsys):
        code = main(["analyze", demo_file, "--mode=discrete"])
        out = capsys.readouterr().out
        assert code == 2
        assert "Indeterminate" in out
        assert "exact:" not in out

    def test_orthogonal_pair_certified_unstable(self, tmp_path, capsys):
        path = _write_system(tmp_path, SystemSpec(np.eye(2), (_rotation(0.3),)))
        code = main(["analyze", path, "--mode=discrete"])
        out = capsys.readouterr().out
        assert code == 1
        assert "2 <= spectral radius <= 2" in out
        assert "CertifiedUnstable" in out

    def test_pure_contraction_certified_stable(self, tmp_path, capsys):
        path = _write_system(tmp_path, SystemSpec(0.5 * np.eye(2)))
        code = main(["analyze", path, "--mode=discrete"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CertifiedStable" in out

    def test_malformed_file_exits_64(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2, "m": ')
        code = main(["analyze", str(path)])
        assert code == 64
        assert "line" in capsys.readouterr().err

    def test_companion_overflow_exits_70(self, tmp_path, capsys):
        # finite entries, but N = A* A overflows: an error, never a verdict
        path = tmp_path / "huge.json"
        path.write_text(
            '{"d":2,"m":1,"A":[[[1e200,0],[0,0]],[[0,0],[0.5,0]]],'
            '"B":[[[[0,0],[0,0]],[[1,0],[0,0]]]]}'
        )
        code = main(["analyze", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 70
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_json_output_round_trips(self, demo_file, capsys):
        code = main(["analyze", demo_file, "--json", "--exact"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["exit_code"] == code
        assert json.loads(json.dumps(doc)) == doc
        modes = {r["mode"]: r for r in doc["results"]}
        assert modes["discrete"]["exact"] == pytest.approx(0.49, abs=1e-10)
        assert modes["discrete"]["rung"] == "refined"
        assert 0.0 <= modes["discrete"]["bracket_width"] <= 1e-7
        assert modes["discrete"]["map_applications"] > 0
        assert modes["continuous"]["status"] == "CertifiedUnstable"
        assert modes["continuous"]["rung"] == "bounds"
        assert modes["continuous"]["exact"] is None
        assert modes["continuous"]["bracket_width"] is None
        assert modes["continuous"]["map_applications"] == 0


class TestEvolve:
    def test_zero_steps_echoes_outer_product(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]", "--steps", "0"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        doc = json.loads(out[0])
        assert doc["V"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        assert doc["second_moment"] == 1.0

    def test_both_routes_report_small_discrepancy(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--steps", "3", "--route", "both"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        trailer = json.loads(lines[-1])
        assert trailer["max_route_discrepancy"] <= 1e-8

    def test_continuous_outputs_hermitian_psd(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=continuous", "--u", "[[1,0],[0,0]]",
             "--times", "0,0.5,1.0"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 3
        for line in lines:
            v = np.array(
                [[complex(re, im) for re, im in row] for row in json.loads(line)["V"]]
            )
            assert np.max(np.abs(v - v.conj().T)) <= 1e-8 * max(1.0, np.max(np.abs(v)))
            assert np.min(np.linalg.eigvalsh((v + v.conj().T) / 2)) >= -1e-8

    def test_continuous_both_routes(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=continuous", "--u", "[[1,0],[0,0]]",
             "--times", "0.5,1.0", "--route", "both"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert json.loads(lines[-1])["max_route_discrepancy"] <= 1e-6

    def test_distinct_vectors_have_null_second_moment(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--v", "[[0,0],[1,0]]", "--steps", "1"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert all(json.loads(line)["second_moment"] is None for line in lines)

    def test_dimension_mismatch_exits_65(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=discrete", "--u", "[[1,0]]", "--steps", "1"]
        )
        assert code == 65
        assert "dimension" in capsys.readouterr().err

    def test_overflow_exits_70(self, tmp_path, capsys):
        path = _write_system(tmp_path, SystemSpec(10.0 * np.eye(2)))
        code = main(
            ["evolve", path, "--mode=discrete", "--u", "[[1,0],[0,0]]", "--steps", "500"]
        )
        assert code == 70

    def test_ode_work_budget_refused_before_the_kronecker_route(self, tmp_path, monkeypatch,
                                                               capsys):
        # beta = 2e7: the Taylor route needs 2e6 substeps of degree 55 to t = 1,
        # refused before the Kronecker route builds C
        monkeypatch.setattr("kronspec.kronsum._kronecker_sum", _fail)
        path = _write_system(tmp_path, SystemSpec(np.array([[0.0, 1e7], [-1e7, 0.0]])))
        code = main(
            ["evolve", path, "--mode=continuous", "--u", "[[1,0],[0,0]]",
             "--times", "1", "--route", "both"]
        )
        assert code == 65
        err = capsys.readouterr().err
        assert err.startswith("error: Taylor propagation needs") and "over the budget" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, u, v, times, rel", [
        # V(0) = 1e308 (1 + i) and V' = 0: the two routes print the same bytes
        ("0", "[[1e154,0]]", "[[1e154,-1e154]]", "0,1", 0.0),
        # V' = ln 2 V: V(1) = 9.8e307 (1 + i), where the Pade route rounds one ulp off
        ("0.34657359027997264", "[[0.7e154,0]]", "[[0.7e154,-0.7e154]]", "1", 1e-15),
    ], ids=["zero-drift", "doubling"])
    def test_kronecker_route_near_the_top_of_double_range(self, a, u, v, times, rel, tmp_path,
                                                         capsys):
        path = tmp_path / "scalar.json"
        path.write_text(f'{{"d":1,"m":0,"A":[[[{a},0]]],"B":[]}}')
        runs = {}
        for route in ("kronecker", "ode"):
            code = main(["evolve", str(path), "--mode", "continuous", "--u", u, "--v", v,
                         "--times", times, "--route", route])
            out, err = capsys.readouterr()
            assert (code, err) == (0, "")
            assert "Infinity" not in out
            runs[route] = out
        if rel == 0.0:
            assert runs["kronecker"] == runs["ode"]
        for kron_line, ode_line in zip(*(runs[r].splitlines() for r in ("kronecker", "ode"))):
            got, want = (np.array(json.loads(line)["V"]) for line in (kron_line, ode_line))
            assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))

    def test_bad_route_exits_65(self, demo_file, capsys):
        code = main(
            ["evolve", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--steps", "1", "--route", "ode"]
        )
        assert code == 65
        assert "route" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_system_passes_exactly(self, tmp_path, capsys):
        path = _write_system(tmp_path, SystemSpec(np.diag([0.5, 0.25])))
        code = main(
            ["simulate", path, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--paths", "64", "--seed", "42", "--horizon", "6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out

    def test_demo_system_passes(self, demo_file, capsys):
        code = main(
            ["simulate", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--paths", "20000", "--seed", "42", "--horizon", "10"]
        )
        assert code == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, demo_file, capsys):
        argv = ["simulate", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
                "--paths", "5000", "--seed", "7", "--horizon", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_output(self, demo_file, capsys):
        code = main(
            ["simulate", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--paths", "5000", "--seed", "7", "--horizon", "5", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_passed"] is True
        assert doc["results"][0]["checkpoint"] == 5

    def test_continuous_mode(self, demo_file, capsys):
        code = main(
            ["simulate", demo_file, "--mode=continuous", "--u", "[[1,0],[0,0]]",
             "--paths", "5000", "--seed", "3", "--dt", "0.01", "--horizon", "1.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out

    def test_overflow_exits_70(self, tmp_path, capsys):
        path = _write_system(tmp_path, SystemSpec(1e3 * np.eye(2)))
        code = main(
            ["simulate", path, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--paths", "4", "--seed", "1", "--horizon", "300"]
        )
        assert code == 70
        assert "overflowed" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, header", [
        ("continuous", "horizon=1 dt=0.333333333333\n"),
        ("discrete", "horizon=1\n"),
    ], ids=["continuous", "discrete"])
    def test_header_shows_the_step_taken(self, mode, header, demo_file, capsys):
        # continuous mode takes 3 steps of 1/3, discrete mode ignores --dt
        code = main(["simulate", demo_file, f"--mode={mode}", "--u", "[[1,0],[0,0]]",
                     "--paths", "64", "--dt", "0.3", "--horizon", "1"])
        assert code in (0, 1)
        assert capsys.readouterr().out.splitlines(keepends=True)[0].endswith(header)

    @pytest.mark.parametrize("a", ["1e307", "-1e307"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_euler_maruyama_step_exits_70(self, a, tmp_path, capsys):
        path = tmp_path / "big307.json"
        path.write_text(_SCALAR % a)
        code = main(["simulate", str(path), "--mode=continuous", "--u", "[[1,0]]",
                     "--paths", "4", "--dt", "100", "--horizon", "100"])
        captured = capsys.readouterr()
        _assert_one_error_line(captured, code, 70)
        assert "Euler-Maruyama system at dt = 100 overflowed" in captured.err

    def test_fractional_discrete_horizon_exits_65(self, demo_file, capsys):
        code = main(
            ["simulate", demo_file, "--mode=discrete", "--u", "[[1,0],[0,0]]",
             "--paths", "64", "--seed", "1", "--horizon", "2.5"]
        )
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "integer step count" in captured.err


class TestDemo:
    def test_default_parameters_pass(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_zero_noise(self, capsys):
        code = main(["demo", "--a", "0.5", "--b", "0.7", "--sigma", "0"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_degenerate_drift(self, capsys):
        code = main(["demo", "--a", "0.6", "--b", "0.6", "--sigma", "1.5"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("option, value", [("--a", "-1e-3"), ("--sigma", "-2.5e-1")])
    def test_negative_value_in_scientific_notation(self, option, value, capsys):
        # argparse's own negative-number pattern (Python 3.10, 3.11) has no
        # exponent, so a separate value once read as an option and exited 65
        code = main(["demo", option, value])
        spaced = capsys.readouterr()
        assert code == 0 and spaced.err == ""
        assert main(["demo", f"{option}={value}"]) == 0
        assert spaced.out == capsys.readouterr().out
        assert "FAIL" not in spaced.out

    def test_prints_the_complex_sums_and_their_spectral_values(self, capsys):
        # the demo system is real, so the real forms it prints are D and C bit
        # for bit: the blocks and the rho(D) and alpha(C) lines are those of
        # the np.kron formula, signed zeros included
        for a in (-0.6, -0.0, 0.0, 0.5):
            for b in (-0.7, -0.0, 0.0, 0.7):
                for sigma in (-2.0, -0.0, 0.0, 1.5):
                    main(["demo", f"--a={a}", f"--b={b}", f"--sigma={sigma}"])
                    out = capsys.readouterr().out
                    spec = demo_system(a, b, sigma)
                    d_sum, c_sum = kron_sum(spec, "discrete"), kron_sum(spec, "continuous")
                    for name, want in (("D (discrete", d_sum), ("C (continuous", c_sum)):
                        block = io.StringIO()
                        _print_matrix(want, block)
                        assert f"\n{name} stochastic Kronecker sum):\n{block.getvalue()}" in out
                    assert f"rho(D)   = {_fmt(summarize(d_sum).radius):<16} expected" in out
                    assert f"alpha(C) = {_fmt(summarize(c_sum).abscissa):<16} expected" in out


U = "[[1,0],[0,0]]"
_U65 = json.dumps([[1, 0]] + [[0, 0]] * 64)


def _fail(*args, **kwargs):
    raise AssertionError("forbidden work started")


def _assert_one_error_line(captured, code, want):
    """A failure exits with its table code, prints nothing on stdout and one error line."""
    assert code == want
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "--sigma", "nan"],
        ["bench", "--dims", "4"],
        ["analyze", "FILE", "--exat"],
        ["analyze"],
        ["evolve", "FILE", "--steps", "2"],
        ["evolve", "FILE", "--u", U, "--steps", "x"],
        ["analyze", "FILE", "--mode", "sideways"],
        ["evolve", "FILE", "--mode", "discrete", "--u", U, "--steps", "1000000000000"],
        ["evolve", "FILE", "--mode", "discrete", "--u", U],
        ["evolve", "FILE", "--mode", "continuous", "--u", U],
    ],
    ids=["demo-sigma-nan", "bench-unknown-command", "analyze-unknown-option", "analyze-no-file",
         "evolve-no-u", "evolve-steps-x", "analyze-mode-sideways", "evolve-steps-over-budget",
         "evolve-discrete-no-steps", "evolve-continuous-no-times"],
)
def test_bad_arguments_exit_65(argv, demo_file, capsys):
    code = main([demo_file if a == "FILE" else a for a in argv])
    _assert_one_error_line(capsys.readouterr(), code, 65)


def test_one_parser_per_process_parses_like_a_fresh_one(demo_file, capsys):
    # a reused parser keeps no state from earlier calls: --v falls back to --u
    # after a call that set it, and a usage error leaves the parser working
    u, v = "[[1,0],[0,0]]", "[[0,0],[1,0]]"
    calls = [
        ["evolve", demo_file, "--u", u, "--v", v, "--steps", "2"],
        ["evolve", demo_file, "--u", u, "--steps", "2"],
        ["evolve", demo_file, "--u", u, "--steps", "x"],
        ["evolve", demo_file, "--mode", "continuous", "--u", u, "--times", "0.5,1"],
    ]
    build_parser.cache_clear()
    shared = []
    for argv in calls:
        code = main(argv)
        shared.append((code, *capsys.readouterr()))
    assert build_parser() is build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 65, 0]
    # v = u makes the trace a second moment; distinct vectors leave it null
    assert json.loads(shared[0][1].splitlines()[-1])["second_moment"] is None
    assert json.loads(shared[1][1].splitlines()[-1])["second_moment"] is not None
    for argv, result in zip(calls, shared):
        build_parser.cache_clear()
        code = main(argv)
        assert (code, *capsys.readouterr()) == result


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--exact" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_system_file_exits_64(kind, tmp_path, capsys):
    path = tmp_path / "system.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'\xff\xfe{"d": 2}')
    code = main(["analyze", str(path)])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 64)
    assert "cannot read system file" in captured.err


@pytest.mark.parametrize(
    "extra, reason",
    [
        (["--mode=discrete", "--horizon", "inf"], "finite"),
        (["--mode=discrete", "--horizon", "nan"], "finite"),
        (["--mode=continuous", "--dt", "0.1", "--horizon", "inf"], "finite"),
        (["--mode=continuous", "--dt", "inf", "--horizon", "1"], "finite"),
        (["--mode=continuous", "--dt", "1e-300", "--horizon", "1"], "budget"),
        (["--mode=discrete", "--horizon", "1e300"], "budget"),
        (["--mode=continuous", "--dt", "5e-324", "--horizon", "1"], "budget"),
        (["--mode=continuous", "--dt", "1e-320", "--horizon", "1e10"], "budget"),
    ],
    ids=["discrete-horizon-inf", "discrete-horizon-nan", "continuous-horizon-inf",
         "continuous-dt-inf", "continuous-dt-1e-300", "discrete-horizon-1e300",
         "continuous-dt-5e-324", "continuous-dt-1e-320-horizon-1e10"],
)
def test_simulate_bad_horizon_or_dt_exits_65(extra, reason, demo_file, capsys):
    code = main(["simulate", demo_file, "--u", U, "--paths", "4", *extra])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 65)
    assert reason in captured.err


@pytest.mark.parametrize("route", ["ode", "kronecker", "both"])
@pytest.mark.parametrize("times", ["inf", "nan", "0.5,inf"])
def test_evolve_non_finite_times_exit_65(times, route, demo_file, capsys):
    code = main(["evolve", demo_file, "--mode=continuous", "--u", U, "--times", times,
                 "--route", route])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 65)
    assert "finite" in captured.err


@pytest.mark.filterwarnings("error")  # overflow is one error line, never a warning first
@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "FILE", "--mode=continuous", "--u", "[[1,0]]", "--times", "1",
         "--route", "kronecker"],
        ["demo", "--a", "1e200"],
        ["evolve", "OK", "--mode=discrete", "--u", "[[1e300,0]]", "--steps", "0",
         "--route", "direct"],
        ["evolve", "OK", "--mode=discrete", "--u", "[[1e300,0]]", "--steps", "1",
         "--route", "kronecker"],
        ["evolve", "OK", "--mode=continuous", "--u", "[[1e300,0]]", "--times", "1",
         "--route", "both"],
    ],
    ids=["continuous-kronecker", "demo-a-1e200", "initial-outer-discrete-direct",
         "initial-outer-discrete-kronecker", "initial-outer-continuous-both"],
)
def test_kronecker_sum_overflow_exits_70(argv, tmp_path, capsys):
    # finite entries, but B (x) B and B* B leave double range (FILE), or, on
    # a tame system (OK), the initial covariance u u* does
    path = tmp_path / "big_b.json"
    path.write_text('{"d":1,"m":1,"A":[[[0.5,0]]],"B":[[[[1e155,0]]]]}')
    ok = tmp_path / "ok.json"
    ok.write_text('{"d":1,"m":0,"A":[[[0.5,0]]],"B":[]}')
    files = {"FILE": str(path), "OK": str(ok)}
    code = main([files.get(a, a) for a in argv])
    _assert_one_error_line(capsys.readouterr(), code, 70)


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["evolve", "D65", "--mode=continuous", "--u", _U65, "--times", "1", "--route", "both"],
         "stochastic Kronecker sum C has 4225 rows, over the dense ceiling of 4096"),
        (["evolve", "DEMO", "--u", U, "--steps", "1000000000000"],
         "trajectory of 1000000000000 steps holds 1.28e+14 bytes, over the budget of 6.4e+07"),
        # the demo recursion to step 800000: 1.05e11 multiply-adds
        (["simulate", "DEMO", "--u", U, "--paths", "2", "--horizon", "800000"],
         "multiply-adds, over the budget of 1e+11"),
        # the Taylor route to t = 1 at beta = 4e5: 2.91e11 multiply-adds
        (["simulate", "STIFF", "--mode=continuous", "--u", U, "--paths", "2", "--dt", "1e-6",
          "--horizon", "1"],
         "multiply-adds (beta = 4e+05, mu = -4e+05), over the budget of 1e+11"),
        # |tr B|**2 = 1e310 puts mu and beta, and with them the route's price, out of range
        (["evolve", "BIG_B", "--mode=continuous", "--u", "[[1,0]]", "--times", "1",
          "--route", "ode"],
         "needs inf map applications, inf multiply-adds (beta = inf, mu = inf), over the budget"),
        (["simulate", "DEMO", "--mode=continuous", "--u", U, "--dt", "1e-7", "--horizon", "1"],
         "simulation needs 1e+07 steps, over the budget of 1e+06"),
        (["simulate", "DEMO", "--u", U, "--horizon", "1", "--paths", "1000000000000"],
         "multiply-adds, over the budget of 8e+09"),
        # counts past double range read as inf in the message
        (["evolve", "DEMO", "--u", U, "--steps", str(10**400)],
         "0 steps holds inf bytes, over the budget of 6.4e+07"),
        (["simulate", "DEMO", "--u", U, "--horizon", "1", "--paths", str(10**400)],
         "simulation needs inf multiply-adds, over the budget of 8e+09"),
    ],
    ids=["dense-ceiling", "trajectory-bytes", "recursion-work", "taylor-work",
         "taylor-work-beta-inf", "montecarlo-steps", "montecarlo-work",
         "trajectory-bytes-past-double", "montecarlo-work-past-double"],
)
@pytest.mark.filterwarnings("error")
def test_pre_work_limit_refused_before_any_work(argv, limit, d65_file, tmp_path, monkeypatch,
                                                capsys):
    # every limit on dense, trajectory or path work refuses before that work starts
    demo = _write_system(tmp_path, demo_system(0.5, 0.7, 2.0), "demo.json")
    stiff = _write_system(tmp_path, SystemSpec(np.diag([-4e5, 0.0]), (1e-3 * np.eye(2),)),
                          "stiff.json")
    big_b = tmp_path / "big_b.json"
    big_b.write_text('{"d":1,"m":1,"A":[[[0.5,0]]],"B":[[[[1e155,0]]]]}')
    for target in ("kronspec.kronsum.second_moment_map", "kronspec.evolution.second_moment_map",
                   "numpy.kron", "kronspec.kronsum._kronecker_sum",
                   "kronspec.montecarlo._draw_noise"):
        monkeypatch.setattr(target, _fail)
    files = {"DEMO": demo, "D65": d65_file, "STIFF": stiff, "BIG_B": str(big_b)}
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 65)
    assert limit in captured.err


@pytest.mark.parametrize("mode, extra", [
    ("discrete", ["--horizon", "800000"]),
    ("continuous", ["--dt", "1e-6", "--horizon", "1"]),
])
def test_simulate_exact_side_budget_precedes_the_paths_budget(mode, extra, tmp_path, monkeypatch,
                                                              capsys):
    # over both budgets: the exact side is priced first
    monkeypatch.setattr("kronspec.montecarlo._simulate", _fail)
    spec = (demo_system(0.5, 0.7, 2.0) if mode == "discrete"
            else SystemSpec(np.diag([-4e5, 0.0]), (1e-3 * np.eye(2),)))
    code = main(["simulate", _write_system(tmp_path, spec), f"--mode={mode}", "--u", U,
                 "--paths", "1000000000000", *extra])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 65)
    assert "map applications" in captured.err


@pytest.mark.filterwarnings("error")
def test_moment_sum_overflow_exits_70(tmp_path, capsys):
    # the paths stay finite (1e78 after two steps), but |x|^4 leaves double range
    path = tmp_path / "big.json"
    path.write_text('{"d":1,"m":1,"A":[[[1e39,0]]],"B":[[[[1,0]]]]}')
    code = main(["simulate", str(path), "--u", "[[1,0]]", "--horizon", "2", "--paths", "4"])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 70)
    assert "moment sums overflowed" in captured.err


_BIG_INT = "1" + "0" * 400
_SCALAR = '{"d":1,"m":0,"A":[[[%s,0]]],"B":[]}'


@pytest.mark.parametrize(
    "system, u, want, message",
    [
        (_SCALAR % _BIG_INT, "[[1,0]]", 64, "non-finite complex entry (at A[0][0])"),
        (_SCALAR % ("1" * 5000), "[[1,0]]", 64, "invalid JSON"),
        ("[" * 100_000, "[[1,0]]", 64, "invalid JSON"),
        (_SCALAR % "0.5", f"[[{_BIG_INT},0]]", 65, "non-finite complex entry (at [0])"),
        (_SCALAR % "0.5", "[" * 100_000, 65, "invalid vector JSON"),
    ],
    ids=["file-400-digits", "file-5000-digits", "file-deep", "vector-400-digits", "vector-deep"],
)
def test_json_python_cannot_hold_is_bad_input(system, u, want, message, tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(system)
    code = main(["evolve", str(path), "--u", u, "--steps", "1"])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, want)
    assert message in captured.err


_COMMANDS = {
    "analyze": ("classify_stability", ["analyze", "FILE"]),
    "evolve": ("propagate_discrete", ["evolve", "FILE", "--u", U, "--steps", "2"]),
    "simulate": ("simulate_discrete", ["simulate", "FILE", "--u", U, "--horizon", "2"]),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize(
    "error, want",
    [
        (SystemFileError("bad file"), 64),
        (ValueError("bad value"), 65),
        (OverflowError("overflowed"), 70),
        (RuntimeError("step budget"), 70),
        (ConsistencyError("chain violated"), 70),
        (MemoryError(), 70),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x),
)
def test_failure_table_sets_exit_code(command, error, want, demo_file, monkeypatch, capsys):
    target, argv = _COMMANDS[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"kronspec.cli.{target}", fail)
    code = main([demo_file if a == "FILE" else a for a in argv])
    _assert_one_error_line(capsys.readouterr(), code, want)



@pytest.fixture
def d65_file(tmp_path):
    """A stable d = 65 system: its D and C are past the dense ceiling of 4096 rows."""
    return _write_system(tmp_path, SystemSpec(-0.5 * np.eye(65), (0.1 * np.eye(65),)))


@pytest.fixture
def sp65_file(tmp_path):
    """The singular-Perron demo padded with zeros to d = 65: only the dense rung decides it."""
    demo = demo_system(1.5, 0.5, 2.0)
    spec = SystemSpec(np.pad(demo.a, (0, 63)), (np.pad(demo.noise_mats[0], (0, 63)),))
    return _write_system(tmp_path, spec, "sp65.json")


def test_d65_analyze_gives_a_verdict(d65_file, capsys):
    code = main(["analyze", d65_file])
    assert code == 0
    assert capsys.readouterr().out.count("CertifiedStable") == 2


def test_d65_exact_decides_on_the_refined_rung(tmp_path, monkeypatch, capsys):
    # the seed-0 d = 65 system of test_kronsum's TestDenseCeiling: its bounds straddle 1
    rng = np.random.default_rng(0)
    d = 65
    a = rng.standard_normal((d, d)) / np.sqrt(d)
    noise = tuple(0.5 * rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(2))
    path = _write_system(tmp_path, SystemSpec(0.7 * a, noise))
    monkeypatch.setattr("numpy.kron", _fail)
    code = main(["analyze", path, "--mode=discrete", "--exact"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(refined)" in out and "ExactStable" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "FILE", "--u", _U65, "--steps", "2", "--route", "direct"],
        ["evolve", "FILE", "--mode=continuous", "--u", _U65, "--times", "0.5,1", "--route", "ode"],
        ["simulate", "FILE", "--u", _U65, "--paths", "4", "--horizon", "2"],
        ["simulate", "FILE", "--mode=continuous", "--u", _U65, "--paths", "4", "--dt", "0.1",
         "--horizon", "1"],
    ],
    ids=["evolve-direct", "evolve-ode", "simulate-discrete", "simulate-continuous"],
)
def test_d65_runs_the_d_by_d_routes(argv, d65_file, capsys):
    code = main([d65_file if a == "FILE" else a for a in argv])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "SP65", "--exact"],
        ["evolve", "FILE", "--u", _U65, "--steps", "2", "--route", "kronecker"],
        ["evolve", "FILE", "--u", _U65, "--steps", "2", "--route", "both"],
        ["evolve", "FILE", "--mode=continuous", "--u", _U65, "--times", "1", "--route", "kronecker"],
        ["evolve", "FILE", "--mode=continuous", "--u", _U65, "--times", "1", "--route", "both"],
    ],
    ids=["analyze-exact", "evolve-discrete-kronecker", "evolve-discrete-both",
         "evolve-continuous-kronecker", "evolve-continuous-both"],
)
def test_d65_dense_work_refused_before_any_other_work(argv, d65_file, sp65_file, monkeypatch,
                                                      capsys):
    for target in ("numpy.kron", "kronspec.evolution._recursion",
                   "kronspec.evolution._taylor_on_grid", "kronspec.montecarlo._draw_noise"):
        monkeypatch.setattr(target, _fail)
    files = {"FILE": d65_file, "SP65": sp65_file}
    code = main([files.get(a, a) for a in argv])
    captured = capsys.readouterr()
    _assert_one_error_line(captured, code, 65)
    assert "over the dense ceiling of 4096" in captured.err
