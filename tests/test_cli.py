import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from conftest import long_denominator_distances, reciprocal_prime_atoms

import obsdiam
import obsdiam.cli as cli
import obsdiam.compression as compression
import obsdiam.proptests as proptests
from obsdiam import DiscreteMeasure, FiniteMMSpace, PiecewiseLinearMap, VerificationError
from obsdiam._rational import render_decimal
from obsdiam.experiments import SHARPNESS_CSV_COLUMNS


@pytest.fixture
def measure_file(tmp_path):
    path = tmp_path / "uniform4.json"
    DiscreteMeasure.uniform([1, 2, 3, 4]).dump(path)
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "x2.json"
    FiniteMMSpace.line_space([1, 2, 3, 4]).dump(path)
    return str(path)


@pytest.fixture
def big_space_file(tmp_path):
    # 11 points trips the exact-engine cap; the heavy first atom keeps any
    # raised-cap run instant (od = 0 by the singleton short-circuit)
    path = tmp_path / "big.json"
    sp = FiniteMMSpace.line_space(range(11), masses=[F(9, 10)] + [F(1, 100)] * 10)
    sp.dump(path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- pd ------------------------------------------------------------------------


def test_pd_text(capsys, measure_file):
    code, out, _ = run(capsys, "pd", measure_file, "--alpha", "3/5")
    assert code == 0
    assert out.splitlines() == ["2", "window: [1, 3]"]


def test_pd_json(capsys, measure_file):
    code, out, _ = run(capsys, "pd", measure_file, "--alpha", "3/10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["value"] == "1"
    assert payload["window"] == ["1", "2"]


def test_pd_alpha_above_one_is_input_error(capsys, measure_file):
    code, _, err = run(capsys, "pd", measure_file, "--alpha", "7/5")
    assert code == 2
    assert err.strip()


def test_pd_missing_file(capsys):
    code, _, err = run(capsys, "pd", "/nonexistent/m.json", "--alpha", "1/2")
    assert code == 2
    assert err.strip()


def test_pd_unparseable_alpha(capsys, measure_file):
    code, _, _ = run(capsys, "pd", measure_file, "--alpha", "abc")
    assert code == 2


def test_pd_json_past_float_range(capsys, tmp_path):
    path = tmp_path / "far.json"
    DiscreteMeasure([(0, F(1, 2)), (F(10) ** 400, F(1, 2))]).dump(path)
    code, out, _ = run(capsys, "pd", str(path), "--alpha", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == str(10**400)
    assert payload["value_decimal"] == "1e+400"


def test_pd_huge_exponent_is_a_resource_cap(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"atoms": [{"pos": "1e100000000", "mass": "1"}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "pd", str(path), "--alpha", "1/2")
    assert time.perf_counter() - start < 5  # building 10**(10**8) takes far longer
    assert code == 3
    assert out == ""
    assert "exponent" in err


def test_pd_past_the_position_ceiling_exits_3(capsys, tmp_path):
    # 1/p over the first 5 000 primes: the positions' common denominator
    # passes the integer-position ceiling while the measure is built
    path = tmp_path / "primes.json"
    atoms = [{"pos": f"1/{p.denominator}", "mass": "1/5000"} for p, _ in reciprocal_prime_atoms(5000)]
    path.write_text(json.dumps({"atoms": atoms}))
    code, out, err = run(capsys, "pd", str(path), "--alpha", "1/2")
    assert code == 3
    assert out == ""
    assert "exceed the integer-position ceiling of 2^28 bits" in err


def test_od_past_the_distance_ceiling_exits_3(capsys, tmp_path):
    # 22 points at distances 1 + 1/q, q random 4 000-digit ints: the
    # distances' common denominator passes the stored-form ceiling while
    # the space is built, long before any od search
    path = tmp_path / "long22.json"
    dist = long_denominator_distances(22, random.Random("long-distances-cli"))
    path.write_text(json.dumps({"labels": [f"p{i}" for i in range(22)], "dist": dist, "mass": ["1/22"] * 22}))
    start = time.process_time()
    code, out, err = run(capsys, "od", str(path), "--screen", "fullline", "--kappa", "1/2", "--cap-n", "22")
    assert time.process_time() - start < 5
    assert code == 3
    assert out == ""
    assert "484 distances with a common denominator of" in err
    assert "exceed the integer-distance ceiling of 2^28 bits" in err


def test_pd_result_past_the_digit_limit_is_a_resource_cap(capsys, tmp_path):
    # the input parses (exponent -4300 is allowed), but pd = 10^-4300 has a
    # 4301-digit denominator, which cannot be written as a string
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"atoms": [{"pos": "0", "mass": "1/2"}, {"pos": "1e-4300", "mass": "1/2"}]}))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "pd", str(path), "--alpha", "1", "--format", fmt)
        assert code == 3
        assert out == ""
        assert "4300 digits" in err


def test_pd_message_past_the_digit_limit_names_the_real_complaint(capsys, tmp_path):
    # the masses parse (4300-digit denominators), but their sum, which the
    # message quotes, has a denominator past the int-to-string limit
    big = 10**4299
    path = tmp_path / "unbalanced.json"
    path.write_text(json.dumps({"atoms": [
        {"pos": "0", "mass": f"1/{big + 1}"},
        {"pos": "1", "mass": f"1/{big + 3}"},
    ]}))
    code, out, err = run(capsys, "pd", str(path), "--alpha", "1/2")
    assert code == 2
    assert out == ""
    assert "must sum to 1 exactly" in err
    assert "-digit denominator" in err


def test_render_decimal_keeps_float_rendering_in_range():
    for value in (F(2, 3), F(-7, 2), F(0), F(10) ** 300, F(1, 10**300), F(17, 10) * F(10) ** 308):
        assert render_decimal(value) == format(float(value), ".9g")
    assert render_decimal(-(F(10) ** 400)) == "-1e+400"
    assert render_decimal(F(1, 3 * 10**400)) == "3.33333333e-401"


# -- compress --------------------------------------------------------------------


def test_compress_ok_and_writes_map(capsys, measure_file, tmp_path):
    out_path = tmp_path / "map.json"
    code, out, _ = run(
        capsys,
        "compress", measure_file,
        "--alpha", "3/10", "--radius", "1",
        "--out", str(out_path),
    )
    assert code == 0
    assert "pd(image) = 1 = min{1, 1}: OK" in out
    assert "1-Lipschitz: OK" in out
    payload = json.loads(out_path.read_text())
    restored = PiecewiseLinearMap.from_json_dict(payload)
    assert restored.is_one_lipschitz()


def test_compress_json_checks(capsys, measure_file):
    code, out, _ = run(
        capsys,
        "compress", measure_file,
        "--alpha", "3/10", "--radius", "10", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checks"] == {
        "one_lipschitz": True,
        "range_within_budget": True,
        "pd_equality": True,
    }
    assert payload["image_pd"] == "1"  # budget 10 never truncates pd 1


def test_compress_alpha_at_one_rejected(capsys, measure_file):
    code, _, _ = run(capsys, "compress", measure_file, "--alpha", "1", "--radius", "1")
    assert code == 2


def test_compress_failed_check_exits_one(capsys, monkeypatch, measure_file):
    # the identity's range is unbounded, so it escapes [-R/alpha, R/alpha];
    # it is 1-Lipschitz and keeps pd, so only the range check fails
    monkeypatch.setattr(
        compression, "_integrate", lambda anchors, r, s: PiecewiseLinearMap.identity()
    )
    argv = ("compress", measure_file, "--alpha", "3/10", "--radius", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "range within [-10/3, 10/3]: FAIL" in out.splitlines()
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert payload["checks"] == {
        "one_lipschitz": True,
        "range_within_budget": False,
        "pd_equality": True,
    }
    report = proptests.run_suite("clamp-equality", 0, 1)
    assert len(report.failures) == 1
    assert "range_within_budget" in report.failures[0].detail


# -- od ----------------------------------------------------------------------------


def test_od_exact_text(capsys, space_file):
    code, out, _ = run(
        capsys, "od", space_file, "--screen", "interval:-1:1", "--kappa", "3/5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2/3 (exact)"
    assert lines[1].startswith("witness: p0->")


def test_od_json_past_float_range(capsys, tmp_path):
    path = tmp_path / "far.json"
    FiniteMMSpace(["a", "b"], [[0, F(10) ** 400], [F(10) ** 400, 0]], [F(1, 2), F(1, 2)]).dump(path)
    code, out, _ = run(
        capsys,
        "od", str(path), "--screen", "fullline", "--kappa", "1/4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == str(10**400)
    assert payload["value_decimal"] == "1e+400"


def test_od_exact_json(capsys, space_file):
    code, out, _ = run(
        capsys,
        "od", space_file, "--screen", "fullline", "--kappa", "3/5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["certified"] == "exact"
    assert payload["value"] == "1"
    assert len(payload["witness"]) == 4


def test_od_tol_option_is_gone(capsys, space_file):
    # the engine is exact, so there is no tolerance to set
    code, out, err = run(
        capsys,
        "od", space_file, "--screen", "fullline", "--kappa", "3/5", "--tol", "1/1000",
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --tol" in err


def test_od_grid_certified_interval(capsys, space_file):
    code, out, _ = run(
        capsys,
        "od", space_file, "--screen", "interval:-1:1", "--kappa", "3/5",
        "--grid-step", "1/64",
    )
    assert code == 0
    assert "(certified interval, grid step 1/64)" in out
    code, out, _ = run(
        capsys,
        "od", space_file, "--screen", "interval:-1:1", "--kappa", "3/5",
        "--grid-step", "1/64", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["certified"] == "interval"
    lower, upper = F(payload["lower"]), F(payload["upper"])
    assert lower <= F(2, 3) <= upper
    assert upper - lower == 3 * F(1, 64)


def test_od_grid_requires_interval_screen(capsys, space_file):
    code, _, _ = run(
        capsys,
        "od", space_file, "--screen", "fullline", "--kappa", "3/5",
        "--grid-step", "1/8",
    )
    assert code == 2


def test_od_grid_cap_n_also_raises_the_heavy_subset_cap(capsys, tmp_path):
    # 13 points pass the grid oracle's default cap of 4 only through --cap-n,
    # which is the only cap on the run: the oracle builds no heavy family;
    # the heavy first atom ends the run before any grid search
    path = tmp_path / "big13.json"
    FiniteMMSpace.line_space(range(13), masses=[F(9, 10)] + [F(1, 120)] * 12).dump(path)
    code, out, err = run(
        capsys,
        "od", str(path), "--screen", "interval:0:4", "--kappa", "1/2",
        "--grid-step", "1/2", "--cap-n", "13",
    )
    assert (code, err) == (0, "")
    assert out == "[0, 6] (certified interval, grid step 1/2)\n"


def test_od_grid_ceiling_exits_three_quickly(capsys, space_file):
    # 8001^3 grid assignments to the points besides a pinned one, far past
    # the 2^22 ceiling, which --cap-n cannot raise
    argv = ("od", space_file, "--screen", "interval:0:4", "--kappa", "1/2")
    for extra in ((), ("--cap-n", "4")):
        start = time.process_time()
        code, out, err = run(capsys, *argv, "--grid-step", "1/2000", *extra)
        assert time.process_time() - start < 2
        assert (code, out) == (3, "")
        assert "grid ceiling of 2^22" in err and "coarser --grid-step" in err


def test_od_cap_exit_and_override(capsys, big_space_file):
    code, _, err = run(
        capsys, "od", big_space_file, "--screen", "fullline", "--kappa", "1/2"
    )
    assert code == 3
    assert "cap 10" in err
    code, out, _ = run(
        capsys,
        "od", big_space_file, "--screen", "fullline", "--kappa", "1/2", "--cap-n", "11",
    )
    assert code == 0
    assert out.splitlines()[0] == "0 (exact)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["od", "--screen", "fullline", "--kappa", "1/2"], "exact enumeration cap 10"),
        (["od", "--screen", "interval:0:1", "--kappa", "1/2", "--grid-step", "1/4"],
         "grid-oracle cap 4"),
        (["od", "--screen", "fullline", "--kappa", "1/2", "--cap-n", "12"],
         "exact enumeration cap 12"),
        (["profile", "--screen", "fullline", "--kappas", "1/2"], "exact enumeration cap 10"),
    ],
)
def test_oversized_space_file_exits_before_its_matrix_is_parsed(capsys, tmp_path, argv, message):
    # parsing and checking the 360 000 distances would take seconds; the
    # label count alone trips the cap, with the engine's own message
    path = _line_space_file(tmp_path, 600)
    start = time.monotonic()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    elapsed = time.monotonic() - start
    assert (code, out) == (3, "")
    assert err == f"resource cap: 600 points exceed the {message}; raise cap_n (--cap-n) to proceed\n"
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["od", "--screen", "fullline", "--kappa", "1/2"],
        ["od", "--screen", "interval:0:1", "--kappa", "1/2", "--grid-step", "1/4"],
        ["profile", "--screen", "fullline", "--kappas", "1/2"],
    ],
)
def test_space_file_past_the_subset_table_ceiling_exits_before_parsing(capsys, tmp_path, argv):
    # --cap-n 600 lets the label count past the command's cap, but every
    # engine behind od and profile checks the point ceiling of 22 points,
    # which refuses the file before its distances are parsed
    path = _line_space_file(tmp_path, 600)
    start = time.monotonic()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:], "--cap-n", "600")
    elapsed = time.monotonic() - start
    assert (code, out) == (3, "")
    assert err == (
        "resource cap: 600 points exceed the point ceiling 22; --cap-n cannot raise it\n"
    )
    assert elapsed < 1


def _line_space_file(tmp_path, n):
    """A space file of n unit-spaced points on the line, uniform masses."""
    path = tmp_path / f"s{n}.json"
    dist = [[str(abs(i - j)) for j in range(n)] for i in range(n)]
    payload = {"labels": [f"p{i}" for i in range(n)], "dist": dist, "mass": [f"1/{n}"] * n}
    path.write_text(json.dumps(payload))
    return path


# runs the CLI with its address space capped at 1 GiB
MEMORY_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from obsdiam.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["od", "s30.json", "--screen", "fullline", "--kappa", "1/2", "--cap-n", "64"],
        ["counterexample", "15", "1", "--cap-n", "30"],
        ["counterexample", "1000", "1", "--cap-n", "100000"],
    ],
)
def test_subset_table_ceiling_under_a_memory_limit(tmp_path, argv):
    # a raised --cap-n lets 30 points past the exact cap: the point ceiling
    # refuses them before the engine lists 2 x 2^15 half sums;
    # counterexample refuses its 2N points before it builds and
    # triangle-checks the family
    pytest.importorskip("resource")
    points = 2 * int(argv[1]) if argv[0] == "counterexample" else 30
    FiniteMMSpace.line_space(range(30)).dump(tmp_path / "s30.json")
    src = os.path.dirname(os.path.dirname(obsdiam.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", MEMORY_LIMITED_CLI, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.monotonic() - start
    assert child.returncode == 3, child.stderr
    assert f"{points} points exceed the point ceiling 22" in child.stderr
    assert "--cap-n cannot raise it" in child.stderr
    assert elapsed < 2


def test_od_backwards_interval_rejected(capsys, space_file):
    code, _, _ = run(
        capsys, "od", space_file, "--screen", "interval:2:1", "--kappa", "1/2"
    )
    assert code == 2


# -- malformed input files -------------------------------------------------------------

SPACE2 = {"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]], "mass": ["1/2", "1/2"]}
REST = {
    "od": ["--screen", "fullline", "--kappa", "1/2"],
    "pd": ["--alpha", "1/2"],
    "profile": ["--screen", "fullline", "--kappas", ","],
}
# case -> (command, file content, part of the message); each exits 2
MALFORMED = {
    "dist-rows-are-strings": ("od", {**SPACE2, "dist": ["01", "10"]}, "needs lists"),
    "labels-object": ("od", {**SPACE2, "labels": {"a": 1, "b": 2}}, "needs lists"),
    "nested-too-deep": ("od", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
    "space-not-object": ("od", [], "space JSON must be an object"),
    "measure-not-object": ("pd", "3", "measure JSON must be an object"),
    "missing-field": ("od", {"labels": ["a"], "dist": [["0"]]}, "missing field 'mass'"),
    "atoms-not-list": ("pd", {"atoms": {"pos": "0", "mass": "1"}}, "'atoms' must be a list"),
    "atom-without-mass": ("pd", {"atoms": [{"pos": "0"}]}, "needs 'pos' and 'mass'"),
    "matrix-shape": ("od", {**SPACE2, "dist": [["0", "1"]]}, "must be 2x2"),
    "mass-count": ("od", {**SPACE2, "mass": ["1"]}, "one mass per point"),
    "empty-kappa-grid": ("profile", SPACE2, "kappa grid must be nonempty"),
}


@pytest.mark.parametrize("command, content, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_is_exit_two(capsys, tmp_path, command, content, message):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run(capsys, command, str(path), *REST[command])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


# -- prokhorov ----------------------------------------------------------------------


def test_prokhorov_text_and_modes(capsys, tmp_path, measure_file):
    other = tmp_path / "split.json"
    DiscreteMeasure([(0, F(1, 2)), (10, F(1, 2))]).dump(other)
    point = tmp_path / "point.json"
    DiscreteMeasure.point_mass(0).dump(point)

    code, out, _ = run(capsys, "prokhorov", str(point), str(other))
    assert code == 0
    assert out.strip() == "1/2"

    code, out, _ = run(
        capsys, "prokhorov", str(point), str(other), "--mode", "symmetric",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "symmetric"
    assert payload["value"] == "1/2"


def test_prokhorov_support_cap_is_raised_by_cap_n(capsys, tmp_path):
    big, other = tmp_path / "big.json", tmp_path / "other.json"
    DiscreteMeasure.uniform(range(301)).dump(big)
    DiscreteMeasure.uniform([F(2 * k + 1, 2) for k in range(300)]).dump(other)
    code, out, err = run(capsys, "prokhorov", str(big), str(other))
    assert code == 3
    assert out == ""
    assert "support cap 600" in err
    code, out, _ = run(capsys, "prokhorov", str(big), str(other), "--cap-n", "601")
    assert code == 0
    assert out.strip() == "1/2"


def test_prokhorov_on_a_long_position_scale(capsys, tmp_path):
    # 1/p over the first 300 primes: the common position denominator has
    # about 2 800 bits, so the distances are keyed on a short scale instead
    path, other = tmp_path / "primes.json", tmp_path / "other.json"
    mu = DiscreteMeasure(reciprocal_prime_atoms(300))
    assert mu.scaled_positions[0].bit_length() > 2000
    mu.dump(path)
    DiscreteMeasure.point_mass(F(1, 2)).dump(other)
    code, out, _ = run(capsys, "prokhorov", str(path), str(path))
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "prokhorov", str(path), str(other))
    assert code == 0
    assert out.strip() == str(obsdiam.prokhorov_onesided(mu, DiscreteMeasure.point_mass(F(1, 2))))


# -- counterexample -------------------------------------------------------------------


def test_counterexample_pass(capsys):
    code, out, _ = run(capsys, "counterexample", "2", "1")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    assert "REFUTED" in out


def test_counterexample_explicit_kappa_json(capsys):
    code, out, _ = run(capsys, "counterexample", "2", "1", "3/5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches"] is True
    assert payload["od_interval"] == "2/3"
    assert payload["original_refuted"] is True


def test_counterexample_out_of_window_skips(capsys):
    code, out, _ = run(capsys, "counterexample", "2", "1", "2/5")
    assert code == 0
    assert "SKIPPED" in out


def test_counterexample_bad_n(capsys):
    code, _, _ = run(capsys, "counterexample", "1", "1")
    assert code == 2


# -- sharpness -------------------------------------------------------------------------


def test_sharpness_csv(capsys):
    code, out, _ = run(capsys, "sharpness", "1", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(SHARPNESS_CSV_COLUMNS)
    assert len(lines) == 4  # header + n = 2, 3, 4
    assert lines[1].startswith("2,1/2,1,")


def test_sharpness_json_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "sharpness", "1", "3", "--format", "json")
    code_b, out_b, _ = run(capsys, "sharpness", "1", "3", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b
    rows = json.loads(out_a)["rows"]
    assert [r["ratio"] for r in rows] == ["3/2", "5/4"]


def test_sharpness_past_the_row_ceiling_exits_three_quickly(capsys):
    for n_max in ("10001", "1000000000"):
        start = time.process_time()
        code, out, err = run(capsys, "sharpness", "1", n_max, "--format", "json")
        assert time.process_time() - start < 1
        assert (code, out) == (3, "")
        assert err == f"resource cap: n_max {n_max} exceeds the sharpness row ceiling 10000\n"
    # no flag raises the ceiling: sharpness has no --cap-n
    assert run(capsys, "sharpness", "1", "3", "--cap-n", "100")[0] == 2


def test_sharpness_internal_failure_maps_to_exit_one(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise VerificationError("closed form mismatch (forced by test)")

    monkeypatch.setattr(cli, "sharpness_sweep", boom)
    code, _, err = run(capsys, "sharpness", "1", "3")
    assert code == 1
    assert "forced by test" in err


# -- profile ---------------------------------------------------------------------------


def test_profile_text(capsys, space_file):
    code, out, _ = run(
        capsys,
        "profile", space_file, "--screen", "fullline", "--kappas", "1/5,2/5,3/5,4/5",
    )
    assert code == 0


def test_profile_json(capsys, space_file):
    code, out, _ = run(
        capsys,
        "profile", space_file, "--screen", "interval:-1:1",
        "--kappas", "1/2,5/8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["monotone_nonincreasing"] is True
    assert payload["right_continuous"] is True
    assert [r["od"] for r in payload["rows"]] == ["2/3", "2/3"]


def test_profile_cap_exit(capsys, tmp_path):
    path = tmp_path / "big40.json"
    FiniteMMSpace.line_space(range(40), masses=[F(k, 820) for k in range(1, 41)]).dump(path)
    code, out, err = run(
        capsys, "profile", str(path), "--screen", "fullline", "--kappas", "1/2"
    )
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_profile_bad_grid(capsys, space_file):
    code, _, _ = run(
        capsys, "profile", space_file, "--screen", "fullline", "--kappas", "0,1/2"
    )
    assert code == 2


# -- proptest --------------------------------------------------------------------------


def test_proptest_single_suite(capsys):
    code, out, _ = run(capsys, "proptest", "profiles", "--count", "5")
    assert code == 0


def test_proptest_all(capsys):
    code, out, _ = run(capsys, "proptest", "all", "--count", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["suites"]) == 9
    assert all(s["ok"] for s in payload["suites"])


def test_proptest_failures_are_reported(capsys, monkeypatch):
    monkeypatch.setitem(proptests._SUITES, "profiles", lambda rng: "planted failure")
    report = proptests.run_suite("profiles", seed=0, count=2)
    assert (report.passed, report.ok) == (0, False)
    assert report.to_json_dict()["failures"] == [
        {"index": 0, "detail": "planted failure"},
        {"index": 1, "detail": "planted failure"},
    ]
    code, out, _ = run(capsys, "proptest", "profiles", "--count", "2")
    assert code == 1
    assert out.splitlines() == [
        "profiles: 0/2 FAIL",
        "  case 0: planted failure",
        "  case 1: planted failure",
    ]


def test_proptest_unknown_suite_is_usage_error(capsys):
    code, _, _ = run(capsys, "proptest", "no-such-suite")
    assert code == 2


# -- top-level -------------------------------------------------------------------------


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2
