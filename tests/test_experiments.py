import random
from fractions import Fraction as F

import pytest
from conftest import heaviest_light_bruteforce

import obsdiam.experiments as experiments
import obsdiam.mmspace as mmspace
import obsdiam.observable as observable
from obsdiam import (
    FULL_LINE,
    DomainError,
    FiniteMMSpace,
    Interval,
    ResourceCapError,
    counterexample_space,
    heavy_minimal_subsets,
    semicontinuity_profile,
    sharpness_sweep,
    verify_counterexample,
)
from obsdiam.mmspace import integer_masses
from obsdiam.randgen import random_space


# -- family spaces ---------------------------------------------------------------


def test_counterexample_space_shape():
    sp = counterexample_space(2, 1)
    assert len(sp) == 4
    assert sp.diameter == 3
    assert sp.masses == (F(1, 4),) * 4

    sp3 = counterexample_space(3, F(1, 2))
    assert len(sp3) == 6
    assert sp3.diameter == F(5, 2)


def test_counterexample_space_validation():
    with pytest.raises(DomainError):
        counterexample_space(1, 1)
    with pytest.raises(DomainError):
        counterexample_space(2, 0)


# -- counterexample verification ---------------------------------------------------


def test_verify_two_point_family():
    report = verify_counterexample(2, 1, F(3, 5))
    assert report.in_window
    assert report.interval == Interval(-1, 1)
    assert report.od_full_line == 1
    assert report.od_interval == F(2, 3)
    assert report.expected_c == F(2, 3)
    assert report.matches
    assert report.original_refuted is True


def test_verify_three_point_family():
    report = verify_counterexample(3, 1, F(7, 10))
    assert report.in_window
    assert report.od_full_line == 1
    assert report.od_interval == F(4, 5)
    assert report.matches
    assert report.original_refuted is None  # refutation claim is N=2 specific


def test_verify_four_point_family_scaled():
    report = verify_counterexample(4, 2, F(4, 5))
    assert report.in_window
    assert report.interval == Interval(-6, 6)
    assert report.od_full_line == 2
    assert report.od_interval == F(12, 7)
    assert report.expected_c == F(6, 7)
    assert report.matches


def test_verify_default_kappa_sits_inside_the_window():
    report = verify_counterexample(2, 1)
    assert report.kappa == F(5, 8)  # 1 - 3/(4*2)
    assert report.in_window
    assert report.matches


def test_verify_out_of_window_kappa_is_flagged_not_rejected():
    report = verify_counterexample(2, 1, F(2, 5))
    assert not report.in_window
    assert not report.matches  # closed forms only claimed inside the window
    assert report.od_full_line == 2  # alpha = 3/5 needs three atoms


def test_verify_respects_exact_cap(monkeypatch):
    def build(*args):
        raise AssertionError("the 2N-point space was built before the cap check")

    monkeypatch.setattr(experiments, "counterexample_space", build)
    with pytest.raises(ResourceCapError, match="12 points exceed the exact enumeration cap 10"):
        verify_counterexample(6, 1)  # 12 points > default cap 10


def test_counterexample_json_payload():
    payload = verify_counterexample(2, 1, F(3, 5)).to_json_dict()
    assert payload["od_interval"] == "2/3"
    assert payload["matches"] is True
    assert payload["original_refuted"] is True
    assert payload["in_window"] is True


# -- sharpness sweep ---------------------------------------------------------------


def test_sharpness_rows_unit_radius():
    rows = sharpness_sweep(1, 12)
    assert [r.n_family for r in rows] == [*range(2, 13)]
    assert [r.kappa for r in rows] == [1 - F(1, n) for n in range(2, 13)]
    assert [r.ratio for r in rows] == [F(2 * n - 1, 2 * n - 2) for n in range(2, 13)]
    assert [r.od_interval for r in rows] == [F(2 * n - 2, 2 * n - 1) for n in range(2, 13)]
    assert all(r.od_full_line == 1 for r in rows)
    assert all(r.gap == 2 for r in rows)
    # members with 2n <= 22 points, the point ceiling, are recomputed
    # exactly (and must equal the closed forms to be returned at all)
    assert [r.provenance for r in rows] == ["exact"] * 10 + ["closed-form"]
    assert rows[0].revised_screen_width == 4


def test_sharpness_scales_with_radius():
    rows = sharpness_sweep(2, 3)
    assert all(r.gap == 4 for r in rows)
    assert rows[0].od_interval == F(4, 3)
    assert rows[1].interval == Interval(-4, 4)


def test_sharpness_validation():
    with pytest.raises(DomainError):
        sharpness_sweep(1, 1)
    with pytest.raises(DomainError):
        sharpness_sweep(0, 3)


def test_sharpness_row_ceiling():
    # refused before a row is built; 10^4 rows are allowed
    with pytest.raises(ResourceCapError, match="^n_max 10001 exceeds the sharpness row ceiling 10000$"):
        sharpness_sweep(1, experiments.SHARPNESS_ROW_CEILING + 1)
    with pytest.raises(ResourceCapError):
        sharpness_sweep(1, 10**9)


# -- semicontinuity ----------------------------------------------------------------


def test_semicontinuity_uniform_line_profile():
    sp = FiniteMMSpace.line_space([1, 2, 3, 4])
    profile = semicontinuity_profile(sp, FULL_LINE, [F(1, 5), F(2, 5), F(3, 5), F(4, 5)])
    assert [r.od_value for r in profile.rows] == [3, 2, 1, 0]
    assert [r.constant_until for r in profile.rows] == [F(1, 4), F(1, 2), F(3, 4), 1]
    assert profile.monotone_nonincreasing
    assert profile.right_continuous
    assert all(r.probe_od == r.od_value for r in profile.rows)
    # probe sits inside the certified stretch
    for r in profile.rows:
        assert r.kappa <= r.probe_kappa < r.constant_until


def test_semicontinuity_constant_stretch_on_narrow_screen(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return heavy_minimal_subsets(*args)

    for module in (mmspace, observable, experiments):
        monkeypatch.setattr(module, "heavy_minimal_subsets", counted, raising=False)
    sp = FiniteMMSpace.line_space([1, 2, 3, 4])
    profile = semicontinuity_profile(sp, Interval(-1, 1), [F(1, 2), F(5, 8), F(7, 10)])
    assert all(r.od_value == F(2, 3) for r in profile.rows)
    assert all(r.constant_until == F(3, 4) for r in profile.rows)
    assert profile.right_continuous
    # no heavy search in any engine run (grid point or probe): beta comes from
    # the subset sums of mmspace.integer_masses
    assert len(calls) == 0


def test_semicontinuity_single_point_space():
    sp = FiniteMMSpace.line_space([7])
    profile = semicontinuity_profile(sp, FULL_LINE, [F(1, 3), F(2, 3)])
    assert all(r.od_value == 0 for r in profile.rows)
    assert all(r.constant_until == 1 for r in profile.rows)


def test_semicontinuity_grid_is_sorted_and_deduped():
    sp = FiniteMMSpace.line_space([0, 1])
    profile = semicontinuity_profile(sp, FULL_LINE, [F(3, 5), F(1, 5), F(3, 5)])
    assert [r.kappa for r in profile.rows] == [F(1, 5), F(3, 5)]


def test_semicontinuity_grid_validation():
    sp = FiniteMMSpace.line_space([0, 1])
    with pytest.raises(DomainError):
        semicontinuity_profile(sp, FULL_LINE, [])
    with pytest.raises(DomainError):
        semicontinuity_profile(sp, FULL_LINE, [0])
    with pytest.raises(DomainError):
        semicontinuity_profile(sp, FULL_LINE, [1])


def test_semicontinuity_stretch_matches_bruteforce():
    # kappa = 1 - (a subset's mass), so alpha sits exactly at a subset mass,
    # which is heavy: the stretch ends at the heaviest mass strictly below it
    rng = random.Random("semicontinuity-stretch")
    for n in [*range(2, 9)] * 3:
        sp = random_space(rng, min_points=n, max_points=n)
        subsets = [rng.sample(range(n), rng.randint(1, n - 1)) for _ in range(3)]
        kappas = {1 - sp.mass_of(subset) for subset in subsets}
        profile = semicontinuity_profile(sp, Interval(-1, 1), sorted(kappas))
        for row in profile.rows:
            assert row.constant_until == 1 - heaviest_light_bruteforce(sp, row.alpha), (n, row)
            assert row.kappa < row.probe_kappa < row.constant_until
        assert profile.monotone_nonincreasing and profile.right_continuous


def test_semicontinuity_checks_the_cap_before_the_subset_sums(monkeypatch):
    # 40 points: the exact cap refuses them before any heavy family is
    # searched or any subset sum is listed
    calls = []

    def counted_family(*args):
        calls.append(args)
        return heavy_minimal_subsets(*args)

    def counted_masses(*args):
        calls.append(args)
        return integer_masses(*args)

    monkeypatch.setattr(mmspace, "heavy_minimal_subsets", counted_family)
    monkeypatch.setattr(mmspace, "integer_masses", counted_masses)
    # the engine and the profile call integer_masses through their own bindings
    monkeypatch.setattr(observable, "integer_masses", counted_masses)
    monkeypatch.setattr(experiments, "integer_masses", counted_masses)
    sp = FiniteMMSpace.line_space(range(40), masses=[F(k, 820) for k in range(1, 41)])
    with pytest.raises(ResourceCapError):
        semicontinuity_profile(sp, FULL_LINE, [F(1, 2)])
    assert calls == []
