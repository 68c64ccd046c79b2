import random
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import obsdiam.compression as compression
import obsdiam.proptests as proptests
from obsdiam import (
    SUITE_NAMES,
    DomainError,
    Interval,
    observable_diameter,
    partial_diameter,
    push_forward,
    random_lipschitz_map,
    run_suite,
    witness_partial_diameter,
)
from obsdiam.randgen import random_alpha, random_measure, random_space


def test_suite_registry_is_stable():
    assert SUITE_NAMES == (
        "lipschitz-reduction",
        "affine-scaling",
        "prokhorov-transfer",
        "clamp-equality",
        "anchor-internals",
        "revised-inequality",
        "oracle-agreement",
        "cloud-bound",
        "profiles",
    )


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_a_short_run(name):
    report = run_suite(name, seed=0, count=25)
    assert report.ok, report.failures
    assert report.passed == 25
    assert report.suite == name


def test_anchor_internals_pass_counts(monkeypatch):
    """anchor-internals computes one partial diameter per drawn measure and
    walks the measure itself, with no push-forward."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (proptests, compression):
        monkeypatch.setattr(module, "partial_diameter", counted("pd", partial_diameter))
        monkeypatch.setattr(module, "push_forward", counted("push", push_forward))
    monkeypatch.setattr(proptests, "random_measure", counted("draw", random_measure))
    report = run_suite("anchor-internals", 0, 100)
    assert report.ok, report.failures
    assert calls["draw"] >= 100
    assert (calls["pd"], calls["push"]) == (calls["draw"], 0)


# Failing cases of run_suite("cloud-bound", 0, 25) when the engine reports
# this share of the true od: a sampled map whose image pd exceeds the
# understated value must fail its case.
UNDERSTATED_CLOUD_FAILURES = {
    F(1, 2): [0, 2, 4, 7, 8, 10, 11, 13, 15, 17, 18, 19, 24],
    F(3, 4): [0, 2, 4, 8, 10, 11, 13, 15, 17, 18, 19, 24],
    F(63, 64): [0, 2, 4, 8, 10, 11, 17, 18, 19, 24],
}


def _cloud_bound_replica(seed, count, share) -> list:
    """``(index, detail)`` of each failing case of ``run_suite("cloud-bound",
    seed, count)`` when the engine reports ``share`` of the true od, by the
    suite's loop on fractions: the same draws, then for each of the 64 maps
    ``random_lipschitz_map``, ``witness_partial_diameter`` and a
    ``Fraction`` compare."""
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        space = random_space(rng, min_points=2, max_points=4)
        kappa = random_alpha(rng)
        radius = rng.choice([F(1), F(2)])
        base_seed = rng.randint(0, 10**6)
        screen = Interval(-radius, radius)
        od = observable_diameter(space, screen, kappa).value * share
        for i in range(64):
            witness = random_lipschitz_map(space, screen, base_seed + i)
            pd = witness_partial_diameter(space, witness, 1 - kappa)
            if pd > od:
                detail = f"image pd {pd} of map {i} (seed {base_seed + i}) exceeds exact od {od}"
                failures.append((index, detail))
                break
    return failures


@pytest.mark.parametrize("share", UNDERSTATED_CLOUD_FAILURES)
def test_cloud_bound_catches_an_understated_od(monkeypatch, share):
    """Failing cases and their details match the loop on fractions, for
    seed 0 over 25 cases and for seeds 0-99 over two cases each."""
    honest_od = proptests.observable_diameter

    def understated(*args, **kwargs):
        return SimpleNamespace(value=honest_od(*args, **kwargs).value * share)

    monkeypatch.setattr(proptests, "observable_diameter", understated)
    report = run_suite("cloud-bound", 0, 25)
    assert [f.index for f in report.failures] == UNDERSTATED_CLOUD_FAILURES[share]
    assert all("exceeds exact od" in f.detail for f in report.failures)
    assert [(f.index, f.detail) for f in report.failures] == _cloud_bound_replica(0, 25, share)
    for seed in range(100):
        report = run_suite("cloud-bound", seed, 2)
        assert [(f.index, f.detail) for f in report.failures] == _cloud_bound_replica(seed, 2, share)


def test_cloud_bound_passes_an_honest_od():
    for seed in range(100):
        assert run_suite("cloud-bound", seed, 2).ok
        assert _cloud_bound_replica(seed, 2, 1) == []


def test_run_suite_is_deterministic():
    a = run_suite("lipschitz-reduction", seed=9, count=10)
    b = run_suite("lipschitz-reduction", seed=9, count=10)
    assert a.to_json_dict() == b.to_json_dict()


def test_run_suite_rejects_unknown_name():
    with pytest.raises(DomainError) as err:
        run_suite("no-such-suite", seed=0, count=5)
    assert "available" in str(err.value)


def test_run_suite_rejects_bad_count():
    with pytest.raises(DomainError):
        run_suite("profiles", seed=0, count=0)


def test_report_json_shape():
    payload = run_suite("affine-scaling", seed=1, count=5).to_json_dict()
    assert payload == {
        "suite": "affine-scaling",
        "seed": 1,
        "count": 5,
        "passed": 5,
        "ok": True,
        "failures": [],
    }
