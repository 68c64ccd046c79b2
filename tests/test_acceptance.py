"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; without ``-s`` they still appear for any failing criterion.  The
random corpora are seeded, so every run checks the same instances.
"""

import random
import time
from fractions import Fraction as F

import pytest

from obsdiam import (
    FULL_LINE,
    DiscreteMeasure,
    FiniteMMSpace,
    Interval,
    anchor_walk,
    check_pd_transfer,
    clamp_construct,
    counterexample_space,
    observable_diameter,
    od_grid_oracle,
    partial_diameter,
    pd_profile,
    push_forward,
    random_lipschitz_map,
    run_suite,
    semicontinuity_profile,
    sharpness_sweep,
    verify_counterexample,
    verify_revised_inequality,
    witness_partial_diameter,
)
from obsdiam.randgen import jittered_pair, random_alpha, random_measure, random_space

SEED = 20250819

ALPHAS = (F(1, 10), F(3, 10), F(1, 2), F(9, 10))
RADII = (F(1, 2), F(1), F(10))


def report(number: int, slug: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:>2} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"acceptance criterion {number} ({slug}) failed {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    return [random_measure(rng, max_atoms=12) for _ in range(500)]


def test_01_family_counterexample_x2():
    started = time.monotonic()
    got = verify_counterexample(2, 1, F(3, 5))
    elapsed = time.monotonic() - started
    ok = (
        got.od_full_line == 1
        and got.od_interval == F(2, 3)
        and got.matches
        and got.original_refuted is True
        and elapsed < 1.0
    )
    report(1, "family-counterexample-x2", ok, f"{elapsed:.2f}s")


def test_02_family_closed_forms():
    started = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        for radius in (1, 2):
            got = verify_counterexample(n, radius, 1 - F(3, 4 * n))
            expected_c = F(2 * (n - 1), 2 * n - 1)
            ok = ok and got.matches and got.od_full_line == radius
            ok = ok and got.od_interval == expected_c * radius
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 300.0
    report(2, "family-closed-forms", ok, f"{elapsed:.1f}s")


def test_03_clamp_contract(corpus):
    started = time.monotonic()
    failures = 0
    for mu in corpus:
        for alpha in ALPHAS:
            source_pd = partial_diameter(mu, alpha).value
            for radius in RADII:
                f = clamp_construct(mu, alpha, radius)
                lo, hi = f.bounds()
                limit = radius / alpha
                good = (
                    f.is_one_lipschitz()
                    and lo is not None and hi is not None
                    and -limit <= lo and hi <= limit
                    and partial_diameter(push_forward(mu, f), alpha).value
                    == min(radius, source_pd)
                )
                if not good:
                    failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 120.0
    report(3, "clamp-contract", ok, f"6000 runs, {failures} failures, {elapsed:.1f}s")


def test_04_anchor_internals(corpus):
    checked = 0
    failures = 0
    for mu in corpus:
        for alpha in ALPHAS:
            r = partial_diameter(mu, alpha).value
            if r == 0:
                continue  # alpha-concentrated; nothing to check
            anchors = anchor_walk(mu, alpha)
            checked += 1
            if len(anchors) * alpha > 1:
                failures += 1
                continue
            for a, b in zip(anchors, anchors[1:]):
                if min(anchors[-1], a + r) > b:
                    failures += 1
                    break
    ok = failures == 0 and checked > 0
    report(4, "anchor-internals", ok, f"{checked} instances")


def test_05_map_monotonicity_suites():
    reduction = run_suite("lipschitz-reduction", seed=SEED, count=500)
    scaling = run_suite("affine-scaling", seed=SEED, count=500)
    ok = reduction.ok and scaling.ok
    report(5, "map-monotonicity-suites", ok, "500 + 500 cases")


def test_06_prokhorov_transfer():
    rng = random.Random(SEED)
    epsilons = (F(1, 20), F(1, 10), F(1, 4), F(1, 2))
    failures = 0
    for i in range(200):
        epsilon = epsilons[i % len(epsilons)]
        mu, nu = jittered_pair(rng, epsilon)
        for alpha in ALPHAS:
            got = check_pd_transfer(mu, nu, alpha, epsilon)
            if not (got.applicable and got.holds):
                failures += 1
    ok = failures == 0
    report(6, "prokhorov-transfer", ok, f"200 pairs x {len(ALPHAS)} alphas")


def test_07_revised_inequality():
    rng = random.Random(SEED)
    screen_radii = (F(1, 2), F(1), F(2), F(10))
    failures = 0
    for i in range(200):
        sp = random_space(rng, max_points=6)
        kappa = random_alpha(rng)
        if not verify_revised_inequality(sp, kappa, screen_radii[i % 4]).holds:
            failures += 1
    for n in (2, 3, 4):
        for radius in (1, 2):
            sp = counterexample_space(n, radius)
            for kappa in (1 - F(3, 4 * n), 1 - F(1, n)):
                if not verify_revised_inequality(sp, kappa, radius).holds:
                    failures += 1
    ok = failures == 0
    report(7, "revised-inequality", ok, "200 random + 12 family configs")


def test_08_grid_oracle_agreement():
    rng = random.Random(SEED)
    step = F(1, 64)
    worst = F(0)
    failures = 0
    for _ in range(50):
        sp = random_space(rng, min_points=4, max_points=4)
        kappa = random_alpha(rng)
        lo = F(rng.randint(-32, 32), 16)
        screen = Interval(lo, lo + F(rng.randint(8, 96), 64))
        exact = observable_diameter(sp, screen, kappa).value
        grid, _ = od_grid_oracle(sp, screen, kappa, step)
        slack = exact - grid
        worst = max(worst, slack)
        if not 0 <= slack <= 3 * step:
            failures += 1
    ok = failures == 0
    report(8, "grid-oracle-agreement", ok, f"50 spaces, worst slack {worst}")


def test_09_sharpness_sweep():
    rows = sharpness_sweep(1, 4)
    ok = (
        len(rows) == 3
        and all(r.ratio > 1 for r in rows)
        and all(r.gap == 2 for r in rows)
        and all(r.provenance == "exact" for r in rows)
    )
    report(9, "sharpness-sweep", ok, "n = 2, 3, 4 at unit radius")


def test_10_profiles():
    rng = random.Random(SEED)
    failures = 0
    for _ in range(200):
        mu = random_measure(rng, max_atoms=8)
        prof = pd_profile(mu)
        thresholds = [t for t, _ in prof.steps]
        values = [v for _, v in prof.steps]
        if thresholds != sorted(set(thresholds)) or thresholds[-1] != 1:
            failures += 1
            continue
        if values != sorted(values):
            failures += 1
            continue
        # value at a threshold belongs to the step ending there
        if any(prof.evaluate(t) != v for (t, v) in prof.steps):
            failures += 1
            continue
        for _ in range(2):
            alpha = random_alpha(rng)
            if prof.evaluate(alpha) != partial_diameter(mu, alpha).value:
                failures += 1
                break
    for i in range(20):
        sp = random_space(rng, max_points=5)
        screen = FULL_LINE if i % 2 else Interval(-2, 2)
        sums = {F(0)}
        for m in sp.masses:
            sums |= {s + m for s in sums}
        grid = sorted({1 - m for m in sums if 0 < m < 1}) or [F(1, 2)]
        profile = semicontinuity_profile(sp, screen, grid[:6])
        if not (profile.monotone_nonincreasing and profile.right_continuous):
            failures += 1
    ok = failures == 0
    report(10, "profiles", ok, "200 measures + 20 spaces")


def test_11_cloud_lower_bound_surrogate():
    rng = random.Random(SEED)
    ladder = (4, 16, 64)
    failures = 0
    improved = 0
    spaces = [FiniteMMSpace.line_space([1, 2, 3, 4])]
    spaces += [random_space(rng, min_points=4, max_points=4) for _ in range(5)]
    screen = Interval(-1, 1)
    for sp in spaces:
        kappa = F(3, 5)
        od = observable_diameter(sp, screen, kappa).value
        sups, best = [], F(0)
        for i in range(ladder[-1]):
            witness = random_lipschitz_map(sp, screen, SEED + i)
            best = max(best, witness_partial_diameter(sp, witness, 1 - kappa))
            if i + 1 in ladder:
                sups.append(best)
        if sups != sorted(sups) or sups[-1] > od:
            failures += 1
        if sups[-1] > sups[0]:
            improved += 1
    ok = failures == 0 and improved > 0
    report(11, "cloud-lower-bound", ok, f"{improved}/{len(spaces)} ladders improved")
