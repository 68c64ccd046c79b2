"""Seeded op lists for the three benchmark workloads.

An op is one checked call into the library.  Every input is generated here
from the workload seed with the standard library's ``random``; nothing reads
``obsdiam.randgen``, so a change to the library's own generators cannot
re-pick the corpus.  Library functions are looked up on their modules at call
time, so the traced mode sees the calls once it has rebound the names.

Checks never use ``assert``: each returns a message, and a message counts the
op as failed.  Exact golden values (``golden.json``) apply on the development
seed; on other seeds only the structural checks apply, except for the
od-corpus values, whose inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import obsdiam

WORKLOADS = ("od-corpus", "measure-pipeline", "verify-suites")

# The od corpus and the suite cases are drawn once from this fixed seed
# (ROADMAP item 1 forbids re-picking instances).  On od-corpus the workload
# seed only orders the ops: relabelling the points moved single n = 8 ops by
# up to 50% and the pass time by 10% from seed to seed.
CORPUS_SEED = "obsdiam-2407.08122"
DEVELOPMENT_SEED = 0  # golden values are recorded for this seed
HELDOUT_SEED = 7919  # never used while writing a change; confirms claims once

SPACE_KINDS = ("line", "two-row", "l1-grid")
SUITES = (
    "lipschitz-reduction", "affine-scaling", "prokhorov-transfer",
    "clamp-equality", "anchor-internals", "revised-inequality",
    "oracle-agreement", "cloud-bound", "profiles",
)


@dataclass
class Op:
    id: str  # stable across seeds; keys the golden file
    kind: str  # op class for latency breakdowns
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # structural check; message = failure
    exact: Callable[[object], str]  # canonical exact rendering, compared to golden
    inputs: str  # canonical text (or digest) of the inputs, for the op-list digest
    golden_on_every_seed: bool = False


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json_digest(payload) -> str:
    return digest_text(json.dumps(payload, sort_keys=True))


# -- generators ------------------------------------------------------------------


def _composition(rng: random.Random, n: int) -> list:
    """n positive rationals summing to exactly 1."""
    total = rng.randint(max(n, 2), 48)
    cuts = sorted(rng.sample(range(1, total), n - 1))
    return [Fraction(b - a, total) for a, b in zip([0, *cuts], [*cuts, total])]


def space_data(rng: random.Random, n: int, kind: str):
    """(distance rows, masses) of a collinear, two-row or L1-grid space."""
    masses = [Fraction(1, n)] * n if rng.random() < 0.5 else _composition(rng, n)
    if kind == "line":
        den = rng.choice([1, 2, 4])
        pts = [Fraction(v, den) for v in rng.sample(range(-48, 49), n)]
        return [[abs(a - b) for b in pts] for a in pts], masses
    step = Fraction(1, rng.choice([1, 2, 4]))
    height = rng.randint(1, 6)
    coords: set = set()
    while len(coords) < n:
        if kind == "two-row":
            coords.add((rng.randint(-12, 12), rng.choice([0, height])))
        else:
            coords.add((rng.randint(0, 10), rng.randint(0, 10)))
    pts = sorted(coords)
    dist = [[step * (abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in pts] for a in pts]
    return dist, masses


def raw_atoms(rng: random.Random, size: int) -> list:
    """size (position, mass) pairs on a quarter grid narrow enough that
    positions repeat, so construction has to merge."""
    weights = [rng.randint(1, 16) for _ in range(size)]
    total = sum(weights)
    half = size // 2
    return [(Fraction(rng.randint(-half, half), 4), Fraction(w, total)) for w in weights]


def small_measure(rng: random.Random, atoms: int) -> obsdiam.DiscreteMeasure:
    den = rng.choice([1, 2, 4, 8])
    positions = rng.sample(range(-64, 65), atoms)
    return obsdiam.DiscreteMeasure(
        (Fraction(p, den), m) for p, m in zip(positions, _composition(rng, atoms))
    )


def jittered(rng: random.Random, nu, epsilon: Fraction):
    """mu with every atom of nu nudged by at most 7/8 epsilon, so the one-sided
    distance from mu to nu is below epsilon."""
    return obsdiam.DiscreteMeasure(
        (pos + epsilon * Fraction(rng.randint(-7, 7), 8), mass) for pos, mass in nu.atoms
    )


def lipschitz_pl(rng: random.Random, knots: int):
    """A 1-Lipschitz piecewise-linear map with quarter-integer slopes."""
    slopes = [Fraction(rng.randint(-4, 4), 4) for _ in range(knots + 1)]
    xs = sorted(rng.sample(range(-400, 401), knots))
    y = Fraction(rng.randint(-16, 16), 2)
    points = [(Fraction(xs[0]), y)]
    for i in range(1, knots):
        y += slopes[i] * (xs[i] - xs[i - 1])
        points.append((Fraction(xs[i]), y))
    return obsdiam.PiecewiseLinearMap(points, slopes[0], slopes[-1])


# -- od-corpus ------------------------------------------------------------------------


def _od_check(space, screen, kappa):
    def check(result):
        try:
            result.witness.validate(space, screen)
        except obsdiam.ValidationError as exc:
            return f"witness rejected: {exc}"
        achieved = obsdiam.witness_partial_diameter(space, result.witness, 1 - kappa)
        if achieved != result.value:
            return f"witness reaches {achieved}, engine reported {result.value}"
        return None

    return check


def _family_check(report):
    if not report.in_window:
        return f"kappa {report.kappa} outside the family window"
    if not report.matches:
        return f"od values {report.od_full_line}, {report.od_interval} miss the closed forms"
    if report.n_family == 2 and report.original_refuted is not True:
        return "N = 2 no longer refutes the uncorrected bound"
    return None


def od_corpus(seed: int) -> list:
    """n = 5..8 x {line, two-row, l1-grid} x {fullline, [-1, 1]} x kappa in
    {1/3, 1/2, 3/4}, plus the paper's family at N = 2, 3, 4 on both screens."""
    ops = []
    screens = (obsdiam.FULL_LINE, obsdiam.Interval(-1, 1))
    for n in range(5, 9):
        for kind in SPACE_KINDS:
            dist, masses = space_data(random.Random(f"{CORPUS_SEED}/{n}/{kind}"), n, kind)
            space = obsdiam.FiniteMMSpace([f"p{i}" for i in range(n)], dist, masses)
            for screen in screens:
                for kappa in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
                    ops.append(Op(
                        id=f"od/{kind}/n{n}/{obsdiam.screen_to_str(screen)}/k{kappa}",
                        kind=f"od-n{n}",
                        call=lambda s=space, sc=screen, k=kappa: obsdiam.observable_diameter(s, sc, k),
                        check=_od_check(space, screen, kappa),
                        exact=lambda r: str(r.value),
                        inputs=f"{_json_digest(space.to_json_dict())} {obsdiam.screen_to_str(screen)} {kappa}",
                        golden_on_every_seed=True,
                    ))
    for n_family in (2, 3, 4):
        ops.append(Op(
            id=f"family/N{n_family}",
            kind=f"family-N{n_family}",
            call=lambda n=n_family: obsdiam.verify_counterexample(n, 1),
            check=_family_check,
            exact=lambda r: f"{r.od_full_line} {r.od_interval}",
            inputs=f"N={n_family} R=1",
            golden_on_every_seed=True,
        ))
    random.Random(f"od-corpus/order/{seed}").shuffle(ops)
    return ops


# -- measure-pipeline --------------------------------------------------------------------

# (atoms, alphas read back): one dataset per size, rebuilt on every pass.
# Nine reads at 10^4 atoms put the pass's median op inside one homogeneous
# group instead of on the edge between two.
DATASETS = (
    (1000, ("1/10", "1/2", "9/10")),
    (10000, tuple(f"{k}/10" for k in range(1, 10))),
    (100000, ("1/2",)),
)
PROFILE_SIZES = (100, 250, 500)
CLAMPED = ((0, "1/3", "1"), (1, "1/2", "1/4"))  # (dataset index, alpha, radius)
PUSHED = (0, 1)  # dataset indices pushed through a seeded 1-Lipschitz map
# Prokhorov pairs: |supp nu| of each pair within the default support cap of
# 12 (mu has at most as many atoms), then of each pair above it, checked with
# an explicit cap.  Sizes and tolerances are fixed per pair, so every seed
# draws the same amount of subset enumeration.  The twelve equal above-cap
# pairs are the pass's slowest group after the 10^4/10^5 builds and reads,
# so the tail percentile falls inside that group.
WITHIN_CAP_NU = (6,) * 12
ABOVE_CAP_NU = (9,) * 12
ABOVE_CAP = 24
EPSILONS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))


def _pd_check(mu_of, alpha):
    def check(result):
        mu = mu_of()
        if result.window is None:
            return "no witness window"
        lo, hi = result.window
        if hi - lo != result.value:
            return f"window [{lo}, {hi}] does not have width {result.value}"
        if mu.mass_of_interval(lo, hi) < alpha:
            return f"window [{lo}, {hi}] carries less than {alpha}"
        return None

    return check


def _clamp_check(mu_of, alpha, radius):
    def check(f):
        mu = mu_of()
        if not f.is_one_lipschitz():
            return f"slopes {f.slopes()} exceed 1"
        lo, hi = f.bounds()
        limit = radius / alpha
        if lo is None or hi is None or lo < -limit or hi > limit:
            return f"range [{lo}, {hi}] escapes [-{limit}, {limit}]"
        got = obsdiam.partial_diameter(obsdiam.push_forward(mu, f), alpha).value
        want = min(radius, obsdiam.partial_diameter(mu, alpha).value)
        if got != want:
            return f"pd(image) {got} != min(R, pd) {want}"
        return None

    return check


def _transfer_check(report):
    if not report.applicable:
        return f"pair not within epsilon {report.epsilon}: distance {report.distance}"
    if report.holds is not True:
        return f"transfer bound failed: {report.lhs} > {report.bound}"
    return None


def _measure_digest(mu) -> str:
    return digest_text(";".join(f"{p}:{m}" for p, m in mu.atoms))


def measure_pipeline(seed: int) -> list:
    """Reads (pd at several alpha, pd profiles, Prokhorov transfer) mixed with
    writes (measure construction with merging, push-forward, clamp maps)."""
    rng = random.Random(f"measure-pipeline/{seed}")
    built: dict = {}  # dataset index -> measure built by this pass's write op
    ops = []

    def build(k, atoms):
        built[k] = obsdiam.DiscreteMeasure(atoms)
        return built[k]

    for k, (size, alphas) in enumerate(DATASETS):
        atoms = raw_atoms(rng, size)
        distinct = len({p for p, _ in atoms})
        atoms_digest = digest_text(";".join(f"{p}:{m}" for p, m in atoms))
        ops.append(Op(
            id=f"build/{size}",
            kind="build",
            call=lambda k=k, a=atoms: build(k, a),
            check=lambda mu, d=distinct: None if len(mu) == d else f"{len(mu)} atoms, {d} distinct positions",
            exact=_measure_digest,
            inputs=atoms_digest,
        ))
        for text in alphas:
            alpha = Fraction(text)
            ops.append(Op(
                id=f"pd/{size}/{text}",
                kind="pd",
                call=lambda k=k, a=alpha: obsdiam.partial_diameter(built[k], a),
                check=_pd_check(lambda k=k: built[k], alpha),
                exact=lambda r: str(r.value),
                inputs=f"{atoms_digest} {alpha}",
            ))
        if k in PUSHED:
            f = lipschitz_pl(rng, 6)
            ops.append(Op(
                id=f"push/{size}",
                kind="push",
                call=lambda k=k, f=f: obsdiam.push_forward(built[k], f),
                check=lambda image, k=k: None if len(image) <= len(built[k]) else "push-forward gained atoms",
                exact=_measure_digest,
                inputs=f"{atoms_digest} {f!r}",
            ))
    for k, alpha_text, radius_text in CLAMPED:
        alpha, radius = Fraction(alpha_text), Fraction(radius_text)
        size = DATASETS[k][0]
        ops.append(Op(
            id=f"clamp/{size}/{alpha_text}/{radius_text}",
            kind="clamp",
            call=lambda k=k, a=alpha, r=radius: obsdiam.clamp_construct(built[k], a, r),
            check=_clamp_check(lambda k=k: built[k], alpha, radius),
            exact=lambda f: _json_digest(f.to_json_dict()),
            inputs=f"dataset {k} {alpha} {radius}",
        ))
    for size in PROFILE_SIZES:
        mu = obsdiam.DiscreteMeasure(raw_atoms(rng, size))
        probes = [Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)]

        def profile_check(profile, mu=mu, probes=probes):
            for alpha in probes:
                if profile.evaluate(alpha) != obsdiam.partial_diameter(mu, alpha).value:
                    return f"profile disagrees with pd at alpha={alpha}"
            return None

        ops.append(Op(
            id=f"profile/{size}",
            kind="profile",
            call=lambda mu=mu: obsdiam.pd_profile(mu),
            check=profile_check,
            exact=lambda p: digest_text(repr(p.steps)),
            inputs=_measure_digest(mu),
        ))
    for i, nu_atoms in enumerate(WITHIN_CAP_NU + ABOVE_CAP_NU):
        above = i >= len(WITHIN_CAP_NU)
        nu = small_measure(rng, nu_atoms)
        epsilon = EPSILONS[i % len(EPSILONS)]
        mu = jittered(rng, nu, epsilon)
        alpha = Fraction(rng.randint(1, 11), 12)
        cap = ABOVE_CAP if above else 12
        ops.append(Op(
            id=f"transfer/{'above' if above else 'within'}-cap/{i}",
            kind="transfer-above-cap" if above else "transfer",
            call=lambda mu=mu, nu=nu, a=alpha, e=epsilon, c=cap: obsdiam.check_pd_transfer(mu, nu, a, e, cap=c),
            check=_transfer_check,
            exact=lambda r: f"{r.distance} {r.lhs} {r.bound}",
            inputs=f"{_measure_digest(mu)} {_measure_digest(nu)} {alpha} {epsilon} {cap}",
        ))
    return ops


# -- verify-suites -------------------------------------------------------------------------

# Single-case ops per suite and pass, weighted so no suite dominates the pass.
SUITE_WEIGHTS = {
    "lipschitz-reduction": 80, "affine-scaling": 80, "prokhorov-transfer": 40,
    "clamp-equality": 60, "anchor-internals": 80, "revised-inequality": 50,
    "oracle-agreement": 8, "cloud-bound": 30, "profiles": 80,
}


def _suite_check(report):
    if report.count != 1:
        return f"suite ran {report.count} cases, expected 1"
    if not report.ok:
        return f"{report.suite} failed: {report.failures[0].detail}"
    return None


def _cli_check(argv, result):
    code, out = result
    if code != 0:
        return f"exit {code}"
    if not out.strip():
        return "empty stdout"
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        if json.loads(out).get("ok") is False:
            return "JSON report says ok: false"
    return None


def run_cli(argv) -> tuple:
    """obsdiam.cli.main in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = obsdiam.cli.main(argv)
    return code, out.getvalue()


def verify_suites(seed: int, workdir: str) -> list:
    """The nine property suites as single-case ops over fixed case seeds,
    plus every CLI subcommand run in process on files generated from the seed."""
    # The suite cases are fixed like the od corpus: single cases of the
    # oracle-agreement suite range from 1 ms to seconds, so drawing them per
    # seed would make the seed, not the code, set the pass time.
    cases = random.Random(f"{CORPUS_SEED}/suites")
    rng = random.Random(f"verify-suites/{seed}")
    ops = []
    for name in SUITES:
        for i in range(SUITE_WEIGHTS[name]):
            suite_seed = cases.randrange(2**31)
            ops.append(Op(
                id=f"suite/{name}/{i}",
                kind=f"suite-{name}",
                call=lambda n=name, s=suite_seed: obsdiam.run_suite(n, s, 1),
                check=_suite_check,
                exact=lambda r: str(r.ok),
                inputs=f"{name} {suite_seed}",
            ))

    files: dict = {}  # file name -> digest of its contents

    def write(name, payload):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        files[name] = _json_digest(payload)
        return path

    mu_a = small_measure(rng, 6)  # the CLI keeps the default support cap of 12
    mu_b = jittered(rng, mu_a, Fraction(1, 4))
    a = write("a.json", mu_a.to_json_dict())
    b = write("b.json", mu_b.to_json_dict())
    dist5, mass5 = space_data(rng, 5, "two-row")
    s5 = write("s5.json", obsdiam.FiniteMMSpace([f"p{i}" for i in range(5)], dist5, mass5).to_json_dict())
    dist4, mass4 = space_data(rng, 4, "line")
    s4 = write("s4.json", obsdiam.FiniteMMSpace([f"p{i}" for i in range(4)], dist4, mass4).to_json_dict())
    proptest_seed = str(rng.randrange(2**31))
    # Seeded inputs stay small (a coarse grid, profiles on four points) so
    # that no CLI op lands in the pass's tail with a seed-dependent cost.
    commands = [
        ["pd", a, "--alpha", "1/2"],
        ["pd", a, "--alpha", "1/3", "--format", "json"],
        ["compress", a, "--alpha", "1/2", "--radius", "1"],
        ["compress", a, "--alpha", "1/4", "--radius", "1/2", "--format", "json"],
        ["od", s5, "--screen", "fullline", "--kappa", "1/2"],
        ["od", s5, "--screen", "interval:-1:1", "--kappa", "1/3", "--format", "json"],
        ["od", s4, "--screen", "interval:-1:1", "--kappa", "1/2", "--grid-step", "1/4"],
        ["prokhorov", a, b],
        ["prokhorov", a, b, "--mode", "symmetric", "--format", "json"],
        ["counterexample", "2", "1"],
        ["counterexample", "3", "1", "--format", "json"],
        ["sharpness", "1", "3"],
        ["sharpness", "1/2", "3", "--format", "csv"],
        ["profile", s4, "--screen", "interval:-2:2", "--kappas", "1/4,1/2,3/4"],
        ["profile", s4, "--screen", "fullline", "--kappas", "1/3,2/3", "--format", "json"],
        ["proptest", "profiles", "--seed", proptest_seed, "--count", "3"],
        ["proptest", "clamp-equality", "--seed", proptest_seed, "--count", "2", "--format", "json"],
    ]
    for argv in commands:
        shown = [os.path.basename(x) if x.startswith(workdir) else x for x in argv]
        ops.append(Op(
            id="cli/" + " ".join(shown),
            kind=f"cli-{argv[0]}",
            call=lambda argv=argv: run_cli(argv),
            check=lambda result, argv=argv: _cli_check(argv, result),
            exact=lambda result: digest_text(result[1]),
            inputs=" ".join(shown + [files[x] for x in shown if x in files]),
        ))
    random.Random(f"verify-suites/order/{seed}").shuffle(ops)
    return ops


def ops_digest(ops) -> str:
    """Digest of the op list: ids, order and inputs."""
    return digest_text("\n".join(f"{op.id} {op.inputs}" for op in ops))


def build(workload: str, seed: int, workdir: str) -> list:
    if workload == "od-corpus":
        return od_corpus(seed)
    if workload == "measure-pipeline":
        return measure_pipeline(seed)
    return verify_suites(seed, workdir)
