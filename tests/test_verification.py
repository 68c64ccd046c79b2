"""Certificate checks must run under ``python -O``, which strips asserts.

The engine re-checks every reported value against its witness, and the
sharpness sweep checks its rows against the closed forms; both raise
``VerificationError`` when they disagree, and the CLI maps that to exit 1.
The test runs in a ``-O`` child interpreter with the witness check patched
to lie, the sweep's engine patched to be off by one and the cloud-bound
suite's engine patched to understate od, so a check written as ``assert``
would pass silently and fail here.
"""

import os
import subprocess
import sys
import textwrap

import obsdiam
from obsdiam import FiniteMMSpace

CHILD = textwrap.dedent(
    """
    import contextlib
    import io
    import sys
    from fractions import Fraction
    from types import SimpleNamespace

    import obsdiam.cli as cli
    import obsdiam.experiments as experiments
    import obsdiam.observable as observable
    import obsdiam.proptests as proptests
    from obsdiam import FULL_LINE, FiniteMMSpace, VerificationError

    print("optimize", sys.flags.optimize)
    honest_od = experiments.observable_diameter
    experiments.observable_diameter = lambda *args, **kwargs: SimpleNamespace(
        value=honest_od(*args, **kwargs).value + 1
    )
    try:
        experiments.sharpness_sweep(1, 3)
    except VerificationError:
        print("sharpness VerificationError")
    else:
        print("sharpness passed")
    print("sharpness cli exit", cli.main(["sharpness", "1", "3"]))
    experiments.observable_diameter = honest_od

    proptests.observable_diameter = lambda *args, **kwargs: SimpleNamespace(
        value=honest_od(*args, **kwargs).value * Fraction(3, 4)
    )
    print("cloud-bound ok", proptests.run_suite("cloud-bound", 0, 25).ok)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["proptest", "cloud-bound", "--seed", "0", "--count", "25"])
    print("cloud-bound cli exit", code)
    proptests.observable_diameter = honest_od

    space = FiniteMMSpace.line_space([1, 2, 3, 4])
    print("honest", observable.observable_diameter(space, FULL_LINE, Fraction(3, 5)).value)
    observable.witness_partial_diameter = lambda space, witness, alpha: Fraction(-1)
    try:
        observable.observable_diameter(space, FULL_LINE, Fraction(3, 5))
    except VerificationError:
        print("engine VerificationError")
    else:
        print("engine passed")
    print("cli exit", cli.main(["od", sys.argv[1], "--screen", "fullline", "--kappa", "3/5"]))
    """
)


def test_witness_check_survives_python_O(tmp_path):
    space_file = tmp_path / "x2.json"
    FiniteMMSpace.line_space([1, 2, 3, 4]).dump(space_file)
    src = os.path.dirname(os.path.dirname(os.path.abspath(obsdiam.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CHILD, str(space_file)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "sharpness VerificationError",
        "sharpness cli exit 1",
        "cloud-bound ok False",
        "cloud-bound cli exit 1",
        "honest 1",
        "engine VerificationError",
        "cli exit 1",
    ]
    assert "verification failure" in proc.stderr
