"""Certificate checks must run under ``python -O``, which strips asserts.

The engine re-checks every reported value against its witness and raises
``VerificationError`` when they disagree; the CLI maps that to exit 1.  The
test runs in a ``-O`` child interpreter with the witness check patched to
lie, so a check written as ``assert`` would pass silently and fail here.
"""

import os
import subprocess
import sys
import textwrap

import obsdiam
from obsdiam import FiniteMMSpace

CHILD = textwrap.dedent(
    """
    import sys
    from fractions import Fraction

    import obsdiam.cli as cli
    import obsdiam.observable as observable
    from obsdiam import FULL_LINE, FiniteMMSpace, VerificationError

    print("optimize", sys.flags.optimize)
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
        "honest 1",
        "engine VerificationError",
        "cli exit 1",
    ]
    assert "verification failure" in proc.stderr
