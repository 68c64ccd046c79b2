"""Literal stdout and exit codes of every CLI subcommand in every format.

These pin the CLI's observable output byte for byte: the wording of text
reports, the key order and indentation of JSON reports, CSV rows, the grid
enclosure, ``--out``, both ``prokhorov --mode`` values and the error exits
(where stdout stays empty).  Inputs are written fresh into a temporary
working directory, so the relative file names in the commands are stable.
"""

from fractions import Fraction as F

import pytest

import obsdiam.cli as cli
from obsdiam import DiscreteMeasure, FiniteMMSpace


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    DiscreteMeasure.uniform([1, 2, 3, 4]).dump("m.json")
    DiscreteMeasure([(0, F(1, 2)), (10, F(1, 2))]).dump("split.json")
    FiniteMMSpace.line_space([1, 2, 3, 4]).dump("x2.json")
    FiniteMMSpace.line_space(
        [0, 1, 3, 4, 7], masses=[F(1, 8), F(1, 4), F(1, 8), F(3, 8), F(1, 8)]
    ).dump("s5.json")
    # eleven points trip both default caps; the heavy first atom keeps a
    # raised-cap run instant
    FiniteMMSpace.line_space(range(11), masses=[F(9, 10)] + [F(1, 100)] * 10).dump("big.json")
    return tmp_path


# (command line, exit code, stdout)
CASES = [
    (
        "pd m.json --alpha 3/5",
        0,
        """\
2
window: [1, 3]
""",
    ),
    (
        "pd m.json --alpha 3/10 --format json",
        0,
        """\
{
  "alpha": "3/10",
  "command": "pd",
  "schema": 1,
  "value": "1",
  "value_decimal": "1",
  "window": [
    "1",
    "2"
  ]
}
""",
    ),
    (
        "pd m.json --alpha 7/5",
        2,
        "",
    ),
    (
        "pd missing.json --alpha 1/2",
        2,
        "",
    ),
    (
        "compress m.json --alpha 1/2 --radius 1/2",
        0,
        """\
pd(source) = 1
pd(image) = 1/2 = min{1/2, 1}: OK
1-Lipschitz: OK
range within [-1, 1]: OK
""",
    ),
    (
        "compress m.json --alpha 3/10 --radius 10 --format json",
        0,
        """\
{
  "alpha": "3/10",
  "checks": {
    "one_lipschitz": true,
    "pd_equality": true,
    "range_within_budget": true
  },
  "command": "compress",
  "expected_pd": "1",
  "image_pd": "1",
  "map": {
    "base_x": "1",
    "base_y": "-2",
    "breakpoints": [
      "1",
      "4"
    ],
    "slopes": [
      "0",
      "1",
      "0"
    ]
  },
  "ok": true,
  "radius": "10",
  "range_limit": "100/3",
  "schema": 1,
  "source_pd": "1"
}
""",
    ),
    (
        "compress m.json --alpha 3/10 --radius 1 --out map.json",
        0,
        """\
pd(source) = 1
pd(image) = 1 = min{1, 1}: OK
1-Lipschitz: OK
range within [-10/3, 10/3]: OK
map written to map.json
""",
    ),
    (
        "compress m.json --alpha 1 --radius 1",
        2,
        "",
    ),
    (
        "od x2.json --screen interval:-1:1 --kappa 3/5",
        0,
        """\
2/3 (exact)
witness: p0->-1, p1->-1/3, p2->1/3, p3->1
""",
    ),
    (
        "od x2.json --screen fullline --kappa 3/5 --format json",
        0,
        """\
{
  "certified": "exact",
  "command": "od",
  "exact": true,
  "kappa": "3/5",
  "schema": 1,
  "screen": "fullline",
  "value": "1",
  "value_decimal": "1",
  "witness": [
    "0",
    "1",
    "2",
    "3"
  ]
}
""",
    ),
    (
        "od s5.json --screen interval:-2:2 --kappa 1/3",
        0,
        """\
3 (exact)
witness: p0->2, p1->1, p2->-1, p3->-2, p4->1
""",
    ),
    (
        "od s5.json --screen fullline --kappa 1/2 --format json",
        0,
        """\
{
  "certified": "exact",
  "command": "od",
  "exact": true,
  "kappa": "1/2",
  "schema": 1,
  "screen": "fullline",
  "value": "1",
  "value_decimal": "1",
  "witness": [
    "0",
    "1",
    "3",
    "4",
    "7"
  ]
}
""",
    ),
    (
        "od x2.json --screen interval:-1:1 --kappa 3/5 --grid-step 1/64",
        0,
        """\
[21/32, 45/64] (certified interval, grid step 1/64)
""",
    ),
    (
        "od x2.json --screen interval:-1:1 --kappa 3/5 --grid-step 1/16 --format json",
        0,
        """\
{
  "certified": "interval",
  "command": "od",
  "grid_step": "1/16",
  "kappa": "3/5",
  "lower": "5/8",
  "schema": 1,
  "screen": "interval:-1:1",
  "upper": "13/16"
}
""",
    ),
    (
        "od s5.json --screen interval:-2:2 --kappa 1/3 --grid-step 1/4",
        3,
        "",
    ),
    (
        "od s5.json --screen interval:-2:2 --kappa 1/3 --grid-step 1/4 --cap-n 5 --format json",
        0,
        """\
{
  "certified": "interval",
  "command": "od",
  "grid_step": "1/4",
  "kappa": "1/3",
  "lower": "3",
  "schema": 1,
  "screen": "interval:-2:2",
  "upper": "4"
}
""",
    ),
    (
        "od x2.json --screen fullline --kappa 3/5 --grid-step 1/8",
        2,
        "",
    ),
    (
        "od big.json --screen fullline --kappa 1/2",
        3,
        "",
    ),
    (
        "od big.json --screen fullline --kappa 1/2 --cap-n 11",
        0,
        """\
0 (exact)
witness: p0->0, p1->0, p2->0, p3->0, p4->0, p5->0, p6->0, p7->0, p8->0, p9->0, p10->0
""",
    ),
    (
        "od big.json --screen interval:0:1 --kappa 1/2 --grid-step 1/2",
        3,
        "",
    ),
    (
        "od x2.json --screen interval:2:1 --kappa 1/2",
        2,
        "",
    ),
    (
        "prokhorov m.json split.json",
        0,
        """\
1
""",
    ),
    (
        "prokhorov m.json split.json --format json",
        0,
        """\
{
  "command": "prokhorov",
  "mode": "onesided",
  "schema": 1,
  "value": "1",
  "value_decimal": "1"
}
""",
    ),
    (
        "prokhorov m.json split.json --mode symmetric",
        0,
        """\
1
""",
    ),
    (
        "prokhorov split.json m.json --mode symmetric --format json",
        0,
        """\
{
  "command": "prokhorov",
  "mode": "symmetric",
  "schema": 1,
  "value": "1",
  "value_decimal": "1"
}
""",
    ),
    (
        "counterexample 2 1",
        0,
        """\
family N=2, R=1, kappa=5/8 (window [1/2, 3/4): inside)
od full line = 1 (expected 1)
od interval:-1:1 = 2/3 (expected 2/3)
uncorrected bound min{2R, od} = 1 vs 2/3: REFUTED
PASS
""",
    ),
    (
        "counterexample 3 1/2 --format json",
        0,
        """\
{
  "command": "counterexample",
  "expected_c": "4/5",
  "expected_od_interval": "2/5",
  "in_window": true,
  "interval": "interval:-1:1",
  "kappa": "3/4",
  "matches": true,
  "n_family": 3,
  "od_full_line": "1/2",
  "od_full_line_decimal": "0.5",
  "od_interval": "2/5",
  "od_interval_decimal": "0.4",
  "ok": true,
  "original_refuted": null,
  "radius": "1/2",
  "schema": 1
}
""",
    ),
    (
        "counterexample 2 1 3/5 --format json",
        0,
        """\
{
  "command": "counterexample",
  "expected_c": "2/3",
  "expected_od_interval": "2/3",
  "in_window": true,
  "interval": "interval:-1:1",
  "kappa": "3/5",
  "matches": true,
  "n_family": 2,
  "od_full_line": "1",
  "od_full_line_decimal": "1",
  "od_interval": "2/3",
  "od_interval_decimal": "0.666666667",
  "ok": true,
  "original_refuted": true,
  "radius": "1",
  "schema": 1
}
""",
    ),
    (
        "counterexample 2 1 1/10",
        0,
        """\
family N=2, R=1, kappa=1/10 (window [1/2, 3/4): OUTSIDE)
od full line = 3 (expected 1)
od interval:-1:1 = 2 (expected 2/3)
uncorrected bound min{2R, od} = 2 vs 2: NOT refuted
SKIPPED (kappa outside the validity window; values informational)
""",
    ),
    (
        "counterexample 2 1 1/10 --format json",
        0,
        """\
{
  "command": "counterexample",
  "expected_c": "2/3",
  "expected_od_interval": "2/3",
  "in_window": false,
  "interval": "interval:-1:1",
  "kappa": "1/10",
  "matches": false,
  "n_family": 2,
  "od_full_line": "3",
  "od_full_line_decimal": "3",
  "od_interval": "2",
  "od_interval_decimal": "2",
  "ok": false,
  "original_refuted": false,
  "radius": "1",
  "schema": 1
}
""",
    ),
    (
        "counterexample 1 1",
        2,
        "",
    ),
    (
        "counterexample 5 1 --cap-n 8",
        3,
        "",
    ),
    (
        "sharpness 1 3",
        0,
        """\
n=2 kappa=1/2 od_full=1 od_interval=2/3 ratio=3/2 gap=2 (exact)
n=3 kappa=2/3 od_full=1 od_interval=4/5 ratio=5/4 gap=2 (exact)
all rows: ratio > 1 and gap = 2: OK
""",
    ),
    (
        "sharpness 1/2 3 --format json",
        0,
        """\
{
  "command": "sharpness",
  "ok": true,
  "radius": "1/2",
  "rows": [
    {
      "gap": "1",
      "interval": "interval:-1/2:1/2",
      "kappa": "1/2",
      "n": 2,
      "od_full_line": "1/2",
      "od_interval": "1/3",
      "od_interval_decimal": "0.333333333",
      "provenance": "exact",
      "radius": "1/2",
      "ratio": "3/2",
      "ratio_decimal": "1.5",
      "revised_screen_width": "2"
    },
    {
      "gap": "1",
      "interval": "interval:-1:1",
      "kappa": "2/3",
      "n": 3,
      "od_full_line": "1/2",
      "od_interval": "2/5",
      "od_interval_decimal": "0.4",
      "provenance": "exact",
      "radius": "1/2",
      "ratio": "5/4",
      "ratio_decimal": "1.25",
      "revised_screen_width": "3"
    }
  ],
  "schema": 1
}
""",
    ),
    (
        "sharpness 1 5 --format csv",
        0,
        """\
n,kappa,radius,interval_lo,interval_hi,od_full_line,od_interval,ratio,revised_screen_width,gap,provenance
2,1/2,1,-1,1,1,2/3,3/2,4,2,exact
3,2/3,1,-2,2,1,4/5,5/4,6,2,exact
4,3/4,1,-3,3,1,6/7,7/6,8,2,exact
5,4/5,1,-4,4,1,8/9,9/8,10,2,exact
""",
    ),
    (
        "sharpness 1 12",
        0,
        """\
n=2 kappa=1/2 od_full=1 od_interval=2/3 ratio=3/2 gap=2 (exact)
n=3 kappa=2/3 od_full=1 od_interval=4/5 ratio=5/4 gap=2 (exact)
n=4 kappa=3/4 od_full=1 od_interval=6/7 ratio=7/6 gap=2 (exact)
n=5 kappa=4/5 od_full=1 od_interval=8/9 ratio=9/8 gap=2 (exact)
n=6 kappa=5/6 od_full=1 od_interval=10/11 ratio=11/10 gap=2 (exact)
n=7 kappa=6/7 od_full=1 od_interval=12/13 ratio=13/12 gap=2 (exact)
n=8 kappa=7/8 od_full=1 od_interval=14/15 ratio=15/14 gap=2 (exact)
n=9 kappa=8/9 od_full=1 od_interval=16/17 ratio=17/16 gap=2 (exact)
n=10 kappa=9/10 od_full=1 od_interval=18/19 ratio=19/18 gap=2 (exact)
n=11 kappa=10/11 od_full=1 od_interval=20/21 ratio=21/20 gap=2 (exact)
n=12 kappa=11/12 od_full=1 od_interval=22/23 ratio=23/22 gap=2 (closed-form)
all rows: ratio > 1 and gap = 2: OK
""",
    ),
    (
        "profile x2.json --screen fullline --kappas 1/5,2/5,3/5,4/5",
        0,
        """\
kappa=1/5 od=3 constant on [1/5, 1/4) probe=3 OK
kappa=2/5 od=2 constant on [2/5, 1/2) probe=2 OK
kappa=3/5 od=1 constant on [3/5, 3/4) probe=1 OK
kappa=4/5 od=0 constant on [4/5, 1) probe=0 OK
monotone nonincreasing: OK
right-continuous at grid points: OK
""",
    ),
    (
        "profile x2.json --screen interval:-1:1 --kappas 1/2,5/8 --format json",
        0,
        """\
{
  "command": "profile",
  "monotone_nonincreasing": true,
  "ok": true,
  "right_continuous": true,
  "rows": [
    {
      "alpha": "1/2",
      "constant_until": "3/4",
      "kappa": "1/2",
      "od": "2/3",
      "od_decimal": "0.666666667",
      "probe_kappa": "5/8",
      "probe_od": "2/3",
      "right_continuous": true
    },
    {
      "alpha": "3/8",
      "constant_until": "3/4",
      "kappa": "5/8",
      "od": "2/3",
      "od_decimal": "0.666666667",
      "probe_kappa": "11/16",
      "probe_od": "2/3",
      "right_continuous": true
    }
  ],
  "schema": 1,
  "screen": "interval:-1:1"
}
""",
    ),
    (
        "profile s5.json --screen interval:-2:2 --kappas 1/4,1/2 --format csv",
        0,
        """\
kappa,alpha,od,constant_until,probe_kappa,probe_od,right_continuous
1/4,3/4,3,3/8,5/16,3,True
1/2,1/2,1,5/8,9/16,1,True
""",
    ),
    (
        "profile x2.json --screen fullline --kappas 0,1/2",
        2,
        "",
    ),
    (
        "profile big.json --screen fullline --kappas 1/2",
        3,
        "",
    ),
    (
        "proptest profiles --count 3",
        0,
        """\
profiles: 3/3 PASS
""",
    ),
    (
        "proptest clamp-equality --seed 5 --count 2 --format json",
        0,
        """\
{
  "command": "proptest",
  "count": 2,
  "ok": true,
  "schema": 1,
  "seed": 5,
  "suites": [
    {
      "count": 2,
      "failures": [],
      "ok": true,
      "passed": 2,
      "seed": 5,
      "suite": "clamp-equality"
    }
  ]
}
""",
    ),
    (
        "proptest no-such-suite",
        2,
        "",
    ),
    (
        "frobnicate",
        2,
        "",
    ),
    (
        "",
        2,
        "",
    ),
]


@pytest.mark.parametrize("command, code, stdout", CASES, ids=[c[0] or "<none>" for c in CASES])
def test_cli_stdout_and_exit_code(inputs, capsys, command, code, stdout):
    assert cli.main(command.split()) == code
    assert capsys.readouterr().out == stdout


MAP_JSON = """\
{
  "base_x": "1",
  "base_y": "-2",
  "breakpoints": [
    "1",
    "4"
  ],
  "slopes": [
    "0",
    "1",
    "0"
  ]
}
"""


def test_compress_out_writes_the_map(inputs, capsys):
    command = "compress m.json --alpha 3/10 --radius 1 --out map.json"
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out.endswith("map written to map.json\n")
    assert (inputs / "map.json").read_text() == MAP_JSON
