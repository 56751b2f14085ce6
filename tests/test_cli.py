import csv
import io
import json
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from density_reference import csv_rows, density_per_element
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import builtin, cli, houghton, lamplighter, verify
from curvlab.cache import cache_path, cached_bfs_metric
from curvlab.core import ball, bfs_metric
from curvlab.heisenberg import CSV_HEADER as DENSITY_CSV_HEADER
from curvlab.heisenberg import MalcevTriple
from curvlab.houghton import h2_g, h2_h, h2_u
from curvlab.lamplighter import LampConfig, WreathConfig, ll_dm_tk, ll_make_dm
from curvlab.literals import (
    MAX_BUILDER_SIZE,
    MAX_WORD_LETTERS,
    _FAMILIES,
    ParseError,
    format_element,
    get_group,
    parse_element,
)


NINES = "9" * 5000  # past the interpreter's default limit on int() of a digit string


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "curvlab.cli", *args], capture_output=True, text=True
    )
    return proc


# ---------------------------------------------------------------------------
# literals


def test_parse_zn():
    assert parse_element("Z2", "(2,-3)") == (2, -3)
    assert parse_element("Z3", "( 1 , 0 , -7 )") == (1, 0, -7)
    with pytest.raises(ParseError):
        parse_element("Z2", "(1,2,3)")
    with pytest.raises(ParseError, match=re.escape('expected "(c1,...,cn)" coordinates')):
        parse_element("Z2", "1,2")


def test_parse_words():
    f2 = get_group("F2")
    assert parse_element("F2", "a b a^-1") == f2.evaluate(["a", "b", "a^-1"])
    assert parse_element("F2", "w: a b") == (1, 2)
    assert parse_element("F2", "a^3") == (1, 1, 1)
    assert parse_element("S3", "s t s") == parse_element("S3", "t s t")
    with pytest.raises(ParseError):
        parse_element("F2", "q")
    for text in ("w: a^x", "a^^2"):
        with pytest.raises(ParseError, match=re.escape("expected a generator name with an optional ^<power>")):
            parse_element("F2", text)
    # a^k counts |k| letters towards the bound
    assert parse_element("F2", f"w: a^{MAX_WORD_LETTERS - 1} b^-1") == (1,) * (MAX_WORD_LETTERS - 1) + (-2,)
    assert parse_element("F2", "w: a^003 a^-0") == (1, 1, 1)
    for text in (f"w: a^{MAX_WORD_LETTERS} b", f"a^-{MAX_WORD_LETTERS + 1}", "w: a^" + "9" * 5000):
        with pytest.raises(ParseError, match=str(MAX_WORD_LETTERS)):
            parse_element("F2", text)


def test_parse_lamplighter():
    assert parse_element("L2", "d(3)") == ll_make_dm(3)
    assert parse_element("L2", "d(5)*t^2") == ll_dm_tk(5, 2)
    assert parse_element("L2", "L2{ -1,0,2 ; p=3 }") == LampConfig((-1, 0, 2), 3)
    assert parse_element("L2", "L2{ ; p=0 }") == LampConfig((), 0)
    with pytest.raises(ParseError):
        parse_element("L2", "L2{ 1,1 ; p=0 }")
    with pytest.raises(ParseError, match="expected a comma-separated list of integers"):
        parse_element("L2", "L2{ x ; p=0 }")
    with pytest.raises(ParseError):
        parse_element("L2", "d(0)")
    assert parse_element("L2", f"d({MAX_BUILDER_SIZE})*t^-1") == ll_dm_tk(MAX_BUILDER_SIZE, -1)
    for text in (f"d({MAX_BUILDER_SIZE + 1})", "d(" + "9" * 5000 + ")*t^2"):
        with pytest.raises(ParseError, match=str(MAX_BUILDER_SIZE)):
            parse_element("L2", text)


def test_parse_wreath():
    assert parse_element("W3", "W3{ 1:2, 0:1 ; p=0 }") == WreathConfig(((0, 1), (1, 2)), 0)
    with pytest.raises(ParseError):
        parse_element("W3", "W3{ 0:3 ; p=0 }")  # state out of range
    with pytest.raises(ParseError):
        parse_element("W3", "W3{ 0:0 ; p=0 }")  # identity state
    with pytest.raises(ParseError, match="'0:2': expected distinct lamp indices"):
        parse_element("W3", "W3{0:1, 0:2 ; p=0}")
    # the head of the literal is the group id
    for text in ("W7{0:1;p=0}", "W{0:1;p=0}", "W03{0:1;p=0}"):
        with pytest.raises(ParseError, match="W<n>"):
            parse_element("W3", text)
    with pytest.raises(ParseError, match='expected "index:state"'):  # a negative state
        parse_element("W3", "W3{0:-1;p=0}")


def test_parse_houghton():
    assert parse_element("H2", "g(2)") == h2_g(2)
    assert parse_element("H2", "h(3,2)") == h2_h(3, 2)
    assert parse_element("H2", "u(2,pos)") == h2_u(2, "pos")
    el = parse_element("H2", "H2{ 1:2, 2:1 ; shift=0 }")
    assert el.moves == ((1, 2), (2, 1))
    with pytest.raises(ParseError):
        parse_element("H2", "H2{ 1:2 ; shift=0 }")  # not a bijection
    with pytest.raises(ParseError):
        parse_element("H2", "H2{ 1:2, 2:3 ; shift=1 }")  # entries match the shift
    with pytest.raises(ParseError, match="'0:1': expected nonzero bead indices"):
        parse_element("H2", "H2{0:1;shift=0}")
    with pytest.raises(ParseError, match="'1:3': expected distinct source points"):
        parse_element("H2", "H2{1:2, 1:3 ; shift=0}")
    with pytest.raises(ParseError, match="expected an injective exception table"):
        parse_element("H2", "H2{1:2, 2:2 ; shift=0}")
    for builder in ("g(0)", "h(1,2)", "h(2,0)", "u(0,pos)"):
        with pytest.raises(ParseError):
            parse_element("H2", builder)
    n = MAX_BUILDER_SIZE
    assert parse_element("H2", f"h({n},00{n})") == h2_h(n, n)
    for builder in (f"g({n + 1})", f"h({n + 1},1)", f"h(5,0{n + 1})", f"u({n + 1},neg)", "u(" + "9" * 5000 + ",pos)"):
        with pytest.raises(ParseError, match=str(n)):
            parse_element("H2", builder)


def test_parse_heisenberg():
    assert parse_element("Heis", "Heis(1,2,3)") == MalcevTriple(1, 2, 3)
    assert parse_element("Heis", "(1,2,3)") == MalcevTriple(1, 2, 3)
    with pytest.raises(ParseError):
        parse_element("Heis", "Heis(1,2)")


@pytest.mark.parametrize(
    "group_id,literal",
    [
        ("Z2", "(2,-3)"),
        ("Z3", "(0,0,0)"),
        ("F2", "a b a^-1 b^-1"),
        ("F2", "w:"),
        ("S3", "s t"),
        ("L2", "d(3)"),
        ("L2", "L2{ -1,4 ; p=-2 }"),
        ("W3", "W3{ -1:2, 3:1 ; p=1 }"),
        ("H2", "h(2,2)"),
        ("H2", "H2{ ; shift=3 }"),
        ("Heis", "Heis(4,-2,7)"),
    ],
)
def test_parse_format_round_trip(group_id, literal):
    el = parse_element(group_id, literal)
    printed = format_element(group_id, el)
    assert parse_element(group_id, printed) == el


BALLS = [("Z1", 3), ("Z2", 4), ("Z3", 3), ("F2", 4), ("F3", 3), ("F30", 1), ("S3", 3), ("L2", 6), ("W2", 4),
         ("W3", 4), ("H2", 4), ("Heis", 5)]


@pytest.mark.parametrize("group_id,radius", BALLS, ids=[f"{g}-B{r}" for g, r in BALLS])
def test_parse_format_round_trip_over_a_ball(group_id, radius):
    # every element of the ball, so no literal shape of the group escapes the round trip
    for el in ball(bfs_metric(get_group(group_id), radius), radius):
        assert parse_element(group_id, format_element(group_id, el)) == el


# every built-in family, F30 with the x<k> labels of more than 26 generators
ROUND_TRIP_IDS = ["Z1", "Z2", "Z3", "F1", "F2", "F30", "S3", "L2", "W2", "W3", "W7", "H2", "Heis"]


@pytest.mark.parametrize("group_id", ROUND_TRIP_IDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parse_format_round_trip_of_long_words(group_id, data):
    # elements far outside the balls above: products of up to 300 random generators
    oracle = get_group(group_id)
    word = data.draw(st.lists(st.integers(0, len(oracle.steps) - 1), max_size=300))
    el = reduce(lambda x, i: oracle.steps[i](x), word, oracle.identity)
    assert parse_element(group_id, format_element(group_id, el)) == el


def test_unknown_group():
    for group_id in ("Q8", "Z0", "F0", "W0", "W1"):
        with pytest.raises(ParseError):
            get_group(group_id)


def test_every_family_builds_oracles_of_its_own_ids():
    # one id per _FAMILIES row, so a misspelt module or builder name, or an id the oracle does not carry, fails here
    for (pattern, *_), group_id in zip(_FAMILIES, ["Z2", "F2", "S3", "L2", "W3", "H2", "Heis"], strict=True):
        assert re.fullmatch(pattern, group_id), (pattern, group_id)
        assert get_group(group_id).group_id == group_id


# ---------------------------------------------------------------------------
# CLI


def test_cli_length_example():
    proc = run_cli("length", "--group", "L2", "--element", "d(3)")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["length"] == 19


@pytest.mark.parametrize("literal, length", [("(5,2,3)", 9), ("Heis(1,2,3)", 7), ("(0,1,0)", 1)])
def test_cli_heisenberg_length_is_closed_form_everywhere(tmp_path, literal, length):
    # the closed form is total, so every length is read with a table of horizon 0
    proc = run_cli("length", "--group", "Heis", "--element", literal, "--cache", str(tmp_path))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["length"] == length
    assert [f.name for f in tmp_path.iterdir()] == ["Heis_h0.cvl"]


def test_cli_curvature_positive():
    proc = run_cli(
        "curvature", "--group", "L2", "--element", "d(5)*t^1", "--radius", "3", "--mode", "sphere"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kappa"] == "1/18"
    assert Fraction(payload["kappa"]) > 0


def test_cli_curvature_zero_abelian():
    proc = run_cli("curvature", "--group", "Z2", "--element", "(2,3)", "--radius", "2")
    payload = json.loads(proc.stdout)
    assert payload["kappa"] == "0/1"


def test_cli_deterministic_output():
    args = ["curvature", "--group", "L2", "--element", "d(4)*t^1", "--radius", "2"]
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_cli_probe_seeded_sample_deterministic():
    args = ["probe", "--group", "F2", "--radius", "1", "--ball", "3", "--sample", "6", "--seed", "5"]
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2
    other = run_cli(*args[:-1], "6").stdout
    assert other != out1  # a different seed samples differently


def test_cli_probe_ball_beyond_the_horizon_is_an_error():
    proc = run_cli("probe", "--group", "Z2", "--ball", "10", "--sample", "3")
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "--ball 10" in lines[0] and "horizon 4" in lines[0]


def test_cli_probe_samples_the_whole_requested_ball():
    proc = run_cli("probe", "--group", "Z1", "--ball", "10", "--horizon", "10")
    assert proc.returncode == 0
    assert {"(-10)", "(10)"} <= {row["element"] for row in json.loads(proc.stdout)["rows"]}


def test_cli_probe_lists_every_identity_counterexample():
    payload = json.loads(run_cli("probe", "--group", "Heis", "--ball", "3", "--radius", "1", "--horizon", "8").stdout)
    rows = payload["rows"]
    assert len(rows) == 52
    assert payload["identity_counterexamples"] == [row["element"] for row in rows if not row["identity_optimal"]]
    assert len(payload["identity_counterexamples"]) == 24


def test_cli_csv_format():
    proc = run_cli(
        "curvature", "--group", "Z2", "--element", "(1,1)", "--radius", "1", "--format", "csv"
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("element,radius,mode")
    assert len(lines) == 5  # header + |S_1| = 4 conjugators


def test_cli_deadend_scan():
    proc = run_cli("deadend", "--group", "L2", "--scan", "--horizon", "7", "--max-depth", "3")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(rows) == 1
    assert rows[0]["element"] == "L2{-1,0,1;p=0}"
    assert rows[0]["depth"] == 3
    assert rows[0]["witness"] is not None and len(rows[0]["witness"]) == 3


def test_cli_backtracks():
    proc = run_cli("backtracks", "--group", "L2", "--element", "d(2)", "--bound", "6")
    payload = json.loads(proc.stdout)
    assert payload["count"] == 43
    assert "L2{-2,-1,0,1,2;p=1}" in payload["backtracks"]


@pytest.mark.parametrize(
    "args, message",
    [
        # S3 holds no element longer than s t s: the search exhausts the group, so no bound helps
        (
            ("backtracks", "--group", "S3", "--element", "s t s"),
            "the escape search exhausted S3 without reaching a longer element; no bound gives backtracks",
        ),
        (
            ("backtracks", "--group", "L2", "--element", "d(2)", "--bound", "3"),
            "the escape depth exceeds the bound 3; raise the bound to enumerate backtracks",
        ),
        (("backtracks", "--group", "L2", "--element", "L2{;p=1}"), "the element is not a dead end"),
    ],
)
def test_cli_backtracks_errors(args, message):
    # one line that names the cause, and no repr of the element the user typed
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"curvlab: {message}\n"


def test_cli_dead_end_results_do_not_depend_on_the_horizon():
    # the escape search reads L2 lengths from the closed form, not from the table's spheres
    payload = json.loads(run_cli("deadend", "--group", "L2", "--element", "d(3)", "--horizon", "1").stdout)
    assert payload["strict_depth"] == 2
    small = run_cli("backtracks", "--group", "L2", "--element", "d(2)", "--horizon", "3")
    assert small.returncode == 0
    assert small.stdout == run_cli("backtracks", "--group", "L2", "--element", "d(2)").stdout
    assert json.loads(small.stdout)["count"] == 43
    # a depth bound short of the escape does not cap the strict depth
    s3 = json.loads(
        run_cli("deadend", "--group", "S3", "--element", "s t s", "--horizon", "3", "--max-depth", "2").stdout
    )
    assert s3["depth"] is None and s3["strict_depth"] == 3 and s3["group_exhausted"] is True


def test_cli_deadend_tells_an_exhausted_group_from_a_reached_bound():
    # S3 holds no element longer than s t s: the search runs out of elements and no bound was reached
    s3 = run_cli("deadend", "--group", "S3", "--element", "s t s")
    assert s3.returncode == 0 and s3.stderr == ""
    assert json.loads(s3.stdout) == {
        "group": "S3", "kind": "deadend", "element": "w: s t s", "base_length": 3, "is_dead_end": True,
        "depth": None, "depth_horizon_exceeded": False, "group_exhausted": True, "strict_depth": 3, "witness": None,
    }
    # d(2) escapes at depth 5, so a bound of 3 is reached in the infinite group L2
    l2 = run_cli("deadend", "--group", "L2", "--element", "d(2)", "--max-depth", "3")
    assert l2.returncode == 0 and l2.stderr == ""
    assert json.loads(l2.stdout) == {
        "group": "L2", "kind": "deadend", "element": "L2{-2,-1,0,1,2;p=0}", "base_length": 13, "is_dead_end": True,
        "depth": None, "depth_horizon_exceeded": True, "group_exhausted": False, "strict_depth": 2, "witness": None,
    }


DEADEND_D8 = ("deadend", "--group", "L2", "--element", "d(8)", "--max-depth", "17")

CLI_GOLDEN = {
    "deadend_l2_scan_h9": ("deadend", "--group", "L2", "--scan", "--horizon", "9"),
    "deadend_l2_d4": ("deadend", "--group", "L2", "--element", "d(4)"),
    "backtracks_l2_d3": ("backtracks", "--group", "L2", "--element", "d(3)"),
    "backtracks_l2_d3_csv": ("backtracks", "--group", "L2", "--element", "d(3)", "--format", "csv"),
    # the escape search on closed-form lengths off the table, on a group with no closed form, through a whole
    # finite group, and to depth 15 with its witness; the dead-end filter of a scan
    "deadend_w3_scan_h9": ("deadend", "--group", "W3", "--scan", "--horizon", "9"),
    "deadend_h2_g2_h12": ("deadend", "--group", "H2", "--element", "g(2)", "--horizon", "12"),
    "deadend_s3_sts": ("deadend", "--group", "S3", "--element", "s t s"),
    "deadend_l2_d7_depth16": ("deadend", "--group", "L2", "--element", "d(7)", "--max-depth", "16"),
    "backtracks_l2_d4_csv": ("backtracks", "--group", "L2", "--element", "d(4)", "--format", "csv"),
    # the Heisenberg census numerators, summed over a-exponents
    "density_k26_r2_csv": ("density", "--k", "26", "--radius", "2", "--format", "csv"),
    "density_k60_r3": ("density", "--k", "60", "--radius", "3"),
    "curvature_l2_d4t1_r3": ("curvature", "--group", "L2", "--element", "d(4)*t^1", "--radius", "3"),
    "curvature_l2_d5t2_r4_ball_csv": (
        "curvature", "--group", "L2", "--element", "d(5)*t^2", "--radius", "4", "--mode", "ball", "--format", "csv",
    ),
    # Heis elements with a conjugate or a length outside A > B > 0, C >= 0, recorded with --horizon 16, where BFS gives every length
    "curvature_heis_5_2_1_r1": ("curvature", "--group", "Heis", "--element", "Heis(5,2,1)", "--radius", "1"),
    "curvature_heis_3_1_0_r2_ball": ("curvature", "--group", "Heis", "--element", "(3,1,0)", "--radius", "2", "--mode", "ball"),
    "transport_heis_a_to_b_c5_r1": ("transport", "--group", "Heis", "--x", "(1,0,0)", "--y", "(0,1,5)", "--radius", "1"),
    "length_heis_m7_3_m20": ("length", "--group", "Heis", "--element", "Heis(-7,3,-20)"),
    # kappa through the W_n and Z^n conjugate lengths
    "curvature_w3_lamps_p1_r3": ("curvature", "--group", "W3", "--element", "W3{-2:1,0:2,1:1;p=1}", "--radius", "3"),
    "curvature_w3_lamps_p1_r3_csv": (
        "curvature", "--group", "W3", "--element", "W3{-2:1,0:2,1:1;p=1}", "--radius", "3", "--format", "csv",
    ),
    "curvature_w3_lamps_p0_r2_ball": (
        "curvature", "--group", "W3", "--element", "W3{-1:1,0:2,1:1;p=0}", "--radius", "2", "--mode", "ball",
    ),
    "curvature_z3_2_m1_3_r3_ball": (
        "curvature", "--group", "Z3", "--element", "(2,-1,3)", "--radius", "3", "--mode", "ball",
    ),
    # lamp indices and position of 100 digits, the most a literal admits
    "curvature_l2_100_digits_r3_ball": (
        "curvature", "--group", "L2", "--element", f"L2{{-{'9' * 100},0,{'9' * 100};p={'9' * 100}}}",
        "--radius", "3", "--mode", "ball",
    ),
}


GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"


@pytest.mark.parametrize("name", CLI_GOLDEN)
def test_cli_calls_print_their_golden_output(name):
    proc = run_cli(*CLI_GOLDEN[name])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN_CLI / f"{name}.txt").read_text()


def test_cli_output_closed_after_the_first_line_ends_without_a_traceback():
    # 0.9 MB of CSV: far more than a pipe holds, so the writes after the close must fail
    args = ["density", "--k", "60", "--radius", "1", "--format", "csv"]
    proc = subprocess.Popen([sys.executable, "-m", "curvlab.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"A,B,C,length,s,labels,predicted,kappa\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")


def test_cli_out_of_horizon_error_is_one_line_without_repr():
    # H2 has no closed form: |g_2| = 12, so a conjugate lies outside B_12, and g_2 itself outside B_3
    for args, horizon in (
        (("curvature", "--group", "H2", "--element", "g(2)", "--radius", "2", "--horizon", "12"), 12),
        (("deadend", "--group", "H2", "--element", "g(2)", "--horizon", "3"), 3),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"curvlab: a word length in H2 is not covered by the table (horizon {horizon}) and no closed form applies; "
            "raise the horizon\n"
        )


def test_cli_out_of_memory_is_a_one_line_error():
    # the child caps its own address space below what the BFS of F3 B_12 needs, then runs the CLI as `-m` would
    code = (
        "import resource, runpy\n"
        "limit = 180 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "runpy.run_module('curvlab.cli', run_name='__main__')\n"
    )
    args = ["curvature", "--group", "F3", "--element", "a", "--radius", "6", "--horizon", "12"]
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["curvlab: out of memory; lower --horizon, --radius or --budget"]


@pytest.mark.parametrize(
    "argv",
    [
        ["length", "--group", "H2", "--element", "w: s sigma", "--horizon", "3"],
        ["curvature", "--group", "L2", "--element", "d(2)", "--radius", "2"],
        ["deadend", "--group", "L2", "--element", "d(2)", "--max-depth", "6"],
        ["deadend", "--group", "Z2", "--scan", "--horizon", "3"],
        ["backtracks", "--group", "L2", "--element", "d(2)", "--bound", "6"],
        ["transport", "--group", "Z3", "--x", "(0,0,0)", "--y", "w: a1 a2"],
        ["probe", "--group", "Z2", "--ball", "2"],
    ],
    ids=lambda argv: "-".join(argv[:3:2]) + ("-scan" if "--scan" in argv else ""),
)
def test_each_call_builds_its_group_once(monkeypatch, capsys, argv):
    # the literals, the table and the output of a call all come from one oracle
    builds = []
    for module, builder in ((builtin, "make_zn"), (lamplighter, "l2_oracle"), (houghton, "h2_oracle")):
        build = getattr(module, builder)
        monkeypatch.setattr(module, builder, lambda *n, build=build: builds.append(n) or build(*n))
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(builds) == 1


def test_cli_transport_and_probe():
    proc = run_cli("transport", "--group", "S3", "--x", "w: s", "--y", "w:", "--radius", "1")
    payload = json.loads(proc.stdout)
    assert payload["t1"] == "1/1"
    assert payload["kappa_star"] == "0/1"
    assert payload["identity_optimal"] is False

    proc2 = run_cli("probe", "--group", "Z2", "--radius", "1", "--ball", "3")
    payload2 = json.loads(proc2.stdout)
    assert payload2["identity_always_optimal"] is True


def test_cli_density():
    proc = run_cli("density", "--k", "25", "--radius", "1")
    payload = json.loads(proc.stdout)
    assert payload["all_signs_present"] is True
    assert payload["band_fractions_ok"] is True
    assert payload["prediction_mismatches"] == 0


def test_cli_density_csv_is_the_reference_census():
    proc = run_cli("density", "--k", "30", "--radius", "2", "--format", "csv")
    assert proc.returncode == 0 and proc.stderr == ""
    want = [DENSITY_CSV_HEADER] + csv_rows(density_per_element(30, 2)[1])
    assert list(csv.reader(io.StringIO(proc.stdout))) == [[str(v) for v in row] for row in want]


def test_cli_parse_error_exit_code():
    proc = run_cli("length", "--group", "L2", "--element", "nonsense")
    assert proc.returncode == 1
    assert "parse error" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("curvature", "--group", "L2", "--element", "d(2)", "--radius", "0"),
        ("length", "--group", "L2", "--element", "d(0)"),
        ("curvature", "--group", "S3", "--element", "s t s", "--radius", "5"),  # S_5 is empty
        ("transport", "--group", "S3", "--x", "w: s", "--y", "w:", "--radius", "5"),
        ("transport", "--group", "Z2", "--x", "(0,0)", "--y", "(1,0)", "--radius", "0"),
        ("probe", "--group", "Z2", "--radius", "0", "--ball", "1"),
        ("length", "--group", "L2"),  # argparse usage errors: exit 2 is reserved for verify
        ("curvature", "--group", "L2", "--element", "d(2)", "--radius", "one"),
        (),
        ("deadend", "--group", "L2", "--element", "d(2)", "--format", "csv"),  # json is its only format
        ("transport", "--group", "S3", "--x", "w: s", "--y", "w:", "--format", "csv"),
        ("probe", "--group", "Z2", "--format", "json"),  # probe takes no --format
        ("density", "--k", "25", "--radius", "0"),
        ("density", "--k", "25", "--radius", "-1"),
        ("density", "--k", "400", "--radius", "1"),  # above MAX_DENSITY_K
        ("length", "--group", "H2", "--element", "u(2000,pos)"),  # above MAX_BUILDER_SIZE
        ("density", "--k", "2", "--format", "csv"),  # the arguments are checked before the CSV header
        # integer fields longer than MAX_INT_DIGITS
        ("length", "--group", "Heis", "--element", f"Heis({NINES},1,1)"),
        ("length", "--group", "L2", "--element", f"d(1)*t^{NINES}"),
        ("length", "--group", "L2", "--element", f"L2{{1;p={NINES}}}"),
        ("length", "--group", "H2", "--element", f"H2{{;shift={NINES}}}"),
        ("length", "--group", "W3", "--element", f"W3{{{NINES}:1;p=0}}"),
        # group sizes above MAX_BUILDER_SIZE, rejected before int() or the builder sees them
        ("length", "--group", f"Z{NINES}", "--element", "(1)"),
        ("length", "--group", "Z200000", "--element", "(1)"),
        # depth bounds below 1
        ("deadend", "--group", "L2", "--element", "d(2)", "--max-depth", "0"),
        ("deadend", "--group", "L2", "--element", "d(2)", "--max-depth", "-3"),
        ("backtracks", "--group", "L2", "--element", "d(2)", "--bound", "0"),
        # a dead-end call takes exactly one of --element and --scan
        ("deadend", "--group", "L2"),
        ("deadend", "--group", "L2", "--element", "d(2)", "--scan"),
        ("length", "--group", "Z2", "--element", "(1,1)", "--horizon", "-1"),  # a negative horizon
        # an empty probe pool, and caps below 0
        ("probe", "--group", "Z2", "--sample", "-1"),
        ("probe", "--group", "Z2", "--sample", "0"),
        ("probe", "--group", "Z2", "--ball", "0"),
        ("probe", "--group", "Z2", "--cap", "-1"),
        ("transport", "--group", "S3", "--x", "w: s", "--y", "w:", "--cap", "-1"),
        # a W literal whose head is not the group id
        ("length", "--group", "W3", "--element", "W7{0:1;p=0}"),
        ("length", "--group", "W3", "--element", "W{0:1;p=0}"),
        # a support above MAX_TRANSPORT_ROWS, refused before its cost matrix: F2's S_6 has 972 rows
        ("transport", "--group", "F2", "--x", "a", "--y", "w:", "--radius", "6"),
        # an escape search past its budget: the layers of d_8 before its escape at depth 17 hold 31 762 elements
        DEADEND_D8 + ("--budget", "10000"),
    ],
)
def test_cli_malformed_input_one_line_error(args):
    start = time.perf_counter()
    proc = run_cli(*args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith("curvlab: ")
    assert proc.stdout == ""
    assert elapsed < 1.0


def test_cli_escape_search_within_its_budget_prints_what_it_prints_without_one():
    within = run_cli(*DEADEND_D8, "--budget", "40000")
    assert (within.returncode, within.stderr) == (0, "")
    assert within.stdout == run_cli(*DEADEND_D8).stdout


def test_cli_word_letter_bound_rejects_before_composing():
    start = time.perf_counter()
    proc = run_cli("length", "--group", "F2", "--element", "w: a^100000000")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and str(MAX_WORD_LETTERS) in lines[0]
    assert elapsed < 1.0


def test_cli_help_exits_zero():
    proc = run_cli("length", "--help")
    assert proc.returncode == 0
    assert "--element" in proc.stdout


@pytest.mark.parametrize("damage", ["truncated", "bad magic"])
def test_cli_corrupt_cache_one_line_error(tmp_path, damage):
    path = cache_path(str(tmp_path), "L2", 3)
    cached_bfs_metric(get_group("L2"), 3, str(tmp_path))  # a miss writes the file
    with open(path, "rb") as fh:
        blob = fh.read()
    blob = blob[:-3] if damage == "truncated" else b"XXXX" + blob[4:]
    with open(path, "wb") as fh:
        fh.write(blob)
    proc = run_cli("length", "--group", "L2", "--element", "d(1)", "--horizon", "3", "--cache", str(tmp_path))
    assert proc.returncode == 1
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "L2_h3.cvl" in lines[0]


def test_cli_unusable_cache_path_one_line_error():
    # a file where the cache directory should be: the read fails, and no traceback follows
    proc = run_cli("length", "--group", "L2", "--element", "d(2)", "--horizon", "3", "--cache", str(README))
    assert proc.returncode == 1
    assert proc.stderr == f"curvlab: {README / 'L2_h3.cvl'}: Not a directory\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, budget, radius",
    [
        (("length", "--group", "Z2", "--element", "(1,1)"), 0, 0),  # the identity alone is over budget
        (("length", "--group", "L2", "--element", "d(1)", "--horizon", "3"), 5, 2),  # layers 1, 3, 6, 12
    ],
)
def test_cli_budget_error_does_not_depend_on_the_cache(tmp_path, args, budget, radius):
    want = (1, "", f"curvlab: ball of radius {radius} for {args[2]} exceeds the element budget ({budget}); "
                   "lower the horizon or raise the budget\n")
    over = (*args, "--budget", str(budget))
    for cache in ((), ("--cache", str(tmp_path))):  # no cache, then a miss, which writes nothing
        proc = run_cli(*over, *cache)
        assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*args, "--cache", str(tmp_path)).returncode == 0  # warms the cache within the default budget
    proc = run_cli(*over, "--cache", str(tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize(
    "args, horizon",
    [
        (("length", "--group", "S3", "--element", "s", "--horizon", "1000000000"), 1_000_000_000),
        (("curvature", "--group", "S3", "--element", "s", "--radius", "1000000000"), 1_000_000_000),
        (("transport", "--group", "S3", "--x", "s", "--y", "w:", "--radius", "1000000000"), 1_000_000_002),
        (("backtracks", "--group", "S3", "--element", "s", "--bound", "1000000000"), 1_000_000_000),
        (("probe", "--group", "Z2", "--radius", "20000"), 20_002),
    ],
)
def test_cli_horizon_above_the_bound_is_refused_at_once(args, horizon):
    # S3 is exhausted at radius 3, but the BFS would still make one empty pass per further radius;
    # the error names the option that set the horizon, and the horizon when derived from it
    proc = subprocess.run([sys.executable, "-m", "curvlab.cli", *args], capture_output=True, text=True, timeout=10)
    option, value = args[-2:]
    derived = "" if option == "--horizon" else f" needs horizon {horizon}, which"
    want = f"curvlab: {option} {value}{derived} exceeds the largest supported horizon (10000)\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want)


def test_import_loads_neither_scipy_nor_numpy():
    # every submodule, since `import curvlab` alone loads none of them
    code = (
        "import importlib, pkgutil, sys, curvlab\n"
        "for m in pkgutil.iter_modules(curvlab.__path__):\n"
        "    importlib.import_module(f'curvlab.{m.name}')\n"
        "assert 'curvlab.verify' in sys.modules\n"
        "print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the curvlab modules every call loads: the package, the frontend, the core and the literal grammar
_FRONT = {"curvlab", "curvlab.cli", "curvlab.core", "curvlab.literals"}


_IMPORT_CASES = [
    (["length", "--group", "Z2", "--element", "(2,-3)"], {"cache", "builtin"}),
    (["length", "--group", "L2", "--element", "d(3)", "--format", "csv"], {"cache", "lamplighter"}),
    (["length", "--group", "H2", "--element", "g(1)", "--horizon", "5"], {"cache", "houghton"}),
    (["length", "--group", "Heis", "--element", "(5,2,3)"], {"cache", "heisenberg"}),
    (["curvature", "--group", "L2", "--element", "d(2)*t^1"], {"cache", "lamplighter", "curvature"}),
    (["curvature", "--group", "S3", "--element", "s t", "--format", "csv"], {"cache", "builtin", "curvature"}),
    (["deadend", "--group", "L2", "--element", "d(1)", "--horizon", "4"], {"cache", "lamplighter", "deadend"}),
    (["backtracks", "--group", "L2", "--element", "d(1)", "--bound", "3", "--horizon", "6"],
     {"cache", "lamplighter", "deadend"}),
    (["density", "--k", "8"], {"heisenberg"}),
    (["transport", "--group", "S3", "--x", "s", "--y", "w:"], {"cache", "builtin", "transport"}),
    (["probe", "--group", "Z2", "--ball", "1"], {"cache", "builtin", "transport"}),
    (["verify", "--tier", "fast"],
     {"verify", "builtin", "curvature", "deadend", "heisenberg", "houghton", "lamplighter", "transport"}),
]


@pytest.mark.parametrize("argv, loaded", _IMPORT_CASES, ids=[" ".join(argv[:3]) for argv, _ in _IMPORT_CASES])
def test_each_subcommand_loads_only_its_own_modules(tmp_path, argv, loaded):
    code = (
        "import json, sys\n"
        "from curvlab import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(code, json.dumps(sorted(sys.modules)))"
    )
    argv = [*argv, "--cache", str(tmp_path)] if argv[0] not in ("density", "verify") else argv
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True)
    status, _, modules = proc.stdout.splitlines()[-1].partition(" ")
    assert status == "0", proc.stderr
    modules = set(json.loads(modules))
    assert {m for m in modules if m.partition(".")[0] == "curvlab"} == _FRONT | {f"curvlab.{m}" for m in loaded}
    if argv[0] == "length" and "builtin" in loaded:  # a Z<n>, F<n> or S3 length needs neither module
        assert not modules & {"fractions", "string"}


def test_package_exports_resolve_lazily():
    import curvlab

    proc = subprocess.run(
        [sys.executable, "-c", "import sys, curvlab; print(sorted(m for m in sys.modules if m.startswith('curvlab')))"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout.strip() == "['curvlab']", proc.stderr
    for name in curvlab.__all__:
        value = getattr(curvlab, name)
        module = sys.modules[f"curvlab.{curvlab._MODULE_OF[name]}"]
        assert value is getattr(module, name), name
        assert vars(curvlab)[name] is value  # cached after the first use
    star = {}
    exec("from curvlab import *", star)
    assert {name: star[name] for name in curvlab.__all__} == {name: getattr(curvlab, name) for name in curvlab.__all__}
    assert set(curvlab.__all__) <= set(dir(curvlab))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curvlab.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "args",
    [
        ("transport", "--group", "Z2", "--x", "(0,0)", "--y", "(1,0)", "--radius", "-1"),
        ("probe", "--group", "Z2", "--radius", "-1"),
        ("probe", "--group", "Z2", "--ball", "-1"),
    ],
)
def test_cli_negative_radius_is_a_domain_error(args):
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "curvlab: radius -1 is negative\n")


def test_cli_cache_roundtrip(tmp_path):
    args = [
        "length", "--group", "H2", "--element", "g(1)", "--horizon", "5",
        "--cache", str(tmp_path),
    ]
    out1 = run_cli(*args)
    assert out1.returncode == 0
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    out2 = run_cli(*args)  # cache hit
    assert out2.stdout == out1.stdout


def test_cli_outputs_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schema = json.loads(files("curvlab").joinpath("schema/report.schema.json").read_text())
    outputs = [
        run_cli("length", "--group", "L2", "--element", "d(2)").stdout,
        run_cli("curvature", "--group", "F2", "--element", "a b", "--radius", "1").stdout,
        run_cli("deadend", "--group", "L2", "--element", "d(2)", "--max-depth", "6").stdout,
        run_cli("deadend", "--group", "S3", "--element", "s t s").stdout,
        run_cli("backtracks", "--group", "L2", "--element", "d(2)", "--bound", "6").stdout,
        run_cli("density", "--k", "25", "--radius", "1").stdout,
        run_cli("transport", "--group", "S3", "--x", "w: s", "--y", "w:").stdout,
        run_cli("probe", "--group", "Z2", "--radius", "1", "--ball", "2").stdout,
    ]
    # every JSON golden output, one document per line (a dead-end scan writes one per dead end)
    outputs += [path.read_text() for path in GOLDEN_CLI.glob("*.txt") if not path.stem.endswith("_csv")]
    docs = [json.loads(line) for raw in outputs for line in raw.splitlines()]
    assert {doc["kind"] for doc in docs} == {"length", "curvature", "deadend", "backtracks", "density", "transport", "probe"}
    for doc in docs:
        jsonschema.validate(doc, schema)
    # a report carries exactly the fields the schema lists: a float mirror of kappa is refused
    curvature = next(doc for doc in docs if doc["kind"] == "curvature")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**curvature, "kappa_float": float(Fraction(curvature["kappa"]))}, schema)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(heading: str) -> str:
    text = README.read_text()
    start = text.index(f"{heading}\n")
    return text[start : text.index("\n#", start)]


def test_readme_commands_and_literals(monkeypatch, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    schema = json.loads(files("curvlab").joinpath("schema/report.schema.json").read_text())
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    block = _readme_section("## Command line").split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("curvlab ")]
    assert len(commands) == 10
    for argv in commands:
        if argv[1] == "verify":  # test_cli_verify_fast_tier runs it
            continue
        assert cli.main(argv[1:]) == 0, argv
        out, err = capsys.readouterr()
        assert err == "" and out, argv
        for line in out.splitlines():  # deadend --scan writes one JSON document per line
            jsonschema.validate(json.loads(line), schema)
    # every literal of the element-literal table, read in the group its row names first
    table = _readme_section("### Element literals").splitlines()[4:]  # past the heading, a blank line and the header
    rows = [line.split("|")[1:-1] for line in table if line.startswith("|")]
    assert len(rows) == 7
    for _, ids, literals in rows:
        group_id = re.findall(r"`([^`]+)`", ids)[0]
        for literal in re.findall(r"`([^`]+)`", literals):
            parse_element(group_id, literal)


def test_cli_verify_fast_tier():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib.resources import files

    proc = run_cli("verify", "--tier", "fast")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)  # one JSON document
    jsonschema.validate(payload, json.loads(files("curvlab").joinpath("schema/report.schema.json").read_text()))
    assert [c["id"] for c in payload["criteria"]] == list(range(1, 10))
    lines = proc.stderr.splitlines()
    assert len(lines) == 9
    assert all(line.startswith(f"[PASS] criterion {i}: ") for i, line in enumerate(lines, 1))


def test_cli_verify_exits_2_on_a_failing_criterion(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CRITERIA", [(1, "always fails", lambda tier: (["on purpose"], ["a note"]))])
    assert cli.main(["verify", "--tier", "fast"]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["criteria"][0]["details"] == "a note; FAIL: on purpose"
    assert err.startswith("[FAIL] criterion 1: always fails (") and err.endswith(") - a note; FAIL: on purpose\n")
