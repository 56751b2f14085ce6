"""tools/bench.py on fixture files and stubbed runs; no benchmark runs here."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _line(seed, wall_s, *, correct=True, failed=0):
    """A stand-in for the JSON line of one ``perfbench/run.py --trace 0`` run."""
    names = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mib": "MiB"}
    metrics = {name: {"value": wall_s if name == "wall_s" else 1.0, "unit": unit} for name, unit in names.items()}
    return {"seed": seed, "correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def test_summarize_gives_the_median_and_the_inclusive_quartiles():
    assert bench.summarize([0.3, 0.1, 0.2]) == pytest.approx({"median": 0.2, "q1": 0.15, "q3": 0.25})
    assert bench.summarize([1.0, 2.0, 3.0, 4.0]) == pytest.approx({"median": 2.5, "q1": 1.75, "q3": 3.25})
    assert bench.summarize([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_bench_record_summarizes_each_workload_over_its_seeds():
    runs = {"curvature": [_line(1, 0.09), _line(2, 0.07), _line(3, 0.08)]}
    record = bench.bench_record("x", runs, seeds=[1, 2, 3], seconds=20.0, head="abc", dirty=False, nproc=2, python="3.11.7")
    assert record["workloads"]["curvature"]["wall_s"] == pytest.approx({"unit": "s", "median": 0.08, "q1": 0.075, "q3": 0.085})
    assert record["workloads"]["curvature"]["peak_rss_mib"]["unit"] == "MiB"
    assert (record["seeds"], record["seconds"], record["git_head"], record["nproc"]) == ([1, 2, 3], 20.0, "abc", 2)
    assert record["runs"] == runs


def test_compare_flags_a_regression_beyond_its_bound_and_wide_quartiles_as_noise():
    a, b = (json.loads((FIXTURES / f"BENCH_{x}.json").read_text()) for x in ("before", "after"))
    lines, regressed = bench.compare(a, b, bench.load_spec())
    assert regressed
    by_metric = {tuple(line.split()[:2]): line for line in lines}
    assert len(by_metric) == 10
    assert "-20.0%" in by_metric["curvature", "wall_s"] and by_metric["curvature", "wall_s"].endswith("]")
    assert by_metric["curvature", "peak_rss_mib"].endswith("REGRESSION beyond 10%")  # +12.5 % against a 10 % bound
    assert by_metric["transport", "setup_s"].endswith("noise, unresolved: quartiles wider than the bound")  # +40 %, quartiles 40 % apart
    assert [line for line in lines if "REGRESSION" in line] == [by_metric["curvature", "peak_rss_mib"]]
    assert not bench.compare(a, a, bench.load_spec())[1]


def test_compare_exits_1_on_a_regression_only(capsys):
    before, after = str(FIXTURES / "BENCH_before.json"), str(FIXTURES / "BENCH_after.json")
    assert bench.main(["--compare", before, after]) == 1
    assert bench.main(["--compare", before, before]) == 0
    assert "curvature  wall_s" in capsys.readouterr().out


def _setup_record(label, setup_s):
    """A BENCH record of the ``tables`` workload whose seeds read ``setup_s``, and 1.0 for every other metric but wall_s."""
    lines = [_line(seed, 0.1) for seed in (1, 2, 3)]
    for line, value in zip(lines, setup_s):
        line["metrics"]["setup_s"]["value"] = value
    return bench.bench_record(label, {"tables": lines}, seeds=[1, 2, 3], seconds=20.0, head="abc", dirty=False, nproc=2, python="3.11.7")


@pytest.mark.parametrize("setup_b, change, flag, code", [
    ((0.107, 0.114, 0.079), "+28.9%", "unresolved: runs overlap", 0),  # tables setup_s of BENCH_pr31.json -> BENCH_pr32.json
    ((0.115, 0.118, 0.121), "+42.2%", "REGRESSION beyond 25%", 1),  # every seed of B above every seed of A
], ids=["runs_overlap", "runs_apart"])
def test_compare_calls_a_change_beyond_its_bound_a_regression_only_when_the_seeds_are_apart(tmp_path, capsys, setup_b, change, flag, code):
    files = []
    for label, setup_s in (("a", (0.083, 0.083, 0.113)), ("b", setup_b)):
        files.append(tmp_path / f"BENCH_{label}.json")
        files[-1].write_text(json.dumps(_setup_record(label, setup_s)))
    assert bench.main(["--compare", *map(str, files)]) == code
    line = next(line for line in capsys.readouterr().out.splitlines() if line.split()[:2] == ["tables", "setup_s"])
    assert change in line and line.endswith(flag)


def test_compare_ends_quietly_when_its_reader_has_closed_the_output():
    # the read end is closed before the tool starts, so its first write fails; before alone compares clean (exit 0)
    read, write = os.pipe()
    os.close(read)
    before = str(FIXTURES / "BENCH_before.json")
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench.py"), "--compare", before, before],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("field, value", [("seconds", 5.0), ("seeds", [1, 2, 4]), ("nproc", 4), ("python", "3.12.1")])
def test_compare_refuses_files_not_measured_alike(tmp_path, capsys, field, value):
    before = json.loads((FIXTURES / "BENCH_before.json").read_text())
    other = tmp_path / "BENCH_other.json"
    other.write_text(json.dumps({**before, field: value}))
    assert bench.main(["--compare", str(FIXTURES / "BENCH_before.json"), str(other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{field}: " in captured.err


def test_measure_alternates_the_sides_and_refuses_a_failed_run(tmp_path, monkeypatch):
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root, seed, seconds))
        return _line(seed, 0.1, failed=int(root == old and seed == 2))

    monkeypatch.setattr(bench, "_run", fake_run)
    monkeypatch.setattr(bench, "REPO", str(tmp_path))
    for root in (old, new):
        Path(root).mkdir()
    assert bench.measure([("a", old), ("b", new)], ["curvature"], [1, 2, 3]) == 1
    assert calls == [(old, 1, 20), (new, 1, 20), (new, 2, 20), (old, 2, 20), (old, 3, 20), (new, 3, 20)]  # BENCHMARK.json's run_seconds
    assert sorted(p.name for p in tmp_path.glob("BENCH_*")) == ["BENCH_b.json"]  # side a had a failed operation
    assert json.loads((tmp_path / "BENCH_b.json").read_text())["workloads"]["curvature"]["wall_s"]["median"] == 0.1


def test_each_root_follows_its_own_label():
    sides = bench.parser().parse_args(["--label", "a", "--root", "elsewhere", "--label", "b"]).sides
    assert sides == [("a", str(Path("elsewhere").resolve())), ("b", bench.REPO)]
    with pytest.raises(SystemExit):
        bench.parser().parse_args(["--root", "elsewhere"])
    with pytest.raises(SystemExit):
        bench.parser().parse_args(["--label", "a", "--root", "x", "--root", "y"])


def test_sign_test_is_the_two_sided_binomial_tail():
    assert bench.sign_test(6, 0) == bench.sign_test(0, 6) == 2 / 64
    assert bench.sign_test(5, 5) == bench.sign_test(0, 0) == 1.0
    assert bench.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert bench.sign_test(55, 5) < 1e-10


def test_ab_summary_pairs_the_walls_and_leaves_ties_out_of_the_sign_test():
    summary = bench.ab_summary([1.0, 2.0, 1.0, 4.0, 1.0], [0.5, 1.0, 1.0, 2.0, 2.0])
    assert summary["ratios"] == [0.5, 0.5, 1.0, 0.5, 2.0]
    assert summary["ratio"] == pytest.approx({"median": 0.5, "q1": 0.5, "q3": 1.0})
    assert (summary["b_faster"], summary["pairs"]) == (3, 5)
    assert summary["sign_test_p"] == bench.sign_test(3, 1) == 0.625


def _stub_checkout(root: Path, side: str, walls: list[float], log: Path, *, bad_round=None) -> str:
    """A checkout whose perfbench/ holds only a stub workload: round k logs its side and takes ``walls[k]``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "common.py").write_text(
        "class Recorder:\n"
        "    def __init__(self):\n"
        "        self.wall, self.unexpected = 0.0, []\n"
    )
    (root / "perfbench" / "worker.py").write_text(
        "from common import Recorder\n"
        "\n"
        "class Stub:\n"
        "    def __init__(self, seed, workdir):\n"
        "        self.k = 0\n"
        "\n"
        "    def setup(self):\n"
        "        print('set-up output goes to standard error')\n"
        "\n"
        "    def round(self, rec, chk, counts):\n"
        f"        with open({str(log)!r}, 'a') as fh:\n"
        f"            fh.write({side!r})\n"
        f"        rec.wall = {walls!r}[self.k]\n"
        f"        if self.k == {bad_round!r}:\n"
        "            chk.append('a result differs from the checked one')\n"
        "        self.k += 1\n"
        "\n"
        "def load_workload(name):\n"
        "    assert name == 'stub'\n"
        "    return Stub\n"
    )
    return str(root)


def test_ab_alternates_the_sides_pair_by_pair_and_writes_the_ratios(tmp_path, monkeypatch, capsys):
    log = tmp_path / "order"
    a = _stub_checkout(tmp_path / "a", "A", [1.0, 1.0, 1.0, 1.0, 1.0], log)
    b = _stub_checkout(tmp_path / "b", "B", [0.8, 0.8, 0.5, 1.25, 0.8], log)
    monkeypatch.setattr(bench, "REPO", str(tmp_path))
    assert bench.main(["--ab", a, b, "--workload", "stub", "--pairs", "5", "--seed", "3"]) == 0
    assert log.read_text() == "AB" "BA" "AB" "BA" "AB"
    out = capsys.readouterr().out
    assert out == "stub: B/A round wall 0.800 [0.800, 0.800] over 5 pairs, B faster in 4, sign test p = 0.38\n"
    record = json.loads((tmp_path / "BENCH_ab_stub.json").read_text())
    assert record["a"]["rounds"] == [1.0] * 5 and record["b"]["rounds"] == [0.8, 0.8, 0.5, 1.25, 0.8]
    assert (record["workload"], record["seed"], record["pairs"], record["b_faster"]) == ("stub", 3, 5, 4)
    assert record["sign_test_p"] == bench.sign_test(4, 1)


def test_ab_refuses_a_run_in_which_a_round_reports_a_check_failure(tmp_path, monkeypatch, capsys):
    log = tmp_path / "order"
    a = _stub_checkout(tmp_path / "a", "A", [1.0] * 4, log)
    b = _stub_checkout(tmp_path / "b", "B", [1.0] * 4, log, bad_round=1)
    monkeypatch.setattr(bench, "REPO", str(tmp_path))
    assert bench.main(["--ab", a, b, "--workload", "stub", "--pairs", "4", "--label", "x"]) == 1
    assert log.read_text() == "AB" "B"  # the second pair starts with B, whose round fails
    assert "a round reported: a result differs from the checked one" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*"))


def test_ab_needs_a_workload_that_both_sides_set_up(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit):
        bench.main(["--ab", ".", "."])
    a = _stub_checkout(tmp_path / "a", "A", [1.0], tmp_path / "order")
    monkeypatch.setattr(bench, "REPO", str(tmp_path))
    assert bench.main(["--ab", a, a, "--workload", "other", "--pairs", "1"]) == 1  # the stub knows only "stub"
    assert "the other workload did not set up" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*")) and not (tmp_path / "order").exists()
