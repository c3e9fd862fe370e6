"""``scripts/bench_trajectory.py``: the committed ``BENCH_<pr>.json`` files
render as a per-workload frontier, and a malformed file fails the run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _report(pr: int, loc: int, pps: list, p50: list) -> dict:
    return {
        "schema": 2, "pr": pr, "git_rev": "abc1234", "src_loc": loc,
        "reconstructed": False, "host": {"cores": 2},
        "sets": [
            {"w": {"end_to_end": {"pps": a, "p50_us": b}}} for a, b in zip(pps, p50)
        ],
    }


def _write(directory: Path, report: dict) -> None:
    (directory / f"BENCH_{report['pr']}.json").write_text(json.dumps(report))


def test_the_committed_trajectory_renders(capsys):
    assert sorted(ROOT.glob("BENCH_*.json"))
    assert bench_trajectory.main([]) == 0
    assert "| frontier |" in capsys.readouterr().out


def test_a_point_is_dominated_only_by_a_no_worse_point(tmp_path, capsys):
    _write(tmp_path, _report(1, 100, [10, 12, 14], [5, 5, 5]))
    _write(tmp_path, _report(2, 90, [20, 22, 24], [4, 4, 4]))  # better everywhere
    _write(tmp_path, _report(3, 80, [5, 5, 5], [9, 9, 9]))  # fewer lines, slower
    assert bench_trajectory.main(["--dir", str(tmp_path)]) == 0
    rows = {
        line.split("|")[1].strip(): line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("| ") and line.split("|")[1].strip().isdigit()
    }
    assert rows["1"].rstrip().endswith("| dominated by 2 |")
    assert "| 22 | 2 |" in rows["2"] and rows["2"].rstrip().endswith("| frontier |")
    assert rows["3"].rstrip().endswith("| frontier |")


def test_rows_are_compared_only_on_their_own_host(tmp_path, capsys):
    """A backfilled report from a faster host does not dominate a measured
    one; the measured report's same-host parent re-run is its comparison."""
    fast = _report(1, 100, [90, 90], [1, 1])
    fast.update(reconstructed=True, host=None)
    _write(tmp_path, fast)
    measured = _report(2, 110, [30, 30], [3, 3])
    measured["parent"] = {"pr": 1, "git_rev": "abc1234", "src_loc": 100,
                          "sets": _report(1, 100, [10, 10], [9, 9])["sets"]}
    _write(tmp_path, measured)
    assert bench_trajectory.main(["--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "| 1 (re-run by 2) | 100 | 2 | H2 | 10 |" in out
    assert all(line.rstrip().endswith("| frontier |")
               for line in out.splitlines() if line.startswith("| 1") or line.startswith("| 2"))


@pytest.mark.parametrize(
    "breakage",
    [
        lambda r: r.update(parent={"pr": 0, "git_rev": "x", "sets": r["sets"]}),  # no src_loc
        lambda r: r.pop("src_loc"),
        lambda r: r.update(schema=1),
        lambda r: r.update(host=None),  # only a reconstructed report may omit it
        lambda r: r["sets"][0]["w"]["end_to_end"].update(pps=0),
        lambda r: r["sets"][0]["w"].pop("end_to_end"),
        lambda r: r.update(sets=[]),
        lambda r: r.update(pr=7),  # the file name says 1
    ],
)
def test_a_malformed_file_fails_the_run(breakage, tmp_path, capsys):
    report = _report(1, 100, [10, 12], [5, 6])
    breakage(report)
    (tmp_path / "BENCH_1.json").write_text(json.dumps(report))
    assert bench_trajectory.main(["--dir", str(tmp_path)]) == 1
    assert "malformed: BENCH_1.json" in capsys.readouterr().err
