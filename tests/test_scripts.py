"""The desk scripts under ``scripts/`` still run against the package; ``ab_pairs`` tabulates."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [("desk_bench.py", ["desk-bench"]),
                                          ("lambda_tau_study.py", [])])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(setup_s, rss, failed=0):
    """A canned last line of ``perfbench/run.py --workload all``."""
    return json.dumps({"correct": not failed, "attempted": 6, "failed": failed, "metrics": {
        "hs-iterate.setup_s": {"value": setup_s, "unit": "s"},
        "hs-iterate.peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_ab_pairs_table_from_canned_results():
    ab = _ab_pairs()
    stdout = "perfbench hs-iterate ...\nmetric  value\n" + _result_line(0.03, 120.0) + "\n"
    assert ab.parse_result(stdout)["metrics"]["hs-iterate.setup_s"]["value"] == 0.03
    parent = [ab.parse_result(_result_line(s, 122.0)) for s in (0.030, 0.034, 0.032, 0.036)]
    change = [ab.parse_result(_result_line(s, r)) for s, r in
              ((0.024, 116.0), (0.025, 116.0), (0.033, 123.0), (0.023, 116.0))]
    table = ab.format_table(ab.summarize(parent, change), 4, "c417e65", "HEAD").splitlines()
    assert table[0] == ("| workload | metric | c417e65 median [q1, q3] | HEAD median [q1, q3] "
                        "| ratio | HEAD wins |")
    # medians 0.033 and 0.0245, inclusive quartiles; the change wins 3 of 4 pairs
    assert table[2] == ("| hs-iterate | setup_s | 0.033 [0.0315, 0.0345] "
                        "| 0.0245 [0.02375, 0.027] | 0.742 | 3/4 |")
    assert table[3] == "| hs-iterate | peak_rss_mb | 122 [122, 122] | 116 [116, 117.8] | 0.951 | 3/4 |"


def test_ab_pairs_exits_nonzero_on_failed_operations_or_a_failed_run(tmp_path, monkeypatch,
                                                                      capsys):
    ab = _ab_pairs()
    run_once = ab.run_once
    monkeypatch.setattr(ab, "extract", lambda rev, dest: tmp_path)
    lines = iter([_result_line(0.03, 122.0), _result_line(0.02, 116.0, failed=1)] * 2)
    monkeypatch.setattr(ab, "run_once", lambda tree, seed, seconds: ab.parse_result(next(lines)))
    assert ab.main(["A", "B", "--pairs", "2"]) == 1  # A runs first in pair 1, B in pair 2
    out, err = capsys.readouterr()
    assert "| hs-iterate | setup_s |" in out and "failed operations in B seed 1, A seed 2" in err

    def exits(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 2, stdout="", stderr="boom\n")

    monkeypatch.setattr(ab.subprocess, "run", exits)
    with pytest.raises(SystemExit, match="exited with 2"):
        run_once(tmp_path, 1, 20)
