"""Smoke test of the end-to-end benchmark.

Runs ``run --smoke`` and ``run --smoke --trace`` for every workload and
checks the printed result against ``BENCHMARK.json``; checks that an
interrupted run leaves no server process or cache directory behind.
From the repository root:

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.cli import WORKLOADS
from benchmarks.e2e.env import BENCHMARK_JSON, ROOT, WORK_ROOT
from benchmarks.e2e.fixtures import FIXTURE_DIR

SPEC = json.loads(BENCHMARK_JSON.read_text())


def _bench(*args: str) -> list[str]:
    return [sys.executable, "-m", "benchmarks.e2e", *args]


def _processes_mentioning(text: str) -> list[int]:
    found = []
    for proc in Path("/proc").iterdir():
        try:
            cmdline = (proc / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if text in cmdline:
            found.append(int(proc.name))
    return found


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace, tmp_path):
    proc = subprocess.run(
        _bench("run", "--smoke", "--workload", workload, "--seed", "3", "--trace", trace, "--out", str(tmp_path)),
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split() for line in report)
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"] is True
    [record] = [json.loads(p.read_text()) for p in tmp_path.glob("*.json")]
    assert record["smoke"] is True and record["workload"] == workload


def test_compare_refuses_smoke_results(tmp_path, capsys):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "r.json").write_text(json.dumps({"workload": "score_batch", "smoke": True}))
    assert compare.main(tmp_path / "a", tmp_path / "b") == 2
    assert "smoke" in capsys.readouterr().out


def test_interrupted_run_stops_its_server_and_removes_its_files():
    proc = subprocess.Popen(
        _bench("run", "--smoke", "--workload", "serve_seq", "--seed", "5"),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    work = WORK_ROOT / "work" / f"serve_seq-5-{proc.pid}"
    try:
        deadline = time.monotonic() + 300
        while not (servers := _children_serving(proc.pid)):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no server process appeared"
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode != 0
    assert not out.strip().endswith("}")  # no result line
    assert not any(Path(f"/proc/{pid}").exists() for pid in servers)
    assert not _processes_mentioning(str(FIXTURE_DIR))
    assert not work.exists()


def _children_serving(parent: int) -> list[int]:
    """Server processes started by ``parent``."""
    found = []
    for pid in _processes_mentioning(" serve "):
        try:
            ppid = int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == parent:
            found.append(pid)
    return found
