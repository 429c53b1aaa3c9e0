"""Seconds-scale checks of the benchmark itself.

    python3 -m pytest layerbench -q

Runs the smoke variants (s27, s208) of the four workload kinds through
``run.py`` and checks that every metric ``BENCHMARK.json`` names is
emitted with its unit, and that the digest check rejects a perturbed
result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS, bench_text, p2_outcome, run_op, setup  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = [name for name in WORKLOADS if name.startswith("smoke_")]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "layerbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", SMOKE)
def test_every_named_metric_is_emitted(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in final["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in final["metrics"].values())


def test_benchmark_declares_the_main_workloads():
    from workloads import MAIN_WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(MAIN_WORKLOADS)
    assert set(run.END_TO_END) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_digest_check_fires_on_a_perturbed_result():
    workload = WORKLOADS["smoke_serial"]
    texts = [bench_text(c, 0) for c in workload.circuits]
    session = setup(workload, texts, 0)
    result = session.run()
    references = json.loads(run.REFERENCES.read_text())
    good = p2_outcome(session, result)["digests"]
    assert run.check_digests(references, workload.name, 0, good) == []

    result.pairs[0] = dataclasses.replace(result.pairs[0],
                                          nsh=result.pairs[0].nsh + 1)
    bad = p2_outcome(session, result)["digests"]
    assert run.check_digests(references, workload.name, 0, bad)


def test_a_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    references = json.loads(run.REFERENCES.read_text())
    references["smoke_detect"]["0"]["result"] = "0" * 64
    tampered = tmp_path / "references.json"
    tampered.write_text(json.dumps(references))
    monkeypatch.setattr(run, "REFERENCES", tampered)
    assert run.main(["--workload", "smoke_detect", "--seconds", "1"]) == 1
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final["correct"] is False and final["failed"] >= 1
    assert final["metrics"] == {}


def test_a_hanging_setup_times_out(monkeypatch):
    def hang(mode, spec):
        return subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            stdout=subprocess.PIPE, text=True)

    monkeypatch.setattr(run, "_spawn", hang)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="timed out"):
        run._setup_sample({}, t0 + 1.0)
    assert time.monotonic() - t0 < 10


def test_ingest_operation_checks_itself(tmp_path):
    workload = WORKLOADS["smoke_ingest"]
    texts = [bench_text(c, 3, rename=True) for c in workload.circuits]
    outcome = run_op(workload, None, texts, tmp_path)
    references = json.loads(run.REFERENCES.read_text())
    assert run.check_digests(references, workload.name, 3,
                             outcome["digests"]) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "smoke_detect", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
