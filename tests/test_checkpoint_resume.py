"""Checkpoint/resume of Procedure 2: journal format and crash recovery.

The contract under test: a run interrupted at *any* point -- in-process
``KeyboardInterrupt``, ``SIGINT``, or an un-catchable ``SIGKILL`` of a
child process -- resumes from its journal to a result **byte-identical**
(via :mod:`repro.experiments.serialize`) to an uninterrupted run, at any
``n_jobs``.

The rig circuit (``mini208``) is chosen so the config forces eight real
iterations with thirteen selected pairs; s27 at the paper's defaults
finishes at TS0 and would never exercise the loop.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.procedure2 import resume_procedure2, run_procedure2
from repro.experiments.serialize import result_to_dict
from repro.faults.collapse import collapse_faults
from repro.faults.fault_sim import FaultSimulator
from repro.robustness.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointPolicy,
    CheckpointState,
    CheckpointWriter,
    JOURNAL_VERSION,
    fingerprint_faults,
    load_checkpoint,
)

pytestmark = pytest.mark.chaos

#: Forces 8 iterations / 13 pairs on mini208 (complete=False) -- a real
#: mid-run state space for interrupt/resume, still ~0.5 s serial.
RIG_CONFIG = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=8)


@pytest.fixture(scope="module")
def rig():
    circuit = synthesize(
        SyntheticSpec(name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96,
                      seed=5)
    )
    faults = collapse_faults(circuit)
    clean = run_procedure2(circuit, RIG_CONFIG, faults)
    assert clean.iterations_run == 8 and len(clean.pairs) == 13
    return circuit, faults, json.dumps(result_to_dict(clean))


def blob(result) -> str:
    return json.dumps(result_to_dict(result))


class Interrupting:
    """Simulator wrapper that raises KeyboardInterrupt at one dispatch."""

    def __init__(self, base, at: int) -> None:
        self.base = base
        self.at = at
        self.calls = 0

    @property
    def chain_length(self) -> int:
        return self.base.chain_length

    def simulate_grouped(self, *args, **kwargs):
        if self.calls == self.at:
            raise KeyboardInterrupt
        self.calls += 1
        return self.base.simulate_grouped(*args, **kwargs)


class TestJournalFormat:
    def header(self, n=3):
        return {
            "kind": "header", "version": JOURNAL_VERSION, "circuit": "x",
            "config": {}, "n_sv": 4, "num_targets": n, "targets_sha256": "",
        }

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointWriter(CheckpointPolicy(path), self.header()) as w:
            w.write_ts0([[0, 1, 2, "po"]])
            w.commit_iteration(1, 0, [{"iteration": 1, "d1": 3,
                                       "newly_detected": 1, "nsh": 2,
                                       "ls_time_units": 5,
                                       "total_time_units": 9,
                                       "detected": [[1, 4, 0, "sv"]]}])
            w.commit_iteration(2, 1, [])
        state = load_checkpoint(path)
        assert state.header["n_sv"] == 4
        assert state.ts0["detected"] == [[0, 1, 2, "po"]]
        assert len(state.pairs) == 1 and state.pairs[0]["d1"] == 3
        assert state.cursor == (2, 1)
        assert state.final is None
        assert state.detected_rows == [[0, 1, 2, "po"], [1, 4, 0, "sv"]]

    def test_final_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointWriter(CheckpointPolicy(path), self.header()) as w:
            w.write_ts0([])
            w.write_final(complete=True, iterations_run=0)
        state = load_checkpoint(path)
        assert state.final == {"kind": "final", "complete": True,
                               "iterations_run": 0}

    def test_uncommitted_pair_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointWriter(CheckpointPolicy(path), self.header()) as w:
            w.write_ts0([])
            w.commit_iteration(1, 0, [{"iteration": 1, "detected": []}])
        # A pair line whose cursor never landed (crash mid-transaction).
        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "pair", "iteration": 2,
                                 "detected": []}) + "\n")
        state = load_checkpoint(path)
        assert len(state.pairs) == 1
        assert state.cursor == (1, 0)

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointWriter(CheckpointPolicy(path), self.header()) as w:
            w.commit_iteration(1, 0, [])
        with open(path, "a") as fh:
            fh.write('{"kind": "curs')  # SIGKILL mid-write
        state = load_checkpoint(path)
        assert state.cursor == (1, 0)

    def test_duplicated_transaction_is_replayed_once(self, tmp_path):
        """A committed iteration appended twice must not replay twice.

        The duplicate arises when a signal interrupts ``_flush_pending``
        after its bytes landed (e.g. inside fsync) and the interrupt
        path flushes again; old journals may carry it, so the reader
        skips any commit at or below the current cursor.
        """
        path = tmp_path / "j.jsonl"
        pair = {"iteration": 1, "d1": 3, "newly_detected": 1, "nsh": 2,
                "ls_time_units": 5, "total_time_units": 9,
                "detected": [[1, 4, 0, "po"]]}
        with CheckpointWriter(CheckpointPolicy(path), self.header()) as w:
            w.write_ts0([])
            w.commit_iteration(1, 0, [pair])
        block = (
            json.dumps(dict(pair, kind="pair"), sort_keys=True) + "\n"
            + json.dumps({"kind": "cursor", "iteration": 1,
                          "n_same_fc": 0}, sort_keys=True) + "\n"
        )
        with open(path, "a") as fh:
            fh.write(block)  # the re-flushed duplicate
        state = load_checkpoint(path)
        assert len(state.pairs) == 1
        assert state.cursor == (1, 0)

    def test_interrupted_flush_never_duplicates(self, tmp_path, monkeypatch):
        """KeyboardInterrupt inside the durable append, then ``close()``:
        the transaction must land at most once."""
        import repro.robustness.checkpoint as ckpt_mod

        path = tmp_path / "j.jsonl"
        writer = CheckpointWriter(CheckpointPolicy(path), self.header())
        real_fsync = os.fsync
        fired = []

        def exploding_fsync(fd):
            real_fsync(fd)  # the bytes are already durable
            if not fired:
                fired.append(True)
                raise KeyboardInterrupt

        monkeypatch.setattr(ckpt_mod.os, "fsync", exploding_fsync)
        with pytest.raises(KeyboardInterrupt):
            writer.commit_iteration(1, 0, [{"iteration": 1, "detected": []}])
        writer.close()  # the interrupt path: must not re-append
        state = load_checkpoint(path)
        assert len(state.pairs) == 1
        assert state.cursor == (1, 0)

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "cursor", "iteration": 1, "n_same_fc": 0}\n')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(bad)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = self.header()
        header["version"] = JOURNAL_VERSION + 1
        CheckpointWriter(CheckpointPolicy(path), header).close()
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_policy_validates_every(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPolicy(tmp_path / "j.jsonl", every=0)

    def test_every_batches_commits(self, tmp_path):
        path = tmp_path / "j.jsonl"
        writer = CheckpointWriter(
            CheckpointPolicy(path, every=3), self.header()
        )
        writer.commit_iteration(1, 0, [])
        writer.commit_iteration(2, 1, [])
        # Two iterations buffered, none on disk yet.
        assert load_checkpoint(path).cursor == (0, 0)
        writer.commit_iteration(3, 2, [])
        assert load_checkpoint(path).cursor == (3, 2)
        writer.commit_iteration(4, 0, [])
        writer.close()  # close flushes committed-but-buffered iterations
        assert load_checkpoint(path).cursor == (4, 0)


class TestMismatchDetection:
    def test_config_change_rejected(self, rig, tmp_path):
        circuit, faults, _ = rig
        path = tmp_path / "j.jsonl"
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2)
        run_procedure2(circuit, config, faults, checkpoint=str(path))
        other = BistConfig(la=3, lb=6, n=2, n_same_fc=2, max_iterations=2)
        with pytest.raises(CheckpointMismatchError, match="config differs"):
            resume_procedure2(circuit, other, faults, str(path))

    def test_execution_knobs_do_not_mismatch(self, rig, tmp_path):
        # n_jobs / shard_timeout / shard_retries are execution metadata:
        # changing them between run and resume is explicitly allowed.
        circuit, faults, _ = rig
        path = tmp_path / "j.jsonl"
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2)
        run_procedure2(circuit, config, faults, checkpoint=str(path))
        tweaked = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2,
                             n_jobs=4, shard_timeout=9.0, shard_retries=0)
        resume_procedure2(circuit, tweaked, faults, str(path))

    def test_target_list_changes_rejected(self, rig, tmp_path):
        circuit, faults, _ = rig
        path = tmp_path / "j.jsonl"
        config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=2)
        run_procedure2(circuit, config, faults, checkpoint=str(path))
        with pytest.raises(CheckpointMismatchError, match="target faults"):
            resume_procedure2(circuit, config, faults[:-1], str(path))
        reordered = list(reversed(faults))
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            resume_procedure2(circuit, config, reordered, str(path))

    def test_fingerprint_is_order_sensitive(self, rig):
        _, faults, _ = rig
        assert fingerprint_faults(faults) != fingerprint_faults(
            list(reversed(faults))
        )


class TestResumeByteIdentity:
    def test_checkpointed_run_matches_clean(self, rig, tmp_path):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        result = run_procedure2(circuit, RIG_CONFIG, faults,
                                checkpoint=str(path))
        assert blob(result) == clean_blob
        assert load_checkpoint(path).final is not None

    def test_resume_of_finished_journal_skips_simulation(self, rig, tmp_path):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        run_procedure2(circuit, RIG_CONFIG, faults, checkpoint=str(path))
        # A finished journal is replayed without touching the simulator:
        # an unusable sentinel proves no simulation call is made.
        resumed = resume_procedure2(
            circuit, RIG_CONFIG, faults, str(path), simulator=object()
        )
        assert blob(resumed) == clean_blob

    @pytest.mark.parametrize("at", [0, 15, 40])
    def test_interrupt_anywhere_resumes_identically(self, rig, tmp_path, at):
        circuit, faults, clean_blob = rig
        path = tmp_path / f"j{at}.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_procedure2(
                circuit, RIG_CONFIG, faults,
                simulator=Interrupting(FaultSimulator(circuit), at),
                checkpoint=str(path),
            )
        resumed = resume_procedure2(circuit, RIG_CONFIG, faults, str(path))
        assert blob(resumed) == clean_blob

    def test_parallel_interrupt_parallel_resume(
        self, rig, tmp_path, monkeypatch
    ):
        # A simulator wrapper would hide simulate_candidates and keep the
        # run off the pool, so interrupt at the journal instead: the
        # fourth iteration's commit never lands.
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        commit = CheckpointWriter.commit_iteration

        def interrupting_commit(writer, iteration, *args, **kwargs):
            if iteration == 4:
                raise KeyboardInterrupt
            return commit(writer, iteration, *args, **kwargs)

        monkeypatch.setattr(
            CheckpointWriter, "commit_iteration", interrupting_commit
        )
        with pytest.raises(KeyboardInterrupt):
            run_procedure2(
                circuit, RIG_CONFIG, faults, n_jobs=4, checkpoint=str(path)
            )
        monkeypatch.undo()
        assert load_checkpoint(path).cursor[0] == 3
        resumed = resume_procedure2(
            circuit, RIG_CONFIG, faults, str(path), n_jobs=4
        )
        assert blob(resumed) == clean_blob

    def test_double_resume_is_stable(self, rig, tmp_path):
        circuit, faults, clean_blob = rig
        path = tmp_path / "j.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_procedure2(
                circuit, RIG_CONFIG, faults,
                simulator=Interrupting(FaultSimulator(circuit), 20),
                checkpoint=str(path),
            )
        first = resume_procedure2(circuit, RIG_CONFIG, faults, str(path))
        again = resume_procedure2(
            circuit, RIG_CONFIG, faults, str(path), simulator=object()
        )
        assert blob(first) == blob(again) == clean_blob


#: Child process used by the signal tests: runs the rig checkpointed,
#: with every iteration commit slowed so the parent can reliably land a
#: signal mid-run.  argv: <src-dir> <journal> <n_jobs> <sleep-seconds>.
CHILD_SCRIPT = """\
import sys, time

src, journal, n_jobs, sleep = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
)
sys.path.insert(0, src)

from repro.bench_circuits.synthetic import SyntheticSpec, synthesize
from repro.core.config import BistConfig
from repro.core.procedure2 import run_procedure2
from repro.faults.collapse import collapse_faults
from repro.robustness.checkpoint import CheckpointWriter

circuit = synthesize(SyntheticSpec(
    name="mini208", n_pi=10, n_po=1, n_ff=8, n_gates=96, seed=5))
config = BistConfig(la=2, lb=4, n=2, n_same_fc=2, max_iterations=8)
faults = collapse_faults(circuit)
commit = CheckpointWriter.commit_iteration


def slow_commit(*args, **kwargs):
    time.sleep(sleep)
    return commit(*args, **kwargs)


CheckpointWriter.commit_iteration = slow_commit
run_procedure2(circuit, config, faults, n_jobs=n_jobs, checkpoint=journal)
print("DONE", flush=True)
"""


@pytest.mark.slow
class TestSignalResume:
    def _interrupt_child(self, tmp_path, n_jobs, sig, cursors=2):
        """Start the rig in a child, signal it mid-run, return journal."""
        journal = tmp_path / "journal.jsonl"
        script = tmp_path / "child.py"
        script.write_text(CHILD_SCRIPT)
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, str(script), src, str(journal),
             str(n_jobs), "0.3"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.perf_counter() + 120.0
            while time.perf_counter() < deadline:
                if proc.poll() is not None:
                    break
                if (
                    journal.exists()
                    and journal.read_text().count('"kind": "cursor"')
                    >= cursors
                ):
                    break
                time.sleep(0.02)
            assert proc.poll() is None, (
                "child finished (or died) before it could be interrupted"
            )
            os.kill(proc.pid, sig)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return journal

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_sigkill_then_resume(self, rig, tmp_path, n_jobs):
        circuit, faults, clean_blob = rig
        journal = self._interrupt_child(tmp_path, n_jobs, signal.SIGKILL)
        state = load_checkpoint(journal)
        assert state.final is None, "journal already finished; no crash?"
        assert state.cursor[0] >= 1
        resumed = resume_procedure2(circuit, RIG_CONFIG, faults,
                                    str(journal))
        assert blob(resumed) == clean_blob

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_sigint_then_resume(self, rig, tmp_path, n_jobs):
        circuit, faults, clean_blob = rig
        journal = self._interrupt_child(tmp_path, n_jobs, signal.SIGINT)
        state = load_checkpoint(journal)
        assert state.final is None
        resumed = resume_procedure2(circuit, RIG_CONFIG, faults,
                                    str(journal))
        assert blob(resumed) == clean_blob
