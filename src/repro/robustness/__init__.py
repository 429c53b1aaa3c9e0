"""Crash-safety layer: checkpoints, degradation reports, fault injection.

Three pieces, built on one property of the scheme: every test set is a
pure function of :class:`~repro.core.config.BistConfig` and the
iteration number, so any interrupted computation is replayable from a
small amount of journaled state.

- :mod:`repro.robustness.checkpoint` -- the Procedure 2 journal
  (:class:`CheckpointPolicy`, :func:`load_checkpoint`); the entry points
  that use it are :func:`repro.core.procedure2.run_procedure2`
  (``checkpoint=``) and :func:`repro.core.procedure2.resume_procedure2`.
- :mod:`repro.robustness.degradation` -- structured
  :class:`DegradationReport` of every worker-pool recovery action.
- :mod:`repro.robustness.chaos` -- deterministic injection of worker
  crashes, hangs, and corrupted shard returns, so the recovery paths are
  exercised by ordinary tests.
- :mod:`repro.robustness.atomic` -- atomic file writes for results,
  manifests, and journal headers.
- :mod:`repro.robustness.lifetime` -- worker processes that die with
  their parent (``PR_SET_PDEATHSIG``).
"""

from repro.robustness.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_dir,
)
from repro.robustness.chaos import (
    ChaosError,
    ChaosPlan,
    ServeChaosPlan,
    execute_injected,
    install_commit_bomb,
    truncate_tail,
)
from repro.robustness.checkpoint import (
    JOURNAL_VERSION,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointPolicy,
    CheckpointState,
    CheckpointWriter,
    fingerprint_faults,
    load_checkpoint,
)
from repro.robustness.degradation import DegradationReport, ShardEvent

__all__ = [
    "JOURNAL_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointPolicy",
    "CheckpointState",
    "CheckpointWriter",
    "ChaosError",
    "ChaosPlan",
    "DegradationReport",
    "ServeChaosPlan",
    "ShardEvent",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "execute_injected",
    "fingerprint_faults",
    "fsync_dir",
    "install_commit_bomb",
    "load_checkpoint",
    "truncate_tail",
]
