"""Resource-guarded execution of one fuzz case in a child process.

A fuzz case can hang the simulator or blow up memory long before any
oracle reports back, so the case runs in a forked child under a
wall-clock budget (enforced by the parent) and an address-space budget
(``RLIMIT_AS``, enforced by the kernel).  Whatever happens -- clean
result, Python-level crash, ``MemoryError``, hard OOM kill, hang -- the
parent always gets a structured :class:`SandboxVerdict`, never an
exception and never a wedged fuzzer.

Results cross the process boundary as plain dicts (no pickled
exceptions or circuits), so a corrupted child cannot poison the parent.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.robustness.lifetime import arm_pdeathsig

try:  # pragma: no cover - non-POSIX fallback
    import resource
except ImportError:  # pragma: no cover
    resource = None

#: Child exit statuses, mirrored into FuzzCaseResult.outcome by the runner.
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_OOM = "oom"
STATUS_KILLED = "killed"


@dataclass(frozen=True)
class SandboxVerdict:
    """What happened to the child: a payload, or how it died."""

    status: str                       # one of the STATUS_* values
    payload: Optional[Dict[str, Any]] = None
    detail: str = ""


def _child_entry(
    conn,
    fn: Callable[..., Dict[str, Any]],
    args: tuple,
    mem_bytes: Optional[int],
    parent_pid: Optional[int] = None,
) -> None:
    """Runs in the forked child: apply limits, run, ship the dict back.

    With ``parent_pid`` the child dies with that parent (see
    :func:`repro.robustness.lifetime.arm_pdeathsig`)."""
    if parent_pid is not None:
        arm_pdeathsig(parent_pid)
    if mem_bytes and resource is not None:
        try:
            resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))
        except (ValueError, OSError):
            pass  # limit below current usage or unsupported; run unguarded
    try:
        payload = fn(*args)
        conn.send({"status": STATUS_OK, "payload": payload})
    except MemoryError:
        conn.send({"status": STATUS_OOM, "detail": "MemoryError"})
    except BaseException as exc:  # noqa: BLE001 - the whole point
        # The runner's case executor catches expected exceptions itself;
        # anything arriving here is a harness bug worth seeing verbatim.
        conn.send({
            "status": STATUS_KILLED,
            "detail": f"harness error: {type(exc).__name__}: {exc}",
        })
    finally:
        conn.close()


def run_sandboxed(
    fn: Callable[..., Dict[str, Any]],
    args: tuple,
    timeout_s: float,
    mem_bytes: Optional[int] = None,
    pdeathsig: bool = False,
    on_start: Optional[Callable[[int], None]] = None,
) -> SandboxVerdict:
    """Run ``fn(*args)`` in a forked child under time and memory budgets.

    ``fn`` must return a plain dict.  On timeout the child is killed; on
    a hard death (segfault, OOM-killer) the exit code is reported.

    ``pdeathsig`` makes the child die with this process (Linux) --
    required by long-running services whose children journal to shared
    files.  ``on_start`` receives the child's pid as soon as it exists,
    so a supervisor can record or kill it out-of-band.
    """
    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_entry,
        args=(child_conn, fn, args, mem_bytes, os.getpid() if pdeathsig else None),
    )
    proc.start()
    if on_start is not None:
        on_start(proc.pid)
    child_conn.close()
    try:
        if parent_conn.poll(timeout_s):
            try:
                msg = parent_conn.recv()
            except EOFError:
                msg = None
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            if msg is None:
                return SandboxVerdict(
                    STATUS_KILLED,
                    detail=f"child died mid-send (exitcode {proc.exitcode})",
                )
            return SandboxVerdict(
                status=msg["status"],
                payload=msg.get("payload"),
                detail=msg.get("detail", ""),
            )
        # No message within budget: either a hang (still alive) or a
        # hard death that never reached conn.send (e.g. SIGKILL by the
        # kernel OOM killer).
        if proc.is_alive():
            proc.kill()
            proc.join()
            return SandboxVerdict(
                STATUS_TIMEOUT, detail=f"exceeded {timeout_s:g}s budget"
            )
        proc.join()
        return SandboxVerdict(
            STATUS_KILLED, detail=f"child exited {proc.exitcode} silently"
        )
    finally:
        parent_conn.close()
        if proc.is_alive():  # pragma: no cover - belt and braces
            proc.kill()
            proc.join()
