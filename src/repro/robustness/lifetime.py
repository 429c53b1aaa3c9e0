"""Child processes that die with their parent.

A worker whose parent was SIGKILLed must not linger as an orphan: it
would keep its memory, and a sandboxed job would keep appending to a
checkpoint journal that the restarted service resumes from.  On Linux
``PR_SET_PDEATHSIG`` makes the kernel deliver SIGKILL to the child the
moment its parent dies -- strictly, the moment the *thread* that forked
it exits, so the forking thread must live as long as the child should.
Elsewhere arming is a no-op and callers fall back on their own timeouts.
"""

from __future__ import annotations

import os
import signal

_PR_SET_PDEATHSIG = 1


def arm_pdeathsig(parent_pid: int) -> None:
    """Call in a freshly forked child: SIGKILL it when its parent dies.

    ``parent_pid`` is the parent's pid, read before the fork.  If the
    parent already died between the fork and this call, the child was
    reparented and would never get the signal, so it exits at once.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:  # pragma: no cover - non-Linux / no libc
        return
    if os.getppid() != parent_pid:  # pragma: no cover - tiny race window
        os._exit(1)
