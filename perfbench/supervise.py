"""Run the benchmark in a child process and outlive every process it starts.

The benchmark starts processes of its own (the server, the pool workers),
and Python starts one more behind its back: a spawn-context pool starts
multiprocessing's resource tracker, which by design outlives the process
that started it and exits only after seeing it gone. So the process that
prints the result cannot itself wait for everything it started.

:func:`run` marks this process a child subreaper (Linux ``prctl``), so
every descendant orphaned by its parent's exit becomes a child of this
one, runs the benchmark as a child, and returns only once no child of
its own is left: it waits up to :data:`GRACE_S` for stragglers to exit,
then terminates and finally kills them. Termination signals sent to this
process are passed on to the benchmark, which then tears down what it
started. Where ``prctl`` is unavailable, orphans go to ``init`` and only
the direct child is waited for.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from typing import List, Optional, Sequence

#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds left to descendants to exit by themselves once the benchmark
#: has exited; then SIGTERM, and after as long again, SIGKILL.
GRACE_S = 10.0
#: Signals passed on to the benchmark process.
FORWARDED = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


def become_subreaper() -> bool:
    """Adopt orphaned descendants; False where the platform cannot."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children(pid: int) -> List[int]:
    """Pids whose parent is ``pid`` (from ``/proc``; empty elsewhere)."""
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def reap(grace_s: float = GRACE_S) -> None:
    """Wait until this process has no child left, reaping each one.

    Children still running after ``grace_s`` get SIGTERM, and SIGKILL
    after ``grace_s`` more.
    """
    start = time.monotonic()
    sent = set()
    while True:
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                break
        waited = time.monotonic() - start
        for sig, after in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 2 * grace_s)):
            if waited >= after and sig not in sent:
                sent.add(sig)
                for pid in children(os.getpid()):
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
        time.sleep(0.01)


def run(cmd: Sequence[str], env: Optional[dict] = None,
        grace_s: float = GRACE_S) -> int:
    """Run ``cmd`` to completion, then reap every descendant; its exit code."""
    become_subreaper()
    child = subprocess.Popen(list(cmd), env=env)

    def forward(signum, _frame) -> None:
        if child.returncode is None:
            child.send_signal(signum)

    previous = {sig: signal.signal(sig, forward) for sig in FORWARDED}
    try:
        code = child.wait()
    finally:
        reap(grace_s)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return code
