"""Part of a computation on a forked child process, on another CPU.

The trace writer and the large sampled checks split their work in two
when a second CPU is usable: a forked child takes one part while this
process takes the other.  A forked child starts with its parent's state,
so nothing is sent to it; it sends back its result, as marshal writes
it, or the error it raised.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import threading
from typing import Any, Callable

_SHIPPED, _RAISED, _UNSHIPPABLE = range(3)


def _usable_cpus() -> int:
    """CPUs this process may run on: `--batch` forks a worker for each,
    and the trace writer and the sampled checks fork only when there are
    two or more."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on this platform
        return os.cpu_count() or 1


def _other_cpus() -> set[int]:
    """The usable CPUs but the one this process runs on now; empty off Linux.

    A forked child starts on its parent's CPU, and on a 2-vCPU host it was
    seen to stay there for about a second while the other CPU idled, so
    the two halves of a trace took turns instead of running at once.  A
    `Child` moves to these CPUs.
    """
    if not hasattr(os, "sched_getaffinity"):
        return set()
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39, the CPU
    except (OSError, IndexError, ValueError):
        return set()
    return os.sched_getaffinity(0) - {cpu}


def _forkable() -> bool:
    """Whether a forked child may take part of the work: `os.fork` exists,
    a second CPU is usable, and no other thread runs (a thread holding a
    lock at the fork would leave it held in the child)."""
    return hasattr(os, "fork") and _usable_cpus() > 1 and threading.active_count() == 1


class Unshippable(Exception):
    """The child's result holds a value that marshal cannot write."""


class Child:
    """`work()` run on a forked child process, moved off this process's CPU.

    The child writes one message to a pipe and leaves by os._exit, with
    code 0 if `work` returned and 1 if it raised: it runs no cleanup and
    flushes none of this process's buffers.  `result` reads the message
    and reaps the child; `stop` kills and reaps a child whose result is
    not wanted.  One of the two must be called.
    """

    def __init__(self, work: Callable[[], Any]):
        others = _other_cpus()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                if others:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, others)
                try:
                    message = (_SHIPPED, work())
                except BaseException as err:
                    message = (_RAISED, *_raised(err))
                try:
                    data = marshal.dumps(message)
                except ValueError:
                    data = marshal.dumps((_UNSHIPPABLE,))
                with open(write, "wb") as pipe:
                    pipe.write(data)
                code = 0 if message[0] == _SHIPPED else 1
            finally:
                os._exit(code)
        os.close(write)
        self.pid, self.code, self._read = pid, None, read

    def result(self) -> Any:
        """Wait for the child and return `work()` as marshal wrote it.

        An error that `work` raised is raised here with its type and
        arguments; one that cannot be rebuilt is a ChildProcessError with
        its type and message.  A child that sent no message (it was
        killed) raises ChildProcessError with its exit code, and a result
        that marshal cannot write raises `Unshippable`.  `code` holds the
        child's exit code afterwards.
        """
        # Read to the end before waiting: a child whose message fills the
        # pipe waits for this read before it can exit.  If the read is
        # interrupted, the closed pipe ends the child's write.
        try:
            with open(self._read, "rb") as pipe:
                data = pipe.read()
        finally:
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if not data:
            raise ChildProcessError(f"a forked child exited with {self.code} and sent no result")
        message = marshal.loads(data)
        if message[0] == _SHIPPED:
            return message[1]
        if message[0] == _UNSHIPPABLE:
            raise Unshippable
        _, pickled, text = message
        try:
            import pickle  # here: only a failed child needs it

            error = pickle.loads(pickled)
        except Exception:
            raise ChildProcessError(text) from None
        raise error

    def stop(self) -> None:
        """Kill the child and reap it."""
        import signal  # here: `import signal` costs about 1 ms of start-up

        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        os.close(self._read)
        self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _raised(err: BaseException) -> tuple[bytes | None, str]:
    """`err` pickled (None if it cannot be), and its type and message."""
    import pickle  # here: only a failed child needs it

    text = f"{type(err).__name__}: {err}"
    try:
        return pickle.dumps(err), text
    except Exception:
        return None, text
