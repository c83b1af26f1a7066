"""Child processes under an outside wall-clock and memory limit.

A watchdog thread polls the child's resident set and age and kills it
(SIGKILL) when either passes its limit; the caller blocks in wait4, so wall
time is exact and CPU time and peak RSS come from the child's rusage."""

import dataclasses
import os
import signal
import subprocess
import threading
import time

POLL_S = 0.05
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclasses.dataclass
class Limits:
    wall_s: float
    rss_mb: float


@dataclasses.dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    killed: str = ""  # why the watchdog killed the child; "" when it did not


def _rss_mb(pid):
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * PAGE_BYTES / 2**20
    except (OSError, IndexError, ValueError):
        return 0.0


class Child:
    """A started child process and its watchdog."""

    def __init__(self, argv, limits, stdout=subprocess.DEVNULL, cwd=None):
        self._limits = limits
        self._start = time.perf_counter()
        self._proc = subprocess.Popen(argv, stdout=stdout,
                                      stderr=subprocess.DEVNULL, cwd=cwd)
        self.pid = self._proc.pid
        self._lock = threading.Lock()
        self._exited = False
        self._killed = ""
        self._stop = threading.Event()
        self._watch = threading.Thread(target=self._watchdog, daemon=True)
        self._watch.start()

    def _watchdog(self):
        while not self._stop.wait(POLL_S):
            reason = ""
            if time.perf_counter() - self._start > self._limits.wall_s:
                reason = f"wall limit {self._limits.wall_s:g} s"
            elif _rss_mb(self.pid) > self._limits.rss_mb:
                reason = f"memory limit {self._limits.rss_mb:g} MB"
            if reason:
                with self._lock:
                    if not self._exited:  # never signal a reaped pid
                        self._killed = reason
                        os.kill(self.pid, signal.SIGKILL)
                return

    def signal(self, sig):
        with self._lock:
            if not self._exited:
                os.kill(self.pid, sig)

    def wait(self):
        # Wait without reaping, mark the child exited under the lock, then
        # reap with rusage: the watchdog can never kill a recycled pid.
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - self._start
        with self._lock:
            self._exited = True
        _, status, ru = os.wait4(self.pid, 0)
        self._proc.returncode = os.waitstatus_to_exitcode(status)
        self._stop.set()
        self._watch.join()
        return Outcome(wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                       peak_rss_mb=ru.ru_maxrss / 1024.0,
                       returncode=self._proc.returncode, killed=self._killed)


def run(argv, limits, stdout=subprocess.DEVNULL, cwd=None):
    return Child(argv, limits, stdout=stdout, cwd=cwd).wait()
