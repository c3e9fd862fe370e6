"""The server child process: spawn, pin, measure from /proc, stop, reap.

Every wait is bounded.  The child is stopped with SIGINT (what ``repro serve``
handles: it closes the engine and unlinks the shard workers' shared memory);
SIGKILL of the whole process tree is the last resort, and the tree is reaped
on any exception through the context manager.

``supervise`` is the outer guard around a whole benchmark run: whatever path
leads out of the run, no process it started -- server, shard worker,
multiprocessing resource tracker, an orphan of a server that died -- is
running or unreaped when the benchmark command exits.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

SPAWN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
GRACE_S = 2.0
#: Set in the environment of the process ``supervise`` runs the benchmark in.
SUPERVISED_ENV = "BENCH_SUPERVISED"
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")
_SHM_PREFIX = "rqw"  # repro.serving.workers segment names


def split_affinity() -> tuple[set[int], set[int]]:
    """``(generator CPUs, server CPUs)``: the last CPU for the generator, the
    rest for the server tree.  With one CPU both share it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/pid/stat`` after the command name, or None if gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def _running(pid: int) -> bool:
    """False once the process is gone or a zombie awaiting its reaper."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def tree_pids(root: int) -> list[int]:
    """``root`` and all its live or unreaped descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _reap_descendants() -> None:
    """Wait until every descendant of this process has ended and is reaped.

    As a subreaper this process adopts the orphans of its descendants, so the
    loop ends when it has no child left at all (``ChildProcessError``).  What
    has not ended by itself after ``GRACE_S`` is killed."""
    started = time.perf_counter()
    while (waited := time.perf_counter() - started) < GRACE_S + STOP_TIMEOUT_S:
        if waited > GRACE_S:
            _kill([pid for pid in tree_pids(os.getpid())[1:] if _running(pid)])
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        time.sleep(0.005)


def supervise(script: str, args: list[str]) -> int:
    """Run ``script`` as a child (with ``SUPERVISED_ENV`` set) and return its
    exit code once neither it nor any process it started is left.

    The benchmark proper runs in the child, so that everything its exit sets
    off (multiprocessing's exit handlers, the resource tracker of the traced
    run's in-process shard workers noticing its parent gone) happens while
    this process still watches.  This process starts nothing else.
    """
    # PR_SET_CHILD_SUBREAPER: orphans (a dead server's shard workers, resource
    # trackers) are re-parented to this process instead of to init, so it can
    # wait for them and none is left behind as a zombie either.
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    child = subprocess.Popen(
        [sys.executable, script, *args], env=dict(os.environ, **{SUPERVISED_ENV: "1"})
    )
    # Passed on as SIGINT: the child unwinds through its ``finally`` blocks
    # and stops its server the clean way.
    signal.signal(signal.SIGTERM, lambda *_: child.send_signal(signal.SIGINT))
    while True:
        try:
            code = child.wait()
            break
        except KeyboardInterrupt:  # the child got the terminal's SIGINT too
            pass
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _reap_descendants()
    return code if code >= 0 else 128 - code


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(_SHM_DIR) if name.startswith(_SHM_PREFIX)}
    except OSError:
        return set()


class ServerProc:
    """One ``python -m repro serve`` child and its descendants."""

    def __init__(self, repo_root: Path, rules_path: Path, flags: list[str],
                 log_dir: Path, cpus: set[int]):
        self._shm_before = _shm_segments()
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = str(repo_root / "src")
        self._stdout = open(log_dir / "server.stdout", "wb")
        self._spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(rules_path), *flags],
            cwd=repo_root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._stdout, stderr=subprocess.PIPE,
        )
        # Threads and worker processes the child starts later inherit this.
        os.sched_setaffinity(self.proc.pid, cpus)
        self.setup_s: float | None = None
        self.address: tuple[str, int] | None = None

    def __enter__(self) -> "ServerProc":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---------------------------------------------------------------- startup

    def wait_listening(self) -> tuple[str, int]:
        """Block until the ``listening on HOST:PORT`` line; sets ``setup_s``."""
        assert self.proc.stderr is not None
        fd = self.proc.stderr.fileno()
        deadline = self._spawned + SPAWN_TIMEOUT_S
        buffered = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"server not listening after {SPAWN_TIMEOUT_S}s")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 4096)
            now = time.perf_counter()
            if not chunk:
                raise RuntimeError(
                    f"server exited before listening: {buffered.decode(errors='replace')}"
                )
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                if line.startswith(b"listening on "):
                    host, _, port = line.split()[2].decode().rpartition(":")
                    self.setup_s = now - self._spawned
                    self.address = (host, int(port))
                    return self.address

    # ------------------------------------------------------------ /proc reads

    def tree_pids(self) -> list[int]:
        """The child and all its live descendants."""
        return tree_pids(self.proc.pid)

    def cpu_seconds(self) -> float:
        """utime+stime of the live tree plus reaped descendants of the child."""
        ticks = 0
        for pid in self.tree_pids():
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += int(fields[11]) + int(fields[12])
                if pid == self.proc.pid:
                    ticks += int(fields[13]) + int(fields[14])
        return ticks / _CLOCK_TICK

    def peak_rss_mib(self) -> float:
        """Peak resident set (``VmHWM``) summed over the tree."""
        total_kib = 0
        for pid in self.tree_pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    # ------------------------------------------------------------------- stop

    def stop(self) -> int:
        """SIGINT, bounded wait, SIGKILL the tree if needed; returns the number
        of shared-memory segments the tree left behind."""
        if self.proc.returncode is None:
            tree = self.tree_pids()
            self.proc.send_signal(signal.SIGINT)
            if not self._wait_gone(tree):
                _kill(tree)
                self._wait_gone(tree)
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        self._stdout.close()
        return len(_shm_segments() - self._shm_before)

    def _wait_gone(self, pids: list[int]) -> bool:
        """Wait (bounded) until no listed process runs, then reap the child."""
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while time.perf_counter() < deadline:
            if not any(_running(pid) for pid in pids):
                self.proc.wait()  # gone or a zombie by now: returns at once
                return True
            time.sleep(0.005)
        return False
