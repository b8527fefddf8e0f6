"""Load generation and the server child's lifecycle.

The load generator is one process with at most two threads, so that on
a 2-core host it leaves the server most of the CPU.  Each
request opens its own connection with :mod:`http.client`, because the
stdlib WSGI server closes the connection after every response; a
request's latency runs from before the connect until its body has been
read.
"""

from __future__ import annotations

import ctypes
import http.client
import os
import pickle
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

# Stripped from the child's environment so the default deployment (one
# shard, serial kernels, no fault plan) is what gets measured.
STRIPPED_ENV = ("REPRO_SHARDS", "REPRO_WORKERS", "REPRO_FAULT_PLAN")

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class Request(NamedTuple):
    """One scripted request; ``keep`` asks the client loop to keep its
    body for the checks."""

    tag: str
    method: str
    path: str
    body: bytes | None = None
    key: object = None
    keep: bool = False


class Sample(NamedTuple):
    """One completed request as the client saw it (perf_counter s)."""

    tag: str
    start: float
    end: float
    status: int
    rid: str

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        return self.end - self.start


class Client:
    """HTTP/1.1 client for one server, a fresh connection per request."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._n = 0
        self._lock = threading.Lock()

    def _rid(self) -> str:
        with self._lock:
            self._n += 1
            return f"bench-{self._n}"

    def call(self, request: Request) -> tuple[Sample, bytes]:
        """Issue one request; transport errors come back as status 0."""
        rid = self._rid()
        headers = {"X-Request-ID": rid}
        if request.body is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        start = time.perf_counter()
        try:
            conn.request(request.method, request.path, request.body, headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            data, status = b"", 0
        finally:
            conn.close()
        end = time.perf_counter()
        return Sample(request.tag, start, end, status, rid), data

    def get(self, path: str) -> bytes:
        """Untimed GET that must succeed (warm-up, checks, snapshots).

        Raises
        ------
        RuntimeError
            On a non-2xx answer.
        """
        sample, data = self.call(Request("untimed", "GET", path))
        if not sample.ok:
            raise RuntimeError(f"GET {path} answered {sample.status}")
        return data

    def post(self, path: str, body: bytes) -> bytes:
        """Untimed POST that must succeed."""
        sample, data = self.call(Request("untimed", "POST", path, body))
        if not sample.ok:
            raise RuntimeError(f"POST {path} answered {sample.status}")
        return data


def run_clients(n: int, fn: Callable[[int], None]) -> None:
    """Run ``fn(0) .. fn(n-1)`` concurrently on at most two threads:
    client 0 on the calling thread, client 1 on one more."""
    if not 1 <= n <= 2:
        raise ValueError(f"the load generator runs 1 or 2 clients, got {n}")
    errors: list[BaseException] = []

    def guarded(i: int) -> None:
        try:
            fn(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    other = None
    if n == 2:
        other = threading.Thread(target=guarded, args=(1,), name="loadgen-1")
        other.start()
    guarded(0)
    if other is not None:
        other.join()
    if errors:
        raise errors[0]


def closed_loop(
    client: Client, scripts: list[Iterator[Request]], seconds: float
) -> tuple[list[Sample], list[tuple[Request, Sample, bytes]]]:
    """Each script is one closed-loop client: it sends its next request
    when the previous one has answered, until ``seconds`` have passed.

    Returns every sample and the ``(request, sample, body)`` of requests
    scripted with ``keep``.
    """
    samples: list[Sample] = []
    kept: list[tuple[Request, Sample, bytes]] = []
    stop_at = time.perf_counter() + seconds

    def drive(i: int) -> None:
        script = scripts[i]
        while time.perf_counter() < stop_at:
            request = next(script)
            sample, body = client.call(request)
            samples.append(sample)
            if request.keep:
                kept.append((request, sample, body))

    run_clients(len(scripts), drive)
    return samples, kept


class SharedScript:
    """One request sequence that several clients draw from in turn."""

    def __init__(self, requests: Iterator[Request]) -> None:
        self._requests = requests
        self._lock = threading.Lock()

    def __iter__(self) -> "SharedScript":
        return self

    def __next__(self) -> Request:
        with self._lock:
            return next(self._requests)


ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Turn off address-space randomisation for the server about to be
    exec'd.  With it on, each launch places its arrays at different
    addresses: on a 2-core VM, six launches running the same t-SNE had
    medians up to 29% apart, against 1-7% apart in two batches of six
    with fixed addresses and a fixed string hash seed."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


class ServerProcess:
    """``server.py`` in a child process fed a pickled payload on stdin.

    ``start`` returns the set-up time: from spawning the process until
    ``/api/health`` first answers 200.  ``stop`` kills the child and
    waits for it.  The child stays in the caller's process group, so a
    signal to the group reaches it too.
    """

    def __init__(self, payload: bytes, flags: list[str], jobs_root: Path) -> None:
        self.payload = payload
        self.flags = flags
        self.jobs_root = jobs_root
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def _env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
        env["PYTHONHASHSEED"] = "0"
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        return env

    def start(self) -> float:
        """Launch and wait until healthy; returns seconds taken.

        Raises
        ------
        RuntimeError
            When the child exits or stays unhealthy past the timeout.
        """
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server.py"),
                "--jobs-root",
                str(self.jobs_root),
                *self.flags,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._env(),
            cwd=str(ROOT),
            preexec_fn=_fixed_layout,
        )
        try:
            self.proc.stdin.write(self.payload)
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the child died; reported below
        line = self._read_port_line(t0 + START_TIMEOUT_S)
        if not line.strip().isdigit():
            code = self.proc.poll()
            self.stop()
            raise RuntimeError(f"server did not start (exit code {code})")
        self.port = int(line)
        client = Client(self.port)
        while True:
            sample, _ = client.call(Request("health", "GET", "/api/health"))
            if sample.ok:
                return time.perf_counter() - t0
            if time.perf_counter() - t0 > START_TIMEOUT_S or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def _read_port_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                break
            chunk = os.read(fd, 64)
            if not chunk:
                break
            buf += chunk
        return buf.decode("ascii", "replace").split("\n", 1)[0]

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc = None


def encode_payload(city, replay=None) -> bytes:
    """The pickled stdin payload :mod:`server` reads."""
    return pickle.dumps(
        {"city": city, "replay": replay}, protocol=pickle.HIGHEST_PROTOCOL
    )
