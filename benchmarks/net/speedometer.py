"""Speedometer: how much is a CPU nanosecond worth on this vCPU *right now*?

On the VM class this benchmark runs on, the two vCPUs differ in speed,
each changes speed every few tens of milliseconds, and the whole box
moves between a quiet and a noisy regime every few minutes: the raw CPU
time of 2000 identical puts swings by 25 % (cv) inside one minute.  One
speedometer process is therefore pinned to every CPU a node runs on, at
normal priority, so that it time-shares the CPU with the node slice by
slice and samples the same speed history.  It alternates two fixed
kernels and publishes, for each, ``(iterations, own CPU ns spent in it)``
through a small shared file mapping:

``compute``
    pure Python + ``json``: the instruction mix of request handling,
    codecs and recovery.  Normalises per-op and per-item costs
    (measured: cv of a 2000-put window 25 % raw, 5.7 % normalised).
``session``
    one request/response over a loopback TCP connection between two
    asyncio coroutines in this process: selector wake-up, ``recv``,
    ``send``, stream buffering — the mix of an anti-entropy session that
    carries nothing.  Normalises per-session costs (idle pull: cv 15 %
    against the compute kernel, 6 % against this one).

Over any window ``rate = d(iterations) / d(cpu_ns)``, and a node's cost
is ``node_cpu_ns * rate / NOMINAL`` — "nanoseconds on a core that runs
the kernel at its nominal rate".  The nominal rates are constants of the
harness, never re-measured, so numbers stay comparable across machines.

The CPU times are the spinner's own ``CLOCK_THREAD_CPUTIME_ID`` readings
published together with the counts: a ``/proc/<pid>/schedstat`` read from
outside is stale by up to a tick for a task that never sleeps, and cannot
be read atomically with the counters.

Run as a child: ``python speedometer.py <mmap-path> <cpu>``.  It exits on
its own when its parent goes away.
"""

from __future__ import annotations

import asyncio
import json
import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "NOMINAL_COMPUTE",
    "NOMINAL_SESSION",
    "SpeedSample",
    "Speedometer",
    "compute_kernel",
]

#: Kernel iterations per CPU *nanosecond* on the nominal core (close to
#: the middle of what the sizing box delivers: 65 000 and 9 500 per s).
NOMINAL_COMPUTE = 65_000 / 1e9
NOMINAL_SESSION = 9_500 / 1e9

_SEQ = struct.Struct("<Q")  # odd while a write is in progress
_COUNTERS = struct.Struct("<QQQQ")
_SIZE = _SEQ.size + _COUNTERS.size

_COMPUTE_BATCH = 16
_SESSION_BATCH = 2

_PAYLOAD = {
    "op": "put",
    "item": "k00042",
    "value": "00" * 24,
    "ivv": list(range(8)),
}


def compute_kernel(payload: dict[str, object]) -> int:
    """One fixed unit of interpreter work: JSON both ways, a dict walk,
    a byte-assembly loop.  Returns a value so nothing is optimised away."""
    text = json.dumps(payload)
    decoded = json.loads(text)
    acc = len(text)
    for key, value in decoded.items():
        acc = (acc * 31 + len(key)) & 0xFFFFFF
        if isinstance(value, list):
            for component in value:
                acc = (acc + component * 7) & 0xFFFFFF
    buf = bytearray()
    for index in range(48):
        buf.append((acc + index) & 0x7F)
    return acc + len(bytes(buf))


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readexactly(1)
            blob = await reader.readexactly(head[0])
            writer.write(head + blob)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        writer.close()


async def _spin(path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    server = await asyncio.start_server(_echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    message = bytes([40]) + bytes(40)
    clock = time.thread_time_ns
    compute_n = compute_ns = session_n = session_ns = 0
    seq = 0
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), _SIZE) as view:
        while True:
            started = clock()
            for _ in range(_COMPUTE_BATCH):
                compute_kernel(_PAYLOAD)
            middle = clock()
            for _ in range(_SESSION_BATCH):
                writer.write(message)
                await writer.drain()
                await reader.readexactly(41)
            ended = clock()
            compute_n += _COMPUTE_BATCH
            compute_ns += middle - started
            session_n += _SESSION_BATCH
            session_ns += ended - middle
            seq += 1
            _SEQ.pack_into(view, 0, seq)
            _COUNTERS.pack_into(
                view, _SEQ.size, compute_n, compute_ns, session_n, session_ns
            )
            seq += 1
            _SEQ.pack_into(view, 0, seq)
            if not seq & 0x1FF and os.getppid() != parent:
                return


class SpeedSample(NamedTuple):
    """One reading of a speedometer's four counters."""

    compute_n: int
    compute_ns: int
    session_n: int
    session_ns: int

    def compute_rate_since(self, earlier: "SpeedSample") -> float:
        """Compute-kernel iterations per CPU ns between two readings."""
        return _rate(
            self.compute_n - earlier.compute_n, self.compute_ns - earlier.compute_ns
        )

    def session_rate_since(self, earlier: "SpeedSample") -> float:
        """Session-kernel round trips per CPU ns between two readings."""
        return _rate(
            self.session_n - earlier.session_n, self.session_ns - earlier.session_ns
        )


def _rate(iterations: int, cpu_ns: int) -> float:
    if cpu_ns <= 0 or iterations <= 0:
        raise RuntimeError("speedometer made no progress in the window — is it alive?")
    return iterations / cpu_ns


class Speedometer:
    """A pinned spinner child and the reader of its published counters."""

    def __init__(self, cpu: int, scratch_dir: Path) -> None:
        self.cpu = cpu
        self._path = scratch_dir / f"speedometer-{cpu}.bin"
        self._path.write_bytes(bytes(_SIZE))
        self._fh = open(self._path, "r+b")
        self._view = mmap.mmap(self._fh.fileno(), _SIZE)
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self._path), str(cpu)]
        )

    def sample(self) -> SpeedSample:
        """A consistent reading of the counters (seqlock read)."""
        while True:
            # Separate reads, in this order: one whole-record copy may load
            # the counters before the sequence word.
            (before,) = _SEQ.unpack_from(self._view, 0)
            counters = _COUNTERS.unpack_from(self._view, _SEQ.size)
            (after,) = _SEQ.unpack_from(self._view, 0)
            if before == after and not before & 1:
                return SpeedSample(*counters)
            # The writer was preempted mid-write, possibly by this very
            # process: sleep so that it can finish.
            time.sleep(0.0002)

    def wait_running(self, timeout: float = 10.0) -> None:
        """Block until the spinner is publishing; raise if it died
        (``sched_setaffinity`` refused) or never started."""
        deadline = time.monotonic() + timeout
        while self.sample().session_n < 20:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"speedometer on cpu {self.cpu} exited with "
                    f"{self.process.returncode} (pinning refused?)"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"speedometer on cpu {self.cpu} never started")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=10)
        self._view.close()
        self._fh.close()
        self._path.unlink(missing_ok=True)


if __name__ == "__main__":
    asyncio.run(_spin(sys.argv[1], int(sys.argv[2])))
