"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of up to two within seconds, for every process alike.  So while a
timed CLI process runs, the benchmark stops it every ``SLICE_S`` seconds
(SIGSTOP), times one *chunk* of a fixed pure-Python loop that never touches
latflow, and lets it go on (SIGCONT).  The process's time is its wall time
less the pauses, and its normalized time rescales that to a host on which
a chunk takes ``NOMINAL_S`` seconds:

    normalized = (wall - paused) * NOMINAL_S / mean(chunks)

where the chunks are the one timed just before the process started, those
timed during its pauses and the one timed just after it ended.  A chunk runs
on as many threads as the process was given: a two-thread run contends for
the GIL and for both cores, and a one-thread chunk would not see that.  A
change to latflow moves the normalized time as it moves the wall time; a
host that runs everything 30% slower for a few seconds moves neither.
"""

import os
import select
import signal
import statistics
import threading
import time
from fractions import Fraction

SLICE_S = 0.5  # the process runs this long between two chunks
# about a chunk's wall time on a quiet 2-vCPU Xeon VM under Python 3.11, so
# normalized seconds read close to wall seconds there
NOMINAL_S = 0.05


def _loop():
    """Fixed work in the mix latflow does: Fraction and big-int arithmetic,
    float loops, dict and list traffic, small function calls."""
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i % 13 + 1, i + 3)
    big = 1
    for i in range(1, 900):
        big = (big * (i | 1) + i) % (1 << 4096)
    x = 0.0
    for i in range(60000):
        x += (i % 7) * 0.5 - x * 1e-6
    table = {}
    for i in range(40000):
        table[(i % 211, i % 17)] = table.get((i % 211, i % 17), 0) + 1
    items = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return acc, big, x, len(items)


def chunk_seconds(threads=1):
    """Wall time of one chunk: the loop run twice, or once on each of
    ``threads`` threads, which then contend for the GIL as the CLI's do."""
    start = time.perf_counter()
    if threads == 1:
        _loop()
        _loop()
    else:
        workers = [threading.Thread(target=_loop) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    return time.perf_counter() - start


class HostClock:
    """Times child processes against chunks of the calibration loop, run on
    as many threads as the child is given."""

    def __init__(self, threads=1):
        self.threads = threads
        self.chunks = [chunk_seconds(threads)]

    def wait(self, proc, timeout):
        """Wait for ``proc`` (started just now), pausing it to time chunks.

        Returns (wait status, rusage, wall - paused, normalized seconds).
        The process is killed once it has run ``timeout`` seconds."""
        start = time.perf_counter()
        first = len(self.chunks) - 1
        paused = 0.0
        fd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            while not poller.poll(SLICE_S * 1000):
                if time.perf_counter() - start - paused > timeout:
                    proc.kill()
                    break
                stop = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                state = os.waitid(os.P_PID, proc.pid,
                                  os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if state.si_code != os.CLD_STOPPED:
                    break  # it ended before the stop took hold
                self.chunks.append(chunk_seconds(self.threads))
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stop
            end = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(fd)
        self.chunks.append(chunk_seconds(self.threads))
        program = end - start - paused
        return status, usage, program, program * NOMINAL_S / statistics.mean(self.chunks[first:])
