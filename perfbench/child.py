"""One CLI call in a fresh interpreter, run by run.py.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds "argv" (the job; null only imports ``hgl.cli``, which times
set-up) and "trace" (whether to install the tracer before the call).

The child prints one line as soon as ``hgl.cli`` is imported, then times
CALIBRATION_CHUNKS speed chunks, then, for a job, makes the call.  Its last
line is one JSON object with the calibration chunk times and, for a job, the
exit code, stdout and stderr of ``hgl.cli.main(argv)``, its wall and CPU
time, the process's peak resident memory, the speed samples taken during
the call and, when traced, the tracer's summary and spans.

Speed samples.  On a shared host the same pure-Python code runs up to 25%
faster or slower from one few-second stretch to the next, and that drift
lasts longer than a run.  So a SIGALRM handler times one fixed chunk of
pure-Python work every SAMPLE_PERIOD_S of the call, in the call's own
thread, where the chunks run at the speed the call runs at that moment.
run.py scales the call's time by them (see its ``speed_factor``).  The
handler's own time is reported, so that it can be taken out.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

CHUNK_LOOPS = 10000  # about 1 ms of work on a 2-vCPU Xeon KVM guest
SAMPLE_PERIOD_S = 0.05
CALIBRATION_CHUNKS = 24

# The chunk writes ints into this preallocated dict, so it allocates no
# object the garbage collector tracks and never sets off a collection.
_CELLS = dict.fromkeys(range(1024), 0)


def _loop(loops):
    cells, total = _CELLS, 0
    for i in range(loops):
        total += i * i % 7
        cells[i & 1023] = total


def speed_chunk():
    """Seconds one fixed chunk of pure-Python work takes now.  A short
    untimed loop first brings the chunk's code and cells back into the
    cache, so that the time depends on the machine's speed rather than on
    what the interrupted call left in the cache."""
    _loop(1024)
    start = time.perf_counter()
    _loop(CHUNK_LOOPS)
    return time.perf_counter() - start


class SpeedSampler:
    """Times a speed chunk at the start and end of a call and every
    SAMPLE_PERIOD_S in between."""

    def __init__(self):
        self.chunks = []
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.chunks.append(speed_chunk())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False


def main():
    spec = json.loads(sys.argv[1])
    import hgl
    import hgl.cli

    print(json.dumps({"ready": True, "hgl": hgl.__file__}), flush=True)
    report = {"calibration": [speed_chunk() for _ in range(CALIBRATION_CHUNKS)]}
    if spec["argv"] is None:
        print(json.dumps(report), flush=True)
        return 0
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = SpeedSampler()
    out, err = io.StringIO(), io.StringIO()
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    try:
        with sampler, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hgl.cli.main(spec["argv"])
    except SystemExit as exc:  # argparse usage errors exit this way
        code = exc.code
    except Exception:  # a crash is a failed job, never a skipped one
        code = None
        err.write(traceback.format_exc())
    report.update({
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": time.perf_counter() - start_wall,
        "cpu_s": time.process_time() - start_cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_chunks": sampler.chunks,
        "speed_spent_s": sampler.spent_s,
    })
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["spans"] = tracer.spans
        report["untraced"] = tracer.missing
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
