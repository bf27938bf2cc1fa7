"""Benchmark worker: a fresh interpreter that runs CLI operations in-process.

It imports ``partinv.cli`` as every CLI invocation does, reports ``ready``
(the end of set-up), then reads one JSON job from stdin:
``{"ops": [argv, ...], "trace": bool}``.  For each operation it calls
``partinv.cli.main(argv)`` with stdout and stderr captured and writes one
JSON line with the exit code, the seconds the call took, its stdout and
``reference_s``, the time ``reference`` took around then.  A last line
carries the peak RSS, the median reference time right after set-up and,
when tracing, the per-layer report.

``reference`` is a few milliseconds of fixed pure-Python work that never
calls partinv; its time follows the host's speed, which other tenants
change from one second to the next.  The worker times it
``STARTUP_SAMPLES`` times right after set-up, and in untraced jobs also
every ``SAMPLE_EVERY_S`` from a SIGALRM handler, between bytecodes of
whatever operation is running.  An operation's ``seconds`` exclude those
samples, and its ``reference_s`` is the mean of the samples taken while
it ran or in the ``LOOKBACK_S`` before.  Traced jobs take their samples
between operations instead, so that spans hold only partinv's time.
"""

import sys

SAMPLE_EVERY_S = 0.1
LOOKBACK_S = 0.5
STARTUP_SAMPLES = 12


def reference() -> int:
    """Partitions of 21 into at most 8 parts, keyed by their gcd row sums.

    The integer, tuple and dict work of partinv's own loops, in about
    4 ms on a shared 2-vCPU x86 host under Python 3.11.
    """
    from math import gcd

    keys: dict[tuple[int, ...], int] = {}
    stack = [(21, 21, ())]
    while stack:
        n, most, parts = stack.pop()
        if n == 0:
            key = tuple(sum(gcd(a, b) for b in parts) for a in parts[:3])
            keys[key] = keys.get(key, 0) + 1
        elif len(parts) < 8:
            for p in range(min(n, most), 0, -1):
                stack.append((n - p, p, parts + (p,)))
    return len(keys)


def main() -> None:
    import partinv.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    # Imported after the readiness mark, so they do not count as set-up.
    import contextlib
    import gc
    import io
    import json
    import resource
    import signal
    import statistics
    import time
    import traceback

    samples: list[tuple[float, float]] = []  # (end, seconds) of each timed reference

    def sample(*_) -> None:
        # Without the cyclic collector, whose passes would grow with the
        # objects partinv keeps alive, so that only the host's speed counts.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        samples.append((end, end - start))

    job = json.loads(sys.stdin.read())
    channel = sys.stdout
    reference()  # warm-up: the first run in a fresh interpreter is slower
    for _ in range(STARTUP_SAMPLES):
        sample()
    startup_reference_s = statistics.median(seconds for _, seconds in samples)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
    elif job["ops"]:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    for argv in job["ops"]:
        if tracer is not None and time.perf_counter() - samples[-1][0] >= SAMPLE_EVERY_S:
            sample()
        out, err = io.StringIO(), io.StringIO()
        first = len(samples)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = partinv.cli.main(argv)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter()
        seconds = end - start - sum(s for e, s in samples[first:] if start <= e - s and e <= end)
        window = [s for e, s in samples if start - LOOKBACK_S <= e <= end] or [samples[-1][1]]
        reference_s = statistics.fmean(window)
        record = {"code": code, "seconds": seconds, "reference_s": reference_s,
                  "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
        # A signal handled while a write to the full pipe blocks can lose
        # buffered bytes, so SIGALRM waits until the line is out.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        channel.write(json.dumps(record) + "\n")
        channel.flush()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    signal.setitimer(signal.ITIMER_REAL, 0)
    final = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "reference_s": startup_reference_s}
    if tracer is not None:
        final["trace"] = tracer.metrics()
        final["spans"] = tracer.span_table()
    channel.write(json.dumps(final) + "\n")
    channel.flush()


if __name__ == "__main__":
    main()
