"""One workload process: set-up, then the timed closed loop.

Run by ``run.py`` in a fresh interpreter per process:

    python3 perfbench/worker.py --workload W --seed N --docs DIR --out FILE
                                --seconds S [--trace 0|1] [--setup-only]

Set-up imports ``latgames.cli`` and writes the workload's documents to DIR.
The worker then writes ``READY`` to its stdout, which is where ``run.py``
stops the set-up clock.  The timed phase calls ``latgames.cli.main(argv)``
in-process for each command, back to back, one client and no threads, so
the next command starts only after the previous one has returned.  Every
command re-reads its document, so nothing parsed or built during set-up
(or by an earlier command) reaches a timed command.

A pass is every command of the workload once.  The worker makes the
number of whole passes that comes closest to ``--seconds``, and at least
``MIN_PASSES``; with ``--trace 1`` it alternates untraced and traced
passes so that the tracing overhead is measured in the same process.
Every interval is also scaled to a nominal interpreter speed (``calib``).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import calib

MIN_PASSES = 2
COMMAND_TIMEOUT_S = 60
# The timed phase starts no new command after this many seconds, so a
# run ends well inside its time limit even if the program regresses badly.
DEADLINE_S = 120


class CommandTimeout(BaseException):
    """Raised by the interval timer inside a command that ran too long.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def run_command(main, argv):
    """Run one CLI command in-process.

    Returns ``(exit_code, stdout, seconds, error)``; ``exit_code`` is None
    and ``error`` names the cause when the command raised or timed out.
    """
    buf = io.StringIO()
    code = error = None
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except CommandTimeout:
        error = f"timeout after {COMMAND_TIMEOUT_S} s"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # recorded as a failed command, never dropped
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed, error


def docs_digest(docs_dir: str, commands) -> str:
    h = hashlib.sha256()
    for name in sorted({c["doc"] for c in commands}):
        with open(os.path.join(docs_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def timed_phase(commands, seconds, sampler, tracer=None):
    """Run whole passes over ``commands`` from the documents directory.

    Returns the per-command records and one record per pass.  A command
    record keeps each execution as ``[exit_code, output_index, error]``,
    each distinct output once, and its times by pass, scaled to the nominal
    speed (None when not run).  A pass record holds whether it was
    traced, its scaled and raw walls (sums of its command times), the mean
    slice time over the pass and, when traced, the span snapshot.
    """
    import latgames.cli

    records = [{"id": c["id"], "times": [], "runs": [], "outputs": []} for c in commands]
    passes = []
    phase_start = time.perf_counter()
    planned = None
    while planned is None or len(passes) < planned:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        first = len(sampler.samples)
        wall = raw_wall = 0.0
        try:
            for rec, cmd in zip(records, commands):
                if time.perf_counter() - phase_start > DEADLINE_S:
                    rec["runs"].append([None, None, f"not run: timed phase passed {DEADLINE_S} s"])
                    rec["times"].append(None)
                    continue
                mark = sampler.mark()
                code, out, elapsed, error = run_command(latgames.cli.main, cmd["argv"])
                scaled = sampler.scaled(mark, elapsed)
                if out not in rec["outputs"]:
                    rec["outputs"].append(out)
                rec["runs"].append([code, rec["outputs"].index(out), error])
                rec["times"].append(scaled)
                wall += scaled
                raw_wall += elapsed
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall": wall, "raw_wall": raw_wall,
                       "slice_s": statistics.fmean(sampler.samples[first:]),
                       "spans": tracer.snapshot() if traced else None})
        if time.perf_counter() - phase_start > DEADLINE_S:
            break
        if planned is None:
            planned = max(MIN_PASSES, int(seconds / raw_wall + 0.5))
            if tracer is not None:
                planned = max(2, planned - planned % 2)
    return records, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sampler = calib.SpeedSampler()
    sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()


def _run(args, sampler) -> int:
    import latgames.cli  # noqa: F401  (import time is part of set-up)
    import workloads

    writer = workloads.build(args.workload, args.seed, args.docs)
    commands = writer.commands
    # run.py scales its set-up clock by the slices timed during set-up.
    setup = {"setup_sampling_s": sampler.spent, "setup_slice_s": statistics.fmean(sampler.samples)}
    sys.stdout.write("READY\n")
    sys.stdout.flush()

    result = dict(setup, commands=commands, digest=docs_digest(args.docs, commands),
                  bytes_written=writer.bytes_written)
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        os.chdir(args.docs)
        records, passes = timed_phase(commands, args.seconds, sampler, tracer)
        result.update(records=records, passes=passes,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
