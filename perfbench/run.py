"""latgames benchmark: seeded CLI workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload game-solve|game-random|order-checks
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it builds nothing (pure Python) and reads
``src/`` and ``perfbench/`` only.  For one workload it

1. sets the workload up ``SETUP_REPEATS`` times, each in a fresh
   interpreter (``worker.py``), and reports the median set-up time;
2. lets the last of those processes run the timed closed loop (one client,
   no threads) over the generated documents;
3. checks every report against the oracle, outside every timed interval;
4. prints per-command medians, the outcome counts and, as its last line,
   one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are per-layer spans recorded by wrappers the benchmark installs
(``spans.py``), plus the tracing overhead.  Scratch files live under
``.perfbench_tmp/`` in the checkout and are removed on exit.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from oracle import Oracle
from spans import COUNTERS, LAYER_FUNCTIONS, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
DEFAULT_SEED = 0x5EED0006
PROCESS_TIMEOUT_S = 170
TAIL_BEYOND = 10
WORKLOADS = ("game-solve", "game-random", "order-checks")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # Fixed string hashing, so set and dict layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, docs: Path, out: Path, setup_only: bool, deadline: float):
    """Start one worker; returns (setup_seconds, result dict)."""
    docs.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--docs", str(docs), "--out", str(out),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=str(ROOT),
                            text=True)
    try:
        ready = ""
        if select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: worker ran past the run's time limit")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise SystemExit(f"perfbench: worker for {args.workload} failed "
                         f"(exit code {proc.returncode})")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    # Scaled to the nominal speed like every timing (see calib.py).
    setup_s -= result["setup_sampling_s"]
    return setup_s * calib.NOMINAL_S / result["setup_slice_s"], result


def tail(values):
    """Value at the highest percentile with at least TAIL_BEYOND samples
    beyond it, and that percentile; the maximum below 2 * TAIL_BEYOND."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / n


def check_outputs(result, docs: Path):
    """Counts over command executions: (attempted, failed, wrong, notes).

    Failed: raised, timed out, not run before the deadline, or exit code 2
    (no command of any workload expects it).  Wrong: completed with a
    report or exit code other than the known answer."""
    oracle = Oracle(str(docs))
    attempted = failed = wrong = 0
    notes = []
    for cmd, rec in zip(result["commands"], result["records"]):
        verdicts = {}
        for code, out, error in rec["runs"]:
            attempted += 1
            if error is not None or code == 2:
                failed += 1
                notes.append(f"FAILED {cmd['id']}: {error or 'exit code 2'}")
                continue
            if (code, out) not in verdicts:
                verdicts[code, out] = oracle.check(cmd, code, rec["outputs"][out])
            if verdicts[code, out] is not None:
                wrong += 1
                notes.append(f"WRONG {cmd['id']}: {verdicts[code, out]}")
    return attempted, failed, wrong, notes


def untraced_times(rec, passes):
    return [t for t, p in zip(rec["times"], passes) if t is not None and not p["traced"]]


def end_to_end(result, setups):
    passes = result["passes"]
    per_command = []
    for rec in result["records"]:
        times = untraced_times(rec, passes)
        if times:
            per_command.append(statistics.median(times))
    tail_s, pct = tail(per_command)
    walls = [p["wall"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdict_p50_s": (statistics.median(per_command), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw = " ".join(f"{p['raw_wall']:.3f}" for p in passes)
    slices = " ".join(f"{p['slice_s'] * 1e6:.1f}" for p in passes)
    info = [f"passes {len(passes)}, walls {' '.join(f'{w:.3f}' for w in walls)} s (raw {raw} s)",
            f"mean slice per pass {slices} us (nominal {calib.NOMINAL_S * 1e6:.1f} us)",
            f"verdict_p50_s over {len(per_command)} commands (median of each over passes)",
            f"verdict_tail_s at p{pct:.1f} of {len(per_command)} commands",
            f"setup_s median of {len(setups)}: {' '.join(f'{s:.3f}' for s in setups)} s",
            f"documents {len({c['doc'] for c in result['commands']})}, "
            f"{result['bytes_written']} bytes"]
    return metrics, info


def per_layer(result):
    """Mean per traced pass of each span, scaled like the end-to-end times."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    k = len(traced)
    metrics = {}
    for module, function in LAYER_FUNCTIONS:
        name = span_name(module, function)
        rows = [(p["spans"]["spans"][name], calib.NOMINAL_S / p["slice_s"]) for p in traced]
        metrics[f"{name}.calls"] = (sum(r[0] for r, _ in rows) / k, "count")
        metrics[f"{name}.s"] = (sum(r[1] * f for r, f in rows) / k, "s")
        metrics[f"{name}.self_s"] = (sum(r[2] * f for r, f in rows) / k, "s")
    for counter, unit in COUNTERS.items():
        metrics[counter] = (sum(p["spans"]["counters"][counter] for p in traced) / k, unit)
    iterations = 0
    for rec in result["records"]:
        for line in (rec["outputs"][0] if rec["outputs"] else "").splitlines():
            if line.startswith("TARSKI-ITERATIONS "):
                iterations += sum(int(f.split("=")[1]) for f in line.split()[1:])
    metrics["games.tarski_iterations"] = (iterations, "count")
    traced_wall = statistics.median(p["wall"] for p in traced)
    plain_wall = statistics.median(p["wall"] for p in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, [f"traced passes {k}, untraced passes {len(plain)}, "
                     f"untraced wall {plain_wall:.3f} s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="latgames benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latgames" / "cli.py").is_file():
        print(f"perfbench: no latgames sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        setups, digests = [], set()
        for k in range(SETUP_REPEATS):
            last = k == SETUP_REPEATS - 1
            setup_s, result = run_worker(args, tmp / f"docs{k}", tmp / f"out{k}.json",
                                         setup_only=not last, deadline=deadline)
            setups.append(setup_s)
            digests.add(result["digest"])
        if len(digests) != 1:
            raise SystemExit("perfbench: the same seed produced different documents")
        attempted, failed, wrong, notes = check_outputs(result, tmp / f"docs{SETUP_REPEATS - 1}")
        if args.trace:
            metrics, info = per_layer(result)
        else:
            metrics, info = end_to_end(result, setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for rec in result["records"]:
        times = untraced_times(rec, result["passes"])
        if times:
            print(f"command {rec['id']} median_s {statistics.median(times):.6f} "
                  f"passes {len(times)}")
    for line in notes[:20] + info:
        print(line)
    print(f"wrong_verdicts {wrong} count")
    print(f"failed_share {failed / attempted:.6f} ratio ({failed} of {attempted})")
    print(f"workload {args.workload} seed {args.seed} closed loop, 1 client, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(json.dumps({
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
