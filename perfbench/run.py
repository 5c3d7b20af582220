"""End-to-end benchmark of the RSPQ engines.

Run from the repository root::

    python3 perfbench/run.py --workload live-rw --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes a Chrome trace and a per-layer table under
``perfbench/out/``.  ``--repeat K`` runs the workload K times (seeds
``seed .. seed+K-1``, one process each) and prints each metric's median,
quartiles, minimum and maximum.

Each run happens in a child process; this process waits for it and then
for every process it started, so none outlives the command.

Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NoReturn, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: ``PR_SET_CHILD_SUBREAPER`` from ``<linux/prctl.h>``
PR_SET_CHILD_SUBREAPER = 36
#: how long a finished run's leftover processes get to end by themselves
REAP_GRACE_S = 10.0
#: a run still going this long after its timed phase should have ended
#: is killed (the whole command must end within 180 s)
RUN_MARGIN_S = 135.0


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(trace)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        outcome = WORKLOADS[workload](seed, seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = outcome.tally
    for violation in tally.violations[:20]:
        print("violation:", violation, file=sys.stderr)
    end_to_end = tally.end_to_end(outcome.setup_times, outcome.peak_rss_mb)
    if trace:
        metrics = outcome.layers.metrics(tally.rounds)
        stem = f"{workload}-seed{seed}"
        tracer.write(OUT / f"trace-{stem}.json", OUT / f"layers-{stem}.txt", {**end_to_end, **metrics})
    else:
        metrics = end_to_end
    return {
        "correct": not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux), so
    that it can wait for them.  The ``multiprocessing`` resource tracker,
    which the pool's first shared-memory segment starts, outlives the run
    process by design; without this it would end up under init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap(group: int) -> None:
    """Wait for every child left, killing ``group`` if they linger."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = float("inf")
        time.sleep(0.01)


def stop(child: subprocess.Popen) -> None:
    """Stop a run that is still going: SIGINT first, so that it unwinds,
    closes its pool and unlinks its shared memory, then SIGKILL to its
    whole group.  A killed run cannot unlink its segments (named
    ``rshm-<pid>-...`` after the exporting process), so they are removed
    here."""
    child.send_signal(signal.SIGINT)
    try:
        child.wait(timeout=REAP_GRACE_S)
        return
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    for segment in Path("/dev/shm").glob(f"rshm-{child.pid}-*"):
        segment.unlink(missing_ok=True)


def terminate(signum: int, frame: object) -> NoReturn:
    """On SIGTERM, unwind, so that the run in the child is stopped too."""
    raise SystemExit(128 + signum)


def supervise(args: argparse.Namespace) -> int:
    """Run one benchmark run in a child process of its own process group
    and return its exit status once every process it started has ended."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    become_subreaper()
    signal.signal(signal.SIGTERM, terminate)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--in-child",
    ]
    child: Optional[subprocess.Popen] = None
    try:
        child = subprocess.Popen(command, start_new_session=True)
        return child.wait(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run did not end within {args.seconds + RUN_MARGIN_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        if child is not None:
            if child.poll() is None:
                stop(child)
            reap(child.pid)


def repeat(args: argparse.Namespace) -> int:
    """Run the workload ``args.repeat`` times and summarise each metric."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    ok = True
    for k in range(args.repeat):
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed + k),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"run {k} (seed {args.seed + k}) exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"] and not result["failed"]
        print(f"seed {args.seed + k}: " + json.dumps(result), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(float(entry["value"]))
            units[name] = entry["unit"]
    print(f"{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}{'iqr/med':>9}  unit")
    summary = {}
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "min": min(series), "max": max(series)}
        print(
            f"{name:<30}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{min(series):>12.5g}"
            f"{max(series):>12.5g}{spread:>9.3f}  {units[name]}"
        )
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "all_correct": ok, "summary": summary}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["pool-templates", "live-rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run K times and summarise")
    parser.add_argument("--in-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeat:
        return repeat(args)
    if not args.in_child:
        return supervise(args)
    print(json.dumps(run_once(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
