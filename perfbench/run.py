"""The atisys benchmark: three closed-loop workloads, every output oracle-checked.

    python3 perfbench/run.py                                  # all workloads, seed 1
    python3 perfbench/run.py --workload records --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload kernels --seed 3 --trace 1

Run it from a checkout that holds ``src/atisys``; it needs numpy, scipy and
jsonschema, and builds nothing.  Each workload runs in its own fresh worker
process (``worker.py``) with BLAS and OpenMP pinned to one thread, one job
at a time.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over fresh processes, of importing atisys (and atisys.cli for ``cli``) plus
one warm-up job.  ``--trace 1`` is the separate traced run: it reports
calls, busy time and failures per atisys function, allocation peaks on the
float path, size counts, CLI timings and the tracing overhead, and writes
the spans to ``.perfbench_out/``.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and which layer moves which metric.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("records", "kernels", "cli")
END_TO_END = ("jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb", "setup_s")
SETUP_PROBES = 7
DEADLINE_S = 170  # each workload's run must end within 180 s, children included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, deadline):
    """Run a Python child in its own session; on timeout kill its whole group."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{argv[:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[:3]} exited with code {proc.returncode}")
    return out


def worker(workload, seed, workdir, deadline, *extra):
    out = run_child(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--workdir", str(workdir), *extra],
        deadline,
    )
    return json.loads(out.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, deadline):
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    try:
        # compile bytecode once, so that no timed import pays for it
        run_child(["-c", "import atisys.cli"], deadline)
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans_{workload}_seed{seed}.jsonl"
            doc = worker(workload, seed, workdir, deadline, "--trace", "1", "--spans", str(spans))
            doc["spans_file"] = str(spans.relative_to(ROOT))
            return doc
        setups = [
            worker(workload, seed, workdir, deadline, "--probe")["setup_s"] for _ in range(SETUP_PROBES)
        ]
        doc = worker(workload, seed, workdir, deadline, "--seconds", str(seconds), "--trace", "0")
        doc["metrics"]["setup_s"] = (statistics.median(setups), "s")
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload, seed, doc, trace):
    """Human-readable lines for one workload; returns its metrics for the JSON line."""
    print(f"[{workload}] seed {seed}  machine {json.dumps(doc['machine'], sort_keys=True)}")
    metrics = doc["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name:<60} {value:>16.6g} {unit}")
    if trace:
        print(f"[{workload}] spans written to {doc['spans_file']}")
        chosen = dict(metrics)
    else:
        print(
            f"[{workload}] job_tail_ms is p{doc['tail_percentile']} over {doc['jobs']} jobs; "
            f"jobs_per_s is the median over {doc['blocks']} blocks; {doc['wall_s']:.2f} s of job time"
        )
        chosen = {name: metrics[name] for name in END_TO_END}
    print(f"[{workload}] failed {doc['failed']} of {doc['jobs']} jobs")
    for job, checks in doc["failures"]:
        print(f"[{workload}]   job {job}: {', '.join(checks)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="job time per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "atisys" / "__init__.py").is_file():
        print(f"error: no atisys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        doc = measure(workload, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
        attempted += doc["jobs"]
        failed += doc["failed"]
        chosen = report(workload, args.seed, doc, args.trace)
        prefix = "" if args.workload else f"{workload}."
        metrics.update({prefix + name: value for name, value in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
