"""One workload in one fresh process: a closed loop with a single client.

    python3 perfbench/worker.py --workload records --seed 1 --seconds 40 --trace 0 --workdir DIR
    python3 perfbench/worker.py --workload records --seed 1 --probe --workdir DIR

The next job starts only when the previous one has finished.  A job's clock
covers its atisys calls and stops before its oracle checks run; inputs are
generated between jobs, outside every clock.  BLAS and OpenMP are pinned to
one thread before numpy is first imported.  The worker prints one JSON
document on its last stdout line; ``run.py`` turns it into the report.

``--probe`` only measures set-up: the import of atisys (and atisys.cli for
the cli workload) plus one warm-up job.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

WORKLOADS = ("records", "kernels", "cli")
IMPORT_PROBES = 5


def timed_import(workload):
    """Seconds to import atisys (and atisys.cli for the cli workload) in this fresh process."""
    start = time.perf_counter()
    import atisys  # noqa: F401

    if workload == "cli":
        import atisys.cli  # noqa: F401
    return time.perf_counter() - start


def workload_module(workload):
    """The workload's module; importing it after atisys keeps it out of the timed import."""
    return importlib.import_module(f"wl_{workload}")


def rng_for(seed, workload, stream):
    import numpy as np

    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def warm_up(workload, seed, workdir):
    """Seconds of one untimed-for-metrics job, run so lazy set-up finishes first."""
    if workload == "cli":
        return 0.0
    import spans

    module = workload_module(workload)
    job = module.warm_job(rng_for(seed, workload, 1), workdir)
    start = time.perf_counter()
    module.run(job, spans.Untraced())
    return time.perf_counter() - start


class Loop:
    """Runs jobs one after another and keeps latencies, failures and counts."""

    def __init__(self, module, layer, label):
        self.module = module
        self.label = label
        self.layer = layer
        self.latencies = []
        self.failures = []  # (job id, failed check names)
        self.job_ids = []
        self.block_rates = []  # passed jobs per second of job time, per block
        self.block_medians = []  # median job latency, per block

    def run_block(self, block):
        first, failures, wall = len(self.latencies), len(self.failures), self.wall
        for job in block:
            self.run(job)
        failed = {job for job, _ in self.failures[failures:]}
        latencies = self.effective_latencies()[first:]
        self.block_rates.append((len(latencies) - len(failed)) / (self.wall - wall))
        self.block_medians.append(statistics.median(latencies))

    def effective_latencies(self):
        """Latencies with each failed job counted as infinitely slow: it misses every limit."""
        failed = {job for job, _ in self.failures}
        return [float("inf") if job in failed else v for job, v in zip(self.job_ids, self.latencies)]

    def run(self, job):
        index = len(self.latencies)
        self.layer.job = f"{self.label}/{index}"
        self.job_ids.append(self.layer.job)
        start = time.perf_counter()
        try:
            out = self.module.run(job, self.layer)
        except Exception as exc:  # an atisys error fails the job, not the run
            out = None
            bad = [f"raised {type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - start
        if out is not None:
            try:
                bad = self.module.check(job, out)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if self.layer.tracing and hasattr(self.module, "counts"):
                self.layer.add_counts(self.module.counts(job, out))
        self.latencies.append(latency)
        if bad:
            self.failures.append((self.layer.job, bad))

    @property
    def wall(self):
        return sum(self.latencies)


def tail_percentile(n):
    """Highest whole percentile leaving at least 10 jobs beyond it, at most 90."""
    return max(0, min(90, (100 * (n - 10)) // n)) if n > 10 else 0


def nearest_rank(sorted_values, pct):
    k = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[k - 1]


def end_to_end(workload, loop):
    n = len(loop.latencies)
    failed = len(loop.failures)
    pct = tail_percentile(n)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "jobs": n,
        "blocks": len(loop.block_rates),
        "failed": failed,
        "failures": loop.failures[:20],
        "tail_percentile": pct,
        "wall_s": loop.wall,
        "metrics": {
            # every block has the same mix, so medians over blocks estimate the
            # run's rate and median latency while a slow stretch of a shared
            # machine moves them less than a pooled figure
            "jobs_per_s": (statistics.median(loop.block_rates), "1/s"),
            "job_p50_ms": (1000 * statistics.median(loop.block_medians), "ms"),
            "job_tail_ms": (1000 * nearest_rank(sorted(loop.effective_latencies()), pct), "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
            "failed_ratio": (failed / n, "ratio"),
        },
    }


def untraced_run(workload, seed, seconds, workdir):
    """A fixed number of blocks, sized so the job time is about ``seconds``.

    The job list depends only on the seed and ``seconds``, never on how fast
    the program runs, so the tail percentile and the mix are the same for
    every commit.
    """
    import spans

    module = workload_module(workload)
    warm_up(workload, seed, workdir)
    loop = Loop(module, spans.Untraced(), workload)
    blocks = module.blocks(rng_for(seed, workload, 0), workdir)
    for _ in range(max(3, round(seconds / module.BLOCK_SECONDS))):
        block = next(blocks)
        # keep the generated inputs out of the collector's scans during the jobs
        gc.collect()
        gc.freeze()
        loop.run_block(block)
        gc.unfreeze()
    return end_to_end(workload, loop)


def traced_run(workload, seed, workdir, spans_path):
    """Per-layer report over a fixed job list of the main workload.

    Each job runs once untraced and once traced, then once more under the
    memory probe, so the counts repeat exactly for a seed and the traced and
    untraced wall times give the overhead.  One traced block of each other
    workload lets every traced run report every layer.
    """
    import spans
    import wl_cli

    tracer = spans.Tracer()
    memory = spans.MemoryProbe()
    warm_up(workload, seed, workdir)
    metrics = {}
    loops = []
    import_samples = []
    for name in WORKLOADS:
        module = workload_module(name)
        main = name == workload
        blocks = module.blocks(rng_for(seed, name, 0), workdir)
        jobs = [job for _ in range(module.TRACE_BLOCKS if main else 1) for job in next(blocks)]
        traced = Loop(module, tracer, f"{name}/traced")
        loops.append(traced)
        if main:
            # pairs in alternating order, so drift and warm caches favour neither side
            plain = Loop(module, spans.Untraced(), f"{name}/untraced")
            loops.append(plain)
            for i, job in enumerate(jobs):
                for loop in (plain, traced) if i % 2 == 0 else (traced, plain):
                    loop.run(job)
        else:
            for job in jobs:
                traced.run(job)
        if name == "records":  # the only workload that calls the float path in-process
            probed = Loop(module, memory, f"{name}/memory")
            loops.append(probed)
            for job in jobs:
                probed.run(job)
        if main:
            busy = tracer.busy_s(set(traced.job_ids))
            metrics["trace.overhead_ratio"] = (traced.wall / plain.wall, "ratio")
            metrics["trace.busy_share"] = (busy / traced.wall, "ratio")
        if name == "cli":
            import_samples = [wl_cli.import_seconds() for _ in range(IMPORT_PROBES if main else 3)]
    metrics.update(tracer.layer_metrics(memory.peaks))
    metrics["cli.import_s"] = (statistics.median(import_samples), "s")
    by_command = {}
    for name, _, start, end, _ in tracer.spans:
        by_command.setdefault(name, []).append(end - start)
    for command in wl_cli.SUBCOMMANDS:
        metrics[f"cli.{command}.p50_ms"] = (1000 * statistics.median(by_command[f"cli.{command}"]), "ms")
    failures = [f for loop in loops for f in loop.failures]
    tracer.dump(spans_path)
    return {
        "jobs": sum(len(loop.latencies) for loop in loops),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
    }


def machine():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", help="file for the traced run's spans, one JSON line each")
    args = parser.parse_args(argv)

    import_s = timed_import(args.workload)
    os.makedirs(args.workdir, exist_ok=True)
    if args.probe:
        doc = {"setup_s": import_s + warm_up(args.workload, args.seed, args.workdir)}
    elif args.trace:
        doc = traced_run(args.workload, args.seed, args.workdir, args.spans)
    else:
        doc = untraced_run(args.workload, args.seed, args.seconds, args.workdir)
    doc["machine"] = machine()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
