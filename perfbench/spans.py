"""Spans around the benchmark's calls into atisys.

A workload calls every atisys function through ``layer.call(name, fn, ...)``.
The untraced layer forwards the call and nothing else; the tracer records a
span (name, job, start, end, failed).  Spans sit only at the benchmark's own
call sites and none nest, so a span's self time is its duration.  Spans stay
in memory until the run ends.

tracemalloc slows every allocation it sees, so the allocation peaks of the
float-path functions come from a second pass over the same jobs with
:class:`MemoryProbe`, and the span times stay free of its cost.
"""

from __future__ import annotations

import json
import time
import tracemalloc

# every atisys function a workload calls, as <module>.<function>
LAYERS = (
    "trajectories.hankel",
    "trajectories.numerical_rank",
    "excitation.max_pe_order",
    "excitation.gape_report",
    "affine_ss.simulate",
    "affine_ss.controllable",
    "plants.linearize",
    "io_formats.read_trajectory_csv",
    "datadriven.invariants_from_data",
    "datadriven.DataDrivenRep",
    "datadriven.recover_kernel_svd",
    "datadriven.recover_kernel_exact",
    "datadriven.membership",
    "datadriven.complete",
    "kernelrep.behavior_apply",
    "kernelrep.consistent_constant",
    "kernelrep.syzygy_basis",
    "kernelrep.minimize",
    "kernelrep.equivalent",
    "kernelrep.lag_of",
    "kernelrep.controllable_kernel",
    "kernelrep.consistent_sequence_report",
    "polymatrix.smith_form",
    "polymatrix.is_unimodular",
)

# float-path functions whose allocation peak is recorded
FLOAT_PATH = (
    "trajectories.hankel",
    "datadriven.invariants_from_data",
    "datadriven.recover_kernel_svd",
    "datadriven.membership",
    "datadriven.complete",
    "kernelrep.behavior_apply",
)

# counts derived from the inputs and outputs, identical for identical job sets;
# the first sums over the run, the others keep the largest value seen
SUMMED_COUNTS = (
    "trajectories.hankel.bytes_computed",
    "kernelrep.consistent_sequence_report.toeplitz_cells",
    "kernelrep.consistent_sequence_report.degree_excess",
)
MAX_COUNTS = (
    "polymatrix.smith_form.max_coeff_bits",
    "datadriven.recover_kernel_exact.max_coeff_bits",
)


class Untraced:
    """Forwards every call; used for the end-to-end runs."""

    tracing = False
    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class MemoryProbe:
    """Keeps the largest tracemalloc peak of each float-path function."""

    tracing = False
    job = None

    def __init__(self):
        self.peaks = dict.fromkeys(FLOAT_PATH, 0)

    def call(self, name, fn, *args, **kwargs):
        if name not in FLOAT_PATH:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


class Tracer:
    """Records one span per call and accumulates the run's counts."""

    tracing = True

    def __init__(self):
        self.job = None
        self.spans = []
        self.counts = dict.fromkeys(SUMMED_COUNTS + MAX_COUNTS, 0)

    def call(self, name, fn, *args, **kwargs):
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self.spans.append((name, self.job, start, time.perf_counter(), failed))

    def add_counts(self, counts):
        for key, value in counts.items():
            if key in MAX_COUNTS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def dump(self, path):
        """Write every span as one JSON line: name, job, start, end, failed."""
        with open(path, "w") as fh:
            for name, job, start, end, failed in self.spans:
                fh.write(json.dumps({"name": name, "job": job, "start": start, "end": end, "failed": failed}) + "\n")

    def busy_s(self, job_ids):
        return sum(end - start for _, job, start, end, _ in self.spans if job in job_ids)

    def layer_metrics(self, peaks):
        """calls, busy_s and failed per layer, peak_alloc_mb per float-path layer."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (0, "count")
            out[f"{name}.busy_s"] = (0.0, "s")
            out[f"{name}.failed"] = (0, "count")
        for name in FLOAT_PATH:
            out[f"{name}.peak_alloc_mb"] = (peaks[name] / 2**20, "MB")
        for name, _, start, end, failed in self.spans:
            if name not in LAYERS:
                continue
            out[f"{name}.calls"] = (out[f"{name}.calls"][0] + 1, "count")
            out[f"{name}.busy_s"] = (out[f"{name}.busy_s"][0] + end - start, "s")
            out[f"{name}.failed"] = (out[f"{name}.failed"][0] + failed, "count")
        units = {"bytes_computed": "bytes", "max_coeff_bits": "bits"}
        for key, value in self.counts.items():
            out[key] = (value, units.get(key.rsplit(".", 1)[1], "count"))
        return out
