"""One benchmark operation: run one experiment config in this interpreter.

Usage (started by run.py, one fresh interpreter per op):

    python -I op.py SRC_DIR CONFIG OUT_CSV RESULT_JSON TRACE T_SPAWN

SRC_DIR holds the `sigpath` package. T_SPAWN is the parent's
`time.monotonic()` just before it started this interpreter; the set-up time is
measured from there to `sigpath` imported and CONFIG parsed. OUT_CSV "-" makes
a set-up probe that stops after parsing. With TRACE 1 the public functions
bound in `sigpath.experiments` and `sigpath.regress` are wrapped and every
call is recorded as a span with its work counts, taken from array shapes at
the call boundary. The result (exit code, set-up time, peak RSS, spans) is
written to RESULT_JSON.
"""

import importlib
import inspect
import json
import math
import resource
import sys
import time


def _paths(values):
    """Number of paths in a (..., points, dim) batch."""
    return math.prod(values.shape[:-2])


def _sample_counts(args, result):
    paths, per_path = result.shape[0], result.shape[1]
    return {"paths": paths, "points_per_path": per_path}


def _stream_counts(args, result):
    values = args["values"]
    paths, n_pts = _paths(values), values.shape[-2]
    return {
        "points_per_path": n_pts,
        "chen_products": paths * (n_pts - 1),
        "rows_total": paths * n_pts,
        "rows_kept": paths * result.shape[-2],
        "out_bytes": result.size * result.itemsize,
    }


def _features_counts(args, result):
    return {
        "points_per_path": args["values"].shape[-2],
        "bytes": result.matrix.size * result.matrix.itemsize,
    }


def _fit_counts(args, result):
    return {"calls": 1, "rank_deficient": int(result.rank_deficient)}


def _ode_counts(args, result):
    raw = args["raw_values"]
    paths, n_pts = _paths(raw), raw.shape[-2]
    return {
        "points_per_path": n_pts,
        "rk4_steps": paths * (n_pts - 1) * int(args["substeps"]),
        "excluded": int(result[1].sum()),
    }


def _holder_counts(args, result):
    values = args["values"]
    paths, grid = _paths(values), values.shape[-2]
    return {"points_per_path": grid, "pairs": paths * grid * (grid - 1) // 2}


# (module attribute, span name, counter or None) for every wrapped binding
_WRAPPED = {
    "sigpath.experiments": [
        ("sample_brownian_batch", "stochastic.sample", _sample_counts),
        ("stream_table", "signature.stream", _stream_counts),
        ("features_from_values", "regress.features", _features_counts),
        ("fit", "regress.fit", _fit_counts),
        ("solve_ode_batch", "stochastic.ode", _ode_counts),
        ("max_increment_ratio", "paths.holder", _holder_counts),
        ("write_rows", "experiments.write", None),
    ],
    "sigpath.regress": [
        ("stream_table", "signature.stream", _stream_counts),
    ],
}


class Recorder:
    """In-memory spans: name, start, end, parent index and work counts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def run(self, name, fn, args, kwargs):
        """Call fn inside a span; returns (result, span)."""
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs), span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            result, span = self.run(name, fn, args, kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def install(self):
        for module_name, targets in _WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, name, counter in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr), counter))


def main(argv):
    src, config, out, result_path, trace, t_spawn = argv
    sys.path.insert(0, src)
    from sigpath import cli
    from sigpath.experiments import ExperimentConfig

    with open(config, encoding="utf-8") as fh:
        ExperimentConfig.from_dict(json.load(fh))
    setup_s = time.monotonic() - float(t_spawn)

    result = {"setup_s": setup_s}
    if out != "-":
        run_argv = ["run", "--config", config, "--out", out]
        if trace == "1":
            recorder = Recorder()
            recorder.install()
            result["rc"], _ = recorder.run("experiments.driver", cli.main, (run_argv,), {})
            result["spans"] = recorder.spans
        else:
            result["rc"] = cli.main(run_argv)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
