"""Outside-in layer tracer for hhext.

The tracer never edits hhext.  It replaces functions from outside: every
hhext module attribute bound to a traced function (the defining module,
modules that bound it with ``from ... import``, and modules that re-import
it at call time, which read the defining module) is swapped for a wrapper.
Three methods are wrapped on their classes.  A wrapper records a span
(layer, start, end, parent) or bumps a counter; spans stay in memory and
are summarized when the run ends.

Run as a script, this traces one in-process ``hhext.cli.main(argv)`` call:

    PYTHONPATH=src python3 perfbench/tracing.py ring --n 3 --deg-max 2 \\
        --format json --no-timestamp

The report goes to stdout exactly as the untraced CLI writes it.  The last
line on stderr is ``PERFBENCH_TRACE <json>`` with the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

TRACE_PREFIX = "PERFBENCH_TRACE "

_FORMULAS = ("binomial_sum_identity", "chain_rank_closed_form",
             "chain_rank_double_sum", "cochain_rank_closed_form",
             "cochain_rank_double_sum", "hc_dim_formula", "hh_dim_formula",
             "hhc_dim_formula", "hilbert_coeffs")
_RESOLUTION = ("observed_coefficients", "verify_left_right",
               "verify_generator_space_dim",
               "verify_relation_window_membership",
               "verify_delta_squared_zero")

# (defining module, function or Class.method, self-time metric)
SPANS = (
    ("hhext.complexes", "chain_matrix", "complexes.build_s"),
    ("hhext.complexes", "cochain_matrix", "complexes.build_s"),
    ("hhext.complexes", "bar_chain_matrix", "complexes.bar_s"),
    ("hhext.complexes", "bar_cochain_matrix", "complexes.bar_s"),
    ("hhext.complexes", "bar_oracle_dims", "complexes.oracle_s"),
    ("hhext.exactla", "rank", "exactla.rank_s"),
    ("hhext.exactla", "SparseMatrix.__init__", "exactla.matrix_init_s"),
    ("hhext.exactla", "SparseMatrix.matmul", "exactla.matmul_s"),
    ("hhext.exactla", "SpanBasis.insert", "exactla.span_insert_s"),
    ("hhext.ring", "verify_associativity", "ring.associativity_s"),
    ("hhext.ring", "verify_graded_commutativity", "ring.commutativity_s"),
    ("hhext.ring", "verify_unital", "ring.unital_s"),
    ("hhext.ring", "verify_ring_relations", "ring.relations_s"),
    ("hhext.ring", "classes_equal", "ring.classes_equal_s"),
    ("hhext.ring", "_image_span", "ring.image_span_s"),
    ("hhext.ring", "cup", "ring.cup_s"),
    ("hhext.ring", "cohomology_basis", "ring.basis_s"),
    ("hhext.ring", "verify_cohomology_basis", "ring.basis_s"),
    ("hhext.ring", "presentation_audit", "ring.presentation_s"),
    *(("hhext.resolution", name, "resolution.s") for name in _RESOLUTION),
    *(("hhext.formulas", name, "formulas.s") for name in _FORMULAS),
    ("hhext.cli", "_build_report", "cli.report_s"),
    ("hhext.cli", "_emit", "cli.report_s"),
)

# (defining module, function, counter): too cheap per call for a span
COUNTERS = (
    ("hhext.exterior", "signed_append", "exterior.signed_append_calls"),
    ("hhext.exterior", "merge_signed", "exterior.merge_signed_calls"),
)

# counts of real (not cached) builds: (builds, columns, nonzeros)
BUILD_COUNTS = {
    "complexes.build_s": ("complexes.build_calls", "complexes.cols",
                          "complexes.nnz"),
    "complexes.bar_s": ("complexes.bar_calls", "complexes.bar_cols",
                        "complexes.bar_nnz"),
}

# call counts taken from the number of spans of a metric
CALL_COUNTS = {
    "exactla.rank_calls": "exactla.rank_s",
    "exactla.span_insert_calls": "exactla.span_insert_s",
    "ring.classes_equal_calls": "ring.classes_equal_s",
    "ring.cup_calls": "ring.cup_s",
}


def self_times(spans):
    """Self time per layer: each span's duration minus the part of its
    interval that its child spans cover.

    ``spans`` is a list of (layer, start, end, parent index or -1).
    """
    children = defaultdict(list)
    for layer, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (layer, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[layer] += (end - start) - covered
    return dict(out)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._seen_builds = set()

    def _span(self, layer, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observer(self, metric):
        counts = self.counts
        if metric in BUILD_COUNTS:
            calls, cols, nnz = BUILD_COUNTS[metric]
            seen = self._seen_builds

            def built(args, result):
                # cached: a hit returns an object seen before
                if id(result) in seen:
                    return
                seen.add(id(result))
                matrix = getattr(result, "matrix", result)
                counts[calls] += 1
                counts[cols] += matrix.cols
                counts[nnz] += matrix.nnz()
            return built
        if metric == "exactla.rank_s":
            def ranked(args, result):
                matrix = args[0]
                counts["exactla.rank_nnz_in"] += matrix.nnz()
                counts["rank.sum"] += result
                counts["rank.cap"] += min(matrix.rows, matrix.cols)
            return ranked
        if metric == "exactla.span_insert_s":
            def inserted(args, result):
                counts["span_insert.accepted"] += bool(result)
            return inserted
        if metric == "cli.report_s":
            def reported(args, result):
                if isinstance(result, dict):
                    counts["cli.records"] += len(result["records"])
            return reported
        return None

    def install(self):
        """Wrap every traced hhext function and method; return the lru
        caches of hhext, found before any of them is wrapped."""
        import hhext.cli  # noqa: F401  (loads every hhext module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hhext" or name.startswith("hhext.")]
        caches = {id(v): v for m in modules for v in vars(m).values()
                  if hasattr(v, "cache_info")}
        for mod, name, metric in SPANS:
            self._replace(modules, mod, name, lambda fn, metric=metric:
                          self._span(metric, fn, self._observer(metric)))
        for mod, name, counter in COUNTERS:
            self._replace(modules, mod, name, lambda fn, counter=counter:
                          self._counter(counter, fn))
        return list(caches.values())

    @staticmethod
    def _replace(modules, mod_name, name, make):
        # A function that a refactor removed or renamed is skipped, so the
        # traced run still works and its layer reads 0 until the table here
        # is updated.
        owner = sys.modules.get(mod_name)
        cls_name, _, meth = name.rpartition(".")
        holder = getattr(owner, cls_name, None) if cls_name else owner
        original = getattr(holder, meth, None)
        if original is None:
            print(f"tracing: {mod_name}.{name} not found, not traced",
                  file=sys.stderr)
            return
        wrapper = make(original)
        if cls_name:
            setattr(holder, meth, wrapper)
            return
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def metrics(self, wall_s, caches):
        """Per-layer metrics of the run; self times plus ``trace.unspanned_s``
        sum to ``wall_s``."""
        counts = self.counts
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        for layer, *_ in self.spans:
            calls[layer] += 1
        out = {metric: selfs.get(metric, 0.0)
               for _, _, metric in SPANS}
        out.update({name: counts[name] for _, _, name in COUNTERS})
        out.update({name: calls[layer] for name, layer in CALL_COUNTS.items()})
        for name in ("complexes.build_calls", "complexes.cols",
                     "complexes.nnz", "complexes.bar_cols",
                     "complexes.bar_nnz", "exactla.rank_nnz_in",
                     "cli.records"):
            out[name] = counts[name]
        out["exactla.rank_yield"] = (counts["rank.sum"] / counts["rank.cap"]
                                     if counts["rank.cap"] else 0.0)
        inserts = calls["exactla.span_insert_s"]
        out["exactla.span_insert_yield"] = (
            counts["span_insert.accepted"] / inserts if inserts else 0.0)
        out["cache.entries"] = sum(c.cache_info().currsize for c in caches)
        out["trace.wall_s"] = wall_s
        out["trace.unspanned_s"] = wall_s - sum(selfs.values())
        return out


def main(argv):
    tracer = Tracer()
    caches = tracer.install()
    import hhext.cli

    start = time.perf_counter()
    code = hhext.cli.main(argv)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    metrics = tracer.metrics(wall, caches)
    sys.stderr.write(TRACE_PREFIX + json.dumps(metrics, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
