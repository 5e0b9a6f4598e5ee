"""Span recorder for traced benchmark runs.

Spans are recorded from outside the program: ``install`` rebinds each wrapped
qacm function in every ``qacm`` module namespace that holds it (``from
.linalg import rank`` binds ``rank`` separately in ``plane``, ``quadric`` and
``mf``), so every call goes through the wrapper.  A span is a list
``[id, parent_id, name, start, end, extra]`` kept in memory; the child writes
the list out once when the run ends, and ``aggregate`` turns it into the
per-layer metrics.  Span id 0 is the ``cli.main`` call itself.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); "Class.method" attributes wrap the method.
WRAPPED = (
    ("qacm.linalg", "rank", "linalg.rank"),
    ("qacm.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("qacm.linalg", "RatMatrix.__matmul__", "linalg.matmul"),
    ("qacm.monomials", "multiplication_matrix", "monomials.multiplication_matrix"),
    ("qacm.plane", "relation_h2_matrix", "plane.relation_h2_matrix"),
    ("qacm.plane", "relation_h0_matrix", "plane.relation_h0_matrix"),
    ("qacm.plane", "_auto_extension_form", "plane._auto_extension_form"),
    ("qacm.plane", "no_common_zero", "plane.no_common_zero"),
    ("qacm.plane", "trivialize_on_line", "plane.trivialize_on_line"),
    ("qacm.plane", "recover_subscheme", "plane.recover_subscheme"),
    ("qacm.plane", "h1_restriction_kernel_dim", "plane.h1_restriction_kernel_dim"),
    ("qacm.quadric", "_h1_kernel_of_line_map_full", "quadric._h1_kernel_of_line_map_full"),
    ("qacm.quadric", "_assembled_matrix", "quadric._assembled_matrix"),
    ("qacm.quadric", "acm_check", "quadric.acm_check"),
    ("qacm.quadric", "ulrich_check", "quadric.ulrich_check"),
    ("qacm.mf", "cokernel_hilbert", "mf.cokernel_hilbert"),
    ("qacm.descriptor", "parse_and_build", "descriptor.parse_and_build"),
    ("qacm.cli", "_emit", "cli._emit"),
)
SPAN_NAMES = tuple(name for _, _, name in WRAPPED)

# Spans that carry the (rows * cols, nonzeros) of their matrix argument.
MATRIX_SPANS = ("linalg.rank", "linalg.kernel_basis")
# Spans that carry the index of their distinct (sheaf, t) argument key.
KEYED_SPANS = ("plane.relation_h2_matrix",)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.keys = {}
        self.missing = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keys = self.keys if name in KEYED_SPANS else None
        shaped = name in MATRIX_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = None
            if keys is not None:
                extra = keys.setdefault(args[:2], len(keys))
            elif shaped:
                extra = [_entries(args[0]), None]
            rec = [len(spans) + 1, stack[-1], name, 0.0, 0.0, extra]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return wrapper

    def _count_nonzeros(self, int_rows):
        """Wrap ``linalg._int_rows`` (the sparse rows that rank and
        kernel_basis eliminate) to fill the nonzero count of the open span."""
        spans, stack = self.spans, self.stack

        @functools.wraps(int_rows)
        def wrapper(m):
            rows = int_rows(m)
            sid = stack[-1]
            if sid and spans[sid - 1][2] in MATRIX_SPANS:
                spans[sid - 1][5][1] = sum(map(len, rows))
            return rows

        return wrapper

    def install(self):
        """Rebind every wrapped function in every loaded qacm module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "qacm" or n.startswith("qacm."))]
        for modname, attr, name in WRAPPED:
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            _rebind(modules, fn, self.wrap(name, fn))
        int_rows = getattr(sys.modules.get("qacm.linalg"), "_int_rows", None)
        if int_rows is not None:
            _rebind(modules, int_rows, self._count_nonzeros(int_rows))


def _entries(m) -> int:
    """rows * cols of a matrix argument, or 0 for a type without them."""
    try:
        return m.rows * m.cols
    except (AttributeError, TypeError):
        return 0


def _rebind(modules, old, new):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def aggregate(spans, main_wall, distinct_keys):
    """Per-layer metrics from recorded spans.  ``main_wall`` is the wall time
    of the traced ``cli.main`` call (span 0)."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    total_s = dict.fromkeys(SPAN_NAMES, 0.0)
    entries = dict.fromkeys(MATRIX_SPANS, 0)
    nnz = dict.fromkeys(MATRIX_SPANS, 0)
    name_of = {0: "cli.main"}
    path = {0: ()}            # span names strictly above each span
    covered = {}              # time covered by each span's direct children
    top_level = 0.0
    rank_in_kernel = 0
    searches_nested = 0       # no_common_zero calls under _auto_extension_form
    for sid, parent, name, start, end, extra in spans:
        dur = end - start
        name_of[sid] = name
        above = path[parent] + (name_of[parent],)
        path[sid] = above
        covered[parent] = covered.get(parent, 0.0) + dur
        calls[name] += 1
        if name not in above:
            total_s[name] += dur
        if parent == 0:
            top_level += dur
        if name in MATRIX_SPANS:
            entries[name] += extra[0]
            nnz[name] += extra[1] or 0
        if name == "linalg.rank" and name_of[parent] == "linalg.kernel_basis":
            rank_in_kernel += 1
        if name == "plane.no_common_zero" and "plane._auto_extension_form" in above:
            searches_nested += 1
    for sid, _, name, start, end, _ in spans:
        self_s[name] += (end - start) - covered.get(sid, 0.0)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.total_s"] = total_s[name]
    for name in MATRIX_SPANS:
        metrics[f"{name}.entries"] = entries[name]
        metrics[f"{name}.nnz"] = nnz[name]
    metrics["linalg.rank.in_kernel_basis.calls"] = rank_in_kernel
    h2_calls = calls["plane.relation_h2_matrix"]
    metrics["plane.relation_h2_matrix.distinct_ratio"] = (
        distinct_keys / h2_calls if h2_calls else 0.0)
    searches = calls["plane._auto_extension_form"]
    metrics["plane._auto_extension_form.yield"] = (
        searches / searches_nested if searches_nested else 0.0)
    metrics["trace.coverage"] = top_level / main_wall if main_wall > 0 else 0.0
    return metrics
