"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces the package's functions, in the module that
calls them, with wrappers that open a span on entry and close it on exit;
``uninstall`` puts the originals back.  Garbage collections become spans
of their own through ``gc.callbacks``, so no layer's self time contains
collector work.

A span's self time is its duration minus the durations of its direct
children; the self times of one op's spans add up to the op's wall time.
Self times and counters are summed as spans close.  With ``keep_spans``
the raw spans (id, name, start, end, parent, op) are also kept in memory,
in flat arrays that the collector does not scan, and ``write`` dumps them
as JSON lines at the end of the run.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _order_name(args, kwargs):
    heuristic = kwargs.get("heuristic", args[1] if len(args) > 1 else "?")
    return f"treedecomp.order.{heuristic}"


def _count_parse(c, args, program):
    c["parser.stmts"] += len(program.rules)
    c["parser.bytes"] += len(args[0].encode())


def _count_decompose(c, args, result):
    rewritten, report = result
    c["decompose.rules_emitted"] += len(rewritten.rules)
    for rule, row in zip(args[0].rules, report.rows):
        c["decompose.domain_rules"] += row.domain_rules
        if rule.body:
            c["decompose.rules"] += 1
            c["decompose.verbatim"] += row.rules_emitted == 1


def _count_build(c, args, graph):
    c["rulegraph.vertices"] += len(graph.vertices)
    c["rulegraph.edges"] += len(graph.edges)


def _count_td(c, args, td):
    c["treedecomp.bags"] += len(td.bags)


def _count_ground(c, args, ground_program):
    """Instances kept, and substitutions a pass over the active domain
    enumerates: |domain|^k per rule, k its variables bound positively."""
    from rulesplit.ast import Literal, active_domain, outer_vars, vars_of

    program = args[0]
    domain = len(active_domain(program))
    substitutions = 0
    for rule in program.rules:
        positive: set[str] = set()
        for elem in rule.body:
            if isinstance(elem, Literal) and not elem.negated:
                positive |= vars_of(elem)
        substitutions += domain ** len(positive & outer_vars(rule))
    c["oracle.instances"] += len(ground_program.rules)
    c["oracle.substitutions"] += substitutions


def _count_models(c, args, models):
    c["oracle.models"] += len(models)


# (module, attribute, span name or name function, counting hook)
SPANS = (
    ("rulesplit.cli", "run", "cli.run", None),
    ("rulesplit.cli", "parse", "parser.parse", _count_parse),
    ("rulesplit.cli", "render", "parser.render", None),
    ("rulesplit.cli", "decompose_program", "decompose.program", _count_decompose),
    ("rulesplit.parser", "parse", "parser.parse", _count_parse),
    ("rulesplit.parser", "unsafe_vars", "safety.parse", None),
    ("rulesplit.decompose", "unsafe_vars", "safety.decompose", None),
    ("rulesplit.decompose", "build", "rulegraph.build", _count_build),
    ("rulesplit.decompose", "elimination_order", _order_name, None),
    ("rulesplit.decompose", "decomposition_from_order", "treedecomp.td", _count_td),
    ("rulesplit.decompose", "ensure_head_root", "treedecomp.head_root", None),
    ("rulesplit.oracle", "equivalent", "oracle.equivalent", None),
    ("rulesplit.oracle", "grounding_size", "oracle.grounding_size", None),
    ("rulesplit.oracle", "ground", "oracle.ground", _count_ground),
    ("rulesplit.oracle", "stable_models", "oracle.stable", _count_models),
)
VARS_OF_HOLDERS = (
    "rulesplit.decompose",
    "rulesplit.oracle",
    "rulesplit.parser",
    "rulesplit.rulegraph",
    "rulesplit.safety",
)


class Tracer:
    """Spans, self times and counts of the traced passes of one run."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self.counts: dict[str, float] = defaultdict(float)
        self.vars_of_calls = [0]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.gc_collections = 0
        # the open spans, as parallel stacks of atoms: pushing them makes
        # no container the collector tracks, so tracing adds no collections
        self._ids: list[int] = []
        self._names_open: list[str] = []
        self._starts: list[float] = []
        self._child: list[float] = []
        self._next_id = 0
        self._op = -1
        self._in_gc = False
        self._names: dict[str, int] = {}
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._ids.append(self._next_id)
        self._names_open.append(name)
        self._child.append(0.0)
        self._starts.append(perf_counter())

    def exit(self) -> None:
        end = perf_counter()
        start = self._starts.pop()
        child = self._child.pop()
        name = self._names_open.pop()
        span_id = self._ids.pop()
        duration = end - start
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = 0
        if self._ids:
            self._child[-1] += duration
            parent = self._ids[-1]
        if not self.keep_spans:
            return
        name_id = self._names.setdefault(name, len(self._names))
        self._span_id.append(span_id)
        self._span_name.append(name_id)
        self._span_start.append(start)
        self._span_end.append(end)
        self._span_parent.append(parent)
        self._span_op.append(self._op)

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.enter("op")

    def end_op(self) -> None:
        self.exit()
        self._op = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            if self._ids:
                self.enter("runtime.gc")
                self._in_gc = True
        elif self._in_gc:
            self._in_gc = False
            self.gc_collections += 1
            self.exit()

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, name, hook):
        tracer = self
        counts = self.counts
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            tracer.enter(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                tracer.enter("bench.count")
                hook(counts, args, result)
                tracer.exit()
            return result

        return traced

    def _count_vars_of(self, fn):
        cell = self.vars_of_calls

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name, hook in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patch(module, attr, self._wrap(fn, name, hook))
        for module_name in VARS_OF_HOLDERS:
            module = importlib.import_module(module_name)
            fn = getattr(module, "vars_of", None)
            if fn is not None:
                self._patch(module, "vars_of", self._count_vars_of(fn))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # ----------------------------------------------------------- results

    def per_layer(self, ops: int, untraced_op_s: float, traced_op_s: float) -> dict[str, float]:
        """Per-layer metrics, times and counts as means per traced op."""
        t = self.self_time
        c = self.counts

        def per_op(value: float) -> float:
            return value / ops

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics = {
            "parser.parse_s": per_op(t["parser.parse"]),
            "parser.render_s": per_op(t["parser.render"]),
            "parser.stmts": per_op(c["parser.stmts"]),
            "parser.bytes": per_op(c["parser.bytes"]),
            "safety.unsafe_vars_s.parse": per_op(t["safety.parse"]),
            "safety.unsafe_vars_s.decompose": per_op(t["safety.decompose"]),
            "safety.calls": per_op(self.calls["safety.parse"] + self.calls["safety.decompose"]),
            "ast.vars_of_calls": per_op(self.vars_of_calls[0]),
            "rulegraph.build_s": per_op(t["rulegraph.build"]),
            "rulegraph.vertices": per_op(c["rulegraph.vertices"]),
            "rulegraph.edges": per_op(c["rulegraph.edges"]),
            "treedecomp.order_s.mcs": per_op(t["treedecomp.order.mcs"]),
            "treedecomp.order_s.mf": per_op(t["treedecomp.order.mf"]),
            "treedecomp.order_s.miw": per_op(t["treedecomp.order.miw"]),
            "treedecomp.td_s": per_op(t["treedecomp.td"]),
            "treedecomp.head_root_s": per_op(t["treedecomp.head_root"]),
            "treedecomp.bags": per_op(c["treedecomp.bags"]),
            "decompose.self_s": per_op(t["decompose.program"]),
            "decompose.rules_emitted": per_op(c["decompose.rules_emitted"]),
            "decompose.domain_rules": per_op(c["decompose.domain_rules"]),
            "decompose.pass_through_share": share(c["decompose.verbatim"], c["decompose.rules"]),
            "oracle.ground_s": per_op(t["oracle.ground"]),
            "oracle.stable_s": per_op(t["oracle.stable"]),
            "oracle.equivalent_self_s": per_op(t["oracle.equivalent"]),
            "oracle.size_self_s": per_op(t["oracle.grounding_size"]),
            "oracle.instances": per_op(c["oracle.instances"]),
            "oracle.models": per_op(c["oracle.models"]),
            "oracle.instance_yield": share(c["oracle.instances"], c["oracle.substitutions"]),
            "runtime.gc_s": per_op(t["runtime.gc"]),
            "runtime.gc_collections": per_op(self.gc_collections),
            "cli.self_s": per_op(t["cli.run"]),
            "bench.self_s": per_op(t["op"] + t["bench.count"]),
            "trace.op_s": traced_op_s,
            "trace.overhead_s": traced_op_s - untraced_op_s,
        }
        return {k: (v if math.isfinite(v) else 0.0) for k, v in metrics.items()}

    def write(self, path: str) -> None:
        names = {i: n for n, i in self._names.items()}
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self._span_id)):
                record = {
                    "id": self._span_id[i],
                    "name": names[self._span_name[i]],
                    "start": self._span_start[i],
                    "end": self._span_end[i],
                    "parent": self._span_parent[i] or None,
                    "op": self._span_op[i],
                }
                out.write(json.dumps(record) + "\n")
