#!/usr/bin/env python3
"""The rulesplit benchmark.

One run::

    python3 perfbench/run.py --workload instance --seed 1 --seconds 30 --trace 0

builds the workload's inputs from the seed, checks every op's output,
runs whole passes over the ops in one single-threaded closed loop, at
least three and until the ops have taken ``--seconds``, and prints a
table followed by one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` passes alternate
between plain and traced, and the metrics are the per-layer ones plus the
tracing overhead.  ``--save FILE`` appends the result to a result set.

Other modes::

    python3 perfbench/run.py --workload all --seed 1      # one row per workload
    python3 perfbench/run.py --series --workload instance,wide --seeds 1-10 --save perfbench/results/a.jsonl
    python3 perfbench/run.py --compare perfbench/results/a.jsonl perfbench/results/b.jsonl

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9
MIN_PASSES = 3
TAIL_BEYOND = 10
WORKLOADS = ("instance", "wide", "oracle")
VAR_TOKEN = re.compile(r"\b[A-Z][A-Za-z0-9_]*\b")


def _load_package() -> None:
    if not (SRC / "rulesplit" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'rulesplit'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))


# ------------------------------------------------------------------ stats


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND values above it (the
    minimum when there are not that many)."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - TAIL_BEYOND - 1, 0)]


# ------------------------------------------------------------------- ops


class OpFailed(Exception):
    """An op's output failed a check."""


class CliExit(Exception):
    """The CLI refused the input with a non-zero exit status."""


def rewrite(text: str, heuristic: str) -> str:
    """One rewrite through the CLI entry point; exceptions escape."""
    from rulesplit import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    status = cli.run(["-h", heuristic], io.StringIO(text), stdout, stderr)
    if status != 0:
        raise CliExit(f"exit status {status}: {stderr.getvalue().strip()[:200]}")
    return stdout.getvalue()


def oracle_verdict(text: str, out: str) -> tuple[int, int]:
    """Equivalence plus grounding sizes before and after, as library
    users run them; returns (original, rewritten) rule instances."""
    from rulesplit import oracle, parser

    original = parser.parse(text)
    rewritten = parser.parse(out)
    if not oracle.equivalent(original, rewritten):
        raise OpFailed("rewritten program is not equivalent")
    return oracle.grounding_size(original), oracle.grounding_size(rewritten)


class Checker:
    """Full output checks on an op's first output; later outputs must be
    byte-identical to it.  Also gathers the properties of the inputs."""

    def __init__(self) -> None:
        self.digest: dict[int, str] = {}
        self.facts: dict[int, dict] = {}
        self.inputs = InputProperties()
        self._parsed: tuple[str, object] | None = None

    def check(self, index: int, op, out: str) -> None:
        digest = hashlib.sha1(out.encode()).hexdigest()
        if index in self.digest:
            if digest != self.digest[index]:
                raise OpFailed("output differs from the first run of this op")
            return
        self.facts[index] = self._full_check(op, out)
        self.digest[index] = digest

    def release(self) -> None:
        self._parsed = None

    def _parse_input(self, text: str):
        # ops of one workload share input texts; keep only the latest parse
        if self._parsed is None or self._parsed[0] is not text:
            from rulesplit.parser import parse

            self._parsed = (text, parse(text))
        return self._parsed[1]

    def _full_check(self, op, out: str) -> dict:
        """Rerun the rewrite, capturing every decomposition, then check
        round trip, safety of emitted rules and decomposition validity."""
        from rulesplit import decompose, parser, treedecomp
        from rulesplit.ast import vars_of
        from rulesplit.safety import unsafe_vars

        pairs: list[list] = []
        originals = (decompose.decomposition_from_order, decompose.ensure_head_root)

        def capture_td(graph, order):
            td = originals[0](graph, order)
            pairs.append([graph, td])
            return td

        def capture_root(td, head_vars):
            rooted = originals[1](td, head_vars)
            pairs[-1][1] = rooted
            return rooted

        program = self._parse_input(op.text)
        decompose.decomposition_from_order, decompose.ensure_head_root = capture_td, capture_root
        try:
            rewritten, report = decompose.decompose_program(program, heuristic=op.heuristic)
        finally:
            decompose.decomposition_from_order, decompose.ensure_head_root = originals
        if parser.render(rewritten) != out:
            raise OpFailed("a rerun gave a different render")
        if parser.parse(out) != rewritten:
            raise OpFailed("parse(render(out)) != out")
        for rule in rewritten.rules:
            if unsafe_vars(rule):
                raise OpFailed(f"emitted rule is unsafe: {parser.render_rule(rule)}")
        for graph, td in pairs:
            if not treedecomp.validate(td, graph):
                raise OpFailed("invalid tree decomposition")

        self.inputs.add(op.text, program, report)
        rules = [r for r in program.rules if r.body]
        return {
            "vars": sum(len(vars_of(r)) for r in rules),
            "max_width": report.max_width,
            "sum_width": sum(row.width for row in report.rows if row.width >= 0),
            "naive_before": sum(3 ** len(vars_of(r)) for r in rules),
            "naive_after": sum(3 ** len(vars_of(r)) for r in rewritten.rules if r.body),
        }


class InputProperties:
    """Input properties later claims depend on, over a workload's distinct
    programs: share of statements that are facts, share of rules emitted
    verbatim, share of rules whose variable graph repeats an earlier one up
    to renaming (variables numbered by first occurrence), and variables
    per rule."""

    def __init__(self) -> None:
        self.texts: set[str] = set()
        self.statements = 0
        self.verbatim = 0
        self.repeats = 0
        self.shapes: set = set()
        self.var_counts: list[int] = []

    def add(self, text: str, program, report) -> None:
        from rulesplit.parser import render_rule
        from rulesplit.rulegraph import build

        if text in self.texts:
            return
        self.texts.add(text)
        self.statements += len(program.rules)
        for rule, row in zip(program.rules, report.rows):
            if not rule.body:
                continue
            order: dict[str, int] = {}
            for name in VAR_TOKEN.findall(render_rule(rule)):
                order.setdefault(name, len(order))
            graph = build(rule)
            shape = (len(graph.vertices), frozenset((order[a], order[b]) for a, b in graph.edges))
            self.repeats += shape in self.shapes
            self.shapes.add(shape)
            self.verbatim += row.rules_emitted == 1
            self.var_counts.append(len(graph.vertices))

    def summary(self) -> dict:
        counts = sorted(self.var_counts) or [0]
        rules = max(len(self.var_counts), 1)
        return {
            "programs": len(self.texts),
            "statements": self.statements,
            "fact_share": 1 - len(self.var_counts) / max(self.statements, 1),
            "verbatim_share": self.verbatim / rules,
            "repeated_graph_share": self.repeats / rules,
            "vars_min": counts[0],
            "vars_median": statistics.median(counts),
            "vars_p90": counts[int(0.9 * (len(counts) - 1))],
            "vars_max": counts[-1],
        }


# --------------------------------------------------------------- probes


def setup_probe() -> float:
    """Wall time of a fresh CLI process on empty input."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from rulesplit.cli import main; main()"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - started


def rss_probe(workload: str, op) -> float:
    """Peak resident memory (MB) of a fresh process running ``op``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-probe", workload, op.heuristic],
        input=op.text, capture_output=True, text=True, check=True, timeout=170,
    )
    return float(done.stdout.split()[-1])


def rss_child(workload: str, heuristic: str) -> None:
    text = sys.stdin.read()
    try:
        out = rewrite(text, heuristic)
        if workload == "oracle":
            oracle_verdict(text, out)
    except Exception:  # a failing op still has a peak; report it
        pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


# ------------------------------------------------------------------ run


def run_op(workload: str, index: int, op, checker: Checker, tracer) -> tuple[dict, str | None]:
    """Time one op: the rewrite, then its verdict: the oracle on
    ``oracle``, and byte-identity with the op's checked first output once
    there is one.  Returns the sample and the output text."""
    sample = {"op": index, "h": op.heuristic, "traced": tracer is not None, "ok": False}
    out = None
    if tracer is not None:
        tracer.begin_op(index)
    started = time.perf_counter()
    rewritten_at = None
    try:
        out = rewrite(op.text, op.heuristic)
        rewritten_at = time.perf_counter()
        if workload == "oracle":
            sample["ground"] = oracle_verdict(op.text, out)
        if index in checker.digest:
            checker.check(index, op, out)
        sample["ok"] = True
    except OpFailed as err:
        sample["error"], sample["detail"] = "WrongOutput", str(err)
    except Exception as err:  # escaped the CLI or the oracle: a failed op
        sample["error"], sample["detail"] = type(err).__name__, str(err)[:200]
    finished = time.perf_counter()
    if tracer is not None:
        tracer.end_op()
    sample["rewrite_s"] = (rewritten_at or finished) - started
    sample["verify_s"] = finished - started
    return sample, out if sample["ok"] else None


def check_pass(ops, samples: list[dict], outputs: dict[int, str], checker: Checker) -> None:
    """Full checks on the outputs of ops that have no checked output yet;
    run between passes, so the parsed programs they hold are gone before
    the next timed op.  The collector is off meanwhile: this is untimed
    and allocates much that lives until the pass ends."""
    gc.disable()
    try:
        for sample in samples:
            out = outputs.get(sample["op"])
            if out is None or sample["op"] in checker.digest:
                continue
            try:
                checker.check(sample["op"], ops[sample["op"]], out)
            except Exception as err:
                sample["ok"] = False
                detail = str(err) if isinstance(err, OpFailed) else f"{type(err).__name__}: {err}"
                sample["error"], sample["detail"] = "WrongOutput", detail
    finally:
        checker.release()
        gc.enable()


def run(workload: str, seed: int, seconds: float, traced: bool, trace_out: str | None = None) -> dict:
    import tracing
    import workloads

    ops = workloads.build(workload, seed)
    metrics: dict[str, float] = {}
    if not traced:
        metrics["setup_s"] = statistics.median(setup_probe() for _ in range(SETUP_PROBES))
        metrics["peak_rss_mb"] = rss_probe(workload, max(ops, key=_weight))

    checker = Checker()
    tracer = tracing.Tracer(keep_spans=trace_out is not None)
    samples: list[dict] = []
    spent = 0.0
    passes = 0
    gc.collect()
    # whole passes, at least three: every op is rerun, and each op's median
    # is not an average with its first run, which is slower on ``oracle``;
    # a traced run alternates plain and traced passes for the overhead
    while passes < MIN_PASSES or spent < seconds:
        tracing_pass = traced and passes % 2 == 1
        if tracing_pass:
            tracer.install()
        this_pass, outputs = [], {}
        for index, op in enumerate(ops):
            sample, out = run_op(workload, index, op, checker, tracer if tracing_pass else None)
            sample["pass"] = passes
            this_pass.append(sample)
            spent += sample["verify_s"]
            if out is not None and index not in checker.digest:
                outputs[index] = out  # a str: nothing for the collector to scan
            del out
        if tracing_pass:
            tracer.uninstall()
        check_pass(ops, this_pass, outputs, checker)
        samples.extend(this_pass)
        del outputs
        passes += 1
        gc.collect()

    if traced:
        # the first pass runs every op for the first time: not a fair baseline
        plain = [s["verify_s"] for s in samples if not s["traced"] and s["pass"] > 0]
        with_spans = [s["verify_s"] for s in samples if s["traced"]]
        metrics = tracer.per_layer(len(with_spans), statistics.fmean(plain), statistics.fmean(with_spans))
        if trace_out:
            tracer.write(trace_out)
    elif checker.facts:
        metrics.update(end_to_end(workload, ops, samples, checker))
    errors: dict[str, int] = {}
    details = set()
    for s in samples:
        if not s["ok"]:
            errors[s["error"]] = errors.get(s["error"], 0) + 1
            if "detail" in s:
                details.add(s["detail"])
    return {
        "correct": not any(s.get("error") == "WrongOutput" for s in samples),
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "metrics": metrics,
        "info": {
            "workload": workload,
            "seed": seed,
            "ops": len(ops),
            "passes": passes,
            "errors": errors,
            "details": sorted(details)[:5],
            "inputs": checker.inputs.summary(),
        },
    }


def _weight(op) -> tuple:
    """Largest op: most variables in one rule, then longest text."""
    longest = max((len(set(VAR_TOKEN.findall(line))) for line in op.text.splitlines()), default=0)
    return (longest, len(op.text), op.heuristic == "miw")


def per_op_medians(samples: list[dict], key: str) -> list[float]:
    """Each op's median over the passes.  Timing statistics are taken over
    these, so that they do not depend on how many passes fit in a run:
    ops of one workload differ by orders of magnitude."""
    by_op: dict[int, list[float]] = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(s[key])
    return [statistics.median(times) for times in by_op.values()]


def end_to_end(workload: str, ops, samples, checker) -> dict[str, float]:
    rewrite_times = per_op_medians(samples, "rewrite_s")
    verify_times = per_op_medians(samples, "verify_s")
    metrics = {
        "rewrite_s": statistics.median(rewrite_times),
        "rewrite_tail_s": tail(rewrite_times),
        "verify_s": statistics.median(verify_times),
        "verify_tail_s": tail(verify_times),
    }
    for h in ("mcs", "mf", "miw"):
        mine = [s for s in samples if s["h"] == h]
        done = {s["op"] for s in mine if s["ok"]}
        variables = sum(checker.facts[op]["vars"] for op in done)
        metrics[f"vars_per_s.{h}"] = variables / sum(per_op_medians(mine, "rewrite_s"))
    facts = checker.facts.values()
    metrics["max_width"] = max(f["max_width"] for f in facts)
    metrics["sum_width"] = sum(f["sum_width"] for f in facts)
    if workload == "oracle":
        first: dict[int, tuple[int, int]] = {}
        for s in samples:
            if s["ok"]:
                first.setdefault(s["op"], s["ground"])
        metrics["ground_instances"] = sum(after for _, after in first.values())
        chains = [g for i, g in first.items() if ops[i].chain]
    else:
        metrics["ground_instances"] = sum(f["naive_after"] for f in facts)
        chains = [(f["naive_before"], f["naive_after"]) for f in facts]
    before, after = sum(g[0] for g in chains), sum(g[1] for g in chains)
    metrics["ground_ratio"] = math.log10(before) - math.log10(after)
    metrics["ok_share"] = sum(s["ok"] for s in samples) / len(samples)
    return metrics


# ---------------------------------------------------------------- output


def load_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def units(spec: dict, traced: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def contract_line(result: dict, spec: dict, traced: bool) -> str:
    """The result line.  Every value is written as a float: exact counts
    such as ``ground_instances`` on ``wide`` exceed 2**53, and a reader
    that holds numbers as doubles would not get the printed integer back."""
    unit_of = units(spec, traced)
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in unit_of.items()
        if name in result["metrics"]
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_run(result: dict, spec: dict, traced: bool) -> None:
    info = result["info"]
    print(
        f"# {info['workload']} seed={info['seed']} ops/pass={info['ops']} passes={info['passes']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"failed_share={result['failed'] / result['attempted']:.4f} errors={info['errors']}"
    )
    for detail in info["details"]:
        print(f"#   {detail}")
    print("# inputs " + " ".join(f"{k}={v:.4g}" for k, v in info["inputs"].items()))
    for name, unit in units(spec, traced).items():
        value = result["metrics"].get(name)
        print(f"{name:34s} {value!s:>24} {unit}")
    if traced:
        m = result["metrics"]
        unit_of = units(spec, traced)
        self_sum = sum(v for k, v in m.items() if unit_of.get(k) == "s" and not k.startswith("trace."))
        print(f"# per traced op: span self times sum to {self_sum:.6g} s, op wall {m['trace.op_s']:.6g} s, "
              f"untraced op {m['trace.op_s'] - m['trace.overhead_s']:.6g} s, "
              f"tracing overhead {m['trace.overhead_s']:.6g} s")


def print_table(rows: list[dict], spec: dict) -> None:
    unit_of = units(spec, False)
    names = list(unit_of)
    print("workload  " + "  ".join(f"{n}[{unit_of[n]}]" for n in names) + "  failed_share")
    for r in rows:
        cells = [f"{r['metrics'].get(n, float('nan')):.6g}" for n in names]
        share = r["failed"] / r["attempted"]
        print(f"{r['info']['workload']:9s} " + "  ".join(cells) + f"  {share:.4f} {r['info']['errors']}")


# -------------------------------------------------------- result sets


def save(path: str, result: dict, seconds: float, traced: bool) -> None:
    record = {
        "workload": result["info"]["workload"],
        "seed": result["info"]["seed"],
        "seconds": seconds,
        "trace": int(traced),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "errors": result["info"]["errors"],
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")


def child_run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run in a fresh process, as the contract command."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced)), "--full"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0 and not done.stdout.strip():
        raise SystemExit(f"perfbench: {workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def read_set(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a: list[dict], b: list[dict], name: str, better: str, bound: float) -> str:
    """better, unchanged, unresolved or worse, for set B against set A.

    Worse: B's median is worse than A's by more than ``bound``.  Better:
    B's median is better by more than A's own quartile spread, and B wins
    at least nine in ten runs paired by seed (every B run beats every A
    run, when no seeds pair up).  Unresolved: either side spreads wider
    than ``bound`` and the runs do not separate."""
    va = [r["metrics"][name] for r in a]
    vb = [r["metrics"][name] for r in b]
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(va), statistics.median(vb)
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    beats = all(sign * x > sign * y for x in vb for y in va)
    loses = all(sign * x < sign * y for x in vb for y in va)
    if max(spread(va), spread(vb)) > bound and not (beats or loses):
        return "unresolved"
    if gain < -bound:
        return "worse"
    by_seed_a = {r["seed"]: r["metrics"][name] for r in a}
    pairs = [(by_seed_a[r["seed"]], r["metrics"][name]) for r in b if r["seed"] in by_seed_a]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    won = wins >= 0.9 * len(pairs) if pairs else beats
    if gain > spread(va) and gain > 0 and won:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    set_a, set_b = read_set(path_a), read_set(path_b)
    print(f"{'workload':9s} {'metric':28s} {'A median [q1, q3]':>36s} {'B median [q1, q3]':>36s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    worse = 0
    for traced, kind in ((0, "end_to_end"), (1, "per_layer")):
        for workload in WORKLOADS:
            a, b = set_a.get((workload, traced)), set_b.get((workload, traced))
            if not a or not b:
                continue
            for metric in spec[kind]:
                name = metric["name"]
                va = [r["metrics"][name] for r in a if name in r["metrics"]]
                vb = [r["metrics"][name] for r in b if name in r["metrics"]]
                if not va or not vb:
                    continue
                qa, qb = quartiles(va), quartiles(vb)
                ra = [r for r in a if name in r["metrics"]]
                rb = [r for r in b if name in r["metrics"]]
                change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
                cells = [f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]", f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"]
                if "bound" in metric:
                    word = verdict(ra, rb, name, metric["better"], metric["bound"])
                    worse += word == "worse"
                    bound = f"{metric['bound']:.2f}"
                else:
                    word, bound = "-", "-"
                print(f"{workload:9s} {name:28s} {cells[0]:>36s} {cells[1]:>36s} {change:+8.1%} {bound:>6s}  {word}")
    for workload in WORKLOADS:
        for label, groups in (("A", set_a), ("B", set_b)):
            plain, spans = groups.get((workload, 0)), groups.get((workload, 1))
            if spans:
                over = statistics.median(r["metrics"]["trace.overhead_s"] for r in spans)
                op = statistics.median(r["metrics"]["trace.op_s"] for r in spans)
                print(f"{workload:9s} tracing overhead ({label}): {over:.4g} s of {op:.4g} s per traced op")
    return 1 if worse else 0


def series(workloads_: list[str], seeds: list[int], seconds: float, traced: bool,
           save_path: str | None, spec: dict) -> int:
    """Runs in fresh processes, one per (workload, seed); prints each
    end-to-end metric's median and quartile spread."""
    status = 0
    for workload in workloads_:
        results = []
        for seed in seeds:
            result = child_run(workload, seed, seconds, traced)
            results.append(result)
            status |= not result["correct"]
            if save_path:
                save(save_path, result, seconds, traced)
            print(f"# {workload} seed={seed} attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        kind = "per_layer" if traced else "end_to_end"
        for metric in spec[kind]:
            values = [r["metrics"][metric["name"]] for r in results]
            q1, q2, q3 = quartiles(values)
            limit = metric.get("bound")
            print(f"{workload:9s} {metric['name']:30s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread(values):.4f}" + (f" bound={limit}" if limit is not None else ""))
    return status


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="rulesplit benchmark")
    ap.add_argument("--workload", default="all", help="instance, wide, oracle, all, or a comma list")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", default=None, help="seed list for --series, such as 1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="write the traced run's spans as JSON lines")
    ap.add_argument("--save", default=None, help="append results to this result set")
    ap.add_argument("--series", action="store_true", help="one fresh process per workload and seed")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result sets")
    ap.add_argument("--rss-probe", nargs=2, metavar=("WORKLOAD", "HEURISTIC"), help=argparse.SUPPRESS)
    ap.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _load_package()
    if args.rss_probe:
        rss_child(*args.rss_probe)
        return 0
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    traced = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    if args.series:
        return series(names, parse_seeds(args.seeds or str(args.seed)), seconds, traced, args.save, spec)
    if len(names) > 1:
        rows = [child_run(name, args.seed, seconds, traced) for name in names]
        if args.save:
            for row in rows:
                save(args.save, row, seconds, traced)
        if traced:
            for row in rows:
                print_run(row, spec, traced)
        else:
            print_table(rows, spec)
        return 0 if all(r["correct"] for r in rows) else 1

    result = run(names[0], args.seed, seconds, traced, args.trace_out)
    if args.save:
        save(args.save, result, seconds, traced)
    print_run(result, spec, traced)
    print(json.dumps(result) if args.full else contract_line(result, spec, traced))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
