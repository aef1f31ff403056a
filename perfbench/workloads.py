"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the
same program texts.  Each op pairs one program text with one
decomposition heuristic; a workload is the list of its ops, and one pass
runs every op once.

* ``instance``: one filter input, ``cat encoding.lp instance.db``: about
  1k non-ground rules of mixed shapes followed by 100k ground facts.
* ``wide``: single-rule programs of 50 to 2001 variables (chains, grids,
  sparse graphs, aggregates with long interiors, long weak constraints).
* ``oracle``: 400 small random programs with aggregates and weak
  constraints, plus the chain programs n = 3..9 over a 3-constant domain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HEURISTICS = ("mcs", "mf", "miw")

INSTANCE_RULES = 1000
INSTANCE_FACTS = 100_000
INSTANCE_CONSTANTS = 400
BINARY_PREDICATES = 20
UNARY_PREDICATES = 10

# size ladders; under mcs the 2000-atom chain, and under every heuristic
# the 1200-atom aggregate interior, hit the RecursionError of
# decompose._split_rule at any seed; the other sizes stay clear of it
WIDE_CHAINS = (50, 100, 200, 400, 700, 2000)
WIDE_GRIDS = (7, 9, 12, 16, 20, 24)
WIDE_SPARSE = (50, 100, 200, 400, 800)
WIDE_AGGREGATES = (50, 100, 200, 400, 1200)
WIDE_WEAK = (50, 100, 200, 400, 800)

ORACLE_PROGRAMS = 400
ORACLE_CHAINS = tuple(range(3, 10))


@dataclass(frozen=True)
class Op:
    """One rewrite: a program text under one heuristic."""

    name: str
    text: str
    heuristic: str
    chain: bool = False  # criterion-5 chain, counted in ground_ratio


def build(workload: str, seed: int) -> list[Op]:
    if workload == "instance":
        text = instance_text(seed)
        return [Op("instance", text, h) for h in HEURISTICS]
    if workload == "wide":
        return wide_ops(seed)
    if workload == "oracle":
        return oracle_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- instance


# rule kinds of the encoding and their exact shares; the order is seeded
ENCODING_MIX = (
    ("join", 30),
    ("arithmetic", 15),
    ("aggregate", 15),
    ("weak", 10),
    ("disjunctive", 10),
    ("symmetric", 7),
    ("triangle", 7),
    ("unary", 6),
)


def instance_text(seed: int, rules: int = INSTANCE_RULES, facts: int = INSTANCE_FACTS) -> str:
    rng = random.Random(f"instance:{seed}")
    kinds = [kind for kind, share in ENCODING_MIX for _ in range(rules * share // 100)]
    rng.shuffle(kinds)
    lines = [_encoding_rule(rng, i, kind) for i, kind in enumerate(kinds)]
    consts = INSTANCE_CONSTANTS
    for _ in range(facts):
        if rng.random() < 0.8:
            k = rng.randrange(BINARY_PREDICATES)
            lines.append(f"p{k}({rng.randrange(1, consts)},{rng.randrange(1, consts)}).")
        else:
            lines.append(f"q{rng.randrange(UNARY_PREDICATES)}({rng.randrange(1, consts)}).")
    return "\n".join(lines) + "\n"


def _encoding_rule(rng: random.Random, i: int, kind: str) -> str:
    def p() -> str:
        return f"p{rng.randrange(BINARY_PREDICATES)}"

    def q() -> str:
        return f"q{rng.randrange(UNARY_PREDICATES)}"

    if kind == "join":
        # acceptance criterion 9: a five-atom join closing a negated cycle
        a = p()
        return f"h{i}(X1,X5) :- {a}(X1,X2), {p()}(X2,X3), {p()}(X3,X4), {p()}(X4,X5), not {a}(X5,X1)."
    if kind == "arithmetic":
        op = rng.choice("+-*")
        return f"v{i}(X,S) :- {p()}(X,Y), {p()}(Y,Z), {q()}(Z), S = Y{op}Z, S < {rng.randrange(50, 500)}."
    if kind == "aggregate":
        func = rng.choice(("count", "sum"))
        return (
            f"c{i}(X) :- {q()}(X), {rng.randrange(1, 4)} <= #{func}{{Y : {p()}(X,Y), "
            f"{p()}(Y,Z), {p()}(Z,W), {q()}(W)}}."
        )
    if kind == "weak":
        weight = rng.choice(("1", "2", "X"))
        return f":~ {p()}(X,Y), {p()}(Y,Z), {p()}(Z,W), not {q()}(W). [{weight}@{rng.randrange(2)}, X, W]"
    if kind == "disjunctive":
        return f"in{i}(X) | out{i}(X) :- {q()}(X), {p()}(X,Y), {p()}(Y,Z), {q()}(Z)."
    # complete variable graphs, emitted verbatim
    if kind == "symmetric":
        return f"t{i}(X,Y) :- {p()}(X,Y), {p()}(Y,X), X != Y."
    if kind == "triangle":
        return f"t{i}(X,Y,Z) :- {p()}(X,Y), {p()}(Y,Z), {p()}(Z,X)."
    return f"t{i}(X) :- {q()}(X), not {q()}(X)."


# ----------------------------------------------------------------- wide


def wide_ops(seed: int) -> list[Op]:
    rng = random.Random(f"wide:{seed}")
    programs: list[tuple[str, str]] = []
    for n in WIDE_CHAINS:
        programs.append((f"chain{n}", _chain_rule(rng, n)))
    for k in WIDE_GRIDS:
        programs.append((f"grid{k}", _grid_rule(rng, k)))
    for n in WIDE_SPARSE:
        programs.append((f"sparse{n}", _sparse_rule(rng, n)))
    for n in WIDE_AGGREGATES:
        programs.append((f"aggregate{n}", _aggregate_rule(rng, n)))
    for n in WIDE_WEAK:
        programs.append((f"weak{n}", _weak_rule(rng, n)))
    return [Op(name, text, h) for name, text in programs for h in HEURISTICS]


def _namer(rng: random.Random, count: int):
    """Variable names under a seeded relabelling, so the sorted order that
    heuristic tie-breaking sees differs from seed to seed."""
    labels = list(range(count))
    rng.shuffle(labels)
    return lambda i: f"V{labels[i]}"


def _join(rng: random.Random, head: str, atoms: list[str]) -> str:
    rng.shuffle(atoms)
    return f"{head} :- {', '.join(atoms)}.\n"


def _chain_rule(rng: random.Random, n: int) -> str:
    v = _namer(rng, n + 1)
    atoms = [f"e{rng.randrange(3)}({v(i)},{v(i + 1)})" for i in range(n)]
    return _join(rng, f"h({v(0)},{v(n)})", atoms)


def _grid_rule(rng: random.Random, k: int) -> str:
    """A k-by-k grid.  Its names are fixed: a relabelling would move the
    width of the largest rule, and with it every grounding count, by
    heuristic tie-breaking alone."""
    v = lambda i: f"V{i}"  # noqa: E731
    atoms = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                atoms.append(f"r({v(i * k + j)},{v(i * k + j + 1)})")
            if i + 1 < k:
                atoms.append(f"d({v(i * k + j)},{v((i + 1) * k + j)})")
    return _join(rng, f"h({v(0)})", atoms)


def _sparse_rule(rng: random.Random, n: int) -> str:
    """A random tree plus n/40 random extra edges."""
    v = _namer(rng, n)
    atoms = [f"e({v(rng.randrange(i))},{v(i)})" for i in range(1, n)]
    for _ in range(n // 40):
        a, b = rng.sample(range(n), 2)
        atoms.append(f"f({v(a)},{v(b)})")
    return _join(rng, f"h({v(0)})", atoms)


def _aggregate_rule(rng: random.Random, n: int) -> str:
    """A count over a chain interior joined to the rule at one end."""
    v = _namer(rng, n + 1)
    inner = [f"r({v(i)},{v(i + 1)})" for i in range(1, n)]
    rng.shuffle(inner)
    condition = ", ".join([f"s(X,{v(1)})"] + inner)
    return f"c(X) :- q(X), 2 <= #count{{{v(1)} : {condition}}}.\n"


def _weak_rule(rng: random.Random, n: int) -> str:
    v = _namer(rng, n + 1)
    atoms = [f"e({v(i)},{v(i + 1)})" for i in range(n)]
    rng.shuffle(atoms)
    return f":~ {', '.join(atoms)}. [1@0, {v(0)}, {v(n)}]\n"


# --------------------------------------------------------------- oracle


def oracle_ops(seed: int) -> list[Op]:
    ops = []
    for i in range(ORACLE_PROGRAMS):
        # the program's shape comes from its index, its details from the seed
        text = random_program_text(
            random.Random(f"oracle:{seed}:{i}"),
            domain=(2, 2, 3)[i // 3 % 3],
            edges=(2, 3, 4)[i // 36 % 3],
            extra=("star", "sum", "product", "difference", "loop", "none")[i // 9 % 6],
            aggregate=i % 4 == 0,
            weak=i % 4 == 1,
        )
        ops.append(Op(f"random{i}", text, HEURISTICS[i % 3]))
    for n in ORACLE_CHAINS:
        ops.append(Op(f"chain{n}", chain_program_text(n), HEURISTICS[n % 3], chain=True))
    return ops


def chain_program_text(n: int, domain: int = 3) -> str:
    """h(X1) over an (n-1)-step chain of e-atoms, plus all e-facts."""
    body = ", ".join(f"e(X{i},X{i + 1})" for i in range(1, n))
    facts = "\n".join(f"e({i},{j})." for i in range(1, domain + 1) for j in range(1, domain + 1))
    return f"h(X1) :- {body}.\n{facts}\n"


def random_program_text(rng: random.Random, *, domain: int, edges: int, extra: str, aggregate: bool, weak: bool) -> str:
    """A small safe program in the style of the test suite's generator:
    facts over e/2 and f/1 plus up to five rules mixing negation,
    comparisons and arithmetic, one of them path-shaped."""
    pairs = [(i, j) for i in range(1, domain + 1) for j in range(1, domain + 1)]
    rng.shuffle(pairs)
    lines = [f"e({i},{j})." for i, j in pairs[:edges]]
    singles = list(range(1, domain + 1))
    rng.shuffle(singles)
    lines += [f"f({i})." for i in singles[: rng.randint(1, domain)]]

    extras = []
    if rng.random() < 0.6:
        extras.append("not e(D,A)")
    if rng.random() < 0.4:
        extras.append(rng.choice(("A != C", "B <= C", "A < D")))
    head = rng.choice(("big(A,D)", "big(A,C)"))
    lines.append(f"{head} :- {', '.join(['e(A,B)', 'e(B,C)', 'e(C,D)'] + extras)}.")

    if extra == "star":
        neg = ", not f(C)" if rng.random() < 0.5 else ""
        lines.append(f"hub(A) :- e(A,B), e(A,C), f(B){neg}.")
    elif extra in ("sum", "product", "difference"):
        expr = {"sum": "B+C", "product": "B*C", "difference": "C-B"}[extra]
        neg = ", not f(S)" if rng.random() < 0.4 else ""
        lines.append(f"val(A,S) :- e(A,B), e(B,C), S = {expr}{neg}.")
    elif extra == "loop":
        lines += ["pick(A) :- f(A), not drop(A).", "drop(A) :- f(A), not pick(A)."]
    if aggregate:
        func = rng.choice(("count", "sum"))
        lines.append(f"good(A) :- f(A), {rng.randint(1, 2)} <= #{func}{{B : e(A,B), e(B,C), f(C)}}.")
    if weak:
        neg = ", not f(C)" if rng.random() < 0.5 else ""
        weight = rng.choice(("1", "2", "A"))
        lines.append(f":~ e(A,B), e(B,C){neg}. [{weight}@{rng.choice('001')}, A, C]")
    return "\n".join(lines) + "\n"
