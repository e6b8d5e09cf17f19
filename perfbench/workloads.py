"""The four workloads: their set-up, the operations of one pass, and their checks.

Importing this module imports ``multiway``; ``run.py`` times that import as
part of set-up.  A pass is a fixed list of operations in a fixed order; the
seed only draws the operand pairs of ``algebra``.  Each operation's ``run``
is timed; its ``digest`` runs after the clock stops and keeps only what the
checks need, so large graphs are freed before the next operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable

import multiway as mw
import multiway.cli

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Op:
    name: str
    run: Callable[["Pass"], object]
    digest: Callable[["Pass", object, float], object] = lambda p, out, elapsed: out


@dataclass
class Pass:
    """What one pass measured: operation times, evolve throughput, outputs."""

    tracer: object = None
    op_seconds: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    evolve_states: int = 0
    evolve_seconds: float = 0.0
    child_raw: list = field(default_factory=list)  # traced CLI children
    child_spans: list = field(default_factory=list)

    def evolve(self, system, horizon, **kwargs):
        """``evolve`` as the benchmark calls it, timed for states_per_s."""
        t0 = time.perf_counter()
        graph = mw.evolve(system, horizon, **kwargs)
        self.evolve_seconds += time.perf_counter() - t0
        self.evolve_states += len(graph.states)
        return graph

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds.values())


def build(name: str, *params):
    """A zoo builder, looked up at call time so a traced run sees the call."""
    return getattr(mw.zoo, name)(*params)


# ---------------------------------------------------------------------------
# zoo-wide


class ZooWide:
    """Every zoo entry but log_system, each at its classify horizon, without edges."""

    names = [n for n in mw.ZOO if n != "log_system"]
    naive_depth = 60  # layers of oscillating_composite held against the naive expander

    def setup(self) -> None:
        self.systems = {n: build(n) for n in self.names}

    def prepare(self, rng: Random) -> None:
        comp = self.systems["oscillating_composite"]
        self.naive = checks.naive_layers(list(comp.rules), comp.init, self.naive_depth)

    def ops(self) -> list[Op]:
        def make(name):
            horizon = mw.ZOO[name].classify_horizon

            def run(p):
                graph = p.evolve(build(name), horizon, record_edges=False)
                series = mw.growth_series(graph)
                return graph, series, mw.classify(series)

            def digest(p, out, elapsed):
                graph, series, report = out
                head = None
                if name == "oscillating_composite":
                    head = [set(graph.layer_strings(d)) for d in range(self.naive_depth + 1)]
                return series.counts, report, graph.truncated, head

            return Op(name, run, digest)

        return [make(n) for n in self.names]

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        problems = []
        for name, (counts, report, truncated, head) in outputs.items():
            if truncated:
                problems.append(f"{name}: truncated")
            up, low = report.upper_class, report.lower_class
            problems += checks.check_verdict(
                name, name, (up.kind, up.parameter), (low.kind, low.parameter), report.regular
            )
            if name == "oscillating_composite":
                if head != self.naive:
                    problems.append(f"{name}: first {self.naive_depth} layers differ from the naive expander")
            else:
                horizon = mw.ZOO[name].classify_horizon
                problems += checks.check_counts(name, counts, checks.closed_form(name, horizon))
        return 0, problems


# ---------------------------------------------------------------------------
# long-lineage


class LongLineage:
    """log_system without edges to distance 1600: one growing lineage."""

    horizon = 1600

    def setup(self) -> None:
        self.system = build("log_system")

    def prepare(self, rng: Random) -> None:
        # the binary counter stepped directly, never through the rewrite engine
        measurement = mw.validate_t_halter(mw.build_binary_counter(), range(0, 12))
        if not measurement.ok:
            raise RuntimeError(f"counter measurement failed: {measurement.constraint_violations}")
        self.expected = mw.expected_growth(measurement, self.horizon, start_input=0)

    def ops(self) -> list[Op]:
        def run(p):
            graph = p.evolve(build("log_system"), self.horizon, record_edges=False)
            return graph, mw.growth_series(graph)

        def digest(p, out, elapsed):
            graph, series = out
            return series.counts, graph.truncated

        return [Op("log_system", run, digest)]

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        counts, truncated = outputs["log_system"]
        problems = ["log_system: truncated"] if truncated else []
        problems += checks.check_counts("log_system staircase", counts, self.expected)
        problems += checks.check_log_sandwich("log_system", counts)
        return 0, problems


# ---------------------------------------------------------------------------
# cli

COUNTER_TM = """\
# binary counter: 2**(n+2) - 1 configurations on unary input n
states: 3 halting: {3}
delta: (1, 1) -> (1, R, 1)
delta: (1, 2) -> (2, R, 1)
delta: (1, 0) -> (0, L, 2)
delta: (2, 2) -> (1, L, 2)
delta: (2, 1) -> (2, R, 1)
delta: (2, 0) -> (1, L, 3)
"""


class Cli:
    """A fixed list of ``multiway`` commands, each in its own interpreter, one at a time."""

    work = RESULTS / "cli-work"
    emitted = ("exponential", "polynomial", "intermediate", "inverse_polynomial", "burst")
    classified = ("polynomial", "inverse_polynomial", "intermediate")

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for name in self.emitted:
            code = multiway.cli.main(["zoo", "emit", name, "--out", str(self.work / f"{name}.rules")])
            if code != 0:
                raise RuntimeError(f"zoo emit {name} exited {code}")
        (self.work / "counter.tm").write_text(COUNTER_TM, encoding="utf-8")

    def prepare(self, rng: Random) -> None:
        w = self.work
        commands = {
            "version": ["--version"],
            "zoo-list": ["zoo", "list"],
            "simulate-csv": ["simulate", f"{w}/exponential.rules", "--horizon", "9", "--format", "csv"],
            "simulate-json": ["simulate", f"{w}/polynomial.rules", "--horizon", "13", "--format", "json"],
            "simulate-dot": ["simulate", f"{w}/exponential.rules", "--horizon", "7", "--format", "dot"],
            "compile-tm": ["compile-tm", f"{w}/counter.tm", "--enchain", "--input", "0", "--out", f"{w}/chained.rules"],
            "product": ["combine", f"{w}/polynomial.rules", f"{w}/exponential.rules", "--op", "product", "--out", f"{w}/product.rules"],
            "reduce": ["combine", f"{w}/burst.rules", "--op", "reduce", "--out", f"{w}/reduced.rules"],
        }
        for name in self.classified:
            horizon = mw.ZOO[name].classify_horizon + 1  # generations, one more than distances
            commands[f"classify-{name}"] = ["classify", f"{w}/{name}.rules", "--horizon", str(horizon)]
        self.commands = commands
        for argv in self.commands.values():  # no output left from an earlier run
            if "--out" in argv:
                for suffix in ("", ".provenance.json"):
                    Path(argv[argv.index("--out") + 1] + suffix).unlink(missing_ok=True)
        # states each evolving command reports, for states_per_s
        self.states_in = {
            "simulate-csv": checks.csv_counts,
            "simulate-json": checks.json_counts,
            "simulate-dot": lambda text: [checks.dot_shape(text)[0]],
        }
        self.states_in.update({f"classify-{n}": checks.json_counts for n in self.classified})
        self.env = program_env()
        # expected values of the file outputs, from closed forms and the counter's own steps
        measurement = mw.validate_t_halter(mw.build_binary_counter(), range(0, 8))
        self.staircase = mw.expected_growth(measurement, 40, start_input=0)

    def invoke(self, p: Pass, name: str, argv: list[str]) -> tuple[int, str, str]:
        if p.tracer is None:
            cmd = [sys.executable, "-m", "multiway", *argv]
        else:
            trace_out = RESULTS / f"cli-child-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True)
        if p.tracer is not None:
            doc = json.loads(trace_out.read_text(encoding="utf-8"))
            trace_out.unlink()
            p.child_raw.append(doc["raw"])
            p.child_spans.append({"command": name, "spans": doc["spans"]})
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self) -> list[Op]:
        def make(name, argv):
            def digest(p, out, elapsed):
                code, stdout, stderr = out
                if code == 0 and name in self.states_in:
                    p.evolve_states += sum(self.states_in[name](stdout))
                    p.evolve_seconds += elapsed
                files = {}
                if "--out" in argv:  # read, then remove, so a later pass cannot see stale files
                    for suffix in ("", ".provenance.json"):
                        path = Path(argv[argv.index("--out") + 1] + suffix)
                        if path.exists():
                            files[suffix] = path.read_text(encoding="utf-8")
                            path.unlink()
                return code, stdout, stderr, files

            return Op(name, lambda p: self.invoke(p, name, argv), digest)

        return [make(name, argv) for name, argv in self.commands.items()]

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        problems = []
        for name, (code, stdout, stderr, files) in outputs.items():
            if code != 0:
                problems.append(f"{name}: exit {code}: {stderr.strip()[-200:]}")
                continue
            try:
                problems += self._check_one(name, stdout, files)
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"{name}: unreadable output ({exc!r})")
        return 0, problems

    def _check_one(self, name: str, stdout: str, files: dict) -> list[str]:
        if name == "version":
            ok = stdout.strip().startswith("multiway ") and len(stdout.split()) == 2
            return [] if ok else [f"version: {stdout!r}"]
        if name == "zoo-list":
            listed = {line.split()[0] for line in stdout.splitlines() if line and not line.startswith("#")}
            return [] if listed == set(mw.ZOO) else [f"zoo list: {sorted(listed)}"]
        if name == "simulate-csv":
            return checks.check_counts(name, checks.csv_counts(stdout), checks.closed_form("exponential", 8))
        if name == "simulate-json":
            return checks.check_counts(name, checks.json_counts(stdout), checks.closed_form("polynomial", 12))
        if name == "simulate-dot":
            return checks.check_dot_tree(name, stdout, checks.closed_form("exponential", 6))
        if name.startswith("classify-"):
            entry = name.removeprefix("classify-")
            return checks.check_classify_json(name, entry, stdout, mw.ZOO[entry].classify_horizon)
        if name == "compile-tm":
            init, rules, header = checks.read_rule_file(files[""])
            problems = [] if header == 2 else [f"{name}: {header} header lines, want 2"]
            counts = checks.naive_counts(rules, init, 40)
            return problems + checks.check_counts(f"{name} (naive expansion)", counts, self.staircase)
        if name == "product":
            init, rules, _ = checks.read_rule_file(files[""])
            side = json.loads(files[".provenance.json"])
            problems = [] if side["growth_law"] == "exact" else [f"{name}: growth law {side['growth_law']}"]
            want = checks.convolve(checks.closed_form("polynomial", 5), checks.closed_form("exponential", 5))
            return problems + checks.check_counts(f"{name} (naive expansion)", checks.naive_counts(rules, init, 5), want)
        if name == "reduce":
            init, rules, _ = checks.read_rule_file(files[""])
            side = json.loads(files[".provenance.json"])
            problems = [] if len(side["translation"]) == 5 else [f"{name}: translation {side['translation']}"]
            want = checks.closed_form("burst", 6)
            return problems + checks.check_counts(f"{name} (naive expansion)", checks.naive_counts(rules, init, 6), want)
        raise KeyError(name)


# ---------------------------------------------------------------------------
# algebra

HISTORY_RULES = [("[k]", "[k][aa]"), ("[k]", "[k][zz]")]
FRESH_DOT = (
    "import sys\n"
    "import multiway as mw\n"
    f"s = mw.make_system({HISTORY_RULES!r}, '[k]')\n"
    "sys.stdout.write(mw.export_dot(mw.evolve(s, 3)))\n"
)


def random_growing_system(rng: Random, letters: str) -> tuple[list[tuple[str, str]], str, str]:
    """Rules that all grow strings over a sampled alphabet, as in acceptance criterion 4."""
    alpha = "".join(rng.sample(letters, rng.randint(2, 3)))
    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 2)))
        rhs = "".join(rng.choice(alpha) for _ in range(len(lhs) + rng.randint(1, 2)))
        rules.append((lhs, rhs))
    init = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 3)))
    return rules, init, alpha


class Algebra:
    """Identities, growth laws, binary reduction and independence, in one process."""

    # The laws take about as long as prod-comm-PE, and the reduction longer.
    law_horizon = 8
    law_states = (1500, 3000)  # states of a drawn pair's product
    law_budget = 120_000  # states of all sums and products: pairs are drawn until they reach it, so seeds cost alike
    # fixed inputs, large enough to time steadily: states_per_s here counts these only
    reduced = (
        ("chain", 5),
        ("constant", 8),
        ("polynomial", 40),
        ("exponential", 10),
        ("burst", 6),
        ("intermediate", 32),
        ("inverse_polynomial", 150),
    )

    def setup(self) -> None:
        make = mw.make_system
        self.P = make([("A", "AB")], "AA")
        self.E = make([("Q", "Qx"), ("Q", "Qy")], "Q")
        self.L = make([("C", "CD")], "CC")
        self.m1 = make([("AB", "BA"), ("B", "AAB")], "AB")
        self.m2 = make([("CD", "CDD"), ("C", "CD")], "CDC")
        self.m3 = make([("P", "Q"), ("Q", "R"), ("Q", "S")], "P")
        self.shared = (make([("A", "AB")], "A"), make([("B", "C")], "B"))
        # an unrelated system interns [zz] before the history operation sees [aa]
        make([("[zz]", "[zz][zz]")], "[zz]")

    def prepare(self, rng: Random) -> None:
        self.identities = [
            ("sum-comm", (self.m1, self.m2)),
            ("sum-assoc", (self.m1, self.m2, self.m3)),
            ("sum-neutral", (self.m1,)),
            ("prod-comm", (self.m1, self.m2)),
            ("prod-assoc", (self.m1, self.m2, self.m3)),
            ("prod-neutral", (self.m1,)),
            ("distributivity", (self.m1, self.m2, self.m3)),
            ("annihilation", (self.m1,)),
        ]
        # Checks of the combinators that do not depend on the pass, made once:
        # exact convolutions of the closed forms (P d+1, E 2**d, L d+1), and
        # distributivity's gap equal to m1's counts from distance 1 on.
        self.fixed_problems = []

        def naive(system, horizon):
            return checks.naive_counts(list(system.rules), system.init, horizon)

        for key, m, horizon, counts in (
            ("P x E", self.E, 10, [2**d for d in range(11)]),
            ("P x L", self.L, 20, [d + 1 for d in range(21)]),
        ):
            want = checks.convolve([d + 1 for d in range(horizon + 1)], counts)
            got = naive(mw.product_systems(self.P, m).system, horizon)
            self.fixed_problems += checks.check_counts(f"{key} (naive expansion)", got, want)
        m1, m2, m3 = self.m1, self.m2, self.m3
        left = mw.product_systems(m1, mw.sum_systems(m2, m3).system).system
        right = mw.sum_systems(mw.product_systems(m1, m2).system, mw.product_systems(m1, m3).system).system
        gap = [r - l for l, r in zip(naive(left, 5), naive(right, 5))]
        self.fixed_problems += checks.check_counts("distributivity gap", gap, [0] + naive(m1, 5)[1:])
        self.pairs, law_total = [], 0
        while law_total < self.law_budget:
            (ra, ia, aa), (rb, ib, ab) = random_growing_system(rng, "ABCDE"), random_growing_system(rng, "VWXYZ")
            ca = checks.naive_counts(ra, ia, self.law_horizon, max_states=self.law_states[1])
            cb = checks.naive_counts(rb, ib, self.law_horizon, max_states=self.law_states[1])
            if ca is None or cb is None or not self.law_states[0] <= sum(checks.convolve(ca, cb)) <= self.law_states[1]:
                continue
            a, b = mw.make_system(ra, ia, alphabet=aa), mw.make_system(rb, ib, alphabet=ab)
            self.pairs.append((a, b, checks.add(ca, cb), checks.convolve(ca, cb)))
            law_total += sum(self.pairs[-1][2]) + sum(self.pairs[-1][3])
        a, b = self.shared
        own = naive(a, 4)
        merged = checks.naive_counts(list(a.rules + b.rules), a.init, 4)
        self.shared_witness = next(d for d, (x, y) in enumerate(zip(own, merged)) if x != y)
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_DOT], cwd=ROOT, env=program_env(), capture_output=True, text=True, check=True
        )
        self.fresh_dot = proc.stdout

    def ops(self) -> list[Op]:
        def prod_comm(m, horizon):
            return lambda p: mw.verify_semiring_identity("prod-comm", self.P, m, horizon=horizon)

        def identities(p):
            return [mw.verify_semiring_identity(name, *operands, horizon=5) for name, operands in self.identities]

        def laws(p):
            out = []
            for a, b, _, _ in self.pairs:
                s, q = mw.sum_systems(a, b), mw.product_systems(a, b)
                # the drawn pairs' sizes vary with the seed, so these stay out of states_per_s
                gs, gq = mw.evolve(s.system, self.law_horizon), mw.evolve(q.system, self.law_horizon)
                out.append((s.growth_law, mw.growth_series(gs).counts, q.growth_law, mw.growth_series(gq).counts))
            return out

        def reduce(p):
            out = []
            for name, horizon in self.reduced:
                r = mw.reduce_to_binary(build(name))
                out.append((r.growth_law, mw.growth_series(p.evolve(r.system, horizon)).counts))
            return out

        def history(p):
            system = mw.make_system(HISTORY_RULES, "[k]")
            return mw.export_dot(p.evolve(system, 3))

        return [
            Op("prod-comm-PE", prod_comm(self.E, 10)),
            Op("prod-comm-PL", prod_comm(self.L, 20)),
            Op("identities", identities),
            Op("laws", laws),
            Op("reduce", reduce),
            Op("independence", lambda p: mw.check_rule_independence(*self.shared, 4)),
            Op("history", history),
        ]

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        problems = list(self.fixed_problems)
        for key in ("prod-comm-PE", "prod-comm-PL"):
            report = outputs[key]
            if not (report.holds and report.mode == "isomorphism"):
                problems.append(f"{key}: {report}")
        for (name, _), report in zip(self.identities, outputs["identities"]):
            if name in ("distributivity", "annihilation"):
                if report.holds or report.counterexample_layer != 1:
                    problems.append(f"{name}: want a counterexample at layer 1, got {report}")
            elif not report.holds:
                problems.append(f"{name}: does not hold ({report})")
        for i, ((law_s, cs, law_p, cp), (_, _, want_s, want_p)) in enumerate(zip(outputs["laws"], self.pairs)):
            if law_s != "exact" or law_p != "exact":
                problems.append(f"pair {i}: growth laws {law_s}/{law_p}")
            problems += checks.check_counts(f"pair {i} sum", cs, want_s)
            problems += checks.check_counts(f"pair {i} product", cp, want_p)
        for (name, horizon), (law, counts) in zip(self.reduced, outputs["reduce"]):
            if law != "exact":
                problems.append(f"reduced {name}: growth law {law}")
            problems += checks.check_counts(f"reduced {name}", counts, checks.closed_form(name, horizon))
        verdict = outputs["independence"]
        if verdict.status != "dependent" or verdict.witness_layer != self.shared_witness:
            problems.append(f"independence: {verdict}, want dependent at layer {self.shared_witness}")
        # known fault: layer order follows the interning table, so it depends on process history
        failed = int(outputs["history"] != self.fresh_dot)
        return failed, problems


WORKLOADS = {"zoo-wide": ZooWide, "long-lineage": LongLineage, "cli": Cli, "algebra": Algebra}
