"""Show that every check of the benchmark catches a wrong output.

    python3 perfbench/selftest.py

Each workload's check is first handed right outputs, which must pass, then
copies with one fault each: a series off by one, a swapped verdict, a wrong
growth law, a lost DOT edge.  Every faulty copy must be caught.  The right
outputs come from closed forms and the naive expander, except for ``cli``,
whose commands are run once.  Exits 1 if any fault goes unnoticed.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path
from random import Random
from types import SimpleNamespace as NS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

missed: list[str] = []


def expect(label: str, result: tuple[int, list[str]], caught: bool, failed: int = 0) -> None:
    got_failed, problems = result
    ok = bool(problems) == caught and got_failed == failed
    if not ok:
        missed.append(f"{label}: problems={problems} failed={got_failed}")
    print(f"{'ok  ' if ok else 'MISS'} {label}")


def off_by_one(series: list[int], at: int) -> list[int]:
    out = list(series)
    out[at] += 1
    return out


def report(name: str):
    up_kind, up_param, low_kind, low_param, _, regular = checks.VERDICTS[name]
    return NS(
        upper_class=NS(kind=up_kind, parameter=up_param),
        lower_class=NS(kind=low_kind, parameter=low_param if low_param is not None else up_param),
        regular=regular,
    )


def zoo_wide() -> None:
    w = workloads.ZooWide()
    w.setup()
    w.prepare(Random(1))
    right = {}
    for name in w.names:
        horizon = workloads.mw.ZOO[name].classify_horizon
        counts = checks.closed_form(name, horizon) if name != "oscillating_composite" else None
        right[name] = (counts, report(name), False, copy.deepcopy(w.naive) if counts is None else None)
    expect("zoo-wide right outputs", w.check(right), caught=False)
    for name in w.names:
        counts, rep, truncated, head = right[name]
        bad = dict(right)
        if head is None:
            bad[name] = (off_by_one(counts, len(counts) - 1), rep, truncated, head)
        else:
            layers = copy.deepcopy(head)
            layers[-1].pop()
            bad[name] = (counts, rep, truncated, layers)
        expect(f"zoo-wide {name} off by one", w.check(bad), caught=True)
        swapped = copy.deepcopy(rep)
        swapped.upper_class.kind = "Exp" if rep.upper_class.kind != "Exp" else "Pol"
        bad[name] = (counts, swapped, truncated, head)
        expect(f"zoo-wide {name} swapped verdict", w.check(bad), caught=True)
    bad = dict(right)
    rep = copy.deepcopy(right["polynomial"][1])
    rep.upper_class.parameter = 2.5
    bad["polynomial"] = (right["polynomial"][0], rep, False, None)
    expect("zoo-wide polynomial degree out of tolerance", w.check(bad), caught=True)
    rep = copy.deepcopy(right["oscillating_composite"][1])
    rep.regular = "regular"
    bad["oscillating_composite"] = (None, rep, False, right["oscillating_composite"][3])
    expect("zoo-wide composite called regular", w.check(bad), caught=True)


def long_lineage() -> None:
    w = workloads.LongLineage()
    w.setup()
    w.prepare(Random(1))
    right = list(w.expected)
    expect("long-lineage right staircase", w.check({"log_system": (right, False)}), caught=False)
    for at in (800, 1200, 1600):
        bad = off_by_one(right, at)
        expect(f"long-lineage off by one at {at}", w.check({"log_system": (bad, False)}), caught=True)
    # the sandwich is loose: one step off stays inside it, which the staircase
    # check above catches; a staircase twice as high leaves it
    expect("log sandwich, one step off", (0, checks.check_log_sandwich("x", off_by_one(right, 1600))), caught=False)
    expect("log sandwich, twice as high", (0, checks.check_log_sandwich("x", [2 * c for c in right])), caught=True)


def algebra() -> None:
    w = workloads.Algebra()
    w.setup()
    w.prepare(Random(1))
    ident = {
        name: NS(holds=name not in ("distributivity", "annihilation"), counterexample_layer=None if name not in ("distributivity", "annihilation") else 1)
        for name, _ in w.identities
    }
    right = {
        "prod-comm-PE": NS(holds=True, mode="isomorphism"),
        "prod-comm-PL": NS(holds=True, mode="isomorphism"),
        "identities": [ident[name] for name, _ in w.identities],
        "laws": [("exact", s, "exact", p) for _, _, s, p in w.pairs],
        "reduce": [("exact", checks.closed_form(name, h)) for name, h in w.reduced],
        "independence": NS(status="dependent", witness_layer=w.shared_witness),
        "history": w.fresh_dot,
    }
    expect("algebra right outputs", w.check(right), caught=False)
    faults = {
        "prod-comm refuted": ("prod-comm-PE", NS(holds=False, mode="isomorphism")),
        "distributivity holds": ("identities", [NS(holds=True, counterexample_layer=None) if n == "distributivity" else ident[n] for n, _ in w.identities]),
        "annihilation at layer 2": ("identities", [NS(holds=False, counterexample_layer=2) if n == "annihilation" else ident[n] for n, _ in w.identities]),
        "sum law off by one": ("laws", [("exact", off_by_one(s, 2), "exact", p) for _, _, s, p in w.pairs]),
        "product law off by one": ("laws", [("exact", s, "exact", off_by_one(p, 8)) for _, _, s, p in w.pairs]),
        "lower-bound growth law": ("laws", [("lower_bound", s, "exact", p) for _, _, s, p in w.pairs]),
        "reduced counts off by one": ("reduce", [("exact", off_by_one(checks.closed_form(n, h), 1)) for n, h in w.reduced]),
        "independence swapped": ("independence", NS(status="independent_up_to_horizon", witness_layer=None)),
    }
    for label, (key, value) in faults.items():
        expect(f"algebra {label}", w.check({**right, key: value}), caught=True)
    expect("algebra history-dependent DOT", w.check({**right, "history": w.fresh_dot + " "}), caught=False, failed=1)


def cli() -> None:
    w = workloads.Cli()
    w.setup()
    w.prepare(Random(1))
    p = workloads.Pass()
    right = {op.name: op.digest(p, op.run(p), 0.0) for op in w.ops()}
    expect("cli right outputs", w.check(right), caught=False)

    def tamper(name, fn):
        code, stdout, stderr, files = right[name]
        bad_stdout, bad_files = fn(stdout, dict(files))
        expect(f"cli {name} tampered", w.check({**right, name: (code, bad_stdout, stderr, bad_files)}), caught=True)

    tamper("simulate-csv", lambda out, f: (out.replace("\n4,81,", "\n4,82,"), f))
    tamper("simulate-json", lambda out, f: (out.replace('"count": 6,', '"count": 7,', 1), f))
    tamper("simulate-dot", lambda out, f: ("\n".join(l for l in out.splitlines() if "-> n5 " not in l) + "\n", f))
    tamper("classify-polynomial", lambda out, f: (out.replace('"kind": "Pol"', '"kind": "Exp"', 1), f))
    tamper("classify-intermediate", lambda out, f: (out.replace('"counts": [\n    1,\n    3,', '"counts": [\n    1,\n    4,'), f))
    tamper("classify-inverse_polynomial", lambda out, f: (out.replace('"regular": "regular"', '"regular": "oscillating"'), f))
    tamper("compile-tm", lambda out, f: (out, {**f, "": "\n".join(f[""].splitlines()[:-1]) + "\n"}))
    tamper("product", lambda out, f: (out, {**f, ".provenance.json": f[".provenance.json"].replace('"exact"', '"lower_bound"')}))
    tamper("reduce", lambda out, f: (out, {**f, "": f[""].replace("rule: ", "rule: a", 1)}))
    tamper("zoo-list", lambda out, f: ("\n".join(out.splitlines()[:-1]) + "\n", f))
    tamper("version", lambda out, f: ("", f))
    expect("cli nonzero exit", w.check({**right, "version": (2, "", "usage", {})}), caught=True)


if __name__ == "__main__":
    for part in (zoo_wide, long_lineage, algebra, cli):
        part()
    print(f"{len(missed)} faults missed")
    for line in missed:
        print("  " + line)
    sys.exit(1 if missed else 0)
