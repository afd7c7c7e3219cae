#!/usr/bin/env python3
"""Pin the references the benchmark checks every answer against.

Run from the repository root:  python3 perfbench/pin.py

For every query of every workload's identity-numbered corpus:

* equiv / preorder verdicts: every decider that finishes within the cap
  (oracle_equal, naive, hkc, brzozowski) must agree, and must agree with the
  construction's law where the corpus states one; a preorder is pinned as the
  equivalence that defines it (may: {x,y} ~ {y}; must: {x,y} ~ {x});
* minimize: state count, sorted rendered outputs, and the intermediate size
  where the corpus states a law; the state count and outputs must match the
  coarsest partition of the forward-determinised machine;
* gps-equiv: the construction's law (see ``workloads.gps_corpus``), which
  ``gps_equiv`` must agree with.

Any disagreement aborts without writing.  Re-pin only when the corpus
changes; the run refuses a corpus whose digest differs from the pinned one.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import workloads  # noqa: E402
from semcheck import (  # noqa: E402
    CapExceeded, brzozowski_minimize, decide, decorate, gps_equiv,
    moore_partition_classes, parse_gps, parse_lts, reachable_machine,
    render_output)

CROSS_CHECK_CAP = 2_000
DECIDERS = ("oracle", "naive", "hkc", "brzozowski")


def _set(lts, tokens: str) -> frozenset:
    return frozenset(lts.resolve_state(t) for t in tokens.split(",") if t)


def _verdict(lts, q: workloads.Query) -> dict:
    argv = q.argv
    if argv[0] == "equiv":
        sem, left, right = argv[2], _set(lts, argv[6]), _set(lts, argv[7])
    else:  # preorder
        sem = argv[2]
        x, y = lts.resolve_state(argv[4]), lts.resolve_state(argv[5])
        left, right = frozenset({x, y}), frozenset({y} if sem == "may" else {x})
    d = decorate(lts, sem)
    verdicts = {}
    for algo in DECIDERS:
        try:
            verdicts[algo] = decide(d, algo, left, right, CROSS_CHECK_CAP)[0]
        except CapExceeded:
            pass
    if "equal" in q.law:
        verdicts["law"] = q.law["equal"]
    if len(set(verdicts.values())) != 1 or not (set(verdicts) & set(DECIDERS)):
        raise SystemExit(f"{q.qid}: deciders disagree or none finished: {verdicts}")
    return {"equal": next(iter(verdicts.values())), "agreed": sorted(verdicts)}


def _minimal(lts, q: workloads.Query) -> dict:
    sem, init = q.argv[2], _set(lts, q.argv[4])
    d = decorate(lts, sem)
    inter, minimal = brzozowski_minimize(d, init)
    outputs = sorted(render_output(o, lts.alphabet) for o in minimal.outputs)
    forward = reachable_machine(d, [init])
    blocks = moore_partition_classes(forward)
    classes = {}
    for state, block in enumerate(blocks):
        classes.setdefault(block, render_output(forward.outputs[state], lts.alphabet))
    if len(classes) != minimal.n_states or sorted(classes.values()) != outputs:
        raise SystemExit(f"{q.qid}: double reversal and partition refinement differ")
    ref = {"states": minimal.n_states}
    if sem != "pfutures":  # pfutures outputs name trace classes numbered by state order
        ref["outputs"] = outputs
    for key, want in q.law.items():
        got = {"states": minimal.n_states, "intermediate_states": inter.n_states}[key]
        if got != want:
            raise SystemExit(f"{q.qid}: {key} is {got}, law says {want}")
        ref[key] = want
    ref["agreed"] = ["brzozowski", "partition"] + (["law"] if q.law else [])
    return ref


def _gps(g, q: workloads.Query) -> dict:
    sem, x, y = q.argv[2], g.resolve_state(q.argv[4]), g.resolve_state(q.argv[5])
    equal, _ = gps_equiv(g, sem, x, y)
    if equal is not q.law["equal"]:
        raise SystemExit(f"{q.qid}: gps_equiv says {equal}, law says {q.law['equal']}")
    return {"equal": equal, "agreed": ["gps_equiv", "law"]}


def pin_workload(name: str) -> dict:
    corpus = workloads.build_corpus(name)
    systems = {sname: (parse_gps if s.kind == "gps" else parse_lts)(s.render())
               for sname, s in corpus.systems.items()}
    refs = {}
    for q in corpus.queries:
        system = systems[q.system]
        if q.argv[0] == "minimize":
            refs[q.qid] = _minimal(system, q)
        elif q.argv[0] == "gps-equiv":
            refs[q.qid] = _gps(system, q)
        else:
            refs[q.qid] = _verdict(system, q)
        print(f"{name} {q.qid}: {refs[q.qid]}", file=sys.stderr)
    return {"corpus_seed": workloads.CORPUS_SEEDS[name], "digest": corpus.digest(),
            "refs": refs}


def main() -> int:
    out = {
        "produced_by": "python3 perfbench/pin.py",
        "python": platform.python_version(),
        "how": {
            "equal": "verdict; 'agreed' lists the deciders (cap "
                     f"{CROSS_CHECK_CAP}) and construction laws that gave it",
            "states/outputs": "minimal machine by double reversal, matched "
                              "against partition refinement of the forward machine; "
                              "no outputs under pfutures, whose outputs are trace-class "
                              "numbers that depend on the state numbering",
            "intermediate_states": "construction law 2^(n+1)-1 for the chain family",
        },
        "workloads": {w: pin_workload(w) for w in workloads.WORKLOADS},
    }
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
