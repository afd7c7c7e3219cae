"""Checking CLI answers against the pinned references.

``references.json`` holds, per workload, the digest of the corpus it was
pinned for and one expectation per query: a verdict (``equal``) or, for
``minimize``, the state count and the sorted rendered outputs.  A verdict
that says two GPS states differ is also replayed here, with exact arithmetic
and without ``semcheck``: the counterexample word must give the two states
different outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import Corpus, Query, System

REFERENCES = Path(__file__).with_name("references.json")


def load(workload: str) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


# ---------------------------------------------------------------------------
# GPS counterexample replay
# ---------------------------------------------------------------------------

class GpsReplay:
    """Outputs of the five probabilistic decorations after a word, computed
    from the identity-numbered system."""

    def __init__(self, system: System):
        self.alphabet = system.alphabet
        self.index = {nm: i for i, nm in enumerate(system.names)}
        self.rows: Dict[Tuple[int, str], Dict[int, Fraction]] = {}
        emitted: Dict[int, Fraction] = {}
        for x, lab, p, y in system.edges:
            row = self.rows.setdefault((x, lab), {})
            row[y] = row.get(y, Fraction(0)) + p
            emitted[x] = emitted.get(x, Fraction(0)) + p
        self.full = (1 << len(self.alphabet)) - 1
        self.enabled = {x: sum(1 << i for i, a in enumerate(self.alphabet)
                               if (x, a) in self.rows) for x in range(system.n)}
        self.term = {x: 1 - emitted.get(x, Fraction(0)) for x in range(system.n)}

    def output(self, state: str, word: List[str], semantics: str):
        dist = {self.index[state]: Fraction(1)}
        for a in word:
            nxt: Dict[int, Fraction] = {}
            for x, p in dist.items():
                for y, q in self.rows.get((x, a), {}).items():
                    nxt[y] = nxt.get(y, Fraction(0)) + p * q
            dist = nxt
        if semantics == "g_trace":
            return sum(dist.values(), Fraction(0))
        if semantics == "g_mtrace":
            return sum((p * self.term[x] for x, p in dist.items()), Fraction(0))
        fam: Dict[int, Fraction] = {}
        for x, p in dist.items():
            free = self.full & ~self.enabled[x]
            if semantics == "g_ready":
                masks = [self.enabled[x]]
            elif semantics == "g_mfailure":
                masks = [free]
            else:  # g_failure: every refusable set
                masks = [z for z in range(self.full + 1) if z & ~free == 0]
            for z in masks:
                fam[z] = fam.get(z, Fraction(0)) + p
        return {z: w for z, w in fam.items() if w != 0}

    def distinguishes(self, left: str, right: str, word: List[str], semantics: str) -> bool:
        return self.output(left, word, semantics) != self.output(right, word, semantics)


# ---------------------------------------------------------------------------
# Answer checking
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self, corpus: Corpus, refs: dict):
        self.refs = refs["refs"]
        self.replays = {name: GpsReplay(s) for name, s in corpus.systems.items()
                        if s.kind == "gps"}
        self._replayed: Dict[Tuple[str, Tuple[str, ...]], bool] = {}

    def check(self, q: Query, code: int, stdout: str) -> Optional[str]:
        """``None`` when the answer matches the reference, else the reason."""
        if code not in (0, 1):
            return f"exit code {code}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not a JSON report"
        ref = self.refs[q.qid]
        if q.argv[0] == "minimize":
            if code != 0:
                return "minimize exited 1"
            m = report["result"]
            got = {"states": m["states"], "outputs": sorted(m["outputs"]),
                   "intermediate_states": m["intermediate_states"]}
            for key, want in ref.items():
                if key in got and got[key] != want:
                    return f"{key}: got {got[key]!r}, expected {want!r}"
            return None
        verdict = report["result"]
        if verdict is not ref["equal"] or code != (0 if verdict else 1):
            return f"verdict {verdict} (exit {code}), expected {ref['equal']}"
        if q.argv[0] == "gps-equiv" and not verdict:
            word = tuple(report.get("counterexample") or ())
            key = (q.qid, word)
            if key not in self._replayed:
                sem, left, right = q.argv[2], q.argv[4], q.argv[5]
                self._replayed[key] = self.replays[q.system].distinguishes(
                    left, right, list(word), sem)
            if not self._replayed[key]:
                return f"counterexample {list(word)} does not distinguish the states"
        return None
