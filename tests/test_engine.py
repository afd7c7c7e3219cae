"""Regression guard for the exploration engine.

The relations, pair counts, counterexamples and machine numberings that the
back ends produce depend on the first-in-first-out order of their searches;
acceptance criteria 01, 08, 10 and 11 pin sizes that follow from it.  This
test reduces those results on a seeded corpus to one canonical text and pins
its sha256, so any change to visiting order, interning or counterexample
reconstruction shows up here even where no verdict changes.
"""

from __future__ import annotations

import hashlib

from semcheck import (
    SEMANTICS,
    TOP,
    brzozowski_minimize,
    decorate,
    hkc_check,
    naive_bisim,
    random_lts,
    reachable_machine,
    render_eff_label,
    render_output,
)

START_PAIRS = ((frozenset({0}), frozenset({1})),
               (frozenset({0, 1}), frozenset({1})),
               (frozenset(), frozenset({0})))

PINNED_SHA256 = "674bbd10370064ec4afee855c73a0950a3b41b9ed89459caa604b77010d8a109"


def _state(s) -> str:
    return "TOP" if s is TOP else repr(tuple(sorted(s)))


def _pairs(rel) -> str:
    return ";".join(f"{_state(l)}~{_state(r)}" for l, r in rel)


def _word(word) -> str:
    return ".".join(render_eff_label(a) for a in word)


def _engine_lines():
    for seed in range(200):
        lts = random_lts(seed)
        for tag in SEMANTICS:
            try:
                d = decorate(lts, tag)
            except ValueError:  # language needs final states
                continue
            head = f"{seed} {tag}"
            for left, right in START_PAIRS:
                ok, payload = naive_bisim(d, left, right)
                yield f"{head} naive {ok} " + (_pairs(payload) if ok else _word(payload))
                rep = hkc_check(d, left, right)
                cex = "-" if rep.counterexample is None else _word(rep.counterexample)
                yield (f"{head} hkc {rep.equal} {rep.pairs_processed} "
                       f"{_pairs(rep.relation)} {cex}")
            m = reachable_machine(d, [frozenset({0}), frozenset({1})])
            yield f"{head} reach {m.inits} " + ";".join(_state(k) for k in m.state_keys)
            yield f"{head} steps " + ";".join(
                ",".join(f"{render_eff_label(a)}:{row[a]}" for a in m.alphabet)
                for row in m.steps)
            yield f"{head} outputs " + ";".join(
                render_output(o, d.alphabet) for o in m.outputs)
            first, minimal = brzozowski_minimize(d, frozenset({0}))
            yield f"{head} brz {first.n_states} {minimal.n_states}"


def test_engine_results_match_pinned_digest():
    text = "\n".join(_engine_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256
