"""The may/must joins over sets of states, read at their tau-roots.

Under may and must every determinised state is read by joining its members'
rows and values, and a member another member tau-reaches adds nothing to
either join, so the joins read only the members ``root_bits`` keeps.  The
digest test runs the pair walks (hkc, naive, both preorders), the forward
subset construction and both passes of the double reversal on seeded
tau-rich systems from seeded start sets, reduces everything they build to
one canonical text and pins its sha256, which was taken while every join
still read every member.  A join that reads fewer members of a set than it
needs shows there even where no verdict moves.
"""

from __future__ import annotations

import hashlib
import random

from semcheck import (
    TAU,
    TOP,
    Lts,
    brzozowski_minimize,
    converges_on,
    decorate,
    divergent_states,
    hkc_check,
    naive_bisim,
    preorder_check,
    random_lts,
    reachable_machine,
    weak_successors,
)
from semcheck.lts import ROOT_WALK, join_at, mask_bits, mask_states, root_bits

from test_tau import tau_rich_lts

PINNED_SHA256 = "f35469692092754353d08a3724713667ebd7081fe19150a4bcd92828bc00a04d"


def _corpus():
    for seed in range(1000):
        yield f"rich{seed}", tau_rich_lts(seed)
    for seed in range(300):
        yield f"random{seed}", random_lts(seed)


def _starts(rng: random.Random, n: int):
    """Two pairs of singletons and two pairs of non-empty state masks."""
    one = lambda: 1 << rng.randrange(n)
    some = lambda: rng.getrandbits(n) | one()
    return [(one(), one()), (one(), one()), (some(), some()), (some(), some())]


def _set(s) -> str:
    return "TOP" if s is TOP else repr(sorted(s))


def _machine(m) -> str:
    return f"keys {m.keys!r} values {m.values!r} steps {m.steps!r} inits {m.inits!r}"


def _lines(name: str, lts):
    for sem in ("may", "must"):
        d = decorate(lts, sem)
        rng = random.Random(f"{name} {sem}")
        for left, right in _starts(rng, lts.n_states):
            yield f"{name} {sem} {left:b} {right:b}"
            rep = hkc_check(d, left, right)
            yield (f"hkc {rep.equal} {rep.masks!r} {rep.pairs_processed} "
                   f"{rep.counterexample!r}")
            equal, payload = naive_bisim(d, mask_states(left), mask_states(right))
            yield f"naive {equal} " + (" ".join(f"{_set(l)}~{_set(r)}" for l, r in payload)
                                       if equal else repr(payload))
            yield "forward " + _machine(reachable_machine(d, [left, right]))
            for inits in (left, right):
                for m in brzozowski_minimize(d, mask_states(inits)):
                    yield "reversal " + _machine(m)
        x, y = rng.randrange(lts.n_states), rng.randrange(lts.n_states)
        for a, b in ((x, y), (y, x)):
            rep = preorder_check(d, sem, a, b)
            yield (f"preorder {a} {b} {rep.equal} {rep.masks!r} {rep.pairs_processed} "
                   f"{rep.counterexample!r}")


def test_may_must_joins_match_pinned_digest():
    text = "\n".join(line for name, lts in _corpus() for line in _lines(name, lts))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# -- the read itself ---------------------------------------------------------


def _walk(mask, cover):
    """Every member the lowest-first walk keeps, with no bound on the walk."""
    out = []
    while mask:
        x = (mask & -mask).bit_length() - 1
        out.append(x)
        mask &= ~cover[x]
    return out


def test_root_bits_keeps_a_cover_of_the_set():
    for name, lts in _corpus():
        rng = random.Random(name)
        closure = lts._tau.closure
        for sem in ("may", "must"):
            d = decorate(lts, sem)
            assert d.cover is closure, name
            for _ in range(4):
                mask = rng.getrandbits(lts.n_states)
                kept = _walk(mask, closure)
                assert root_bits(mask, closure) == (kept if len(kept) <= ROOT_WALK else None)
                assert kept == sorted(set(kept)), (name, mask)
                assert all(mask >> x & 1 for x in kept), (name, mask)
                covered = join_at(closure, kept)
                assert not mask & ~covered, (name, mask)
                members = mask_bits(mask)
                assert join_at(d.values, kept) == join_at(d.values, members), (name, sem, mask)
                for rows in d.masks.values():
                    assert join_at(rows, kept) == join_at(rows, members), (name, sem, mask)


def test_root_bits_without_a_cover_reads_every_member():
    rng = random.Random(0)
    for width in (1, 8, 9, 64, 300):
        assert root_bits(rng.getrandbits(width), None) is None


def test_root_bits_keeps_one_state_of_a_tau_chain():
    # 0 -tau-> 1 -tau-> ... -> 9: the lowest member's closure holds the rest
    closure = tuple(((1 << 10) - 1) ^ ((1 << x) - 1) for x in range(10))
    assert root_bits(0b1011010100, closure) == [2]
    # numbered backwards (9 -tau-> 8 ... -> 0), every member is kept
    backwards = tuple((1 << x + 1) - 1 for x in range(10))
    assert root_bits(0b1011010100, backwards) == [2, 4, 6, 7, 9]


def test_root_bits_gives_up_a_walk_that_keeps_too_many():
    # 40 -tau-> 39 ... -> 0: the walk keeps every member it meets, so past
    # ROOT_WALK kept members it hands the set to a full read
    backwards = tuple((1 << x + 1) - 1 for x in range(41))
    assert root_bits((1 << ROOT_WALK) - 1, backwards) == list(range(ROOT_WALK))
    assert root_bits((1 << ROOT_WALK + 1) - 1, backwards) is None
    # forwards, the lowest member covers the rest however many there are
    forwards = tuple(((1 << 41) - 1) ^ ((1 << x) - 1) for x in range(41))
    assert root_bits((1 << 41) - 1, forwards) == [0]


def test_the_cover_is_not_a_field():
    lts = tau_rich_lts(3)
    d = decorate(lts, "must")
    assert d.cover is not None
    bare = type(d)(*(getattr(d, f) for f in d._fields))
    assert bare.cover is None
    assert bare == d and repr(bare) == repr(d)


def _tau_chains(order):
    """Two copies of order[0] -tau-> order[1] -tau-> ..., the second shifted
    by len(order) + 2: every chain state has an a-self-loop, and each head
    has a b-edge to a divergent state (a tau-self-loop) and a tau-edge to a
    stuck state, numbered after the chain.  So only a set holding a head
    offers b, and under must only a head's value refuses a."""
    n, t = len(order), {}
    for shift in (0, n + 2):
        chain, sink, stuck = [x + shift for x in order], n + shift, n + 1 + shift
        t.update({(x, TAU): frozenset({y}) for x, y in zip(chain, chain[1:])})
        t.update({(x, "a"): frozenset({x}) for x in chain})
        t[(chain[0], "b")] = t[(sink, TAU)] = frozenset({sink})
        t[(chain[0], TAU)] = frozenset({chain[1], stuck})
    return Lts(2 * n + 4, ("a", "b"), t)


def _converges(lts, x, word) -> bool:
    """``converges_on`` from the weak successors of every member."""
    div, frontier = divergent_states(lts), {x}
    for a in word:
        if frontier & div:
            return False
        frontier = {z for y in frontier for z in weak_successors(lts, y, a)}
    return not frontier & div


def test_reads_that_give_up_build_what_full_reads_build():
    # Two 60-state tau-chains numbered forwards (one state kept a set), from
    # their ends (every state kept, so each wide set goes to a full read) and
    # at random: the walks, both reversal passes and ``converges_on`` read
    # through the cover, and a decoration without one reads every member.
    # The walks between the two heads are equal and expand every wide set;
    # each walk gives the same relation (naive's as masks) or word either way.
    n = 60
    shuffled = list(range(n))
    random.Random(60).shuffle(shuffled)
    for order in (list(range(n)), list(range(n - 1, -1, -1)), shuffled):
        lts = _tau_chains(order)
        for sem in ("may", "must"):
            d = decorate(lts, sem)
            bare = type(d)(*(getattr(d, f) for f in d._fields))
            assert d.cover is not None and bare.cover is None
            first, last, twin = 1 << order[0], 1 << order[-1], 1 << order[0] + n + 2
            assert _machine(reachable_machine(d, [first, last])) == \
                _machine(reachable_machine(bare, [first, last]))
            for walk in (lambda e: naive_bisim(e, first, twin),
                         lambda e: hkc_check(e, first, twin),
                         lambda e: hkc_check(e, first, last),
                         lambda e: preorder_check(e, sem, order[0] + n + 2, order[0])):
                assert walk(d) == walk(bare)
            for inits in (first, last, first | last):
                got = brzozowski_minimize(d, mask_states(inits))
                want = brzozowski_minimize(bare, mask_states(inits))
                assert [_machine(m) for m in got] == [_machine(m) for m in want]
        for x in (order[0], order[-1]):
            for word in ("", "a", "b", "ab", "aab", "ba"):
                assert converges_on(lts, x, word) == _converges(lts, x, word), (x, word)
