"""Regression guard for the tau layer.

Closures, weak rows, divergence and convergence are the ground the may and
must decorations stand on, and each can be computed in several equivalent
ways.  This test reduces them, and the may/must rows and outputs built from
them, on a seeded corpus of tau-rich systems to one canonical text and pins
its sha256, so any change in what the tau primitives return shows up here.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from semcheck import (
    TAU,
    TOP,
    Lts,
    converges_on,
    decorate,
    divergent_states,
    format_lts,
    parse_lts,
    preorder_check,
    random_lts,
    render_output,
    tau_closure,
    weak_successors,
)

from conftest import load_lts

PINNED_SHA256 = "1b72d2b5b3c425312f5562b40c8c5b00a5b91ea3200b8968fe66e3ee2eb248e0"

FIXTURES = ("must-x", "must-y", "must-xy", "brz-must")


def tau_rich_lts(seed: int) -> Lts:
    """1-12 states, 1-3 labels, visible edge density 0.2, tau density 0.25."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    labels = ("a", "b", "c")[: rng.randint(1, 3)]
    t = {}
    for x in range(n):
        for lab in labels + (TAU,):
            density = 0.25 if lab == TAU else 0.2
            ys = frozenset(y for y in range(n) if rng.random() < density)
            if ys:
                t[(x, lab)] = ys
    return Lts(n, labels, t)


def _set(s) -> str:
    return "TOP" if s is TOP else repr(tuple(sorted(s)))


def _tau_lines(name: str, lts: Lts):
    div = divergent_states(lts)
    words = [w for k in range(3) for w in itertools.product(lts.alphabet, repeat=k)]
    may, must = decorate(lts, "may"), decorate(lts, "must")
    for x in range(lts.n_states):
        yield f"{name} {x} closure {_set(tau_closure(lts, x))} div {x in div}"
        yield f"{name} {x} weak " + " ".join(
            f"{a}:{_set(weak_successors(lts, x, a))}" for a in lts.alphabet)
        yield f"{name} {x} conv " + "".join(
            "1" if converges_on(lts, x, w) else "0" for w in words)
        for d in (may, must):
            yield f"{name} {x} {d.semantics} " + " ".join(
                f"{a}:{_set(d.row(x, a))}" for a in lts.alphabet) + (
                " out " + render_output(d.output(x), lts.alphabet))


def _corpus():
    for seed in range(1000):
        yield f"rich{seed}", tau_rich_lts(seed)
    for seed in range(1000):
        yield f"random{seed}", random_lts(seed)
    for name in FIXTURES:
        yield name, load_lts(name)


def test_tau_layer_matches_pinned_digest():
    text = "\n".join(line for name, lts in _corpus() for line in _tau_lines(name, lts))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# -- the may preorder is weak-trace inclusion --------------------------------


def _tau_star(lts: Lts, states) -> set:
    """``states`` and every state they reach by tau steps, by plain
    breadth-first search over ``lts.transitions``."""
    seen, todo = set(states), list(states)
    while todo:
        for z in lts.transitions.get((todo.pop(), TAU), ()):
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


def _weak_step(lts: Lts, states, a) -> set:
    return _tau_star(lts, {z for y in states for z in lts.transitions.get((y, a), ())})


# -- tau-free roots ----------------------------------------------------------


def _assert_tau_layer_matches_reference(lts: Lts) -> None:
    """Closures, weak rows and divergence against plain searches over
    ``lts.transitions``: a state diverges when its closure holds a state
    that tau-reaches itself in one or more steps."""
    on_cycle = {z for z in range(lts.n_states)
                if z in _tau_star(lts, lts.transitions.get((z, TAU), ()))}
    div = divergent_states(lts)
    for x in range(lts.n_states):
        closure = _tau_star(lts, {x})
        assert tau_closure(lts, x) == closure, x
        for a in lts.alphabet:
            assert weak_successors(lts, x, a) == _weak_step(lts, closure, a), (x, a)
        assert (x in div) == bool(closure & on_cycle), x


def test_tau_free_roots_are_components_of_their_own():
    # 0 has no tau edge and is a root before 1 and 2, which tau-reach it.
    late = Lts(3, ("a",), {(0, "a"): frozenset({1}), (1, TAU): frozenset({0}),
                          (2, TAU): frozenset({1}), (2, "a"): frozenset({2})})
    # 0 and 2 have no tau edge; 1 and 3 lie on a tau-cycle that reaches 2,
    # and 4 reaches the cycle.
    divergent = Lts(5, ("a", "b"), {
        (0, "a"): frozenset({1}), (1, TAU): frozenset({2, 3}),
        (2, "b"): frozenset({0}), (3, TAU): frozenset({1}),
        (4, TAU): frozenset({3}), (4, "a"): frozenset({4})})
    for lts in (late, divergent):
        _assert_tau_layer_matches_reference(lts)
    assert divergent_states(divergent) == frozenset({1, 3, 4})
    # no tau edge at all: every state is its own closure, the weak rows are
    # the strong rows and nothing diverges
    for lts in (random_lts(seed, allow_tau=False) for seed in range(50)):
        _assert_tau_layer_matches_reference(lts)
        tau = lts._tau
        assert tau.closure == tuple(1 << x for x in range(lts.n_states))
        assert tau.weak == lts._rows
        assert tau.divergent == 0


# -- the walk over tau-moving states -----------------------------------------


def test_tau_layer_matches_reference_on_random_systems():
    for lts in map(tau_rich_lts, range(1000)):
        _assert_tau_layer_matches_reference(lts)
    for lts in map(random_lts, range(300)):
        _assert_tau_layer_matches_reference(lts)


def test_tau_layer_matches_reference_on_shapes():
    shapes = {
        # 3 has no tau edge and is reached only from 1 and 2, which move
        "tau-free-below-movers": Lts(4, ("a",), {
            (0, TAU): frozenset({1, 2}), (1, TAU): frozenset({3}),
            (2, TAU): frozenset({3}), (3, "a"): frozenset({0})}),
        # the cycle {0, 1} reaches the cycle {2, 3, 4}, which leaves by tau
        # to 5, which has no tau edge
        "cycle-into-cycle": Lts(6, ("a", "b"), {
            (0, TAU): frozenset({1}), (1, TAU): frozenset({0, 2}),
            (2, TAU): frozenset({3}), (3, TAU): frozenset({4}),
            (4, TAU): frozenset({2, 5}), (0, "a"): frozenset({3}),
            (3, "b"): frozenset({5}), (5, "a"): frozenset({0, 5})}),
        # 0 loops on tau and heads the chain 0 -> 1 -> 2 -> 3
        "self-loop-head": Lts(4, ("a",), {
            (0, TAU): frozenset({0, 1}), (1, TAU): frozenset({2}),
            (2, TAU): frozenset({3}), (1, "a"): frozenset({0}),
            (3, "a"): frozenset({3})}),
    }
    for lts in shapes.values():
        _assert_tau_layer_matches_reference(lts)
    assert divergent_states(shapes["tau-free-below-movers"]) == frozenset()
    assert divergent_states(shapes["cycle-into-cycle"]) == frozenset({0, 1, 2, 3, 4})
    assert divergent_states(shapes["self-loop-head"]) == frozenset({0})


def test_tau_layer_does_not_follow_the_order_of_the_tau_lines():
    # A parsed system's tau rows are stored in the order of its lines, so
    # shuffled lines start the walk from states out of index order.
    out_of_order = 0
    for seed in range(300):
        lts = tau_rich_lts(seed)
        text = format_lts(lts).splitlines(keepends=True)
        header, lines = text[:2], text[2:]   # the lts and alphabet lines
        random.Random(seed).shuffle(lines)
        parsed = parse_lts("".join(header + lines))
        movers = list(parsed._edges[TAU])
        out_of_order += movers != sorted(movers)
        _assert_tau_layer_matches_reference(parsed)
        assert parsed._tau == lts._tau, seed
    assert out_of_order > 100


def test_100000_state_tau_chain_decorates():
    # 0 -> 1 -> ... -> n-2 -> 0 is one tau-cycle, n-2 also steps by tau to
    # n-1, which has no tau edge.  The walk goes n-1 states deep.  The chain
    # returns to its head because a straight chain's closures alone would
    # take n**2 / 2 bits.
    n = 100_000
    lines = [f"lts {n}", "alphabet a"]
    lines += [f"{i} tau {i + 1}" for i in range(n - 2)]
    lines += [f"{n - 2} tau 0", f"{n - 2} tau {n - 1}", f"0 a {n - 1}", f"{n - 1} a {n - 1}"]
    lts = parse_lts("\n".join(lines) + "\n")
    may, must = decorate(lts, "may"), decorate(lts, "must")
    assert tau_closure(lts, 0) == frozenset(range(n))
    assert divergent_states(lts) == frozenset(range(n - 1))
    assert weak_successors(lts, n - 3, "a") == frozenset({n - 1})
    assert may.row(0, "a") == may.row(n - 1, "a") == frozenset({n - 1})
    assert must.row(0, "a") is TOP
    assert must.row(n - 1, "a") == frozenset({n - 1})


def _weak_reach(lts: Lts, x: int, word) -> frozenset:
    """The states ``x`` reaches by ``word`` with any tau steps around each
    visible step."""
    states = _tau_star(lts, {x})
    for a in word:
        states = _weak_step(lts, states, a)
    return frozenset(states)


def test_may_preorder_is_weak_trace_inclusion():
    pairs = below = 0
    for seed in range(300):
        lts = tau_rich_lts(seed)
        d = decorate(lts, "may")
        words = [w for k in range(5) for w in itertools.product(lts.alphabet, repeat=k)]
        traces = [{w for w in words if _weak_reach(lts, x, w)}
                  for x in range(lts.n_states)]
        for x in range(lts.n_states):
            for y in range(lts.n_states):
                rep = preorder_check(d, "may", x, y)
                pairs += 1
                if rep.equal:
                    below += 1
                    assert traces[x] <= traces[y], (seed, x, y)
                else:
                    word = rep.counterexample
                    assert _weak_reach(lts, x, word), (seed, x, y, word)
                    assert not _weak_reach(lts, y, word), (seed, x, y, word)
    assert pairs > 5000 and 0 < below < pairs


# -- the must preorder is per-word inclusion of must outputs -----------------


def _must_walk(lts: Lts, x: int, words):
    """``x``'s determinised must output after each of ``words`` (a list
    closed under prefixes, shorter words first), by a plain walk: TOP once
    the walk passes a divergent state, otherwise the sets of labels refused
    by some stable state it reached, each set a mask over the alphabet."""
    divergent = {y for y in range(lts.n_states)
                 if any(z in _tau_star(lts, lts.transitions.get((z, TAU), ()))
                        for z in _tau_star(lts, {y}))}
    full = (1 << len(lts.alphabet)) - 1
    refuses = {y: full & ~sum(1 << i for i, a in enumerate(lts.alphabet)
                              if lts.transitions.get((y, a)))
               for y in range(lts.n_states) if not lts.transitions.get((y, TAU))}
    reached = {(): _tau_star(lts, {x})}
    outputs = {}
    for w in words:
        states = reached[w[:-1]] if w else reached[()]
        if states is not TOP and w:
            states = _weak_step(lts, states, w[-1])
        if states is not TOP and states & divergent:
            states = TOP
        reached[w] = states
        outputs[w] = TOP if states is TOP else frozenset(
            sub for y in states if y in refuses
            for sub in range(full + 1) if sub & refuses[y] == sub)
    return outputs


def _below(lower, upper) -> bool:
    return upper is TOP or (lower is not TOP and lower <= upper)


def test_must_preorder_is_per_word_must_output_inclusion():
    """preorder_check(must, x, y) says below exactly when y's must output
    after every word lies below x's: checked on every word up to length 4
    for a verdict of below, and on the counterexample word otherwise."""
    pairs = below = 0
    for seed in range(300):
        lts = tau_rich_lts(seed)
        d = decorate(lts, "must")
        words = [w for k in range(5) for w in itertools.product(lts.alphabet, repeat=k)]
        outputs = [_must_walk(lts, x, words) for x in range(lts.n_states)]
        for x in range(lts.n_states):
            for y in range(lts.n_states):
                rep = preorder_check(d, "must", x, y)
                pairs += 1
                if rep.equal:
                    below += 1
                    assert all(_below(outputs[y][w], outputs[x][w]) for w in words), (seed, x, y)
                else:
                    word = tuple(rep.counterexample)
                    prefixes = [word[:k] for k in range(len(word) + 1)]
                    after_x, after_y = (_must_walk(lts, z, prefixes)[word] for z in (x, y))
                    assert not _below(after_y, after_x), (seed, x, y, word)
    assert pairs > 5000 and 0 < below < pairs
