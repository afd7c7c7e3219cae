"""Double-reversal minimisation and Moore-machine isomorphism."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from semcheck import (
    SEMANTICS,
    CapExceeded,
    MooreMachine,
    Output,
    VariantMismatch,
    behavior,
    brzozowski,
    brzozowski_minimize,
    decorate,
    equiv_via_minimization,
    explicit_reversal,
    full_mask,
    gen_chain,
    moore_isomorphic,
    moore_partition_classes,
    parse_lts,
    random_lts,
    reachable_machine,
    render_eff_label,
    render_output,
    reverse_determinize,
    submasks,
)

from conftest import load_lts


def s(*xs):
    return frozenset(xs)


def fam(*masks):
    return Output("family", frozenset(masks))


# -- reversal passes on a small failure example ------------------------------


def test_minimize_failure_example_shapes():
    lts = load_lts("brz-p")
    d = decorate(lts, "failure")
    inter, mini = brzozowski_minimize(d, s(0))
    powerset = frozenset(submasks(full_mask(lts.alphabet)))

    assert inter.n_states == 4
    assert [v.value for v in inter.outputs] == [
        frozenset({0}), frozenset({0}), powerset, frozenset()]
    assert inter.steps[0] == {"a": 1, "b": 2, "c": 2}
    assert inter.steps[1] == {"a": 1, "b": 3, "c": 3}
    assert inter.steps[2] == {"a": 2, "b": 3, "c": 3}
    assert inter.steps[3] == {"a": 3, "b": 3, "c": 3}

    assert mini.n_states == 3
    assert [v.value for v in mini.outputs] == [frozenset({0}), powerset, frozenset()]
    assert mini.steps == [
        {"a": 0, "b": 1, "c": 1},
        {"a": 2, "b": 2, "c": 2},
        {"a": 2, "b": 2, "c": 2},
    ]


def test_minimal_machine_realises_original_behaviour():
    lts = load_lts("brz-p")
    d = decorate(lts, "failure")
    _, mini = brzozowski_minimize(d, s(0))
    for n in range(4):
        for word in itertools.product(lts.alphabet, repeat=n):
            assert mini.run(word) == behavior(d, s(0), word)


# -- language example: intermediate sizes and isomorphism --------------------


def test_language_example_intermediate_and_minimal():
    lts = load_lts("eq-automata")
    d = decorate(lts, "language")
    x, u = lts.resolve_state("x"), lts.resolve_state("u")

    inter_x, mini_x = brzozowski_minimize(d, s(x))
    assert inter_x.n_states == 4
    # Pass 1 restricts coordinates to states forward-reachable from the start,
    # so the reversal's start vector is the output vector over {x, y, z}.
    assert inter_x.state_keys[inter_x.inits[0]] == (
        Output("bit", 0), Output("bit", 1), Output("bit", 0))
    assert mini_x.n_states == 4

    inter_u, mini_u = brzozowski_minimize(d, s(u))
    assert inter_u.n_states == 6
    assert mini_u.n_states == 4

    assert moore_isomorphic(mini_x, mini_u)


# -- must example: full structure of the minimal machine ---------------------


def test_minimize_must_example_structure():
    lts = load_lts("brz-must")
    d = decorate(lts, "must")
    x1 = lts.resolve_state("x1")
    inter, mini = brzozowski_minimize(d, s(x1))
    assert inter.n_states == 6
    assert mini.n_states == 5
    rendered = sorted(render_output(v, lts.alphabet) for v in mini.outputs)
    # One state diverges (TOP); the deadlock-free start refuses only the empty
    # set; the state after ab refuses the empty set as well (it is stable and
    # convergent, so its refusal family cannot be empty).
    assert rendered == ["TOP", "{" + "{},{a},{b}" + "}", "{" + "{},{b}" + "}",
                        "{" + "{}" + "}", "{}"]
    assert render_output(behavior(d, s(x1), ("a", "b")), lts.alphabet) == "{{}}"
    assert render_output(behavior(d, s(x1), ("b",)), lts.alphabet) == "{}"


# -- reverse-behaviour law ---------------------------------------------------


def test_reversal_behaviour_is_reversed_behaviour():
    lts = load_lts("brz-p")
    d = decorate(lts, "failure")
    lazy = reverse_determinize(d, s(0))
    for n in range(4):
        for word in itertools.product(lts.alphabet, repeat=n):
            assert lazy.behavior(word) == behavior(d, s(0), tuple(reversed(word)))


def test_explicit_reversal_cap_names_stage():
    lts = gen_chain(8)
    d = decorate(lts, "must")
    far_end = lts.resolve_state("x8")
    with pytest.raises(CapExceeded) as exc:
        brzozowski_minimize(d, s(far_end), cap=100)
    assert "reverse pass 1" in str(exc.value)


# -- isomorphism -------------------------------------------------------------


def test_isomorphism_rejects_size_mismatch():
    m1 = MooreMachine("trace", ("a",), [Output("bit", 1)], [{"a": 0}], [0])
    m2 = MooreMachine("trace", ("a",), [Output("bit", 1), Output("bit", 0)],
                      [{"a": 1}, {"a": 1}], [0])
    assert not moore_isomorphic(m1, m2)


def test_isomorphism_of_unequal_sizes_explores_nothing(monkeypatch):
    calls = []
    explore = brzozowski.explore

    def counting(*args):
        calls.append(args)
        return explore(*args)

    monkeypatch.setattr(brzozowski, "explore", counting)
    m1 = MooreMachine("trace", ("a",), [1], [{"a": 0}], [0])
    m2 = MooreMachine("trace", ("a",), [1, 1], [{"a": 1}, {"a": 0}], [0])
    assert not moore_isomorphic(m1, m2)
    assert calls == []
    assert moore_isomorphic(m2, m2) and len(calls) == 2


def test_isomorphism_rejects_output_mismatch():
    m1 = MooreMachine("trace", ("a",), [Output("bit", 1)], [{"a": 0}], [0])
    m2 = MooreMachine("trace", ("a",), [Output("bit", 0)], [{"a": 0}], [0])
    assert not moore_isomorphic(m1, m2)


def test_isomorphism_requires_same_alphabet():
    m1 = MooreMachine("trace", ("a",), [Output("bit", 1)], [{"a": 0}], [0])
    m2 = MooreMachine("trace", ("b",), [Output("bit", 1)], [{"b": 0}], [0])
    with pytest.raises(VariantMismatch):
        moore_isomorphic(m1, m2)


def test_isomorphism_accepts_renamed_machine():
    m1 = MooreMachine("trace", ("a",), [Output("bit", 0), Output("bit", 1)],
                      [{"a": 1}, {"a": 1}], [0])
    m2 = MooreMachine("trace", ("a",), [Output("bit", 1), Output("bit", 0)],
                      [{"a": 0}, {"a": 0}], [1])
    assert moore_isomorphic(m1, m2)


def test_isomorphism_across_decorations_compares_outputs():
    # The same behaviour decorated in two systems whose states meet the
    # enabled sets {a} and {b} in opposite orders: the raw values of the two
    # minimal machines number those sets differently.
    p = parse_lts("lts 2\nalphabet a b\n0 a 1\n1 b 1\n")
    q = parse_lts("lts 2\nalphabet a b\n0 b 0\n1 a 0\n")
    _, mp = brzozowski_minimize(decorate(p, "ready"), s(0))
    _, mq = brzozowski_minimize(decorate(q, "ready"), s(1))
    assert mp.values != mq.values and mp.outputs == mq.outputs
    assert moore_isomorphic(mp, mq)


def _reference_isomorphic(m1, m2):
    """Isomorphism by a synchronous walk from the initial states that builds
    the bijection in both directions, failing on any clash of outputs or of
    the maps; every state must be reached."""
    if m1.alphabet != m2.alphabet:
        raise VariantMismatch("cannot compare machines over different alphabets")
    if m1.n_states != m2.n_states:
        return False
    out1, out2 = ((m1.values, m2.values) if m1.decode == m2.decode
                  else (m1.outputs, m2.outputs))
    fwd, bwd = {}, {}
    queue = [(m1.inits[0], m2.inits[0])]
    for p, q in queue:
        if p in fwd or q in bwd:
            if fwd.get(p) != q or bwd.get(q) != p:
                return False
            continue
        if out1[p] != out2[q]:
            return False
        fwd[p], bwd[q] = q, p
        queue.extend((m1.steps[p][a], m2.steps[q][a]) for a in m1.alphabet)
    return len(fwd) == m1.n_states


def _random_machine(rng, alphabet):
    """A machine of 1-5 states over ``alphabet`` with outputs in {0, 1, 2};
    states that no step reaches stay in it, unreachable."""
    n = rng.randint(1, 5)
    return MooreMachine("trace", alphabet, [rng.randrange(3) for _ in range(n)],
                        [{a: rng.randrange(n) for a in alphabet} for _ in range(n)],
                        [rng.randrange(n)])


def _permuted(m, rng):
    perm = list(range(m.n_states))
    rng.shuffle(perm)
    inv = {p: q for q, p in enumerate(perm)}
    return MooreMachine(m.semantics, m.alphabet, [m.values[p] for p in perm],
                        [{a: inv[m.steps[p][a]] for a in m.alphabet} for p in perm],
                        [inv[m.inits[0]]])


def test_isomorphism_agrees_with_reference_walk_on_random_machines():
    rng = random.Random(15)
    verdicts = []
    for i in range(4000):
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        m1 = _random_machine(rng, alphabet)
        m2 = _permuted(m1, rng) if i % 2 else _random_machine(rng, alphabet)
        if i % 3 == 0:  # another decoding: outputs are compared, not raw values
            m2.decode = int
        expected = _reference_isomorphic(m1, m2)
        assert moore_isomorphic(m1, m2) == expected, (m1, m2)
        verdicts.append(expected)
    assert 500 < sum(verdicts) < 3500


# -- end-to-end equivalence via minimisation ---------------------------------


def test_equiv_via_minimization_agrees_with_fixtures():
    fail = load_lts("fail-pq")
    assert equiv_via_minimization(decorate(fail, "failure"), s(0), s(11))
    rt = load_lts("rtrace-pq")
    d = decorate(rt, "rtrace")
    assert not equiv_via_minimization(d, s(0), s(rt.resolve_state("q0")))


# -- guard: both machines of the double reversal, byte for byte --------------
#
# One sha256 over the initial states, rendered state keys, outputs and steps
# of both machines, on seeded systems under every tag that decorates, so a
# change to how the reversals number, key or join their states shows here
# even where no size moves.

DOUBLE_REVERSAL_SHA256 = "6c203f0645333b373556f6f59fe2738d654b7fbea716c1c475e0e87f6aed7d2a"


def _decorations(lts):
    """Every decoration of ``lts`` that its structure admits."""
    for tag in SEMANTICS:
        try:
            yield tag, decorate(lts, tag)
        except ValueError:  # language needs final states
            continue


def _machine_lines(m, alphabet):
    yield f"inits {m.inits}"
    for q, key in enumerate(m.state_keys):
        yield f"{q} key " + ",".join(render_output(c, alphabet) for c in key)
    yield "outputs " + ";".join(render_output(o, alphabet) for o in m.outputs)
    yield "steps " + ";".join(
        ",".join(f"{render_eff_label(a)}:{row[a]}" for a in m.alphabet)
        for row in m.steps)


def _double_reversal_lines():
    systems = [(f"seed {seed}", random_lts(seed)) for seed in range(120)]
    systems += [(name, load_lts(name)) for name in ("brz-p", "brz-must")]
    for name, lts in systems:
        for tag, d in _decorations(lts):
            for inits in (s(0), s(0, 1), frozenset(range(lts.n_states))):
                yield f"{name} {tag} {sorted(inits)}"
                for m in brzozowski_minimize(d, inits):
                    yield from _machine_lines(m, lts.alphabet)


def test_double_reversal_matches_pinned_digest():
    text = "\n".join(_double_reversal_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DOUBLE_REVERSAL_SHA256


# -- minimality against forward partition refinement -------------------------


def test_double_reversal_is_minimal_by_forward_refinement():
    for seed in range(120):
        lts = random_lts(seed)
        for tag, d in _decorations(lts):
            for inits in (s(0), s(0, 1)):
                _, mini = brzozowski_minimize(d, inits)
                forward = reachable_machine(d, [inits])
                assert mini.n_states == len(set(moore_partition_classes(forward))), \
                    (seed, tag, sorted(inits))
                assert len(set(moore_partition_classes(mini))) == mini.n_states, \
                    (seed, tag, sorted(inits))
