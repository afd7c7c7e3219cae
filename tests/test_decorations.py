"""Per-state decorations, output algebra, downset/antichain correspondence."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcheck import (
    DOWNCLOSED_FAMILY_SEMANTICS,
    SEMANTICS,
    TOP,
    Output,
    VariantMismatch,
    antichain_min,
    antichain_to_downset,
    bottom_output,
    compact_output,
    decorate,
    downclose_masks,
    downset_to_antichain,
    full_mask,
    is_downclosed,
    join_all,
    join_outputs,
    mask_of,
    parse_lts,
    random_lts,
    relabel_for_trace_decorations,
    render_eff_label,
    render_output,
    submasks,
    trace_class_of,
)

from conftest import FIXTURES, load_lts

AB = ("a", "b")


def fam(*masks):
    return Output("family", frozenset(masks))


# -- output algebra ----------------------------------------------------------


def test_join_bit_and_family():
    assert join_outputs(Output("bit", 0), Output("bit", 1)) == Output("bit", 1)
    assert join_outputs(fam(0b01), fam(0b10)) == fam(0b01, 0b10)
    assert join_outputs(Output("class_set", frozenset({0})),
                        Output("class_set", frozenset({2}))) == Output("class_set", frozenset({0, 2}))


def test_join_top_absorbs():
    t = Output("top_or_family", TOP)
    v = Output("top_or_family", frozenset({0b01}))
    assert join_outputs(t, v) == t
    assert join_outputs(v, t) == t
    assert join_outputs(t, t) == t
    assert t.is_top()
    assert not v.is_top()


def test_join_refuses_mixed_kinds():
    with pytest.raises(VariantMismatch):
        join_outputs(Output("bit", 1), fam(0b1))
    for kind in ("prob", "prob_family"):  # linear-only: no join, not even with bottom
        with pytest.raises(VariantMismatch):
            join_outputs(bottom_output(kind), bottom_output(kind))
    with pytest.raises(VariantMismatch):
        bottom_output("no_such_kind")


def test_join_all_empty_is_bottom():
    assert join_all("family", []) == bottom_output("family")
    assert join_all("bit", []) == Output("bit", 0)


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=7), max_size=4),
       st.lists(st.integers(min_value=0, max_value=7), max_size=4),
       st.lists(st.integers(min_value=0, max_value=7), max_size=4))
def test_join_is_a_semilattice(xs, ys, zs):
    a, b, c = fam(*xs), fam(*ys), fam(*zs)
    assert join_outputs(a, a) == a
    assert join_outputs(a, b) == join_outputs(b, a)
    assert join_outputs(a, join_outputs(b, c)) == join_outputs(join_outputs(a, b), c)
    assert join_outputs(a, bottom_output("family")) == a


# -- downset / antichain correspondence --------------------------------------


def test_antichain_min_keeps_minimal_members():
    assert antichain_min([0b11, 0b01, 0b10]) == frozenset({0b01, 0b10})
    assert antichain_min([]) == frozenset()


def test_downset_to_antichain_examples():
    # {emptyset, {b}} over {a,b}: complements {a,b} and {a}; minimal is {a}.
    family = frozenset({0b00, 0b10})
    assert downset_to_antichain(family, AB) == frozenset({0b01})
    assert antichain_to_downset(frozenset({0b01}), AB) == family


def test_full_powerset_maps_to_singleton_empty():
    powerset = frozenset(submasks(full_mask(AB)))
    assert downset_to_antichain(powerset, AB) == frozenset({0})
    assert antichain_to_downset(frozenset({0}), AB) == powerset


def test_empty_family_maps_to_empty_antichain():
    assert downset_to_antichain(frozenset(), AB) == frozenset()
    assert antichain_to_downset(frozenset(), AB) == frozenset()


@settings(max_examples=200, derandomize=True)
@given(st.integers(min_value=1, max_value=5),
       st.sets(st.integers(min_value=0, max_value=31), max_size=8))
def test_downset_antichain_roundtrip(k, raw):
    alphabet = tuple("abcde"[:k])
    masks = frozenset(m & full_mask(alphabet) for m in raw)
    down = downclose_masks(masks)
    assert is_downclosed(down)
    assert antichain_to_downset(downset_to_antichain(down, alphabet), alphabet) == down
    anti = antichain_min(masks)
    assert downset_to_antichain(antichain_to_downset(anti, alphabet), alphabet) == anti


def test_compact_output_only_for_downclosed_semantics():
    down = Output("family", frozenset({0b00, 0b10}))
    assert compact_output(down, AB, "failure") == Output("family", frozenset({0b01}))
    assert compact_output(down, AB, "ready") == down
    top = Output("top_or_family", TOP)
    assert compact_output(top, AB, "must") == top


# -- decorations on fixtures -------------------------------------------------


def test_ready_decoration_outputs():
    lts = load_lts("ready-p")
    d = decorate(lts, "ready")
    a = mask_of(["a"], lts.alphabet)
    b = mask_of(["b"], lts.alphabet)
    assert d.output(0) == Output("family", frozenset({a}))
    assert d.output(1) == Output("family", frozenset({b}))
    assert d.output(4) == Output("family", frozenset({0}))


def test_failure_decoration_is_downclosed():
    lts = load_lts("fail-pq")
    d = decorate(lts, "failure")
    for x in range(lts.n_states):
        assert is_downclosed(d.output(x).value)
    p3 = lts.resolve_state("p3")
    assert d.output(p3).value == frozenset(submasks(mask_of(["d", "e", "f"], lts.alphabet)))


def test_refusal_atoms_over_every_enabled_set():
    # State x enables the labels of x's bits, so every subset of six labels is
    # a distinct refusal atom; an odd x also steps by tau to its two even
    # neighbours, so under must it joins their two refusals.
    labels = ("a", "b", "c", "d", "e", "f")
    lines = [f"lts 64\nalphabet {' '.join(labels)}"]
    lines += [f"{x} {a} {x}" for x in range(64) for i, a in enumerate(labels) if x >> i & 1]
    lines += [f"{x} tau {y}" for x in range(1, 64, 2) for y in (x - 1, (x + 1) % 64)]
    lts = parse_lts("\n".join(lines) + "\n")
    full = full_mask(labels)
    df, dm = decorate(lts, "failure"), decorate(lts, "must")
    assert len(df.atoms) == 64 and len(dm.atoms) == 32
    for x in range(64):
        assert df.output(x).value == frozenset(submasks(full & ~x))
        stable = [x] if x % 2 == 0 else [x - 1, (x + 1) % 64]
        assert dm.output(x).value == frozenset().union(
            *(submasks(full & ~y) for y in stable))
    for d in (df, dm):
        assert len(set(d.values)) == len(set(d.outputs))


def test_trace_and_ctrace_decorations():
    lts = load_lts("ct-w")
    dt = decorate(lts, "trace")
    dc = decorate(lts, "ctrace")
    assert [v.value for v in dt.outputs] == [1, 1, 1]
    # Only w1 is a deadlock state.
    assert [v.value for v in dc.outputs] == [0, 1, 0]


def test_language_decoration_requires_finals():
    lts = load_lts("eq-automata")
    d = decorate(lts, "language")
    assert [v.value for v in d.outputs] == [0, 1, 0, 0, 0, 1]
    bare = load_lts("ready-p")
    with pytest.raises(ValueError):
        decorate(bare, "language")


def test_strong_decorations_ignore_tau_edges():
    lts = load_lts("must-xy")
    d = decorate(lts, "ready")
    x2 = lts.resolve_state("x2")
    # x2's tau edge contributes neither readiness nor a transition row.
    assert d.output(x2) == Output("family", frozenset({mask_of(["b"], lts.alphabet)}))
    assert d.row(x2, "a") == frozenset()


def test_may_decoration_uses_weak_rows():
    lts = load_lts("must-xy")
    d = decorate(lts, "may")
    x = lts.resolve_state("x")
    assert d.row(x, "a") == frozenset({1, 2, 3})
    assert all(v == Output("bit", 1) for v in d.outputs)


def test_must_decoration_outputs():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    g = {n: lts.resolve_state(n) for n in ("x", "x2", "x4", "x5", "y", "y1")}
    assert d.output(g["x"]) == Output("top_or_family", frozenset({0}))
    # x2 is unstable; its output joins over its tau successors.
    assert d.output(g["x2"]) == Output("top_or_family", frozenset({0}))
    assert d.output(g["x4"]).is_top()
    assert d.output(g["x5"]).is_top()
    assert d.output(g["y"]) == Output("top_or_family", frozenset({0}))
    assert d.output(g["y1"]).is_top()


def test_must_rows_top_when_divergence_reachable():
    lts = load_lts("must-xy")
    d = decorate(lts, "must")
    x = lts.resolve_state("x")
    assert d.row(x, "b") is TOP  # x --b--> x4, which diverges
    assert d.row(x, "a") == frozenset({1, 2, 3})


def test_pfutures_decoration_separates_trace_classes():
    lts = load_lts("pf-p")
    cls = trace_class_of(lts)
    assert cls[lts.resolve_state("p1")] != cls[lts.resolve_state("p2")]
    merged = load_lts("pf-pq")
    mcls = trace_class_of(merged)
    assert mcls[merged.resolve_state("p1")] == mcls[merged.resolve_state("q2")]
    assert mcls[merged.resolve_state("p2")] == mcls[merged.resolve_state("q1")]
    d = decorate(merged, "pfutures")
    assert d.output_kind == "class_set"
    assert d.output(merged.resolve_state("p1")) != d.output(merged.resolve_state("p2"))


def test_relabel_for_trace_decorations():
    lts = load_lts("rtrace-p")
    relabelled = relabel_for_trace_decorations(lts)
    rendered = [render_eff_label(l) for l in relabelled.alphabet]
    assert "<a,{a}>" in rendered
    assert "<b,{b,c}>" in rendered
    assert len(relabelled.alphabet) == 7  # only occurring (action, readiness) pairs
    p0 = lts.resolve_state("p0")
    assert relabelled.successors(p0, ("a", frozenset({"a"}))) == frozenset({1, 2})


def test_rtrace_and_ftrace_effective_alphabets_match():
    lts = load_lts("rtrace-pq")
    dr = decorate(lts, "rtrace")
    df = decorate(lts, "ftrace")
    assert dr.eff_alphabet == df.eff_alphabet
    assert dr.output_kind == "family"
    # ftrace outputs are refusal downsets, rtrace outputs are readiness singletons.
    q0 = lts.resolve_state("q0")
    assert len(dr.output(q0).value) == 1
    assert is_downclosed(df.output(q0).value)


def test_every_semantics_decorates_a_plain_lts():
    lts = load_lts("eq-automata")
    for sem in SEMANTICS:
        d = decorate(lts, sem)
        assert d.semantics == sem
        assert len(d.outputs) == lts.n_states
    with pytest.raises(ValueError):
        decorate(lts, "no_such_semantics")


# -- rendering ---------------------------------------------------------------


def test_render_output_forms():
    assert render_output(Output("bit", 1), AB) == "1"
    assert render_output(fam(), AB) == "{}"
    assert render_output(fam(0), AB) == "{{}}"
    assert render_output(fam(0b01, 0b10), AB) == "{{a},{b}}"
    assert render_output(Output("top_or_family", TOP), AB) == "TOP"


def test_render_eff_label_pair():
    assert render_eff_label(("a", frozenset({"c", "b"}))) == "<a,{b,c}>"
    assert render_eff_label("a") == "a"


# -- guard: every decoration, output for output and row for row --------------
#
# One sha256 over each tag's effective alphabet, rendered outputs with their
# kinds, transition rows and refusals, on seeded systems and every LTS
# fixture, so a change to how ``decorate`` builds rows or outputs shows here.
# Labels are rendered with ``render_eff_label``: a readiness label's repr
# depends on the string hash seed.

DECORATE_SHA256 = "4682494d9c02e7f4707f93936e83bd52dfecfc4eb09b7bfa8c922056ffddcc14"

WITH_FINALS = """\
lts 4
alphabet a b
final 1 3
0 a 1
0 tau 2
1 b 3
2 a 2
2 b 0
3 tau 3
"""


def _rows(row) -> str:
    return "TOP" if row is TOP else repr(tuple(sorted(row)))


def _decorate_lines():
    systems = [(f"seed {seed}", random_lts(seed, allow_tau=seed % 2 == 0))
               for seed in range(400)]
    systems += [(path.stem, parse_lts(path.read_text()))
                for path in sorted(FIXTURES.glob("*.lts"))
                if not path.stem.startswith("gps-")]
    systems.append(("with-finals", parse_lts(WITH_FINALS)))
    for name, lts in systems:
        for tag in SEMANTICS:
            head = f"{name} {tag}"
            try:
                d = decorate(lts, tag)
            except ValueError as exc:
                yield f"{head} refused {exc}"
                continue
            labels = [render_eff_label(a) for a in d.eff_alphabet]
            yield f"{head} {d.output_kind} {d.n_states} {d.alphabet} " + ",".join(labels)
            yield "outputs " + ";".join(
                f"{v.kind}:{render_output(v, lts.alphabet)}" for v in d.outputs)
            yield "rows " + ";".join(sorted(
                f"{x} {render_eff_label(a)} {_rows(ys)}"
                for (x, a), ys in d.transitions.items()))
            yield "row " + ";".join(
                f"{x} {lab} {_rows(d.row(x, a))}"
                for x in range(d.n_states) for a, lab in zip(d.eff_alphabet, labels))


def test_decorate_matches_pinned_digest():
    text = "\n".join(_decorate_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == DECORATE_SHA256
