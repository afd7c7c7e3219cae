"""Transition-system core: parsing, serialisation, tau machinery."""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcheck import (
    TOP,
    FormatError,
    Gps,
    Lts,
    disjoint_union,
    divergent_states,
    converges_on,
    diverges,
    fail_sets,
    format_gps,
    format_lts,
    full_mask,
    initial_actions,
    labels_of,
    mask_of,
    parse_gps,
    parse_lts,
    random_lts,
    submasks,
    tau_closure,
    weak_successors,
)

from semcheck.lts import join_at, mask_bits, mask_flags, state_mask

from conftest import load_gps, load_lts


# -- bit-mask helpers --------------------------------------------------------


def test_mask_roundtrip():
    alphabet = ("a", "b", "c")
    assert mask_of(["c", "a"], alphabet) == 0b101
    assert labels_of(0b101, alphabet) == ("a", "c")
    assert full_mask(alphabet) == 0b111


def test_submasks_enumerates_subsets():
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 5000), max_size=40) | st.sets(st.integers(0, 60)))
def test_mask_bits_and_flags_read_every_set_bit(states):
    # both reads of mask_bits: at most eight set bits, and more
    mask = state_mask(states)
    assert mask_bits(mask) == sorted(states)
    flags = mask_flags(mask)
    assert len(flags) == max(mask.bit_length(), 1)
    assert [i for i, f in enumerate(flags) if f] == sorted(states)
    assert set(flags) <= {0, 1}


def test_join_at_joins_the_indexed_entries():
    table = [0b001, 0b010, TOP, 0b100]
    assert join_at(table, []) == 0
    assert join_at(table, [0, 3]) == 0b101
    assert join_at(table, [1, 0, 1, 1]) == join_at(table, [0, 1]) == 0b011
    for where in range(4):   # TOP absorbs wherever it comes
        order = [0, 1, 3]
        order.insert(where, 2)
        assert join_at(table, order) is TOP, order


# -- parsing -----------------------------------------------------------------


def test_parse_eq_automata():
    lts = load_lts("eq-automata")
    assert lts.n_states == 6
    assert lts.alphabet == ("a",)
    assert lts.finals == frozenset({1, 5})
    assert lts.names == ("x", "y", "z", "u", "w", "v")
    assert lts.successors(0, "a") == frozenset({1})
    assert lts.successors(2, "a") == frozenset({0, 1})
    assert lts.successors(4, "a") == frozenset({3})


def test_parse_resolves_names_before_indices():
    lts = load_lts("eq-automata")
    assert lts.resolve_state("x") == 0
    assert lts.resolve_state("v") == 5
    assert lts.resolve_state("3") == 3
    with pytest.raises(ValueError):
        lts.resolve_state("nope")


def test_parse_rejects_tau_in_alphabet():
    with pytest.raises(FormatError):
        parse_lts("lts 1\nalphabet a tau\n")


@pytest.mark.parametrize("text, line", [
    ("lts 2\nalphabet a\n0 a 2\n", 3),
    # '²' passes str.isdigit but int() rejects it.
    ("lts 2\nalphabet a\n0 a ²\n", 3),
    ("lts 2\nalphabet a\nfinal ²\n", 3),
    ("gps 2\nalphabet a\n0 a 1/2 ²\n", 3),
    ("lts ²\nalphabet a\n", 1),
], ids=["out-of-range", "lts-edge", "final", "gps-edge", "header"])
def test_parse_rejects_bad_state_index(text, line):
    parse = parse_gps if text.startswith("gps") else parse_lts
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.line == line


# More digits than int() converts by default (4,300): each site reports the
# numeral as the bad token it is, with its line.
LONG = "1" + "0" * 5000


TOO_LONG = [
    pytest.param(f"lts {LONG}\nalphabet a\n", "line 1: more than {} states", id="lts-header"),
    pytest.param(f"lts 2\nalphabet a\n0 a {LONG}\n", "line 3: bad state index", id="lts-edge"),
    pytest.param(f"lts 2\nalphabet a\nfinal {LONG}\n", "line 3: bad state index", id="final"),
    pytest.param(f"gps 2\nalphabet a\n0 a 1/2 1\n{LONG} a 1/2 1\n", "line 4: bad state index",
                 id="gps-edge"),
    pytest.param(f"gps 2\nalphabet a\n0 a 1/{LONG} 1\n", "line 3: bad probability",
                 id="denominator"),
    pytest.param(f"gps 2\nalphabet a\n0 a {LONG}/3 1\n", "line 3: bad probability",
                 id="numerator"),
]


@pytest.mark.parametrize("text, message", TOO_LONG)
def test_parse_rejects_numerals_too_long_for_int(text, message):
    with pytest.raises(ValueError):
        int(LONG)
    parse = parse_gps if text.startswith("gps") else parse_lts
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value).startswith(message.format(sys.maxsize))


# Zero padding is not value: '0' and every other digit whose value is 0 (here
# ARABIC-INDIC ZERO) pass str.isdecimal, and int() would count them as digits.
@pytest.mark.parametrize("zero", ["0", "\u0660"], ids=["ascii", "arabic-indic"])
def test_parse_reads_zero_padded_numerals(zero):
    pad = zero * 5000
    lts = parse_lts(f"lts {pad}2\nalphabet a\n{pad}0 a {pad}1\nfinal {pad}1\n")
    assert lts.n_states == 2 and lts.successors(0, "a") == frozenset({1})
    assert lts.finals == frozenset({1})
    assert lts.resolve_state(pad + "1") == 1
    assert lts.resolve_state(pad) == 0  # all padding reads as 0
    with pytest.raises(ValueError, match="unknown state"):
        lts.resolve_state(pad + "2")
    g = parse_gps(f"gps {pad}2\nalphabet a\n{pad}0 a {pad}1/{pad}2 {pad}1\n")
    assert g.n_states == 2 and g.row(0, "a") == {1: Fraction(1, 2)}
    assert g.resolve_state(pad + "1") == 1
    with pytest.raises(FormatError, match="line 3: bad probability"):
        parse_gps(f"gps 2\nalphabet a\n0 a 1/{pad} 1\n")  # 1/0


@pytest.mark.parametrize("text, message", TOO_LONG)
def test_padded_numerals_too_long_for_int_keep_their_error(text, message):
    parse = parse_gps if text.startswith("gps") else parse_lts
    with pytest.raises(FormatError) as exc:
        parse(text.replace(LONG, "0" * 100 + LONG))
    assert str(exc.value).startswith(message.format(sys.maxsize))


def test_parse_keeps_long_numerals_that_int_reads():
    index = "0" * 4000 + "1"
    lts = parse_lts(f"lts {'0' * 4000}2\nalphabet a\n0 a {index}\n")
    assert lts.n_states == 2 and lts.successors(0, "a") == frozenset({1})
    assert lts.resolve_state(index) == 1
    g = parse_gps(f"gps 2\nalphabet a\n0 a {index}/{'0' * 4000}2 {index}\n")
    assert g.row(0, "a") == {1: Fraction(1, 2)}


def test_parse_rejects_unknown_label():
    with pytest.raises(FormatError):
        parse_lts("lts 2\nalphabet a\n0 b 1\n")


def test_parse_rejects_wrong_name_count():
    with pytest.raises(FormatError):
        parse_lts("lts 2\nalphabet a\nnames only_one\n")


@pytest.mark.parametrize("text", [
    "lts 2\nalphabet a\nnames x y\nnames u v\n",
    "lts 2\nalphabet a\nnames x x\n",
    "gps 2\nalphabet a\nnames x y\nnames u v\n",
    "gps 2\nalphabet a\nnames x x\n",
])
def test_parse_rejects_second_names_line_and_repeated_names(text):
    parse = parse_gps if text.startswith("gps") else parse_lts
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert exc.value.line == text.count("\n")


@pytest.mark.parametrize("text", [
    "lts 2\nalphabet a\nnames p,q r\n",
    "lts 2\nalphabet a\n0 a 1\nnames p ,\n",
    "gps 2\nalphabet a\nnames p q,\n",
])
def test_parse_rejects_a_comma_in_a_state_name(text):
    # a comma separates the members of a state-set argument, so a name
    # holding one could not be named on the command line
    parse = parse_gps if text.startswith("gps") else parse_lts
    with pytest.raises(FormatError, match="contains ','") as exc:
        parse(text)
    assert exc.value.line == text.count("\n")


def test_parse_reports_line_numbers():
    text = "lts 2\nalphabet a\n# fine so far\n0 a 1\nbogus line here extra\n"
    with pytest.raises(FormatError) as exc:
        parse_lts(text)
    assert exc.value.line == 5
    assert "5" in str(exc.value)


def test_parse_requires_header():
    with pytest.raises(FormatError):
        parse_lts("alphabet a\n")
    with pytest.raises(FormatError, match="need at least one state") as exc:
        parse_lts("lts 0\nalphabet a\n")
    assert exc.value.line == 1


def test_parse_memory_follows_the_text_not_the_state_count():
    tracemalloc.start()
    try:
        lts = parse_lts("lts 1000000\nalphabet a\n0 a 999999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lts.n_states == 1000000
    assert lts.successors(0, "a") == frozenset({999999})
    assert peak < 1 << 20


def test_tau_edges_allowed_without_declaration():
    lts = parse_lts("lts 2\nalphabet a\n0 tau 1\n1 a 1\n")
    assert lts.successors(0, "tau") == frozenset({1})


def test_gps_parse_and_masses():
    gps = load_gps("gps-pu")
    assert gps.n_states == 9
    assert gps.resolve_state("p") == 0
    assert gps.resolve_state("u") == 5
    assert gps.row(0, "a") == {1: Fraction(1, 3), 2: Fraction(2, 3)}
    assert gps.emission_mass(0) == 1
    assert gps.termination_mass(0) == 0
    assert gps.termination_mass(3) == 1  # s has no outgoing mass


def test_gps_rejects_overweight_row():
    with pytest.raises(FormatError):
        parse_gps("gps 2\nalphabet a\n0 a 2/3 1\n0 a 1/2 1\n")


def test_gps_rejects_nonpositive_probability():
    with pytest.raises(FormatError):
        parse_gps("gps 2\nalphabet a\n0 a 0/3 1\n")


@pytest.mark.parametrize("token, expected", [
    ("1/3", Fraction(1, 3)),
    ("2/4", Fraction(1, 2)),
    ("007/10", Fraction(7, 10)),
    ("0.25", Fraction(1, 4)),
    ("1e-1", Fraction(1, 10)),
    ("+1/2", Fraction(1, 2)),
    ("1_0/20", Fraction(1, 2)),
    ("\u0661/\u0662", Fraction(1, 2)),
    ("1", Fraction(1)),
    ("1/0", "line 3: bad probability '1/0'"),
    ("x/2", "line 3: bad probability 'x/2'"),
    ("1/2/3", "line 3: bad probability '1/2/3'"),
    ("/2", "line 3: bad probability '/2'"),
    ("1/", "line 3: bad probability '1/'"),
    ("\u00b9/2", "line 3: bad probability '\u00b9/2'"),
    ("3/2", "line 3: probability 3/2 outside (0, 1]"),
    ("0/5", "line 3: probability 0/5 outside (0, 1]"),
    ("-1/2", "line 3: probability -1/2 outside (0, 1]"),
])
def test_gps_probability_tokens(token, expected):
    text = f"gps 2\nalphabet a\n0 a {token} 1\n"
    if isinstance(expected, Fraction):
        assert parse_gps(text).row(0, "a") == {1: expected}
    else:
        with pytest.raises(FormatError) as exc:
            parse_gps(text)
        assert str(exc.value) == expected


def _random_gps_text(seed: int) -> str:
    """A seeded GPS text over a valid header: repeated lines, reducible,
    decimal and signed probability tokens, zero-padded state tokens, a
    ``names`` line now and then, rows that may sum above 1, and about one
    malformed transition line in twenty."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    lines = [f"gps {n}", "alphabet " + " ".join(alphabet)]
    if rng.random() < 0.3:
        lines.append("names " + " ".join(f"s{i}" for i in range(n)))
    for _ in range(rng.randint(0, 10)):
        if lines[2:] and rng.random() < 0.15:
            lines.append(rng.choice(lines[2:]))
            continue
        den = rng.choice((2, 3, 4, 5, 6, 8, 10, 12))
        num = rng.randint(1, max(1, den // 3))
        token = rng.choice((f"{num}/{den}", f"{2 * num}/{2 * den}", f"+{num}/{den}",
                            f"00{num}/{den}", str(num / den) if 100 % den == 0 or den == 8
                            else f"{num}/{den}"))
        src, dst = str(rng.randrange(n)), str(rng.randrange(n))
        if rng.random() < 0.2:
            src = "00" + src
        toks = [src, rng.choice(alphabet), token, dst]
        if rng.random() < 0.05:
            i = rng.randrange(4)
            toks[i] = rng.choice(({0: str(n), 1: "z", 2: "3/2", 3: "x"}[i], "0/4", "1/0"))
        lines.append(" ".join(toks))
    text = "\n".join(lines) + "\n"
    return _with_comments(text, seed) if seed >= 400 else text


def _with_comments(text: str, seed: int) -> str:
    """``text`` with comments: comment-only lines, trailing ``# ...``, and
    on a transition line now and then ``#x`` glued to a token, which makes
    the rest of that line a comment (``0 a 1/2#x 1`` loses its target)."""
    rng = random.Random(seed)
    out = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            out.append(rng.choice(("# a comment", "   #", "#", "\t# tab")))
        r = rng.random()
        if r < 0.2:
            line += rng.choice((" # trailing", "\t#", "#x", " #x # y"))
        elif r < 0.3 and line[:1].isdigit():
            toks = line.split()
            k = rng.randrange(len(toks))
            line = " ".join(toks[:k + 1]) + "#x " + " ".join(toks[k + 1:])
        out.append(line)
    return "\n".join(out) + "\n"


def _reference_parse_gps(text: str):
    """The GPS text format read with ``Fraction(token)``: the names, the
    transitions and each ``ScaledGps`` field, or the text of the first
    error."""
    lines = [(i, raw.split("#", 1)[0].split()) for i, raw in enumerate(text.splitlines(), 1)]
    lines = [(i, toks) for i, toks in lines if toks]
    n, alphabet = int(lines[0][1][1]), tuple(lines[1][1][1:])

    def state(tok, ln):
        if not tok.isdigit() or int(tok) >= n:
            raise FormatError(f"bad state index {tok!r}", ln)
        return int(tok)

    names, trans = None, {}
    try:
        for ln, toks in lines[2:]:
            if toks[0] == "names":
                if names is not None:
                    raise FormatError("duplicate 'names' line", ln)
                names = tuple(toks[1:])
                continue
            if len(toks) != 4:
                raise FormatError("expected '<src> <label> <p>/<q> <dst>'", ln)
            src = state(toks[0], ln)
            if toks[1] not in alphabet:
                raise FormatError(f"unknown label {toks[1]!r}", ln)
            try:
                p = Fraction(toks[2])
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"bad probability {toks[2]!r}", ln) from None
            if not 0 < p <= 1:
                raise FormatError(f"probability {toks[2]} outside (0, 1]", ln)
            dst = state(toks[3], ln)
            row = trans.setdefault((src, toks[1]), {})
            row[dst] = row.get(dst, 0) + p
        masses = [sum((p for (x, _), row in trans.items() if x == s for p in row.values()),
                      Fraction(0)) for s in range(n)]
        for s, mass in enumerate(masses):
            if mass > 1:
                raise FormatError(f"state {s} emits total mass {mass} > 1")
    except FormatError as exc:
        return str(exc)
    denom = math.lcm(*(p.denominator for row in trans.values() for p in row.values()))
    rows = {a: tuple({y: int(p * denom) for y, p in trans.get((x, a), {}).items()}
                     for x in range(n)) for a in alphabet}
    enabled = tuple(sum(1 << i for i, a in enumerate(alphabet) if trans.get((x, a)))
                    for x in range(n))
    return names, trans, (denom, rows, tuple(int(m * denom) for m in masses), enabled)


def test_parse_gps_matches_fraction_reference():
    # seeds 400-599 carry comments
    outcomes = {"parsed": 0, "over mass": 0, "other error": 0}
    for seed in range(600):
        text = _random_gps_text(seed)
        expected = _reference_parse_gps(text)
        if isinstance(expected, str):
            with pytest.raises(FormatError) as exc:
                parse_gps(text)
            assert str(exc.value) == expected, (seed, text)
            outcomes["over mass" if "total mass" in expected else "other error"] += 1
            continue
        g = parse_gps(text)
        names, trans, scaled = expected
        assert (g.names, g.transitions) == (names, trans), (seed, text)
        assert tuple(g._scaled) == scaled, (seed, text)
        outcomes["parsed"] += 1
    assert min(outcomes.values()) >= 20, outcomes


# -- serialisation -----------------------------------------------------------


def test_format_parse_roundtrip_fixture():
    lts = load_lts("fail-pq")
    assert parse_lts(format_lts(lts)) == lts


def test_format_parse_roundtrip_gps():
    gps = load_gps("gps-pu-alt")
    assert parse_gps(format_gps(gps)) == gps


def test_parsed_gps_equals_hand_built_gps_either_way():
    # parse_gps builds the integer form; ``transitions`` is a view built on
    # first use, which equality and format_gps read.
    checked = 0
    for seed in range(600):
        text = _random_gps_text(seed)
        expected = _reference_parse_gps(text)
        if isinstance(expected, str):
            continue
        names, trans, _ = expected
        g = parse_gps(text)
        assert "transitions" not in vars(g)
        built = Gps(g.n_states, g.alphabet, trans, names)
        assert g == built and built == parse_gps(text), (seed, text)
        assert parse_gps(format_gps(g)) == g and parse_gps(format_gps(built)) == built
        assert format_gps(built) == format_gps(parse_gps(text))
        assert tuple(built._scaled) == tuple(parse_gps(text)._scaled)
        other = Gps(g.n_states, g.alphabet,
                    {**trans, (0, g.alphabet[0]): {0: Fraction(1, 7)}}, names)
        assert parse_gps(text) != other and other != parse_gps(text)
        checked += 1
    assert checked >= 150


def _parse_outcome(text: str):
    try:
        return parse_lts(text)
    except FormatError as exc:
        return str(exc), exc.line


def test_parse_lts_reads_comments_as_blank():
    # the same text with its comments cut by hand parses the same, errors
    # and their line numbers included
    outcomes = {"parsed": 0, "error": 0, "commented": 0}
    for seed in range(400, 600):
        text = _with_comments(format_lts(random_lts(seed, allow_tau=seed % 2 == 0)), seed)
        outcomes["commented"] += "#" in text
        stripped = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines()) + "\n"
        outcome = _parse_outcome(text)
        assert outcome == _parse_outcome(stripped), (seed, text)
        outcomes["parsed" if isinstance(outcome, Lts) else "error"] += 1
    assert min(outcomes.values()) >= 20, outcomes


@settings(max_examples=60, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_format_parse_roundtrip_random(seed, allow_tau):
    lts = random_lts(seed, allow_tau=allow_tau)
    assert parse_lts(format_lts(lts)) == lts


# -- combinators -------------------------------------------------------------


def test_disjoint_union_shifts_second_component():
    a = load_lts("eq-automata")
    b = parse_lts("lts 1\nalphabet a\nfinal 0\nnames loop\n0 a 0\n")
    u = disjoint_union(a, b)
    assert u.n_states == 7
    assert u.successors(6, "a") == frozenset({6})
    assert u.finals == frozenset({1, 5, 6})
    assert u.names[6] == "loop"
    assert u.resolve_state("x") == 0
    with pytest.raises(ValueError, match="alphabet mismatch"):
        disjoint_union(a, parse_lts("lts 1\nalphabet c\n"))


def test_disjoint_union_renames_clashing_names():
    a = load_lts("must-x")
    u = disjoint_union(a, a)
    assert u.names[:6] == a.names
    assert u.resolve_state("x'") == 6
    assert u.resolve_state("x5'") == 11
    assert parse_lts(format_lts(u)) == u
    # a primed name the first system already has takes one more prime
    b = parse_lts("lts 2\nalphabet a\nnames x x'\n")
    assert disjoint_union(b, b).names == ("x", "x'", "x''", "x'''")

# -- tau machinery -----------------------------------------------------------


def test_tau_closure_and_weak_successors():
    lts = load_lts("must-xy")
    x = lts.resolve_state("x")
    assert tau_closure(lts, lts.resolve_state("x2")) == frozenset({2, 3})
    assert weak_successors(lts, x, "a") == frozenset({1, 2, 3})
    assert weak_successors(lts, x, "b") == frozenset({4})
    assert weak_successors(lts, 2, "b") == frozenset({4, 5})
    with pytest.raises(ValueError):
        weak_successors(lts, x, "tau")


def test_divergent_states_must_xy():
    lts = load_lts("must-xy")
    assert divergent_states(lts) == frozenset({4, 5, 7})
    assert diverges(lts, 4)
    assert not diverges(lts, 0)


def test_divergence_includes_backward_tau_closure():
    lts = parse_lts("lts 3\nalphabet a\n0 tau 1\n1 tau 2\n2 tau 1\n")
    assert divergent_states(lts) == frozenset({0, 1, 2})


def test_converges_on_words():
    lts = load_lts("must-xy")
    x = lts.resolve_state("x")
    x3 = lts.resolve_state("x3")
    x4 = lts.resolve_state("x4")
    assert converges_on(lts, x, ())
    assert converges_on(lts, x, ("a", "a"))
    assert not converges_on(lts, x, ("b",))
    assert not converges_on(lts, x3, ("b",))
    assert not converges_on(lts, x4, ())


def test_converges_on_long_word():
    lts = parse_lts("lts 2\nalphabet a\n0 a 0\n0 tau 1\n1 a 1\n")
    assert converges_on(lts, 0, "a" * 5000)


# -- readiness and refusal ---------------------------------------------------


def test_initial_actions_are_strong():
    lts = load_lts("must-xy")
    x2 = lts.resolve_state("x2")
    # x2 only has a tau edge and a b edge; the a step via x3 is not counted.
    assert labels_of(initial_actions(lts, x2), lts.alphabet) == ("b",)


def test_fail_sets_complement_downset():
    lts = load_lts("fail-pq")
    p3 = lts.resolve_state("p3")
    refusals = fail_sets(lts, p3)
    expected = frozenset(submasks(mask_of(["d", "e", "f"], lts.alphabet)))
    assert refusals == expected
    assert len(refusals) == 8
