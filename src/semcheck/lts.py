"""Core data model for finite labelled transition systems (LTS) and generative
probabilistic systems (GPS).

Provides the text-format parser/serialiser and the tau-aware primitives
(weak transitions, divergence, convergence, initial-action and failure sets)
that the semantic decorations are built from.  Action subsets and families of
action subsets are represented as bitmasks over the system's alphabet tuple,
and the tau layer keeps its sets of states as bitmasks over state indices.
"""

from __future__ import annotations

import math
import re
import sys
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

TAU = "tau"

StateSet = FrozenSet[int]

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class FormatError(ValueError):
    """Malformed system description.  Carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# ---------------------------------------------------------------------------
# Bitmask helpers.  A subset of the alphabet is an int whose bit i stands for
# alphabet[i]; a family of subsets is a frozenset of such ints.  A set of
# states is likewise an int whose bit x stands for state x.
# ---------------------------------------------------------------------------

def mask_of(labels: Iterable[str], alphabet: Tuple[str, ...]) -> int:
    m = 0
    for lab in labels:
        m |= 1 << alphabet.index(lab)
    return m


def labels_of(mask: int, alphabet: Tuple[str, ...]) -> Tuple[str, ...]:
    return tuple(a for i, a in enumerate(alphabet) if mask >> i & 1)


def full_mask(alphabet: Tuple[str, ...]) -> int:
    return (1 << len(alphabet)) - 1


def submasks(mask: int) -> List[int]:
    """All subsets of ``mask``, including 0 and ``mask`` itself."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & mask


def downclose_masks(masks: Iterable[int]) -> FrozenSet[int]:
    """Downward closure of a family of subsets under inclusion."""
    out = set()
    for m in masks:
        if m not in out:
            out.update(submasks(m))
    return frozenset(out)


def state_mask(states: Iterable[int]) -> int:
    """The mask of a set of states: bit ``x`` stands for state ``x``."""
    m = 0
    for x in states:
        m |= 1 << x
    return m


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def mask_flags(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: 1 where it is set, so
    ``compress(seq, mask_flags(mask))`` picks the items of ``seq`` at the set
    bits without a Python-level loop."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def mask_bits(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, ascending.  A mask of at
    most eight set bits is read bit by bit, each step costing time in the
    width of the mask; a denser one is selected through :func:`mask_flags`,
    which costs time in the width once.  Each read alone loses a workload
    the other wins (``BENCH_10.json``, ``mask_bits_paths``)."""
    if mask.bit_count() > 8:
        return list(compress(range(mask.bit_length()), mask_flags(mask)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_states(mask: int) -> StateSet:
    """The set of states a state mask stands for."""
    return frozenset(mask_bits(mask))


def join_at(table: Sequence, indices: Iterable[int]):
    """The ``|``-join of ``table[i]`` over ``indices``, 0 (bottom) when there
    are none: the one member-wise join of the generalised subset step, which
    gives a set of states its members' joined values or united rows.  Entries
    are ints or TOP, which absorbs through its own ``__or__``/``__ror__``;
    a repeated index changes nothing."""
    acc = 0
    for i in indices:
        acc |= table[i]
    return acc


def is_downclosed(masks: FrozenSet[int]) -> bool:
    # Closed under removing a single element iff closed under inclusion.
    for m in masks:
        bits = m
        while bits:
            low = bits & -bits
            if (m & ~low) not in masks:
                return False
            bits ^= low
    return True


# ---------------------------------------------------------------------------
# Labelled transition systems
# ---------------------------------------------------------------------------

class _NamedStates:
    """State naming shared by :class:`Lts` and :class:`Gps`, which both carry
    ``n_states`` and optional display ``names``."""

    n_states: int
    names: Optional[Tuple[str, ...]]

    def state_name(self, x: int) -> str:
        return self.names[x] if self.names else str(x)

    def resolve_state(self, token: str) -> int:
        """Map a display name or numeric index to a state; names win ties."""
        if self.names and token in self.names:
            return self.names.index(token)
        if token.isdecimal() and (x := _numeral(token, self.n_states)) < self.n_states:
            return x
        raise ValueError(f"unknown state {token!r}")


@dataclass
class Lts(_NamedStates):
    """A finite LTS over a fixed visible alphabet, with optional final states
    (for language semantics) and optional display names.

    ``transitions`` maps ``(state, label)`` to the (possibly empty) set of
    successors; absent keys mean the empty set.  The label ``"tau"`` is the
    internal action and never part of ``alphabet``.  Instances are treated as
    immutable after construction; ``_rows`` and ``_tau`` are cached on first use.
    """

    n_states: int
    alphabet: Tuple[str, ...]
    transitions: Dict[Tuple[int, str], StateSet] = field(default_factory=dict)
    finals: Optional[StateSet] = None
    names: Optional[Tuple[str, ...]] = None

    def successors(self, x: int, label: str) -> StateSet:
        return self.transitions.get((x, label), frozenset())

    @cached_property
    def _rows(self) -> Dict[str, Tuple[int, ...]]:
        """Each visible label's rows as state masks; tau edges are left out."""
        rows = {a: [0] * self.n_states for a in self.alphabet}
        for (x, a), ys in self.transitions.items():
            if a != TAU:
                rows[a][x] = state_mask(ys)
        return {a: tuple(r) for a, r in rows.items()}

    @cached_property
    def _tau(self) -> "TauPass":
        return _tau_pass(self)


class ScaledGps(NamedTuple):
    """A GPS's probabilities over one common denominator, all integers:
    ``denom`` is the lcm of every transition probability's denominator,
    ``rows[label][x]`` maps each of ``x``'s ``label``-successors to its
    probability times ``denom`` (the dict the weights were summed in, empty
    when ``x`` does not emit ``label``), ``emission[x]`` is ``x``'s emission
    mass times ``denom``, and bit i of ``enabled[x]`` is set when ``x`` emits
    the i-th label."""

    denom: int
    rows: Dict[str, Tuple[Dict[int, int], ...]]
    emission: Tuple[int, ...]
    enabled: Tuple[int, ...]


def _scaled_gps(n: int, alphabet: Tuple[str, ...],
                edges: List[Tuple[int, str, int, Tuple[int, int]]]) -> ScaledGps:
    """The integer form of a GPS given as ``(src, label, dst, (p, q))``
    transitions of probability p/q, repeated ones adding up.  Weights are
    summed over the lcm of every q, then divided by their gcd with it, which
    leaves ``denom`` the lcm of the summed probabilities' reduced denominators."""
    pqs = {e[3] for e in edges}
    denom = math.lcm(*(q for _, q in pqs))
    weight = {pq: pq[0] * (denom // pq[1]) for pq in pqs}
    rows: Dict[str, List[Dict[int, int]]] = {a: [{} for _ in range(n)] for a in alphabet}
    for src, lab, dst, pq in edges:
        row = rows[lab][src]
        row[dst] = row.get(dst, 0) + weight[pq]
    common = math.gcd(denom, *(w for row in rows.values() for r in row for w in r.values()))
    emission, enabled = [0] * n, [0] * n
    for i, row in enumerate(rows.values()):
        for x in compress(range(n), row):
            r = row[x]
            if common > 1:
                r = row[x] = {y: w // common for y, w in r.items()}
            emission[x] += sum(r.values())
            enabled[x] |= 1 << i
    return ScaledGps(denom // common, {a: tuple(row) for a, row in rows.items()},
                     tuple(emission), tuple(enabled))


def _lumped_gps(scaled: ScaledGps) -> Tuple[Tuple[int, ...], ScaledGps]:
    """The coarsest lumping of a scaled GPS and its quotient.

    A lumping is a partition of the states in which every state of a block
    sends the same weight, under each label, into each block.  Returns each
    state's block and the quotient: one row per block, taken from any one of
    its states, with weights summed per target block.

    Weighted Hopcroft refinement (Valmari & Franceschinis, TACAS 2010).  The
    whole state set is the first splitter, so per-label totals, and with
    them the enabled sets and the emission, are constant on blocks.  A
    splitter's predecessors are grouped by block and weight in one pass
    that skips one-state blocks, which cannot split; a block whose states
    do not all send one weight splits into those groups and the states that
    send none.  When a block that is not queued splits, every part but the
    largest is queued, since stability under the others and under the whole
    block gives stability under it; so a state's predecessors are read
    O(log n) times and the run is O(m log n) for m transitions.

    States that emit nothing send zero weight into every set, so they never
    split: they stay in block 0, which is never listed and never a splitter.
    When there are such states, the live block is queued in its place, and
    the per-state cost is that of a few C-level passes."""
    n = len(scaled.emission)
    # a state's weights into a set under every label, packed into one int:
    # label i's weight sits at bit i * shift, and no weight reaches 1 << shift
    shift = max(scaled.emission, default=0).bit_length()
    preds: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    into: Dict[int, int] = {}  # weights into the splitter, first the whole set
    for i, row in enumerate(scaled.rows.values()):
        k = i * shift
        for x in compress(range(n), row):
            r = row[x]
            into[x] = into.get(x, 0) + (sum(r.values()) << k)
            for y, w in r.items():
                preds[y].append((x, w << k))
    dead = len(into) < n  # some state emits nothing
    block = [0] * n
    members, waiting, queued = [set(into)], [], [False]
    if dead:  # block 0 keeps those states, unlisted; the live block 1 is queued
        members.insert(0, set())
        waiting, queued = [1], [False, True]
        for x in into:
            block[x] = 1
    while True:
        groups: Dict[Tuple[int, int], List[int]] = {}
        for x, w in into.items():
            b = block[x]
            if len(members[b]) > 1:
                groups.setdefault((b, w), []).append(x)
        cut: Dict[int, List[List[int]]] = {}
        for (b, _), xs in groups.items():
            cut.setdefault(b, []).append(xs)
        for b, parts in cut.items():
            rest = members[b]
            if len(parts) == 1 and len(parts[0]) == len(rest):
                continue
            if sum(map(len, parts)) == len(rest):
                parts.pop()  # every state moved: b keeps the last group
            ids = [b]
            for part in parts:
                c = len(members)
                members.append(set(part))
                rest.difference_update(part)
                for x in part:
                    block[x] = c
                queued.append(False)
                ids.append(c)
            if not queued[b]:
                ids.remove(max(ids, key=lambda c: len(members[c])))
            for c in ids:
                if not queued[c]:
                    waiting.append(c)
                    queued[c] = True
        if not waiting:
            break
        s = waiting.pop()
        queued[s] = False
        into = {}
        for y in members[s]:
            for x, w in preds.get(y, ()):
                into[x] = into.get(x, 0) + w

    reps = [min(m) for m in members if m]
    if dead:
        reps.insert(0, scaled.emission.index(0))
    rows = {}
    for a, row in scaled.rows.items():
        lumped = []
        for x in reps:
            sums: Dict[int, int] = {}
            for y, w in row[x].items():
                c = block[y]
                sums[c] = sums.get(c, 0) + w
            lumped.append(sums)
        rows[a] = tuple(lumped)
    return tuple(block), ScaledGps(scaled.denom, rows, tuple(scaled.emission[x] for x in reps),
                                   tuple(scaled.enabled[x] for x in reps))


@dataclass
class Gps(_NamedStates):
    """A generative probabilistic system: each state emits each action with an
    exact rational probability; the row over all actions sums to at most 1 and
    the deficit is the probability of termination.  Instances are treated as
    immutable after construction.

    ``transitions`` maps ``(state, label)`` to ``{succ: Fraction}``;
    :func:`parse_gps` builds the integer form ``_scaled`` instead, whose
    rows are ``{succ: weight}`` dicts, and ``__getattr__`` derives
    ``transitions`` from those rows on first use.

    ``_lumped`` caches the coarsest lumping of ``_scaled`` (see
    :func:`_lumped_gps`): each state's block and the quotient ``ScaledGps``
    with one ``{block: weight}`` row per block and label.  It does not
    depend on the semantics, and it is computed on first use, by the first
    ``gps_equiv`` on the system.
    """

    n_states: int
    alphabet: Tuple[str, ...]
    transitions: Dict[Tuple[int, str], Dict[int, Fraction]] = field(default_factory=dict)
    names: Optional[Tuple[str, ...]] = None

    def __getattr__(self, name: str):
        if name != "transitions":
            raise AttributeError(name)
        denom, rows = self._scaled.denom, self._scaled.rows
        self.transitions = {(x, a): {y: Fraction(w, denom) for y, w in row[x].items()}
                            for a, row in rows.items() for x in range(self.n_states) if row[x]}
        return self.transitions

    def row(self, x: int, label: str) -> Dict[int, Fraction]:
        return self.transitions.get((x, label), {})

    @cached_property
    def _scaled(self) -> ScaledGps:
        return _scaled_gps(self.n_states, self.alphabet, [
            (x, a, y, (p.numerator, p.denominator))
            for (x, a), row in self.transitions.items() for y, p in row.items()])

    @cached_property
    def _lumped(self) -> Tuple[Tuple[int, ...], ScaledGps]:
        return _lumped_gps(self._scaled)

    def emission_mass(self, x: int) -> Fraction:
        return Fraction(self._scaled.emission[x], self._scaled.denom)

    def termination_mass(self, x: int) -> Fraction:
        return 1 - self.emission_mass(x)


# ---------------------------------------------------------------------------
# Text format (version 1)
#
#   lts <n_states>              (or: gps <n_states>)
#   alphabet <label> <label> ...
#   final <idx> <idx> ...       (optional, LTS only)
#   names <name> <name> ...     (optional)
#   <src> <label> <dst>         (LTS transition)
#   <src> <label> <p>/<q> <dst> (GPS transition)
#
# '#' starts a comment; blank lines are ignored.
# ---------------------------------------------------------------------------

def _content_lines(text: str) -> List[Tuple[int, List[str]]]:
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    return [(i, toks) for i, toks in enumerate(map(str.split, lines), start=1) if toks]


def _parse_header(lines, kind: str):
    if not lines:
        raise FormatError("empty description")
    ln, toks = lines[0]
    if len(toks) != 2 or toks[0] != kind or not toks[1].isdecimal():
        raise FormatError(f"expected '{kind} <n_states>'", ln)
    n = _numeral(toks[1], sys.maxsize + 1)
    if n < 1:
        raise FormatError("need at least one state", ln)
    if n > sys.maxsize:  # no list can index more states
        raise FormatError(f"more than {sys.maxsize} states", ln)
    if len(lines) < 2:
        raise FormatError("missing 'alphabet' line", ln)
    ln2, toks2 = lines[1]
    if toks2[0] != "alphabet" or len(toks2) < 2:
        raise FormatError("expected 'alphabet <label> ...'", ln2)
    alphabet = tuple(toks2[1:])
    for lab in alphabet:
        if not _LABEL_RE.match(lab):
            raise FormatError(f"bad label {lab!r}", ln2)
        if lab == TAU:
            raise FormatError("'tau' is reserved and may not appear in the alphabet", ln2)
    if len(set(alphabet)) != len(alphabet):
        raise FormatError("duplicate label in alphabet", ln2)
    return n, alphabet


def _unpadded(tok: str) -> str:
    """A decimal token without its leading zero digits (``0`` or any other
    digit whose value is 0), keeping its last digit: ``int()`` limits the
    digits it reads, padding included."""
    i = 0
    while i < len(tok) - 1 and unicodedata.decimal(tok[i]) == 0:
        i += 1
    return tok[i:]


def _numeral(tok: str, default: int) -> int:
    """The value of a decimal token, or ``default`` if it is too long for
    ``int()`` even without its zero padding."""
    try:
        return int(_unpadded(tok))
    except ValueError:
        return default


def _parse_state(tok: str, n: int, ln: int) -> int:
    """A state token missing from the parsers' ``{str(i): i}``: ``007``, or an error."""
    if not tok.isdecimal() or (x := _numeral(tok, n)) >= n:
        raise FormatError(f"bad state index {tok!r}", ln)
    return x


def _parse_names(toks: List[str], n: int, ln: int,
                 names: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """The state names on a ``names`` line; ``names`` is what an earlier
    ``names`` line gave, if any.  A name may not hold a comma, which
    separates the members of a state-set argument."""
    if len(toks) - 1 != n:
        raise FormatError(f"expected {n} names, got {len(toks) - 1}", ln)
    if names is not None:
        raise FormatError("duplicate 'names' line", ln)
    if len(set(toks[1:])) != n:
        raise FormatError("repeated state name", ln)
    for name in toks[1:]:
        if "," in name:
            raise FormatError(f"state name {name!r} contains ','", ln)
    return tuple(toks[1:])


def parse_lts(text: str) -> Lts:
    """Parse the LTS text format; raise :class:`FormatError` with a line number
    on any violation (unknown labels, out-of-range states, bad header)."""
    lines = _content_lines(text)
    n, alphabet = _parse_header(lines, "lts")
    # a text names fewer states than it has characters; _parse_state reads the rest
    index = {str(i): i for i in range(min(n, len(text)))}
    finals: Optional[StateSet] = None
    names: Optional[Tuple[str, ...]] = None
    trans: Dict[Tuple[int, str], set] = {}
    for ln, toks in lines[2:]:
        if toks[0] == "final":
            if finals is not None:
                raise FormatError("duplicate 'final' line", ln)
            finals = frozenset(index[t] if t in index else _parse_state(t, n, ln)
                               for t in toks[1:])
        elif toks[0] == "names":
            names = _parse_names(toks, n, ln, names)
        else:
            if len(toks) != 3:
                raise FormatError("expected '<src> <label> <dst>'", ln)
            s, lab, d = toks
            src = index[s] if s in index else _parse_state(s, n, ln)
            if lab != TAU and lab not in alphabet:
                raise FormatError(f"unknown label {lab!r}", ln)
            dst = index[d] if d in index else _parse_state(d, n, ln)
            trans.setdefault((src, lab), set()).add(dst)
    return Lts(n, alphabet, {k: frozenset(v) for k, v in trans.items()}, finals, names)


def _probability(token: str, ln: int) -> Tuple[int, int]:
    """The probability ``Fraction(token)`` as ``(p, q)``, ``0 < p <= q``, not
    necessarily reduced: ``<digits>/<digits>`` is read by two ``int`` calls
    on the unpadded numerals, any other token by the general string parser."""
    num, slash, den = token.partition("/")
    try:  # int() also refuses a numeral too long for it
        if slash and num.isdecimal() and den.isdecimal() and (q := int(_unpadded(den))):
            p = int(_unpadded(num))
        else:
            p, q = Fraction(token).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad probability {token!r}", ln) from None
    if not 0 < p <= q:
        raise FormatError(f"probability {token} outside (0, 1]", ln)
    return p, q


def parse_gps(text: str) -> Gps:
    """Parse the GPS text format.  Probabilities are exact rationals ``p/q``;
    each state's total emission mass must be at most 1.  The GPS is built in
    its integer form, ``Gps._scaled``."""
    lines = _content_lines(text)
    n, alphabet = _parse_header(lines, "gps")
    # a text names fewer states than it has characters; _parse_state reads the rest
    index = {str(i): i for i in range(min(n, len(text)))}
    probs: Dict[str, Tuple[int, int]] = {}  # each distinct valid token, read once
    names: Optional[Tuple[str, ...]] = None
    edges: List[Tuple[int, str, int, Tuple[int, int]]] = []
    for ln, toks in lines[2:]:
        if toks[0] == "names":
            names = _parse_names(toks, n, ln, names)
            continue
        if len(toks) != 4:
            raise FormatError("expected '<src> <label> <p>/<q> <dst>'", ln)
        s, lab, tok, d = toks
        src = index[s] if s in index else _parse_state(s, n, ln)
        if lab not in alphabet:
            raise FormatError(f"unknown label {lab!r}", ln)
        pq = probs.get(tok)
        if pq is None:
            pq = probs[tok] = _probability(tok, ln)
        edges.append((src, lab, index[d] if d in index else _parse_state(d, n, ln), pq))
    scaled = _scaled_gps(n, alphabet, edges)
    for x, e in enumerate(scaled.emission):
        if e > scaled.denom:
            raise FormatError(f"state {x} emits total mass {Fraction(e, scaled.denom)} > 1")
    g = Gps.__new__(Gps)
    g.__dict__.update(n_states=n, alphabet=alphabet, names=names, _scaled=scaled)
    return g


def format_lts(lts: Lts) -> str:
    """Serialise back to the text format; ``parse_lts`` round-trips it."""
    out = [f"lts {lts.n_states}", "alphabet " + " ".join(lts.alphabet)]
    if lts.finals is not None:
        out.append("final " + " ".join(str(x) for x in sorted(lts.finals)))
    if lts.names is not None:
        out.append("names " + " ".join(lts.names))
    labels = list(lts.alphabet) + [TAU]
    for x in range(lts.n_states):
        for lab in labels:
            for y in sorted(lts.successors(x, lab)):
                out.append(f"{x} {lab} {y}")
    return "\n".join(out) + "\n"


def format_gps(g: Gps) -> str:
    out = [f"gps {g.n_states}", "alphabet " + " ".join(g.alphabet)]
    if g.names is not None:
        out.append("names " + " ".join(g.names))
    for x in range(g.n_states):
        for lab in g.alphabet:
            for y, p in sorted(g.row(x, lab).items()):
                out.append(f"{x} {lab} {p.numerator}/{p.denominator} {y}")
    return "\n".join(out) + "\n"


def disjoint_union(a: Lts, b: Lts) -> Lts:
    """Place two systems side by side (states of ``b`` shifted by ``a.n_states``).
    Alphabets must agree; names are kept when both systems carry them, and a
    name of ``b`` already in use takes primes (``x'``, ``x''``, ...) until it
    is free."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch in disjoint union")
    trans = dict(a.transitions)
    for (x, lab), ys in b.transitions.items():
        trans[(x + a.n_states, lab)] = frozenset(y + a.n_states for y in ys)
    finals = None
    if a.finals is not None or b.finals is not None:
        finals = frozenset(a.finals or ()) | frozenset(
            y + a.n_states for y in (b.finals or ()))
    names = None
    if a.names is not None and b.names is not None:
        taken = set(a.names)
        renamed = []
        for name in b.names:
            while name in taken:
                name += "'"
            taken.add(name)
            renamed.append(name)
        names = a.names + tuple(renamed)
    return Lts(a.n_states + b.n_states, a.alphabet, trans, finals, names)


# ---------------------------------------------------------------------------
# tau-aware primitives
#
# Every tau-derived fact comes from one Tarjan walk over the tau graph, run
# once per system and cached on it.  Tarjan finishes each strongly connected
# component after every component it tau-reaches, so a component's closure,
# divergence and weak rows are joins over components already finished.  The
# pass keeps every set of states as an int mask; the functions that return
# frozensets build them from the masks on each call.
# ---------------------------------------------------------------------------

class TauPass(NamedTuple):
    """The tau layer as state masks (bit ``x`` stands for state ``x``):
    ``closure[x]`` is ``x``'s tau-closure, ``weak[a][x]`` its weak
    ``a``-successors, and ``divergent`` the states that admit an infinite
    tau run.  Members of one tau strongly connected component share their
    closure and weak rows."""

    closure: Tuple[int, ...]
    weak: Dict[str, Tuple[int, ...]]
    divergent: int


def _tau_pass(lts: Lts) -> TauPass:
    n = lts.n_states
    succ: List[Iterable[int]] = [()] * n
    for (x, a), ys in lts.transitions.items():
        if a == TAU:
            succ[x] = sorted(ys)
    index = [-1] * n
    low = [0] * n
    counter = 0
    stack: List[int] = []
    comp_of = [-1] * n           # -1 while a state is on the Tarjan stack
    below: List[set] = []        # each component's tau-successor components
    closure: List[int] = []      # in the order Tarjan finishes the components
    divergent: List[bool] = []

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]  # (state, its tau-successors to go)
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp_of[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    c = len(closure)
                    comp: List[int] = []
                    reach = 0
                    while not comp or comp[-1] != v:
                        w = stack.pop()
                        comp.append(w)
                        comp_of[w] = c
                        reach |= 1 << w
                    succs = {comp_of[y] for w in comp for y in succ[w]}
                    succs.discard(c)
                    below.append(succs)
                    # a tau-cycle: size >= 2, or a tau self-loop
                    div = len(comp) >= 2 or v in succ[v]
                    for d in succs:
                        reach |= closure[d]
                        div = div or divergent[d]
                    closure.append(reach)
                    divergent.append(div)

    # A component's weak row joins the closures of its members' strong
    # successors, which may lie in components finished later, with the weak
    # rows of the components it tau-reaches, which are finished earlier.
    strong = {a: [0] * len(closure) for a in lts.alphabet}
    for (x, a), ys in lts.transitions.items():
        if a != TAU:
            row = 0
            for z in ys:
                row |= closure[comp_of[z]]
            strong[a][comp_of[x]] |= row
    weak: Dict[str, Tuple[int, ...]] = {}
    for a, rows in strong.items():
        for c, succs in enumerate(below):
            for d in succs:
                rows[c] |= rows[d]
        weak[a] = tuple(rows[c] for c in comp_of)
    return TauPass(tuple(closure[c] for c in comp_of), weak,
                   state_mask(x for x, c in enumerate(comp_of) if divergent[c]))


def tau_closure(lts: Lts, x: int) -> StateSet:
    """States reachable from ``x`` by zero or more tau steps."""
    return mask_states(lts._tau.closure[x])


def _weak_row(lts: Lts, label: str) -> Tuple[int, ...]:
    if label == TAU or label not in lts.alphabet:
        raise ValueError(f"label {label!r} not in the visible alphabet")
    return lts._tau.weak[label]


def weak_successors(lts: Lts, x: int, label: str) -> StateSet:
    """Weak transition targets: tau* label tau* from ``x``."""
    return mask_states(_weak_row(lts, label)[x])


def divergent_states(lts: Lts) -> StateSet:
    """States that admit an infinite tau run: those that tau-reach a tau-cycle.

    tau-cycles are found as strongly connected components of the tau graph
    that contain a tau edge (size >= 2, or a tau self-loop)."""
    return mask_states(lts._tau.divergent)


def diverges(lts: Lts, x: int) -> bool:
    """True iff ``x`` admits an infinite run of tau steps."""
    return bool(lts._tau.divergent >> x & 1)


def converges_on(lts: Lts, x: int, word: Iterable[str]) -> bool:
    """Convergence along a visible word: ``x`` converges on the empty word iff
    it does not diverge, and on ``a w`` iff it converges on the empty word and
    every weak a-successor converges on ``w``."""
    div = lts._tau.divergent
    frontier = 1 << x
    for a in word:
        if frontier & div:
            return False
        if frontier:
            frontier = join_at(_weak_row(lts, a), mask_bits(frontier))
    return not frontier & div


def initial_actions(lts: Lts, x: int) -> int:
    """Bitmask of visible labels enabled at ``x`` (strong transitions)."""
    m = 0
    for i, a in enumerate(lts.alphabet):
        if lts.successors(x, a):
            m |= 1 << i
    return m


def fail_sets(lts: Lts, x: int) -> FrozenSet[int]:
    """Failure sets of ``x``: every action subset disjoint from its enabled
    labels, i.e. the downward closure of the complement of ``initial_actions``."""
    comp = full_mask(lts.alphabet) & ~initial_actions(lts, x)
    return frozenset(submasks(comp))
