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
from functools import cached_property
from fractions import Fraction
from itertools import compress, islice
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

#: The most members :func:`root_bits` keeps before it gives a set up to a
#: full read.  On a tau-chain numbered at random, a set of k states keeps
#: about ln(k) + 0.6 (the left-to-right minima of a random order): 9 of 5000.
#: 16 is the least power of two at which no read gives up, on the shuffled
#: 5000-state chain of tests/test_cli.py (double reversal 33 ms in process;
#: 300 ms at 8) or in perfbench's seed-49 passes (24 of tau-heavy's 1,438
#: covered reads give up at 8).  Numbered from its end the chain gives up
#: every wide read: 0.57-0.62 s from 4 to 32, 5.4-5.8 s unbounded (Python 3.11,
#: BENCH_37.json ``in_process.root_walk``).
ROOT_WALK = 16


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


def root_bits(mask: int, cover: Optional[Sequence[int]]) -> Optional[List[int]]:
    """The members of ``mask`` a join over it reads, ascending, or None when
    the join reads every member (so a caller reads ``root_bits(m, cover) or
    mask_bits(m)``).  The lowest member is kept, every member of its
    ``cover`` entry (which holds the member itself) is dropped, and so on.
    Each dropped member lies in a kept member's cover, so over a table whose
    entry for ``y`` lies below the entry for ``x`` whenever ``y`` is in
    ``cover[x]``, :func:`join_at` over the kept members equals the join over
    all of them.  Each kept member costs time in the width of the mask, and
    a numbering against the cover keeps every member (a tau-chain numbered
    from its end), so the walk gives up after ``ROOT_WALK`` kept members.
    Without a cover there is no walk."""
    if cover is None:
        return None
    out = []
    while mask:
        if len(out) == ROOT_WALK:
            return None
        x = (mask & -mask).bit_length() - 1
        out.append(x)
        mask ^= mask & cover[x]
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

class Record:
    """Value equality and a repr over the attributes named in ``_fields``.
    A subclass that does not define ``__hash__`` is unhashable."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class _NamedStates(Record):
    """State naming shared by :class:`Lts` and :class:`Gps`, which both carry
    ``n_states`` and optional display ``names``."""

    n_states: int
    names: Optional[Tuple[str, ...]]

    def resolve_state(self, token: str) -> int:
        """Map a display name or numeric index to a state; names win ties."""
        if self.names and token in self.names:
            return self.names.index(token)
        if token.isdecimal() and (x := _numeral(token, self.n_states)) < self.n_states:
            return x
        raise ValueError(f"unknown state {token!r}")


class Lts(_NamedStates):
    """A finite LTS over a fixed visible alphabet, with optional final states
    (for language semantics) and optional display names.

    ``transitions`` maps ``(state, label)`` to the (possibly empty) set of
    successors; absent keys mean the empty set.  The label ``"tau"`` is the
    internal action and never part of ``alphabet``.  Instances are treated as
    immutable after construction.

    The layers read the edge store instead: ``_edges[label][x]`` is ``x``'s
    non-zero successor mask, with a dict for each visible label and tau.
    :func:`parse_lts` builds only the store, and ``transitions`` is decoded
    from it on first use; a constructor-built system derives the store.
    ``_rows``, ``_enabled`` and ``_tau`` are its cached views.
    """

    _fields = ("n_states", "alphabet", "transitions", "finals", "names")

    def __init__(self, n_states: int, alphabet: Tuple[str, ...],
                 transitions: Optional[Dict[Tuple[int, str], StateSet]] = None,
                 finals: Optional[StateSet] = None, names: Optional[Tuple[str, ...]] = None):
        self.n_states, self.alphabet = n_states, alphabet
        self.transitions = {} if transitions is None else transitions
        self.finals, self.names = finals, names

    @cached_property
    def transitions(self) -> Dict[Tuple[int, str], StateSet]:
        return {(x, a): mask_states(m) for a, row in self._edges.items() for x, m in row.items()}

    @classmethod
    def _of_edges(cls, n_states, alphabet, edges, finals, names) -> "Lts":
        """The system with edge store ``edges``; ``transitions`` is left to decode."""
        lts = cls.__new__(cls)
        lts.__dict__.update(n_states=n_states, alphabet=alphabet, _edges=edges,
                            finals=finals, names=names)
        return lts

    def successors(self, x: int, label: str) -> StateSet:
        return mask_states(self._edges.get(label, {}).get(x, 0))

    @cached_property
    def _edges(self) -> Dict[str, Dict[int, int]]:
        edges: Dict[str, Dict[int, int]] = {a: {} for a in self.alphabet + (TAU,)}
        for (x, a), ys in self.transitions.items():
            if ys:
                edges.setdefault(a, {})[x] = state_mask(ys)
        return edges

    @cached_property
    def _rows(self) -> Dict[str, Tuple[int, ...]]:
        """Each visible label's rows as state masks; tau edges are left out."""
        rows = {a: [0] * self.n_states for a in self.alphabet}
        for a, row in rows.items():
            for x, m in self._edges[a].items():
                row[x] = m
        return {a: tuple(row) for a, row in rows.items()}

    @cached_property
    def _enabled(self) -> Tuple[int, ...]:
        """Each state's visible labels with a successor, as a mask over the alphabet."""
        enabled = [0] * self.n_states
        for i, a in enumerate(self.alphabet):
            for x in self._edges[a]:
                enabled[x] |= 1 << i
        return tuple(enabled)

    @cached_property
    def _tau(self) -> "TauPass":
        return _tau_pass(self)


class ScaledGps(NamedTuple):
    """A GPS's probabilities over one common denominator, all integers:
    ``denom`` is the lcm of every transition probability's denominator,
    ``rows[label][x]`` maps each of ``x``'s ``label``-successors to its
    probability times ``denom`` (the dict its probabilities were read into,
    empty when ``x`` does not emit ``label``), ``emission[x]`` is ``x``'s emission
    mass times ``denom``, and bit i of ``enabled[x]`` is set when ``x`` emits
    the i-th label."""

    denom: int
    rows: Dict[str, Tuple[Dict[int, int], ...]]
    emission: Tuple[int, ...]
    enabled: Tuple[int, ...]


def _scaled_gps(n: int, rows: Dict[str, Dict[int, Dict[int, object]]],
                pqs: Dict[object, Tuple[int, int]]) -> ScaledGps:
    """The integer form of a GPS of ``n`` states whose ``rows[label][x]``, for
    the states that emit ``label``, map successors to keys of ``pqs``, each
    an entry's probability as ``(p, q)``.  Weights are taken over the lcm of
    every q, then divided by their gcd with it, which leaves ``denom`` the
    lcm of the reduced denominators."""
    denom = math.lcm(*(q for _, q in pqs.values()))
    weight = {t: p * (denom // q) for t, (p, q) in pqs.items()}
    common = math.gcd(denom, *weight.values())
    denom, weight = denom // common, {t: w // common for t, w in weight.items()}
    emission, enabled, scaled = [0] * n, [0] * n, {}
    for i, (a, row) in enumerate(rows.items()):
        full = [{} for _ in range(n)]
        for x, r in row.items():
            r = full[x] = {y: weight[t] for y, t in r.items()}
            emission[x] += sum(r.values())
            enabled[x] |= 1 << i
        scaled[a] = tuple(full)
    return ScaledGps(denom, scaled, tuple(emission), tuple(enabled))


def _lumped_gps(scaled: ScaledGps) -> Tuple[int, ...]:
    """The coarsest lumping of a scaled GPS, as each state's block.

    A lumping is a partition of the states in which every state of a block
    sends the same weight, under each label, into each block.

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
    preds: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
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
    members, size, waiting, queued = [set(into)], [len(into)], [], [False]
    if dead:  # block 0 keeps those states, unlisted; the live block 1 is queued
        members.insert(0, set())
        size, waiting, queued = [0, len(into)], [1], [False, True]
        for x in into:
            block[x] = 1
    while True:
        groups: Dict[Tuple[int, int], List[int]] = {}
        for x, w in into.items():
            b = block[x]
            if size[b] > 1:
                groups.setdefault((b, w), []).append(x)
        cut: Dict[int, List[List[int]]] = {}
        for (b, _), xs in groups.items():
            cut.setdefault(b, []).append(xs)
        for b, parts in cut.items():
            rest = members[b]
            if len(parts) == 1 and len(parts[0]) == size[b]:
                continue
            if sum(map(len, parts)) == size[b]:
                parts.pop()  # every state moved: b keeps the last group
            ids = [b]
            for part in parts:
                c = len(members)
                members.append(set(part))
                rest.difference_update(part)
                size.append(len(part))
                size[b] -= len(part)
                for x in part:
                    block[x] = c
                queued.append(False)
                ids.append(c)
            if not queued[b]:
                ids.remove(max(ids, key=size.__getitem__))
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
            for x, w in preds[y]:
                into[x] = into.get(x, 0) + w
    return tuple(block)


class Gps(_NamedStates):
    """A generative probabilistic system: each state emits each action with an
    exact rational probability; the row over all actions sums to at most 1 and
    the deficit is the probability of termination.  Instances are treated as
    immutable after construction.

    ``transitions`` maps ``(state, label)`` to ``{succ: Fraction}``;
    :func:`parse_gps` builds the integer form ``_scaled`` instead, whose
    rows are ``{succ: weight}`` dicts, and ``transitions`` is derived from
    those rows on first use.

    ``_blocks`` caches the coarsest lumping of ``_scaled`` as each state's
    block (see :func:`_lumped_gps`); it does not depend on the semantics.
    The first ``gps_equiv`` on the system computes it, and every search
    across blocks reads each block at its least state.
    """

    _fields = ("n_states", "alphabet", "transitions", "names")

    def __init__(self, n_states: int, alphabet: Tuple[str, ...],
                 transitions: Optional[Dict[Tuple[int, str], Dict[int, Fraction]]] = None,
                 names: Optional[Tuple[str, ...]] = None):
        self.n_states, self.alphabet = n_states, alphabet
        self.transitions = {} if transitions is None else transitions
        self.names = names

    @cached_property
    def transitions(self) -> Dict[Tuple[int, str], Dict[int, Fraction]]:
        denom, rows = self._scaled.denom, self._scaled.rows
        return {(x, a): {y: Fraction(w, denom) for y, w in row[x].items()}
                for a, row in rows.items() for x in range(self.n_states) if row[x]}

    def row(self, x: int, label: str) -> Dict[int, Fraction]:
        return self.transitions.get((x, label), {})

    @cached_property
    def _scaled(self) -> ScaledGps:
        rows = {a: {} for a in self.alphabet}
        for (x, a), row in self.transitions.items():
            if row:
                rows[a][x] = row
        pqs = {p: p.as_integer_ratio() for r in self.transitions.values() for p in r.values()}
        return _scaled_gps(self.n_states, rows, pqs)

    @cached_property
    def _blocks(self) -> Tuple[int, ...]:
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

def _parse_header(text: str, kind: str):
    """Each line's number and tokens, ``#`` comments cut and blank lines
    kept, as an iterator past the header, then the state count and alphabet."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    # all lines split first: freeing tokens line by line raised the peak RSS
    lines = enumerate(list(map(str.split, lines)), 1)
    head = list(islice(((ln, toks) for ln, toks in lines if toks), 2))
    if not head:
        raise FormatError("empty description")
    ln, toks = head[0]
    if len(toks) != 2 or toks[0] != kind or not toks[1].isdecimal():
        raise FormatError(f"expected '{kind} <n_states>'", ln)
    n = _numeral(toks[1], sys.maxsize + 1)
    if n < 1:
        raise FormatError("need at least one state", ln)
    if n > sys.maxsize:  # no list can index more states
        raise FormatError(f"more than {sys.maxsize} states", ln)
    if len(head) < 2:
        raise FormatError("missing 'alphabet' line", ln)
    ln2, toks2 = head[1]
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
    return lines, n, alphabet


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
    lines, n, alphabet = _parse_header(text, "lts")
    # a text names fewer states than it has characters; _parse_state reads the rest
    index = {str(i): i for i in range(min(n, len(text)))}
    finals: Optional[StateSet] = None
    names: Optional[Tuple[str, ...]] = None
    edges: Dict[str, Dict[int, int]] = {a: {} for a in alphabet + (TAU,)}
    for ln, toks in lines:
        if not toks:
            continue
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
            row = edges.get(lab)
            if row is None:
                raise FormatError(f"unknown label {lab!r}", ln)
            dst = index[d] if d in index else _parse_state(d, n, ln)
            row[src] = row.get(src, 0) | 1 << dst
    return Lts._of_edges(n, alphabet, edges, finals, names)


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
    its integer form, ``Gps._scaled``, from rows of probability tokens."""
    lines, n, alphabet = _parse_header(text, "gps")
    # a text names fewer states than it has characters; _parse_state reads the rest
    index = {str(i): i for i in range(min(n, len(text)))}
    probs: Dict[object, Tuple[int, int]] = {}  # each distinct valid token, read once
    names: Optional[Tuple[str, ...]] = None
    rows: Dict[str, Dict[int, Dict[int, object]]] = {a: {} for a in alphabet}
    summed = False
    for ln, toks in lines:
        if len(toks) != 4 or toks[0] == "names":
            if toks and toks[0] == "names":
                names = _parse_names(toks, n, ln, names)
            elif toks:
                raise FormatError("expected '<src> <label> <p>/<q> <dst>'", ln)
            continue
        s, lab, tok, d = toks
        src = index[s] if s in index else _parse_state(s, n, ln)
        row = rows.get(lab)
        if row is None:
            raise FormatError(f"unknown label {lab!r}", ln)
        if tok not in probs:
            probs[tok] = _probability(tok, ln)
        dst = index[d] if d in index else _parse_state(d, n, ln)
        r = row.get(src)
        if r is None:
            row[src] = {dst: tok}
        elif dst in r:  # a repeated line: the entry's key becomes the summed (p, q)
            pq = (Fraction(*probs[r[dst]]) + Fraction(*probs[tok])).as_integer_ratio()
            r[dst] = probs[pq] = pq
            summed = True
        else:
            r[dst] = tok
    if summed:  # drop the keys that are no longer entries
        probs = {t: probs[t] for row in rows.values() for r in row.values() for t in r.values()}
    scaled = _scaled_gps(n, rows, probs)
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
    rows = [(lab, lts._edges[lab]) for lab in lts.alphabet + (TAU,)]
    for x in sorted(set().union(*(row for _, row in rows))):
        for lab, row in rows:
            for y in mask_bits(row.get(x, 0)):
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
    k = a.n_states
    edges = {lab: dict(row) for lab, row in a._edges.items()}
    for lab, row in b._edges.items():
        edges.setdefault(lab, {}).update((x + k, m << k) for x, m in row.items())
    finals = None
    if a.finals is not None or b.finals is not None:
        finals = frozenset(a.finals or ()) | frozenset(
            y + k for y in (b.finals or ()))
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
    return Lts._of_edges(k + b.n_states, a.alphabet, edges, finals, names)


# ---------------------------------------------------------------------------
# tau-aware primitives
#
# Every tau-derived fact comes from one Tarjan walk over the states with a tau
# edge, run once per system and cached on it.  A component finishes after the
# components it tau-reaches, so closures and divergence are set as components
# finish, and each label's weak rows come from one sweep over the finish
# order.  Sets of states are int masks; the frozenset API builds its sets.
# ---------------------------------------------------------------------------

class TauPass(NamedTuple):
    """The tau layer as state masks (bit ``x`` stands for state ``x``), set
    per state by :func:`_tau_pass`: ``closure[x]`` is ``x``'s tau-closure,
    ``weak[a][x]`` its weak ``a``-successors, and ``divergent`` the states
    that admit an infinite tau run.  The members of one tau strongly
    connected component share one closure and one weak row per label."""

    closure: Tuple[int, ...]
    weak: Dict[str, Tuple[int, ...]]
    divergent: int


def _tau_pass(lts: Lts) -> TauPass:
    """The tau layer of ``lts`` from one Tarjan walk rooted at its tau-moving
    states.  A tau-free state the walk meets is closed at once, off the work
    stack; one it never meets keeps ``1 << x``.  ``order`` lists the finished
    components: (state, tau-successors, ()), or (root, tau-successors, members)."""
    n, edges, moves = lts.n_states, lts._edges, lts._edges[TAU]
    succ: List[Sequence[int]] = [()] * n
    for x, m in moves.items():
        succ[x] = [m.bit_length() - 1] if m & (m - 1) == 0 else mask_bits(m)
    closure, index, low = [0] * n, [-1] * n, [0] * n   # closure 0: not closed yet
    counter = divergent = 0
    stack, order = [], []  # the Tarjan stack; the finished components
    for root in moves:
        if closure[root]:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]  # (state, its tau-successors to go)
        while work:
            v, todo = work[-1]
            for w in todo:
                if closure[w]:
                    continue
                if index[w] >= 0:  # on the Tarjan stack
                    if index[w] < low[v]:
                        low[v] = index[w]
                elif succ[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                else:
                    closure[w] = 1 << w
            else:
                work.pop()
                if low[v] < index[v]:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                elif stack[-1] == v:
                    stack.pop()
                    reach = 1 << v
                    for y in succ[v]:
                        reach |= closure[y]
                    closure[v] = reach
                    if reach & divergent or moves[v] >> v & 1:  # or a tau self-loop
                        divergent |= 1 << v
                    order.append((v, succ[v], ()))
                else:  # a tau-cycle: every member diverges
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    outs = [y for w in comp for y in succ[w]]
                    members = state_mask(comp)
                    reach = members | join_at(closure, outs)
                    for w in comp:
                        closure[w] = reach
                    divergent |= members
                    order.append((v, outs, comp))

    # A weak row joins its strong successors' closures and its tau-successors'
    # weak rows, finished earlier or tau-free.  An unused label keeps zeros.
    movers = state_mask(moves)
    weak: Dict[str, Tuple[int, ...]] = dict.fromkeys(lts.alphabet, (0,) * n)
    for a in filter(edges.get, lts.alphabet):
        rows = [0] * n
        for x, m in edges[a].items():
            t = m & movers   # the successors with tau edges; the rest are their own closure
            if t:
                m |= closure[t.bit_length() - 1] if t & (t - 1) == 0 else join_at(closure, mask_bits(t))
            rows[x] = m
        for v, ys, comp in order:
            m = join_at(rows, comp) if comp else rows[v]
            for y in ys:
                m |= rows[y]
            rows[v] = m
            for w in comp:
                rows[w] = m
        weak[a] = tuple(rows)
    if 0 in closure:
        closure = [c or 1 << x for x, c in enumerate(closure)]
    return TauPass(tuple(closure), weak, divergent)


def _state(lts: Lts, x: int) -> int:
    if not 0 <= x < lts.n_states:
        raise ValueError(f"unknown state {x!r}")
    return x


def tau_closure(lts: Lts, x: int) -> StateSet:
    """States reachable from ``x`` by zero or more tau steps."""
    return mask_states(lts._tau.closure[_state(lts, x)])


def _weak_row(lts: Lts, label: str) -> Tuple[int, ...]:
    if label == TAU or label not in lts.alphabet:
        raise ValueError(f"label {label!r} not in the visible alphabet")
    return lts._tau.weak[label]


def weak_successors(lts: Lts, x: int, label: str) -> StateSet:
    """Weak transition targets: tau* label tau* from ``x``."""
    return mask_states(_weak_row(lts, label)[_state(lts, x)])


def divergent_states(lts: Lts) -> StateSet:
    """States that admit an infinite tau run: those that tau-reach a tau-cycle,
    a strongly connected component of two or more states, or a tau self-loop."""
    return mask_states(lts._tau.divergent)


def diverges(lts: Lts, x: int) -> bool:
    """True iff ``x`` admits an infinite run of tau steps."""
    return bool(lts._tau.divergent >> _state(lts, x) & 1)


def converges_on(lts: Lts, x: int, word: Iterable[str]) -> bool:
    """Convergence along a visible word: ``x`` converges on the empty word iff
    it does not diverge, and on ``a w`` iff it converges on the empty word and
    every weak a-successor converges on ``w``."""
    div, closure = lts._tau.divergent, lts._tau.closure
    frontier = 1 << _state(lts, x)
    for a in word:
        if frontier & div:
            return False
        if frontier:   # a weak row holds the weak rows of the closure's members
            frontier = join_at(_weak_row(lts, a),
                               root_bits(frontier, closure) or mask_bits(frontier))
    return not frontier & div


def initial_actions(lts: Lts, x: int) -> int:
    """Bitmask of visible labels enabled at ``x`` (strong transitions)."""
    return lts._enabled[_state(lts, x)]


def fail_sets(lts: Lts, x: int) -> FrozenSet[int]:
    """Failure sets of ``x``: every action subset disjoint from its enabled
    labels, i.e. the downward closure of the complement of ``initial_actions``."""
    comp = full_mask(lts.alphabet) & ~initial_actions(lts, x)
    return frozenset(submasks(comp))
