"""Semantic decorations of an LTS.

A decoration equips each state with an output drawn from a join-semilattice
and (for some semantics) adjusts the transition structure; determinising the
decorated system then turns behavioural equivalence for the chosen semantics
into Moore-machine equivalence.  Supported semantics tags:

==========  =========================================================
language    accepted-word indicator (needs final states)
trace       constant-true output, strong transitions
ctrace      completed traces: true exactly at deadlocked states
ready       singleton family holding the enabled-action set
failure     downward-closed family of refusable action sets
pfutures    possible futures: trace-equivalence class identifier
rtrace      ready traces: ready outputs over readiness-annotated labels
ftrace      failure traces: failure outputs over the same labels
may         may testing: weak transitions, constant-true output
must        must testing: weak transitions with a divergence top element
==========  =========================================================

A lattice output is a raw value, an int over its decoration's atoms or TOP
(see :class:`DecoratedLts`); tagged :class:`Output` values, with families
of action-subset bitmasks (see :mod:`semcheck.lts`), exist at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import inf
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple, Union

from .lts import (
    TAU,
    Lts,
    Record,
    StateSet,
    divergent_states,  # noqa: F401  not called; perfbench counts decorations.divergent_states
    downclose_masks,
    full_mask,
    join_at,
    labels_of,
    mask_bits,
    mask_states,
    state_mask,
    weak_successors,  # noqa: F401  not called; perfbench counts decorations.weak_successors
)

DEFAULT_CAP = 1_000_000

SEMANTICS = ("language", "trace", "ctrace", "ready", "failure",
             "pfutures", "rtrace", "ftrace", "may", "must")

#: semantics tag -> output kind
OUTPUT_KIND = {
    "language": "bit", "trace": "bit", "ctrace": "bit", "may": "bit",
    "ready": "family", "failure": "family", "rtrace": "family", "ftrace": "family",
    "pfutures": "class_set",
    "must": "top_or_family",
}

#: semantics whose family outputs are downward closed (eligible for the
#: antichain compaction in :func:`compact_output`).
DOWNCLOSED_FAMILY_SEMANTICS = ("failure", "ftrace", "must")


class VariantMismatch(ValueError):
    """An output or determinised state was used at the wrong variant."""


class CapExceeded(RuntimeError):
    """``stage`` ran out of budget after building ``states_built`` ``unit``
    (plural; the message says ``1 state``, ``1 pair``, ``1 refusal set``)."""

    def __init__(self, stage: str, states_built: int, what: str = "states"):
        self.stage, self.states_built, self.unit = stage, states_built, what
        counted = what[:-1] if states_built == 1 else what
        super().__init__(f"{stage}: exceeded cap after building {states_built} {counted}")


class Top:
    """Absorbing top element (divergence under must testing).  A copy or a
    pickle of :data:`TOP` is ``TOP`` itself, so ``is TOP`` tests hold on it."""

    __slots__ = ()

    def __eq__(self, other: object):
        return True if other.__class__ is Top else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __reduce__(self) -> str:
        return "TOP"

    def __repr__(self) -> str:
        return "TOP"

    def __or__(self, other: object) -> "Top":
        return self

    __ror__ = __or__


TOP = Top()

#: Effective transition label: a plain action, or an action paired with the
#: emitting state's enabled-action set (ready/failure traces).
EffLabel = Union[str, Tuple[str, FrozenSet[str]]]


class Output(NamedTuple):
    """A decorated output value.

    kind        payload
    ----        -------
    bit         0 or 1
    family      frozenset of action-subset bitmasks
    top_or_family  TOP, or a frozenset of bitmasks
    class_set   frozenset of trace-class identifiers
    prob        exact Fraction
    prob_family mapping action-subset mask -> Fraction, as sorted tuple pairs

    Values of the four lattice kinds join with ``|`` (TOP absorbs); the two
    probabilistic kinds are linear and have no join.
    """

    kind: str
    value: object

    def is_top(self) -> bool:
        return self.kind == "top_or_family" and self.value is TOP


#: output kind -> bottom value
BOTTOM_VALUE = {"bit": 0, "family": frozenset(), "top_or_family": frozenset(),
                "class_set": frozenset(), "prob": Fraction(0), "prob_family": ()}

#: the kinds that form join-semilattices: every value joins with ``|``
_LATTICE_KINDS = frozenset(OUTPUT_KIND.values())


def bottom_output(kind: str) -> Output:
    if kind not in BOTTOM_VALUE:
        raise VariantMismatch(f"unknown output kind {kind!r}")
    return Output(kind, BOTTOM_VALUE[kind])


def join_outputs(a: Output, b: Output) -> Output:
    """Join in the output semilattice.  Probabilistic outputs are linear-only
    and refuse to join."""
    if a.kind != b.kind:
        raise VariantMismatch(f"cannot join {a.kind} with {b.kind}")
    if a.kind not in _LATTICE_KINDS:
        raise VariantMismatch(f"outputs of kind {a.kind} admit no join")
    return Output(a.kind, a.value | b.value)


def join_all(kind: str, values: Iterable[Output]) -> Output:
    return reduce(join_outputs, values, bottom_output(kind))


# ---------------------------------------------------------------------------
# Downset / antichain correspondence
# ---------------------------------------------------------------------------

def antichain_min(masks: Iterable[int]) -> FrozenSet[int]:
    """Inclusion-minimal members of a family of action subsets."""
    ms = set(masks)
    return frozenset(m for m in ms
                     if not any(o != m and o & m == o for o in ms))


def downset_to_antichain(family: FrozenSet[int], alphabet: Tuple[str, ...]) -> FrozenSet[int]:
    """The antichain of complements of the maximal members of a downset.

    Inverse of :func:`antichain_to_downset`; the full powerset maps to the
    singleton antichain holding the empty set."""
    full = full_mask(alphabet)
    return antichain_min(full & ~m for m in family)


def antichain_to_downset(antichain: FrozenSet[int], alphabet: Tuple[str, ...]) -> FrozenSet[int]:
    """Downward closure of the complements of an antichain's members."""
    full = full_mask(alphabet)
    return downclose_masks(full & ~m for m in antichain)


def compact_output(v: Output, alphabet: Tuple[str, ...], semantics: str) -> Output:
    """Antichain form of a downward-closed family output (top element kept);
    outputs of other semantics are returned unchanged."""
    if (semantics not in DOWNCLOSED_FAMILY_SEMANTICS or v.value is TOP
            or v.kind not in ("family", "top_or_family")):
        return v
    return Output(v.kind, downset_to_antichain(v.value, alphabet))


# ---------------------------------------------------------------------------
# Decorated systems
# ---------------------------------------------------------------------------

#: A decorated row (the successors' state mask) or a raw lattice output (an
#: int over a decoration's atoms): an int, or TOP.
Row = Value = Union[int, Top]


class DecoratedLts(Record):
    """An LTS after decoration: per-state outputs, an effective alphabet, and
    transition rows that may be marked TOP (must testing under divergence).
    ``masks[label][x]`` is ``x``'s row under ``label`` as a state mask (bit
    ``y`` for successor ``y``), or TOP.  Treated as immutable.

    ``values[x]`` is ``x``'s raw output: a bit, TOP, or an int whose bit
    ``i`` stands for ``atoms[i]`` (an enabled-action mask under ready and
    rtrace, a maximal refusal under failure, ftrace and must, where a value
    holds every atom its family contains, a trace class under pfutures).
    Values join with ``|`` and are equal exactly when their outputs are;
    :meth:`decode` counts a family's members against ``cap``.

    ``cover``, when set, is a state-indexed table of masks (``cover[x]``
    holds ``x``) along which rows and values are monotone: for ``y`` in
    ``cover[x]``, ``x``'s value and every row of ``x`` lie above ``y``'s
    (TOP above everything).  A join over a set of states may then read only
    its members :func:`semcheck.lts.root_bits` keeps.  :func:`decorate`
    gives a may or must decoration its tau-closures: a weak row holds the
    weak rows of the closure's members, a must value joins the closure's
    stable refusals, and a state that reaches a divergent one is TOP itself.
    ``cover`` is not one of the ``_fields``, so equality and the repr
    ignore it."""

    _fields = ("semantics", "n_states", "alphabet", "eff_alphabet", "values", "atoms",
               "masks", "cap")

    def __init__(self, semantics: str, n_states: int, alphabet: Tuple[str, ...],
                 eff_alphabet: Tuple[EffLabel, ...], values: Tuple[Value, ...],
                 atoms: Tuple[int, ...], masks: Dict[EffLabel, Tuple[Row, ...]],
                 cap: int = DEFAULT_CAP, cover: Optional[Tuple[int, ...]] = None):
        self.semantics, self.n_states, self.alphabet = semantics, n_states, alphabet
        self.eff_alphabet, self.values, self.atoms = eff_alphabet, values, atoms
        self.masks, self.cap, self.cover = masks, cap, cover

    @property
    def output_kind(self) -> str:
        return OUTPUT_KIND[self.semantics]

    @cached_property
    def transitions(self) -> Dict[Tuple[int, EffLabel], Union[StateSet, Top]]:
        """The non-empty rows as frozensets (or TOP), keyed by
        ``(state, label)``; built on first use."""
        return {(x, a): row if row is TOP else mask_states(row)
                for x in range(self.n_states) for a in self.eff_alphabet
                if (row := self.masks[a][x])}

    @cached_property
    def outputs(self) -> Tuple[Output, ...]:
        return tuple(map(self.decode, self.values))

    def decode(self, value: Value) -> Output:
        kind = self.output_kind
        if kind == "bit" or value is TOP:
            return Output(kind, value)
        members = [self.atoms[i] for i in mask_bits(value)]
        if self.semantics not in DOWNCLOSED_FAMILY_SEMANTICS:
            return Output(kind, frozenset(members))
        family: set = set()   # the refusals' downsets, counted against the cap
        for m in members:
            sub = m
            while True:
                if sub not in family:
                    if len(family) >= self.cap:
                        raise CapExceeded("output rendering", len(family), "refusal sets")
                    family.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & m
        return Output(kind, frozenset(family))

    def row(self, x: int, label: EffLabel) -> Union[StateSet, Top]:
        if label not in self.masks:
            raise ValueError(f"unknown label {label!r}")
        row = self.masks[label][x]
        return row if row is TOP else mask_states(row)

    def output(self, x: int) -> Output:
        return self.decode(self.values[x])


def trace_class_of(lts: Lts, cap: int = DEFAULT_CAP) -> Tuple[int, ...]:
    """Trace-equivalence class of every state, as small integers numbered by
    first occurrence.

    Two exact searches over the system's visible rows (``lts._rows``) run in
    lockstep, and the classes come from whichever settles first.  Forward:
    the subset machine reachable from the singletons, refined to its
    coarsest partition.  Backward: the sets S_w of states with trace w, by
    predecessors from the full set (w empty); each new set moves its part of
    every block it cuts into a new block, until the blocks are singletons or
    no set is new.  Each search can be exponential where the other is small,
    so the side that has done less work (base states stepped times labels,
    plus the blocks each new set meets) steps next.
    ``cap`` bounds the sets each side stores; a side past it drops out, and
    :class:`CapExceeded` is raised once both have."""
    from .moore import MooreMachine, explore_steps, moore_partition_classes

    rows, labels = lts._rows, lts.alphabet
    n, width = lts.n_states, len(labels)
    preds = {a: [0] * n for a in labels}
    for a in labels:
        for x, row in enumerate(rows[a]):
            for y in mask_bits(row):
                preds[a][y] |= 1 << x

    def forward():
        search = explore_steps([1 << x for x in range(n)],
                               lambda s, a: join_at(rows[a], mask_bits(s)),
                               labels, cap, "determinisation")
        sets, steps, inits = next(search)
        work = 0
        for s in search:
            work += s.bit_count() * width
            yield work
        machine = MooreMachine("trace", labels, [int(s != 0) for s in sets], steps, inits)
        # the singletons are the first n states, so their blocks are
        # already numbered by first occurrence
        return moore_partition_classes(machine)[:n]

    def backward():
        search = explore_steps([(1 << n) - 1], lambda s, a: join_at(preds[a], mask_bits(s)),
                               labels, cap, "determinisation")
        sets, _, _ = next(search)
        block, size = [0] * n, [n]   # each state's block, each block's size
        work, done = 0, 1   # the sets the blocks are split by so far
        for s in search:
            work += s.bit_count() * width
            for t in sets[done:]:
                met: Dict[int, List[int]] = {}   # t's part of each block it meets
                for x in mask_bits(t):
                    met.setdefault(block[x], []).append(x)
                work += len(met)
                for b, xs in met.items():
                    if len(xs) < size[b]:   # t cuts b: its part is a new block
                        size[b] -= len(xs)
                        for x in xs:
                            block[x] = len(size)
                        size.append(len(xs))
            done = len(sets)
            if len(size) == n:
                break
            yield work
        ids: Dict[int, int] = {}
        return tuple(ids.setdefault(b, len(ids)) for b in block)

    sides, work = (forward(), backward()), [0, 0]   # a side past the cap is at inf
    while True:
        i = 1 if work[1] < work[0] else 0   # the side behind steps; forward on ties
        try:
            work[i] = next(sides[i])
        except StopIteration as settled:
            return settled.value
        except CapExceeded:
            if work[1 - i] == inf:
                raise
            work[i] = inf


def relabel_for_trace_decorations(lts: Lts) -> Lts:
    """Annotate every transition label with the source state's enabled-action
    set; the result is an LTS over pair labels ``(action, readiness)``.  Only
    pairs that actually occur are materialised."""
    enabled, alphabet = lts._enabled, lts.alphabet
    ready = {r: frozenset(labels_of(r, alphabet)) for r in set(enabled)}
    pair_edges: Dict[EffLabel, Dict[int, int]] = {}
    for a in alphabet:
        for x, m in lts._edges[a].items():
            pair_edges.setdefault((a, ready[enabled[x]]), {})[x] = m
    pairs = tuple(sorted(pair_edges, key=lambda p: (alphabet.index(p[0]), sorted(p[1]))))
    pair_edges[TAU] = {}   # every store has a tau row; the pair labels leave it empty
    return Lts._of_edges(lts.n_states, pairs, pair_edges, lts.finals, lts.names)


def decorate(lts: Lts, semantics: str, cap: int = DEFAULT_CAP) -> DecoratedLts:
    """Decorate ``lts`` for the given semantics tag.

    Strong semantics read only visible transitions (tau edges, if present,
    are internal and do not participate); may/must use weak transitions.
    ``language`` requires the system to declare final states."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    if semantics == "language" and lts.finals is None:
        raise ValueError("language semantics needs a 'final' line")
    states, alphabet = range(lts.n_states), lts.alphabet
    tau = lts._tau if semantics in ("may", "must") else None
    div = tau.divergent if semantics == "must" else 0

    eff_alphabet: Tuple[EffLabel, ...] = alphabet
    masks: Dict[EffLabel, Tuple[Row, ...]]
    if semantics in ("rtrace", "ftrace"):
        relabelled = relabel_for_trace_decorations(lts)
        eff_alphabet = relabelled.alphabet
        masks = relabelled._rows
    elif div:  # must: a divergent state's rows, and rows reaching one, are TOP
        masks = {a: tuple(TOP if div >> x & 1 or ws & div else ws
                          for x, ws in enumerate(rows))
                 for a, rows in tau.weak.items()}
    else:
        masks = lts._rows if tau is None else tau.weak

    values: List[Value]
    atoms: Tuple[int, ...] = ()
    if semantics == "language":
        values = [int(x in lts.finals) for x in states]
    elif semantics in ("trace", "may"):
        values = [1] * lts.n_states
    elif semantics == "ctrace":
        values = [int(not e) for e in lts._enabled]
    elif semantics == "pfutures":
        values = [1 << c for c in trace_class_of(lts, cap=cap)]
        atoms = tuple(states)
    elif semantics in ("ready", "rtrace"):
        ids: Dict[int, int] = {}
        values = [1 << ids.setdefault(e, len(ids)) for e in lts._enabled]
        atoms = tuple(ids)
    else:  # failure, ftrace and must: maximal refusals (of stable states, for must)
        full = full_mask(alphabet)
        moves = lts._edges[TAU] if semantics == "must" else {}
        refusal = {y: full & ~e for y, e in enumerate(lts._enabled) if y not in moves}
        atoms = tuple(dict.fromkeys(refusal.values()))
        # an atom lies inside r iff it has none of the labels outside r
        has = [state_mask(j for j, s in enumerate(atoms) if s >> i & 1)
               for i in range(len(alphabet))]   # has[i]: the atoms with label i
        every = (1 << len(atoms)) - 1
        below = {r: every & ~join_at(has, mask_bits(full & ~r)) for r in atoms}
        own = [below[refusal[y]] if y in refusal else 0 for y in states]
        stable = state_mask(refusal)
        # must: TOP on diverging states, else the join over the stable states
        # in the tau-closure (a convergent state tau-reaches at least one)
        values = own if semantics != "must" else [
            TOP if div >> x & 1 else join_at(own, mask_bits(tau.closure[x] & stable))
            for x in states]

    cover = tau.closure if tau is not None else None
    return DecoratedLts(semantics, lts.n_states, alphabet, eff_alphabet,
                        tuple(values), atoms, masks, cap, cover)


# ---------------------------------------------------------------------------
# Rendering helpers (used by the CLI and in test diagnostics)
# ---------------------------------------------------------------------------

def render_action_set(mask: int, alphabet: Tuple[str, ...]) -> str:
    return "{" + ",".join(labels_of(mask, alphabet)) + "}"


def render_output(v: Output, alphabet: Tuple[str, ...]) -> str:
    if v.kind == "bit":
        return str(v.value)
    if v.kind in ("family", "top_or_family"):
        if v.value is TOP:
            return "TOP"
        parts = sorted(v.value)
        return "{" + ",".join(render_action_set(m, alphabet) for m in parts) + "}"
    if v.kind == "class_set":
        return "{" + ",".join(str(c) for c in sorted(v.value)) + "}"
    if v.kind == "prob":
        return str(v.value)
    if v.kind == "prob_family":
        return "{" + ",".join(f"{render_action_set(m, alphabet)}:{p}"
                              for m, p in v.value) + "}"
    return repr(v)


def render_eff_label(label: EffLabel) -> str:
    if isinstance(label, str):
        return label
    a, ready = label
    return f"<{a},{{{','.join(sorted(ready))}}}>"
