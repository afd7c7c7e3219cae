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

Outputs are tagged values; families of action subsets use bitmasks over the
alphabet tuple (see :mod:`semcheck.lts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from .lts import (
    TAU,
    Lts,
    StateSet,
    divergent_states,  # noqa: F401  not called; perfbench counts decorations.divergent_states
    downclose_masks,
    fail_sets,
    full_mask,
    initial_actions,
    labels_of,
    mask_bits,
    mask_states,
    state_mask,
    tau_pass,
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


@dataclass(frozen=True)
class Top:
    """Absorbing top element (divergence under must testing)."""

    def __repr__(self) -> str:
        return "TOP"

    def __or__(self, other: object) -> "Top":
        return self

    __ror__ = __or__


TOP = Top()

#: Effective transition label: a plain action, or an action paired with the
#: emitting state's enabled-action set (ready/failure traces).
EffLabel = Union[str, Tuple[str, FrozenSet[str]]]


@dataclass(frozen=True)
class Output:
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
    out = bottom_output(kind)
    for v in values:
        out = join_outputs(out, v)
    return out


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
    if semantics not in DOWNCLOSED_FAMILY_SEMANTICS:
        return v
    if v.kind == "family":
        return Output("family", downset_to_antichain(v.value, alphabet))
    if v.kind == "top_or_family":
        if v.value is TOP:
            return v
        return Output("top_or_family", downset_to_antichain(v.value, alphabet))
    return v


# ---------------------------------------------------------------------------
# Decorated systems
# ---------------------------------------------------------------------------

#: A decorated row: the successors' state mask, or TOP.
Row = Union[int, Top]


@dataclass
class DecoratedLts:
    """An LTS after decoration: per-state outputs, an effective alphabet, and
    transition rows that may be marked TOP (must testing under divergence).
    ``masks[label][x]`` is ``x``'s row under ``label`` as a state mask (bit
    ``y`` for successor ``y``), or TOP.  Treated as immutable."""

    semantics: str
    n_states: int
    alphabet: Tuple[str, ...]
    eff_alphabet: Tuple[EffLabel, ...]
    outputs: Tuple[Output, ...]
    masks: Dict[EffLabel, Tuple[Row, ...]]

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
    def values(self) -> Tuple[object, ...]:
        """The raw output value of every state (``outputs[x].value``)."""
        return tuple(o.value for o in self.outputs)

    def row(self, x: int, label: EffLabel) -> Union[StateSet, Top]:
        if label not in self.masks:
            raise ValueError(f"unknown label {label!r}")
        row = self.masks[label][x]
        return row if row is TOP else mask_states(row)

    def output(self, x: int) -> Output:
        return self.outputs[x]


def trace_class_of(lts: Lts, cap: int = DEFAULT_CAP) -> Tuple[int, ...]:
    """Trace-equivalence class of every state, as small integers numbered by
    first occurrence.  Classes are read off the trace-decorated Moore machine
    built from all singleton state sets and refined to its coarsest partition."""
    from .moore import moore_partition_classes, reachable_machine

    singletons = [1 << x for x in range(lts.n_states)]
    machine = reachable_machine(decorate(lts, "trace"), singletons, cap=cap)
    # The singletons are the machine's first n states, so their blocks are
    # already numbered by first occurrence.
    return moore_partition_classes(machine)[:lts.n_states]


def relabel_for_trace_decorations(lts: Lts) -> Lts:
    """Annotate every transition label with the source state's enabled-action
    set; the result is an LTS over pair labels ``(action, readiness)``.  Only
    pairs that actually occur are materialised."""
    pair_trans: Dict[Tuple[int, EffLabel], StateSet] = {}
    pairs = set()
    for x in range(lts.n_states):
        ready = frozenset(labels_of(initial_actions(lts, x), lts.alphabet))
        for a in lts.alphabet:
            ys = lts.successors(x, a)
            if ys:
                lab = (a, ready)
                pairs.add(lab)
                pair_trans[(x, lab)] = ys
    order = {a: i for i, a in enumerate(lts.alphabet)}
    alphabet = tuple(sorted(pairs, key=lambda p: (order[p[0]], sorted(p[1]))))
    return Lts(lts.n_states, alphabet, pair_trans, lts.finals, lts.names)


def _row_masks(lts: Lts) -> Dict[EffLabel, Tuple[int, ...]]:
    """The visible rows of ``lts`` as state masks, label by label."""
    rows = {a: [0] * lts.n_states for a in lts.alphabet}
    for (x, a), ys in lts.transitions.items():
        if a != TAU:
            rows[a][x] = state_mask(ys)
    return {a: tuple(r) for a, r in rows.items()}


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
    tau = tau_pass(lts) if semantics in ("may", "must") else None
    div = tau.divergent if semantics == "must" else 0

    eff_alphabet: Tuple[EffLabel, ...] = alphabet
    masks: Dict[EffLabel, Tuple[Row, ...]]
    if semantics in ("rtrace", "ftrace"):
        relabelled = relabel_for_trace_decorations(lts)
        eff_alphabet = relabelled.alphabet
        masks = _row_masks(relabelled)
    elif tau is not None:  # may: div is empty, so no row is TOP
        masks = {a: tuple(TOP if div >> x & 1 or ws & div else ws
                          for x, ws in enumerate(rows))
                 for a, rows in tau.weak.items()}
    else:
        masks = _row_masks(lts)

    values: List[object]
    if semantics == "language":
        values = [int(x in lts.finals) for x in states]
    elif semantics in ("trace", "may"):
        values = [1] * lts.n_states
    elif semantics == "ctrace":
        values = [int(initial_actions(lts, x) == 0) for x in states]
    elif semantics in ("ready", "rtrace"):
        values = [frozenset({initial_actions(lts, x)}) for x in states]
    elif semantics in ("failure", "ftrace"):
        values = [fail_sets(lts, x) for x in states]
    elif semantics == "pfutures":
        values = [frozenset({c}) for c in trace_class_of(lts, cap=cap)]
    else:
        # must: TOP on diverging states; on every other state the join of the
        # refusal families of the stable states in its tau-closure (a
        # convergent state's tau-graph is acyclic, so there is at least one).
        stable = state_mask(y for y in states if not lts.successors(y, TAU))
        refusals = {y: fail_sets(lts, y) for y in mask_bits(stable)}
        values = [TOP if div >> x & 1 else frozenset().union(
                      *(refusals[y] for y in mask_bits(tau.closure[x] & stable)))
                  for x in states]

    kind = OUTPUT_KIND[semantics]
    return DecoratedLts(semantics, lts.n_states, alphabet, eff_alphabet,
                        tuple(Output(kind, v) for v in values), masks)


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
