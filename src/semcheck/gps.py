"""Behavioural equivalences for generative probabilistic systems.

A GPS determinises into a machine over state distributions; the probabilistic
ready/failure/trace decorations make the outputs linear in the distribution,
so equality of two states' behaviours reduces to every word sending their
difference vector to output zero.  That is decided exactly by a
breadth-first linear-span search (Tzeng 1992): the difference vector's orbit
under the transition maps spans a subspace of dimension at most the number of
states, so at most that many basis insertions occur before the queue drains.
Each output is tested when its vector is generated; every vector queued ahead
has zero output, so the word is the one a test at dequeue time would return.

The search runs on integers from the parser on.  ``parse_gps`` builds each
GPS over one common denominator (``Gps._scaled``), and since zero output and
span membership are blind to nonzero scalars, every vector is carried as a
primitive integer vector (divided by the gcd of its entries) and reduced in
place, fraction-free, ``w <- b[p] * w - w[p] * b``.  The state outputs are
one integer table, ``_weights``, that ``gps_decorate`` and the search share.
``Distribution`` and ``Fraction`` appear only at the API boundary, where
``gps_det_step`` and ``gps_det_output`` run the same linear kernels on
rational vectors.

The search runs on the blocks of the lumping, not on the states.  Each GPS
caches its coarsest lumping (``Gps._blocks``, computed in O(m log n) on first
use): a partition of the states in which every state of a block sends the
same weight, under each label, into each block, so every state output is
constant on blocks too.  Lumping preserves behaviour, behaviour(d) =
behaviour(dV) for the block-indicator matrix V, so ``gps_equiv`` maps both
states to their blocks.  Two states of one block are equal at once.  Any
other pair is searched on vectors over the blocks: each block is read at its
least state, and a step counts each successor at its block, which sums the
block's weight into every block as it goes; no quotient system is built.
Verdicts and words cannot change: the search returns the shortlex-first
separating word whatever it prunes, because a vector with nonzero output is
never in the span of the zero-output vectors it is compared against, and
every extension of a pruned prefix is a combination of extensions of words
earlier in shortlex order.  So any exact reduction returns the same word.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .decorations import Output, VariantMismatch
from .lts import Gps, Record, ScaledGps, full_mask, submasks

GPS_SEMANTICS = ("g_ready", "g_failure", "g_mfailure", "g_trace", "g_mtrace")


class Distribution(Record):
    """A sparse rational vector over states.

    Unsigned distributions (``signed=False``) are sub-probability: entries
    positive, total mass at most 1.  Signed vectors, such as the differences
    :meth:`sub` returns, relax both constraints."""

    __slots__ = _fields = ("entries", "signed")

    def __init__(self, entries: Tuple[Tuple[int, Fraction], ...], signed: bool = False):
        self.entries, self.signed = entries, signed
        if any(p == 0 for _, p in entries):
            raise ValueError("distribution entries must be nonzero")
        if not signed:
            if any(p < 0 for _, p in entries):
                raise ValueError("unsigned distribution with negative mass")
            if self.mass() > 1:
                raise ValueError("unsigned distribution with mass above 1")

    def __hash__(self) -> int:
        return hash((self.entries, self.signed))

    @staticmethod
    def from_dict(weights: Dict[int, Fraction], signed: bool = False) -> "Distribution":
        entries = tuple(sorted((x, p) for x, p in weights.items() if p != 0))
        return Distribution(entries, signed)

    @staticmethod
    def point(x: int) -> "Distribution":
        return Distribution(((x, Fraction(1)),))

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.entries)

    def mass(self) -> Fraction:
        return sum((p for _, p in self.entries), Fraction(0))

    def sub(self, other: "Distribution") -> "Distribution":
        w = self.as_dict()
        for x, p in other.entries:
            w[x] = w.get(x, Fraction(0)) - p
        return Distribution.from_dict(w, signed=True)

    def is_zero(self) -> bool:
        return not self.entries


class GpsDecorated(NamedTuple):
    """A GPS with per-state probabilistic outputs for one semantics tag."""

    semantics: str
    gps: Gps
    outputs: Tuple[Output, ...]


def _weights(scaled: ScaledGps, semantics: str) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Each state's output under ``semantics`` as integer ``(mask, weight)``
    pairs, a ``prob`` output being one pair under mask 0, for the states of
    ``scaled``: a GPS's ``_scaled``, or the view of it at each lumping
    block's least state that the search reads.  Weights are over 1, except
    under g_mtrace, where they are over ``scaled.denom``.

    g_ready     unit weight on the enabled-action set
    g_failure   unit weight on every refusable set
    g_mfailure  unit weight on the complement of the enabled set
    g_trace     the constant 1
    g_mtrace    the termination mass
    """
    full = full_mask(tuple(scaled.rows))
    if semantics == "g_ready":
        return tuple(((m, 1),) for m in scaled.enabled)
    if semantics == "g_failure":
        return tuple(tuple((z, 1) for z in sorted(submasks(full & ~m)))
                     for m in scaled.enabled)
    if semantics == "g_mfailure":
        return tuple(((full & ~m, 1),) for m in scaled.enabled)
    if semantics == "g_trace":
        return tuple(((0, 1),) for _ in scaled.emission)
    if semantics == "g_mtrace":
        return tuple(((0, scaled.denom - e),) for e in scaled.emission)
    raise ValueError(f"unknown GPS semantics {semantics!r}")


def gps_decorate(g: Gps, semantics: str) -> GpsDecorated:
    """Attach probabilistic outputs: the ``_weights`` table as fractions."""
    weights = _weights(g._scaled, semantics)
    if semantics == "g_trace":
        outs = tuple(Output("prob", Fraction(w)) for ((_, w),) in weights)
    elif semantics == "g_mtrace":
        outs = tuple(Output("prob", Fraction(w, g._scaled.denom)) for ((_, w),) in weights)
    else:
        outs = tuple(Output("prob_family", tuple((m, Fraction(w)) for m, w in pairs))
                     for pairs in weights)
    return GpsDecorated(semantics, g, outs)


def _step(row: Sequence[Dict[int, int]], vec: Dict[int, int], into: Sequence[int]
          ) -> Dict[int, int]:
    """One action's integer matrix (``ScaledGps.rows[label]``) applied to a
    vector, integer in the search and rational at the boundary, each target
    ``y`` counted at ``into[y]``: its lumping block in the search, ``y``
    itself at the boundary; zero entries dropped."""
    out: Dict[int, int] = {}
    for x, p in vec.items():
        for y, q in row[x].items():
            y = into[y]
            out[y] = out.get(y, 0) + p * q
    return {y: p for y, p in out.items() if p}


def _output(weights: Sequence[Tuple[Tuple[int, object], ...]], vec: Dict[int, int]
            ) -> Dict[int, int]:
    """Linear extension of state outputs given as ``(mask, weight)`` pairs
    (``_weights``, or a decoration's fractions) to a vector, as mask ->
    weight; zero weights kept."""
    acc: Dict[int, int] = {}
    for x, p in vec.items():
        for mask, w in weights[x]:
            acc[mask] = acc.get(mask, 0) + p * w
    return acc


def gps_det_step(g: Gps, phi: Distribution, label: str) -> Distribution:
    """Push a distribution through one action: the linear image under the
    action's substochastic matrix."""
    if label not in g.alphabet:
        raise ValueError(f"unknown label {label!r}")
    out = _step(g._scaled.rows[label], phi.as_dict(), range(g.n_states))
    return Distribution.from_dict({y: Fraction(p, g._scaled.denom) for y, p in out.items()},
                                  signed=phi.signed)


def gps_det_output(dec: GpsDecorated, phi: Distribution) -> Output:
    """Linear extension of the state outputs to a distribution."""
    acc = _output([((0, o.value),) if o.kind == "prob" else o.value for o in dec.outputs],
                  phi.as_dict())
    if dec.semantics in ("g_trace", "g_mtrace"):
        return Output("prob", Fraction(acc.get(0, 0)))
    return Output("prob_family", tuple(sorted((m, w) for m, w in acc.items() if w)))


def _primitive(vec: Dict[int, int]) -> Dict[int, int]:
    """``vec`` divided by the gcd of its entries."""
    d = math.gcd(*vec.values())
    return vec if d == 1 else {s: p // d for s, p in vec.items()}


def gps_equiv(g: Gps, semantics: str, x: int, y: int
              ) -> Tuple[bool, Optional[Tuple[str, ...]]]:
    """Decide whether states ``x`` and ``y`` have the same behaviour under the
    given probabilistic semantics; on failure, return a distinguishing word.

    Explores the words breadth-first, carrying the difference vector of the
    two determinised runs, and prunes any vector already in the linear span
    of those seen: at most ``n_states`` vectors enter the basis, so the
    search terminates.  A vector's output is tested when it is generated,
    so no vector as long as the word is stepped; the word does not move, as
    the vectors queued ahead, and the span of the basis, have zero output.
    Zero output and span membership are blind to nonzero scalars, so each
    vector is carried primitive, a multiple of the exact one.  The vectors
    live on the blocks of the GPS's lumping (``Gps._blocks``): each block is
    read at its least state, each successor counted at its block, and every
    word is the one a search on the states would return.  Two states of one
    block are equal at once.

    g_failure searches on g_mfailure's weights, one set a state instead of
    all 2^|A| refusable ones.  A vector's g_failure weight on a set Z is the
    sum of its g_mfailure weights over the supersets of Z; that upward sum is
    invertible (Moebius inversion on the subset lattice), so both outputs
    vanish on exactly the same vectors, and the search, which only asks
    whether an output is zero, returns the same verdicts and words."""
    block = g._blocks
    x, y = block[x], block[y]
    if x == y and semantics in GPS_SEMANTICS:
        return True, None
    reps = [0] * (max(block) + 1)  # each block's least state
    for s in range(g.n_states - 1, -1, -1):
        reps[block[s]] = s
    scaled = g._scaled
    view = ScaledGps(scaled.denom, {a: [row[s] for s in reps] for a, row in scaled.rows.items()},
                     [scaled.emission[s] for s in reps], [scaled.enabled[s] for s in reps])
    weights = _weights(view, "g_mfailure" if semantics == "g_failure" else semantics)
    start = {x: 1, y: -1}
    if any(_output(weights, start).values()):
        return False, ()
    # (vector, index of the vector it was stepped from, the label stepped)
    queue: List[Tuple[Dict[int, int], int, str]] = [(start, -1, "")]
    # Row-echelon basis: pivot state -> primitive vector, nonzero at the pivot
    # and zero at every earlier-inserted pivot.
    basis: Dict[int, Dict[int, int]] = {}
    for qi, (vec, _, _) in enumerate(queue):  # the list grows while it is walked
        w = dict(vec)  # reduced in place
        for pivot, b in basis.items():
            c = w.get(pivot)
            if c:
                # w <- b[pivot] * w - c * b, which is zero at the pivot
                bp = b[pivot]
                if bp != 1:
                    for s in w:
                        w[s] *= bp
                for s, p in b.items():
                    v = w.get(s, 0) - c * p
                    if v:
                        w[s] = v
                    else:
                        del w[s]
        if not w:
            continue
        basis[min(w)] = _primitive(w)
        for a, row in view.rows.items():  # in alphabet order
            nxt = _step(row, vec, block)
            if any(_output(weights, nxt).values()):
                word = [a]
                while qi:
                    _, qi, a = queue[qi]
                    word.append(a)
                return False, tuple(reversed(word))
            if nxt:
                queue.append((_primitive(nxt), qi, a))
    return True, None


# ---------------------------------------------------------------------------
# Collapses along the probabilistic spectrum
# ---------------------------------------------------------------------------

def ready_to_trace_collapse(v: Output) -> Output:
    """Total mass of a probabilistic ready family is the trace output."""
    if v.kind != "prob_family":
        raise VariantMismatch("expected a prob_family output")
    return Output("prob", sum((p for _, p in v.value), Fraction(0)))


def failure_from_ready(v: Output, alphabet: Tuple[str, ...]) -> Output:
    """Failure weights induced by ready weights: each refusal set collects the
    mass of every enabled set disjoint from it."""
    if v.kind != "prob_family":
        raise VariantMismatch("expected a prob_family output")
    full = full_mask(alphabet)
    fam = []
    for z in range(full + 1):
        w = sum((p for mask, p in v.value if mask & z == 0), Fraction(0))
        if w != 0:
            fam.append((z, w))
    return Output("prob_family", tuple(fam))


def mfailure_from_ready(v: Output, alphabet: Tuple[str, ...]) -> Output:
    """Maximal-failure weights: each refusal set takes exactly the mass of its
    complementary enabled set."""
    if v.kind != "prob_family":
        raise VariantMismatch("expected a prob_family output")
    full = full_mask(alphabet)
    acc: Dict[int, Fraction] = {}
    for mask, p in v.value:
        z = full & ~mask
        acc[z] = acc.get(z, Fraction(0)) + p
    return Output("prob_family", tuple(sorted((z, p) for z, p in acc.items() if p != 0)))
