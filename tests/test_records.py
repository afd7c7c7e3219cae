"""The package's record classes: construction by position with their
defaults, field reads, value equality and hashing, reprs, copies and pickles
of parsed systems, ``Distribution``'s checks, and the bench report's JSON
and CSV layout."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction

import pytest

from semcheck import (
    DEFAULT_CAP,
    TOP,
    BenchCase,
    BenchRecord,
    BenchReport,
    DecoratedLts,
    Distribution,
    Gps,
    GpsDecorated,
    HkcReport,
    LazyReversal,
    Lts,
    MooreMachine,
    Output,
    Top,
    parse_gps,
    parse_lts,
    run_matrix,
)


def equal_and_unequal(make, other):
    """``make()`` twice gives equal instances; ``other`` differs from them."""
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other


def unhashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return True
    return False


def test_lts_defaults_fields_and_equality():
    lts = Lts(2, ("a",))
    assert (lts.n_states, lts.alphabet, lts.transitions, lts.finals, lts.names) \
        == (2, ("a",), {}, None, None)
    t = {(0, "a"): frozenset({1})}
    full = Lts(2, ("a",), t, frozenset({1}), ("p", "q"))
    assert (full.transitions, full.finals, full.names) == (t, frozenset({1}), ("p", "q"))
    assert full.transitions is t
    equal_and_unequal(lambda: Lts(2, ("a",), dict(t)), Lts(2, ("a",)))
    assert Lts(2, ("a",)) != Lts(2, ("a",), names=("p", "q"))
    assert lts != Gps(2, ("a",)) and Lts.__eq__(lts, 1) is NotImplemented
    assert unhashable(lts)
    assert repr(lts) == "Lts(n_states=2, alphabet=('a',), transitions={}, finals=None, names=None)"


def test_gps_defaults_fields_and_equality():
    g = Gps(2, ("a",))
    assert (g.n_states, g.alphabet, g.transitions, g.names) == (2, ("a",), {}, None)
    t = {(0, "a"): {1: Fraction(1, 2)}}
    assert Gps(2, ("a",), t, ("p", "q")).names == ("p", "q")
    equal_and_unequal(lambda: Gps(2, ("a",), dict(t)), Gps(2, ("a",)))
    assert unhashable(g)


LTS_TEXT = "lts 3\nalphabet a b\nfinal 2\nnames p q r\n0 a 1\n0 tau 2\n2 b 0\n1 a 1\n"
GPS_TEXT = "gps 3\nalphabet a b\nnames p q r\n0 a 1/3 1\n0 b 1/3 2\n1 a 1/2 1\n2 b 1/1 2\n"


def read_views(system) -> None:
    """Read ``system``'s decoded and cached views, so they are filled in."""
    views = ("_rows", "_enabled", "_tau") if isinstance(system, Lts) else ("_blocks",)
    for name in ("transitions",) + views:
        getattr(system, name)


@pytest.mark.parametrize("parse, text", [(parse_lts, LTS_TEXT), (parse_gps, GPS_TEXT)])
def test_parsed_systems_copy_and_pickle_before_and_after_their_views(parse, text):
    for read in (False, True):
        system = parse(text)
        if read:
            read_views(system)
        for twin in (copy.copy(system), copy.deepcopy(system),
                     pickle.loads(pickle.dumps(system))):
            assert twin is not system and type(twin) is type(system)
            assert twin == system and twin.transitions == system.transitions
            read_views(twin)
            assert twin == system
        assert not hasattr(system, "nope")


def test_output_fields_equality_hash_and_repr():
    o = Output("bit", 1)
    assert (o.kind, o.value) == ("bit", 1)
    equal_and_unequal(lambda: Output("bit", 1), Output("bit", 0))
    assert Output("bit", 1) != Output("prob", 1)
    assert hash(Output("family", frozenset({1}))) == hash(Output("family", frozenset({1})))
    assert len({Output("bit", 1), Output("bit", 1), Output("bit", 0)}) == 2
    assert repr(Output("bit", 1)) == "Output(kind='bit', value=1)"
    assert Output("top_or_family", TOP).is_top() and not o.is_top()


def test_top_equality_hash_and_repr():
    assert isinstance(TOP, Top)
    assert Top() == TOP and not Top() != TOP
    assert TOP != 0 and TOP != frozenset()
    assert hash(Top()) == hash(TOP)
    assert repr(TOP) == "TOP"
    assert TOP | 5 is TOP and 5 | TOP is TOP


def test_distribution_fields_equality_and_hash():
    half = ((0, Fraction(1, 2)),)
    d = Distribution(half)
    assert (d.entries, d.signed) == (half, False)
    assert Distribution(half, True).signed
    equal_and_unequal(lambda: Distribution(half), Distribution(half, True))
    assert Distribution(half) != Distribution(((1, Fraction(1, 2)),))
    assert hash(Distribution(half)) == hash(Distribution(half))
    assert len({Distribution(half), Distribution(half), Distribution.point(0)}) == 2


@pytest.mark.parametrize("entries, signed, message", [
    (((0, Fraction(0)),), False, "nonzero"),
    (((0, Fraction(0)),), True, "nonzero"),
    (((0, Fraction(-1, 2)),), False, "negative"),
    (((0, Fraction(2, 3)), (1, Fraction(1, 2))), False, "above 1"),
])
def test_distribution_rejects(entries, signed, message):
    with pytest.raises(ValueError, match=message):
        Distribution(entries, signed)


def test_distribution_signed_allows_negative_and_large_mass():
    d = Distribution(((0, Fraction(-3)), (1, Fraction(5))), True)
    assert d.mass() == 2


def test_decorated_lts_default_cap_fields_and_equality():
    def make():
        return DecoratedLts("trace", 2, ("a",), ("a",), (1, 0), (), {"a": (0b10, 0)})
    d = make()
    assert (d.semantics, d.n_states, d.alphabet, d.eff_alphabet, d.values, d.atoms,
            d.masks, d.cap) == ("trace", 2, ("a",), ("a",), (1, 0), (), {"a": (0b10, 0)},
                                DEFAULT_CAP)
    assert DecoratedLts("trace", 2, ("a",), ("a",), (1, 0), (), {"a": (0b10, 0)}, 7).cap == 7
    equal_and_unequal(make, DecoratedLts("trace", 2, ("a",), ("a",), (1, 1), (),
                                         {"a": (0b10, 0)}))
    assert d.outputs == (Output("bit", 1), Output("bit", 0))
    assert d.transitions == {(0, "a"): frozenset({1})}
    assert make() == d   # the cached views are not compared
    assert unhashable(d)


def test_moore_machine_defaults_fields_and_equality():
    def make():
        return MooreMachine("trace", ("a",), [1, 0], [{"a": 1}, {"a": 1}], [0])
    m = make()
    assert (m.semantics, m.alphabet, m.values, m.steps, m.inits, m.keys) \
        == ("trace", ("a",), [1, 0], [{"a": 1}, {"a": 1}], [0], [])
    assert m.decode(5) == 5 and m.decode_key("k") == "k"
    assert m.n_states == 2 and m.run("aa") == 0
    assert make().keys is not m.keys
    keyed = MooreMachine("trace", ("a",), [1], [{"a": 0}], [0], ["k"], str, repr)
    assert (keyed.keys, keyed.outputs, keyed.state_keys) == (["k"], ["1"], ["'k'"])
    equal_and_unequal(make, MooreMachine("trace", ("a",), [1, 1], [{"a": 1}, {"a": 1}], [0]))
    assert unhashable(m)
    assert repr(m).startswith("MooreMachine(semantics='trace', alphabet=('a',), values=[1, 0], ")
    assert re.findall(r"(?:\(|, )(\w+)=", repr(m)) == list(MooreMachine._fields)


def test_hkc_report_fields_and_equality():
    def make():
        return HkcReport(True, [(0b1, 0b10)], 3, None)
    r = make()
    assert (r.equal, r.masks, r.pairs_processed, r.counterexample) == (True, [(1, 2)], 3, None)
    assert r.relation == [(frozenset({0}), frozenset({1}))]
    equal_and_unequal(make, HkcReport(False, [(0b1, 0b10)], 3, ("a",)))
    assert unhashable(r)
    assert repr(r) == "HkcReport(equal=True, masks=[(1, 2)], pairs_processed=3, counterexample=None)"


def test_lazy_reversal_fields_and_equality():
    def step(state, label):
        return state + (label,)

    def make():
        return LazyReversal("trace", ("a",), (), len, step, str)
    lazy = make()
    assert (lazy.semantics, lazy.alphabet, lazy.initial, lazy.value, lazy.step, lazy.decode) \
        == ("trace", ("a",), (), len, step, str)
    assert lazy.output(("a",)) == "1" and lazy.behavior(["a", "a"]) == "2"
    equal_and_unequal(make, LazyReversal("trace", ("a",), ("a",), len, step, str))


def test_gps_decorated_fields_and_equality():
    g = Gps(1, ("a",))
    outs = (Output("prob", Fraction(0)),)
    dec = GpsDecorated("g_trace", g, outs)
    assert (dec.semantics, dec.gps, dec.outputs) == ("g_trace", g, outs)
    equal_and_unequal(lambda: GpsDecorated("g_trace", g, outs),
                      GpsDecorated("g_ready", g, outs))


def test_bench_case_and_record_fields_and_equality():
    lts = Lts(1, ("a",))
    case = BenchCase("c", lts, frozenset({0}), frozenset())
    assert (case.name, case.lts, case.left, case.right) == ("c", lts, frozenset({0}), frozenset())
    equal_and_unequal(lambda: BenchCase("c", lts, frozenset({0}), frozenset()),
                      BenchCase("d", lts, frozenset({0}), frozenset()))
    rec = BenchRecord("c", "trace", "hkc", True, None, 2, 0.5)
    assert (rec.case, rec.semantics, rec.algorithm, rec.equal, rec.states, rec.pairs,
            rec.time_ms, rec.error) == ("c", "trace", "hkc", True, None, 2, 0.5, None)
    assert BenchRecord("c", "trace", "-", None, None, None, 0.0, "boom").error == "boom"
    equal_and_unequal(lambda: BenchRecord("c", "trace", "hkc", True, None, 2, 0.5),
                      BenchRecord("c", "trace", "hkc", False, None, 2, 0.5))


def test_bench_report_defaults_and_equality():
    report = BenchReport()
    assert (report.records, report.disagreements) == ([], [])
    assert BenchReport().records is not report.records
    rec = BenchRecord("c", "trace", "hkc", True, None, 2, 0.5)
    assert BenchReport([rec], [("c", "trace")]).disagreements == [("c", "trace")]
    equal_and_unequal(lambda: BenchReport([rec]), BenchReport())
    assert unhashable(report)


SMALL_JSON = """{
  "schema": 1,
  "records": [
%s
  ],
  "disagreements": []
}"""

SMALL_RECORD = """    {
      "case": "c",
      "semantics": "trace",
      "algorithm": "%s",
      "equal": false,
      "states": %s,
      "pairs": %s,
      "time_ms": 0,
      "error": null
    }"""


def test_run_matrix_json_bytes_and_csv_header():
    lts = Lts(3, ("a",), {(0, "a"): frozenset({1}), (1, "a"): frozenset({2})})
    report = run_matrix([BenchCase("c", lts, frozenset({0}), frozenset({1}))], ["trace"])
    rows = [("oracle", "4", "null"), ("naive", "null", "null"), ("hkc", "null", "2"),
            ("brzozowski", "7", "null")]
    expected = SMALL_JSON % ",\n".join(SMALL_RECORD % row for row in rows)
    assert re.sub(r'"time_ms": [0-9.e+-]+', '"time_ms": 0', report.to_json()) == expected
    csv = report.to_csv().splitlines()
    assert csv[0] == "case,semantics,algorithm,equal,states,pairs,time_ms,error"
    assert csv[1].startswith("c,trace,oracle,False,4,,") and len(csv) == 5
