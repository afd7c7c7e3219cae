"""Command-line interface.

Subcommands read a system description (file path or ``-`` for stdin), print a
JSON report on stdout and a one-line human summary on stderr, and exit with
0 when the checked property holds, 1 when it fails, and 2 on any error,
reported as one ``semcheck: error:`` line (``--debug`` re-raises it instead).
State arguments accept display names (when the file carries a ``names`` line)
or numeric indices; names win when both could apply.  An empty state or
state-set argument is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

from .bench import (ALGORITHMS, BenchCase, decide, default_cases, gen_chain,
                    gen_cycles, gen_interleave, run_matrix)
from .brzozowski import brzozowski_minimize
from .decorations import SEMANTICS, TOP, decorate, render_eff_label, render_output
from .gps import GPS_SEMANTICS, gps_equiv
from .hkc import hkc_check, naive_bisim, preorder_check
from .lts import FormatError, Lts, format_lts, mask_bits, parse_gps, parse_lts
from .moore import DEFAULT_CAP, CapExceeded

EXIT_HOLDS, EXIT_FAILS, EXIT_ERROR = 0, 1, 2


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_set(system, tokens: str, what: str) -> frozenset:
    """The states named by a comma-separated argument; ``what`` names the
    argument in the error raised when it names none."""
    states = frozenset(system.resolve_state(t) for t in tokens.split(",") if t)
    if not states:
        raise ValueError(f"{what} needs at least one state")
    return states


def _resolve_state(system, token: str, what: str) -> int:
    if not token:
        raise ValueError(f"{what} needs at least one state")
    return system.resolve_state(token)


def _witness(relation, members, lts: Lts) -> List[List[str]]:
    """A relation rendered pair by pair, each set (or TOP) as its members by
    name; ``members`` lists a set's members in ascending order: ``mask_bits``
    for masks, ``sorted`` for frozensets."""
    def render(state) -> str:
        if state is TOP:
            return "TOP"
        return "{" + ",".join(map(lts.state_name, members(state))) + "}"

    return [[render(l), render(r)] for l, r in relation]


def _timed(fn, *args):
    """``fn(*args)`` and the milliseconds it took."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * 1000.0


def _emit(args, result, algorithm: str, ms: float, summary: str,
          states: Optional[int] = None, pairs: Optional[int] = None,
          **extra) -> None:
    """Print the JSON report on stdout and the summary on stderr; ``extra``
    keys whose value is not None are appended to the report."""
    report = {
        "schema": 1, "result": result, "semantics": args.sem,
        "algorithm": algorithm,
        "stats": {"states": states, "pairs": pairs, "time_ms": ms},
    }
    report.update((k, v) for k, v in extra.items() if v is not None)
    print(json.dumps(report, indent=2))
    print(summary, file=sys.stderr)


def _labels(word) -> Optional[List[str]]:
    return None if word is None else [render_eff_label(l) for l in word]


def cmd_equiv(args) -> int:
    lts = parse_lts(_read_source(args.file))
    left = _resolve_set(lts, args.left, "left")
    right = _resolve_set(lts, args.right, "right")
    d = decorate(lts, args.sem, args.cap)
    states = relation = witness = counterexample = None
    if args.algo == "naive":
        (equal, payload), ms = _timed(naive_bisim, d, left, right, args.cap)
        relation, counterexample = (payload, None) if equal else (None, payload)
        members = sorted
    elif args.algo == "hkc":
        rep, ms = _timed(hkc_check, d, left, right, args.cap)
        equal, relation, counterexample = rep.equal, rep.masks, rep.counterexample
        members = mask_bits
    else:  # brzozowski
        (equal, states, _), ms = _timed(decide, d, "brzozowski", left, right, args.cap)
    if equal and relation is not None:
        witness = _witness(relation, members, lts)
    verdict = "equivalent" if equal else "not equivalent"
    _emit(args, equal, args.algo, ms,
          f"{verdict} under {args.sem} ({args.algo}, {ms:.1f} ms)",
          states=states, pairs=None if relation is None else len(relation),
          counterexample=_labels(counterexample),
          witness=witness)
    return EXIT_HOLDS if equal else EXIT_FAILS


def cmd_preorder(args) -> int:
    lts = parse_lts(_read_source(args.file))
    x = _resolve_state(lts, args.left, "left")
    y = _resolve_state(lts, args.right, "right")
    d = decorate(lts, args.sem, args.cap)
    rep, ms = _timed(preorder_check, d, args.sem, x, y, args.cap)
    rel = "below" if rep.equal else "not below"
    _emit(args, rep.equal, "hkc", ms,
          f"{args.left} {rel} {args.right} in the {args.sem} preorder",
          pairs=len(rep.masks), counterexample=_labels(rep.counterexample))
    return EXIT_HOLDS if rep.equal else EXIT_FAILS


def cmd_minimize(args) -> int:
    lts = parse_lts(_read_source(args.file))
    inits = _resolve_set(lts, args.init, "--init")
    d = decorate(lts, args.sem, args.cap)
    (intermediate, minimal), ms = _timed(brzozowski_minimize, d, inits, args.cap)
    machine = {
        "states": minimal.n_states,
        "intermediate_states": intermediate.n_states,
        "init": minimal.inits[0],
        "alphabet": [render_eff_label(l) for l in minimal.alphabet],
        "outputs": [render_output(o, lts.alphabet) for o in minimal.outputs],
        "steps": [{render_eff_label(l): row[l] for l in minimal.alphabet}
                  for row in minimal.steps],
    }
    _emit(args, machine, "brzozowski", ms,
          f"minimal machine: {minimal.n_states} states "
          f"(intermediate {intermediate.n_states}, {ms:.1f} ms)",
          states=minimal.n_states)
    return EXIT_HOLDS


def cmd_gps_equiv(args) -> int:
    g = parse_gps(_read_source(args.file))
    x = _resolve_state(g, args.left, "left")
    y = _resolve_state(g, args.right, "right")
    (equal, word), ms = _timed(gps_equiv, g, args.sem, x, y)
    # Equality under g_ready, g_failure or g_mfailure already implies trace
    # equality (a vector's trace output is the total of its ready weights).
    if equal and args.with_trace and args.sem == "g_mtrace":
        (equal, word), trace_ms = _timed(gps_equiv, g, "g_trace", x, y)
        ms += trace_ms
    verdict = "equivalent" if equal else "not equivalent"
    _emit(args, equal, "span", ms,
          f"{verdict} under {args.sem} (exact rational arithmetic)",
          states=g.n_states, counterexample=None if word is None else list(word))
    return EXIT_HOLDS if equal else EXIT_FAILS


def cmd_gen(args) -> int:
    maker = {"interleave": gen_interleave, "chain": gen_chain,
             "cycles": gen_cycles}[args.family]
    sys.stdout.write(format_lts(maker(args.n)))
    return EXIT_HOLDS


def _check_spec(spec) -> None:
    """Raise ``ValueError`` unless a bench spec has the shape ``cmd_bench``
    reads: an object whose ``cases`` list holds objects with string ``file``,
    ``left`` and ``right``, with optional lists of known ``semantics`` and
    ``algorithms`` names and an optional positive int ``cap``."""
    if not isinstance(spec, dict):
        raise ValueError("bench spec must be a JSON object")
    cases = spec.get("cases")
    if not isinstance(cases, list) or not all(
            isinstance(c, dict) and all(isinstance(c.get(k), str)
                                        for k in ("file", "left", "right"))
            for c in cases):
        raise ValueError("bench spec 'cases' must be a list of objects with "
                         "string 'file', 'left' and 'right'")
    for key, known in (("semantics", SEMANTICS), ("algorithms", ALGORITHMS)):
        value = spec.get(key, [])
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise ValueError(f"bench spec '{key}' must be a list of strings")
        for x in value:
            if x not in known:
                raise ValueError(f"bench spec '{key}' has unknown name {x!r}")
    cap = spec.get("cap", DEFAULT_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValueError("bench spec 'cap' must be a positive integer")


def cmd_bench(args) -> int:
    if args.spec:
        spec = json.loads(_read_source(args.spec))
        _check_spec(spec)
        cases = []
        for c in spec["cases"]:
            lts = parse_lts(_read_source(c["file"]))
            name = c.get("name", c["file"])
            cases.append(BenchCase(name, lts,
                                   _resolve_set(lts, c["left"], f"case {name!r} left"),
                                   _resolve_set(lts, c["right"], f"case {name!r} right")))
        semantics = spec.get("semantics", ["trace", "may", "must"])
        algorithms = spec.get("algorithms", ALGORITHMS)
        cap = spec.get("cap", DEFAULT_CAP)
    else:
        cases = default_cases()
        semantics = ["trace", "ready", "failure", "may", "must"]
        algorithms = ALGORITHMS
        cap = DEFAULT_CAP
    report = run_matrix(cases, semantics, algorithms, cap)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    n_dis = len(report.disagreements)
    print(f"bench: {len(report.records)} records, {n_dis} disagreements",
          file=sys.stderr)
    return EXIT_HOLDS if n_dis == 0 else EXIT_FAILS


def _positive_int(token: str) -> int:
    """A ``--cap`` value: a positive integer, as a bench spec's ``cap`` is."""
    try:
        value = int(token)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {token!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semcheck",
        description="Decide behavioural equivalences and preorders on finite "
                    "transition systems.")
    p.add_argument("--debug", action="store_true",
                   help="re-raise errors with their traceback")
    sub = p.add_subparsers(dest="command", required=True)

    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help="state/pair budget (default %(default)s)")

    eq = sub.add_parser("equiv", parents=[capped],
                        help="decide equivalence of two state sets")
    eq.add_argument("--sem", required=True, choices=SEMANTICS)
    eq.add_argument("--algo", default="hkc",
                    choices=["naive", "hkc", "brzozowski"])
    eq.add_argument("file")
    eq.add_argument("left", help="state or comma-separated state set")
    eq.add_argument("right", help="state or comma-separated state set")
    eq.set_defaults(fn=cmd_equiv)

    po = sub.add_parser("preorder", parents=[capped], help="decide a testing preorder")
    po.add_argument("--sem", required=True, choices=["may", "must"])
    po.add_argument("file")
    po.add_argument("left")
    po.add_argument("right")
    po.set_defaults(fn=cmd_preorder)

    mi = sub.add_parser("minimize", parents=[capped],
                        help="minimal Moore machine by double reversal")
    mi.add_argument("--sem", required=True, choices=SEMANTICS)
    mi.add_argument("--init", required=True,
                    help="comma-separated initial state set")
    mi.add_argument("file")
    mi.set_defaults(fn=cmd_minimize)

    gq = sub.add_parser("gps-equiv",
                        help="decide a probabilistic equivalence exactly")
    gq.add_argument("--sem", required=True, choices=list(GPS_SEMANTICS))
    gq.add_argument("--with-trace", action="store_true", dest="with_trace",
                    help="additionally require probabilistic trace equality")
    gq.add_argument("file")
    gq.add_argument("left")
    gq.add_argument("right")
    gq.set_defaults(fn=cmd_gps_equiv)

    ge = sub.add_parser("gen", help="emit a parametric benchmark family")
    ge.add_argument("--family", required=True,
                    choices=["interleave", "chain", "cycles"])
    ge.add_argument("--n", type=int, required=True)
    ge.set_defaults(fn=cmd_gen)

    be = sub.add_parser("bench", help="run the cross-check matrix")
    be.add_argument("--spec", help="JSON file describing cases to run")
    be.add_argument("--format", default="json", choices=["json", "csv"])
    be.add_argument("--out", help="write the report here instead of stdout")
    be.set_defaults(fn=cmd_bench)
    return p


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused after: building it
    costs far more than a parse, and doing it at import would slow every
    import."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        if args.debug:
            raise
        expected = (FormatError, ValueError, KeyError, CapExceeded, OSError)
        message = str(exc) if isinstance(exc, expected) else f"{type(exc).__name__}: {exc}"
        print("semcheck: error: " + " ".join(message.split()), file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
