"""Command line front end: compose processes, generate LTSs, check conformance.

Exit codes are a stable contract:

* 0  success / all requested conformance relations hold
* 1  usage, I/O or parse problems
* 2  the given processes cannot be composed
* 3  state-space exploration exceeded a bound
* 4  at least one requested conformance relation does not hold

Commands return 0 or 4 and raise for every other outcome; `main` alone turns
`InputError` (the readers' errors included), `OSError` and
`UnicodeDecodeError` into 1, `CompositionError` into 2 and `BoundExceeded`
into 3.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .composition import CompositionError, compose, well_composed
from .conformance import (
    ConformanceResult,
    DistinguishingTrace,
    NonSimulablePair,
    check_bbc,
    check_tbc,
    export_aut,
    parse_aut,
    saturate_pair,
)
from .model import InputError
from .semantics import (
    DEFAULT_BOUNDS,
    BoundExceeded,
    ExplorationBounds,
    Lts,
    generate_lts,
    hide,
    hiding_set,
)
from .text_syntax import (
    ParseError,
    parse_choreography,
    parse_collaboration,
    parse_process,
    print_model,
)

# Any other exception is a bug and propagates with its traceback.
_INPUT_ERRORS = (
    OSError,
    UnicodeDecodeError,  # a text or .aut file that is not UTF-8
    InputError,
)


def _detect_format(path: str, override: str) -> str:
    if override != "auto":
        return override
    if path.endswith(".bpmn") or path.endswith(".xml"):
        return "bpmn"
    if path.endswith(".aut"):
        return "aut"
    return "text"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_model(path: str, fmt: str, kind: str, bounds: ExplorationBounds):
    """Load one input, read once: a model, or an `Lts` for an .aut file.

    `kind` "auto" infers a model's kind from the file.  A text file holding
    a single process is refused as a choreography, since a process has no
    behaviour of its own until it is composed with its partners.  An .aut
    declaring more states than `bounds` allows is refused before anything
    is kept per state.
    """
    fmt = _detect_format(path, fmt)
    if fmt == "aut":
        try:
            return parse_aut(_read(path), bounds)
        except BoundExceeded as err:  # name the file that declares them
            raise BoundExceeded(err.kind, f"{path} {err.detail}", 0, 0) from None
    if fmt == "bpmn":
        with open(path, "rb") as fh:
            data = fh.read()
        if kind == "auto":
            choreo = b"<choreography" in data or b":choreography" in data
            kind = "choreography" if choreo else "collaboration"
        return load_choreography(data) if kind == "choreography" else load_collaboration(data)
    text = _read(path)
    if kind == "auto":
        # A collaboration may write `|` before its first pool.
        pool = re.match(r"[\s|]*pool", re.sub(r"//[^\n]*", "", text))
        kind = "collaboration" if pool else "choreography"
    if kind == "collaboration":
        return parse_collaboration(text)
    try:
        return parse_choreography(text)
    except ParseError:
        if _is_process(text):
            raise InputError(
                f"{path} is a single process, which has no LTS of its own;"
                " compose it with its partners first (chorcheck compose)"
            ) from None
        raise


def load_choreography(data: bytes):
    """A BPMN choreography from a file's bytes.  `bpmn_xml`, and with it
    `xml.etree`, is imported by the first BPMN input, not with the CLI."""
    from . import bpmn_xml
    return bpmn_xml.load_choreography(bpmn_xml.BpmnDocument.from_text(data))


def load_collaboration(data: bytes):
    """A BPMN collaboration from a file's bytes, as `load_choreography`."""
    from . import bpmn_xml
    return bpmn_xml.load_collaboration(bpmn_xml.BpmnDocument.from_text(data))


def _is_process(text: str) -> bool:
    try:
        parse_process(text)
    except ParseError:
        return False
    return True


def _bounds(args) -> ExplorationBounds:
    return ExplorationBounds(
        max_tokens_per_edge=args.max_tokens,
        max_messages_per_edge=args.max_messages,
        max_states=args.max_states,
    )


def _add_bounds_flags(parser):
    parser.add_argument("--max-tokens", type=int,
                        default=DEFAULT_BOUNDS.max_tokens_per_edge,
                        help="token bound per sequence edge (default %(default)s)")
    parser.add_argument("--max-messages", type=int,
                        default=DEFAULT_BOUNDS.max_messages_per_edge,
                        help="message bound per message edge (default %(default)s)")
    parser.add_argument("--max-states", type=int, default=DEFAULT_BOUNDS.max_states,
                        help="state count bound (default %(default)s)")


def _split_names(raw: str) -> list[str]:
    names = [n.strip() for n in raw.split(",") if n.strip()]
    if not names:
        raise InputError("empty participant name list")
    return names


def _compose_files(files: list[str], raw_names: str):
    """The collaboration of the process `files` under the comma-separated
    `raw_names`."""
    processes = [parse_process(_read(p)) for p in files]
    names = _split_names(raw_names)
    if len(names) != len(processes):
        raise InputError("need as many names as process files")
    return compose(processes, names)


def cmd_compose(args) -> int:
    collab = _compose_files(args.files, args.names)
    text = print_model(collab)
    issues = well_composed(collab)
    print("well-composed: ok" if not issues else "well-composed: NO")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lts(args) -> int:
    bounds = _bounds(args)
    lts = _load_model(args.model, args.format, args.kind, bounds)
    if not isinstance(lts, Lts):
        lts = generate_lts(lts, bounds)
    data = export_aut(lts)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("ascii"))
    print(f"{lts.n_states} states, {len(lts.transitions)} transitions", file=sys.stderr)
    return 0


def _format_trace(labels) -> str:
    return " · ".join(str(l) for l in labels)


def _print_verdict(result, report: str):
    name = result.relation
    if report == "lines":
        parts = [name, "true" if result.verdict else "false"]
        ce = result.counterexample
        if isinstance(ce, DistinguishingTrace):
            parts += ["·".join(str(l) for l in ce.labels), ce.side]
        elif isinstance(ce, NonSimulablePair):
            path = "·".join(str(l) for l in ce.path) or "-"
            parts += [path, str(ce.offending), ce.side]
        print(" ".join(parts))
        return
    print(f"{name.upper()}: {'true' if result.verdict else 'false'}")
    ce = result.counterexample
    if isinstance(ce, DistinguishingTrace):
        print(f"  counterexample: {_format_trace(ce.labels)}")
        print(f"  (this trace is allowed only by the {ce.side})")
    elif isinstance(ce, NonSimulablePair):
        prefix = _format_trace(ce.path) if ce.path else "(the initial state)"
        print(f"  counterexample: after {prefix}")
        print(f"  only the {ce.side} can perform {ce.offending}")


def cmd_check(args) -> int:
    bounds = _bounds(args)
    choreo = _load_model(args.choreography, args.format, "choreography", bounds)
    if args.processes:
        if args.collaboration:
            raise InputError("give either a collaboration file or --processes")
        files = [p.strip() for p in args.processes.split(",") if p.strip()]
        collab = _compose_files(files, args.names or "")
    elif args.collaboration:
        collab = _load_model(args.collaboration, args.format, "collaboration", bounds)
    else:
        raise InputError("a collaboration file or --processes is required")

    # The collaboration's labels that the choreography does not mention
    # are hidden: a model explores them as τ, an .aut has them relabelled.
    # Each model is explored as the representatives of its confluent
    # silent steps, which is branching bisimilar to full exploration, so
    # verdicts and TBC counterexamples stay the same; the BBC witness is
    # picked by state number, so on rare models another valid one comes out.
    hidden = hiding_set(choreo, collab)
    if not isinstance(choreo, Lts):
        choreo = generate_lts(choreo, bounds, reduce=True)
    if isinstance(collab, Lts):
        collab = hide(collab, hidden)
    else:
        collab = generate_lts(collab, bounds, reduce=True, hidden=hidden)

    # Both relations are decided on one weak system over the two LTSs; on
    # τ-free LTSs it is their strong steps.  BBC is decided first, since
    # weak bisimilarity implies weak trace equivalence: when it holds, TBC
    # holds without a search.  The TBC line still comes first.
    weak = saturate_pair(choreo, collab)
    bbc = check_bbc(weak) if args.relation in ("bbc", "both") else None
    results = []
    if args.relation in ("tbc", "both"):
        holds = bbc is not None and bbc.verdict
        results.append(ConformanceResult("tbc", True) if holds else check_tbc(weak))
    if bbc is not None:
        results.append(bbc)
    for result in results:
        _print_verdict(result, args.report)
    return 0 if all(r.verdict for r in results) else 4


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first `main` call and kept."""
    parser = argparse.ArgumentParser(
        prog="chorcheck",
        description="Compose BPMN processes and check collaborations against choreographies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compose = sub.add_parser("compose", help="compose process files into a collaboration")
    p_compose.add_argument("files", nargs="+", help="process files in textual syntax")
    p_compose.add_argument("--names", required=True,
                           help="comma-separated participant names, one per file")
    p_compose.add_argument("-o", "--out", help="write the collaboration here")
    p_compose.set_defaults(func=cmd_compose)

    p_lts = sub.add_parser("lts", help="generate the LTS of a model as .aut")
    p_lts.add_argument("model", help="model file (text, .bpmn or .aut)")
    p_lts.add_argument("--kind", choices=("auto", "choreography", "collaboration"),
                       default="auto")
    p_lts.add_argument("--format", choices=("auto", "text", "bpmn", "aut"), default="auto")
    p_lts.add_argument("-o", "--out", help="write the .aut here instead of stdout")
    _add_bounds_flags(p_lts)
    p_lts.set_defaults(func=cmd_lts)

    p_check = sub.add_parser("check", help="check a collaboration against a choreography")
    p_check.add_argument("choreography", help="choreography file (text, .bpmn or .aut); labels"
                         " it does not name are hidden, and an .aut names only reachable ones")
    p_check.add_argument("collaboration", nargs="?",
                         help="collaboration file (text, .bpmn or .aut)")
    p_check.add_argument("--processes",
                         help="comma-separated process files to compose instead")
    p_check.add_argument("--names", help="participant names for --processes")
    p_check.add_argument("--relation", choices=("bbc", "tbc", "both"), default="both")
    p_check.add_argument("--report", choices=("human", "lines"), default="human")
    p_check.add_argument("--format", choices=("auto", "text", "bpmn", "aut"), default="auto")
    _add_bounds_flags(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place an outcome becomes an exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except CompositionError as err:
        print("not composable:")
        for issue in err.issues:
            print(f"  {type(issue).__name__}: {issue}")
        return 2
    except BoundExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
