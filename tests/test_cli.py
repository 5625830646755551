import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import chorcheck
import oracle_explore
from chorcheck import (
    TAU,
    AndJoin,
    Choreography,
    Comm,
    ExplorationBounds,
    InputError,
    Lts,
    Process,
    TaskRcv,
    cli,
    compose,
    export_aut,
    generate_lts,
    hide,
    parse_aut,
    parse_choreography,
    print_model,
)
from chorcheck.cli import main
from chorcheck.conformance import InternalError
from chorcheck.semantics import _Columns, _Packing
from conftest import GOLDEN, fixture_path
from generators import matched_tuple_pair, xor_tuple_pair


def fx(name):
    return str(fixture_path(name))


PROCESSES = {
    "a": "bank.txt",
    "b": "customer_basic.txt",
    "c": "customer_ack.txt",
    "d": "booking_system_race.txt",
    "e": "booking_system_ack.txt",
    "f": "booking_system_xor.txt",
}


def check_args(letters, *extra):
    files = ",".join(fx(PROCESSES[x]) for x in letters)
    return [
        "check", fx("booking_choreography.txt"),
        "--processes", files, "--names", "bk,c,bs", *extra,
    ]


def test_compose_writes_collaboration(tmp_path, capsys):
    out = tmp_path / "collab.txt"
    code = main([
        "compose", fx("bank.txt"), fx("customer_basic.txt"), fx("booking_system_race.txt"),
        "--names", "bk,c,bs", "-o", str(out),
    ])
    assert code == 0
    assert "well-composed: ok" in capsys.readouterr().out
    assert out.read_text().startswith("pool bk {")


def test_compose_round_trips_to_fixture(tmp_path):
    from chorcheck import parse_collaboration

    out = tmp_path / "collab.txt"
    main([
        "compose", fx("bank.txt"), fx("customer_basic.txt"), fx("booking_system_race.txt"),
        "--names", "bk,c,bs", "-o", str(out),
    ])
    assert parse_collaboration(out.read_text()) == parse_collaboration(
        fixture_path("booking_collaboration.txt").read_text()
    )


def test_compose_reports_unmatched_send(capsys):
    code = main([
        "compose", fx("bank.txt"), fx("customer_basic.txt"), fx("booking_system_ack.txt"),
        "--names", "bk,c,bs",
    ])
    assert code == 2
    assert "UnmatchedSend" in capsys.readouterr().out


def test_compose_rejects_duplicate_names(capsys):
    code = main([
        "compose", fx("bank.txt"), fx("customer_basic.txt"), fx("booking_system_race.txt"),
        "--names", "bk,bk,bs",
    ])
    assert code == 1


def test_compose_refuses_a_name_the_text_syntax_cannot_read(tmp_path, capsys):
    out = tmp_path / "collab.txt"
    code = main([
        "compose", fx("bank.txt"), fx("customer_basic.txt"), fx("booking_system_race.txt"),
        "--names", "bk,Customer A,bs", "-o", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: participant 'Customer A' is not an identifier of the text syntax\n"
    )
    assert not out.exists()


def test_compose_rejects_missing_file(capsys):
    code = main(["compose", "no_such_file.txt", "--names", "x"])
    assert code == 1


def test_lts_matches_golden(tmp_path, capsys):
    out = tmp_path / "model.aut"
    code = main(["lts", fx("booking_choreography.txt"), "-o", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "booking_choreography.aut").read_bytes()
    assert "14 states, 13 transitions" in capsys.readouterr().err


def test_lts_reports_bound_exhaustion(capsys):
    code = main(["lts", fx("looping_andsplit.txt")])
    assert code == 3


def test_lts_accepts_bpmn_input(tmp_path):
    out = tmp_path / "model.aut"
    code = main(["lts", fx("booking_collaboration.bpmn"), "-o", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"des (")


def test_lts_reads_a_collaboration_that_starts_with_a_pipe(tmp_path, capsys):
    """`--kind auto` looks past leading `|`s, as the collaboration grammar does."""
    outs = {}
    for kind in ("auto", "collaboration"):
        outs[kind] = tmp_path / f"{kind}.aut"
        code = main(["lts", fx("leading_pipe_collaboration.txt"), "--kind", kind,
                     "-o", str(outs[kind])])
        assert code == 0, capsys.readouterr().err
    assert outs["auto"].read_bytes() == outs["collaboration"].read_bytes()
    assert outs["auto"].read_bytes().startswith(b"des (0, 16, 12)")


def test_check_flags_nonconforming_composition(capsys):
    code = main(check_args("abd"))
    out = capsys.readouterr().out
    assert code == 4
    assert "TBC: false" in out and "BBC: false" in out
    assert "c->bs:login · c->bs:request · bs->c:reply · c->bk:pay" in out


def test_check_accepts_acknowledged_composition(capsys):
    code = main(check_args("ace"))
    out = capsys.readouterr().out
    assert code == 0
    assert "TBC: true" in out and "BBC: true" in out


def test_check_detects_deadlock_prone_composition(capsys):
    code = main(check_args("acf"))
    out = capsys.readouterr().out
    assert code == 4
    assert "TBC: true" in out and "BBC: false" in out


def test_check_single_relation_selector(capsys):
    assert main(check_args("acf", "--relation", "tbc")) == 0
    assert main(check_args("acf", "--relation", "bbc")) == 4


def test_check_composition_failure_exits_2(capsys):
    code = main(check_args("abe"))
    assert code == 2
    assert "UnmatchedSend" in capsys.readouterr().out


def test_check_with_collaboration_file(capsys):
    code = main([
        "check", fx("booking_choreography.txt"), fx("booking_collaboration.txt"),
    ])
    assert code == 4


def test_check_machine_readable_lines(capsys):
    code = main(check_args("abd", "--report", "lines"))
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 4
    assert lines[0].startswith("tbc false ")
    assert lines[0].endswith(" collaboration")
    assert lines[1].startswith("bbc false ")


def test_check_works_on_aut_files(tmp_path, capsys):
    ch_aut = tmp_path / "ch.aut"
    col_aut = tmp_path / "col.aut"
    assert main(["lts", fx("booking_choreography.txt"), "-o", str(ch_aut)]) == 0
    assert main(["lts", fx("booking_collaboration.txt"), "-o", str(col_aut)]) == 0
    code = main(["check", str(ch_aut), str(col_aut)])
    assert code == 4
    assert "TBC: false" in capsys.readouterr().out


def test_check_bound_exhaustion_exits_3(capsys):
    code = main([
        "check", fx("booking_choreography.txt"), fx("booking_collaboration.txt"),
        "--max-states", "5",
    ])
    assert code == 3


def test_an_aut_declaring_more_states_than_the_bound_exits_3(tmp_path, capsys):
    """The header's state count is checked against `--max-states` before
    anything is kept per state, so ten billion declared states is a bound
    failure, not a `MemoryError`."""
    huge = tmp_path / "huge.aut"
    huge.write_text('des (0, 1, 10000000000)\n(0, "a->b:m", 1)\n')
    message = (
        f"error: states bound exceeded: {huge} declares 10000000000 states,"
        " more than 100000 (0 states reached, 0 not yet expanded)\n"
    )
    for argv in (["check", str(huge), str(huge)], ["lts", str(huge)],
                 ["check", fx("booking_choreography.txt"), str(huge)]):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", message)


def test_an_aut_within_a_raised_state_bound_is_read(tmp_path, capsys):
    """booking_collaboration.aut declares 70 states: one fewer allowed is a
    bound failure, exactly 70 passes, and so does a bound raised above the
    default."""
    golden = GOLDEN / "booking_collaboration.aut"
    aut = str(golden)
    assert main(["lts", aut, "--max-states", "69"]) == 3
    assert "declares 70 states, more than 69" in capsys.readouterr().err
    for bound in ("70", "1000000"):
        assert main(["lts", aut, "--max-states", bound]) == 0
        assert capsys.readouterr().out.encode() == golden.read_bytes()
        code = main(["check", fx("booking_choreography.txt"), aut, "--max-states", bound,
                     "--report", "lines"])
        assert code == 4
        assert capsys.readouterr().out.startswith("tbc false ")


def test_usage_error_exits_1(capsys):
    assert main(["check", fx("booking_choreography.txt")]) == 1
    assert main(["frobnicate"]) == 1


THREE_PROCESSES = [fx(PROCESSES[x]) for x in "abd"]


@pytest.mark.parametrize("argv, err", [
    (["check", fx("booking_choreography.txt"), fx("booking_collaboration.txt"),
      "--processes", ",".join(THREE_PROCESSES), "--names", "bk,c,bs"],
     "error: give either a collaboration file or --processes\n"),
    (["check", fx("booking_choreography.txt")],
     "error: a collaboration file or --processes is required\n"),
    (["check", fx("booking_choreography.txt"),
      "--processes", ",".join(THREE_PROCESSES), "--names", "bk,c"],
     "error: need as many names as process files\n"),
    (["compose", *THREE_PROCESSES, "--names", "bk,c"],
     "error: need as many names as process files\n"),
], ids=["collaboration and processes", "neither", "check name count", "compose name count"])
def test_usage_errors_name_the_problem(argv, err, capsys):
    assert in_process(argv, capsys) == (1, "", err)


def test_lts_reports_state_counts(capsys):
    code = main(["lts", fx("minimal_choreography.txt")])
    captured = capsys.readouterr()
    assert code == 0
    assert "3 states, 2 transitions" in captured.err
    assert captured.out.startswith("des (0, 2, 3)")


def test_lts_echoes_aut_input(tmp_path, capsys):
    first = tmp_path / "one.aut"
    second = tmp_path / "two.aut"
    assert main(["lts", fx("booking_choreography.txt"), "-o", str(first)]) == 0
    assert main(["lts", str(first), "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_format_overrides_the_suffix(tmp_path, capsys):
    exported = tmp_path / "collaboration.txt"
    echoed = tmp_path / "echo.aut"
    assert in_process(["lts", fx("booking_collaboration.txt"), "-o", str(exported)],
                      capsys)[0] == 0
    assert in_process(["lts", str(exported), "-o", str(echoed)], capsys)[0] == 1
    assert in_process(["lts", str(exported), "--format", "aut", "-o", str(echoed)],
                      capsys)[0] == 0
    assert echoed.read_bytes() == exported.read_bytes()

    model = tmp_path / "choreography.xml"
    model.write_text(fixture_path("booking_choreography.txt").read_text())
    as_text = in_process(["lts", fx("booking_choreography.txt")], capsys)
    assert in_process(["lts", str(model), "--format", "text"], capsys) == as_text
    assert as_text[0] == 0


def test_lts_rejects_labels_aut_cannot_carry(tmp_path, capsys):
    text = fixture_path("two_way_task.bpmn").read_text()
    model = tmp_path / "pay.bpmn"
    model.write_text(text.replace('name="req"', 'name="pay (card)"'))
    out = tmp_path / "pay.aut"
    assert main(["lts", str(model)]) == 1
    assert main(["lts", str(model), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: label part 'pay (card)'") == 2
    assert not out.exists()
    model.write_text(text.replace('name="req"', 'name="réservé"'), encoding="utf-8")
    assert main(["lts", str(model)]) == 1
    assert main(["lts", str(model), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: label part 'réservé'") == 2
    assert not out.exists()


def test_composition_failure_prints_the_same_report_from_both_commands(capsys):
    files = [fx(PROCESSES[x]) for x in "abe"]
    assert main(["compose", *files, "--names", "bk,c,bs"]) == 2
    from_compose = capsys.readouterr().out
    assert main(check_args("abe")) == 2
    from_check = capsys.readouterr().out
    assert from_compose == from_check
    assert from_compose.startswith("not composable:\n  UnmatchedSend: ")


def test_lts_bound_report_names_the_edge_and_progress(capsys):
    assert main(["lts", fx("looping_andsplit.txt")]) == 3
    err = capsys.readouterr().err
    assert err == (
        "error: tokens bound exceeded: edge 'w3' would hold 3 tokens"
        " (10 states reached, 1 not yet expanded)\n"
    )


def test_lts_of_a_process_file_says_it_must_be_composed(capsys):
    path = fx("bank.txt")
    assert main(["lts", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path} is a single process, which has no LTS of its own;"
        " compose it with its partners first (chorcheck compose)\n"
    )


def test_check_of_a_process_file_says_it_must_be_composed(capsys):
    path = fx("bank.txt")
    assert main(["check", path, fx("booking_collaboration.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path} is a single process, which has no LTS of its own;"
        " compose it with its partners first (chorcheck compose)\n"
    )


def test_lts_of_a_malformed_choreography_keeps_its_parse_error(tmp_path, capsys):
    model = tmp_path / "bad.txt"
    model.write_text("start(a) | taskRcv(a, b, m) | task(b, c, A->B:m) | end(c, d)")
    assert main(["lts", str(model)]) == 1
    assert capsys.readouterr().err == (
        "error: taskRcv is not a choreography element (at offset 11)\n"
    )


# ---------------------------------------------------------------------------
# Input errors and bugs


@pytest.mark.parametrize("make", [
    lambda: ExplorationBounds(max_states=0),
    lambda: compose([Process(()), Process(())], ["a", "a"]),
    lambda: compose([Process(())], ["a", "b"]),
    lambda: print_model(compose([Process(())], ["Customer A"])),
    lambda: export_aut(Lts(2, 0, ((0, Comm("a", "b", "pay (card)"), 1),))),
    lambda: parse_choreography("start(a) |"),
    lambda: parse_aut("des (0, 1, 2)\n"),
    lambda: chorcheck.BpmnDocument.from_text(b"<definitions>"),
    lambda: chorcheck.load_choreography(chorcheck.BpmnDocument.from_text(
        fixture_path("two_way_task.bpmn").read_bytes().replace(b"endEvent", b"subProcess"))),
], ids=["bounds", "duplicate names", "shape", "identifier", "aut label",
        "text syntax", "aut syntax", "malformed XML", "unsupported element"])
def test_user_input_errors_have_their_own_type(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize("make", [
    lambda: hide(generate_lts(parse_choreography("start(a) | end(a, b)")), {TAU}),
    lambda: TaskRcv("a", "b", "m").edge(),
    lambda: generate_lts(Choreography((AndJoin(("a", "a"), "b"),))),
], ids=["hide tau", "unresolved receive", "self join"])
def test_internal_errors_are_not_input_errors(make):
    with pytest.raises(ValueError) as info:
        make()
    assert not isinstance(info.value, InputError)


def test_internal_value_error_is_not_reported_as_an_input_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(cli, "generate_lts", broken)
    with pytest.raises(ValueError, match="internal inconsistency"):
        main(["check", fx("two_messages_choreography.txt"), fx("two_messages_inorder.txt")])
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    ValueError("internal inconsistency"),
    InternalError("separated pair without a distinguishing move"),
], ids=["value error", "internal error"])
def test_errors_while_deciding_are_not_reported_as_input_errors(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "check_bbc", broken)
    with pytest.raises(type(error), match=str(error)):
        main(["check", fx("two_messages_choreography.txt"), fx("two_messages_inorder.txt")])
    assert capsys.readouterr() == ("", "")


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "latin1.txt"
    model.write_bytes("start(a) | end(a, b) // café".encode("latin-1"))
    assert main(["lts", str(model)]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_bounds_flags_reject_zero(capsys):
    assert main(["lts", fx("minimal_choreography.txt"), "--max-states", "0"]) == 1
    assert capsys.readouterr().err == "error: exploration bounds must be positive\n"


# ---------------------------------------------------------------------------
# One parser for every call in a process


def fresh_run(argv):
    """Exit code, stdout and stderr of `chorcheck argv` in a new interpreter."""
    src = str(Path(chorcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "chorcheck.cli", *argv],
        capture_output=True, encoding="utf-8", env=env,
    )
    return done.returncode, done.stdout, done.stderr


def fresh_python(code, **env):
    """Stdout of `python -c code` in a new interpreter that imports the
    sources, with `env` added to its environment."""
    src = str(Path(chorcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          encoding="utf-8", env=env, check=True)
    return done.stdout


def test_cli_import_loads_no_dataclasses_and_no_xml_reader():
    """Start-up leaves out `dataclasses` (which imports `inspect`) and the
    BPMN reader with `xml.etree`; the first BPMN input loads the reader."""
    out = fresh_python(
        "import contextlib, io, sys\n"
        "import chorcheck.cli\n"
        "heavy = ('dataclasses', 'inspect', 'xml.etree.ElementTree', 'chorcheck.bpmn_xml')\n"
        "print([name for name in heavy if name in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        f"    code = chorcheck.cli.main(['check', {fx('booking_choreography.bpmn')!r},"
        f" {fx('booking_collaboration.bpmn')!r}, '--report', 'lines'])\n"
        "print(code, report.getvalue().count('\\n'), 'chorcheck.bpmn_xml' in sys.modules)\n"
        "import chorcheck.bpmn_xml\n"
        "print(chorcheck.bpmn_xml.MalformedModelError is chorcheck.MalformedModelError,"
        " chorcheck.bpmn_xml.UnsupportedElementError is chorcheck.UnsupportedElementError)\n"
    )
    assert out == "[]\n4 2 True\nTrue True\n"


# Failing pairs: their counterexamples are picked among sets of labels.
FAILING_PAIRS = [
    ("booking_choreography.txt", "booking_collaboration.txt"),
    ("drink_shopping_choreography.txt", "drink_shopping_collaboration.txt"),
    ("race_choreography.txt", "race_collaboration_uncoordinated.txt"),
    ("two_messages_choreography.txt", "two_messages_parallel.txt"),
]


def test_check_output_does_not_depend_on_the_hash_seed():
    calls = [
        ["check", fx(ch), fx(col), "--report", report]
        for ch, col in FAILING_PAIRS for report in ("lines", "human")
    ]
    code = (
        "import contextlib, io\n"
        "from chorcheck.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(code, repr(out.getvalue()), repr(err.getvalue()))\n"
    )
    runs = [fresh_python(code, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0].splitlines()] == ["4"] * len(calls)


def test_bpmn_names_load_the_reader_on_first_use():
    out = fresh_python(
        "import sys\n"
        "import chorcheck\n"
        "print('chorcheck.bpmn_xml' in sys.modules)\n"
        "from chorcheck import BpmnDocument, load_choreography\n"
        "print(BpmnDocument.__module__, load_choreography.__name__)\n"
    )
    assert out == "False\nchorcheck.bpmn_xml load_choreography\n"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        chorcheck.no_such_name


def in_process(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def columns(monkeypatch):
    # argparse wraps help to the terminal width; pin it for both runs.
    monkeypatch.setenv("COLUMNS", "80")


def test_help_is_the_same_on_every_call(capsys, columns):
    expected = fresh_run(["--help"])
    assert expected[0] == 0 and expected[1].startswith("usage: chorcheck")
    assert in_process(["--help"], capsys) == expected
    assert in_process(["--help"], capsys) == expected


def test_check_help_says_which_labels_an_aut_choreography_names(capsys, columns):
    code, out, _ = in_process(["check", "--help"], capsys)
    assert code == 0
    assert "an .aut names only reachable ones" in " ".join(out.split())


def test_usage_error_after_a_successful_call(capsys, columns):
    ok = ["check", fx("two_messages_choreography.txt"), fx("two_messages_inorder.txt")]
    bad = ["check", fx("two_messages_choreography.txt"), "--relation", "neither"]
    assert in_process(ok, capsys) == fresh_run(ok)
    code, out, err = in_process(bad, capsys)
    assert (code, out, err) == fresh_run(bad)
    assert code == 1 and "invalid choice: 'neither'" in err


def test_relation_choice_does_not_stick(capsys):
    tbc = check_args("acf", "--relation", "tbc", "--report", "lines")
    both = check_args("acf", "--report", "lines")
    assert in_process(tbc, capsys) == fresh_run(tbc)
    code, out, err = in_process(both, capsys)
    assert (code, out, err) == fresh_run(both)
    assert [line.split()[0] for line in out.splitlines()] == ["tbc", "bbc"]


def test_lts_to_a_file_then_to_stdout(tmp_path, capsys):
    out = tmp_path / "model.aut"
    to_file = ["lts", fx("booking_choreography.txt"), "-o", str(out)]
    to_stdout = ["lts", fx("booking_choreography.txt")]
    assert in_process(to_file, capsys) == (0, "", "14 states, 13 transitions\n")
    written = out.read_bytes()
    out.unlink()
    assert fresh_run(to_file) == (0, "", "14 states, 13 transitions\n")
    assert out.read_bytes() == written == (GOLDEN / "booking_choreography.aut").read_bytes()
    code, stdout, err = in_process(to_stdout, capsys)
    assert (code, stdout, err) == fresh_run(to_stdout)
    assert stdout.encode("ascii") == written


def test_patched_module_names_take_effect_after_the_parser_exists(monkeypatch, capsys):
    argv = ["check", fx("two_messages_choreography.txt"), fx("two_messages_inorder.txt")]
    assert main(argv) == 0
    seen = []

    def counting(model, bounds, **kwargs):
        seen.append(kwargs)
        return generate_lts(model, bounds, **kwargs)

    monkeypatch.setattr(cli, "generate_lts", counting)
    assert main(argv) == 0
    assert seen == [{"reduce": True}, {"reduce": True, "hidden": frozenset()}]


def test_no_command_decodes_the_explored_markings(monkeypatch, tmp_path, capsys):
    """No command reads `Lts.states` or iterates `Lts.transitions`, so none
    decodes a marking or a transition tuple: with both decoders refusing,
    each call answers as before.  One `check` reads its collaboration from
    an `.aut` and hides a label of it.  The markings read afterwards are
    those of the eager decode."""
    aut = tmp_path / "booking.aut"
    guarded = tmp_path / "guarded.aut"
    calls = [
        ["check", fx("two_messages_choreography.txt"), fx("two_messages_inorder.txt"),
         "--relation", "both", "--report", "lines"],
        ["check", fx("drink_shopping_choreography.txt"), fx("drink_shopping_collaboration.txt")],
        ["check", fx("booking_choreography.txt"), fx("booking_collaboration.txt")],
        ["lts", fx("booking_collaboration.txt"), "-o", str(aut)],
        ["lts", fx("request_response_guarded.txt"), "-o", str(guarded)],
        ["check", fx("request_response_choreography.txt"), str(guarded), "--report", "lines"],
    ]
    expected = [in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in expected] == [0, 4, 4, 0, 0, 0]
    assert "only the choreography can perform" in expected[1][1]
    assert "c->bs:login · c->bs:request · bs->c:reply · c->bk:pay" in expected[2][1]
    assert expected[5][1] == "tbc true\nbbc true\n"
    aut.unlink()
    explored = []
    hidden = []

    def recording(model, bounds, **kwargs):
        lts = generate_lts(model, bounds, **kwargs)
        explored.append((model, bounds, kwargs, lts))
        return lts

    def hiding(lts, labels):
        hidden.append(labels)
        return hide(lts, labels)

    def refuse(self, *args):
        raise AssertionError("explored markings or transitions decoded")

    monkeypatch.setattr(cli, "generate_lts", recording)
    monkeypatch.setattr(cli, "hide", hiding)
    with monkeypatch.context() as patch:
        patch.setattr(_Packing, "unpack", refuse)
        patch.setattr(_Columns, "_decode", refuse)
        assert [in_process(argv, capsys) for argv in calls] == expected
    assert aut.read_bytes() == (GOLDEN / "booking_collaboration.aut").read_bytes()
    assert hidden == [frozenset({Comm("B", "A", "m")})]
    assert len(explored) == 9
    for model, bounds, kwargs, lts in explored:
        assert lts.states == oracle_explore.generate_lts(model, bounds, **kwargs).states


# The paper's case studies, as `check` calls (those of `test_acceptance.py`).
CASE_STUDY_PAIRS = [
    ("two_messages_choreography.txt", "two_messages_inorder.txt"),
    ("two_messages_choreography.txt", "two_messages_reversed.txt"),
    ("two_messages_choreography.txt", "two_messages_dropped.txt"),
    ("two_messages_choreography.txt", "two_messages_parallel.txt"),
    ("race_choreography.txt", "race_collaboration.txt"),
    ("race_choreography.txt", "race_collaboration_uncoordinated.txt"),
    ("request_response_choreography.txt", "request_response_direct.txt"),
    ("request_response_choreography.txt", "request_response_early_reply.txt"),
    ("request_response_choreography.txt", "request_response_guarded.txt"),
    ("drink_shopping_choreography.txt", "drink_shopping_collaboration.txt"),
    ("booking_choreography.txt", "booking_collaboration.txt"),
    ("booking_choreography.bpmn", "booking_collaboration.bpmn"),
    ("booking_choreography.bpmn", "booking_collaboration_ack.bpmn"),
]


def test_check_answers_alike_for_a_collaboration_and_its_aut(tmp_path, capsys):
    """`check` hides the same labels whether the collaboration is a model or
    its own `lts` export.  A choreography task that can never run still
    names its label, so the collaboration's `a->b:n` stays visible in both."""
    unreachable = ("unreachable_task_choreography.txt", "unreachable_task_collaboration.txt")
    aut = str(tmp_path / "collaboration.aut")
    answers = []
    for ch, col in [unreachable, *CASE_STUDY_PAIRS]:
        assert in_process(["lts", fx(col), "-o", aut], capsys)[0] == 0
        model = in_process(["check", fx(ch), fx(col), "--report", "lines"], capsys)
        assert in_process(["check", fx(ch), aut, "--report", "lines"], capsys) == model
        answers.append(model)
    assert answers[0] == (4, "tbc false a->b:m·a->b:n collaboration\n"
                             "bbc false a->b:m a->b:n collaboration\n", "")
    assert {code for code, _, _ in answers} == {0, 4}


def test_repeated_checks_leave_no_memory_behind(capsys):
    """A long run of in-process calls keeps its memory flat.

    With `gc` off, nothing a call leaves in a reference cycle is freed, and
    a tuple built from a generator (no length hint) is parked on the free
    list of its final size, which only a full collection empties.  Both show
    as traced memory that grows with the number of calls.
    """
    calls = [check_args(letters, "--report", "lines")
             for letters in ("abd", "abe", "abf", "acd", "ace", "acf")]
    calls += [["check", fx(ch), fx(col), "--report", "lines"]
              for ch, col in CASE_STUDY_PAIRS]

    def run(argvs):
        for argv in argvs:
            main(argv)
            capsys.readouterr()

    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run(calls * 2)  # warm-up: caches, interned names, free lists in use
        before = tracemalloc.get_traced_memory()[0]
        run((calls * 6)[:100])
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
        gc.enable()
    assert growth < 40 * 1024, f"{growth} bytes more after 100 calls"


def test_both_relations_print_the_single_relation_lines_in_order(tmp_path, capsys):
    """`check` decides BBC first and, when it holds, answers TBC without a
    search; the output must still be the `tbc` call's, then the `bbc`
    call's, with the exit code of the worse.  One composition is the
    choreography, as an `.aut`, and the other the collaboration."""
    aut, text = tmp_path / "a.aut", tmp_path / "b.txt"
    rng = random.Random(83)
    verdicts = set()
    for pair in [matched_tuple_pair] * 25 + [xor_tuple_pair] * 25:
        first, second, names = pair(rng, max_pools=3)
        a, b = compose(first, names), compose(second, names)
        for x, y in ((a, b), (b, a)):
            aut.write_bytes(export_aut(generate_lts(x)))
            text.write_text(print_model(y))
            argv = ["check", str(aut), str(text), "--report", "lines"]
            tbc, bbc, both = (
                in_process([*argv, "--relation", relation], capsys)
                for relation in ("tbc", "bbc", "both")
            )
            assert both == (max(tbc[0], bbc[0]), tbc[1] + bbc[1], "")
            verdicts.add(tuple([line.split()[1] for line in both[1].splitlines()]))
    assert {("true", "true"), ("true", "false"), ("false", "false")} <= verdicts
