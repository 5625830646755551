from chorcheck.cli import main
from conftest import GOLDEN, fixture_path


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


def test_usage_error_exits_1(capsys):
    assert main(["check", fx("booking_choreography.txt")]) == 1
    assert main(["frobnicate"]) == 1


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
