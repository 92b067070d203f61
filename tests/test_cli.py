"""Command-line surface: every subcommand, exit statuses, determinism, and
re-verification of emitted reports against the input graph."""

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import brute
from randgraphs import gnp_edges
import idcodes
from idcodes import bound, cli, codes, scans, solve
from idcodes.cli import main
from idcodes.families import band_graph, cycle_graph, petersen_graph, star_graph
from idcodes.graph import Graph, format_edge_list, parse_edge_list, power


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def graph_file(tmp_path):
    def _write(g, name="g.txt"):
        path = tmp_path / name
        path.write_text(format_edge_list(g))
        return str(path)

    return _write


def test_generate_band_graph(run):
    code, out, _ = run("generate", "--family", "A:3")
    assert code == 0
    g = parse_edge_list(out)
    assert g == band_graph(3)
    assert g.edge_count == 9


def test_generate_all_variants(run):
    for spec in ["A:2", "star:3", "join:1,1", "join:2+u", "KminusM:5", "fig4"]:
        code, out, _ = run("generate", "--family", spec)
        assert code == 0
        parse_edge_list(out)


def test_power_command(run, graph_file):
    path = graph_file(band5_square_root_graph())
    code, out, _ = run("power", "--graph", path, "--radius", "2")
    assert code == 0
    assert parse_edge_list(out) == band_graph(5)


def band5_square_root_graph():
    from idcodes.families import band5_square_root

    return band5_square_root()


def test_verify_command_valid_and_witness(run, graph_file):
    path = graph_file(band_graph(2))
    code, out, _ = run("verify", "--graph", path, "--code", "0,1,2", "--kind", "identifying")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True and report["witness"] is None

    code, out, _ = run("verify", "--graph", path, "--code", "1,2", "--kind", "identifying")
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is False
    assert report["witness"]["pair"] == [1, 2]


def test_solve_command(run, graph_file):
    path = graph_file(band_graph(3))
    code, out, _ = run("solve", "--graph", path, "--kind", "identifying", "--radius", "1")
    assert code == 0
    report = json.loads(out)
    assert report["minimum"] == 5
    # the emitted example re-verifies against the input graph
    g = parse_edge_list(format_edge_list(band_graph(3)))
    assert codes.check_code(g, report["example_code"], "identifying").valid


def test_solve_all_minimum(run, graph_file):
    path = graph_file(band_graph(2))
    code, out, _ = run(
        "solve", "--graph", path, "--kind", "separating", "--all-minimum"
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_minimum_sets"] == [[0, 1, 2], [1, 2, 3]]
    code, _, err = run("solve", "--graph", path, "--kind", "identifying", "--all-minimum")
    assert code == 2 and "all-minimum" in err


def test_solve_all_minimum_kind_is_a_usage_error_before_any_solve(run, graph_file):
    # the flag is checked before the graph is read: on a graph above the
    # solver's vertex cap the answer is still the usage error, with no
    # report, and so is a file that does not exist
    path = graph_file(cycle_graph(solve.SOLVE_VERTEX_CAP + 6))
    for kind in ("identifying", "locating-dominating", "dominating"):
        code, out, err = run("solve", "--graph", path, "--kind", kind, "--all-minimum")
        assert (code, out) == (2, "") and "all-minimum" in err, kind
    code, out, err = run("solve", "--graph", path + ".missing", "--kind", "identifying", "--all-minimum")
    assert (code, out) == (2, "") and "all-minimum" in err
    # without the flag the same graph fails the solver's precondition
    code, out, _ = run("solve", "--graph", path, "--kind", "identifying")
    assert (code, out) == (3, "")


def test_solve_all_minimum_is_one_solve(run, graph_file, monkeypatch):
    # on seeded random twin-free graphs the flag prints the solve report
    # plus every minimum separating set, as the naive oracle lists them,
    # from a single call of the solver
    calls = []
    real = solve._solve

    def counted(balls, kind):
        calls.append(kind)
        return real(balls, kind)

    monkeypatch.setattr(solve, "_solve", counted)
    rng = random.Random(87)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.35, 0.5, 0.65))
        g = Graph(n, gnp_edges(rng, n, p))
        path = graph_file(g)
        for r in (1, 2):
            sets = brute.naive_all_minimum(g, "separating", r)
            if not sets:  # twins at radius r
                continue
            expected = solve.solve_minimum(g, "separating", r).to_dict()
            expected["all_minimum_sets"] = [sorted(c) for c in sets]
            calls.clear()
            code, out, err = run(
                "solve", "--graph", path, "--kind", "separating", "--radius", str(r), "--all-minimum"
            )
            assert (code, err) == (0, "")
            assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", (g, r)
            assert calls == ["separating"]
            checked += 1
    assert checked > 40, checked


def test_classify_command(run, graph_file):
    path = graph_file(cycle_graph(4))
    code, out, _ = run("classify", "--graph", path)
    assert code == 0
    report = json.loads(out)
    assert report["outcome"] == "join-family"
    assert report["factors"] == [1, 1]
    assert report["implied_gamma_id"] == 3
    assert report["family_spec"] == "join:1,1"


def test_classify_command_on_band_impostor(run, graph_file):
    # band_graph(7) with (0,1),(8,9) swapped for (0,9),(1,8): the degree
    # sequence of a band graph on 14 vertices, but not a band graph
    edges = set(band_graph(7).edges()) - {(0, 1), (8, 9)} | {(0, 9), (1, 8)}
    code, out, err = run("classify", "--graph", graph_file(Graph(14, sorted(edges))))
    assert code == 0 and err == ""
    assert json.loads(out)["outcome"] == "not-extremal"


def test_bound_command(run, graph_file):
    path = graph_file(cycle_graph(9))
    code, out, _ = run("bound", "--graph", path, "--radius", "1", "--regular")
    assert code == 0
    report = json.loads(out)
    g = cycle_graph(9)
    assert codes.check_code(g, report["code"], "identifying").valid
    assert report["bound_value"] is None

    code, out, _ = run("bound", "--graph", path, "--radius", "1")
    report = json.loads(out)
    assert codes.check_code(g, report["code"], "identifying").valid


def test_bound_prints_a_ceiling_past_the_digit_limit(run, graph_file, monkeypatch):
    # the report is written with Python's int-to-string digit limit (4,300 by
    # default) lifted, and the limit holds again for the next input; the
    # 5,000-digit terms are compared as text, since int() would refuse them
    big = 10**5000 + 1
    monkeypatch.setattr(bound, "ball_size_limit", lambda max_degree, radius: big)
    expected = 10 * (1 - Fraction(1, big))
    assert (expected.numerator, expected.denominator) == (10**5001, big)
    terms = ["1" + "0" * 5001, "1" + "0" * 4999 + "1"]
    path = graph_file(petersen_graph())
    code, out, err = run("bound", "--graph", path)
    assert (code, err) == (0, "")
    report = json.loads(out, parse_int=str)
    assert (report["bound_value"], report["bound_ceiling"]) == (terms, "10")
    code, out, err = run("--plain", "bound", "--graph", path)
    assert (code, err) == (0, "")
    lines = dict(line.split("\t") for line in out.splitlines())
    assert json.loads(lines["bound_value"], parse_int=str) == terms
    code, out, err = run("verify", "--graph", path, "--kind", "identifying", "--code", "1" * 5000)
    assert code == 2 and out == ""
    assert "is not a vertex number" in err


def test_scan_command(run):
    code, out, _ = run("scan", "--max-n", "4", "--theorem", "thm12")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["counterexamples"] == []


def test_scan_requires_exactly_one_mode():
    # --theorem names the one scan to run; there is no other way to pick one
    for argv in (
        ["scan", "--max-n", "4"],
        ["scan", "--max-n", "4", "--conjecture"],
        ["scan", "--max-n", "4", "--theorem", "thm12", "--conjecture"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_scan_cap_is_usage_error(run):
    code, _, err = run("scan", "--max-n", "10", "--theorem", "thm12")
    assert code == 2 and "cap" in err


def _scan_huge_max_n(theorem: str, *flags: str) -> subprocess.CompletedProcess:
    """``idcodes scan`` at max_n = 10^20 - 1, in a child limited to 1 GB of
    address space: a table sized by max_n would end there in "error: out
    of memory", which exits 2 as well, so callers check the message."""
    env = {**os.environ, "PYTHONPATH": str(Path(idcodes.__file__).parents[1])}
    argv = ["scan", "--max-n", "9" * 20, "--theorem", theorem, *flags]
    return subprocess.run(
        [sys.executable, "-m", "idcodes.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


@pytest.mark.parametrize("theorem", sorted(scans.THEOREM_SCANS))
def test_scan_refuses_a_huge_max_n_before_building_anything(theorem):
    # every scan refuses a max_n past its cap before it builds a table sized
    # by max_n
    result = _scan_huge_max_n(theorem)
    assert result.returncode == 2, result.stderr
    assert f"scan {theorem!r} is capped at n <= {scans.SCAN_CAP}" in result.stderr


@pytest.mark.parametrize("theorem", sorted(scans.THEOREM_SCANS))
def test_unsafe_cap_stops_at_eleven_vertices(theorem):
    # --unsafe-cap lifts the cap only to n = 11, the last class count known,
    # so a huge max_n is still refused before anything is built
    result = _scan_huge_max_n(theorem, "--unsafe-cap")
    assert result.returncode == 2, result.stderr
    assert f"scan {theorem!r} is capped at n <= 11 " in result.stderr


_C9 = format_edge_list(cycle_graph(9))
_TWO_C4 = format_edge_list(Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]))


@pytest.mark.parametrize(
    "argv, text, status, expected",
    [
        (["bound", "--regular", "--radius", "2"], _C9, 2, "defined for radius 1 only"),
        (["scan", "--max-n", "0", "--theorem", "thm12"], None, 2, "max_n must be >= 1"),
        (["power", "--radius", "0"], _C9, 2, "radius must be >= 1"),
        (["bound", "--radius", "0"], _C9, 2, "radius must be >= 1"),
        (["bound"], "1 0\n", 3, "needs at least 2 vertices"),
        (["bound", "--regular"], "1 0\n", 3, "needs at least 2 vertices"),
        (["bound", "--regular"], _TWO_C4, 3, "defined for connected graphs"),
        (
            ["solve", "--kind", "separating", "--all-minimum"],
            "0 0\n",
            0,
            {"minimum": 0, "example_code": [], "explored": 1, "all_minimum_sets": [[]]},
        ),
    ],
)
def test_exit_status_on_rarely_taken_paths(run, tmp_path, argv, text, status, expected):
    # the exit-code contract on usage and precondition paths, and the empty
    # graph, which goes through the one search like any other
    if text is not None:
        path = tmp_path / "g.txt"
        path.write_text(text)
        argv = [*argv, "--graph", str(path)]
    code, out, err = run(*argv)
    assert code == status
    if status:
        assert out == "" and expected in err and "Traceback" not in err
    else:
        assert err == "" and expected.items() <= json.loads(out).items()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--regular", "--radius", "2"], "the regular variant is defined for radius 1 only\n"),
        (["bound", "--regular", "--radius", "0"], "the regular variant is defined for radius 1 only\n"),
        (["bound", "--radius", "0"], "error: radius must be >= 1\n"),
        (["power", "--radius", "0"], "error: radius must be >= 1\n"),
        (["solve", "--kind", "identifying", "--radius", "0"], "error: radius must be >= 1\n"),
        (["verify", "--kind", "identifying", "--code", "0", "--radius", "0"], "error: radius must be >= 1\n"),
        (["verify", "--kind", "identifying", "--code", "a,b"], "error: --code entry 'a' is not a vertex number\n"),
    ],
)
def test_flag_refusals_come_before_the_graph_is_read(run, tmp_path, argv, message):
    # a missing file would exit 2 too, but naming the file, not the flag
    code, out, err = run(*argv, "--graph", str(tmp_path / "missing.txt"))
    assert (code, out, err) == (2, "", message)


def test_exit_status_usage(run, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--graph", "x.txt"])  # missing --kind
    assert exc.value.code == 2
    code, _, err = run("solve", "--graph", str(tmp_path / "missing.txt"), "--kind", "identifying")
    assert code == 2
    code, _, err = run("generate", "--family", "A:0")
    assert code == 2


def test_solve_rejects_huge_vertex_header(run, tmp_path, monkeypatch):
    import idcodes.graph

    def refuse(n, edges=()):
        raise AssertionError(f"Graph({n}, ...) was built from a header above the cap")

    monkeypatch.setattr(idcodes.graph, "Graph", refuse)
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0\n")
    code, out, err = run("solve", "--graph", str(path), "--kind", "identifying")
    assert code == 2 and out == ""
    assert "limit is 16384" in err and "Traceback" not in err


def test_generate_rejects_family_above_vertex_cap(run, monkeypatch):
    import idcodes.families
    import idcodes.graph

    def refuse(n, edges=()):
        raise AssertionError(f"Graph({n}, ...) was built for a family above the cap")

    monkeypatch.setattr(idcodes.graph, "Graph", refuse)
    monkeypatch.setattr(idcodes.families, "Graph", refuse)
    code, out, err = run("generate", "--family", "star:100000000")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "limit is 16384" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("A:1_0", "family parameter '1_0' is not an integer"),
        ("star:\u0663", "family parameter '\u0663' is not an integer"),
        ("A: 2", "family parameter ' 2' is not an integer"),
        ("join:1,,2", "family parameter '' is not an integer"),
        ("KminusM:0x4", "family parameter '0x4' is not an integer"),
        ("A:1,2", "band graph order must be a single integer >= 1"),
    ],
)
def test_generate_reads_family_parameters_strictly(run, spec, message):
    # the edge lists' number rule: int() alone would build A_10 from '1_0',
    # take Arabic-Indic digits and spaces, and refuse the rest in its own words
    assert run("generate", "--family", spec) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--radius", "--max-n"])
@pytest.mark.parametrize("value", ["1_0", "+1", "\u0662"])
def test_integer_flags_are_read_strictly(capsys, graph_file, flag, value):
    argv = {
        "--radius": ["power", "--graph", graph_file(band_graph(2))],
        "--max-n": ["scan", "--theorem", "thm12"],
    }[flag]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f"error: argument {flag}: {value!r} is not an integer\n")
    assert "Traceback" not in err


def test_out_of_memory_is_a_usage_error(run, monkeypatch):
    # one line and exit 2, as for any input the machine cannot hold; the
    # builder in the variant's row raises at once, so the test allocates
    # nothing
    from idcodes.families import VARIANTS

    def exhausted(k):
        raise MemoryError

    monkeypatch.setitem(VARIANTS, "A", VARIANTS["A"]._replace(build=exhausted))
    assert run("generate", "--family", "A:3000") == (2, "", "error: out of memory\n")


def test_exit_status_precondition_on_twins(run, graph_file):
    from idcodes.families import complete_graph

    path = graph_file(complete_graph(3))
    code, _, err = run("solve", "--graph", path, "--kind", "identifying")
    assert code == 3 and ("twin" in err.lower() or "ball" in err.lower())
    code, _, err = run("classify", "--graph", path)
    assert code == 3


def test_byte_identical_output(run, graph_file):
    path = graph_file(star_graph(4))
    _, out1, _ = run("solve", "--graph", path, "--kind", "identifying")
    _, out2, _ = run("solve", "--graph", path, "--kind", "identifying")
    assert out1 == out2
    _, plain, _ = run("--plain", "solve", "--graph", path, "--kind", "identifying")
    assert "minimum\t4" in plain


def test_verify_refuses_an_empty_code_entry(run, graph_file):
    # an empty entry is refused as such, with the flag and the whole list,
    # before any vertex is checked
    path = graph_file(band_graph(2))
    code, out, err = run("verify", "--graph", path, "--code", "0,,1", "--kind", "identifying")
    assert (code, out, err) == (2, "", "error: --code has an empty entry: '0,,1'\n")


@pytest.mark.parametrize("entry", ["1_0", "+1", "\u0661", "\uff11", "1" * 5000])
def test_verify_reads_code_entries_strictly(run, graph_file, entry):
    # the edge list's token rule: int() alone would verify '1_0' as vertex
    # 10 and take '+1', Arabic-Indic and full-width digits
    path = graph_file(band_graph(2))
    code, out, err = run("verify", "--graph", path, "--code", f"0, {entry}", "--kind", "identifying")
    assert (code, out, err) == (2, "", f"error: --code entry {entry!r} is not a vertex number\n")
    # a '-' still reaches the vertex check, and spaces around entries stay
    code, out, err = run("verify", "--graph", path, "--code", "-1", "--kind", "identifying")
    assert (code, out, err) == (2, "", "error: invalid vertex -1: range is 0..3\n")
    code, out, err = run("verify", "--graph", path, "--code", " 0 , 1 ,2", "--kind", "identifying")
    assert code == 0 and json.loads(out)["valid"]


def test_verify_radius_two(run, graph_file):
    fix = band5_square_root_graph()
    path = graph_file(fix)
    report = solve.solve_minimum(fix, "identifying", 2)
    code, out, _ = run(
        "verify",
        "--graph",
        path,
        "--code",
        ",".join(map(str, sorted(report.example_code))),
        "--kind",
        "identifying",
        "--radius",
        "2",
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_repeated_main_matches_fresh_parser(capsys, graph_file, monkeypatch):
    # main keeps one parser for the process; a run of mixed subcommands,
    # --plain and usage errors must print and exit as on a fresh parser
    path = graph_file(band5_square_root_graph())
    argvs = [
        ["solve", "--graph", path, "--kind", "identifying"],
        ["--plain", "verify", "--graph", path, "--code", "0,1", "--kind", "separating"],
        ["solve", "--graph", path],  # missing --kind: argparse exits 2
        ["--plain", "solve", "--graph", path, "--kind", "locating-dominating", "--radius", "2"],
        ["scan", "--max-n", "4"],  # neither mode: main returns 2
        ["bound", "--graph", path, "--radius", "1"],
        ["generate", "--family", "A:3"],
        ["verify", "--graph", path, "--code", "", "--kind", "dominating"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in argvs]
    parser = cli._PARSER
    assert parser is not None
    shared += [outcome(argv) for argv in reversed(argvs)]
    assert cli._PARSER is parser
    fresh = []
    for argv in argvs + argvs[::-1]:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared[: len(argvs)]] == [0, 0, 2, 0, 2, 0, 0, 0]
    assert cli.build_parser() is not cli.build_parser()
