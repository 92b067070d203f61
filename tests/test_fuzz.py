"""Hostile-input fuzzing: arbitrary edge-list text never gets past
``parse_edge_list`` as anything but ``ValueError``, nor arbitrary family
text past ``parse_family_spec``, and the CLI keeps its exit-code contract
(0, 2, 3, 4) with no traceback on any of it."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from idcodes import families, graph  # noqa: E402
from idcodes.cli import main  # noqa: E402
from idcodes.families import FamilySpec, parse_family_spec  # noqa: E402
from idcodes.graph import Graph, parse_edge_list  # noqa: E402

KINDS = ("identifying", "separating", "locating-dominating", "dominating")
JUNK = st.sampled_from(
    ["x", "#", "# note", "1.5", "-", "+3", "0x1", "1e3", "٣", "99999999999999999999", "\t", ""]
)
TOKENS = st.one_of(st.integers(-2, 45).map(str), JUNK)


@st.composite
def edge_list_texts(draw) -> str:
    """A header of up to 40 vertices over distinct in-range edges, intact
    or with one kind of damage: a self-loop, out-of-range endpoints, a
    wrong edge count or junk tokens (or all of them)."""
    n = draw(st.integers(0, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=45)) if pairs else []
    damaged = draw(st.booleans())
    damage = draw(st.sampled_from(("loop", "range", "count", "junk", "all"))) if damaged else "none"
    if damage in ("loop", "all"):
        edges.append((draw(st.integers(0, 40)),) * 2)
    if damage in ("range", "all"):
        edges.append(draw(st.tuples(st.integers(-2, 45), st.integers(-2, 45))))
    m = draw(st.integers(-1, 60)) if damage in ("count", "all") else len(edges)
    lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    if damage in ("junk", "all"):
        junk = " ".join(draw(st.lists(TOKENS, min_size=1, max_size=3)))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


# structured edge lists twice as often as free text
TEXTS = st.one_of(edge_list_texts(), edge_list_texts(), st.text(max_size=40))


@given(TEXTS)
def test_parse_edge_list_raises_only_value_error(text):
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    assert isinstance(g, Graph)


# family specs: a known head or junk, a ':', then numbers and junk tokens
# joined by ',', sometimes with the '+u' suffix; or free text
FAMILY_TEXTS = st.one_of(
    st.builds(
        "{}:{}{}".format,
        st.sampled_from(["A", "star", "join", "KminusM", "join+u", "fig4", ""]),
        st.lists(TOKENS, max_size=4).map(",".join),
        st.sampled_from(["", "+u"]),
    ),
    st.text(max_size=20),
)


def _refuse(*args):
    raise AssertionError("a graph was built while reading a family spec")


@given(FAMILY_TEXTS)
def test_parse_family_spec_raises_only_value_error(text):
    with pytest.MonkeyPatch.context() as mp:  # the spec is read, no member built
        mp.setattr(families, "Graph", _refuse)
        mp.setattr(graph, "Graph", _refuse)
        try:
            spec = parse_family_spec(text)
        except ValueError:
            return
    assert isinstance(spec, FamilySpec)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.txt"


@settings(max_examples=300)  # three commands share the examples
@given(
    text=TEXTS,
    command=st.sampled_from(["solve", "classify", "verify"]),
    kind=st.sampled_from(KINDS),
    radius=st.one_of(st.sampled_from(["0", "1", "2"]), JUNK, st.text(max_size=4)),
    code=st.one_of(
        st.lists(st.integers(-1, 42), max_size=6).map(lambda vs: ",".join(map(str, vs))),
        st.text(max_size=8),
    ),
)
def test_cli_keeps_exit_code_contract(graph_path, text, command, kind, radius, code):
    graph_path.write_text(text, encoding="utf-8")
    argv = [command, "--graph", str(graph_path)]
    if command != "classify":
        argv += ["--kind", kind, "--radius", radius]
    if command == "verify":
        argv.append(f"--code={code}")
    status, err = _run_cli(argv)
    assert status in (0, 2, 3, 4)
    assert "Traceback" not in err
