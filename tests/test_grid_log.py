from __future__ import annotations

import copy
import csv
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtopo.cli import main
from gridtopo.grid_log import (
    NODE_KINDS,
    EdgeRecord,
    GridLogError,
    NodeRecord,
    TemporalGridLog,
    active_elements,
    line_count_series,
    load_log,
    parse_log,
    to_csv,
)

import properties
from conftest import bench_log_csv, churn_csv
from oracles import reference_line_count_series, reference_parse_log

NODES_HEADER = "id,name,kind,commissioned,decommissioned,domestic\n"
EDGES_HEADER = "id,node_a,node_b,voltage_kv,commissioned,decommissioned,domestic\n"


def log_text(node_rows, edge_rows):
    return (
        NODES_HEADER + "".join(r + "\n" for r in node_rows),
        EDGES_HEADER + "".join(r + "\n" for r in edge_rows),
    )


def make_log(node_rows, edge_rows):
    return parse_log(*log_text(node_rows, edge_rows))


def test_minimal_valid_log():
    log = make_log(
        ["A,Station A,substation,1950,,true", "B,Station B,substation,1950,,true"],
        ["e1,A,B,120,1950,,true"],
    )
    assert len(log.nodes) == 2
    assert len(log.edges) == 1


def test_unknown_endpoint_names_id_and_row():
    with pytest.raises(GridLogError) as err:
        make_log(
            ["A,Station A,substation,1950,,true"],
            ["e1,A,X,120,1950,,true"],
        )
    assert "'X'" in str(err.value)
    assert "row 2" in str(err.value)


def test_parallel_circuits_merge_to_single_connection():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
        ["e1,A,B,220,1960,,true", "e2,A,B,220,1965,,true"],
    )
    assert len(log.edges) == 1
    merged = log.edges[0]
    assert merged.id == "e1"
    assert merged.commissioned == 1960
    assert merged.decommissioned is None
    assert log.merges[0].merged_ids == ("e1", "e2")


def test_merge_spans_union_of_bounded_lifetimes():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
        ["e1,A,B,120,1955,1965,true", "e2,A,B,120,1960,1980,true"],
    )
    assert len(log.edges) == 1
    assert (log.edges[0].commissioned, log.edges[0].decommissioned) == (1955, 1980)


def test_merge_is_transitive_across_a_chain_of_overlaps():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
        [
            "e1,A,B,120,1950,1960,true",
            "e2,A,B,120,1955,1970,true",
            "e3,A,B,120,1965,1980,true",
        ],
    )
    assert len(log.edges) == 1
    assert (log.edges[0].commissioned, log.edges[0].decommissioned) == (1950, 1980)
    assert log.merges[0].merged_ids == ("e1", "e2", "e3")


def test_cross_voltage_parallel_circuits_keep_highest_level():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
        ["e1,A,B,120,1950,,true", "e2,A,B,400,1960,,true"],
    )
    assert len(log.edges) == 1
    assert log.edges[0].voltage_kv == 400


def test_merged_connection_is_domestic_only_if_all_circuits_are():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
        ["e1,A,B,220,1950,,true", "e2,A,B,220,1960,,false"],
    )
    assert len(log.edges) == 1
    assert log.edges[0].domestic is False


def test_non_overlapping_parallel_records_stay_separate():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
        ["e1,A,B,120,1950,1955,true", "e2,A,B,120,1960,,true"],
    )
    assert len(log.edges) == 2
    assert not log.merges


def test_decommission_year_excludes_element():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1960,1975,true"],
        [],
    )
    assert "B" in active_elements(log, 1974)[0]
    assert "B" not in active_elements(log, 1975)[0]


def test_query_before_first_commission_is_empty():
    log = make_log(["A,A,plant,1950,,true"], [])
    assert active_elements(log, 1940) == (set(), [])


# 12-element log with a hand-enumerated activity table for 1950-1955
SMALL_LOG_NODES = [
    "a,a,substation,1950,,true",
    "b,b,substation,1950,1953,true",
    "c,c,substation,1951,,true",
    "d,d,substation,1952,1955,true",
    "e,e,substation,1953,,true",
    "f,f,substation,1954,1954,true",
    "g,g,substation,1955,,true",
]
SMALL_LOG_EDGES = [
    "p,a,c,120,1951,,true",
    "q,a,b,120,1950,1952,true",
    "r,c,d,120,1952,1954,true",
    "s,a,e,120,1953,,true",
    "t,e,g,120,1955,,true",
]
SMALL_LOG_ACTIVITY = {
    1950: ({"a", "b"}, {"q"}),
    1951: ({"a", "b", "c"}, {"p", "q"}),
    1952: ({"a", "b", "c", "d"}, {"p", "r"}),
    1953: ({"a", "c", "d", "e"}, {"p", "r", "s"}),
    1954: ({"a", "c", "d", "e"}, {"p", "s"}),
    1955: ({"a", "c", "e", "g"}, {"p", "s", "t"}),
}


def test_activity_matches_hand_enumerated_table():
    log = make_log(SMALL_LOG_NODES, SMALL_LOG_EDGES)
    for year, expected in SMALL_LOG_ACTIVITY.items():
        node_ids, edges = active_elements(log, year)
        assert (node_ids, {e.id for e in edges}) == expected, year


def test_line_count_direct():
    log = make_log(
        ["A,A,substation,1950,,true", "B,B,substation,1950,,true", "C,C,substation,1950,,true"],
        [
            "e1,A,B,220,1950,,true",
            "e2,B,C,220,1950,,true",
            "e3,A,C,220,1950,,true",
        ],
    )
    assert line_count_series(log, {220}, False, [1970]) == [3]
    assert line_count_series(log, {400}, False, [1960, 1970]) == [0, 0]


VOLTAGE_SETS = [{120}, {220}, {400}, {220, 400}, {120, 220, 400}, {110, 380}]
# out-of-range, repeated and unsorted years too
COUNT_YEARS = [*range(1940, 2031), 2019, 1950, 1975, 1949]


@pytest.mark.parametrize("bench_log", [None, (350, 1, False), (400, 1, True), (400, 2, True)])
def test_line_counts_equal_the_per_year_count(fixture_log, bench_log):
    log = fixture_log if bench_log is None else parse_log(*bench_log_csv(*bench_log))
    for voltages in VOLTAGE_SETS:
        for domestic_only in (False, True):
            expected = reference_line_count_series(log, voltages, domestic_only, COUNT_YEARS)
            assert line_count_series(log, voltages, domestic_only, COUNT_YEARS) == expected, voltages
    assert any(reference_line_count_series(log, {220, 400}, True, COUNT_YEARS))


def test_a_line_counts_only_while_both_endpoints_are_active():
    # built directly: the parser rejects lines that outlive an endpoint or have no endpoint
    nodes = (
        NodeRecord("A", "A", "substation", 1950, 1970, True),
        NodeRecord("B", "B", "substation", 1955, None, True),
        NodeRecord("C", "C", "substation", 1940, 1960, False),
    )
    edges = (
        EdgeRecord("ab", "A", "B", 220, 1945, 1980, True),
        EdgeRecord("bc", "B", "C", 220, 1950, None, True),
        EdgeRecord("ac", "A", "C", 220, 1958, 1958, True),
        EdgeRecord("cb", "C", "B", 220, 1962, None, True),
        EdgeRecord("az", "A", "Z", 220, 1950, None, True),
    )
    log = TemporalGridLog(nodes, edges)
    years = list(range(1940, 1985))
    counts = line_count_series(log, {220}, False, years)
    assert counts == reference_line_count_series(log, {220}, False, years)
    assert {year for year, count in zip(years, counts) if count} == set(range(1955, 1970))
    assert counts[years.index(1957)] == 2


def test_line_count_domestic_only_excludes_cross_border(fixture_log):
    # active 120 kV lines in 1963: e01..e08 with e03/e10 merged -> 8 records,
    # of which e08 is the foreign tie
    assert line_count_series(fixture_log, {120}, False, [1963]) == [8]
    assert line_count_series(fixture_log, {120}, True, [1963, 1964, 1965]) == [7, 7, 8]


def test_line_count_rejects_empty_filter(fixture_log):
    with pytest.raises(GridLogError):
        line_count_series(fixture_log, set(), False, [1960])
    with pytest.raises(GridLogError):
        line_count_series(fixture_log, {220}, False, [])


@pytest.mark.parametrize(
    "node_rows,edge_rows,fragment",
    [
        (["A,A,substation,1980,1970,true"], [], "before commissioned"),
        (["A,A,substation,1950,,true", "A,A2,plant,1960,,true"], [], "duplicate node id"),
        (["A,A,substation,not_a_year,,true"], [], "invalid year"),
        (["A,A,windmill,1950,,true"], [], "unknown kind"),
        (["A,A,substation,1950,,maybe"], [], "domestic"),
        (["A,A,substation,1950,,true"], ["e1,A,A,120,1950,,true"], "self-loop"),
        (["A,A,substation,1950,,true", "B,B,substation,1950,,true"], ["e1,A,B,0,1950,,true"], "voltage"),
        (
            ["A,A,substation,1950,,true", "B,B,substation,1950,,true"],
            ["e1,A,B,120,1950,,true", "e1,A,B,120,1960,,true"],
            "duplicate edge id",
        ),
        (
            ["A,A,substation,1950,,true", "B,B,substation,1960,1970,true"],
            ["e1,A,B,120,1950,,true"],
            "before endpoint",
        ),
        (
            ["A,A,substation,1950,,true", "B,B,substation,1950,1970,true"],
            ["e1,A,B,120,1950,,true"],
            "outlives endpoint",
        ),
        (["A,A,substation,1950,true"], [], "expected 6 fields"),
    ],
)
def test_validation_errors(node_rows, edge_rows, fragment):
    with pytest.raises(GridLogError) as err:
        make_log(node_rows, edge_rows)
    assert fragment in str(err.value)


def test_malformed_row_reports_row_number():
    with pytest.raises(GridLogError) as err:
        make_log(["A,A,substation,1950,,true", "B,B,substation,oops,,true"], [])
    assert "row 3" in str(err.value)


def test_header_is_required():
    with pytest.raises(GridLogError):
        parse_log("id,name\nA,A\n", EDGES_HEADER)


def test_row_reader_checks_both_tables_alike():
    a_b = "A,A,plant,1950,,true\nB,B,plant,1950,,true\n"
    cases = [
        (("id,name\n", EDGES_HEADER), f"nodes: expected header {NODES_HEADER.strip()!r}"),
        ((NODES_HEADER, "id\n"), f"edges: expected header {EDGES_HEADER.strip()!r}"),
        ((NODES_HEADER + " ,A,plant,1950,,true\n", EDGES_HEADER), "nodes row 2: empty id"),
        ((NODES_HEADER + a_b, EDGES_HEADER + '"  ",A,B,120,1950,,true\n'), "edges row 2: empty id"),
        ((NODES_HEADER + "A,A,plant,1950,,true\n\n , ,\n A ,A,plant,1950,,true\n", EDGES_HEADER),
         "nodes row 5: duplicate node id 'A'"),
        ((NODES_HEADER + a_b, EDGES_HEADER + "e,A,B,120,1950,,true\n,,,,,,\ne,A,B,120,1960,,true\n"),
         "edges row 4: duplicate edge id 'e'"),
    ]
    for sources, message in cases:
        with pytest.raises(GridLogError) as err:
            parse_log(*sources)
        assert str(err.value) == message
    log = parse_log(NODES_HEADER + "\n" + a_b + " , \n", EDGES_HEADER + ",,\ne,A,B,120,1950,,true\n\n")
    assert (len(log.nodes), len(log.edges)) == (2, 1)  # blank rows are skipped


def test_quoted_fields_accepted():
    log = parse_log(
        NODES_HEADER + 'A,"Plant, the big one",plant,1950,,true\n',
        EDGES_HEADER,
    )
    assert log.nodes[0].name == "Plant, the big one"


def test_oversized_field_names_its_row():
    huge = "x" * 140000
    with pytest.raises(GridLogError, match=r"^nodes row 3: field larger than field limit"):
        make_log(["A,A,substation,1950,,true", f"B,{huge},substation,1950,,true"], [])
    with pytest.raises(GridLogError, match=r"^edges row 2: field larger than field limit"):
        make_log(["A,A,substation,1950,,true", "B,B,substation,1950,,true"], [f"{huge},A,B,120,1950,,true"])


def test_bom_prefixed_files_parse_like_the_originals(tmp_path, fixture_csv_paths, fixture_log):
    copies = []
    for path in fixture_csv_paths:
        copy = tmp_path / path.name
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        copies.append(copy)
    assert load_log(*copies) == fixture_log
    nodes_csv, edges_csv = (path.read_text(encoding="utf-8") for path in fixture_csv_paths)
    assert parse_log("\ufeff" + nodes_csv, "\ufeff" + edges_csv) == fixture_log


def test_canonical_round_trip(fixture_log):
    reparsed = parse_log(*to_csv(fixture_log))
    assert reparsed == fixture_log


_ODD_TEXT = st.text(st.sampled_from('aZ9 ,;"\'\né-'), max_size=6)
_TRUE = (" true", "True", "TRUE ")
_FALSE = ("false", " False", "FALSE")


def _csv(header: str, rows: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return header + out.getvalue()


@st.composite
def valid_log_csv(draw) -> tuple[str, str]:
    """Node and edge CSV text of a valid log.

    Names and ids hold commas, quotes and newlines; cells carry stray
    spaces and mixed case; circuits often run in parallel on one pair, and
    lifetimes may be open, bounded or empty.
    """
    nodes = []
    for i in range(draw(st.integers(2, 7))):
        commissioned = draw(st.integers(1950, 1960))
        decommissioned = draw(st.none() | st.integers(commissioned, 1975))
        nodes.append((commissioned, decommissioned))
    node_rows = [
        [
            f"n{i}" + draw(_ODD_TEXT.map(str.rstrip)),
            draw(_ODD_TEXT),
            draw(st.sampled_from(NODE_KINDS)) + draw(st.sampled_from(("", " "))),
            commissioned,
            "" if decommissioned is None else f" {decommissioned}",
            draw(st.sampled_from(_TRUE + _FALSE)),
        ]
        for i, (commissioned, decommissioned) in enumerate(nodes)
    ]
    pairs = draw(st.lists(st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1))
                          .filter(lambda ab: ab[0] != ab[1]), min_size=1, max_size=3))
    edge_rows = []
    for j in range(draw(st.integers(0, 10))):
        a, b = draw(st.sampled_from(pairs))
        start = max(nodes[a][0], nodes[b][0])
        ends = [d for _, d in (nodes[a], nodes[b]) if d is not None]
        end = min(ends) if ends else None
        if (end is not None and end <= start) or draw(st.integers(0, 5)) == 0:
            commissioned = draw(st.integers(1945, 1980))
            decommissioned = commissioned  # an empty lifetime: never active, never checked
        else:
            commissioned = draw(st.integers(start, (end or 1976) - 1))
            later = st.integers(commissioned, end or 1980)
            decommissioned = draw(later if end is not None else st.none() | later)
        edge_rows.append([
            f"e{j}" + draw(_ODD_TEXT.map(str.rstrip)),
            node_rows[a][0],
            node_rows[b][0],
            draw(st.sampled_from((120, 220, 400, 750))),
            commissioned,
            "" if decommissioned is None else decommissioned,
            draw(st.sampled_from(_TRUE + _FALSE)),
        ])
    return _csv(NODES_HEADER, node_rows), _csv(EDGES_HEADER, edge_rows)


@settings(max_examples=300, deadline=None)
@given(valid_log_csv())
def test_canonical_csv_round_trips_any_valid_log(sources):
    log = parse_log(*sources)
    canonical = to_csv(log)
    reparsed = parse_log(*canonical)
    assert reparsed == log
    assert not reparsed.merges  # merged circuits never overlap again
    assert to_csv(reparsed) == canonical


_STRAY = {"quote": '"', "space": " ", "bom": "\ufeff", "cr": "\r"}


def _mutate(text: str, rng: random.Random) -> str:
    """One random edit: drop or duplicate a character or a line, swap two fields
    of a line, add a stray quote, space, byte-order mark or carriage return, or truncate."""
    op = rng.choice(("drop_char", "dup_char", "drop_line", "dup_line", "swap_fields", "truncate", *_STRAY))
    at = rng.randrange(len(text) + 1)
    if op == "drop_char":
        return text[:at] + text[at + 1 :]
    if op == "dup_char":
        return text[:at] + text[at : at + 1] + text[at:]
    if op in _STRAY:
        return text[:at] + _STRAY[op] + text[at:]
    if op == "truncate":
        return text[:at]
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if op == "drop_line":
        del lines[i]
    elif op == "dup_line":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].rstrip("\n").split(",")
        x, y = rng.randrange(len(fields)), rng.randrange(len(fields))
        fields[x], fields[y] = fields[y], fields[x]
        lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def mutation_corpus(nodes_csv: str, edges_csv: str, cases: int = 400) -> list[tuple[str, str]]:
    """Seeded mutants of a log's CSV text: 1 to 3 edits to one of the two files."""
    corpus = []
    for seed in range(cases):
        rng = random.Random(seed)
        pair = [nodes_csv, edges_csv]
        side = seed % 2
        for _ in range(rng.randint(1, 3)):
            if pair[side]:
                pair[side] = _mutate(pair[side], rng)
        corpus.append((pair[0], pair[1]))
    return corpus


def test_mutated_fixture_parses_or_fails_with_one_error_line(capsys, tmp_path, fixture_csv_paths):
    outcomes = {"parsed": 0, "nodes": 0, "edges": 0}
    failing = []
    fixture = (path.read_text(encoding="utf-8") for path in fixture_csv_paths)
    for nodes_csv, edges_csv in mutation_corpus(*fixture):
        try:
            parse_log(nodes_csv, edges_csv)
        except GridLogError as exc:
            message = str(exc)
            assert "\n" not in message, message
            outcomes[message.split(" ", 1)[0].rstrip(":")] += 1
            failing.append((nodes_csv, edges_csv, message))
        else:
            outcomes["parsed"] += 1
    assert min(outcomes.values()) >= 20, outcomes  # the corpus reaches both files and both outcomes
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    for nodes_csv, edges_csv, message in failing[:8]:
        nodes_path.write_text(nodes_csv, encoding="utf-8")
        edges_path.write_text(edges_csv, encoding="utf-8")
        argv = ["--nodes", str(nodes_path), "--edges", str(edges_path), "--from", "1950", "--to", "1952"]
        code = main(["timeseries", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


def _outcome(parse, nodes_source, edges_source):
    """The canonical CSV and the merges of a parsed log, or the text of its GridLogError."""
    try:
        log = parse(nodes_source, edges_source)
    except GridLogError as exc:
        return str(exc)
    return to_csv(log), log.merges


@pytest.mark.parametrize("source", ["fixture", "churn-400 seed 1", "churn-400 seed 2"])
def test_one_pass_parse_equals_the_reference_on_mutants(fixture_csv_paths, source):
    if source == "fixture":
        texts = [path.read_text(encoding="utf-8") for path in fixture_csv_paths]
    else:
        texts = churn_csv(int(source[-1]))
    outcomes = Counter()
    for nodes_csv, edges_csv in mutation_corpus(*texts):
        expected = _outcome(reference_parse_log, nodes_csv, edges_csv)
        assert _outcome(parse_log, nodes_csv, edges_csv) == expected, (nodes_csv, edges_csv)
        outcomes["error" if isinstance(expected, str) else "parsed"] += 1
    assert min(outcomes["error"], outcomes["parsed"]) >= 20, outcomes


@settings(max_examples=200, deadline=None)
@given(valid_log_csv(), st.randoms(use_true_random=False))
def test_one_pass_parse_equals_the_reference_on_mutated_generated_logs(sources, rng):
    pair = list(sources)
    side = rng.randrange(2)
    for _ in range(rng.randint(0, 3)):
        if pair[side]:
            pair[side] = _mutate(pair[side], rng)
    assert _outcome(parse_log, *pair) == _outcome(reference_parse_log, *pair)


# Rows on which more than one check fails, or that only look wrong: the
# first check in the fixed order names the error, or the row parses.
_A_B = ["A,A,plant,1950,,true", "B,B,plant,1950,,true"]
_ODD_ROWS = [
    (["A,A,windmill,19x0,,maybe"], []),
    (["A,A,plant, 19x0 ,,true"], []),
    (["A,A,plant,1950, 19x0 ,true"], []),
    (["A,A,plant,1980,1970,maybe"], []),
    (["A,A,plant,1950,,TRUE ", " , ,", "B, B ,plant , 1950 , 1990 , False"], ["e1, A , B ,220,1960, 1980 , True"]),
    (["A,A,plant,1950,,true", "B,B,plant,1950,1990,true"], ["e1,A,B,220,1960,,true"]),
    (_A_B, ["e1,X,X,0,19x0,,maybe"]),
    (_A_B, ["e1,A,A,0,1950,,true"]),
    (_A_B, ["e1,A,B,0,19x0,,maybe"]),
    (_A_B, ["e1,A,B, 220 , 19x0 ,,true"]),
    (_A_B, ["e1,A,B,220,1960,1955,maybe"]),
    (_A_B, ["e1,A,B,220,1940,1940,true", "e2,A,B,220,1940,1940,true"]),
    (_A_B, ["e1,A,B,220,1940,,true"]),
    (_A_B, ["e1,A,B,220,1960,,true", "e2,A,B,220,1960,1970,true", "e3,B,A,400,1965,,false"]),
    (_A_B, ["e1,A,B,220,1950,1960,true", "e0,B,A,220,1960,1970,true", "e2,A,B,220,1955,1962,true"]),
    (_A_B, ["e1,A,B", "e1,A,B,220,1950,,true"]),
    (_A_B, ["e1,A,B,220,1950,,true", "e1,A,B"]),
    (_A_B, ["e1,A,B,220,1950,,true", ",,,,,,", "e1,A,B,220,1950,,true"]),
    (_A_B, ["e1,A,B,220,1950,,true", "e2,A,B,2\r20,1950,,true"]),
]


def test_text_and_files_of_the_same_bytes_parse_alike_on_mutants(tmp_path, fixture_csv_paths):
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    fixture = [path.read_text(encoding="utf-8") for path in fixture_csv_paths]
    carriage_return_errors = 0
    for nodes_csv, edges_csv in mutation_corpus(*fixture):
        nodes_path.write_bytes(nodes_csv.encode("utf-8"))
        edges_path.write_bytes(edges_csv.encode("utf-8"))
        outcome = _outcome(parse_log, nodes_csv, edges_csv)
        assert _outcome(load_log, nodes_path, edges_path) == outcome, (nodes_csv, edges_csv)
        carriage_return_errors += isinstance(outcome, str) and "\r" in nodes_csv + edges_csv
    assert carriage_return_errors >= 5


# A lone carriage return ends a row, in text as in a file: the rest of the
# line is a row of its own.
_LONE_CR = [
    (["A,A,pl\rant,1950,,true"], [], "nodes row 2: expected 6 fields, got 3"),
    (_A_B, ["e1,A,B,220,1950,,true", "e2,A,B,2\r20,1950,,true"], "edges row 3: expected 7 fields, got 4"),
    (["A,A,plant,1950,,true\rB,B,plant,1950,,true"], ["e1,A,B,220,1950,,true"], None),
    (['A,"A\rA",plant,1950,,true'], [], None),
]


@pytest.mark.parametrize("node_rows, edge_rows, message", _LONE_CR)
def test_a_lone_carriage_return_gives_one_error_line_from_text_and_files(
    capsys, tmp_path, node_rows, edge_rows, message
):
    nodes_csv, edges_csv = log_text(node_rows, edge_rows)
    outcome = _outcome(parse_log, nodes_csv, edges_csv)
    assert outcome == _outcome(reference_parse_log, nodes_csv, edges_csv)
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    nodes_path.write_bytes(nodes_csv.encode("utf-8"))
    edges_path.write_bytes(edges_csv.encode("utf-8"))
    code = main(["snapshot", "--nodes", str(nodes_path), "--edges", str(edges_path), "--year", "1960"])
    captured = capsys.readouterr()
    if message is None:
        assert not isinstance(outcome, str) and code == 0
    else:
        assert outcome == message
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("node_rows,edge_rows", _ODD_ROWS)
def test_one_pass_parse_equals_the_reference_on_odd_rows(node_rows, edge_rows):
    sources = log_text(node_rows, edge_rows)
    assert _outcome(parse_log, *sources) == _outcome(reference_parse_log, *sources)


def test_one_pass_parse_equals_the_reference_on_bom_nodes_and_crlf_edges(tmp_path, fixture_csv_paths):
    nodes_path, edges_path = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    for nodes_csv, edges_csv in ([p.read_text(encoding="utf-8") for p in fixture_csv_paths], churn_csv(1)):
        nodes_path.write_bytes(b"\xef\xbb\xbf" + nodes_csv.encode())
        edges_path.write_bytes(edges_csv.replace("\n", "\r\n").encode())
        with open(nodes_path, newline="", encoding="utf-8") as nodes_file:
            with open(edges_path, newline="", encoding="utf-8") as edges_file:
                expected = reference_parse_log(nodes_file, edges_file)
        log = load_log(nodes_path, edges_path)
        assert (to_csv(log), log.merges) == (to_csv(expected), expected.merges)


def test_log_equality_and_hash_ignore_merges(fixture_log):
    log = fixture_log
    plain = log._replace(merges=())
    assert log.merges and plain.merges == ()
    assert log == plain and not log != plain and hash(log) == hash(plain)
    assert len({log, plain}) == 1
    fewer_edges = log._replace(edges=log.edges[1:])
    assert log != fewer_edges and not log == fewer_edges
    assert log != log._replace(nodes=log.nodes[1:])


def test_records_are_immutable_and_hashable(fixture_log):
    log = fixture_log
    for record, name in ((log.nodes[0], "id"), (log.edges[0], "voltage_kv"), (log.merges[0], "merged_ids")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        twin = copy.copy(record)
        assert twin is not record and hash(twin) == hash(record)


def test_invariant_active_edge_endpoints_subset():
    properties.check_active_edge_endpoints_subset()


def test_invariant_activity_monotone_under_extension():
    properties.check_activity_monotone_under_extension()


def test_invariant_parallel_merge_idempotent():
    properties.check_parallel_merge_idempotent()
