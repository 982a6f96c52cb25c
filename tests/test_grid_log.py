from __future__ import annotations

import pytest

from gridtopo.grid_log import (
    GridLogError,
    active_elements,
    line_count_series,
    load_log,
    parse_log,
    to_csv,
)

import properties

NODES_HEADER = "id,name,kind,commissioned,decommissioned,domestic\n"
EDGES_HEADER = "id,node_a,node_b,voltage_kv,commissioned,decommissioned,domestic\n"


def make_log(node_rows, edge_rows):
    return parse_log(
        NODES_HEADER + "".join(r + "\n" for r in node_rows),
        EDGES_HEADER + "".join(r + "\n" for r in edge_rows),
    )


def test_minimal_valid_log():
    log = make_log(
        ["A,Station A,substation,1950,,true", "B,Station B,substation,1950,,true"],
        ["e1,A,B,120,1950,,true"],
    )
    assert len(log.nodes) == 2
    assert len(log.edges) == 1
    assert log.year_range == (1950, 1950)


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
    assert active_elements(log, 1940) == (set(), set())


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
        assert active_elements(log, year) == expected, year


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


def test_invariant_active_edge_endpoints_subset():
    properties.check_active_edge_endpoints_subset()


def test_invariant_activity_monotone_under_extension():
    properties.check_activity_monotone_under_extension()


def test_invariant_parallel_merge_idempotent():
    properties.check_parallel_merge_idempotent()
