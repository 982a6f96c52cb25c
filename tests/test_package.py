"""The package loads lazily, imports without a cycle, and its records are picklable NamedTuples."""

from __future__ import annotations

import ast
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gridtopo
from gridtopo import (
    build_ccdf,
    build_snapshot,
    compare_fits,
    compute_timeseries,
    connected_components,
    correlate_with_line_count,
    degree_stats,
    detect_communities,
)
from gridtopo.generators import GeneratorSpec

# the names the package exported when it imported every module up front, less
# the sigma-crossing scan, which moved to the test oracles, and MetricTimeSeries,
# whose records compute_timeseries now returns as a plain tuple; modularity
# moved from metrics to communities, its only caller
OLD_EXPORTS = {
    "communities": ["CommunityAssignment", "detect_communities", "modularity"],
    "degree_fit": ["Ccdf", "FitComparison", "FitResult", "build_ccdf", "compare_fits", "fit_model"],
    "evolution": [
        "CorrelationReport", "compute_metrics_record", "compute_timeseries",
        "correlate_with_line_count", "pearson",
    ],
    "generators": ["GeneratorSpec", "barabasi_albert", "erdos_renyi", "generate", "watts_strogatz"],
    "graphs": ["ComponentPartition", "GraphSnapshot", "build_snapshot", "connected_components", "to_edgelist"],
    "grid_log": [
        "EdgeRecord", "GridLogError", "NodeRecord", "TemporalGridLog", "active_elements",
        "line_count_series", "load_log", "parse_log",
    ],
    "metrics": [
        "METRICS_CSV_HEADER", "DegreeStats", "MetricsRecord", "average_path_length",
        "clustering_coefficient", "degree_stats", "diameter", "random_baselines", "small_world_sigma",
    ],
}


def loaded_modules(code: str) -> list[str]:
    """Modules that running ``code`` in a new interpreter adds to ``sys.modules``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "print(*loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_modules("import gridtopo\nassert gridtopo.__version__")
    assert "gridtopo" in loaded
    assert [m for m in loaded if m.startswith("gridtopo.")] == []


@pytest.mark.parametrize(
    "argv, left_out",
    [
        (["fit", "--year", "1980", "--model", "both"],
         ["gridtopo.communities", "gridtopo.evolution", "gridtopo.generators", "dataclasses"]),
        (["snapshot", "--year", "1970"],
         ["gridtopo.degree_fit", "gridtopo.evolution", "gridtopo.generators", "dataclasses", "json"]),
        (["generate", "--kind", "erdos_renyi", "--n", "10", "--p", "0.5"],
         ["gridtopo.communities", "gridtopo.degree_fit", "gridtopo.evolution", "gridtopo.metrics", "dataclasses"]),
        (["correlate", "--metric", "sigma", "--voltages", "220,400", "--from", "1950", "--to", "1980"],
         ["gridtopo.communities", "gridtopo.degree_fit", "gridtopo.generators"]),
        (["communities", "--year", "1975"],
         ["gridtopo.degree_fit", "gridtopo.evolution", "gridtopo.generators", "gridtopo.metrics"]),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(fixture_csv_paths, argv, left_out):
    if argv[0] != "generate":
        nodes, edges = fixture_csv_paths
        argv = [argv[0], "--nodes", str(nodes), "--edges", str(edges), *argv[1:]]
    # what `python -m gridtopo ARGV` runs, with the modules it loaded printed after
    loaded = loaded_modules(
        "import contextlib, io, runpy\n"
        f"sys.argv = ['gridtopo', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('gridtopo', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
    )
    assert "gridtopo.cli" in loaded
    assert sorted(set(left_out) & set(loaded)) == []


def package_imports() -> dict[str, set[str]]:
    """Each module of the package, with the package modules it imports anywhere in its body."""
    source = Path(gridtopo.__file__).parent
    modules = {path.stem for path in source.glob("*.py")}
    imports = {}
    for module in modules:
        tree = ast.parse((source / f"{module}.py").read_text(encoding="utf-8"))
        imports[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    imports[module].update(alias.name for alias in node.names)
                else:
                    imports[module].add(node.module.split(".")[0])
        imports[module] &= modules
    return imports


def test_the_package_has_no_import_cycle():
    imports = package_imports()
    assert "communities" in imports["metrics"]  # the walk sees an import inside a function
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        assert module not in path, "import cycle: " + " -> ".join([*path[path.index(module):], module])
        if module not in done:
            for imported in sorted(imports[module]):
                visit(imported, [*path, module])
            done.add(module)

    for module in sorted(imports):
        visit(module, [])


def test_every_name_the_package_exported_still_resolves():
    for module_name, names in OLD_EXPORTS.items():
        module = importlib.import_module(f"gridtopo.{module_name}")
        for name in names:
            assert getattr(gridtopo, name) is getattr(module, name), name
    assert sorted(name for names in OLD_EXPORTS.values() for name in names) == gridtopo.__all__
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gridtopo.no_such_name  # noqa: B018


def every_record(fixture_log):
    """One instance of each record type, from a run on the fixture."""
    snapshot = build_snapshot(fixture_log, 1980)
    fits = compare_fits(build_ccdf(degree_stats(snapshot).histogram))
    return [
        fixture_log,
        fixture_log.nodes[0],
        fixture_log.edges[0],
        fixture_log.merges[0],
        connected_components(snapshot),
        degree_stats(snapshot),
        compute_timeseries(fixture_log, range(1960, 1981))[-1],
        correlate_with_line_count(fixture_log, "sigma", [220, 400], False, range(1960, 1981)),
        detect_communities(snapshot, 7),
        build_ccdf(degree_stats(snapshot).histogram),
        fits,
        fits.power_law,
        fits.tail_residuals[0],
        GeneratorSpec("watts_strogatz", 10, p=0.1, k=4),
    ]


def test_every_record_survives_a_pickle_round_trip(fixture_log):
    records = every_record(fixture_log)
    assert len({type(record) for record in records}) == len(records) == 14
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and tuple(copy) == tuple(record)
        assert copy._asdict() == record._asdict()
    assert pickle.loads(pickle.dumps(fixture_log)).merges == fixture_log.merges


def test_records_index_iterate_and_equal_plain_tuples(fixture_log):
    for record in every_record(fixture_log):
        as_tuple = tuple(record)
        assert record == as_tuple and len(record) == len(record._fields)
        assert [record[i] for i in range(len(record))] == [getattr(record, f) for f in record._fields]
