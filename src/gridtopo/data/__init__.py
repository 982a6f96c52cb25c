"""Bundled demo dataset: a small fictional grid with a verified metrics table, kept as
plain files next to this module, so a zipped import of the package is not supported."""

from pathlib import Path


def _path(name: str) -> Path:
    return Path(__file__).with_name(name)


def fixture_paths() -> tuple[Path, Path]:
    """(nodes_csv, edges_csv) paths of the bundled demo log."""
    return _path("fixture_nodes.csv"), _path("fixture_edges.csv")


def expected_metrics_path() -> Path:
    """Path of the frozen expected-metrics table for the demo log."""
    return _path("fixture_expected_metrics.csv")
