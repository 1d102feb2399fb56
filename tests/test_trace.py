"""The sweep trace: what ``sweep`` writes, and what ``estimate`` takes from it."""

import json

import pytest

from dynoscale import harness
from dynoscale.cli import main


GOOD = {
    "system": {"kind": "shift", "symbols": 2, "depth": 5, "metric": "exp"},
    "quantities": ["separated"],
    "grid": {"start": 0.5, "ratio": 0.6, "count": 3},
    "horizons": [1, 2],
}
LATTICE_SHIFT = {"kind": "shift", "symbols": 2, "depth": 4, "metric": "product",
                 "alphabet": {"type": "unit_lattice", "points": 3}}
# at budget 3 the horizon-2 separated count at eps 0.314 stays heuristic [14, 16],
# and so do two spanning counts at each horizon
SMALL_BUDGET = {"system": LATTICE_SHIFT, "quantities": ["separated", "spanning"],
                "grid": {"start": 0.45, "ratio": 0.7, "count": 3},
                "horizons": [1, 2], "budget": 3}
NO_SPANNING = dict(GOOD, system={"kind": "doubling", "grid": 32},
                   quantities=["separated", "diameter_cover"])


def _run(command, config, out, capsys):
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(config))
    try:
        code = main([command, "--config", str(path), "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 0 and err == "", err
    return out


def _estimates(config, out, capsys):
    return (_run("estimate", config, out, capsys) / "estimates.csv").read_bytes()


def _trace_lines(out):
    first, *cells = (out / "trace.jsonl").read_text().splitlines()
    return json.loads(first), [json.loads(line) for line in cells]


def _write_trace(out, fingerprint, cells, tail=""):
    lines = [json.dumps(fingerprint)] + [json.dumps(cell) for cell in cells]
    (out / "trace.jsonl").write_text("\n".join(lines) + "\n" + tail)


def _shifted(cells):
    """The cells with every count one higher: still valid, but wrong."""
    return [dict(cell, lower=cell["lower"] + 1, upper=cell["upper"] + 1) for cell in cells]


def _spy_horizons(monkeypatch):
    """The horizon lists every d_n walk in ``harness`` is asked for."""
    asked = []
    real = harness.bowen_graphs

    def spy(system, horizons, cutoffs):
        asked.append(list(horizons))
        return real(system, horizons, cutoffs)

    monkeypatch.setattr(harness, "bowen_graphs", spy)
    return asked


def test_trace_holds_the_fingerprint_then_one_line_per_cell(tmp_path, capsys):
    config = dict(GOOD, quantities=["separated", "spanning"])
    out = _run("sweep", config, tmp_path / "o", capsys)
    first, cells = _trace_lines(out)
    assert first == {"dynoscale": harness.__version__, "system": GOOD["system"]}
    assert len(cells) == 2 * 2 * 3
    assert {tuple(cell) for cell in cells} == {
        ("quantity", "horizon", "eps", "lower", "upper", "mode", "method")}
    # eps round-trips the grid's own floats
    scales = harness.parse_config(config).grid.scales()
    assert [cell["eps"] for cell in cells[:3]] == scales


@pytest.mark.parametrize("config", [GOOD, SMALL_BUDGET, NO_SPANNING],
                         ids=["good", "small-budget", "no-spanning"])
def test_estimates_are_byte_identical_with_and_without_a_trace(config, tmp_path, capsys):
    swept = _run("sweep", config, tmp_path / "swept", capsys)
    assert _estimates(config, swept, capsys) == _estimates(config, tmp_path / "fresh", capsys)


def test_heuristic_cells_are_counted_again(tmp_path, monkeypatch, capsys):
    swept = _run("sweep", SMALL_BUDGET, tmp_path / "swept", capsys)
    _, cells = _trace_lines(swept)
    assert [(c["quantity"], c["horizon"]) for c in cells if c["mode"] != "exact"] == [
        ("separated", 2), ("spanning", 1), ("spanning", 1), ("spanning", 2), ("spanning", 2)]
    asked = _spy_horizons(monkeypatch)
    _estimates(SMALL_BUDGET, swept, capsys)
    assert asked == [[1], [2]]  # ball covers at d_1 again, then separated sets at d_2


def test_ball_covers_without_spanning_rows_are_counted(tmp_path, monkeypatch, capsys):
    swept = _run("sweep", NO_SPANNING, tmp_path / "swept", capsys)
    asked = _spy_horizons(monkeypatch)
    _estimates(NO_SPANNING, swept, capsys)
    assert asked == [[1], []]


def test_estimate_after_a_separated_and_spanning_sweep_builds_no_dn(
        tmp_path, monkeypatch, capsys):
    config = dict(GOOD, quantities=["separated", "spanning"])
    swept = _run("sweep", config, tmp_path / "swept", capsys)
    asked = _spy_horizons(monkeypatch)
    _estimates(config, swept, capsys)
    assert asked == [[], []]


def test_a_matching_trace_is_read(tmp_path, capsys):
    # the counterpart of the stale cases below: these wrong counts are taken
    swept = _run("sweep", GOOD, tmp_path / "swept", capsys)
    first, cells = _trace_lines(swept)
    _write_trace(swept, first, _shifted(cells))
    assert _estimates(GOOD, swept, capsys) != _estimates(GOOD, tmp_path / "fresh", capsys)


def _colliding(out, capsys):
    # both descriptors name shift3x4-product; the symbols-3 space is the other one
    three = {"kind": "shift", "symbols": 3, "depth": 4, "metric": "product"}
    _run("sweep", dict(SMALL_BUDGET, system=three), out, capsys)


def _other_version(out, capsys):
    _run("sweep", GOOD, out, capsys)
    first, cells = _trace_lines(out)
    _write_trace(out, dict(first, dynoscale="0.0.0"), _shifted(cells))


def _truncated(out, capsys):
    _run("sweep", GOOD, out, capsys)
    first, cells = _trace_lines(out)
    _write_trace(out, first, _shifted(cells))
    text = (out / "trace.jsonl").read_text()
    (out / "trace.jsonl").write_text(text[:-20])


def _non_json_line(out, capsys):
    _run("sweep", GOOD, out, capsys)
    first, cells = _trace_lines(out)
    _write_trace(out, first, _shifted(cells), tail="not json\n")


def _empty(out, capsys):
    out.mkdir()
    (out / "trace.jsonl").write_text("")


def _directory(out, capsys):
    (out / "trace.jsonl").mkdir(parents=True)


@pytest.mark.parametrize("make, config", [
    (_colliding, SMALL_BUDGET),
    (_other_version, GOOD), (_truncated, GOOD), (_non_json_line, GOOD),
    (_empty, GOOD), (_directory, GOOD),
], ids=["colliding-descriptor", "other-version", "truncated", "non-json-line",
        "empty", "directory"])
def test_a_stale_trace_is_ignored(make, config, tmp_path, capsys):
    stale = tmp_path / "stale"
    make(stale, capsys)
    assert _estimates(config, stale, capsys) == _estimates(config, tmp_path / "fresh", capsys)

