"""Descriptors, configs, CLI exit codes, determinism contract."""

import ast
import contextlib
import csv
import io
import json
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dynoscale.cli import main
from dynoscale.errors import ConfigError
from dynoscale.harness import parse_config, run_sweep, load_config
from dynoscale.systems.descriptor import resolve_system
from dynoscale.systems.kolyada import KolyadaSnohaMap


GOOD = {
    "system": {"kind": "shift", "symbols": 2, "depth": 5, "metric": "exp"},
    "quantities": ["separated"],
    "grid": {"start": 0.5, "ratio": 0.6, "count": 3},
    "horizons": [1, 2],
}


def test_descriptor_kinds_resolve():
    assert resolve_system({"kind": "doubling", "grid": 16}).space.size == 16
    assert resolve_system({"kind": "unit_lattice", "points": 11}).space.size == 11
    assert resolve_system({"kind": "null_sequence", "k_max": 5}).space.size == 6
    tmap = resolve_system({"kind": "kolyada", "family": "F2", "k_max": 3,
                           "beta": 0.5})
    assert isinstance(tmap, KolyadaSnohaMap)
    prod = resolve_system({"kind": "product",
                           "a": {"kind": "doubling", "grid": 4},
                           "b": {"kind": "doubling", "grid": 5}})
    assert prod.space.size == 20


def test_descriptor_rejects_unknown_keys_with_path():
    with pytest.raises(ConfigError) as err:
        resolve_system({"kind": "doubling", "grids": 16})
    assert "system.grids" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve_system({"kind": "product", "a": {"kind": "nope"},
                        "b": {"kind": "doubling"}})
    assert "system.a.kind" in str(err.value)


def test_config_validation_paths():
    for mutation, path in [
        (lambda c: c.pop("grid"), "config.grid"),
        (lambda c: c.update(quantities=[]), "config.quantities"),
        (lambda c: c.update(quantities=["bogus"]), "config.quantities"),
        (lambda c: c.update(horizons=[0]), "config.horizons"),
        (lambda c: c.update(budget=-1), "config.budget"),
        (lambda c: c.update(extra=1), "config.extra"),
        (lambda c: c["grid"].update(ratio=2.0), "config.grid"),
    ]:
        cfg = json.loads(json.dumps(GOOD))
        mutation(cfg)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert path in str(err.value)


def test_json_syntax_error_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "system": {,}\n}')
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "line 2" in str(err.value)


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(GOOD)
    a = run_sweep(cfg, tmp_path / "a")
    b = run_sweep(cfg, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GOOD))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert main(["verify", "--suite", "power"]) == 0

    bad = dict(GOOD, quantities=[])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["sweep", "--config", str(bad_path), "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2


def test_ball_cover_sweep_writes_each_horizon(tmp_path):
    cfg = parse_config(dict(GOOD, quantities=["ball_cover"], horizons=[1, 2]))
    path = run_sweep(cfg, tmp_path)[0]
    rows = list(csv.DictReader(path.open()))
    assert [r["horizon"] for r in rows] == ["1"] * 3 + ["2"] * 3


def test_cli_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert "'oracle-equivalence'" in capsys.readouterr().err


def test_cli_quantize_and_estimate(tmp_path):
    qcfg = {
        "system": {"kind": "doubling", "grid": 16},
        "measure": {"atoms": [0, 5, 9], "weights": ["1/3", "1/3", "1/3"]},
        "grid": {"start": 0.4, "ratio": 0.5, "count": 3},
        "horizons": [1, 2],
    }
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(qcfg))
    assert main(["quantize", "--config", str(qpath), "--out", str(tmp_path)]) == 0
    out = (tmp_path / "quantization.csv").read_text().splitlines()
    assert out[0] == "eps,n,kind,Q,mode"
    assert len(out) == 7

    epath = tmp_path / "est.json"
    epath.write_text(json.dumps(GOOD))
    assert main(["estimate", "--config", str(epath), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "estimates.csv").exists()


def test_cli_oracle_instances(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    # separation is strict, so the two distance-1 pairs drop out at eps = 1
    inst.write_text(json.dumps({
        "kind": "separated", "eps": 1.0,
        "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    assert main(["oracle", "--instance", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2


QUANTIZE = {
    "system": {"kind": "doubling", "grid": 16},
    "measure": {"atoms": [0, 5, 9], "weights": ["1/3", "1/3", "1/3"]},
    "grid": {"start": 0.4, "ratio": 0.5, "count": 3},
}


def _exit_code(argv, capsys):
    """Exit code of the CLI and its stderr; a traceback fails the test."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_cli_quantize_grid_without_count_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(QUANTIZE))
    del cfg["grid"]["count"]
    path = tmp_path / "q.json"
    path.write_text(json.dumps(cfg))
    code, err = _exit_code(["quantize", "--config", str(path), "--out", str(tmp_path)],
                           capsys)
    assert code == 2 and "quantize.grid.count" in err


def test_cli_quantize_non_numeric_p_exits_2(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(dict(QUANTIZE, kind="wasserstein", p="abc")))
    code, err = _exit_code(["quantize", "--config", str(path), "--out", str(tmp_path)],
                           capsys)
    assert code == 2 and "quantize.p" in err


def test_cli_oracle_without_eps_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "separated", "matrix": [[0, 1], [1, 0]]}))
    code, err = _exit_code(["oracle", "--instance", str(inst)], capsys)
    assert code == 2 and "instance.eps" in err


@pytest.mark.parametrize("command", ["sweep", "estimate", "verify"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_nonpositive_budget_exits_2(command, budget, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(GOOD))
    args = [command, "--budget", budget]
    if command != "verify":
        args += ["--config", str(cfg_path), "--out", str(tmp_path / "o")]
    code, err = _exit_code(args, capsys)
    assert code == 2 and "--budget" in err
    assert not (tmp_path / "o").exists()


def test_cli_horizon_cap_zero_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        GOOD, system={"kind": "doubling", "grid": 16, "horizon_cap": 0})))
    code, err = _exit_code(["sweep", "--config", str(cfg_path),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 2 and "system.horizon_cap" in err


def test_cli_estimate_on_scales_closer_than_1e_15(tmp_path, capsys):
    # scales 4e-15 * 0.5**i lie within 1e-15 of each other; each horizon
    # must still meet exactly one bracket per scale
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        GOOD, system={"kind": "shift", "symbols": 2, "depth": 4, "metric": "exp"},
        grid={"start": 4e-15, "ratio": 0.5, "count": 4})))
    code, _ = _exit_code(["estimate", "--config", str(cfg_path),
                          "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    rows = (tmp_path / "o" / "estimates.csv").read_text().splitlines()
    assert sum(row.startswith("entropy-at-scale,") for row in rows) == 4


def test_python_m_dynoscale_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dynoscale
    env = dict(os.environ, PYTHONPATH=str(Path(dynoscale.__file__).parents[1]))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "separated", "eps": 1.0,
                                "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
    ok = subprocess.run([sys.executable, "-m", "dynoscale", "oracle",
                         "--instance", str(inst)], env=env, capture_output=True,
                        text=True)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["value"] == 2
    bad = subprocess.run([sys.executable, "-m", "dynoscale", "verify", "--budget", "0"],
                         env=env, capture_output=True, text=True)
    assert bad.returncode == 2 and "Traceback" not in bad.stderr


def test_shift_descriptor_keeps_an_explicit_horizon_cap(tmp_path):
    shift = {"kind": "shift", "depth": 5, "horizon_cap": 1}
    assert resolve_system(shift).horizon_cap == 1
    assert resolve_system({"kind": "shift", "depth": 1}).horizon_cap == 2
    with pytest.raises(ConfigError, match=r"config\.horizons: horizon 2 beyond cap 1"):
        run_sweep(parse_config(dict(GOOD, system=shift, horizons=[1, 2])), tmp_path)


def test_kolyada_f2_sweep_writes_its_csv(tmp_path):
    system = {"kind": "kolyada", "family": "F2", "k_max": 3, "beta": "1/3"}
    path = run_sweep(parse_config(dict(GOOD, system=system, horizons=[1])), tmp_path)[0]
    assert path.parent == tmp_path and len(path.read_text().splitlines()) == 4


@pytest.mark.parametrize("eps", [0, -1])
def test_cli_spanning_oracle_without_spanning_set_exits_2(eps, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "spanning", "eps": eps,
                                "matrix": [[0, 1], [1, 0]]}))
    code, err = _exit_code(["oracle", "--instance", str(inst)], capsys)
    assert code == 2 and "instance" in err


def _mutate(config, key_path, value):
    """A deep copy of ``config`` with the entry at ``key_path`` set to ``value``."""
    if not key_path:
        return value
    out = json.loads(json.dumps(config))
    parent = out
    for key in key_path[:-1]:
        parent = parent[key]
    parent[key_path[-1]] = value
    return out


W_QUANTIZE = dict(QUANTIZE, kind="wasserstein", p=2, horizons=[1, 2], budget=10000)
SHORT_SHIFT = {"kind": "shift", "depth": 4}  # horizon cap 4


@pytest.mark.parametrize("command, config, key_path, value, where", [
    ("sweep", GOOD, ("horizons",), [True], "config.horizons[0]"),
    ("sweep", GOOD, ("budget",), True, "config.budget"),
    ("sweep", GOOD, ("cache",), "no", "config.cache"),
    ("sweep", GOOD, ("grid", "count"), 2.7, "config.grid.count"),
    ("sweep", GOOD, ("grid", "offset"), "no", "config.grid.offset"),
    ("quantize", W_QUANTIZE, ("p",), 0, "quantize.p"),
    ("quantize", W_QUANTIZE, ("p",), float("nan"), "quantize.p"),
    ("quantize", QUANTIZE, ("measure", "weights"), ["1/3"], "quantize.measure"),
    ("quantize", QUANTIZE, ("measure", "atoms"), 3, "quantize.measure.atoms"),
    ("quantize", QUANTIZE, ("measure", "weights"), ["x"], "quantize.measure.weights[0]"),
    ("sweep", GOOD, ("grid",), {"start": 1e-320, "ratio": 0.001, "count": 3}, "config.grid"),
    ("sweep", dict(GOOD, system=SHORT_SHIFT), ("horizons",), [2, 9],
     "config.horizons: horizon 9 beyond cap 4"),
    ("estimate", dict(GOOD, system=SHORT_SHIFT), ("horizons",), [2, 9],
     "config.horizons: horizon 9 beyond cap 4"),
    ("quantize", dict(QUANTIZE, system=SHORT_SHIFT), ("horizons",), [2, 9],
     "quantize.horizons: horizon 9 beyond cap 4"),
    # rounds to [1e-323, 1e-323, 1e-323, 5e-324]: a scale repeats
    ("sweep", GOOD, ("grid",), {"start": 1e-323, "ratio": 0.9, "count": 4},
     "config.grid"),
    ("estimate", GOOD, ("grid",), {"start": 1e-323, "ratio": 0.9, "count": 4},
     "config.grid"),
    ("sweep", GOOD, ("seed",), 1, "config.seed"),
    # weights that miss 1 are refused, not renormalised
    ("quantize", QUANTIZE, ("measure",), {"atoms": [0, 1], "weights": [0.2, 0.3]},
     "quantize.measure: float weights sum to 0.5, not 1"),
    ("quantize", QUANTIZE, ("measure",), {"atoms": [0, 1], "weights": ["1/3", "1/3"]},
     "quantize.measure: weights sum to 2/3, not 1"),
])
def test_cli_malformed_value_exits_2_with_key_path(command, config, key_path, value,
                                                   where, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_mutate(config, key_path, value)))
    code, err = _exit_code([command, "--config", str(path), "--out", str(tmp_path / "o")],
                           capsys)
    assert code == 2 and where in err


FUZZ_VALUES = [None, True, False, 0, -1, 2.5, "x", "1/0", [], {}, [True],
               float("nan"), float("inf")]
FUZZ_INPUTS = [
    ("sweep", "--config", GOOD),
    ("quantize", "--config", W_QUANTIZE),
    ("oracle", "--instance", {"kind": "separated", "eps": 1.0,
                              "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}),
    ("oracle", "--instance", {"kind": "spanning", "eps": 1.5,
                              "matrix": [[0, 1], [1, 0]]}),
    ("oracle", "--instance", {"kind": "coupling", "cost": [[0, 1], [1, 0]],
                              "a": [0.5, 0.5], "b": [0.25, 0.75], "p": 1}),
    ("oracle", "--instance", {"kind": "partial_cover", "masks": [[True, False],
                                                                 [False, True]],
                              "weights": [0.5, 0.5], "target": 0.75}),
]


def _key_paths(value, prefix=()):
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _key_paths(item, prefix + (key,))


def _run_quiet(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.mark.parametrize("command, flag, config", FUZZ_INPUTS)
def test_cli_fuzz_inputs_are_valid(command, flag, config, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(config))
    extra = ["--out", str(tmp_path / "o")] if flag == "--config" else []
    assert _run_quiet([command, flag, str(path), *extra]) == (0, "")


@pytest.mark.parametrize("command, flag, config", FUZZ_INPUTS)
@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(data=st.data())
def test_cli_fuzz_one_mutated_key_exits_0_or_2(command, flag, config, data):
    key_path = data.draw(st.sampled_from(list(_key_paths(config))), label="key path")
    value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/in.json"
        with open(path, "w") as fh:
            json.dump(_mutate(config, key_path, value), fh)
        extra = ["--out", f"{tmp}/o"] if flag == "--config" else []
        code, err = _run_quiet([command, flag, path, *extra])
    assert code in (0, 2), err
    assert code == 0 or "error" in err


@pytest.mark.parametrize("command, config", [("sweep", GOOD), ("estimate", GOOD),
                                             ("quantize", QUANTIZE)])
def test_cli_out_naming_a_file_exits_2(command, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    taken = tmp_path / "taken"
    taken.write_text("")
    code, err = _exit_code([command, "--config", str(path), "--out", str(taken)], capsys)
    assert code == 2 and str(taken) in err and "Traceback" not in err


LADDER = {"kind": "kolyada", "family": "F1", "k_max": 3}


@pytest.mark.parametrize("system, where", [
    ({"kind": "product", "a": LADDER, "b": {"kind": "doubling", "grid": 4}}, "system.a"),
    ({"kind": "power", "base": LADDER, "exponent": 2}, "system.base"),
    ({"kind": "shift", "depth": 4, "metric": "exp",
      "alphabet": {"type": "discrete", "symbols": 2}}, "system"),
    ({"kind": "product", "a": {"kind": "doubling", "grid": 80},
      "b": {"kind": "doubling", "grid": 80}}, "system"),
])
def test_cli_system_it_cannot_build_exits_2_at_its_path(system, where, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(GOOD, system=system)))
    code, err = _exit_code(["sweep", "--config", str(path), "--out", str(tmp_path / "o")],
                           capsys)
    assert code == 2 and f"{where}: " in err


def test_kolyada_sweep_rejects_quantities_it_cannot_count(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(
        GOOD, system={"kind": "kolyada", "family": "F1", "k_max": 3},
        quantities=["separated", "spanning", "diameter_cover"])))
    code, err = _exit_code(["sweep", "--config", str(path), "--out", str(tmp_path / "o")],
                           capsys)
    assert code == 2 and "config.quantities[1]" in err
    assert not list((tmp_path / "o").glob("*.csv"))


@pytest.mark.parametrize("matrix", [[[0, 1], [2, 0]], [[0, -1], [-1, 0]], [[1, 1], [1, 1]],
                                    [[0, 1, 5], [1, 0, 1], [5, 1, 0]]])
def test_cli_oracle_rejects_a_matrix_that_is_not_a_metric(matrix, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "separated", "eps": 0.5, "matrix": matrix}))
    code, err = _exit_code(["oracle", "--instance", str(inst)], capsys)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("cost, p, where", [
    ([[0, -1], [1, 0]], 1.5, "instance.cost[0][1]"),
    ([[0, 1e200], [1e200, 0]], 2, "instance: cost**p overflows"),
    # 0.25**1000 is 0 in floats, so the unscaled reference would print 0
    ([[0, 0.25], [0.25, 0]], 1000, "instance: cost**p underflows"),
])
def test_cli_coupling_oracle_rejects_a_cost_it_cannot_price(cost, p, where, tmp_path,
                                                            capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "coupling", "cost": cost, "a": [0.5, 0.5],
                                "b": [0.5, 0.5], "p": p}))
    code, err = _exit_code(["oracle", "--instance", str(inst)], capsys)
    assert code == 2 and where in err


def test_cli_wasserstein_quantize_at_a_large_order_needs_every_atom(tmp_path):
    # any three sites serve two atoms 0.25 apart from one site, so one of them
    # is at least 0.125 away, past both scales
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "system": {"kind": "doubling", "grid": 64},
        "measure": {"atoms": [0, 16, 32, 48], "weights": ["1/4"] * 4},
        "kind": "wasserstein", "p": 1000,
        "grid": {"start": 0.1, "ratio": 0.5, "count": 2}}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "quantization.csv").open()))
    assert [(r["Q"], r["mode"]) for r in rows] == [("4", "exact")] * 2


def test_sweep_writes_its_csvs_and_trace_only(tmp_path):
    config = parse_config(dict(GOOD, quantities=["separated", "spanning"]))
    written = run_sweep(config, tmp_path / "net")
    assert sorted(written) == sorted((tmp_path / "net").iterdir())
    assert sorted(p.name for p in written) == [
        "sweep_shift2x5-exp_separated.csv", "sweep_shift2x5-exp_spanning.csv",
        "trace.jsonl"]
    # a ladder-map sweep writes no trace
    ladder = parse_config(dict(GOOD, system={"kind": "kolyada", "family": "F1",
                                             "k_max": 3}))
    written = run_sweep(ladder, tmp_path / "ladder")
    assert written == list((tmp_path / "ladder").iterdir())
    assert [p.name for p in written] == ["sweep_kolyada_F1_separated.csv"]


def test_cli_sweep_counts_and_writes_a_repeated_quantity_once(tmp_path, capsys):
    outputs = {}
    for name, quantities in (("once", ["separated", "spanning"]),
                             ("repeated", ["separated", "spanning", "separated"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(GOOD, quantities=quantities)))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        printed = capsys.readouterr().out.split()
        assert len(printed) == len(set(printed)) == 3
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert outputs["repeated"] == outputs["once"]


@pytest.mark.parametrize("atoms", [[0, 99], [0, -1]])
def test_cli_quantize_atom_outside_the_space_exits_2_at_its_index(atoms, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(dict(QUANTIZE, measure={"atoms": atoms,
                                                       "weights": ["1/2", "1/2"]})))
    code, err = _exit_code(["quantize", "--config", str(path), "--out", str(tmp_path)],
                           capsys)
    assert code == 2 and "quantize.measure.atoms[1]" in err


def test_cli_quantize_writes_each_horizon_once_in_order(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(dict(QUANTIZE, horizons=[3, 1, 2, 2])))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "quantization.csv").open()))
    assert [r["n"] for r in rows] == ["1"] * 3 + ["2"] * 3 + ["3"] * 3


def test_cli_verify_prints_why_each_check_is_inconclusive(capsys):
    # three nodes refute no W level and close no LP search
    assert main(["verify", "--suite", "domination", "--budget", "3"]) == 0
    summary, *rest = capsys.readouterr().out.splitlines()
    found = re.fullmatch(r"suite domination: (\d+) pass, 0 fail, (\d+) inconclusive", summary)
    assert found and int(found.group(2)) > 0
    assert len(rest) == int(found.group(2))
    assert all(line.startswith("INCONCLUSIVE domination: {") for line in rest)
    assert any("'support'" in line for line in rest) and any("'greedy'" in line for line in rest)


def test_cli_verify_negative_seed_exits_2(capsys):
    code, err = _exit_code(["verify", "--suite", "product", "--seed", "-1"], capsys)
    assert code == 2 and "--seed" in err


def test_cli_import_and_system_build_leave_scipy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dynoscale
    env = dict(os.environ, PYTHONPATH=str(Path(dynoscale.__file__).parents[1]))
    dense = {"kind": "shift", "symbols": 2, "depth": 12, "metric": "exp"}
    code = ("import sys\n"
            "import dynoscale.cli\n"
            "from dynoscale.systems.descriptor import resolve_system\n"
            f"resolve_system({dense!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_dense_sweep_and_estimate_leave_scipy_unloaded_and_rerun_identically(tmp_path):
    # the sweep-dense benchmark system: every cell closes without HiGHS
    import os
    import subprocess
    import sys
    from pathlib import Path

    import dynoscale
    env = dict(os.environ, PYTHONPATH=str(Path(dynoscale.__file__).parents[1]))
    config = tmp_path / "dense.json"
    config.write_text(json.dumps({
        "system": {"kind": "shift", "symbols": 2, "depth": 12, "metric": "exp"},
        "quantities": ["separated", "spanning"],
        "grid": {"start": 0.5, "ratio": 0.6, "count": 6}, "horizons": [1, 2, 3]}))
    runs = [tmp_path / "a", tmp_path / "b"]
    code = ("import sys\n"
            "from dynoscale.cli import main\n"
            f"for out in {[str(r) for r in runs]!r}:\n"
            "    for command in ('sweep', 'estimate'):\n"
            f"        assert main([command, '--config', {str(config)!r}, '--out', out]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('dynoscale')))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    # after the paths the CLI prints; np.unique's first call imports numpy.ma,
    # which the exp shift's codes and the discrete alphabet avoid
    assert run.stdout.splitlines()[-3:-1] == ["False", "[]"]
    # a sweep and an estimate load neither the verify, quantize and ladder-map
    # modules nor the cache and check helpers
    loaded = ast.literal_eval(run.stdout.splitlines()[-1])
    unused = {"dynoscale.verify", "dynoscale.oracle", "dynoscale.systems.kolyada",
              "dynoscale.systems.banach", "dynoscale.systems.probe",
              "dynoscale.metric_core.checks", "dynoscale.metric_core.cache"}
    assert "dynoscale.harness" in loaded
    assert not unused & set(loaded)
    assert not [m for m in loaded if m.startswith("dynoscale.measures")]
    bare = subprocess.run([sys.executable, "-c", "import sys, dynoscale\n"
                           "print(sorted(m for m in sys.modules if m.startswith('dynoscale')))"],
                          env=env, capture_output=True, text=True)
    assert bare.returncode == 0, bare.stderr
    assert bare.stdout.strip() == "['dynoscale']"
    first, second = ({p.name: p.read_bytes() for p in out.iterdir()} for out in runs)
    assert "estimates.csv" in first and "trace.jsonl" in first
    assert first == second


def test_cli_lp_quantize_at_budget_one_reports_the_exact_count(tmp_path):
    # mass 7/10 needs two balls of radius 0.3; the greedy must not stop on a
    # float sum just short of the target and report one
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "system": {"kind": "doubling", "grid": 16},
        "measure": {"atoms": [1, 3, 8, 10, 11, 12, 13],
                    "weights": ["1/5", "1/10", "1/10", "1/5", "1/10", "1/5", "1/10"]},
        "grid": {"start": 0.3, "ratio": 0.5, "count": 1, "offset": False},
        "horizons": [1], "kind": "lp", "budget": 1}))
    assert main(["quantize", "--config", str(path), "--out", str(tmp_path)]) == 0
    [row] = csv.DictReader((tmp_path / "quantization.csv").open())
    assert (row["eps"], row["kind"], row["Q"]) == ("0.3", "lp", "2")


def test_cli_estimate_on_a_ladder_map_writes_entropy_rows_then_mdim(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(GOOD, system=LADDER)))
    written = []
    for run in ("a", "b"):
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / run)]) == 0
        written.append((tmp_path / run / "estimates.csv").read_bytes())
    assert written[0] == written[1]
    rows = list(csv.DictReader(io.StringIO(written[0].decode())))
    assert [r["quantity"] for r in rows] == ["entropy-at-scale"] * 5 + ["mdim", "mdim-mo"]
    assert {r["system"] for r in rows} == {"F1"}


def test_estimate_leaves_out_a_box_dimension_it_cannot_fit(tmp_path, capsys):
    # one scale gives one ball-cover count, too few for a slope
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "system": {"kind": "doubling", "grid": 32}, "quantities": ["separated"],
        "grid": {"start": 0.5, "ratio": 0.6, "count": 1}, "horizons": [1, 2]}))
    code, err = _exit_code(["estimate", "--config", str(path), "--out", str(tmp_path / "o")],
                           capsys)
    assert code == 0, err
    rows = list(csv.DictReader((tmp_path / "o" / "estimates.csv").open()))
    assert rows and "box-dimension" not in {row["quantity"] for row in rows}


def test_every_cli_command_leaves_scipy_unloaded(tmp_path):
    import os
    import random
    import subprocess
    import sys
    from pathlib import Path

    import dynoscale
    env = dict(os.environ, PYTHONPATH=str(Path(dynoscale.__file__).parents[1]))
    # the seed-1 sweep-cover benchmark config: four spanning cells reach the search
    sweep = {"system": {"kind": "doubling", "grid": 128, "horizon_cap": 5},
             "quantities": ["separated", "spanning", "diameter_cover"],
             "grid": {"start": 0.4975 + 0.003 * random.Random(1).random(), "ratio": 0.6,
                      "count": 6},
             "horizons": [1, 2, 3, 4, 5]}
    oracles = [{"kind": kind, "eps": 1.5, "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
               for kind in ("separated", "spanning", "diameter_cover")] + [
        {"kind": "coupling", "cost": [[0, 1], [1, 0]], "a": [0.5, 0.5], "b": [0.25, 0.75]},
        {"kind": "partial_cover", "masks": [[True, False], [False, True]],
         "weights": [0.5, 0.5], "target": 0.75}]
    for name, config in [("sweep", sweep), ("lp", QUANTIZE), ("w", W_QUANTIZE),
                         *((f"oracle{i}", inst) for i, inst in enumerate(oracles))]:
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    out = str(tmp_path / "out")
    argvs = [["sweep", "--config", str(tmp_path / "sweep.json"), "--out", out],
             ["estimate", "--config", str(tmp_path / "sweep.json"), "--out", out],
             ["quantize", "--config", str(tmp_path / "lp.json"), "--out", out],
             ["quantize", "--config", str(tmp_path / "w.json"), "--out", out],
             ["verify", "--suite", "all"],
             *(["oracle", "--instance", str(tmp_path / f"oracle{i}.json")]
               for i in range(len(oracles)))]
    code = ("import sys\n"
            "from dynoscale.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    # np.unique's first call imports numpy.ma; space.distinct stands in for it
    assert run.stdout.splitlines()[-2:] == ["False", "[]"]
