import contextlib
import copy
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gssamp import build_community, build_complete, build_path, cli, save_edge_list
from gssamp.cli import PRESETS, list_presets, main, run_experiment, validate_config
from gssamp.errors import InvalidParameterError
from gssamp.sampling import OPERATORS

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestListAndValidate:
    def test_list_presets(self, capsys):
        code, out, _ = run_cli(["list-presets"], capsys)
        assert code == 0
        names = out.split()
        assert set(names) == set(PRESETS)
        assert names == sorted(names)

    def test_validate_preset_ok(self, capsys):
        code, out, _ = run_cli(["validate", "path-downsample"], capsys)
        assert code == 0
        assert out.strip() == "ok"

    def test_validate_unknown_preset(self, capsys):
        code, _, err = run_cli(["validate", "no-such-preset"], capsys)
        assert code == 1
        assert "config error" in err

    def test_validate_bad_config_file(self, tmp_path, capsys):
        bad = dict(PRESETS["path-downsample"]())
        bad["signal"] = {"kind": "nonsense"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, _, err = run_cli(["validate", str(p)], capsys)
        assert code == 1
        assert "config error" in err

    def test_validate_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run_cli(["validate", str(p)], capsys)
        assert code == 1

    def test_validate_reads_the_edge_list(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        cfg = dict(PRESETS["minnesota-energy"](), graph={"edge_list": missing})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
            code, out, err = run_cli(argv, capsys)
            assert code == 3 and out == ""
            assert err.startswith("I/O error") and "missing.csv" in err
        assert not (tmp_path / "out").exists()

    def test_validate_collects_errors(self):
        errors = validate_config({"kind": "nonsense"})
        assert errors

    def test_every_preset_validates(self):
        for name in list_presets():
            cfg = PRESETS[name]()
            if name == "minnesota-energy":
                continue  # needs an external edge list
            assert validate_config(cfg) == [], name

    def test_presets_return_fresh_copies(self):
        cfg = PRESETS["path-downsample"]()
        cfg["graph"]["params"]["n"] = 4
        assert PRESETS["path-downsample"]()["graph"]["params"]["n"] == 100

    @pytest.mark.parametrize(
        "preset, operators",
        [
            ("path-downsample", ["frac-index", "spectrum"]),
            ("community-fractional", ["vertex"]),
            ("path-upsample", ["frac-index-folded"]),
            ("pyramid-nla", ["index"]),
        ],
    )
    def test_operator_outside_kind_rejected(self, preset, operators, tmp_path, capsys):
        cfg = PRESETS[preset]()
        cfg["operators"] = operators
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, _, err = run_cli(["validate", str(p)], capsys)
        assert code == 1
        assert "config error" in err
        with pytest.raises(InvalidParameterError, match="does not apply to kind"):
            run_experiment(cfg, tmp_path / "out")


def test_readme_kind_table_matches_kinds():
    # one row per kind: its keys, signal kinds and operators, each name in backticks
    text = README.read_text()
    table = text[text.index("| kind | keys"):].split("\n\n")[0].splitlines()[2:]
    rows = {}
    for row in table:
        kind, *cells = [re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:-1]]
        rows[kind[0]] = tuple(map(tuple, cells))
    assert list(rows) == list(cli._KINDS)
    for kind, (signals, keys, direction) in cli._KINDS.items():
        assert rows[kind] == (keys, signals, OPERATORS.get(direction, ())), kind


def _drop(key):
    def edit(cfg):
        del cfg[key]
    return edit


def _set(key, value):
    def edit(cfg):
        cfg[key] = value
    return edit


def _whole(value):
    """An edit that replaces the whole config with ``value``."""
    return lambda cfg: value


def _delta(index):
    return _set("signal", {"kind": "delta-spectrum", "index": index})


def _extras(**options):
    def edit(cfg):
        cfg["extras"].update(options)
    return edit


def _params(key="graph", **params):
    def edit(cfg):
        cfg[key]["params"].update(params)
    return edit


def _bands(bands):
    """The cluster-energy preset on a path graph, with a cluster-band signal of ``bands``."""
    def edit(cfg):
        cfg.update(graph={"generator": "path", "params": {"n": 16}},
                   signal={"kind": "cluster-band", "bands": bands})
    return edit


def _reduced(generator, rate, **params):
    """A ``generator`` graph downsampled at ``rate``, with a signal any size can hold."""
    def edit(cfg):
        cfg.update(graph={"generator": generator, "params": params}, rate=rate)
        cfg["signal"] = {"kind": "delta-spectrum", "index": 0}
    return edit


class TestIncompleteConfig:
    """Configs that once validated and then crashed ``run`` with a traceback."""

    @pytest.mark.parametrize(
        "preset, edit, match",
        [
            ("path-upsample", _drop("graph1"), "graph1"),
            ("community-fractional", _drop("graph1"), "graph1"),
            ("path-upsample", _set("graph1", {"params": {"n": 100}}), "graph1 needs"),
            ("path-downsample", _drop("operators"), "non-empty operators"),
            ("path-upsample", _set("operators", []), "non-empty operators"),
            ("comet-fractional", _drop("operators"), "non-empty operators"),
            ("path-downsample", _set("operators", "vertex"), "must be a list"),
            ("path-downsample", _delta(100), "signal.index 100 out of range"),
            ("path-downsample", _delta(-1), "signal.index must be"),
            ("path-downsample", _delta("3"), "signal.index must be"),
            ("path-downsample", _set("signal", "x"), "signal must be an object"),
            ("pyramid-nla", _extras(levels="3"), "extras.levels must be"),
            ("pyramid-nla", _extras(levels=True), "extras.levels must be"),
            ("pyramid-nla", _extras(levels=0), "extras.levels must be"),
            ("pyramid-nla", _set("extras", []), "extras must be an object"),
            ("pyramid-nla", _extras(fractions=[1.5]), "extras.fractions must be"),
            ("pyramid-nla", _extras(fractions=[]), "extras.fractions must be"),
            ("pyramid-nla", _extras(fractions="0.2"), "extras.fractions must be"),
            ("repeated-eigenvalues", _drop("reduction"), "needs reduction"),
            ("repeated-eigenvalues", _set("reduction", {"keep_first": "x"}),
             "reduction.keep_first must be"),
            ("repeated-eigenvalues", _set("reduction", {"keep_first": 100}),
             "reduction.keep_first 100 must be below graph size 100"),
            ("path-downsample", _set("reduction", {"keep_first": 2.5}),
             "reduction.keep_first must be"),
            ("aliasing-path", _set("signal", {"kind": "spectral-decay"}),
             "signal.alpha must be a finite number"),
            ("aliasing-path", _set("signal", {"kind": "spectral-decay", "alpha": "2"}),
             "signal.alpha must be a finite number"),
            # a bool is not an integer
            ("path-downsample", _delta(True), "signal.index must be"),
            ("path-downsample", _delta(False), "signal.index must be"),
            ("path-downsample", _set("signal", {"kind": "bandlimited-random", "cutoff": True}),
             "signal.cutoff must be"),
            # graph specs and seed
            ("path-downsample", _set("graph", {"generator": "path", "params": [1]}),
             "graph.params must be an object"),
            ("path-downsample", _set("kind", ["x"]), "kind must be one of"),
            ("path-downsample", _set("graph", {"generator": ["x"]}), "unknown generator"),
            ("path-downsample", _params(n="100"), "graph.params.n must be an integer"),
            ("path-downsample", _params(n=100.0), "graph.params.n must be an integer"),
            ("path-downsample", _params(n=True), "graph.params.n must be an integer"),
            ("path-downsample", _params(size=100), "graph.params do not fit generator 'path'"),
            ("grid-downsample", _set("graph", {"generator": "grid", "params": {"rows": 16}}),
             "graph.params do not fit generator 'grid'"),
            ("community-fractional", _params(p_in=float("nan")),
             "graph.params.p_in must be a finite number"),
            ("pyramid-nla", _params(seed=-1), "graph.params.seed must be an integer"),
            ("path-downsample", _set("graph", {"generator": "path", "edge_list": "x.csv"}),
             "graph needs exactly one of"),
            ("path-downsample", _set("graph", {"edge_list": "x.csv", "coordinates": 7}),
             "graph.coordinates must be a path"),
            ("path-downsample", _whole(["path-downsample"]), "config must be a JSON object"),
            ("path-downsample", _set("seed", "x"), "seed must be an integer"),
            ("path-downsample", _drop("seed"), "seed must be an integer"),
            ("path-downsample", _set("seed", None), "seed must be an integer"),
            ("path-downsample", _set("seed", -1), "seed must be an integer"),
            # the sizes of the two graphs
            ("path-upsample", _set("rate", 3), "graph1 size 100 is not rate 3 times graph size 50"),
            ("community-fractional", _params("graph1", n=300),
             "graph1 size 300 exceeds graph size 256"),
            # signal kinds per experiment kind, and reduction names
            ("repeated-eigenvalues", _set("signal", {"kind": "constant"}),
             "signal kind 'constant' does not apply to kind 'repeated-eigenvalues'"),
            ("path-downsample", _set("signal", {"kind": "cluster-band", "bands": [[0, 1], [2, 3]]}),
             "signal kind 'cluster-band' does not apply to kind 'downsample'"),
            ("path-downsample", _set("reduction", "foo"), "reduction must be one of"),
            # a band no spectrum can hold was once refused only by run
            ("minnesota-energy", _bands([[0.5, 0.1], [2.0, 3.0]]),
             "signal.bands must be two finite [lo, hi] pairs with 0 <= lo <= hi"),
            ("minnesota-energy", _bands([[0.0, 1.0], [-1.0, 3.0]]),
             "signal.bands must be two finite [lo, hi] pairs with 0 <= lo <= hi"),
            ("minnesota-energy", _bands([[0.0, 1.0]]),
             "signal.bands must be two finite [lo, hi] pairs with 0 <= lo <= hi"),
            ("path-downsample", _set("reduction", ["generator"]), "reduction must be one of"),
            # index-structured reductions stride only path, ring and grid
            # graphs, and keep n / rate vertices: the library's own errors
            ("grid-downsample", _set("rate", 2),
             "reduction 'generator': grid selection needs a square rate"),
            ("grid-downsample", _params(rows=12, cols=15),
             "reduction 'generator' keeps 48 vertices, not n / rate = 45"),
            ("path-downsample",
             _set("graph", {"generator": "random_sensor", "params": {"n": 100, "seed": 1}}),
             "reduction 'generator': no index-structured selection for structure 'sensor'"),
            ("random-regular-downsample", _set("reduction", "every_other"),
             "reduction 'every_other': no index-structured selection for structure 'regular'"),
            ("path-downsample", _set("reduction", {"keep_first": 10}),
             "reduction {'keep_first': 10} keeps 10 vertices, not n / rate = 50"),
            # the generator must be able to build the reduced graph
            ("path-downsample", _reduced("ring", 2, n=4),
             "reduction 'generator': ring graph's n must be an integer >= 3"),
            ("path-downsample", _reduced("ring", 3, n=6),
             "reduction 'generator': ring graph's n must be an integer >= 3"),
            ("path-downsample", _reduced("path", 2, n=2),
             "reduction 'generator': path graph's n must be an integer >= 2"),
            ("path-downsample", _reduced("grid", 4, rows=2, cols=2),
             "reduction 'generator': grid needs at least two vertices"),
            # a key the kind does not read was once silently ignored
            ("pyramid-nla", _set("reduction", "every_other"),
             "key 'reduction' does not apply to kind 'pyramid-nla'"),
            ("community-fractional", _set("rate", 3),
             "key 'rate' does not apply to kind 'fractional'"),
            ("path-upsample", _set("reduction", "polarity"),
             "key 'reduction' does not apply to kind 'upsample'"),
            ("path-downsample", _set("extras", {"levels": 2}),
             "key 'extras' does not apply to kind 'downsample'"),
            ("repeated-eigenvalues", _set("operators", []),
             "key 'operators' does not apply to kind 'repeated-eigenvalues'"),
            ("pyramid-nla", _extras(fraction=[0.2]),
             "key 'extras.fraction' does not apply to kind 'pyramid-nla'"),
            # ... and so was a key of a signal, graph spec or reduction object
            ("path-downsample", _set("signal", {"kind": "bandlimited-random", "cutoff": 25,
                                                "bogus": 5}),
             "key 'signal.bogus' does not apply to signal kind 'bandlimited-random'"),
            ("path-downsample", _set("signal", {"kind": "constant", "cutoff": 5}),
             "key 'signal.cutoff' does not apply to signal kind 'constant'"),
            ("path-downsample", _set("graph", {"generator": "path", "params": {"n": 100},
                                               "coordinates": 7}),
             "key 'graph.coordinates' does not apply to a generator graph"),
            ("path-downsample", _set("graph", {"edge_list": "x.csv", "params": {"n": 100}}),
             "key 'graph.params' does not apply to an edge-list graph"),
            ("path-upsample", _set("graph1", {"generator": "path", "params": {"n": 100},
                                              "seed": 1}),
             "key 'graph1.seed' does not apply to a generator graph"),
            ("path-downsample", _set("reduction", {"keep_first": 50, "junk": 1}),
             "key 'reduction.junk' does not apply to a keep_first reduction"),
            # manifest.json records the config, so no key may hold NaN or inf
            ("path-downsample", _set("name", float("nan")), "config must be strict JSON"),
            ("path-downsample", _set("signal", {"kind": "constant", "cutoff": float("inf")}),
             "config must be strict JSON"),
            # every pyramid level halves an even vertex count and leaves >= 2
            ("pyramid-nla", _params(n=100),
             "extras.levels 3 halves graph size 100 unevenly or below 2"),
            ("pyramid-nla", _extras(levels=9),
             "extras.levels 9 halves graph size 128 unevenly or below 2"),
        ],
    )
    def test_validate_and_run_report_config_error(
        self, preset, edit, match, tmp_path, capsys, monkeypatch
    ):
        def eigendecompose(*args, **kwargs):
            raise AssertionError("a refused config reached eigendecompose")

        monkeypatch.setattr(cli, "eigendecompose", eigendecompose)
        cfg = PRESETS[preset]()
        cfg = edit(cfg) or cfg  # an edit changes the config in place or replaces it
        assert any(match in e for e in validate_config(cfg)), validate_config(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1 and out == ""
            assert "config error" in err and match in err
        assert not (tmp_path / "out").exists()


_DOWNSAMPLE = {"reduction": "polarity", "rate": 2, "operators": ["vertex"]}


@pytest.mark.parametrize(
    "kind, edges, extra, bad, fitting, match",
    [
        ("downsample", 10, _DOWNSAMPLE,
         {"signal": {"kind": "delta-spectrum", "index": 10}},
         {"signal": {"kind": "delta-spectrum", "index": 9}},
         "signal.index 10 out of range for graph size 10"),
        ("downsample", 10, _DOWNSAMPLE,
         {"signal": {"kind": "bandlimited-random", "cutoff": 20}},
         {"signal": {"kind": "bandlimited-random", "cutoff": 10}},
         "signal.cutoff 20 exceeds graph size 10"),
        # a complete graph with cutoff 500 once ran as if the cutoff were 12
        ("repeated-eigenvalues", 12, {"reduction": {"keep_first": 7}},
         {"signal": {"kind": "bandlimited-random", "cutoff": 500}},
         {"signal": {"kind": "bandlimited-random", "cutoff": 12}},
         "signal.cutoff 500 exceeds graph size 12"),
        ("repeated-eigenvalues", 12, {"signal": {"kind": "bandlimited-random", "cutoff": 6}},
         {"reduction": {"keep_first": 20}}, {"reduction": {"keep_first": 11}},
         "reduction.keep_first 20 must be below graph size 12"),
        ("upsample", 5, {"operators": ["index"], "signal": {"kind": "constant"}},
         {"rate": 3, "graph1": {"generator": "path", "params": {"n": 10}}},
         {"rate": 2, "graph1": {"generator": "path", "params": {"n": 10}}},
         "graph1 size 10 is not rate 3 times graph size 5"),
        ("fractional", 10, {"operators": ["frac-index"], "signal": {"kind": "constant"}},
         {"graph1": {"generator": "path", "params": {"n": 12}}},
         {"graph1": {"generator": "path", "params": {"n": 8}}},
         "graph1 size 12 exceeds graph size 10"),
        ("pyramid-nla", 20, {"signal": {"kind": "constant"}},
         {"extras": {"levels": 3}}, {"extras": {"levels": 2}},
         "extras.levels 3 halves graph size 20 unevenly or below 2"),
        ("downsample", 9, dict(_DOWNSAMPLE, signal={"kind": "constant"}),
         {"rate": 2}, {"rate": 3}, "rate 2 does not divide graph size 9"),
    ],
    ids=["delta-index", "downsample-cutoff", "cutoff", "keep-first", "upsample", "fractional",
         "pyramid-levels", "downsample-rate"],
)
def test_size_rules_checked_on_built_graphs(
    kind, edges, extra, bad, fitting, match, tmp_path, capsys
):
    # the vertex count is known only once the edge list is read, by
    # validate and run alike
    path = tmp_path / "edges.csv"
    build = build_complete if kind == "repeated-eigenvalues" else build_path
    save_edge_list(build(edges), path)
    cfg = {"name": "edge-list", "kind": kind, "graph": {"edge_list": str(path)}, "seed": 0}
    cfg.update(extra, **bad)
    assert validate_config(cfg) == [match]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == f"config error: {match}\n"
    assert not (tmp_path / "out").exists()
    cfg.update(fitting)
    assert validate_config(cfg) == []
    p.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(p)], capsys)[:2] == (0, "ok\n")
    code, _, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err


# each of these is refused before it touches memory: numpy raises MemoryError
# past the address space (7.1 PiB of path indices), ValueError past its array
# size or dimension limit and OverflowError for an index past int64; the edge
# constructor raises MemoryError for an edge list whose dense n x n block
# (80 PB and more) exceeds physical memory
@pytest.mark.parametrize(
    "graph, size",
    [
        ("path", 10**15),
        ("edge_list", 10**8),
        ("edge_list", 5 * 10**9),
        ("edge_list", 10**20),
        ("complete", 10**10),
        ("complete", 10**20),
    ],
)
def test_graph_too_large_to_allocate_is_config_error(graph, size, tmp_path, capsys):
    if graph == "edge_list":
        edges = tmp_path / "edges.csv"
        edges.write_text(f"0,1,1.0\n1,{size},1.0\n")
        cfg = dict(PRESETS["minnesota-energy"](), graph={"edge_list": str(edges)})
    else:
        cfg = PRESETS["path-downsample" if graph == "path" else "repeated-eigenvalues"]()
        cfg["graph"]["params"]["n"] = size
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("config error: graph is too large to allocate")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_seed_option(tmp_path, capsys):
    cfg = PRESETS["path-downsample"]()
    del cfg["seed"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out_dir = str(tmp_path / "out")
    code, _, _ = run_cli(["run", str(p), "--out", out_dir, "--seed", "3"], capsys)
    assert code == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["seed"] == 3
    code, _, err = run_cli(["run", "path-downsample", "--out", out_dir, "--seed", "-1"], capsys)
    assert code == 1 and "seed must be an integer >= 0" in err


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_non_finite_edge_weight_is_data_error(weight, tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"# src,dst,weight\n0,1,1.0\n1,2,{weight}\n2,3,1.0\n")
    cfg = dict(PRESETS["minnesota-energy"](), graph={"edge_list": str(edges)})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and out == ""
    # the loader's own error, not relabelled by the too-large-to-allocate guard
    assert err == "config error: non-finite weight on line 3\n"
    assert "Traceback" not in err


def test_disconnected_graph_is_data_error(tmp_path, capsys):
    # a polarity keep set leaves a whole component in the eliminated block
    edges = tmp_path / "edges.csv"
    edges.write_text("0,1,1.0\n1,2,1.0\n2,3,1.0\n4,5,1.0\n5,6,1.0\n6,7,1.0\n")
    cfg = dict(
        PRESETS["random-regular-downsample"](),
        graph={"edge_list": str(edges)},
        signal={"kind": "bandlimited-random", "cutoff": 3},
    )
    assert validate_config(cfg) == []
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and out == ""
    assert "config error: graph is disconnected (2 components)" in err


@pytest.fixture(scope="module")
def community_edges(tmp_path_factory):
    """``build_community(256, 2, seed=0)`` as an edge list; its eigenvalues reach about 57."""
    path = tmp_path_factory.mktemp("community") / "edges.csv"
    save_edge_list(build_community(256, 2, seed=0), path)
    return str(path)


@pytest.mark.parametrize(
    "edges, bands, match",
    [
        (None, [[0.0, 3.0], [40.0, 60.0]], "band [40.0, 60.0] out of range"),
        # the minnesota-energy preset's bands
        (None, [[0.06, 0.08], [3.5, 4.0]], "band [0.06, 0.08] contains no eigenvalue"),
        # two paths: the Kron reduction to the target graph refuses them before any band
        ("0,1,1.0\n1,2,1.0\n2,3,1.0\n4,5,1.0\n5,6,1.0\n6,7,1.0\n", [[0.0, 1.0], [1.0, 2.0]],
         "graph is disconnected (2 components)"),
    ],
    ids=["above-lambda-max", "no-eigenvalue", "disconnected"],
)
def test_spectrum_dependent_refusals_show_only_at_run(edges, bands, match, community_edges,
                                                      tmp_path, capsys):
    # validate cannot see the spectrum, so it passes these configs; run refuses each
    # with one config error line and leaves no output directory
    path = community_edges  # where the row gives no edge list of its own
    if edges is not None:
        path = tmp_path / "edges.csv"
        path.write_text(edges)
    cfg = dict(PRESETS["minnesota-energy"](), graph={"edge_list": str(path)},
               signal={"kind": "cluster-band", "bands": bands})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(p)], capsys) == (0, "ok\n", "")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["run", str(p), "--out", str(out_dir)], capsys)
    assert (code, out, err) == (1, "", f"config error: {match}\n")
    assert not out_dir.exists()


class TestRun:
    def test_run_writes_manifest_and_files(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(["run", "path-downsample", "--out", str(out_dir)], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["files"]
        for name, digest in manifest["files"].items():
            path = out_dir / name
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_run_config_file(self, tmp_path, capsys):
        cfg = PRESETS["path-downsample"]()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(["run", str(p), "--out", str(out_dir)], capsys)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["kind"] == cfg["kind"]

    def test_run_deterministic(self, tmp_path):
        m1 = run_experiment(PRESETS["path-downsample"](), tmp_path / "a")
        m2 = run_experiment(PRESETS["path-downsample"](), tmp_path / "b")
        assert m1["files"] == m2["files"]
        assert m1["scalars"] == m2["scalars"]
        for name in m1["files"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "minnesota-energy", "--out", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert "config error" in err

    def test_rerun_into_same_directory(self, tmp_path):
        # a stale artifact longer than the fresh one must leave no tail
        first = run_experiment(PRESETS["path-downsample"](), tmp_path)
        (tmp_path / "vertex_signal.csv").write_text("garbage\n" * 10000)
        second = run_experiment(PRESETS["path-downsample"](), tmp_path)
        assert second == first
        assert json.loads((tmp_path / "manifest.json").read_text()) == first
        for name, digest in second["files"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_csv_headers(self, tmp_path):
        run_experiment(PRESETS["path-downsample"](), tmp_path)
        for csv in tmp_path.glob("*.csv"):
            first = csv.read_text().splitlines()[0]
            assert first.startswith("# ")

    @pytest.mark.parametrize(
        "preset",
        ["repeated-eigenvalues", "community-fractional", "aliasing-path"],
    )
    def test_other_presets_run(self, preset, tmp_path, capsys):
        code, _, _ = run_cli(["run", preset, "--out", str(tmp_path / preset)], capsys)
        assert code == 0

    def test_cluster_energy_on_odd_size_graph(self, tmp_path, capsys):
        # the alias band of an odd n once overran its n1 slots with a traceback
        cfg = {
            "name": "odd-cluster-energy",
            "kind": "cluster-energy",
            "graph": {"generator": "path", "params": {"n": 41}},
            "signal": {"kind": "constant"},
            "seed": 0,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(["run", str(p), "--out", str(out_dir)], capsys)
        assert code == 0, err
        scalars = json.loads((out_dir / "manifest.json").read_text())["scalars"]
        assert len(scalars) == 5 and all(math.isfinite(v) for v in scalars.values())

    def test_repeated_eigenvalue_scalars(self, tmp_path):
        m = run_experiment(PRESETS["repeated-eigenvalues"](), tmp_path)
        s = m["scalars"]
        assert s["ordered_fold_energy"] < 1e-12
        assert s["permuted_fold_energy"] > 0.25 * s["permuted_total_energy"]

    @pytest.mark.parametrize("preset, sizes", [
        ("aliasing-path", [100, 50]),
        ("comet-fractional", [32, 24]),
        ("community-fractional", [256, 192]),
        ("grid-downsample", [256, 64]),
        ("path-downsample", [100, 50]),
        ("path-upsample", [50, 100]),
        ("pyramid-nla", [128]),  # the level chain decomposes in the pyramid module
        ("random-regular-downsample", [100, 50]),
        # the complete graph once, its reordered basis reusing it, then the reduced graph
        ("repeated-eigenvalues", [100, 52]),
    ])
    def test_preset_decomposes_each_graph_once(self, preset, sizes, monkeypatch, tmp_path):
        # graph, then the one target graph the kind resamples onto
        got = []
        original = cli.eigendecompose

        def counting(lap, *args, **kwargs):
            got.append(lap.n)
            return original(lap, *args, **kwargs)

        monkeypatch.setattr(cli, "eigendecompose", counting)
        run_experiment(PRESETS[preset](), tmp_path)
        assert got == sizes


# Sorted artifact file names and scalar keys of every self-contained preset.
# Fractional stems use underscores and record no energy; integer-rate stems
# keep the operator's hyphens and record one energy per operator.
PRESET_OUTPUTS = {
    "path-downsample": (
        [
            "index-folded_signal.csv", "index-folded_spectrum.csv", "index_signal.csv",
            "index_spectrum.csv", "original_signal.csv", "original_spectrum.csv",
            "spectrum-folded_signal.csv", "spectrum-folded_spectrum.csv",
            "spectrum_signal.csv", "spectrum_spectrum.csv", "vertex_signal.csv",
            "vertex_spectrum.csv",
        ],
        [
            "index-folded_energy", "index_energy", "spectrum-folded_energy",
            "spectrum_energy", "vertex_energy",
        ],
    ),
    "path-upsample": (
        [
            "index-folded_signal.csv", "index-folded_spectrum.csv", "index_signal.csv",
            "index_spectrum.csv", "original_signal.csv", "original_spectrum.csv",
            "spectrum-folded_signal.csv", "spectrum-folded_spectrum.csv",
            "spectrum_signal.csv", "spectrum_spectrum.csv", "vertex_signal.csv",
            "vertex_spectrum.csv",
        ],
        [
            "index-folded_energy", "index_energy", "spectrum-folded_energy",
            "spectrum_energy", "vertex_energy",
        ],
    ),
    "grid-downsample": (
        [
            "index-folded_signal.csv", "index-folded_spectrum.csv", "index_signal.csv",
            "index_spectrum.csv", "original_signal.csv", "original_spectrum.csv",
            "spectrum-folded_signal.csv", "spectrum-folded_spectrum.csv",
            "spectrum_signal.csv", "spectrum_spectrum.csv", "vertex_signal.csv",
            "vertex_spectrum.csv",
        ],
        [
            "index-folded_energy", "index_energy", "spectrum-folded_energy",
            "spectrum_energy", "vertex_energy",
        ],
    ),
    "random-regular-downsample": (
        [
            "index-folded_signal.csv", "index-folded_spectrum.csv",
            "original_signal.csv", "original_spectrum.csv",
            "spectrum-folded_signal.csv", "spectrum-folded_spectrum.csv",
            "vertex_signal.csv", "vertex_spectrum.csv",
        ],
        [
            "index-folded_energy", "spectrum-folded_energy", "vertex_energy",
        ],
    ),
    "aliasing-path": (
        [
            "index-folded_signal.csv", "index-folded_spectrum.csv", "index_signal.csv",
            "index_spectrum.csv", "original_signal.csv", "original_spectrum.csv",
            "spectrum-folded_signal.csv", "spectrum-folded_spectrum.csv",
            "spectrum_signal.csv", "spectrum_spectrum.csv",
        ],
        [
            "index-folded_energy", "index_energy", "spectrum-folded_energy",
            "spectrum_energy",
        ],
    ),
    "repeated-eigenvalues": (
        [
            "ordered_down_spectrum.csv", "permuted_down_spectrum.csv",
        ],
        [
            "ordered_fold_energy", "ordered_total_energy", "permuted_fold_energy",
            "permuted_total_energy",
        ],
    ),
    "community-fractional": (
        [
            "frac_index_folded_signal.csv", "frac_index_folded_spectrum.csv",
            "frac_spectrum_folded_signal.csv", "frac_spectrum_folded_spectrum.csv",
            "original_signal.csv", "original_spectrum.csv",
        ],
        [],
    ),
    "comet-fractional": (
        [
            "frac_index_folded_signal.csv", "frac_index_folded_spectrum.csv",
            "frac_spectrum_folded_signal.csv", "frac_spectrum_folded_spectrum.csv",
            "original_signal.csv", "original_spectrum.csv",
        ],
        [],
    ),
    "pyramid-nla": (
        [
            "nla_index.csv", "nla_spectrum.csv", "nla_vertex.csv",
            "original_signal.csv",
        ],
        [
            "index_error_at_0.2", "spectrum_error_at_0.2", "vertex_error_at_0.2",
        ],
    ),
}


def test_preset_outputs_table_covers_self_contained_presets():
    assert sorted(PRESET_OUTPUTS) == [p for p in list_presets() if p != "minnesota-energy"]


def _strict_json(text):
    """Parse JSON that holds no NaN, Infinity or -Infinity."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("preset", sorted(PRESET_OUTPUTS))
def test_preset_artifact_names_and_scalar_keys(preset, tmp_path):
    files, scalars = PRESET_OUTPUTS[preset]
    manifest = run_experiment(PRESETS[preset](), tmp_path)
    assert sorted(manifest["files"]) == files
    assert sorted(manifest["scalars"]) == scalars
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + ["manifest.json"])
    assert _strict_json((tmp_path / "manifest.json").read_text()) == manifest


def test_nla_without_budget_0_2_records_no_error_at_0_2(tmp_path, capsys):
    # the 0.2 scalars were once NaN, written to manifest.json as bare NaN
    cfg = PRESETS["pyramid-nla"]()
    cfg["extras"]["fractions"] = [0, 1]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 0, err
    manifest = _strict_json((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["scalars"] == {}
    header = (tmp_path / "out" / "nla_index.csv").read_text().splitlines()[0]
    assert header == "# budget_over_n,error"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_scalar_is_numeric_error(tmp_path, capsys):
    # an energy that overflows was once written to manifest.json as Infinity
    run_experiment(PRESETS["aliasing-path"](), tmp_path / "out")
    cfg = PRESETS["aliasing-path"]()
    cfg["signal"]["alpha"] = -100
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 2 and out == ""
    assert err.endswith(
        "numeric error: non-finite scalars: index-folded_energy, index_energy, "
        "spectrum-folded_energy, spectrum_energy\n"
    )
    # nor is the earlier run's manifest left to vouch for the new files, and
    # the failed run removed the ten CSVs it wrote over the earlier ones
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
def test_failed_run_leaves_nothing_behind(existing, tmp_path):
    # the run wrote all ten CSVs before its energies overflowed, and numpy's
    # overflow warning came before the one error line
    cfg = PRESETS["aliasing-path"]()
    cfg["signal"]["alpha"] = -100
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    if existing:
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         "from gssamp.cli import main; sys.exit(main())", "run", str(p), "--out", str(out_dir)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "numeric error: non-finite scalars: index-folded_energy, index_energy, "
        "spectrum-folded_energy, spectrum_energy\n"
    )
    if existing:
        assert sorted(f.name for f in out_dir.iterdir()) == ["notes.txt"]
    else:
        assert not out_dir.exists()


# ---------------------------------------------------------------------------
# fuzzed configs

# Edits that shrink each preset to graphs of at most 16 vertices, so one
# fuzzed config validates and runs in milliseconds.
_SMALL = {
    "path-downsample": {"graph": {"params": {"n": 16}}, "signal": {"cutoff": 4}},
    "path-upsample": {
        "graph": {"params": {"n": 8}}, "graph1": {"params": {"n": 16}}, "signal": {"cutoff": 4},
    },
    "grid-downsample": {"graph": {"params": {"rows": 4, "cols": 4}}, "signal": {"cutoff": 4}},
    "random-regular-downsample": {
        "graph": {"params": {"n": 16, "degree": 4}}, "signal": {"cutoff": 4},
    },
    "aliasing-path": {"graph": {"params": {"n": 16}}},
    "repeated-eigenvalues": {
        "graph": {"params": {"n": 16}}, "reduction": {"keep_first": 9}, "signal": {"cutoff": 8},
    },
    "community-fractional": {
        "graph": {"params": {"n": 16, "k_communities": 2}},
        "graph1": {"params": {"n": 12, "k_communities": 2}},
        "signal": {"cutoff": 4},
    },
    "comet-fractional": {
        "graph": {"params": {"n": 16, "center_degree": 6}},
        "graph1": {"params": {"n": 12, "center_degree": 4}},
        "signal": {"cutoff": 4},
    },
    "minnesota-energy": {"signal": {"bands": [[0.0, 0.5], [2.0, 3.5]]}},
    "pyramid-nla": {
        "graph": {"params": {"n": 16, "k_nearest": 4}},
        "signal": {"cutoff": 4},
        "extras": {"levels": 2},
    },
}

_SIZE_PARAMS = ("n", "rows", "cols")

_VALUES = st.sampled_from([
    None, True, False, float("nan"), float("inf"), -float("inf"), "x", "", [], {}, [1],
    {"x": 1}, 0, 1, 2, 3, -1, 15, 17, 64, 65, 2**31, 10**30, 0.5, -2.5, 1e300,
    "downsample", "upsample", "fractional", "repeated-eigenvalues", "cluster-energy",
    "pyramid-nla", "generator", "every_other", "polarity", "vertex", "index-folded",
    "frac-spectrum", "bandlimited-random", "delta-spectrum", "constant", "spectral-decay",
    "cluster-band", "path", "grid", "complete", "random_sensor",
])


def _merge(cfg, edits):
    for key, value in edits.items():
        if isinstance(value, dict):
            _merge(cfg[key], value)
        else:
            cfg[key] = value


def _slots(node):
    """Every (container, key) pair in a config tree, the root's keys included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _fuzzed_config(draw, edge_list):
    name = draw(st.sampled_from(sorted(_SMALL)))
    cfg = PRESETS[name]()
    _merge(cfg, copy.deepcopy(_SMALL[name]))
    if name == "minnesota-energy" or draw(st.booleans()):
        cfg["graph"] = {"edge_list": edge_list}  # its size is known once it is read
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(cfg))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["drop", "set", "set", "wrap"]))
        if action == "drop":
            del node[key]
            continue
        # a copy: a later mutation must not edit the shared sample values
        value = copy.deepcopy(draw(_VALUES)) if action == "set" else [node[key]]
        if key in _SIZE_PARAMS and type(value) is int and value > 64:
            value = 64  # a graph-size param never asks for a huge matrix
        node[key] = value
    return cfg


@pytest.fixture(scope="module")
def edge_list(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "edges.csv"
    save_edge_list(build_path(12), path)
    return str(path)


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_config_runs_or_is_refused(edge_list, data):
    cfg = data.draw(_fuzzed_config(edge_list))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        validated = _main_quietly(["validate", path])
        ran = _main_quietly(["run", path, "--out", f"{tmp}/out"])
    for code, _, err in (validated, ran):
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
    assert ran[0] != 0 or validated[1] == "ok\n", (validated, ran)


class _Reached(Exception):
    """Raised in place of the first eigendecomposition."""


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_is_run_up_to_first_eigendecomposition(edge_list, data):
    # validate prints ok exactly when run gets past the config pass, and
    # otherwise exits with run's code and message
    cfg = data.draw(_fuzzed_config(edge_list))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "eigendecompose", side_effect=_Reached):
        path = f"{tmp}/cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        validated = _main_quietly(["validate", path])
        try:
            ran = _main_quietly(["run", path, "--out", f"{tmp}/out"])
        except _Reached:
            ran = (0, "ok\n", "")
    assert validated == ran
