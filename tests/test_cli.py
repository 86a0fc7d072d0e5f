import hashlib
import json

import pytest

from gssamp import build_path, save_edge_list
from gssamp.cli import PRESETS, list_presets, main, run_experiment, validate_config
from gssamp.errors import InvalidParameterError


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


def _drop(key):
    def edit(cfg):
        del cfg[key]
    return edit


def _set(key, value):
    def edit(cfg):
        cfg[key] = value
    return edit


def _delta(index):
    return _set("signal", {"kind": "delta-spectrum", "index": index})


def _extras(**options):
    def edit(cfg):
        cfg["extras"].update(options)
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
        ],
    )
    def test_validate_and_run_report_config_error(self, preset, edit, match, tmp_path, capsys):
        cfg = PRESETS[preset]()
        edit(cfg)
        assert any(match in e for e in validate_config(cfg)), validate_config(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
            code, out, err = run_cli(argv, capsys)
            assert code == 1 and out == ""
            assert "config error" in err and match in err

    @pytest.mark.parametrize(
        "signal, fitting, match",
        [
            ({"kind": "delta-spectrum", "index": 10}, {"index": 9},
             "signal.index 10 out of range for graph size 10"),
            ({"kind": "bandlimited-random", "cutoff": 20}, {"cutoff": 10},
             "signal.cutoff 20 exceeds graph size 10"),
        ],
        ids=["delta-index", "cutoff"],
    )
    def test_signal_beyond_edge_list_graph(self, signal, fitting, match, tmp_path, capsys):
        # the vertex count is unknown until the edge list is read
        edges = tmp_path / "edges.csv"
        save_edge_list(build_path(10), edges)
        cfg = {
            "name": "signal-edge-list",
            "kind": "downsample",
            "graph": {"edge_list": str(edges)},
            "reduction": "polarity",
            "rate": 2,
            "signal": signal,
            "operators": ["vertex"],
            "seed": 0,
        }
        assert validate_config(cfg) == []
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, _, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert match in err
        cfg["signal"].update(fitting)
        p.write_text(json.dumps(cfg))
        code, _, _ = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
        assert code == 0


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_non_finite_edge_weight_is_data_error(weight, tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(f"# src,dst,weight\n0,1,1.0\n1,2,{weight}\n2,3,1.0\n")
    cfg = dict(PRESETS["minnesota-energy"](), graph={"edge_list": str(edges)})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run_cli(["run", str(p), "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and out == ""
    assert "non-finite weight on line 3" in err
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

    def test_repeated_eigenvalue_scalars(self, tmp_path):
        m = run_experiment(PRESETS["repeated-eigenvalues"](), tmp_path)
        s = m["scalars"]
        assert s["ordered_fold_energy"] < 1e-12
        assert s["permuted_fold_energy"] > 0.25 * s["permuted_total_energy"]


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


@pytest.mark.parametrize("preset", sorted(PRESET_OUTPUTS))
def test_preset_artifact_names_and_scalar_keys(preset, tmp_path):
    files, scalars = PRESET_OUTPUTS[preset]
    manifest = run_experiment(PRESETS[preset](), tmp_path)
    assert sorted(manifest["files"]) == files
    assert sorted(manifest["scalars"]) == scalars
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + ["manifest.json"])
