"""Experiment runner: declarative configs, CSV artifacts, JSON manifest.

Commands::

    gssamp run <config.json | preset-name> --out DIR [--seed S]
    gssamp list-presets
    gssamp validate <config.json | preset-name>

Exit codes: 0 ok, 1 config error, 2 numeric error, 3 I/O error.

A config is a JSON object with keys:

    name      str, experiment label
    kind      "downsample" | "upsample" | "fractional" |
              "repeated-eigenvalues" | "cluster-energy" | "pyramid-nla"
    graph     {"generator": name, "params": {...}} or {"edge_list": path,
              "coordinates": path?}
    graph1    target graph, required for "upsample"/"fractional" (same form)
    reduction "generator" | "every_other" | "polarity" | {"keep_first": k},
              1 <= k < n; "repeated-eigenvalues" needs the last form
    rate      int sampling rate (down- or upsampling factor)
    signal    {"kind": "bandlimited-random", "cutoff": int} |
              {"kind": "delta-spectrum", "index": int} |
              {"kind": "constant"} |
              {"kind": "spectral-decay", "alpha": float} |
              {"kind": "cluster-band", "bands": [[lo,hi],[lo,hi]]}
    operators list of operator names, from ``sampling.OPERATORS``:
              downsample, upsample: vertex, index, index-folded, spectrum,
                spectrum-folded
              fractional: frac-index, frac-index-folded, frac-spectrum,
                frac-spectrum-folded
              these three kinds need at least one, other kinds take none;
                any other name is a config error (exit 1)
    seed      int
    extras    kind-specific options; "pyramid-nla" takes {"levels": int >= 1,
              "fractions": non-empty list of numbers in [0, 1]}

All outputs are CSV series plus manifest.json listing every file with its
sha256 checksum and the experiment's key scalars.
"""
from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import graphs as G
from .errors import GssampError, InvalidParameterError, NumericError
from .pyramid import FilterSpec, PyramidConfig, build_chain, nla_error_curve
from .reduction import (
    kron_reduce,
    make_cluster_band_signal,
    select_every_other,
    select_polarity,
    spectral_bisection,
)
from .sampling import (
    OPERATORS,
    SamplingContext,
    VertexCorrespondence,
    apply_operator,
    fractional_downsample,
)
from .spectral import eigendecompose, gft, igft

_GENERATORS = {
    "path": G.build_path,
    "ring": G.build_ring,
    "grid": G.build_grid,
    "complete": G.build_complete,
    "comet": G.build_comet,
    "community": G.build_community,
    "random_regular": G.build_random_regular,
    "random_sensor": G.build_random_sensor,
}

_DIRECTIONS = {"downsample": "down", "upsample": "up", "fractional": "frac"}
_KINDS = (*_DIRECTIONS, "repeated-eigenvalues", "cluster-energy", "pyramid-nla")


# ---------------------------------------------------------------------------
# presets

_PRESETS = (
    {
        "name": "path-downsample",
        "kind": "downsample",
        "graph": {"generator": "path", "params": {"n": 100}},
        "reduction": "generator",
        "rate": 2,
        "signal": {"kind": "bandlimited-random", "cutoff": 25},
        "operators": ["vertex", "index", "index-folded", "spectrum", "spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "path-upsample",
        "kind": "upsample",
        "graph": {"generator": "path", "params": {"n": 50}},
        "graph1": {"generator": "path", "params": {"n": 100}},
        "rate": 2,
        "signal": {"kind": "bandlimited-random", "cutoff": 12},
        "operators": ["vertex", "index", "index-folded", "spectrum", "spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "grid-downsample",
        "kind": "downsample",
        "graph": {"generator": "grid", "params": {"rows": 16, "cols": 16}},
        "reduction": "generator",
        "rate": 4,
        "signal": {"kind": "bandlimited-random", "cutoff": 16},
        "operators": ["vertex", "index", "index-folded", "spectrum", "spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "random-regular-downsample",
        "kind": "downsample",
        "graph": {"generator": "random_regular", "params": {"n": 100, "degree": 10, "seed": 1}},
        "reduction": "polarity",
        "rate": 2,
        "signal": {"kind": "bandlimited-random", "cutoff": 25},
        "operators": ["vertex", "index-folded", "spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "aliasing-path",
        "kind": "downsample",
        "graph": {"generator": "path", "params": {"n": 100}},
        "reduction": "generator",
        "rate": 2,
        "signal": {"kind": "spectral-decay", "alpha": 2.0},
        "operators": ["index", "index-folded", "spectrum", "spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "repeated-eigenvalues",
        "kind": "repeated-eigenvalues",
        "graph": {"generator": "complete", "params": {"n": 100}},
        "reduction": {"keep_first": 52},
        "signal": {"kind": "bandlimited-random", "cutoff": 50},
        "seed": 7,
    },
    {
        "name": "community-fractional",
        "kind": "fractional",
        "graph": {"generator": "community", "params": {"n": 256, "k_communities": 8, "seed": 3}},
        "graph1": {"generator": "community", "params": {"n": 192, "k_communities": 8, "seed": 4}},
        "signal": {"kind": "bandlimited-random", "cutoff": 24},
        "operators": ["frac-index-folded", "frac-spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "comet-fractional",
        "kind": "fractional",
        "graph": {"generator": "comet", "params": {"n": 32, "center_degree": 12}},
        "graph1": {"generator": "comet", "params": {"n": 24, "center_degree": 9}},
        "signal": {"kind": "bandlimited-random", "cutoff": 8},
        "operators": ["frac-index-folded", "frac-spectrum-folded"],
        "seed": 7,
    },
    {
        "name": "minnesota-energy",
        "kind": "cluster-energy",
        "graph": {"edge_list": None},  # user must supply a path
        "signal": {"kind": "cluster-band", "bands": [[0.06, 0.08], [3.5, 4.0]]},
        "seed": 7,
    },
    {
        "name": "pyramid-nla",
        "kind": "pyramid-nla",
        "graph": {"generator": "random_sensor", "params": {"n": 128, "k_nearest": 6, "seed": 2}},
        "signal": {"kind": "bandlimited-random", "cutoff": 10},
        "extras": {"levels": 3, "fractions": [0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0]},
        "seed": 7,
    },
)

# name -> zero-argument factory returning a fresh copy of the preset config
PRESETS = {p["name"]: functools.partial(copy.deepcopy, p) for p in _PRESETS}


def list_presets() -> list[str]:
    return sorted(PRESETS)


# ---------------------------------------------------------------------------
# config handling


def load_config(source: str) -> dict:
    """Resolve a preset name or a JSON file path into a config dict."""
    if source in PRESETS:
        return PRESETS[source]()
    path = Path(source)
    if not path.exists():
        raise InvalidParameterError(
            f"unknown preset or missing file {source!r}; presets: {', '.join(list_presets())}"
        )
    with open(path) as fh:
        return json.load(fh)


def _check_graph_spec(gspec, key: str, errors: list) -> int | None:
    """Append the errors of one graph spec; return its vertex count if known."""
    if not isinstance(gspec, dict):
        errors.append(f"{key} must be an object")
        return None
    n = None
    if "generator" in gspec:
        gen = gspec["generator"]
        if gen not in _GENERATORS:
            errors.append(f"unknown generator {gen!r}")
        else:
            params = gspec.get("params", {})
            n = params.get("n")
            if gen == "grid" and "rows" in params and "cols" in params:
                n = params["rows"] * params["cols"]
    elif "edge_list" in gspec:
        if not gspec["edge_list"]:
            errors.append(f"{key}.edge_list path is required for this config")
    else:
        errors.append(f"{key} needs 'generator' or 'edge_list'")
    return n


def _check_pyramid_extras(extras, errors: list) -> None:
    """Append the errors of a pyramid-nla ``extras`` object."""
    if not isinstance(extras, dict):
        errors.append("extras must be an object")
        return
    levels = extras.get("levels", 1)
    if type(levels) is not int or levels < 1:  # a bool is not a level count
        errors.append("extras.levels must be an integer >= 1")
    fractions = extras.get("fractions", [0.0])
    if not (
        isinstance(fractions, list)
        and fractions
        and all(type(fr) in (int, float) and 0 <= fr <= 1 for fr in fractions)
    ):
        errors.append("extras.fractions must be a non-empty list of numbers in [0, 1]")


def validate_config(cfg: dict) -> list[str]:
    """Dry-run structural checks (no eigendecomposition). Returns error list."""
    errors = []
    if not isinstance(cfg, dict):
        return ["config must be a JSON object"]
    kind = cfg.get("kind")
    if kind not in _KINDS:
        errors.append(f"kind must be one of {_KINDS}, got {kind!r}")
    n0 = _check_graph_spec(cfg.get("graph"), "graph", errors)
    if kind in ("upsample", "fractional"):
        if "graph1" in cfg:
            _check_graph_spec(cfg["graph1"], "graph1", errors)
        else:
            errors.append(f"kind {kind!r} needs a target graph in graph1")
    rate = cfg.get("rate")
    if kind in ("downsample", "upsample"):
        if not isinstance(rate, int) or rate < 2:
            errors.append("rate must be an integer >= 2")
        elif isinstance(n0, int) and kind == "downsample" and n0 % rate != 0:
            errors.append(f"rate {rate} does not divide graph size {n0}")
    sig = cfg.get("signal", {})
    if not isinstance(sig, dict):
        errors.append("signal must be an object")
        sig = {}
    elif sig.get("kind") not in (
        "bandlimited-random",
        "delta-spectrum",
        "constant",
        "spectral-decay",
        "cluster-band",
    ):
        errors.append(f"unknown signal kind {sig.get('kind')!r}")
    if sig.get("kind") == "bandlimited-random":
        cutoff = sig.get("cutoff")
        if not isinstance(cutoff, int) or cutoff < 1:
            errors.append("signal.cutoff must be a positive integer")
        elif isinstance(n0, int) and cutoff > n0:
            errors.append(f"signal.cutoff {cutoff} exceeds graph size {n0}")
    if sig.get("kind") == "delta-spectrum":
        index = sig.get("index")
        if not isinstance(index, int) or index < 0:
            errors.append("signal.index must be a nonnegative integer")
        elif isinstance(n0, int) and index >= n0:
            errors.append(f"signal.index {index} out of range for graph size {n0}")
    if sig.get("kind") == "spectral-decay":
        alpha = sig.get("alpha")
        if type(alpha) not in (int, float) or not math.isfinite(alpha):
            errors.append("signal.alpha must be a finite number")
    red = cfg.get("reduction")
    if kind == "repeated-eigenvalues" and not isinstance(red, dict):
        errors.append("kind 'repeated-eigenvalues' needs reduction {\"keep_first\": k}")
    elif isinstance(red, dict):
        keep_first = red.get("keep_first")
        if type(keep_first) is not int or keep_first < 1:
            errors.append("reduction.keep_first must be an integer >= 1")
        elif isinstance(n0, int) and keep_first >= n0:
            errors.append(f"reduction.keep_first {keep_first} must be below graph size {n0}")
    if kind == "pyramid-nla":
        _check_pyramid_extras(cfg.get("extras", {}), errors)
    operators = cfg.get("operators", [])
    if not isinstance(operators, list):
        errors.append("operators must be a list")
        operators = []
    elif kind in _DIRECTIONS and not operators:
        errors.append(f"kind {kind!r} needs a non-empty operators list")
    allowed = OPERATORS.get(_DIRECTIONS.get(kind), ())
    for op in operators:
        if op not in allowed:
            errors.append(
                f"operator {op!r} does not apply to kind {kind!r}; "
                f"allowed: {', '.join(allowed) or 'none'}"
            )
    return errors


# ---------------------------------------------------------------------------
# experiment machinery


def _build_graph(gspec: dict) -> G.Graph:
    if "edge_list" in gspec:
        return G.load_edge_list(gspec["edge_list"], gspec.get("coordinates"))
    params = dict(gspec.get("params", {}))
    return _GENERATORS[gspec["generator"]](**params)


def _build_signal(sig: dict, basis, seed: int, clusters=None) -> np.ndarray:
    kind = sig["kind"]
    if kind == "constant":
        return np.ones(basis.n)
    if kind == "delta-spectrum":
        if not 0 <= sig["index"] < basis.n:
            raise InvalidParameterError(
                f"signal.index {sig['index']} out of range for graph size {basis.n}"
            )
        coeffs = np.zeros(basis.n)
        coeffs[sig["index"]] = 1.0
        return igft(basis, coeffs)
    if kind == "bandlimited-random":
        if sig["cutoff"] > basis.n:
            raise InvalidParameterError(
                f"signal.cutoff {sig['cutoff']} exceeds graph size {basis.n}"
            )
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(basis.n)
        coeffs[: sig["cutoff"]] = rng.standard_normal(sig["cutoff"])
        return igft(basis, coeffs)
    if kind == "spectral-decay":
        coeffs = np.exp(-sig["alpha"] * basis.eigenvalues)
        return igft(basis, coeffs)
    if kind == "cluster-band":
        if clusters is None:
            raise InvalidParameterError("cluster-band signal needs clusters")
        return make_cluster_band_signal(basis, clusters, sig["bands"])
    raise InvalidParameterError(f"unknown signal kind {kind!r}")


def _reduce(cfg, graph, lap, basis, rate):
    """Produce (reduced graph, correspondence or None) per the reduction spec."""
    red = cfg.get("reduction", "polarity")
    if red == "generator":
        gspec = copy.deepcopy(cfg["graph"])
        params = gspec.get("params", {})
        if "n" in params:
            params["n"] = params["n"] // rate
        elif "rows" in params:
            s = round(rate**0.5)
            params["rows"], params["cols"] = params["rows"] // s, params["cols"] // s
        reduced = _build_graph(gspec)
        keep = select_every_other(graph, rate)
        return reduced, VertexCorrespondence(keep)
    if red == "every_other":
        keep = select_every_other(graph, rate)
    elif red == "polarity":
        keep = select_polarity(basis, graph.n // rate)
    elif isinstance(red, dict) and "keep_first" in red:
        keep = np.arange(red["keep_first"])
    else:
        raise InvalidParameterError(f"unknown reduction {red!r}")
    result = kron_reduce(lap, keep)
    return result.graph, result.correspondence


class _Artifacts:
    """Collects CSV outputs under one directory and builds the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}
        self.scalars: dict[str, float] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_csv(self, name: str, header: str, rows) -> None:
        path = self.out_dir / name
        with _open_fresh(path) as fh:
            fh.write(f"# {header}\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.files[name] = _sha256(path)

    def spectrum_csv(self, name: str, basis, signal: np.ndarray) -> None:
        coeffs = gft(basis, np.real(signal)).coefficients
        rows = zip(range(basis.n), basis.eigenvalues, coeffs)
        self.write_csv(name, "index,lambda,coefficient", rows)

    def signal_csv(self, name: str, signal: np.ndarray) -> None:
        self.write_csv(name, "vertex,value", enumerate(np.real(signal)))

    def manifest(self, cfg: dict) -> dict:
        return {"config": cfg, "files": self.files, "scalars": self.scalars}


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12e}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _open_fresh(path: Path):
    """Open ``path`` for writing as a new file, removing any old one first."""
    # Truncating a file written moments ago can wait tens of milliseconds on
    # its writeback; a new inode does not, and os.replace waits as long.
    path.unlink(missing_ok=True)
    return open(path, "w")


def run_experiment(cfg: dict, out_dir, seed: int | None = None) -> dict:
    """Run one experiment config; writes artifacts and returns the manifest."""
    errors = validate_config(cfg)
    if errors:
        raise InvalidParameterError("; ".join(errors))
    cfg = copy.deepcopy(cfg)
    if seed is not None:
        cfg["seed"] = seed
    art = _Artifacts(Path(out_dir))
    kind = cfg["kind"]
    graph = _build_graph(cfg["graph"])
    lap = G.laplacian(graph)
    basis = eigendecompose(lap)

    if kind in _DIRECTIONS:
        direction, rate, corr = _DIRECTIONS[kind], cfg.get("rate"), None
        if kind == "downsample":
            target, corr = _reduce(cfg, graph, lap, basis, rate)
        else:
            target = _build_graph(cfg["graph1"])
            if kind == "upsample":
                corr = VertexCorrespondence(np.arange(0, target.n, rate))
        basis1 = eigendecompose(G.laplacian(target))
        ctx = SamplingContext(basis, basis1)
        f = _build_signal(cfg["signal"], basis, cfg["seed"])
        art.spectrum_csv("original_spectrum.csv", basis, f)
        art.signal_csv("original_signal.csv", f)
        for op in cfg["operators"]:
            out = apply_operator(op, direction, ctx, f, rate, corr)
            # fractional artifacts use underscores and record no energy
            stem = op.replace("-", "_") if direction == "frac" else op
            art.spectrum_csv(f"{stem}_spectrum.csv", basis1, out)
            art.signal_csv(f"{stem}_signal.csv", out)
            if direction != "frac":
                art.scalars[f"{op}_energy"] = float(np.linalg.norm(out) ** 2)

    elif kind == "repeated-eigenvalues":
        # On a graph with a repeated top eigenvalue the eigenvector order is
        # free; an adversarial order scatters the spectrum into the fold band.
        keep_first = cfg["reduction"]["keep_first"]
        result = kron_reduce(lap, np.arange(keep_first))
        basis1 = eigendecompose(G.laplacian(result.graph))
        cutoff = cfg["signal"].get("cutoff", graph.n // 2)
        coeffs0 = np.zeros(graph.n)
        coeffs0[:cutoff] = 1.0
        f0 = igft(basis, coeffs0)
        permuted = eigendecompose(lap, ordering_seed=cfg["seed"])
        for tag, b in (("ordered", basis), ("permuted", permuted)):
            ctx = SamplingContext(b, basis1)
            out = fractional_downsample(ctx, f0, mode="index", folded=True)
            art.spectrum_csv(f"{tag}_down_spectrum.csv", basis1, out)
            out_coeffs = gft(basis1, np.real(out)).coefficients
            src = b.eigenvectors.T @ f0
            fold = out_coeffs - src[:keep_first]
            art.scalars[f"{tag}_fold_energy"] = float(np.linalg.norm(fold) ** 2)
            art.scalars[f"{tag}_total_energy"] = float(np.linalg.norm(out_coeffs) ** 2)

    elif kind == "cluster-energy":
        clusters = spectral_bisection(basis)
        f = _build_signal(cfg["signal"], basis, cfg["seed"], clusters=clusters)
        art.signal_csv("original_signal.csv", f)
        art.spectrum_csv("original_spectrum.csv", basis, f)
        labels = np.zeros(graph.n, dtype=int)
        labels[clusters[1]] = 1
        art.write_csv("clusters.csv", "vertex,cluster", enumerate(labels))
        keep = select_polarity(basis, graph.n // 2)
        result = kron_reduce(lap, keep)
        basis1 = eigendecompose(G.laplacian(result.graph))
        n1 = keep.size
        ctx = SamplingContext(basis, basis1)
        out = fractional_downsample(ctx, f, mode="index", folded=False)
        art.signal_csv("downsampled_signal.csv", out)
        art.spectrum_csv("downsampled_spectrum.csv", basis1, out)
        # split the downsampled signal into the main band (original spectrum
        # below the fold index) and the folded aliasing band, then measure
        # per-cluster energies; cluster labels follow the kept vertices
        orig = gft(basis, f).coefficients
        alias_coeffs = np.zeros(n1)
        alias_coeffs[: graph.n - n1] = orig[n1:]
        f_main = igft(basis1, orig[:n1])
        f_alias = igft(basis1, alias_coeffs)
        labels_d = labels[keep]
        for ci in (0, 1):
            idx = np.nonzero(labels_d == ci)[0]
            art.scalars[f"main_cluster{ci + 1}_energy"] = float(
                np.linalg.norm(f_main[idx]) ** 2
            )
            art.scalars[f"alias_cluster{ci + 1}_energy"] = float(
                np.linalg.norm(f_alias[idx]) ** 2
            )
        art.scalars["fold_lambda"] = float(basis.eigenvalues[n1])

    elif kind == "pyramid-nla":
        extras = cfg.get("extras", {})
        levels = extras.get("levels", 3)
        fractions = extras.get("fractions", [0.0, 0.1, 0.2, 0.4, 0.8, 1.0])
        f = _build_signal(cfg["signal"], basis, cfg["seed"])
        art.signal_csv("original_signal.csv", f)
        # the level chain depends only on the graph: one for all families
        chain = build_chain(lap, basis, levels, PyramidConfig())
        for sampling in ("vertex", "index", "spectrum"):
            pcfg = PyramidConfig(sampling=sampling, analysis_filter=FilterSpec())
            curve = nla_error_curve(f, chain, pcfg, fractions)
            art.write_csv(f"nla_{sampling}.csv", "fraction,error", curve)
            art.scalars[f"{sampling}_error_at_0.2"] = next(
                (e for fr, e in curve if abs(fr - 0.2) < 1e-12), float("nan")
            )

    manifest = art.manifest(cfg)
    with _open_fresh(Path(out_dir) / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gssamp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config or preset")
    run_p.add_argument("config", help="preset name or path to a config JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_parser("list-presets", help="print available preset names")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="preset name or path to a config JSON")
    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name in list_presets():
            print(name)
        return 0

    try:
        cfg = load_config(args.config)
    except (InvalidParameterError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3

    errors = validate_config(cfg)
    for e in errors:
        print(f"config error: {e}", file=sys.stderr)
    if errors:
        return 1
    if args.command == "validate":
        print("ok")
        return 0
    try:
        manifest = run_experiment(cfg, args.out, seed=args.seed)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameterError, GssampError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['files']) + 1} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
