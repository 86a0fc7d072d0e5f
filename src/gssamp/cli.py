"""Experiment runner: declarative configs, CSV artifacts, JSON manifest.

Commands::

    gssamp run <config.json | preset-name> --out DIR [--seed S]
    gssamp list-presets
    gssamp validate <config.json | preset-name>

Exit codes: 0 ok, 1 config error, 2 numeric error, 3 I/O error.

A config is a JSON object; README.md ("Command-line interface") lists its
keys and rules, and ``_KINDS`` the keys and signals of each experiment kind.
``validate`` and ``run`` share one config pass, ``_prepare``, which builds
both graphs; ``run`` goes on from the first eigendecomposition. Outputs are
CSV series plus manifest.json listing every file with its sha256 checksum and
the experiment's key scalars.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import graphs as G
from .errors import GssampError, InvalidParameterError, NumericError
from .pyramid import PyramidConfig, build_chain, nla_error_curve
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
from .spectral import SpectralBasis, eigendecompose, eigenvalue_groups, gft, igft

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

_BASIS_SIGNALS = ("bandlimited-random", "delta-spectrum", "constant", "spectral-decay")
# Per experiment kind: the signal kinds it takes, the keys it reads beyond
# name, kind, graph, signal and seed, and its ``sampling.OPERATORS`` direction.
# "repeated-eigenvalues" reads only a cutoff from its signal, and only
# "cluster-energy" finds the clusters that "cluster-band" needs.
_KINDS = {
    "downsample": (_BASIS_SIGNALS, ("rate", "reduction", "operators"), "down"),
    "upsample": (_BASIS_SIGNALS, ("graph1", "rate", "operators"), "up"),
    "fractional": (_BASIS_SIGNALS, ("graph1", "operators"), "frac"),
    "repeated-eigenvalues": (("bandlimited-random",), ("reduction",), None),
    "cluster-energy": ((*_BASIS_SIGNALS, "cluster-band"), (), None),
    "pyramid-nla": (_BASIS_SIGNALS, ("extras",), None),
}
# The keys each signal kind and each graph spec form read beyond the one naming it.
_SIGNAL_KEYS = {
    "bandlimited-random": ("cutoff",),
    "delta-spectrum": ("index",),
    "constant": (),
    "spectral-decay": ("alpha",),
    "cluster-band": ("bands",),
}
_GRAPH_KEYS = {"generator": ("params",), "edge_list": ("coordinates",)}
_REDUCTIONS = ("generator", "every_other", "polarity")
# Values of the optional keys left out of a config.
_DEFAULT_REDUCTION = "polarity"
_PYRAMID_EXTRAS = {"levels": 3, "fractions": [0.0, 0.1, 0.2, 0.4, 0.8, 1.0]}


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
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise InvalidParameterError(f"{source} is not a JSON config: {exc}") from exc


def _int(errors: list, key: str, value, lo: int) -> int | None:
    """The integer rule of every config key, ``graphs.check_count``'s.

    Returns ``value``, or None once the broken rule is added to ``errors``.
    """
    try:
        return G.check_count(value, key, lo)
    except InvalidParameterError as exc:
        errors.append(str(exc))
        return None


def _is_number(x) -> bool:
    return type(x) in (int, float) and math.isfinite(x)


def _unread_keys(obj: dict, key: str, read, what: str, errors: list) -> None:
    """Append one error per key of ``obj`` (at config key ``key``) outside ``read``.

    A key the run would not read is refused, never ignored.
    """
    for name in obj:
        if name not in read:
            path = f"{key}.{name}" if key else name
            errors.append(f"key {path!r} does not apply to {what}")


def _check_graph_spec(gspec, key: str, errors: list) -> None:
    """Append the errors of one graph spec."""
    if not isinstance(gspec, dict):
        errors.append(f"{key} must be an object")
        return
    if ("generator" in gspec) == ("edge_list" in gspec):
        errors.append(f"{key} needs exactly one of 'generator' and 'edge_list'")
        return
    form = "edge_list" if "edge_list" in gspec else "generator"
    what = "a generator graph" if form == "generator" else "an edge-list graph"
    _unread_keys(gspec, key, (form, *_GRAPH_KEYS[form]), what, errors)
    if "edge_list" in gspec:
        if not (isinstance(gspec["edge_list"], str) and gspec["edge_list"]):
            errors.append(f"{key}.edge_list path is required for this config")
        if not isinstance(gspec.get("coordinates", ""), str):
            errors.append(f"{key}.coordinates must be a path")
    elif not (isinstance(gspec["generator"], str) and gspec["generator"] in _GENERATORS):
        errors.append(f"unknown generator {gspec['generator']!r}")
    elif not isinstance(gspec.get("params", {}), dict):
        errors.append(f"{key}.params must be an object")
    else:
        _check_params(gspec["generator"], gspec.get("params", {}), f"{key}.params", errors)


def _check_params(gen: str, params: dict, key: str, errors: list) -> None:
    """Append the errors of a generator's params."""
    signature = inspect.signature(_GENERATORS[gen], eval_str=True)
    try:
        signature.bind(**params)
    except TypeError as exc:
        errors.append(f"{key} do not fit generator {gen!r}: {exc}")
        return
    for name, value in params.items():
        if signature.parameters[name].annotation is int:
            _int(errors, f"{key}.{name}", value, 0)
        elif not _is_number(value):
            errors.append(f"{key}.{name} must be a finite number")


def _check_signal_spec(sig, kind: str, n0: int, errors: list) -> None:
    """Append the errors of a ``signal`` object for experiment ``kind`` on n0 vertices."""
    if not isinstance(sig, dict):
        errors.append("signal must be an object")
        return
    skind, allowed = sig.get("kind"), _KINDS[kind][0]
    if skind not in allowed:
        errors.append(
            f"signal kind {skind!r} does not apply to kind {kind!r}; "
            f"allowed: {', '.join(allowed)}"
        )
    if isinstance(skind, str) and skind in _SIGNAL_KEYS:
        read = ("kind", *_SIGNAL_KEYS[skind])
        _unread_keys(sig, "signal", read, f"signal kind {skind!r}", errors)
    if skind == "bandlimited-random":
        cutoff = _int(errors, "signal.cutoff", sig.get("cutoff"), 1)
        if cutoff is not None and cutoff > n0:
            errors.append(f"signal.cutoff {cutoff} exceeds graph size {n0}")
    elif skind == "delta-spectrum":
        index = _int(errors, "signal.index", sig.get("index"), 0)
        if index is not None and index >= n0:
            errors.append(f"signal.index {index} out of range for graph size {n0}")
    elif skind == "spectral-decay" and not _is_number(sig.get("alpha")):
        errors.append("signal.alpha must be a finite number")
    elif skind == "cluster-band":
        bands = sig.get("bands")
        if not (
            isinstance(bands, list)
            and len(bands) == 2
            and all(isinstance(b, list) and len(b) == 2 and all(map(_is_number, b))
                    and 0 <= b[0] <= b[1] for b in bands)
        ):
            errors.append("signal.bands must be two finite [lo, hi] pairs with 0 <= lo <= hi")


def _prepare(cfg, errors: list):
    """The one config pass of ``validate`` and ``run``; every broken rule goes to ``errors``.

    In order: the kind, the top-level keys and the graph specs; the build of
    ``graph`` and ``graph1``; every other rule on their vertex counts; the
    keep set of a reduction that needs no basis. Returns (graph, target,
    keep), or None once a step breaks a rule. ``target`` is graph1 or the
    graph a "generator" reduction builds; ``keep`` holds the correspondence
    targets in the larger graph, or is None where polarity picks them. A graph
    that cannot be read or built raises its own error.
    """
    if not isinstance(cfg, dict):
        errors.append("config must be a JSON object")
        return None
    kind = cfg.get("kind")
    if not (isinstance(kind, str) and kind in _KINDS):
        errors.append(f"kind must be one of {tuple(_KINDS)}, got {kind!r}")  # it decides every rule
        return None
    _, keys, direction = _KINDS[kind]
    try:  # manifest.json records the config as strict JSON
        json.dumps(cfg, allow_nan=False)
    except (TypeError, ValueError) as exc:
        errors.append(f"config must be strict JSON: {exc}")
    read = ("name", "kind", "graph", "signal", "seed", *keys)
    _unread_keys(cfg, "", read, f"kind {kind!r}", errors)
    _check_graph_spec(cfg.get("graph"), "graph", errors)
    if "graph1" in keys and "graph1" not in cfg:
        errors.append(f"kind {kind!r} needs a target graph in graph1")
    elif "graph1" in keys:
        _check_graph_spec(cfg["graph1"], "graph1", errors)
    if errors:
        return None

    graph = _build_graph(cfg["graph"], "graph")
    target = _build_graph(cfg["graph1"], "graph1") if "graph1" in keys else None
    n0 = graph.n
    _int(errors, "seed", cfg.get("seed"), 0)
    rate = _int(errors, "rate", cfg.get("rate"), 2) if "rate" in keys else None
    if kind == "downsample" and rate is not None and n0 % rate != 0:
        errors.append(f"rate {rate} does not divide graph size {n0}")
    if kind == "upsample" and rate is not None and target.n != rate * n0:
        errors.append(f"graph1 size {target.n} is not rate {rate} times graph size {n0}")
    if kind == "fractional" and target.n > n0:
        errors.append(f"graph1 size {target.n} exceeds graph size {n0}")
    _check_signal_spec(cfg.get("signal"), kind, n0, errors)
    red = cfg.get("reduction", _DEFAULT_REDUCTION) if "reduction" in keys else _DEFAULT_REDUCTION
    if kind == "repeated-eigenvalues" and not isinstance(red, dict):
        errors.append("kind 'repeated-eigenvalues' needs reduction {\"keep_first\": k}")
    elif isinstance(red, dict):
        _unread_keys(red, "reduction", ("keep_first",), "a keep_first reduction", errors)
        keep_first = _int(errors, "reduction.keep_first", red.get("keep_first"), 1)
        if keep_first is not None and keep_first >= n0:
            errors.append(f"reduction.keep_first {keep_first} must be below graph size {n0}")
    elif red not in _REDUCTIONS:
        errors.append(
            f"reduction must be one of {_REDUCTIONS} or {{\"keep_first\": k}}, got {red!r}"
        )
    extras = cfg.get("extras", {})
    if "extras" in keys and not isinstance(extras, dict):
        errors.append("extras must be an object")
    elif "extras" in keys:
        _unread_keys(extras, "extras", _PYRAMID_EXTRAS, f"kind {kind!r}", errors)
        extras = {**_PYRAMID_EXTRAS, **extras}
        levels = _int(errors, "extras.levels", extras["levels"], 1)
        # each level halves an even size and leaves >= 2; shifts, as levels may be huge
        if levels is not None and not (n0 >> levels >= 2 and (n0 >> levels) << levels == n0):
            errors.append(f"extras.levels {levels} halves graph size {n0} unevenly or below 2")
        fractions = extras["fractions"]
        if not (
            isinstance(fractions, list)
            and fractions
            and all(_is_number(fr) and 0 <= fr <= 1 for fr in fractions)
        ):
            errors.append("extras.fractions must be a non-empty list of numbers in [0, 1]")
    operators = cfg.get("operators", []) if "operators" in keys else []
    if not isinstance(operators, list):
        errors.append("operators must be a list")
        operators = []
    elif direction is not None and not operators:
        errors.append(f"kind {kind!r} needs a non-empty operators list")
    allowed = OPERATORS.get(direction, ())
    for op in operators:
        if op not in allowed:
            errors.append(
                f"operator {op!r} does not apply to kind {kind!r}; "
                f"allowed: {', '.join(allowed)}"
            )
    if errors:
        return None

    keep = np.arange(0, target.n, rate) if kind == "upsample" else None  # in graph1
    try:
        if isinstance(red, dict):
            keep = np.arange(red["keep_first"])
        elif red != _DEFAULT_REDUCTION:
            keep = select_every_other(graph, rate)
        if kind == "downsample" and keep is not None and keep.size != n0 // rate:
            errors.append(
                f"reduction {red!r} keeps {keep.size} vertices, not n / rate = {n0 // rate}"
            )
        elif red == "generator":  # the generator that built graph, at n / rate vertices
            root = math.isqrt(rate)
            size = [d // root for d in graph.grid_shape] if graph.grid_shape else [keep.size]
            target = _GENERATORS[graph.structure](*size)
    except InvalidParameterError as exc:
        errors.append(f"reduction {red!r}: {exc}")
    return None if errors else (graph, target, keep)


def validate_config(cfg: dict) -> list[str]:
    """Check a config against every rule; return the errors, empty if it can run.

    This is ``run``'s config pass up to its first eigendecomposition, so it
    reads edge lists and builds both graphs; a graph that cannot be read or
    built raises its own error.
    """
    errors = []
    _prepare(cfg, errors)
    return errors


# ---------------------------------------------------------------------------
# experiment machinery


def _build_graph(gspec: dict, key: str) -> G.Graph:
    """Build the graph of config key ``key``; one too large to allocate is a config error.

    numpy refuses an n x n request beyond memory with MemoryError, beyond its
    size limit with ValueError and beyond int64 with OverflowError, and the edge
    constructor a vertex count whose dense n x n block exceeds physical memory
    with MemoryError. A GssampError is also a ValueError and keeps its own type.
    """
    try:
        if "edge_list" in gspec:
            return G.load_edge_list(gspec["edge_list"], gspec.get("coordinates"))
        return _GENERATORS[gspec["generator"]](**gspec.get("params", {}))
    except GssampError:
        raise
    except (MemoryError, OverflowError, ValueError) as exc:
        raise InvalidParameterError(f"{key} is too large to allocate: {exc}") from exc


def _build_signal(sig: dict, basis, seed: int, clusters=None) -> np.ndarray:
    kind = sig["kind"]
    if kind == "constant":
        return np.ones(basis.n)
    if kind == "cluster-band":
        return make_cluster_band_signal(basis, clusters, sig["bands"])
    if kind == "spectral-decay":
        return igft(basis, np.exp(-sig["alpha"] * basis.eigenvalues))
    coeffs = np.zeros(basis.n)
    if kind == "delta-spectrum":
        coeffs[sig["index"]] = 1.0
    else:
        coeffs[: sig["cutoff"]] = np.random.default_rng(seed).standard_normal(sig["cutoff"])
    return igft(basis, coeffs)


def _permute_within_groups(basis: SpectralBasis, seed: int) -> SpectralBasis:
    """``basis`` with each repeated-eigenvalue group's columns in the order of one
    ``default_rng(seed)`` permutation per group of two or more, in eigenvalue order."""
    rng = np.random.default_rng(seed)
    starts = eigenvalue_groups(basis.eigenvalues)
    sizes = np.diff(np.append(starts, basis.n))
    order = np.arange(basis.n)
    for s, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        order[s : s + size] = s + rng.permutation(size)
    return SpectralBasis(basis.eigenvalues, basis.eigenvectors[:, order])


class _Artifacts:
    """Collects CSV outputs under one directory and builds the manifest.

    As a context manager it removes what a failed run wrote: its files, its
    manifest, and the directory if the run made it.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}
        self.scalars: dict[str, float] = {}
        self._made_dir = not out_dir.exists()
        out_dir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest would list checksums these files replace
        (out_dir / "manifest.json").unlink(missing_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            return
        for name in (*self.files, "manifest.json"):
            (self.out_dir / name).unlink(missing_ok=True)
        if self._made_dir:
            with contextlib.suppress(OSError):  # a file another writer put there keeps it
                self.out_dir.rmdir()

    def write_csv(self, name: str, header: str, rows) -> None:
        path = self.out_dir / name
        self.files[name] = ""  # listed before it is written, so a failed run removes it
        with _open_fresh(path) as fh:
            fh.write(f"# {header}\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.files[name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def spectrum_csv(self, name: str, basis, signal: np.ndarray) -> np.ndarray:
        """Write the GFT of ``signal``'s real part; return its coefficients."""
        coeffs = gft(basis, np.real(signal)).coefficients
        rows = zip(range(basis.n), basis.eigenvalues, coeffs)
        self.write_csv(name, "index,lambda,coefficient", rows)
        return coeffs

    def signal_csv(self, name: str, signal: np.ndarray) -> None:
        self.write_csv(name, "vertex,value", enumerate(np.real(signal)))


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12e}"


def _open_fresh(path: Path):
    """Open ``path`` for writing as a new file, removing any old one first."""
    # Truncating a file written moments ago can wait tens of milliseconds on
    # its writeback; a new inode does not, and os.replace waits as long.
    path.unlink(missing_ok=True)
    return open(path, "w")


def _setup(cfg):
    """Run the config pass; raise InvalidParameterError naming every broken rule."""
    errors = []
    prepared = _prepare(cfg, errors)
    if errors:
        raise InvalidParameterError("; ".join(errors))
    return prepared


def run_experiment(cfg: dict, out_dir, seed: int | None = None) -> dict:
    """Run one experiment config; writes artifacts and returns the manifest.

    ``seed`` replaces the config's seed. The config pass of ``validate_config``
    runs first, before any eigendecomposition or output; a broken rule raises
    InvalidParameterError, and a non-finite scalar NumericError before the
    manifest is written. A run that fails after the config pass removes
    what it wrote.
    """
    if seed is not None and isinstance(cfg, dict):
        cfg = {**cfg, "seed": seed}
    graph, target, keep = _setup(cfg)
    cfg = copy.deepcopy(cfg)
    kind = cfg["kind"]
    direction = _KINDS[kind][2]
    # no numpy floating-point warnings: a non-finite scalar is one NumericError below
    with _Artifacts(Path(out_dir)) as art, np.errstate(all="ignore"):
        lap = G.laplacian(graph)
        basis = eigendecompose(lap)
        if kind != "pyramid-nla":  # the one graph G1 each other kind resamples onto
            if target is None:  # Kron-reduce to keep, or to the n / rate vertices polarity picks
                if keep is None:  # cluster-energy's rate is 2
                    keep = select_polarity(basis, graph.n // cfg.get("rate", 2))
                target, corr = kron_reduce(lap, keep)
            else:  # graph1, or the graph a "generator" reduction built
                corr = None if keep is None else VertexCorrespondence(keep)
            basis1 = eigendecompose(G.laplacian(target))

        if direction is not None:
            ctx = SamplingContext(basis, basis1)
            f = _build_signal(cfg["signal"], basis, cfg["seed"])
            art.spectrum_csv("original_spectrum.csv", basis, f)
            art.signal_csv("original_signal.csv", f)
            for op in cfg["operators"]:
                out = apply_operator(op, direction, ctx, f, cfg.get("rate"), corr)
                # fractional artifacts use underscores and record no energy
                stem = op.replace("-", "_") if direction == "frac" else op
                art.spectrum_csv(f"{stem}_spectrum.csv", basis1, out)
                art.signal_csv(f"{stem}_signal.csv", out)
                if direction != "frac":
                    art.scalars[f"{op}_energy"] = float(np.linalg.norm(out) ** 2)

        elif kind == "repeated-eigenvalues":
            # On a graph with a repeated top eigenvalue the eigenvector order is
            # free; an adversarial order scatters the spectrum into the fold band.
            coeffs0 = np.zeros(graph.n)
            coeffs0[: cfg["signal"]["cutoff"]] = 1.0
            f0 = igft(basis, coeffs0)
            permuted = _permute_within_groups(basis, cfg["seed"])
            for tag, b in (("ordered", basis), ("permuted", permuted)):
                ctx = SamplingContext(b, basis1)
                out = fractional_downsample(ctx, f0, mode="index", folded=True)
                out_coeffs = art.spectrum_csv(f"{tag}_down_spectrum.csv", basis1, out)
                src = gft(b, f0).coefficients  # b's kept analysis of f0, taken by ctx
                fold = out_coeffs - src[: target.n]
                art.scalars[f"{tag}_fold_energy"] = float(np.linalg.norm(fold) ** 2)
                art.scalars[f"{tag}_total_energy"] = float(np.linalg.norm(out_coeffs) ** 2)

        elif kind == "cluster-energy":
            clusters = spectral_bisection(basis)
            f = _build_signal(cfg["signal"], basis, cfg["seed"], clusters=clusters)
            art.signal_csv("original_signal.csv", f)
            orig = art.spectrum_csv("original_spectrum.csv", basis, f)
            labels = np.zeros(graph.n, dtype=int)
            labels[clusters[1]] = 1
            art.write_csv("clusters.csv", "vertex,cluster", enumerate(labels))
            n1 = target.n
            ctx = SamplingContext(basis, basis1)
            out = fractional_downsample(ctx, f, mode="index", folded=False)
            art.signal_csv("downsampled_signal.csv", out)
            down = art.spectrum_csv("downsampled_spectrum.csv", basis1, out)
            # split the downsampled signal into the main band (original spectrum
            # below the fold index) and the aliasing band (the rest of the output
            # spectrum: orig[n1:] folded onto n1 slots, unfolded), then measure
            # per-cluster energies; cluster labels follow the kept vertices
            f_main = igft(basis1, orig[:n1])
            f_alias = igft(basis1, down - orig[:n1])
            for ci in (0, 1):
                idx = np.nonzero(labels[corr.targets] == ci)[0]
                for band, part in (("main", f_main), ("alias", f_alias)):
                    energy = float(np.linalg.norm(part[idx]) ** 2)
                    art.scalars[f"{band}_cluster{ci + 1}_energy"] = energy
            art.scalars["fold_lambda"] = float(basis.eigenvalues[n1])

        elif kind == "pyramid-nla":
            extras = {**_PYRAMID_EXTRAS, **cfg.get("extras", {})}
            f = _build_signal(cfg["signal"], basis, cfg["seed"])
            art.signal_csv("original_signal.csv", f)
            # the level chain depends only on the graph: one for all families
            chain = build_chain(lap, basis, extras["levels"])
            for sampling in ("vertex", "index", "spectrum"):
                pcfg = PyramidConfig(sampling=sampling)
                curve = nla_error_curve(f, chain, pcfg, extras["fractions"])
                art.write_csv(f"nla_{sampling}.csv", "budget_over_n,error", curve)
                for budget, error in curve:
                    if abs(budget - 0.2) < 1e-12:
                        art.scalars[f"{sampling}_error_at_0.2"] = error

        broken = sorted(key for key, value in art.scalars.items() if not math.isfinite(value))
        if broken:
            raise NumericError(f"non-finite scalars: {', '.join(broken)}")
        manifest = {"config": cfg, "files": art.files, "scalars": art.scalars}
        with _open_fresh(Path(out_dir) / "manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
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
        if args.command == "validate":
            _setup(cfg)
            print("ok")
            return 0
        manifest = run_experiment(cfg, args.out, seed=args.seed)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except GssampError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['files']) + 1} files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
