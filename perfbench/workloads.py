"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one caller. Its jobs come from the
workload seed and repeat in whole cycles of ``cycle`` jobs, so a run always
holds the same job mix whatever its length. Every call into gssamp goes
through a module attribute (``gs.<name>``, ``cli.run_experiment``) at call
time, so the tracer's wrappers see it.

``setup`` builds the fixed inputs and warms up; the harness calls it several
times and reports the median. ``job(j)`` runs job ``j`` and returns its
output, ``check(j, out)`` raises ``CheckFailed`` on a wrong output,
``final_check()`` compares fixed inputs with the recorded reference after
the timed window, and ``record()`` produces that reference.
"""
from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import gssamp as gs
from gssamp import cli

# Signal seeds a job may draw; the reference holds every one of them.
SIGNAL_SEEDS = (0, 1, 2, 3)
# ROADMAP aim 2: manifest scalars must stay unchanged to 1e-12.
SCALAR_TOL = 1e-12
RECON_TOL = 1e-10
RESAMPLE_TOL = 1e-9
LAW_TOL = 1e-9


class CheckFailed(Exception):
    """A job ran but its output is wrong."""


def _close(got, want, tol) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return math.isclose(got, want, rel_tol=tol, abs_tol=tol)


def _check_manifest(manifest, out_dir: Path, ref: dict, tol: float) -> None:
    files = sorted(manifest["files"])
    if files != ref["files"]:
        raise CheckFailed(f"file list {files} != reference {ref['files']}")
    on_disk = sorted(os.listdir(out_dir))
    if on_disk != sorted(files + ["manifest.json"]):
        raise CheckFailed(f"output dir holds {on_disk}")
    got, want = manifest["scalars"], ref["scalars"]
    if sorted(got) != sorted(want):
        raise CheckFailed(f"scalar names {sorted(got)} != reference {sorted(want)}")
    for key, value in want.items():
        if not _close(got[key], value, tol):
            raise CheckFailed(f"scalar {key} = {got[key]!r}, reference {value!r}")


def _manifest_reference(manifest) -> dict:
    return {"files": sorted(manifest["files"]), "scalars": manifest["scalars"]}


def _written(out_dir: Path) -> tuple[int, int]:
    sizes = [entry.stat().st_size for entry in os.scandir(out_dir)]
    return len(sizes), sum(sizes)


# ---------------------------------------------------------------------------
# presets


class Presets:
    """Every self-contained preset plus an edge-list cluster-energy config.

    Why: small graphs (n <= 256) and many short ``run_experiment`` calls
    with CSV and sha256 artifact writes, so per-call Python overhead and
    ``cli`` I/O dominate, not O(n^3) work.
    """

    name = "presets"
    cycle = 10
    # The stand-in for the Minnesota road network: a random sensor graph
    # written with save_edge_list; the bands each hold eigenvalues of it.
    SENSOR = {"n": 256, "k_nearest": 6, "seed": 5}
    CLUSTER_BANDS = [[0.05, 0.15], [3.0, 3.5]]

    def __init__(self, seed: int, work_dir: Path, reference: dict | None):
        self.work_dir = work_dir / "presets"
        self.reference = reference
        self.edge_list = self.work_dir / "sensor256_edges.csv"
        rng = np.random.default_rng([seed, 1])
        configs = self._configs()
        self.jobs = [
            (configs[i], int(rng.choice(SIGNAL_SEEDS)))
            for i in rng.permutation(len(configs))
        ]

    def _configs(self) -> list[dict]:
        configs = [cli.PRESETS[name]() for name in cli.list_presets()
                   if name != "minnesota-energy"]
        configs.append({
            "name": "cluster-energy-sensor256",
            "kind": "cluster-energy",
            "graph": {"edge_list": str(self.edge_list)},
            "signal": {"kind": "cluster-band", "bands": self.CLUSTER_BANDS},
            "seed": 7,
        })
        return configs

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        gs.save_edge_list(gs.build_random_sensor(**self.SENSOR), self.edge_list)
        for cfg, signal_seed in self.jobs:  # warm-up pass, unchecked
            cli.run_experiment(cfg, self.work_dir / cfg["name"], seed=signal_seed)

    def job_key(self, j: int) -> str:
        cfg, signal_seed = self.jobs[j % self.cycle]
        return f"{cfg['name']}/{signal_seed}"

    def job(self, j: int):
        cfg, signal_seed = self.jobs[j % self.cycle]
        out_dir = self.work_dir / cfg["name"]
        return out_dir, cli.run_experiment(cfg, out_dir, seed=signal_seed)

    def check(self, j: int, out) -> None:
        cfg, signal_seed = self.jobs[j % self.cycle]
        out_dir, manifest = out
        ref = self.reference["presets"][f"{cfg['name']}/{signal_seed}"]
        _check_manifest(manifest, out_dir, ref, SCALAR_TOL)

    def written(self, out) -> tuple[int, int]:
        return _written(out[0])

    def final_check(self) -> list[str]:
        return []

    def record(self) -> dict:
        self.setup()
        ref = {}
        for cfg in self._configs():
            for signal_seed in SIGNAL_SEEDS:
                manifest = cli.run_experiment(cfg, self.work_dir / cfg["name"], seed=signal_seed)
                ref[f"{cfg['name']}/{signal_seed}"] = _manifest_reference(manifest)
        return ref


# ---------------------------------------------------------------------------
# pyramid


class Pyramid:
    """The ``pyramid-nla`` preset scaled to a random sensor graph, n = 1024.

    Why: each job runs the whole graphs -> spectral -> reduction -> sampling
    -> pyramid stack (19 eigendecompositions, 9 Kron reductions and 9
    sparsifications on the seed commit), and each SamplingContext serves
    only a few operator calls.

    Job cost depends heavily on the graph (one graph spends about 8 s in
    ``sparsify``), so graphs come from a fixed panel that includes that
    heavy case: every run holds the same cost mix and runs under different
    workload seeds stay comparable. The workload seed picks the panel's
    rotation and each job's signal seed.
    """

    name = "pyramid"
    GRAPH_SEEDS = (0, 3, 4, 5)
    N = 1024
    cycle = len(GRAPH_SEEDS)

    def __init__(self, seed: int, work_dir: Path, reference: dict | None):
        self.work_dir = work_dir / "pyramid"
        self.reference = reference
        rng = np.random.default_rng([seed, 2])
        offset = int(rng.integers(self.cycle))
        self.jobs = [
            (self.GRAPH_SEEDS[(offset + i) % self.cycle], int(rng.choice(SIGNAL_SEEDS)))
            for i in range(self.cycle)
        ]
        self.reconstructed: set = set()

    def _config(self, graph_seed: int) -> dict:
        cfg = cli.PRESETS["pyramid-nla"]()
        cfg["name"] = f"pyramid-nla-sensor{self.N}-g{graph_seed}"
        cfg["graph"]["params"].update(n=self.N, seed=graph_seed)
        return cfg

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        graph = gs.build_random_sensor(self.N, seed=self.GRAPH_SEEDS[0])
        gs.eigendecompose(gs.laplacian(graph))

    def _run(self, graph_seed: int, signal_seed: int):
        out_dir = self.work_dir / f"g{graph_seed}"
        return out_dir, cli.run_experiment(self._config(graph_seed), out_dir, seed=signal_seed)

    def job_key(self, j: int) -> str:
        return "g{}/{}".format(*self.jobs[j % self.cycle])

    def job(self, j: int):
        return self._run(*self.jobs[j % self.cycle])

    def check(self, j: int, out) -> None:
        graph_seed, signal_seed = self.jobs[j % self.cycle]
        out_dir, manifest = out
        _check_manifest(manifest, out_dir, self.reference["pyramid"][f"g{graph_seed}/{signal_seed}"],
                        SCALAR_TOL)
        # Perfect reconstruction, checked once per distinct job of a run
        # with one sampling family per panel position.
        key = (graph_seed, signal_seed)
        if key in self.reconstructed:
            return
        f = np.loadtxt(out_dir / "original_signal.csv", delimiter=",", comments="#")[:, 1]
        family = ("vertex", "index", "spectrum")[self.GRAPH_SEEDS.index(graph_seed) % 3]
        graph = gs.build_random_sensor(self.N, seed=graph_seed)
        config = gs.PyramidConfig(sampling=family, analysis_filter=gs.FilterSpec())
        rec = gs.synthesize(gs.analyze(f, graph, 3, config))
        err = np.linalg.norm(rec - f) / np.linalg.norm(f)
        if not err <= RECON_TOL:
            raise CheckFailed(f"{family} pyramid reconstruction error {err:.3e} > {RECON_TOL}")
        self.reconstructed.add(key)

    def written(self, out) -> tuple[int, int]:
        return _written(out[0])

    def final_check(self) -> list[str]:
        return []

    def record(self) -> dict:
        self.setup()
        return {
            f"g{g}/{s}": _manifest_reference(self._run(g, s)[1])
            for g in self.GRAPH_SEEDS
            for s in SIGNAL_SEEDS
        }


# ---------------------------------------------------------------------------
# resample


class Resample:
    """Every public operator on fixed graphs, one fresh signal per job.

    Setup builds a random sensor graph (n = 1024), Kron-reduces it by
    polarity to 512 vertices, builds a second sensor graph (n = 768),
    eigendecomposes all three and builds the down, up and fractional
    contexts, then runs one unchecked warm-up cycle. Why: timing bypasses
    eigh, Kron reduction and sparsify, and each context is reused thousands
    of times, so ``sampling`` and the spectrum interpolation in ``spectral``
    dominate.
    """

    name = "resample"
    cycle = 2  # a bandlimited job, then a full-band one
    N0, N1, N2 = 1024, 512, 768
    GRAPH_SEEDS = (11, 12)
    MAX_CUTOFF = 256  # bandlimited jobs keep at most the lowest quarter band
    # Signals checked against the recorded reference: name -> (seed, cutoff).
    REF_SIGNALS = {"bandlimited": (0, 128), "fullband": (1, None)}
    SKETCH_DIM = 8

    def __init__(self, seed: int, work_dir: Path, reference: dict | None):
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        g0 = gs.build_random_sensor(self.N0, seed=self.GRAPH_SEEDS[0])
        self.lap0 = gs.laplacian(g0)
        self.b0 = gs.eigendecompose(self.lap0)
        reduced = gs.kron_reduce(self.lap0, gs.select_polarity(self.b0, self.N1))
        self.corr = reduced.correspondence
        self.b1 = gs.eigendecompose(gs.laplacian(reduced.graph))
        g2 = gs.build_random_sensor(self.N2, seed=self.GRAPH_SEEDS[1])
        self.b2 = gs.eigendecompose(gs.laplacian(g2))
        self.down = gs.SamplingContext(self.b0, self.b1)
        self.up = gs.SamplingContext(self.b1, self.b0)
        self.frac = gs.SamplingContext(self.b0, self.b2)
        self.exact = gs.FilterSpec()
        self.cheb = gs.FilterSpec(mode="chebyshev")
        for j in range(self.cycle):  # warm-up pass, unchecked
            self.job(j)

    def _signal(self, rng, cutoff):
        if cutoff is None:
            return None, rng.standard_normal(self.N0)
        coeffs = np.zeros(self.N0)
        coeffs[:cutoff] = rng.standard_normal(cutoff)
        return coeffs, gs.igft(self.b0, coeffs)

    def _apply_all(self, f) -> dict:
        out = {"gft": gs.gft(self.b0, f).coefficients}
        out["igft"] = gs.igft(self.b0, out["gft"])
        out["down_vertex"] = gs.vertex_downsample(f, self.corr)
        for folded, tag in ((False, ""), (True, "_folded")):
            out[f"down_index{tag}"] = gs.spectral_downsample_index(self.down, f, 2, folded=folded)
            out[f"down_spectrum{tag}"] = gs.spectral_downsample_spectrum(
                self.down, f, 2, folded=folded)
        g = out["down_index_folded"]
        out["up_vertex"] = gs.vertex_upsample(g, self.corr, self.N0)
        for folded, tag in ((False, ""), (True, "_folded")):
            out[f"up_index{tag}"] = gs.spectral_upsample_index(self.up, g, 2, folded=folded)
            out[f"up_spectrum{tag}"] = gs.spectral_upsample_spectrum(self.up, g, 2, folded=folded)
            for mode in ("index", "spectrum"):
                out[f"frac_{mode}{tag}"] = gs.fractional_downsample(
                    self.frac, f, mode=mode, folded=folded)
        out["filter_exact"] = gs.filter_signal(self.b0, f, self.exact)
        out["filter_chebyshev"] = gs.filter_signal(self.b0, f, self.cheb, self.lap0)
        return out

    def job_key(self, j: int) -> str:
        return ("bandlimited", "fullband")[j % 2]

    def job(self, j: int):
        rng = np.random.default_rng([self.seed, 3, j])
        cutoff = int(rng.integers(32, self.MAX_CUTOFF + 1)) if j % 2 == 0 else None
        coeffs, f = self._signal(rng, cutoff)
        return coeffs, f, self._apply_all(f)

    def check(self, j: int, out) -> None:
        coeffs, f, outputs = out
        sizes = {"down": self.N1, "up": self.N0, "frac": self.N2}
        for name, y in outputs.items():
            n = sizes.get(name.split("_")[0], self.N0)
            if y.shape != (n,) or not np.all(np.isfinite(y)):
                raise CheckFailed(f"{name}: shape {y.shape} or non-finite values")
        scale = np.linalg.norm(f)
        u0, u1, u2 = self.b0.eigenvectors, self.b1.eigenvectors, self.b2.eigenvectors
        if np.linalg.norm(outputs["igft"] - f) > LAW_TOL * scale:
            raise CheckFailed("igft(gft(f)) does not return f")
        # Paper law 1: index operators copy the low band verbatim.
        low_up = u1.T @ outputs["down_index_folded"]
        for tag in ("", "_folded"):
            pairs = [(u0.T @ outputs[f"up_index{tag}"])[: self.N1] - low_up]
            if coeffs is not None:
                pairs.append(u1.T @ outputs[f"down_index{tag}"] - coeffs[: self.N1])
                pairs.append(u2.T @ outputs[f"frac_index{tag}"] - coeffs[: self.N2])
            for diff in pairs:
                if np.linalg.norm(diff) > LAW_TOL * scale:
                    raise CheckFailed(f"index{tag} operators do not copy the low band")

    def written(self, out) -> tuple[int, int]:
        return 0, 0

    def _sketches(self) -> dict:
        """Norm and projections on fixed orthonormal vectors of every output
        for the reference signals."""
        bases = {}
        result = {}
        for name, (seed, cutoff) in self.REF_SIGNALS.items():
            _, f = self._signal(np.random.default_rng(seed), cutoff)
            result[name] = {}
            for op, y in self._apply_all(f).items():
                if y.size not in bases:
                    rnd = np.random.default_rng(y.size).standard_normal((y.size, self.SKETCH_DIM))
                    bases[y.size] = np.linalg.qr(rnd)[0]
                result[name][op] = [float(np.linalg.norm(y)), *map(float, bases[y.size].T @ y)]
        return result

    def final_check(self) -> list[str]:
        errors = []
        for name, ops in self._sketches().items():
            for op, sketch in ops.items():
                ref = self.reference["resample"][name][op]
                scale = RESAMPLE_TOL * ref[0]
                if abs(sketch[0] - ref[0]) > scale or math.dist(sketch[1:], ref[1:]) > scale:
                    errors.append(f"{name}/{op} differs from the reference output")
        return errors

    def record(self) -> dict:
        self.setup()
        return self._sketches()


WORKLOADS = {cls.name: cls for cls in (Presets, Pyramid, Resample)}
