"""One benchmark workload, run in a fresh child process by ``run.py``.

Each workload trains the models a user of this repository trains, saves
one of them as an artifact, reloads it and serves it to one closed-loop
client (the next request is sent when the previous one has returned):

* ``table2_fullbatch``: the six Table II methods (GCN, ``Scale.quick()``
  epoch budgets, one model seed) on the generated ``bail`` and ``credit``
  datasets, full-batch with exact counterfactual retrieval; serves the
  Fairwos model of ``bail``.
* ``fairwos_ann_serve``: sampled float32 Fairwos on a 10k-node scale-free
  graph with the RP-forest backend maintained incrementally (one forest
  build, one update); serves it from the frozen forest.

The workload seed draws the graphs and the request stream; the library only
ever receives the generated graph.  Training seeds are fixed at 0, so a
given ``--seed`` always produces the same models and metrics.

Correctness is checked in the same run, and every failure is counted
against the operations attempted:

* every fit's test ACC/ΔSP/ΔEO repeats exactly across the units of a run,
  and at seed 0 matches ``goldens.json`` to 1e-9 (the warm-up always runs
  the smoke size at seed 0, so every run checks goldens);
* every served counterfactual satisfies Eq. 12: same pseudo-label,
  opposite side of its pseudo-attribute, invalid slots self-pointing;
* served predicted labels equal the live model's.

Prints one JSON object on its last stdout line; progress goes to stderr.
To re-record the goldens after a deliberate behaviour change::

    python3 perfbench/workload.py --workload table2_fullbatch --record-goldens
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
# Scratch space inside the checkout (ignored by git): artifacts and traces.
SCRATCH = ROOT / ".perfbench"

# Generation takes 0.1-0.4 s, short enough for one slow phase of a shared
# machine to move a median of three; nine span a few seconds.
SETUP_REPEATS = 9
GOLDEN_TOL = 1e-9
SCORE_NODES = 256
CF_NODES = 32
# A run makes at least MIN_UNITS units, so its medians and percentiles
# span two fits and two serving sessions rather than one phase of a
# shared machine (one 33 s unit per run spread fairwos_ann_serve's fit_s
# 20% over ten seeds).  A client round is one score request followed by
# one counterfactual request; the units of a run together make at least
# 100 rounds, which puts ten samples of each beyond the reported p90.
# Millisecond requests get more rounds, so that their latencies span
# seconds of the run.
MIN_UNITS = 2

TABLE2_DATASETS = ("bail", "credit")
TABLE2_SERVED = ("bail", "fairwos")
SIZES = {
    "table2_fullbatch": {
        "full": {"epochs": 120, "finetune_epochs": 15, "rounds": 250},
        "smoke": {"epochs": 10, "finetune_epochs": 2, "rounds": 10},
    },
    "fairwos_ann_serve": {
        "full": {"nodes": 10_000, "pretrain_epochs": 10, "finetune_epochs": 6, "refresh": 3, "rounds": 50},
        "smoke": {"nodes": 1_000, "pretrain_epochs": 2, "finetune_epochs": 2, "refresh": 1, "rounds": 10},
    },
}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(
            f"repro was imported from {repro.__file__}, not from {src}"
        )


# --------------------------------------------------------------------- #
@dataclass
class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")


@dataclass
class Trained:
    """Outcome of training one unit of a workload."""

    fits: dict[str, tuple[float, float, float]]
    timings: dict[str, float]
    model: object
    graph: object
    live_logits: np.ndarray
    seconds: float = 0.0


@dataclass
class Served:
    """Latencies and checks of one serving session."""

    score_ms: list[float] = field(default_factory=list)
    cf_ms: list[float] = field(default_factory=list)
    max_abs_diff: float = 0.0
    # (nodes, served indices, served valid) per counterfactual request,
    # restricted to the requested rows; kept for recall after the loop.
    cf_rows: list[tuple] = field(default_factory=list)
    artifact: object = None
    directory: Path | None = None
    # Indexed representations, for the distance-based recall.
    points: np.ndarray | None = None


# --------------------------------------------------------------------- #
def setup(workload: str, size: str, seed: int):
    """Generate the workload's graphs from its seed."""
    from repro.datasets import generate_scale_free_graph, load_dataset

    params = SIZES[workload][size]
    if workload == "table2_fullbatch":
        return [load_dataset(name, seed=seed) for name in TABLE2_DATASETS]
    return [generate_scale_free_graph(num_nodes=params["nodes"], seed=seed).standardized()]


def train(workload: str, size: str, graphs, tracer) -> Trained:
    """Train every model of one unit; returns the fits and the served model."""
    from repro.core import FairwosConfig
    from repro.experiments import methods

    params = SIZES[workload][size]
    fits: dict[str, tuple[float, float, float]] = {}
    timings: dict[str, float] = {}
    served = None

    def fit(key, method, graph, keep, **kwargs):
        nonlocal served
        with tracer.span(f"baselines.{method}.fit"):
            result = methods.run_method(
                method, graph, seed=0, keep_model=keep, keep_logits=keep, **kwargs
            )
        test = result.test
        fits[key] = (test.accuracy, test.delta_sp, test.delta_eo)
        for phase, seconds in result.extra.get("timings", {}).items():
            timings[phase] = timings.get(phase, 0.0) + seconds
        if keep:
            served = (result.extra["model"], graph, result.extra["logits"])

    start = time.perf_counter()
    if workload == "table2_fullbatch":
        for graph in graphs:
            for method in methods.METHOD_ORDER:
                fit(
                    f"{graph.name}/{method}",
                    method,
                    graph,
                    (graph.name, method) == TABLE2_SERVED,
                    backbone="gcn",
                    epochs=params["epochs"],
                    finetune_epochs=params["finetune_epochs"],
                    # Fixed epochs: early stopping would make the amount of
                    # work depend on the seed's graph.
                    patience=None,
                )
    else:
        overrides = methods.FAIRWOS_OVERRIDES["default"]
        config = FairwosConfig(
            encoder_epochs=params["pretrain_epochs"],
            classifier_epochs=params["pretrain_epochs"],
            finetune_epochs=params["finetune_epochs"],
            # No early stop and no validation floor, so every seed runs all
            # fine-tune epochs: one forest build, then one update.
            patience=None,
            finetune_val_tolerance=None,
            minibatch=True,
            fanouts=(10, 5),
            num_layers=2,
            batch_size=1024,
            cf_backend="ann",
            cf_update="incremental",
            cf_refresh_epochs=params["refresh"],
            cf_attrs_per_step=4,
            max_pseudo_attributes=8,
            dtype="float32",
            **overrides,
        )
        fit("scalefree/fairwos", "fairwos", graphs[0], True, fairwos_config=config)
    seconds = time.perf_counter() - start
    model, graph, live = served
    return Trained(fits, timings, model, graph, np.asarray(live), seconds)


def check_fits(
    trained: Trained, reference: dict | None, golden: dict | None, ledger: Ledger
) -> None:
    """Each fit repeats the first unit's metrics exactly and, when given,
    matches the goldens to ``GOLDEN_TOL``."""
    for key, values in trained.fits.items():
        ok = all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
        why = f"fit {key} metrics {values}"
        if reference is not None:
            ok = ok and reference.get(key) == values
            why += f" vs first unit {reference.get(key)}"
        if golden is not None:
            expect = golden.get(key)
            ok = ok and expect is not None and all(
                abs(a - b) <= GOLDEN_TOL for a, b in zip(values, expect)
            )
            why += f" vs golden {expect}"
        ledger.record(ok, why)


def check_counterfactuals(cf, nodes, pseudo_labels, binary_attrs) -> str | None:
    """Eq. 12 constraints on one served retrieval; returns the violation."""
    indices, valid = cf.indices, cf.valid
    num_attrs, n, _ = indices.shape
    if valid.shape != (num_attrs, n) or binary_attrs.shape[1] != num_attrs:
        return f"shape mismatch {indices.shape} / {valid.shape}"
    if indices.min() < 0 or indices.max() >= n:
        return "node id out of range"
    outside = np.ones(n, dtype=bool)
    outside[nodes] = False
    own = np.arange(n)[None, :, None]
    if valid[:, outside].any() or not (indices == own)[:, outside].all():
        return "rows outside the request were touched"
    rows = indices[:, nodes, :]
    rows_valid = valid[:, nodes]
    queries = nodes[None, :, None]
    if not (rows[~rows_valid] == np.broadcast_to(queries, rows.shape)[~rows_valid]).all():
        return "an invalid slot does not self-point"
    attr = np.arange(num_attrs)[:, None, None]
    same_label = pseudo_labels[rows] == pseudo_labels[queries]
    opposite = binary_attrs[rows, attr] != binary_attrs[queries, attr]
    bad = ~(same_label & opposite).all(axis=2) & rows_valid
    if bad.any():
        return f"{int(bad.sum())} valid pairs break the label/side constraint"
    return None


def serve(
    trained: Trained, seed: int, unit: int, rounds: int, ledger: Ledger, inject: str
) -> Served:
    """Save, reload and serve the unit's Fairwos model to one closed-loop
    client."""
    import repro.io

    SCRATCH.mkdir(exist_ok=True)
    out = Served(directory=Path(tempfile.mkdtemp(prefix="artifact-", dir=SCRATCH)))
    try:
        path = out.directory / "model"
        repro.io.save_artifact(trained.model, trained.graph, path)
        artifact = out.artifact = repro.io.load_artifact(path)
        ledger.record(True, "save_artifact + load_artifact")
        with np.load(path / "arrays.npz") as arrays:
            pseudo_labels = arrays["pseudo_labels"].astype(np.int64)
            binary_attrs = arrays["binary_attrs"].astype(np.int64)
        with np.load(path / "index.npz") as index:
            out.points = index["points"]
        live = trained.live_logits
        n = trained.graph.num_nodes
        rng = np.random.default_rng([seed, unit])
        for request in range(rounds):
            nodes = rng.choice(n, size=min(SCORE_NODES, n), replace=False)
            try:
                start = time.perf_counter()
                logits = artifact.score(nodes=nodes)
                out.score_ms.append((time.perf_counter() - start) * 1e3)
                out.max_abs_diff = max(
                    out.max_abs_diff, float(np.abs(logits - live[nodes]).max())
                )
                ledger.record(
                    bool(np.array_equal(logits > 0, live[nodes] > 0)),
                    f"score request {request}: served labels differ from the live model",
                )
            except Exception:  # keep serving; the request counts as failed
                ledger.record(False, f"score request {request}\n{traceback.format_exc()}")
            nodes = np.sort(rng.choice(n, size=min(CF_NODES, n), replace=False))
            try:
                start = time.perf_counter()
                cf = artifact.counterfactuals(nodes=nodes)
                out.cf_ms.append((time.perf_counter() - start) * 1e3)
                if inject == "flip_cf_side" and unit == 0 and request == 0:
                    attr, row = np.argwhere(cf.valid[:, nodes])[0]
                    cf.indices[attr, nodes[row], 0] = nodes[row]
                problem = check_counterfactuals(cf, nodes, pseudo_labels, binary_attrs)
                ledger.record(problem is None, f"counterfactual request {request}: {problem}")
                out.cf_rows.append(
                    (nodes, cf.indices[:, nodes, :].copy(), cf.valid[:, nodes].copy())
                )
            except Exception:
                ledger.record(False, f"counterfactual request {request}\n{traceback.format_exc()}")
        return out
    except BaseException:
        shutil.rmtree(out.directory, ignore_errors=True)
        raise


def recall_at_k(served: Served) -> float:
    """Recall@K of the served twins against exhaustive retrieval.

    A served twin is a hit when it is no farther from its query than the
    K-th exhaustive twin, so a tie between equidistant nodes is not a miss
    (trained embeddings often collapse onto few distinct points).  Each
    valid exhaustive row contributes its number of distinct twins; its
    hits are capped at that number.  Runs after the timed loop.
    """
    points = served.points
    hits = total = 0
    for nodes, indices, valid in served.cf_rows:
        exact = served.artifact.counterfactuals(nodes=nodes, probes="exhaustive")
        truth = exact.indices[:, nodes, :]
        truth_valid = exact.valid[:, nodes]
        queries = points[nodes][None, :, None, :]
        radius = ((points[truth] - queries) ** 2).sum(-1).max(-1, keepdims=True)
        within = ((points[indices] - queries) ** 2).sum(-1) <= radius * (1 + 1e-9) + 1e-12
        k = indices.shape[2]
        earlier = np.tril(np.ones((k, k), dtype=bool), -1)

        def distinct(ids):
            return ~((ids[..., :, None] == ids[..., None, :]) & earlier).any(-1)

        wanted = distinct(truth).sum(-1) * truth_valid
        found = (within & distinct(indices)).sum(-1) * (valid & truth_valid)
        hits += int(np.minimum(found, wanted).sum())
        total += int(wanted.sum())
    return hits / total if total else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    return float(np.percentile(values, q, method="lower"))


# --------------------------------------------------------------------- #
def entry_points():
    """The layer entry points the traced run wraps, with count hooks."""
    indexed = {"n": 0}

    def note_prepare(tracer, args, kwargs, result):
        indexed["n"] = len(args[1] if len(args) > 1 else kwargs["points"])

    def count_topk(tracer, args, kwargs, result):
        tracer.count("topk.rows", len(args[1]))
        tracer.count("topk.candidates", len(args[2]))
        tracer.count("topk.indexed", indexed["n"])

    def count_search(tracer, args, kwargs, result):
        if kwargs.get("nodes") is None and len(args) < 5:
            tracer.count("search.full_nodes", len(args[1]))

    def count_edges(tracer, args, kwargs, result):
        tracer.count("sampled_edges", sum(block.adjacency.nnz for block in result))

    return [
        ("repro.core.counterfactual:CounterfactualSearch.search", "core.counterfactual.search", count_search),
        ("repro.core.ann:exact_topk", "core.ann.exact_topk", None),
        ("repro.core.ann:ExactBackend.prepare", "core.ann.backend_prepare", note_prepare),
        ("repro.core.ann:ExactBackend.topk", "core.ann.backend_topk", count_topk),
        ("repro.core.ann:AnnBackend.prepare", "core.ann.backend_prepare", note_prepare),
        ("repro.core.ann:AnnBackend.topk", "core.ann.backend_topk", count_topk),
        ("repro.core.ann:RPForestIndex.build", "core.ann.forest_build", None),
        ("repro.core.ann:RPForestIndex.update", "core.ann.forest_update", None),
        ("repro.core.ann:RPForestIndex.query", "core.ann.forest_query", None),
        ("repro.core.fairloss:fair_representation_loss", "core.fairloss", None),
        ("repro.core.fairloss:fair_representation_loss_minibatch", "core.fairloss", None),
        ("repro.graph.sampling:NeighborSampler.sample_blocks", "graph.sampling.sample_blocks", count_edges),
        ("repro.training.engine:MinibatchEngine.run", "training.engine.run", None),
        ("repro.training.loop:fit_binary_classifier", "training.loop.fit_binary_classifier", None),
        ("repro.training.engine:predict_logits_batched", "training.predict_logits_batched", None),
        ("repro.training.engine:embed_batched", "training.embed_batched", None),
        ("repro.tensor.tensor:Tensor.backward", "tensor.backward", None),
        ("repro.optim.adam:Adam.step", "optim.adam.step", None),
        ("repro.gnnzoo.base:GNNBackbone.forward", "gnnzoo.forward", None),
        ("repro.io.artifact:save_artifact", "io.save_artifact", None),
        ("repro.io.artifact:load_artifact", "io.load_artifact", None),
        ("repro.io.artifact:ModelArtifact.score", "io.artifact.score", None),
        ("repro.io.artifact:ModelArtifact.counterfactuals", "io.artifact.counterfactuals", None),
        ("repro.datasets.registry:load_dataset", "datasets.generate", None),
        ("repro.datasets.scalefree:generate_scale_free_graph", "datasets.generate", None),
    ]


# Span names reported as <name>.s, <name>.self_s and <name>.calls.
SPAN_METRICS = [
    "core.counterfactual.search",
    "core.ann.exact_topk",
    "core.ann.backend_prepare",
    "core.ann.backend_topk",
    "core.ann.forest_query",
    "core.ann.forest_build",
    "core.ann.forest_update",
    "core.fairloss",
    "graph.sampling.sample_blocks",
    "training.engine.run",
    "training.loop.fit_binary_classifier",
    "training.predict_logits_batched",
    "training.embed_batched",
    "tensor.backward",
    "optim.adam.step",
    "gnnzoo.forward",
    "io.save_artifact",
    "io.load_artifact",
    "io.artifact.score",
    "io.artifact.counterfactuals",
    "datasets.generate",
]
METHODS = ("vanilla", "remover", "ksmote", "fairrf", "fairgkd", "fairwos")
PHASES = ("encoder", "classifier_pretrain", "finetune")


def metric(out: dict, name: str, value: float, unit: str, n: int = 1) -> None:
    out[name] = {"value": float(value), "unit": unit, "n": int(n)}


def quality_metrics(trained: Trained) -> tuple[float, float, float]:
    """Mean test ACC, ΔSP and ΔEO over the unit's fits."""
    return tuple(float(np.mean([v[i] for v in trained.fits.values()])) for i in range(3))


# --------------------------------------------------------------------- #
def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def run(args) -> dict:
    from tracer import NullTracer, Tracer, instrument

    workload, seed = args.workload, args.seed
    size = "smoke" if args.smoke else "full"
    goldens = load_goldens().get(workload, {})
    ledger = Ledger()
    null = NullTracer()

    # Warm-up outside the timed region: imports, first-call paths and the
    # smoke-size goldens at seed 0, on every run whatever --seed is.
    start = time.perf_counter()
    warm = train(workload, "smoke", setup(workload, "smoke", 0), null)
    check_fits(warm, None, goldens.get("smoke", {}), ledger)
    warm_served = serve(warm, 0, 0, SIZES[workload]["smoke"]["rounds"], ledger, "none")
    shutil.rmtree(warm_served.directory, ignore_errors=True)
    log(f"warm-up {time.perf_counter() - start:.2f}s")

    golden = goldens.get(size, {}) if seed == 0 else None
    rounds = SIZES[workload][size]["rounds"]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        graphs = setup(workload, size, seed)
        setup_times.append(time.perf_counter() - start)

    metrics: dict = {}
    if not args.trace:
        units: list[Trained] = []
        sessions: list[Served] = []
        measured = 0.0
        try:
            while len(units) < MIN_UNITS or measured < args.seconds:
                start = time.perf_counter()
                trained = train(workload, size, graphs, null)
                check_fits(trained, units[0].fits if units else None, golden, ledger)
                sessions.append(serve(trained, seed, len(units), rounds, ledger, args.inject))
                measured += time.perf_counter() - start
                units.append(trained)
                acc, dsp, deo = quality_metrics(trained)
                log(
                    f"unit {len(units)}: fit {trained.seconds:.2f}s, measured "
                    f"{measured:.1f}s; mean test ACC {acc:.4f} dSP {dsp:.4f} dEO {deo:.4f}"
                )
        finally:
            for session in sessions:
                shutil.rmtree(session.directory, ignore_errors=True)
        score_ms = [x for s in sessions for x in s.score_ms]
        metric(metrics, "setup_s", statistics.median(setup_times), "s", SETUP_REPEATS)
        metric(metrics, "fit_s", statistics.median(u.seconds for u in units), "s", len(units))
        metric(metrics, "test_acc", quality_metrics(units[0])[0], "fraction", len(units[0].fits))
        cf_ms = [x for s in sessions for x in s.cf_ms]
        metric(metrics, "score_p90_ms", percentile(score_ms, 90), "ms", len(score_ms))
        metric(metrics, "cf_p90_ms", percentile(cf_ms, 90), "ms", len(cf_ms))
    else:
        # Untraced fit first, for the overhead comparison; then one traced
        # setup + unit whose spans give the per-layer split.
        plain = train(workload, size, graphs, null)
        check_fits(plain, None, golden, ledger)
        tracer = Tracer(workload)
        traced_start = time.perf_counter()
        with instrument(tracer, entry_points()):
            graphs = setup(workload, size, seed)
            trained = train(workload, size, graphs, tracer)
            check_fits(trained, plain.fits, golden, ledger)
            session = serve(trained, seed, 0, rounds, ledger, args.inject)
        traced_wall = time.perf_counter() - traced_start
        try:
            recall = recall_at_k(session)
        finally:
            shutil.rmtree(session.directory, ignore_errors=True)
        summary = tracer.summary()
        empty = {"s": 0.0, "self_s": 0.0, "calls": 0}
        for name in SPAN_METRICS:
            entry = summary.get(name, empty)
            metric(metrics, f"{name}.s", entry["s"], "s", entry["calls"])
            metric(metrics, f"{name}.self_s", entry["self_s"], "s", entry["calls"])
            metric(metrics, f"{name}.calls", entry["calls"], "count")
        for method in METHODS:
            entry = summary.get(f"baselines.{method}.fit", empty)
            metric(metrics, f"baselines.{method}.fit_s", entry["s"], "s", entry["calls"])
        for phase in PHASES:
            metric(metrics, f"core.trainer.{phase}.s", trained.timings.get(phase, 0.0), "s")
        counters = tracer.counters
        full_nodes = counters.get("search.full_nodes", 0.0)
        indexed = counters.get("topk.indexed", 0.0)
        metric(
            metrics,
            "core.ann.query_rows_per_node",
            counters.get("topk.rows", 0.0) / full_nodes if full_nodes else 0.0,
            "ratio",
        )
        metric(
            metrics,
            "core.ann.mask_keep_ratio",
            counters.get("topk.candidates", 0.0) / indexed if indexed else 0.0,
            "ratio",
        )
        metric(metrics, "graph.sampling.sampled_edges", counters.get("sampled_edges", 0.0), "count")
        metric(metrics, "io.artifact.score_max_abs_diff", session.max_abs_diff, "logit", len(session.score_ms))
        metric(metrics, "serve.score_p50_ms", percentile(session.score_ms, 50), "ms", len(session.score_ms))
        metric(metrics, "serve.cf_p50_ms", percentile(session.cf_ms, 50), "ms", len(session.cf_ms))
        metric(metrics, "serve.cf_recall_at_k", recall, "fraction", len(session.cf_rows))
        _, dsp, deo = quality_metrics(trained)
        metric(metrics, "test_dsp", dsp, "fraction", len(trained.fits))
        metric(metrics, "test_deo", deo, "fraction", len(trained.fits))
        metric(
            metrics,
            "trace.unattributed.s",
            traced_wall - tracer.top_level_seconds(traced_start),
            "s",
        )
        metric(metrics, "trace.overhead_frac", trained.seconds / plain.seconds - 1.0, "ratio")
        stem = f"{workload}-{size}-seed{seed}"
        for written in tracer.write(SCRATCH / "traces", stem):
            log(f"wrote {written.relative_to(ROOT)}")

    return {"attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}


def record_goldens(workload: str) -> None:
    """Write seed-0 smoke and full fit metrics of ``workload`` to goldens.json."""
    from tracer import NullTracer

    goldens = load_goldens()
    entry = goldens.setdefault(workload, {})
    for size in ("smoke", "full"):
        trained = train(workload, size, setup(workload, size, 0), NullTracer())
        entry[size] = {key: list(values) for key, values in sorted(trained.fits.items())}
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    log(f"recorded goldens for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", choices=("none", "flip_cf_side"), default="none")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    import_library()
    if args.record_goldens:
        record_goldens(args.workload)
        return 0
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
