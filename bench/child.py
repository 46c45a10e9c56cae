"""One benchmark process: prepare a workload's inputs, or make one verb call.

    python3 bench/child.py prep SPEC_JSON RESULT_JSON
    python3 bench/child.py call SPEC_JSON RESULT_JSON

``run.py`` starts a fresh process for every call, so each call pays the
``import s2r2`` and grows its memory from nothing, as a user's ``s2r2``
command does.  The spec names the checkout's ``src`` directory, and this
process imports s2r2 from there and nowhere else.

A call runs ``s2r2.cli.main`` in-process.  Untraced, it wraps a single
attribute (the first step or first probe) to time the end of set-up.
Traced, it also wraps the module attributes that ``s2r2.experiment``,
``s2r2.cli`` and ``s2r2.probe`` call into, keeps one span per wrapped
call in memory and writes the spans out when the call returns.  The
program's source is not edited.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

# (module under s2r2, attribute it calls through, span name).  The same
# function reached through two modules gets one span name; exact_ap is
# split by caller because the training diagnostic and retrieval use it
# at very different widths.
TRACED_ATTRIBUTES = [
    ("cli", "run_experiment", "experiment.run_experiment"),
    ("cli", "build_dataset", "experiment.build_dataset"),
    ("cli", "load_checkpoint", "encoder.load_checkpoint"),
    ("cli", "split", "data.split"),
    ("cli", "eval_view_dataset", "views.eval_view_dataset"),
    ("cli", "extract_features", "probe.extract_features"),
    ("cli", "train_linear_probe", "probe.train_linear_probe"),
    ("cli", "retrieval_map", "probe.retrieval_map"),
    ("experiment", "generate_synthetic", "data.generate_synthetic"),
    ("experiment", "load_binary_images", "data.load_binary_images"),
    ("experiment", "split", "data.split"),
    ("experiment", "eval_view_dataset", "views.eval_view_dataset"),
    ("experiment", "init_params", "encoder.init_params"),
    ("experiment", "sample_batch", "views.sample_batch"),
    ("experiment", "forward", "encoder.forward"),
    ("experiment", "cosine_similarity_matrix", "similarity.cosine_similarity_matrix"),
    ("experiment", "batch_smooth_ap_loss", "ranking.batch_smooth_ap_loss"),
    ("experiment", "info_nce_loss", "contrastive.info_nce_loss"),
    ("experiment", "backprop_similarity", "similarity.backprop_similarity"),
    ("experiment", "backward", "encoder.backward"),
    ("experiment", "adam_step", "encoder.adam_step"),
    ("experiment", "exact_ap", "ranking.exact_ap.diagnostic"),
    ("experiment", "extract_features", "probe.extract_features"),
    ("experiment", "train_linear_probe", "probe.train_linear_probe"),
    ("experiment", "retrieval_map", "probe.retrieval_map"),
    ("experiment", "save_checkpoint", "encoder.save_checkpoint"),
    ("probe", "exact_ap", "ranking.exact_ap.retrieval"),
]
ROOT_SPAN = "cli.main"
REFERENCE_CHUNK = 500  # query rows per block in the reference, bounds its memory


class Tracer:
    """In-memory spans ``[name, start_s, end_s, parent_index]``, one per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attribute: str, name: str) -> None:
        fn = getattr(module, attribute, None)
        if fn is None:  # the layer is not reached through this module
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attribute, traced)


def _import_s2r2(src: str):
    """Import s2r2 from the checkout's src directory; refuse any other copy."""
    sys.path.insert(0, src)
    import s2r2.cli  # noqa: F401  (pulls in every layer)
    import s2r2.experiment  # noqa: F401
    import s2r2.probe  # noqa: F401

    found = os.path.realpath(s2r2.__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported s2r2 from {found}, not from {src}")
    return s2r2


def _mark_first_call(module, attribute: str, marks: list) -> None:
    fn = getattr(module, attribute, None)
    if fn is None:
        raise SystemExit(f"set-up marker {module.__name__}.{attribute} does not exist")

    def marked(*args, **kwargs):
        if not marks:
            marks.append(time.perf_counter())
        return fn(*args, **kwargs)

    setattr(module, attribute, marked)


def run_call(spec: dict) -> dict:
    t0 = time.perf_counter()
    s2r2 = _import_s2r2(spec["src"])
    import_s = time.perf_counter() - t0

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        for module_name, attribute, name in TRACED_ATTRIBUTES:
            tracer.wrap(getattr(s2r2, module_name), attribute, name)
    marks: list[float] = []
    marker_module, marker_attribute = spec["setup_marker"]
    _mark_first_call(getattr(s2r2, marker_module), marker_attribute, marks)

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            rc = tracer.call(ROOT_SPAN, s2r2.cli.main, spec["argv"])
        else:
            rc = s2r2.cli.main(spec["argv"])
    wall_s = time.perf_counter() - start

    result = {
        "rc": rc,
        "import_s": import_s,
        "wall_s": wall_s,
        "setup_s": import_s + (marks[0] - start if marks else float("nan")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output": sink.getvalue()[-2000:],
    }
    if tracer is not None:
        result["spans"] = [[n, s - start, e - start, p] for n, s, e, p in tracer.spans]
    return result


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_image_bundle(s2r2, path: str, seed: int, classes: int, per_class: int, side: int) -> None:
    """Class-structured images: a square in the class's colour on dark noise."""
    import numpy as np

    rng = np.random.default_rng(seed)
    colours = rng.integers(96, 256, size=(classes, 3), dtype=np.uint8)
    square = side // 2
    images = rng.integers(0, 80, size=(classes * per_class, side, side, 3), dtype=np.uint8)
    labels = np.repeat(np.arange(classes), per_class)
    corners = rng.integers(0, side - square + 1, size=(classes * per_class, 2))
    for img, label, (r, c) in zip(images, labels, corners):
        img[r:r + square, c:c + square] = colours[label]
    s2r2.save_binary_images(path, images, labels, num_classes=classes)


def reference_retrieval_map(features, labels) -> float:
    """Mean exact AP of each row querying all other rows, by argsort.

    Same-label rows are relevant.  A relevant row's precision is
    (1 + relevant rows scored strictly higher) / (1 + rows scored
    strictly higher), so tied scores share the best rank.  Written
    without s2r2.ranking so that it checks the program's retrieval mAP.
    """
    import numpy as np

    unit = features / np.linalg.norm(features, axis=1, keepdims=True)
    labels = np.asarray(labels)
    n = labels.shape[0]
    aps = []
    for lo in range(0, n, REFERENCE_CHUNK):
        rows = np.arange(lo, min(lo + REFERENCE_CHUNK, n))
        sim = np.clip(unit[rows] @ unit.T, -1.0, 1.0)
        sim[np.arange(rows.size), rows] = -np.inf  # the query is not in its gallery
        order = np.argsort(-sim, axis=1, kind="stable")
        ranked = np.take_along_axis(sim, order, axis=1)
        relevant = (labels[order] == labels[rows, None]) & (order != rows[:, None])
        starts_run = np.ones(ranked.shape, dtype=bool)
        starts_run[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        higher = np.maximum.accumulate(np.where(starts_run, np.arange(n), 0), axis=1)
        relevant_before = np.cumsum(relevant, axis=1) - relevant
        relevant_higher = np.take_along_axis(relevant_before, higher, axis=1)
        precision = (1.0 + relevant_higher) / (1.0 + higher)
        aps.append((precision * relevant).sum(axis=1) / relevant.sum(axis=1))
    return float(np.concatenate(aps).mean())


def run_prep(spec: dict) -> dict:
    s2r2 = _import_s2r2(spec["src"])
    result = {"env": environment()}
    images = spec.get("images")
    if images:
        write_image_bundle(s2r2, images["path"], spec["seed"], images["classes"],
                           images["per_class"], images["side"])
    checkpoint = spec.get("checkpoint")
    if checkpoint:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = s2r2.cli.main(checkpoint["train_argv"])
        if rc != 0:
            raise SystemExit(f"training the eval checkpoint exited with {rc}")
        result["reference_retrieval_map"] = _reference_for_eval(s2r2, checkpoint)
    return result


def _reference_for_eval(s2r2, checkpoint: dict) -> float:
    """Features of the eval verb's test split, then the reference mAP."""
    from s2r2.experiment import build_dataset, stream_seed

    cfg = s2r2.with_overrides(s2r2.load_config(checkpoint["config"]), seed=checkpoint["seed"])
    params = s2r2.load_checkpoint(checkpoint["path"])
    _, test = s2r2.split(build_dataset(cfg), cfg.train_fraction, stream_seed(cfg.seed, "data", 1))
    test = s2r2.eval_view_dataset(test, cfg.augmentation)
    return reference_retrieval_map(s2r2.extract_features(params, test), test.labels)


def main() -> None:
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"prep": run_prep, "call": run_call}[mode](spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
