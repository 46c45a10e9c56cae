"""Numerical checks of the load-bearing math, behind the ``selftest`` CLI verb.

One function per check, each drawing its instances from the caller's
generator and returning the worst value it measured: the smooth
objective against exact average precision at a tiny smoothing width,
each analytic gradient against central finite differences, and the
hand-derived batch cases.  ``s2r2 selftest`` runs them at small counts;
acceptance criteria 1-3 of the test suite run the same functions with
their own seeds and larger counts, and keep their own bounds.

Gradient errors are relative to the larger infinity norm of the two
gradients; instances below the finite-difference resolution, or on a
ReLU kink, are redrawn.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .contrastive import ContrastiveConfig, info_nce_loss
from .encoder import EncoderConfig, backward, forward, init_params
from .ranking import SmoothingConfig, batch_smooth_ap_loss, exact_ap, smooth_ap, smooth_ap_grad
from .similarity import backprop_similarity, cosine_similarity_matrix

__all__ = [
    "CheckResult", "run_selftest", "central_diff", "max_rel_err", "margin_scores",
    "random_posneg_mask", "ap_instances", "smooth_vs_exact_ap_gap", "smooth_ap_grad_error",
    "similarity_backprop_error", "encoder_backward_error", "info_nce_error", "batch_hand_cases",
]

class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


def central_diff(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function.

    Perturbs the passed array in place entry by entry (restoring it), so
    closures over `x` itself also work.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for k in range(flat_x.size):
        orig = flat_x[k]
        flat_x[k] = orig + eps
        hi = fn(x)
        flat_x[k] = orig - eps
        lo = fn(x)
        flat_x[k] = orig
        flat_g[k] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def margin_scores(rng, m, margin=1e-2):
    """m distinct scores on a `margin`-spaced grid in [0, 1)."""
    grid = np.arange(int(round(1.0 / margin))) * margin
    return rng.choice(grid, size=m, replace=False)


def random_posneg_mask(rng, m):
    """Boolean mask with at least one positive and one negative."""
    n_pos = int(rng.integers(1, m))
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, size=n_pos, replace=False)] = True
    return mask


def ap_instances(rng, trials):
    """`trials` (scores, mask) pairs, m in [4, 64], pairwise margins >= 1e-2."""
    for _ in range(trials):
        m = int(rng.integers(4, 65))
        yield margin_scores(rng, m), random_posneg_mask(rng, m)


def smooth_vs_exact_ap_gap(rng, trials):
    """Largest |smooth AP at tau = 1e-6 - exact AP| over `ap_instances`."""
    cfg = SmoothingConfig(tau=1e-6)
    return max(abs(smooth_ap(scores, mask, cfg) - exact_ap(scores, mask))
               for scores, mask in ap_instances(rng, trials))


def smooth_ap_grad_error(rng, trials):
    """Smooth-AP gradient w.r.t. the scores.  Scores are drawn at ~3*tau so
    sigmoid slopes are resolvable; fully saturated instances are redrawn."""
    cfg = SmoothingConfig()
    errs = []
    while len(errs) < trials:
        m = int(rng.integers(4, 33))
        scores = rng.normal(size=m) * 3 * cfg.tau
        mask = random_posneg_mask(rng, m)
        grad = smooth_ap_grad(scores, mask, cfg)
        if np.max(np.abs(grad)) < 1e-5:
            continue
        numeric = central_diff(lambda s: smooth_ap(scores, mask, cfg), scores)
        errs.append(max_rel_err(grad, numeric))
    return max(errs)


def similarity_backprop_error(rng, trials):
    """Cosine-similarity backprop w.r.t. the input vectors."""
    errs = []
    for _ in range(trials):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 7))
        vecs = rng.normal(size=(n, d))
        upstream = rng.normal(size=(n, n))
        analytic = backprop_similarity(vecs, upstream)
        numeric = central_diff(
            lambda v: float(np.sum(upstream * cosine_similarity_matrix(vecs))), vecs)
        errs.append(max_rel_err(analytic, numeric))
    return max(errs)


def encoder_backward_error(rng, trials):
    """Encoder backward over every weight and bias, readout sum(G * proj).
    Networks whose ReLU inputs sit within the step of the kink are
    redrawn: the secant is not the derivative across a kink."""
    ecfg = EncoderConfig(hidden_dims=(6,), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)
    errs = []
    while len(errs) < trials:
        params = init_params(ecfg, 4, int(rng.integers(1 << 30)), dtype=np.float64)
        x = rng.normal(size=(5, 4))
        upstream = rng.normal(size=(5, 3))
        _, _, cache = forward(params, x)
        # each layer's pre-activation, recomputed from its cached input
        if min(float(np.min(np.abs(h @ w + b)))
               for h, w, b in zip(cache, params.weights, params.biases)) < 1e-4:
            continue
        backward(params, cache, upstream)

        # central_diff perturbs the parameter array in place, so the
        # readout ignores its argument and reruns the forward pass
        def readout(_):
            _, proj, _ = forward(params, x)
            return float(np.sum(upstream * proj))

        inst = []
        for li in range(len(params.weights)):
            for arr, grad in ((params.weights[li], params.grad_weights[li]),
                              (params.biases[li], params.grad_biases[li])):
                inst.append(max_rel_err(grad, central_diff(readout, arr)))
        errs.append(max(inst))
    return max(errs)


def info_nce_error(rng, trials):
    """InfoNCE gradient w.r.t. the similarity matrix over B x K shapes
    4 x 2, 2 x 4 and the odd 2 x 3 in turn, and the loss of an all-equal
    2 x 2 batch (one positive, two negatives: ln 3) as a relative error."""
    ones = info_nce_loss(np.ones((4, 4)), 2).loss
    errs = [abs(ones - np.log(3.0)) / np.log(3.0)]
    ccfg = ContrastiveConfig()
    for i in range(trials):
        b, k = ((4, 2), (2, 4), (2, 3))[i % 3]
        sims = rng.uniform(-1, 1, size=(b * k, b * k))
        sims = (sims + sims.T) / 2
        np.fill_diagonal(sims, 1.0)
        res = info_nce_loss(sims, k, ccfg)
        numeric = central_diff(lambda s: info_nce_loss(sims, k, ccfg).loss, sims)
        errs.append(max_rel_err(res.grad_wrt_similarities, numeric))
    return max(errs)


def batch_hand_cases():
    """(|collapsed loss - 1/2|, separated loss) of two 2 x 2 batches, tau = 0.01:
    identical views tie each positive with two negatives (loss 1/2); sources on
    orthogonal directions lead by 1 >> tau (every AP 1, loss 0)."""
    cfg = SmoothingConfig(tau=0.01)
    collapsed = batch_smooth_ap_loss(np.ones((4, 4)), 2, cfg).loss
    reps = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    separated = batch_smooth_ap_loss(cosine_similarity_matrix(reps), 2, cfg).loss
    return abs(collapsed - 0.5), separated


def _grad_check(name, err, over):
    return CheckResult(name, err <= 1e-4, f"max relative error = {err:.2e} over {over}")


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Run the six checks at small counts on one generator seeded by `seed`."""
    rng = np.random.default_rng(seed)
    gap = smooth_vs_exact_ap_gap(rng, 200)
    checks = [
        CheckResult("smooth objective matches exact AP at tau=1e-6", gap <= 1e-4,
                    f"max |smooth - exact| = {gap:.2e} over 200 instances"),
        _grad_check("smooth AP gradient matches finite differences",
                    smooth_ap_grad_error(rng, 20), "20 instances"),
        _grad_check("cosine-similarity backprop matches finite differences",
                    similarity_backprop_error(rng, 10), "10 instances"),
        _grad_check("encoder backward matches finite differences",
                    encoder_backward_error(rng, 5), "5 networks"),
        _grad_check("contrastive loss and gradient", info_nce_error(rng, 10),
                    "10 instances and the ln-3 case"),
    ]
    collapsed_gap, separated = batch_hand_cases()
    checks.append(CheckResult(
        "hand-derived batch cases", collapsed_gap <= 1e-9 and separated <= 1e-4,
        f"ties -> 1/2 off by {collapsed_gap:.2e}; perfect separation -> {separated:.2e}"))
    return checks
