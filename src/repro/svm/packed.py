"""Packed per-class SVM scoring: one GEMM per predicted class present.

The paper's detector keeps one one-class SVM per (layer, predicted class)
and scores each image only against the SVM of its predicted class. This
module packs a layer's per-class SVMs, together with their per-class
standardisation, into one contiguous row matrix. Scoring groups a batch by
predicted class once (:func:`group_by_class`, shared by every layer of a
batch) and runs one GEMM per class present, against that class's rows
only — the same shape as the reference loop in
``LayerValidator.discrepancy``, without its per-class scaler pass and with
the kernel algebra folded into the rows.

The algebraic trick that removes the scaler pass: each class scores
queries as ``k((x - m_c) / s_c, v)`` against support vectors ``v`` living
in that class's scaled space. Each SVM stores its support rows as the raw
probe rows ``u`` they were fitted from (``v = (u - m_c) / s_c``), which
turns

* the RBF's squared distance into a diagonally-weighted distance
  ``sum_d (x_d - u_d)^2 / s_{c,d}^2``, which expands into one matrix
  product against ``[x, 1]`` plus a per-sample quadratic; and
* the linear/polynomial inner product into ``x . (v / s_c) - m_c . (v / s_c)``,
  a single matrix product against ``[x, 1]``.

Both forms are exact — packed scores match the per-sample reference path
to floating-point reassociation error (the differential test harness pins
this at 1e-8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.svm.kernels import Kernel, LinearKernel, PolynomialKernel, RBFKernel
from repro.svm.oneclass import OneClassSVM


class ClassGroups(NamedTuple):
    """One chunk's rows grouped by predicted class.

    Rows ``order[bounds[g]:bounds[g + 1]]`` predicted ``classes[g]``, in
    input order. Every layer of a batch scores against the same grouping,
    so the validation engine builds it once per chunk.
    """

    order: np.ndarray          # (n,) stable argsort of the predictions
    classes: np.ndarray        # (k,) class ids present, ascending
    bounds: tuple[int, ...]    # (k+1,) group bounds in sorted row order


def group_by_class(predicted: np.ndarray) -> ClassGroups:
    """The :class:`ClassGroups` of a chunk's predicted class ids."""
    predicted = np.asarray(predicted)
    order = np.argsort(predicted, kind="stable")
    ordered = predicted[order]
    starts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    bounds = (0, *starts, len(ordered)) if len(ordered) else (0,)
    return ClassGroups(order, ordered[list(bounds[:-1])], bounds)


class _ClassKernel(NamedTuple):
    """One class's slices of a pack, bound once so scoring never re-slices."""

    rows_t: np.ndarray         # (d+1, m_c) transposed coefficient rows
    weight: np.ndarray         # (m_c,) -alpha / ||w||
    count: int                 # m_c
    metric: np.ndarray | None  # (d,) RBF diagonal metric, else None


@dataclass
class PackedClassSVMs:
    """All per-class one-class SVMs of one layer, packed for batch scoring.

    ``M`` is the total support-vector count across classes and ``C`` the
    number of classes. Rows ``bounds[c]:bounds[c + 1]`` of ``coef_rows``
    and ``weight`` belong to class position ``c``. The discrepancy
    ``-(k . alpha - rho) / ||w||`` is stored pre-divided: ``weight`` holds
    ``-alpha / ||w||`` and ``offset`` holds ``rho / ||w||``.

    Construction binds each class's transposed row block, weight slice,
    support count and metric row as views of these arrays, so in-place
    edits of ``coef_rows`` or ``weight`` reach the scorer. A chunk's class
    group then costs one GEMM into a flat buffer shared by the chunk's
    groups, a quadratic GEMV and subtract (RBF), and one GEMV; the kernel
    map and the offset run once over the whole chunk
    (:meth:`score_groups`).
    """

    classes: np.ndarray        # (C,) sorted class ids
    kernel_name: str           # "rbf" | "linear" | "poly"
    bounds: np.ndarray         # (C+1,) row offsets of each class's support vectors
    coef_rows: np.ndarray      # (M, d+1) kernel-specific row matrix, see below
    weight: np.ndarray         # (M,) -alpha / ||w|| of the row's class
    offset: np.ndarray         # (C,) rho / ||w||
    degree: int                # poly degree (1 elsewhere)
    coef0: float               # poly bias (0.0 elsewhere)
    # RBF only: gamma-scaled diagonal metric gamma_c / s_c^2, shape (C, d).
    metric: np.ndarray | None
    _kernels: list[_ClassKernel] = field(init=False, repr=False, compare=False)
    _positions: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._positions = {klass: p for p, klass in enumerate(self.classes.tolist())}
        bounds = np.asarray(self.bounds).tolist()
        self._kernels = [
            _ClassKernel(
                self.coef_rows[start:stop].T,
                self.weight[start:stop],
                stop - start,
                None if self.metric is None else self.metric[position],
            )
            for position, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        ]

    @property
    def n_support(self) -> int:
        return len(self.weight)

    # -- scoring ---------------------------------------------------------------

    def _sorted_discrepancy(
        self, augmented: np.ndarray, positions: list[int], bounds: tuple[int, ...]
    ) -> np.ndarray:
        """Discrepancies of class-sorted ``[x, 1]`` rows, in sorted order.

        Rows ``bounds[g]:bounds[g + 1]`` belong to class position
        ``positions[g]``. Each group's GEMM against its class's
        coefficient rows lands in one flat buffer shared by the chunk.
        All affine terms are folded into the rows; for RBF, one GEMV per
        group gives the per-sample quadratic ``gamma x.(w*x)``, and one
        subtract over the buffer completes ``-gamma * sq_dist``. The clamp
        and ``exp`` (or the poly power) run once over the buffer, each
        group's GEMV against its weights lands in the output, and the
        offsets are added once. ``np.dot`` with ``out=`` runs the same
        BLAS calls as ``@`` at a lower per-call cost.
        """
        kernels = [self._kernels[position] for position in positions]
        spans = list(zip(kernels, bounds, bounds[1:]))
        sizes = [stop - start for _, start, stop in spans]
        flat = np.empty(sum(size * kernel.count for size, kernel in zip(sizes, kernels)))
        rbf = self.kernel_name == "rbf"
        if rbf:
            # One group's squares at a time: a whole-chunk square would be
            # a second chunk-sized temporary, out of cache at wide chunks.
            squares = np.empty((max(sizes, default=0), augmented.shape[1] - 1))
            quadratic = np.empty(len(augmented))
            widths: list[int] = []  # each sorted row's support count
        blocks = []
        used = 0
        for kernel, start, stop in spans:
            end = used + (stop - start) * kernel.count
            block = flat[used:end].reshape(stop - start, kernel.count)
            blocks.append(np.dot(augmented[start:stop], kernel.rows_t, out=block))
            used = end
            if rbf:
                square = np.square(augmented[start:stop, :-1], out=squares[: stop - start])
                np.dot(square, kernel.metric, out=quadratic[start:stop])
                widths += [kernel.count] * (stop - start)
        if rbf:
            flat -= quadratic.repeat(widths)
            np.minimum(flat, 0.0, out=flat)                 # sq_dist >= 0 clamp
            np.exp(flat, out=flat)
        elif self.kernel_name == "poly":
            # flat holds gamma_c * (x_hat . v); finish (g i + coef0)^degree.
            flat += self.coef0
            flat **= self.degree
        out = np.empty(len(augmented))
        for block, (kernel, start, stop) in zip(blocks, spans):
            np.dot(block, kernel.weight, out=out[start:stop])
        out += self.offset[positions].repeat(sizes)
        return out

    def score_groups(self, features: np.ndarray, groups: ClassGroups) -> np.ndarray:
        """Per-sample discrepancies of one chunk grouped by ``groups``.

        ``groups`` is :func:`group_by_class` of the chunk's predictions.
        Every class present is checked before any group is scored, so an
        unknown class raises ``KeyError`` and leaves no partial result.
        """
        if len(features) != len(groups.order):
            raise ValueError("features and groups must cover the same rows")
        try:
            positions = [self._positions[klass] for klass in groups.classes.tolist()]
        except KeyError as exc:
            raise KeyError(f"no reference SVM for predicted class {exc.args[0]}") from None
        # The sorted [x, 1] matrix, float64, in one gathering copy: each
        # class group is then a contiguous slice of it.
        augmented = np.empty((len(features), features.shape[1] + 1))
        augmented[:, :-1] = features[groups.order]
        augmented[:, -1] = 1.0
        out = np.empty(len(features))
        out[groups.order] = self._sorted_discrepancy(augmented, positions, groups.bounds)
        return out


def _kernel_params(kernel: Kernel) -> tuple[str, float, int, float]:
    """(name, gamma, degree, coef0) of a packable kernel, else ValueError."""
    if isinstance(kernel, RBFKernel):
        return "rbf", kernel.gamma, 1, 0.0
    if isinstance(kernel, LinearKernel):
        return "linear", 1.0, 1, 0.0
    if isinstance(kernel, PolynomialKernel):
        return "poly", kernel.gamma, kernel.degree, kernel.coef0
    raise ValueError(f"cannot pack kernel of type {type(kernel).__name__}")


def pack_class_svms(svms: dict[int, OneClassSVM]) -> PackedClassSVMs:
    """Pack fitted per-class SVMs, with their own scalers, into one scorer.

    Raises ``ValueError`` when the SVMs cannot be packed: no classes, an
    unfitted SVM, a custom kernel type, or polynomial kernels whose
    degree/coef0 disagree across classes (per-class ``gamma`` is fine).
    """
    if not svms:
        raise ValueError("cannot pack an empty SVM collection")
    classes = np.array(sorted(svms), dtype=np.int64)

    fitted = [svms[int(klass)] for klass in classes]
    for klass, svm in zip(classes, fitted):
        if svm.support_rows_ is None or svm.kernel_ is None:
            raise ValueError(f"SVM for class {int(klass)} is not fitted")
    names, gammas, degrees, coef0s = zip(*(_kernel_params(svm.kernel_) for svm in fitted))
    if len(set(names)) != 1:
        raise ValueError(f"mixed kernel types cannot be packed: {sorted(set(names))}")
    kernel_name = names[0]
    if kernel_name == "poly" and (len(set(degrees)) != 1 or len(set(coef0s)) != 1):
        raise ValueError("poly kernels must share degree and coef0 to be packed")

    dim = fitted[0].support_rows_.shape[1]
    coef_rows, dual_weights = [], []
    bounds = np.zeros(len(classes) + 1, dtype=np.intp)
    offset = np.empty(len(classes))
    metric = np.empty((len(classes), dim)) if kernel_name == "rbf" else None

    for position, (svm, gamma) in enumerate(zip(fitted, gammas)):
        rows = np.empty((len(svm.support_rows_), dim + 1))
        scaler = svm.scaler_
        mean = np.zeros(dim) if scaler is None else scaler.mean_
        scale = np.ones(dim) if scaler is None else scaler.scale_
        if kernel_name == "rbf":
            # -gamma * sq_dist decomposes into GEMM-foldable pieces:
            #   2 gamma x.(w*u)  -  gamma u.(w*u)  -  gamma x.(w*x)
            # with u the stored raw support row and w = 1/s^2. The first
            # two terms become the augmented rows here; the last is the
            # per-sample quadratic computed at scoring time (``metric``).
            weights = gamma / scale**2
            raw = np.asarray(svm.support_rows_, dtype=np.float64)
            rows[:, :-1] = 2.0 * weights[None, :] * raw
            rows[:, -1] = -np.einsum("md,d,md->m", raw, weights, raw)
            metric[position] = weights
        else:
            # gamma_c * (x_hat . v) = x . (g v/s) - g m.(v/s), one GEMM row.
            scaled = svm.support_vectors_ / scale[None, :]
            rows[:, :-1] = gamma * scaled
            rows[:, -1] = -gamma * (scaled @ mean)
        coef_rows.append(rows)
        dual_weights.append(-svm.dual_coef_ / svm.norm_w_)
        bounds[position + 1] = bounds[position] + len(rows)
        offset[position] = svm.rho_ / svm.norm_w_

    return PackedClassSVMs(
        classes=classes,
        kernel_name=kernel_name,
        bounds=bounds,
        coef_rows=np.concatenate(coef_rows, axis=0),
        weight=np.concatenate(dual_weights),
        offset=offset,
        degree=degrees[0],
        coef0=coef0s[0],
        metric=metric,
    )
