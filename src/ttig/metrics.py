"""Distribution metrics and an exact alignment oracle for the scene domain.

FID is computed from Gaussian statistics of pooled features; the feature
extractor is injected (the contrastive image tower in this repo, never a
pretrained network), and metric records carry the extractor name so scores
are not mistaken for published figures.

The alignment oracle inverts the renderer: it knows where each specified
object must sit, re-detects shape by footprint overlap and color by nearest
palette entry, and scores the fraction of satisfied assertions. A freshly
rendered spec scores exactly 1.0. caption_fidelity lifts the oracle to
captions by taking the best score over all placements the caption allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import scenes
from .errors import DataError, NumericError


@dataclass(frozen=True)
class GaussianStats:
    mu: np.ndarray            # (d,)
    sigma: np.ndarray         # (d, d) symmetric
    n: int

    @property
    def d(self) -> int:
        return self.mu.shape[0]


def gaussian_stats(features: np.ndarray) -> GaussianStats:
    """Sample mean and unbiased covariance of row features."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"features must be (n, d), got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 feature rows, got {n}")
    mu = x.mean(axis=0)
    xc = x - mu
    sigma = (xc.T @ xc) / (n - 1)
    sigma = 0.5 * (sigma + sigma.T)
    return GaussianStats(mu=mu, sigma=sigma, n=n)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    # rounding leaves a PSD matrix's smallest eigenvalues slightly negative
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    The cross term uses the symmetric form S_a^{1/2} S_b S_a^{1/2}, whose
    eigenvalues are those of S_a S_b; tiny negative eigenvalues from rounding
    are clamped to zero.
    """
    if a.d != b.d:
        raise DataError(f"dimension mismatch: {a.d} vs {b.d}")
    diff = a.mu - b.mu
    ra = _psd_sqrt(a.sigma)
    inner = ra @ b.sigma @ ra
    inner = 0.5 * (inner + inner.T)
    tr_sqrt = float(np.sqrt(np.maximum(np.linalg.eigvalsh(inner), 0.0)).sum())
    val = float(diff @ diff + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * tr_sqrt)
    if val < -1e-6:
        raise NumericError(f"frechet distance came out {val}, below the rounding guard")
    return max(val, 0.0)


def fid(images_a, images_b, feature_fn) -> float:
    """Frechet distance between feature Gaussians of two image sets.

    feature_fn maps a stacked (n, H, W, 3) array to (n, d) features.
    """
    fa = _features_of(images_a, feature_fn)
    fb = _features_of(images_b, feature_fn)
    return frechet_distance(gaussian_stats(fa), gaussian_stats(fb))


def _features_of(images, feature_fn) -> np.ndarray:
    images = np.asarray(images)
    if images.ndim != 4:
        raise DataError(f"expected a stacked (n, H, W, 3) image set, got {images.shape}")
    if images.shape[0] < 2:
        raise DataError("each image set needs at least 2 images")
    out = np.asarray(feature_fn(images))
    if out.ndim != 2 or out.shape[0] != images.shape[0]:
        raise DataError(f"feature_fn must map {images.shape[0]} images to "
                        f"(n, d) features, got {out.shape}")
    return out


def metric_record(metric: str, value, n_a: int, n_b: int,
                  feature_fn: str, seed) -> dict:
    """One JSON-lines record; feature_fn names the extractor explicitly.
    A count (a Python int, such as dataset_size) stays an integer."""
    value = value if isinstance(value, int) else float(value)
    return {"metric": metric, "value": value, "n_a": int(n_a),
            "n_b": int(n_b), "feature_fn": feature_fn, "seed": seed}


# ---------------------------------------------------------------------------
# alignment oracle

_COLOR_TOL = 0.45       # max distance from the expected palette entry
_PRESENCE_FLOOR = 0.5   # fraction of the expected footprint that must be filled
_FG_TOL = 0.25          # distance from white background that counts as paint


def _foreground(region: np.ndarray) -> np.ndarray:
    return np.linalg.norm(region - 1.0, axis=-1) > _FG_TOL


def alignment_oracle(image: np.ndarray, spec: scenes.SceneSpec) -> float:
    """Fraction of per-object (shape, color, presence-in-cell) assertions that
    hold when each object is sampled at the cell the spec pins it to."""
    spec.validate()
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[2] != 3 or image.shape[0] != image.shape[1]:
        raise DataError(f"expected a square (size, size, 3) image, got {image.shape}")
    size = image.shape[0]
    if size % scenes.GRID:
        raise DataError(f"size {size} is not a renderer resolution "
                        f"(must be divisible by {scenes.GRID})")
    cell_px = size // scenes.GRID
    glyphs = {s: scenes.glyph_mask(s, cell_px) for s in scenes.SHAPES}
    palette = {name: np.asarray(rgb, dtype=np.float32) / 255.0
               for name, rgb in scenes.PALETTE.items()}
    passed = 0
    total = 0
    for obj in spec.objects:
        r0 = obj.cell[0] * cell_px
        c0 = obj.cell[1] * cell_px
        region = image[r0:r0 + cell_px, c0:c0 + cell_px]
        fg = _foreground(region)
        footprint = glyphs[obj.shape]

        # presence: the expected footprint is mostly painted
        coverage = float(fg[footprint].mean()) if footprint.any() else 0.0
        present = coverage >= _PRESENCE_FLOOR

        # shape: detected foreground overlaps the right glyph best
        best, best_iou = None, -1.0
        for name, mask in glyphs.items():
            union = float(np.logical_or(fg, mask).sum())
            iou = float(np.logical_and(fg, mask).sum()) / union if union else 0.0
            if iou > best_iou:
                best, best_iou = name, iou
        shape_ok = fg.any() and best == obj.shape

        # color: mean paint over the expected footprint, nearest palette entry,
        # and close enough to the expected entry that off-palette fills fail
        mean_rgb = region[footprint].mean(axis=0)
        dists = {name: float(np.linalg.norm(mean_rgb - rgb))
                 for name, rgb in palette.items()}
        nearest = min(sorted(dists), key=lambda nm: dists[nm])
        color_ok = nearest == obj.color and dists[obj.color] <= _COLOR_TOL

        passed += int(present) + int(shape_ok) + int(color_ok)
        total += 3
    return passed / total


def _placements(spec: scenes.SceneSpec):
    """Every cell assignment consistent with the spec's caption."""
    cells = [(r, c) for r in range(scenes.GRID) for c in range(scenes.GRID)]
    if len(spec.objects) == 1:
        o = spec.objects[0]
        for cell in cells:
            yield scenes.SceneSpec(objects=(scenes.SceneObject(o.shape, o.color, cell),))
        return
    a, b = spec.objects
    for ca, cb in product(cells, cells):
        if ca == cb:
            continue
        if spec.relation == "left_of" and not ca[1] < cb[1]:
            continue
        if spec.relation == "above" and not ca[0] < cb[0]:
            continue
        yield scenes.SceneSpec(
            objects=(scenes.SceneObject(a.shape, a.color, ca),
                     scenes.SceneObject(b.shape, b.color, cb)),
            relation=spec.relation)


def caption_fidelity(image: np.ndarray, caption: str) -> float:
    """Best oracle score over every placement the caption permits; captions
    never pin cells, so a faithful image in any legal layout scores 1.0."""
    parsed = scenes.parse_caption(caption)
    return max(alignment_oracle(image, s) for s in _placements(parsed))
