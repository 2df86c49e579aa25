"""Distribution metrics and an exact alignment oracle for the scene domain.

FID is computed from Gaussian statistics of pooled features; the feature
extractor is injected (the contrastive image tower in this repo, never a
pretrained network), and metric records carry the extractor name so scores
are not mistaken for published figures.

The alignment oracle inverts the renderer: for one placement of a caption's
objects it knows where each must sit, re-detects shape by footprint overlap
and color by nearest palette entry, and scores the fraction of satisfied
assertions. caption_fidelities takes the best score over all placements the
caption allows, so a fresh render of any spec scores exactly 1.0 against its
caption.

It works from one per-cell table, vectorised over a stack of images: for
every cell, the foreground, the best-overlap glyph and whether any paint is
there; for every cell and caption object, whether presence, shape and color
pass. A placement's score is then a lookup and a sum, so a caption's 4 or 12
placements cost one pass over the images.
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


def _image_stack(images, one: bool = False) -> np.ndarray:
    """images (one (size, size, 3) image if one) as a float32
    (n, size, size, 3) stack at a renderer resolution."""
    given = np.asarray(images, dtype=np.float32)
    images = given[None] if one else given
    if images.ndim != 4 or images.shape[3] != 3 or images.shape[1] != images.shape[2]:
        want = "a square (size, size, 3) image" if one else "square (n, size, size, 3) images"
        raise DataError(f"expected {want}, got {given.shape}")
    size = images.shape[1]
    if size % scenes.GRID:
        raise DataError(f"size {size} is not a renderer resolution "
                        f"(must be divisible by {scenes.GRID})")
    return images


def _cell_passes(images: np.ndarray, objects) -> dict:
    """(shape, color) of each object -> (n, GRID**2) count of its assertions
    (presence, shape, color) that hold with the object in each cell, cells in
    row-major order. The foreground, its overlap with each glyph and the
    best-overlap glyph are found once per (image, cell)."""
    n, size = images.shape[:2]
    g, cell_px = scenes.GRID, size // scenes.GRID
    cells = (images.reshape(n, g, cell_px, g, cell_px, 3).swapaxes(2, 3)
             .reshape(n, g * g, cell_px, cell_px, 3))
    fg = np.linalg.norm(cells - 1.0, axis=-1) > _FG_TOL
    glyphs = np.stack([scenes.glyph_mask(s, cell_px) for s in scenes.SHAPES])
    glyph_px = np.count_nonzero(glyphs, axis=(1, 2))
    fg_px = np.count_nonzero(fg, axis=(2, 3))
    inter = np.count_nonzero(fg[:, :, None] & glyphs, axis=(3, 4))  # (n, cells, shapes)
    union = fg_px[..., None] + glyph_px - inter
    iou = np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)
    # the first glyph in SHAPES order with the highest IoU
    best = np.where(fg_px > 0, iou.argmax(axis=-1), -1)
    # the nearest palette entry is searched in sorted-name order: ties go to
    # the first name
    names = sorted(scenes.PALETTE)
    palette = np.array([scenes.PALETTE[nm] for nm in names], dtype=np.float32) / 255.0
    out = {}
    for obj in objects:
        if (obj.shape, obj.color) in out:
            continue
        k = scenes.SHAPES.index(obj.shape)
        # presence: the expected footprint is mostly painted
        coverage = np.divide(inter[..., k], glyph_px[k], out=np.zeros(fg_px.shape),
                             where=glyph_px[k] > 0)
        present = coverage >= _PRESENCE_FLOOR
        # shape: detected foreground overlaps the right glyph best
        shape_ok = best == k
        # color: mean paint over the expected footprint, nearest palette entry,
        # and close enough to the expected entry that off-palette fills fail.
        # The norm of one vector is the sqrt of its float32 dot, which vecdot
        # (numpy 2.0+) takes row by row; norm(axis=-1) would sum and round
        # differently.
        mean_rgb = cells[:, :, glyphs[k]].mean(axis=2)
        diff = mean_rgb[:, :, None, :] - palette
        dist = np.sqrt(np.vecdot(diff, diff))
        c = names.index(obj.color)
        color_ok = ((dist.argmin(axis=-1) == c)
                    & (dist[..., c].astype(np.float64) <= _COLOR_TOL))
        out[obj.shape, obj.color] = (present.astype(np.int64) + shape_ok + color_ok)
    return out


def _scores(passes: dict, spec: scenes.SceneSpec) -> np.ndarray:
    """(n,) fraction of spec's assertions that hold, read from _cell_passes."""
    passed = sum(passes[o.shape, o.color][:, o.cell[0] * scenes.GRID + o.cell[1]]
                 for o in spec.objects)
    return passed / (3 * len(spec.objects))


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


def caption_fidelities(images: np.ndarray, caption: str) -> np.ndarray:
    """(n,) float64: for each image of an (n, size, size, 3) stack, the best
    oracle score over every placement the caption permits; captions never pin
    cells, so a faithful image in any legal layout scores 1.0."""
    parsed = scenes.parse_caption(caption)
    passes = _cell_passes(_image_stack(images), parsed.objects)
    return np.max([_scores(passes, s) for s in _placements(parsed)], axis=0)


def caption_fidelity(image: np.ndarray, caption: str) -> float:
    """caption_fidelities of one (size, size, 3) image."""
    return float(caption_fidelities(_image_stack(image, one=True), caption)[0])
