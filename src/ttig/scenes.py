"""Synthetic captioned-shapes data: renderer, caption grammar, prompt files.

Scenes live on a 2x2 grid of cells inside a white RGB canvas, 32x32 unless the
caller picks another even size. One or two objects, each a colored glyph from
{circle, square, triangle} in one of eight exact palette colors. Captions come
from a closed grammar, so parsing is the exact inverse of captioning up to the
free cell placement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

IMAGE_SIZE = 32
GRID = 2  # cells per side

PALETTE = {
    "red": (255, 0, 0),
    "green": (0, 255, 0),
    "blue": (0, 0, 255),
    "yellow": (255, 255, 0),
    "cyan": (0, 255, 255),
    "magenta": (255, 0, 255),
    "orange": (255, 128, 0),
    "purple": (128, 0, 255),
}
COLOR_NAMES = tuple(PALETTE)
SHAPES = ("circle", "square", "triangle")
RELATIONS = ("left_of", "above", "none")
_REL_PHRASE = {"left_of": "to the left of", "above": "above", "none": "next to"}

# canonical cells assigned by the parser (row, col)
_CANONICAL = {
    "left_of": ((0, 0), (0, 1)),
    "above": ((0, 0), (1, 0)),
    "none": ((0, 0), (1, 1)),
}


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    cell: tuple  # (row, col) in the 2x2 grid


@dataclass(frozen=True)
class SceneSpec:
    objects: tuple  # 1 or 2 SceneObjects
    relation: str | None = None  # set iff two objects

    def validate(self):
        if len(self.objects) not in (1, 2):
            raise DataError(f"scene needs 1 or 2 objects, got {len(self.objects)}")
        for o in self.objects:
            if o.shape not in SHAPES:
                raise DataError(f"unknown shape {o.shape!r}")
            if o.color not in PALETTE:
                raise DataError(f"unknown color {o.color!r}")
            r, c = o.cell
            if not (0 <= r < GRID and 0 <= c < GRID):
                raise DataError(f"cell {o.cell} outside the {GRID}x{GRID} grid")
        if len(self.objects) == 2:
            if self.relation not in RELATIONS:
                raise DataError(f"two-object scene needs a relation, got {self.relation!r}")
            a, b = self.objects
            if a.cell == b.cell:
                raise DataError("objects share a cell")
            if self.relation == "left_of" and not a.cell[1] < b.cell[1]:
                raise DataError(f"left_of violated by cells {a.cell}, {b.cell}")
            if self.relation == "above" and not a.cell[0] < b.cell[0]:
                raise DataError(f"above violated by cells {a.cell}, {b.cell}")
        elif self.relation is not None:
            raise DataError("relation set on a one-object scene")


@functools.lru_cache(maxsize=64)
def glyph_mask(shape: str, cell_px: int) -> np.ndarray:
    """Boolean (cell_px, cell_px) footprint of a glyph, resolution independent
    via normalized pixel-center coordinates. Computed once per (shape,
    cell_px); every caller shares the one read-only array."""
    u = (np.arange(cell_px) + 0.5) / cell_px
    vv, uu = np.meshgrid(u, u, indexing="ij")  # vv rows, uu cols
    if shape == "square":
        mask = (vv >= 3 / 16) & (vv < 13 / 16) & (uu >= 3 / 16) & (uu < 13 / 16)
    elif shape == "circle":
        mask = (vv - 0.5) ** 2 + (uu - 0.5) ** 2 <= 0.375 ** 2
    elif shape == "triangle":
        inside = (vv >= 3 / 16) & (vv < 13 / 16)
        t = np.clip((vv - 3 / 16) / (10 / 16), 0.0, 1.0)
        halfw = (0.5 + 4.5 * t) / 16
        mask = inside & (np.abs(uu - 0.5) <= halfw)
    else:
        raise DataError(f"unknown shape {shape!r}")
    mask.setflags(write=False)
    return mask


def render(spec: SceneSpec, size: int = IMAGE_SIZE) -> np.ndarray:
    """Float32 (size, size, 3) in [0, 1]; white background, exact palette fills."""
    img = np.ones((size, size, 3), dtype=np.float32)
    _paint(img, spec)
    return img


def _paint(img: np.ndarray, spec: SceneSpec):
    """Draw spec's glyphs into a white (size, size, 3) float32 canvas."""
    spec.validate()
    size = img.shape[0]
    if size % GRID:
        raise DataError(f"size {size} not divisible by grid {GRID}")
    cell_px = size // GRID
    for obj in spec.objects:
        mask = glyph_mask(obj.shape, cell_px)
        r0, c0 = obj.cell[0] * cell_px, obj.cell[1] * cell_px
        rgb = np.asarray(PALETTE[obj.color], dtype=np.float32) / 255.0
        region = img[r0:r0 + cell_px, c0:c0 + cell_px]
        region[mask] = rgb


def caption(spec: SceneSpec) -> str:
    spec.validate()
    parts = [f"a {o.color} {o.shape}" for o in spec.objects]
    if len(spec.objects) == 1:
        return parts[0]
    return f"{parts[0]} {_REL_PHRASE[spec.relation]} {parts[1]}"


def parse_caption(text: str) -> SceneSpec:
    """Exact inverse of caption() on grammar strings; objects land on
    canonical cells since the grammar does not mention placement."""
    words = text.split(" ")

    def eat_object(ws):
        if len(ws) < 3 or ws[0] != "a":
            raise DataError(f"unparseable caption: {text!r}")
        color, shape = ws[1], ws[2]
        if color not in PALETTE or shape not in SHAPES:
            raise DataError(f"unparseable caption: {text!r}")
        return (shape, color), ws[3:]

    first, rest = eat_object(words)
    if not rest:
        return SceneSpec(objects=(SceneObject(first[0], first[1], (0, 0)),))
    relation = None
    for rel, phrase in _REL_PHRASE.items():
        pw = phrase.split(" ")
        if rest[:len(pw)] == pw:
            relation = rel
            rest = rest[len(pw):]
            break
    if relation is None:
        raise DataError(f"unparseable caption: {text!r}")
    second, tail = eat_object(rest)
    if tail:
        raise DataError(f"unparseable caption: {text!r}")
    ca, cb = _CANONICAL[relation]
    return SceneSpec(
        objects=(SceneObject(first[0], first[1], ca), SceneObject(second[0], second[1], cb)),
        relation=relation,
    )


# ---------------------------------------------------------------------------
# sampling

def _all_cells():
    return [(r, c) for r in range(GRID) for c in range(GRID)]


def sample_spec(rng: np.random.Generator) -> SceneSpec:
    """One draw from the documented scene distribution: object count uniform
    in {1, 2}; shapes, colors, relation uniform; cells uniform over the
    placements consistent with the relation."""
    cells = _all_cells()
    if rng.integers(2) == 0:
        shape = SHAPES[rng.integers(len(SHAPES))]
        color = COLOR_NAMES[rng.integers(len(COLOR_NAMES))]
        cell = cells[rng.integers(len(cells))]
        return SceneSpec(objects=(SceneObject(shape, color, cell),))
    relation = RELATIONS[rng.integers(len(RELATIONS))]
    if relation == "left_of":
        c1 = (int(rng.integers(GRID)), 0)
        c2 = (int(rng.integers(GRID)), 1)
    elif relation == "above":
        c1 = (0, int(rng.integers(GRID)))
        c2 = (1, int(rng.integers(GRID)))
    else:
        pairs = [(a, b) for a in cells for b in cells if a != b]
        c1, c2 = pairs[rng.integers(len(pairs))]
    objs = []
    for cell in (c1, c2):
        objs.append(SceneObject(
            SHAPES[rng.integers(len(SHAPES))],
            COLOR_NAMES[rng.integers(len(COLOR_NAMES))],
            (int(cell[0]), int(cell[1])),
        ))
    return SceneSpec(objects=tuple(objs), relation=relation)


@dataclass
class Dataset:
    specs: list
    captions: list
    images: np.ndarray  # (n, size, size, 3) float32

    def __len__(self):
        return len(self.specs)


def gen_dataset(n: int, seed: int, exclude_captions=(), size: int = IMAGE_SIZE) -> Dataset:
    """n scenes drawn with a seeded rng. exclude_captions filters draws whose
    caption is held out (draws continue until n survivors)."""
    if n < 1:
        raise DataError(f"a dataset needs at least one scene, got n={n}")
    rng = np.random.default_rng(seed)
    excl = frozenset(exclude_captions)
    specs, caps = [], []
    guard = 0
    while len(specs) < n:
        spec = sample_spec(rng)
        cap = caption(spec)
        guard += 1
        if guard > 100 * n + 1000:
            raise DataError("exclude_captions rejects nearly every draw")
        if cap in excl:
            continue
        specs.append(spec)
        caps.append(cap)
    images = np.ones((n, size, size, 3), dtype=np.float32)
    for img, spec in zip(images, specs):
        _paint(img, spec)
    return Dataset(specs=specs, captions=caps, images=images)


def all_captions() -> list:
    """The full closed caption space, sorted."""
    singles = [f"a {c} {s}" for c in COLOR_NAMES for s in SHAPES]
    caps = list(singles)
    for rel in RELATIONS:
        for first in singles:
            for second in singles:
                caps.append(f"{first} {_REL_PHRASE[rel]} {second}")
    return sorted(caps)


def split_captions(seed: int = 0, holdout_frac: float = 0.15):
    """(train_captions, holdout_captions) partition of the caption space.
    The defaults are the holdout every command trains and evaluates on."""
    caps = all_captions()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(caps))
    k = int(round(holdout_frac * len(caps)))
    held = sorted(caps[i] for i in order[:k])
    train = sorted(caps[i] for i in order[k:])
    return train, held


# ---------------------------------------------------------------------------
# prompt file loader (three tab-separated columns with a fixed label vocab)

CATEGORIES = (
    "Abstract", "Animals", "Artifacts", "Arts", "Food & Beverage",
    "Illustrations", "Indoor Scenes", "Outdoor Scenes", "People",
    "Produce & Plants", "Vehicles", "World Knowledge",
)
CHALLENGES = (
    "Basic", "Complex", "Fine-grained Detail", "Imagination",
    "Linguistic Structures", "Perspective", "Properties & Positioning",
    "Quantity", "Simple Detail", "Style & Format", "Writing & Symbols",
)

_HEADER = ("Prompt", "Category", "Challenge")


@dataclass(frozen=True)
class PromptRow:
    prompt: str
    category: str
    challenge: str


def load_prompts(path) -> list:
    """Parse a prompt TSV: one or more rows prompt<TAB>category<TAB>challenge
    from closed label sets, optional header. Violations raise DataError."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [raw.rstrip("\n") for raw in f]
    except UnicodeDecodeError as e:
        raise DataError(f"prompt file {path} is not UTF-8 text: {e}") from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        cols = line.split("\t")
        if lineno == 1 and tuple(cols) == _HEADER:
            continue
        if len(cols) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(cols)}")
        prompt, cat, chal = cols
        if not prompt:
            raise DataError(f"{path}:{lineno}: empty prompt")
        if cat not in CATEGORIES:
            raise DataError(f"{path}:{lineno}: unknown category {cat!r}")
        if chal not in CHALLENGES:
            raise DataError(f"{path}:{lineno}: unknown challenge {chal!r}")
        rows.append(PromptRow(prompt, cat, chal))
    if not rows:
        raise DataError(f"{path}: no prompts")
    return rows
