"""Validation harness: controlled error injection and correlation studies.

The methodology: fix a reference alignment, inject known numbers of
single-occurrence relocations to get alignments of graded quality,
label each with its heuristic-error count against the reference, and
correlate every metric with that count.  Synthetic logs come from
block-structured generative process models, five of which ship with the
package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, Sequence, Union

import numpy as np

from .aligner import DEFAULT_SCHEME, ScoringScheme, _check_seed, consensus_reference
from .core import (
    Alignment,
    DegenerateReferenceError,
    EventLog,
    ModelSpecError,
    ThresholdTooHighError,
    Trace,
    UndefinedCorrelationError,
)
from .metrics import (
    METRIC_ORDER,
    _check_tf_ratio,
    _eligible,
    _frequent_census,
    _InstanceIndex,
    _metric_report,
    _weighted_misalignment,
    count_heuristic_errors,
)

__all__ = [
    "PerturbedAlignment",
    "ActivityBlock",
    "SequenceBlock",
    "ChoiceBlock",
    "ParallelBlock",
    "LoopBlock",
    "ProcessModelSpec",
    "CorrelationReport",
    "perturb",
    "generate_log",
    "pearson",
    "correlation_experiment",
    "tf_ratio_sweep",
    "bundled_model_names",
    "load_bundled_model",
]


# ---------------------------------------------------------------------------
# Error injection.


@dataclass(frozen=True)
class PerturbedAlignment:
    alignment: Alignment
    injected_moves: int
    seed: int


def perturb(reference: Alignment, moves: int, seed: int = 0) -> PerturbedAlignment:
    """Apply exactly ``moves`` random legal single-occurrence relocations.

    Each move picks an occupied cell uniformly and slides it into a gap
    cell of the adjacent gap run on either side (so it never crosses
    another occurrence of its row), drawn from the left run nearest
    first, then the right run.  When both neighbors are occupied or the
    row edge blocks the way, a fresh gap column is inserted next to the
    cell and the occurrence moves into it.  All-gap columns are
    compacted afterwards; the underlying traces are untouched.

    A move keeps its cell strictly between its row neighbors, so the
    occupied cells stay one row-major list whose columns are edited in
    place, and a gap run lies between two neighbors' columns.  Any grid
    works: ordinals are carried as they are, a negative value is a gap
    kept until a move lands on it, and emptied or new cells hold -1.
    """
    _check_seed(seed)
    if moves < 0:
        raise ValueError(f"moves must be >= 0, got {moves}")
    grid = np.array(reference.grid)
    if moves == 0:
        return PerturbedAlignment(Alignment(reference.source, grid), 0, seed)
    rng = np.random.default_rng(seed)
    length = grid.shape[1]
    rows, cols = np.nonzero(grid >= 0)
    values = grid[rows, cols]
    odd_gaps = {(r, c): grid[r, c] for r, c in zip(*np.nonzero(grid < -1))}  # gaps not -1
    for _ in range(moves):
        pick = int(rng.integers(rows.size))
        i, j = int(rows[pick]), int(cols[pick])
        lo = int(cols[pick - 1]) + 1 if pick > 0 and rows[pick - 1] == i else 0
        hi = int(cols[pick + 1]) if pick + 1 < rows.size and rows[pick + 1] == i else length
        if hi - lo > 1:
            t = int(rng.integers(hi - lo - 1))
            cols[pick] = j - 1 - t if t < j - lo else lo + 1 + t
            odd_gaps.pop((i, cols[pick]), None)
        else:
            insert_at = j if rng.integers(2) == 0 else j + 1
            cols[cols >= insert_at] += 1
            odd_gaps = {(r, c + (c >= insert_at)): v for (r, c), v in odd_gaps.items()}
            cols[pick] = insert_at
            length += 1
    grid = np.full((grid.shape[0], length), -1, dtype=np.int64)
    for (r, c), value in odd_gaps.items():
        grid[r, c] = value
    grid[rows, cols] = values
    grid = grid[:, (grid >= 0).any(axis=0)]
    return PerturbedAlignment(Alignment(reference.source, grid), moves, seed)


# ---------------------------------------------------------------------------
# Block-structured generative process models.


@dataclass(frozen=True)
class ActivityBlock:
    label: str


@dataclass(frozen=True)
class SequenceBlock:
    children: tuple["Block", ...]


@dataclass(frozen=True)
class ChoiceBlock:
    children: tuple["Block", ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class ParallelBlock:
    children: tuple["Block", ...]


@dataclass(frozen=True)
class LoopBlock:
    child: "Block"
    continue_probability: float


Block = Union[ActivityBlock, SequenceBlock, ChoiceBlock, ParallelBlock, LoopBlock]


def _validate_block(block: Block) -> None:
    if isinstance(block, ActivityBlock):
        if not block.label:
            raise ModelSpecError("activity block needs a label")
    elif isinstance(block, SequenceBlock) or isinstance(block, ParallelBlock):
        if not block.children:
            raise ModelSpecError(f"{type(block).__name__} needs children")
        for child in block.children:
            _validate_block(child)
    elif isinstance(block, ChoiceBlock):
        if len(block.children) != len(block.probabilities):
            raise ModelSpecError("choice children and probabilities differ in count")
        if not block.children:
            raise ModelSpecError("choice block needs children")
        if any(p < 0 for p in block.probabilities):
            raise ModelSpecError("choice probabilities must be non-negative")
        if not abs(sum(block.probabilities) - 1.0) <= 1e-9:  # NaN fails too
            raise ModelSpecError(f"choice probabilities sum to {sum(block.probabilities)!r}, not 1")
        for child in block.children:
            _validate_block(child)
    elif isinstance(block, LoopBlock):
        if not 0.0 <= block.continue_probability < 1.0:
            raise ModelSpecError(
                f"loop continue probability must be in [0, 1), got {block.continue_probability}"
            )
        _validate_block(block.child)
    else:
        raise ModelSpecError(f"unknown block {block!r}")


@dataclass(frozen=True)
class ProcessModelSpec:
    """Recursive block tree describing a family of traces."""

    name: str
    root: Block

    def __post_init__(self) -> None:
        _validate_block(self.root)

    def to_dict(self) -> dict:
        return {"format": "tracealign-model", "version": 1, "name": self.name,
                "model": _block_to_dict(self.root)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessModelSpec":
        if not isinstance(data, dict):
            raise ModelSpecError(f"model document must be an object, got {type(data).__name__}")
        if data.get("format") != "tracealign-model":
            raise ModelSpecError("not a tracealign model document")
        if data.get("version") != 1:
            raise ModelSpecError(f"unsupported model version {data.get('version')!r}")
        root = _block_from_dict(_field(data, "model", "model document"))
        return cls(str(data.get("name", "model")), root)


def _field(data: dict, key: str, where: str):
    try:
        return data[key]
    except KeyError:
        raise ModelSpecError(f"{where} without {key!r}") from None


def _list_field(data: dict, key: str, where: str) -> list:
    value = _field(data, key, where)
    if not isinstance(value, list):
        raise ModelSpecError(f"{where} {key!r} must be a list, got {type(value).__name__}")
    return value


def _block_to_dict(block: Block) -> dict:
    if isinstance(block, ActivityBlock):
        return {"kind": "activity", "label": block.label}
    if isinstance(block, SequenceBlock):
        return {"kind": "sequence", "children": [_block_to_dict(c) for c in block.children]}
    if isinstance(block, ChoiceBlock):
        return {
            "kind": "choice",
            "children": [_block_to_dict(c) for c in block.children],
            "probabilities": list(block.probabilities),
        }
    if isinstance(block, ParallelBlock):
        return {"kind": "parallel", "children": [_block_to_dict(c) for c in block.children]}
    if isinstance(block, LoopBlock):
        return {
            "kind": "loop",
            "child": _block_to_dict(block.child),
            "continue_probability": block.continue_probability,
        }
    raise ModelSpecError(f"unknown block {block!r}")


def _number(value: object, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ModelSpecError(f"{where} needs a number, got {value!r}") from None
    except OverflowError:
        raise ModelSpecError(f"{where} number is out of float range") from None


def _children(data: dict, where: str) -> tuple[Block, ...]:
    return tuple(_block_from_dict(c) for c in _list_field(data, "children", where))


def _block_from_dict(data: dict) -> Block:
    if not isinstance(data, dict):
        raise ModelSpecError(f"block must be an object, got {data!r}")
    try:
        kind = data["kind"]
    except KeyError:
        raise ModelSpecError(f"block without a kind: {data!r}") from None
    where = f"{kind} block"
    if kind == "activity":
        return ActivityBlock(str(_field(data, "label", where)))
    if kind == "sequence":
        return SequenceBlock(_children(data, where))
    if kind == "choice":
        return ChoiceBlock(
            _children(data, where),
            tuple(_number(p, where) for p in _list_field(data, "probabilities", where)),
        )
    if kind == "parallel":
        return ParallelBlock(_children(data, where))
    if kind == "loop":
        return LoopBlock(
            _block_from_dict(_field(data, "child", where)),
            _number(_field(data, "continue_probability", where), where),
        )
    raise ModelSpecError(f"unknown block kind {kind!r}")


def _sample_block(block: Block, rng: np.random.Generator) -> list[str]:
    if isinstance(block, ActivityBlock):
        return [block.label]
    if isinstance(block, SequenceBlock):
        out: list[str] = []
        for child in block.children:
            out.extend(_sample_block(child, rng))
        return out
    if isinstance(block, ChoiceBlock):
        idx = int(rng.choice(len(block.children), p=np.asarray(block.probabilities)))
        return _sample_block(block.children[idx], rng)
    if isinstance(block, ParallelBlock):
        parts = [_sample_block(child, rng) for child in block.children]
        return _interleave(parts, rng)
    if isinstance(block, LoopBlock):
        out = _sample_block(block.child, rng)
        while rng.random() < block.continue_probability:
            out.extend(_sample_block(block.child, rng))
        return out
    raise ModelSpecError(f"unknown block {block!r}")


def _interleave(parts: list[list[str]], rng: np.random.Generator) -> list[str]:
    """Uniform random interleaving preserving each part's internal order."""
    remaining = [len(p) for p in parts]
    positions = [0] * len(parts)
    out: list[str] = []
    total = sum(remaining)
    for _ in range(total):
        weights = np.asarray(remaining, dtype=np.float64)
        idx = int(rng.choice(len(parts), p=weights / weights.sum()))
        out.append(parts[idx][positions[idx]])
        positions[idx] += 1
        remaining[idx] -= 1
    return out


def generate_log(spec: ProcessModelSpec, n_traces: int, seed: int = 0) -> EventLog:
    """Sample ``n_traces`` independent traces from a process model."""
    if n_traces < 1:
        raise ValueError(f"n_traces must be >= 1, got {n_traces}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    width = len(str(n_traces - 1))
    traces = []
    for i in range(n_traces):
        activities = _sample_block(spec.root, rng)
        traces.append(Trace(f"case_{i:0{width}d}", activities))
    return EventLog(traces)


# ---------------------------------------------------------------------------
# Bundled models (desk-scale stand-ins for realistic process families).

_BUNDLED = ("triage", "claims", "checkout", "onboarding", "diagnostics")


def bundled_model_names() -> tuple[str, ...]:
    return _BUNDLED


def load_bundled_model(name: str) -> ProcessModelSpec:
    if name not in _BUNDLED:
        raise KeyError(f"unknown bundled model {name!r}; have {_BUNDLED}")
    text = resources.files("tracealign.data").joinpath(f"{name}.json").read_text()
    return ProcessModelSpec.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Correlation study.


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ValueError(f"need at least 3 points, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined: zero variance")
    return float(np.clip((dx * dy).sum() / (sx * sy), -1.0, 1.0))


@dataclass
class SamplePoint:
    sample_id: int
    moves: int
    n_e: int
    metrics: dict[str, float | None]


@dataclass
class CorrelationReport:
    """Per-metric correlation with the heuristic-error count."""

    coefficients: dict[str, float | None]
    notes: dict[str, str]
    samples: list[SamplePoint]
    parameters: dict[str, object] = field(default_factory=dict)


def _labelled_samples(
    log: EventLog,
    scheme: ScoringScheme,
    samples: int,
    max_moves: int,
    seed: int,
    k: int,
    tf_ratio: float,
) -> tuple[Alignment, _InstanceIndex, Iterator[tuple[int, Alignment]]]:
    """The reference, instance index and perturbed samples both correlation studies use.

    Returns the consensus reference, the log's instance index at
    ``tf_ratio`` and an iterator over ``(moves, alignment)``: ``samples``
    perturbations of the reference with move counts spread evenly over
    [0, max_moves], each from its own seed.  ``samples``, ``max_moves``,
    ``tf_ratio`` and ``seed`` are checked before the reference is built.
    """
    if samples < 10:
        raise ValueError(f"samples must be >= 10, got {samples}")
    if max_moves < 0:
        raise ValueError(f"max_moves must be >= 0, got {max_moves}")
    # Past int64, SeedSequence.spawn and np.linspace fail with tracebacks.
    for name, value in (("samples", samples), ("max_moves", max_moves)):
        if value > np.iinfo(np.int64).max:
            raise ValueError(f"{name} must be <= 2**63 - 1, got {value}")
    _check_tf_ratio(tf_ratio)
    _check_seed(seed)
    reference = consensus_reference(log, scheme, k=k, seed=seed)
    index = _InstanceIndex.of_census(_frequent_census(log, tf_ratio), log, tf_ratio)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(samples)]
    moves = [int(round(v)) for v in np.linspace(0.0, max_moves, samples)]
    draws = (
        (n, perturb(reference, n, sample_seed).alignment) for n, sample_seed in zip(moves, seeds)
    )
    return reference, index, draws


def correlation_experiment(
    log: EventLog,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    samples: int = 30,
    max_moves: int = 30,
    tf_ratio: float = 0.40,
    seed: int = 0,
    k: int = 8,
) -> CorrelationReport:
    """Correlate each metric against injected heuristic-error counts.

    A consensus reference is built first; ``samples`` perturbations with
    move counts spread evenly over [0, max_moves] are generated from
    per-sample seeds, labeled with their heuristic-error count, and
    every metric's Pearson coefficient against that count is reported.
    A sample's metrics are :func:`~tracealign.metrics.evaluate_alignment`'s
    report values, except that OMS and ``ref_based_sps`` are ``None``
    where that function raises ``ThresholdTooHighError`` or
    ``DegenerateReferenceError``.  A metric whose correlation is
    undefined is reported with a note instead of aborting the others.
    """
    reference, index, draws = _labelled_samples(
        log, scheme, samples, max_moves, seed, k, tf_ratio
    )
    undefined = (ThresholdTooHighError, DegenerateReferenceError)
    points: list[SamplePoint] = []
    for idx, (moves, alignment) in enumerate(draws):
        report = _metric_report(
            alignment, reference, scheme, tf_ratio, majority=0.5, index=index, undefined=undefined
        )
        points.append(SamplePoint(idx, moves, report.n_e, report.values()))

    coefficients: dict[str, float | None] = {}
    notes: dict[str, str] = {}
    n_e_values = [p.n_e for p in points]
    for name in METRIC_ORDER:
        series = [p.metrics[name] for p in points]
        if any(v is None for v in series):
            coefficients[name] = None
            notes[name] = "metric undefined on some samples"
            continue
        try:
            coefficients[name] = pearson(n_e_values, series)
        except UndefinedCorrelationError as exc:
            coefficients[name] = None
            notes[name] = str(exc)
    return CorrelationReport(
        coefficients=coefficients,
        notes=notes,
        samples=points,
        parameters={
            "samples": samples,
            "max_moves": max_moves,
            "tf_ratio": tf_ratio,
            "seed": seed,
            "k": k,
            "scheme": {"match": scheme.match, "mismatch": scheme.mismatch, "gap": scheme.gap},
        },
    )


def tf_ratio_sweep(
    log: EventLog,
    ratios: Sequence[float],
    scheme: ScoringScheme = DEFAULT_SCHEME,
    samples: int = 30,
    max_moves: int = 30,
    seed: int = 0,
    k: int = 8,
) -> dict[float, float | None]:
    """Correlation of the overall misalignment score at several thresholds.

    The perturbed samples are those of :func:`correlation_experiment`,
    generated once and shared across ratios; one instance index at the
    lowest ratio scores every pattern eligible at any ratio in one
    kernel call per sample, so only the eligibility cut and the
    weighting change between ratios.  Every ratio must lie in (0, 1]; a
    ratio whose eligible set is empty maps to ``None``.
    """
    if not ratios:
        raise ValueError("need at least one tf ratio")
    for ratio in ratios:
        _check_tf_ratio(ratio)
    reference, index, draws = _labelled_samples(
        log, scheme, samples, max_moves, seed, k, min(ratios)
    )
    n_e_values: list[int] = []
    scores = np.empty((samples, len(index.patterns)))
    for idx, (_, alignment) in enumerate(draws):
        n_e_values.append(count_heuristic_errors(alignment, reference))
        scores[idx] = index.scores(alignment)

    out: dict[float, float | None] = {}
    for ratio in ratios:
        try:
            series = _weighted_misalignment(index, _eligible(index, ratio), scores.T)
            out[ratio] = pearson(n_e_values, series)
        except (ThresholdTooHighError, UndefinedCorrelationError):
            out[ratio] = None
    return out
