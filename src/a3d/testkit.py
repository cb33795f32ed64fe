"""Deterministic data and workload generation for tests and benchmarks.

Relations are produced from distribution specs (uniform / zipf / normal
columns, controlled array lengths and empty-array rates) with a seeded,
language-independent PRNG, so the same spec yields the same bytes on any
machine.  The module also builds the two synthetic query families used by
the scaling tests: stacked unnest-derive-filter blocks (pattern A) and a
single conjunctive filter over many jointly unnested arrays (pattern B).
The JSON form of a spec, the ``a3d gen`` input, is read by
`cli.genspec_from_json`.
"""

from dataclasses import dataclass, field
from typing import Mapping, Union

from .algebra import ArrayJoin, Derive, Filter, Relation, RelVar, Schema, Term
from .functions import ScalarFn
from .predicates import And, Cmp, Col, Lit


############################################################
# PRNG: SplitMix64
############################################################

class SplitMix64:
    """SplitMix64: the 64-bit mixing generator of Steele, Lea & Flood.

    Chosen because the whole core is ten lines of integer arithmetic that
    any language reproduces exactly.  Reference output vectors are checked
    in under ``tests/data/splitmix64.json``; ``test_testkit.py`` locks this
    implementation against them.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53


############################################################
# generation specs
############################################################

@dataclass(frozen=True)
class Dist:
    """One scalar distribution: uniform(ndv), zipf(s, ndv), normal(mu, sigma).

    Uniform and zipf draw integers in [0, ndv); zipf rank 0 is the most
    frequent.  Normal draws are discretized by rounding to the nearest int.
    """
    name: str
    ndv: int = 0
    s: float = 1.0
    mu: float = 0.0
    sigma: float = 1.0

    def validate(self) -> None:
        if self.name in ("uniform", "zipf"):
            if self.ndv < 1:
                raise ValueError(f"{self.name} needs ndv >= 1, got {self.ndv}")
            if self.name == "zipf" and self.s <= 0:
                raise ValueError(f"zipf needs s > 0, got {self.s}")
        elif self.name == "normal":
            if self.sigma < 0:
                raise ValueError(f"normal needs sigma >= 0, got {self.sigma}")
        else:
            raise ValueError(f"unknown distribution {self.name!r}")


@dataclass(frozen=True)
class ScalarColumn:
    dist: Dist
    null_probability: float = 0.0


@dataclass(frozen=True)
class ArrayColumn:
    elem: Dist
    length: Dist
    empty_probability: float = 0.0


ColumnSpec = Union[ScalarColumn, ArrayColumn]


@dataclass(frozen=True)
class GenSpec:
    row_count: int
    columns: Mapping[str, ColumnSpec] = field(default_factory=dict)
    seed: int = 0


def _check_probability(p: float, what: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {p}")


def validate_spec(spec: GenSpec) -> None:
    """A ValueError unless `generate` can build `spec`."""
    if spec.row_count < 0:
        raise ValueError(f"row_count must be >= 0, got {spec.row_count}")
    for name, col in spec.columns.items():
        if isinstance(col, ScalarColumn):
            col.dist.validate()
            _check_probability(col.null_probability,
                               f"null_probability of {name!r}")
        elif isinstance(col, ArrayColumn):
            col.elem.validate()
            col.length.validate()
            _check_probability(col.empty_probability,
                               f"empty_probability of {name!r}")
        else:
            raise ValueError(f"column {name!r}: not a column spec: {col!r}")


############################################################
# sampling
############################################################

def _zipf_cdf(dist: Dist) -> list:
    weights = [1.0 / (r ** dist.s) for r in range(1, dist.ndv + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def _make_sampler(dist: Dist):
    if dist.name == "uniform":
        ndv = dist.ndv
        return lambda rng: int(rng.next_float() * ndv)
    if dist.name == "zipf":
        cdf = _zipf_cdf(dist)
        import bisect

        return lambda rng: bisect.bisect_left(cdf, rng.next_float())
    # normal via Box-Muller, one branch per draw (two uniforms each)
    import math

    def draw(rng):
        u1 = max(rng.next_float(), 2.0 ** -53)
        u2 = rng.next_float()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return int(round(dist.mu + dist.sigma * z))

    return draw


def generate(spec: GenSpec) -> Relation:
    """Build the relation described by `spec`; same seed, same relation.

    Each column consumes its own generator stream (sub-seeded from the
    master seed in sorted column order), so draw counts in one column
    never shift another column's values.
    """
    validate_spec(spec)
    scal = frozenset(n for n, c in spec.columns.items()
                     if isinstance(c, ScalarColumn))
    arr = frozenset(spec.columns) - scal
    schema = Schema(scal, arr)

    master = SplitMix64(spec.seed)
    columns = {}
    for name in sorted(spec.columns):
        rng = SplitMix64(master.next_u64())
        col = spec.columns[name]
        if isinstance(col, ScalarColumn):
            sample = _make_sampler(col.dist)
            p_null = col.null_probability
            out = []
            for _ in range(spec.row_count):
                if p_null and rng.next_float() < p_null:
                    out.append(None)
                else:
                    out.append(sample(rng))
        else:
            sample = _make_sampler(col.elem)
            length = _make_sampler(col.length)
            p_empty = col.empty_probability
            out = []
            for _ in range(spec.row_count):
                if p_empty and rng.next_float() < p_empty:
                    out.append(())
                    continue
                n = max(1, length(rng))  # emptiness is its own knob
                out.append(tuple(sample(rng) for _ in range(n)))
        columns[name] = out

    names = sorted(spec.columns)
    rows = [{n: columns[n][i] for n in names} for i in range(spec.row_count)]
    return Relation.build(schema, rows)


############################################################
# pattern families for scaling runs
############################################################

def make_pattern(kind: str, n: int) -> Term:
    """Synthetic query over ``R``: ``pattern_schemas(kind, n)`` matches it.

    Pattern A stacks ``n`` unnest -> derive -> filter blocks, each over its
    own array column (3n unary operators).  Pattern B unnests ``n`` arrays
    jointly under a single n-conjunct filter.
    """
    if n < 1:
        raise ValueError(f"pattern size must be >= 1, got {n}")
    if kind == "A":
        term: Term = RelVar("R")
        for i in range(1, n + 1):
            term = ArrayJoin(((f"a{i}", f"e{i}"),), term)
            term = Derive(f"y{i}", ScalarFn.of("affine", a=2, b=1),
                          (f"e{i}",), term)
            term = Filter(Cmp(">", Col(f"y{i}"), Lit(40 + i)), term)
        return term
    if kind == "B":
        targets = tuple((f"a{i}", f"e{i}") for i in range(1, n + 1))
        parts = tuple(Cmp(">", Col(f"e{i}"), Lit(i))
                      for i in range(1, n + 1))
        pred = parts[0] if n == 1 else And(parts)
        return Filter(pred, ArrayJoin(targets, RelVar("R")))
    raise ValueError(f"unknown pattern kind {kind!r}")


def pattern_schemas(kind: str, n: int) -> dict:
    if kind not in ("A", "B") or n < 1:
        raise ValueError(f"no pattern {kind!r} of size {n}")
    arrays = frozenset(f"a{i}" for i in range(1, n + 1))
    return {"R": Schema(frozenset(), arrays)}
