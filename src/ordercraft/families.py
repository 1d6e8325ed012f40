"""Generators for finite truncations of the named obstruction posets.

Every generator is deterministic: one spec, one poset, byte-identical JSON.
Truncations are prefix-of-enumeration windows and are not claimed to inherit
properties of the infinite objects they approximate.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import budget as _budget
from . import poset as _poset
from .errors import BudgetExceeded, UnsupportedOrdinal, UnsupportedParams
from .poset import Poset

OMEGA = "w"  # sentinel second coordinate, strictly above every integer

SIERP_SCHEMES = ("column_alternating", "block", "seeded_shuffle")


@dataclass(frozen=True)
class OrdinalCNF:
    """Ordinal below omega^omega as coefficients [c0, c1, ..] of
    ck*w^k + .. + c1*w + c0; comparison is reverse-lexicographic."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if any(c < 0 for c in cs):
            raise UnsupportedOrdinal("negative CNF coefficient")
        if len(cs) > 1 and cs[-1] == 0:
            raise UnsupportedOrdinal("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def parse(cls, text) -> "OrdinalCNF":
        if isinstance(text, OrdinalCNF):
            return text
        if isinstance(text, int):
            return cls((text,))
        return cls(tuple(int(x) for x in str(text).split(",")))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_finite(self) -> bool:
        return len(self.coeffs) <= 1

    def times_omega(self) -> "OrdinalCNF":
        return OrdinalCNF((0,) + self.coeffs)

    def div_omega(self) -> "OrdinalCNF":
        """alpha' with self = w * alpha'; requires zero units digit."""
        if self.coeffs[0] != 0 or self.is_finite:
            raise UnsupportedOrdinal(f"{self} is not a multiple of w")
        return OrdinalCNF(self.coeffs[1:])

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}w" if c > 1 else "w")
            else:
                parts.append(f"{c}w^{k}" if c > 1 else f"w^{k}")
        return "+".join(parts)


def _cnf_key(coeffs):
    # reverse-lexicographic: compare from the highest power down
    return tuple(reversed(coeffs))


def ordinals_below(alpha: OrdinalCNF, count: int):
    """The first `count` ordinals below alpha in a fixed w-enumeration.

    Each returned ordinal is a coefficient tuple with no trailing zero. The
    listing is by largest coefficient, then by _cnf_key of the tuple, which
    reads the highest power first but is not the ordinal order across
    degrees: below w*3, w+2 comes before 2. Any bijective listing works for
    the sierpinskisation schemes; this one is reproducible. Only the tuples
    under the least coefficient cap that holds `count` of them are listed,
    and they count against the enumeration budget before any is.
    """
    if alpha.is_zero or count <= 0:
        return []
    *low, lead = alpha.coeffs
    # the cap**len(low) * min(cap, lead) tuples with every coefficient below
    # cap and the leading one below lead all lie below alpha
    need = min(count, lead) if alpha.is_finite else count
    cap = next(c for c in itertools.count(1) if c ** len(low) * min(c, lead) >= need)
    listed = cap ** len(low) * min(cap, lead + 1)
    if listed > (limit := _budget.limit(_budget.ENUM_BUDGET)):
        raise BudgetExceeded(f"the ordinals below {alpha} take {listed} coefficient "
                             f"tuples to list, more than {limit}")
    found = [t for t in itertools.product(*[range(cap)] * len(low), range(min(cap, lead + 1)))
             if _cnf_key(t) < _cnf_key(alpha.coeffs)]
    # trimmed past the last nonzero coefficient, as OrdinalCNF keeps them
    out = [t[:max((k for k, c in enumerate(t) if c), default=0) + 1] for t in found]
    return sorted(out, key=lambda t: (max(t), _cnf_key(t)))[:count]


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict = field(default_factory=dict)
    with_bottom: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedParams(f"unknown family {self.family!r}")


# ---------------------------------------------------------------------------
# concrete generators


def _check_size(what: str, size: int, pairs: bool = False) -> None:
    """Raise BudgetExceeded, before anything is built, when a generator's
    size elements, or its size^2 pair tests when pairs is set, are over the
    enumeration budget. what names the family and its parameter."""
    limit = _budget.limit(_budget.ENUM_BUDGET)
    if pairs and size * size > limit:
        raise BudgetExceeded(f"{what} has {size} elements, so {size}^2 pair tests, "
                             f"more than {limit}")
    if not pairs and size > limit:
        raise BudgetExceeded(f"{what} has {size} elements, more than {limit}")


def finite_powerset(n: int) -> Poset:
    """B_n: subsets of an n-set in mask encoding, ordered by inclusion.

    Raises BudgetExceeded before building anything when 2^n is over the
    enumeration budget."""
    if n < 0:
        raise UnsupportedParams("n must be >= 0")
    if n >= (limit := _budget.limit(_budget.ENUM_BUDGET)).bit_length():
        # 2^n > limit, without forming 2^n
        raise BudgetExceeded(f"finite_powerset n={n} has 2^{n} elements, more than {limit}")
    size = 1 << n
    return _poset.set_lattice(_poset.antichain(n), range(size),
                              _poset.set_labels(range(size)))


def omega_star_grid(n: int) -> Poset:
    """Pairs (i,j), 0 <= i < j <= n, with (i,j) <= (i',j') iff i' <= i and
    j <= j'. A join-semilattice: (i,j) v (i',j') = (min i, max j)."""
    if n < 1:
        raise UnsupportedParams("n must be >= 1")
    _check_size(f"omega_star_grid n={n}", n * (n + 1) // 2, pairs=True)
    coords = grid_coords(n)
    return _from_leq(coords, lambda c, d: d[0] <= c[0] and c[1] <= d[1],
                     [f"({i},{j})" for (i, j) in coords])


def grid_coords(n: int):
    return sorted((i, j) for i in range(n) for j in range(i + 1, n + 1))


def delta_coords(n: int):
    """Canonical element order of delta(n): column-major, omega last."""
    coords = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            coords.append((i, j))
        coords.append((i, OMEGA))
    return coords


def delta_size(n: int) -> int:
    return n * (n + 1) // 2 + n + 1


def _delta_leq(a, b) -> bool:
    (i, j), (i2, j2) = a, b
    if j != OMEGA and j2 != OMEGA:
        return (j <= i2) or (i == i2 and j <= j2)
    if j == OMEGA:
        return i == i2 and j2 == OMEGA
    # j finite, j2 omega: j <= i2 or same column
    return j <= i2 or i == i2


def delta(n: int) -> Poset:
    """Columns of pairs (i,j), i<j<=n, plus column tops (i,w); the order is
    (i,j) <= (i',j') iff j <= i' or (i = i' and j <= j'), w above every int.
    A meet-semilattice with (i,w) ^ (j,w) = (i,j)."""
    if n < 1:
        raise UnsupportedParams("n must be >= 1")
    _check_size(f"delta n={n}", delta_size(n), pairs=True)
    return _poset_from_coords(delta_coords(n))


def gamma(n: int) -> Poset:
    """The delta(n) elements with j = i+1 or j = w, induced order."""
    if n < 1:
        raise UnsupportedParams("n must be >= 1")
    _check_size(f"gamma n={n}", 2 * n + 1, pairs=True)
    return _poset_from_coords(gamma_coords(n))


def gamma_coords(n: int):
    return [c for c in delta_coords(n) if c[1] == OMEGA or c[1] == c[0] + 1]


def _poset_from_coords(coords) -> Poset:
    return _from_leq(coords, _delta_leq, [f"({i},{j})" for (i, j) in coords])


def _from_leq(elements, leq, labels) -> Poset:
    """Poset on distinct elements, in list order, ordered by the test leq."""
    up = []
    for i, a in enumerate(elements):
        mask = 0
        for j, b in enumerate(elements):
            if i != j and leq(a, b):
                mask |= 1 << j
        up.append(mask)
    return Poset(len(elements), up, labels)


def _componentwise(a, b) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def v_family(n: int) -> Poset:
    """n-element antichain with a least element added; bottom at index 0."""
    if n < 1:
        raise UnsupportedParams("n must be >= 1")
    _check_size(f"v n={n}", n + 1)
    up = [((1 << (n + 1)) - 1) & ~1] + [0] * n
    return Poset(n + 1, up, _poset.set_labels([0] + [1 << i for i in range(n)]))


def l_alpha(a: int) -> Poset:
    """Bounded lattice 1 + (1 (+) chain_a) + 1; a = 2 is the five-element
    non-modular pentagon."""
    if a < 1:
        raise UnsupportedParams("a must be >= 1")
    _check_size(f"l_alpha a={a}", a + 3)
    return _poset.build(a + 3, "covers", [(0, 1), (0, 2), (1, a + 2), (a + 1, a + 2)]
                        + [(k, k + 1) for k in range(2, a + 1)],
                        ["0", "a"] + [f"c{k}" for k in range(a)] + ["1"])


def m5() -> Poset:
    """The five-element pentagon, l_alpha(2)."""
    return l_alpha(2)


def omega_eta(n: int) -> Poset:
    """Dyadic grid {(m, i/2^m) : m <= n, 0 <= i < 2^m}, componentwise order."""
    if n < 0:
        raise UnsupportedParams("n must be >= 0")
    if 2 * n >= (limit := _budget.limit(_budget.ENUM_BUDGET)).bit_length():
        # at least 2^n elements, so 2^(2n) > limit pair tests, without forming 2^n
        raise BudgetExceeded(
            f"omega_eta n={n} has 2^{n + 1}-1 elements, so more than {limit} pair tests")
    _check_size(f"omega_eta n={n}", (1 << (n + 1)) - 1, pairs=True)
    coords = [(m, i) for m in range(n + 1) for i in range(1 << m)]
    return _from_leq([(m, Fraction(i, 1 << m)) for (m, i) in coords], _componentwise,
                     [f"({m},{i}/{1 << m})" for (m, i) in coords])


# ---------------------------------------------------------------------------
# sierpinskisations


def _sierp_sequence(alpha_prime: OrdinalCNF, n: int, scheme: str,
                    seed: Optional[int]):
    """phi as a list: element m -> (column ordinal coeffs, position in column).

    Positions are strictly increasing within one column along m, which is the
    monotonic condition.
    """
    if scheme not in SIERP_SCHEMES:
        raise UnsupportedParams(f"unknown scheme {scheme!r}")
    if alpha_prime.is_zero:
        raise UnsupportedOrdinal("alpha' must be nonzero")
    if alpha_prime.is_finite:
        c = alpha_prime.coeffs[0]
        cols = [(k,) for k in range(c)]
    else:
        cols = ordinals_below(alpha_prime, n)
    if scheme == "seeded_shuffle":
        rng = random.Random(0 if seed is None else seed)
        picks = (rng.randrange(len(cols)) for _ in range(n))
    elif scheme == "column_alternating" and alpha_prime.is_finite:
        picks = (m % len(cols) for m in range(n))
    else:
        # round b lists columns 0..b-1; over infinitely many columns this is
        # also column_alternating, the Cantor dovetail
        picks = itertools.islice(
            (k for b in itertools.count(1) for k in range(min(b, len(cols)))), n)
    pos, seq = [0] * len(cols), []
    for k in picks:
        seq.append((cols[k], pos[k]))
        pos[k] += 1
    return seq


def sierpinskisation(alpha, n: int, scheme: str = "column_alternating",
                     seed: Optional[int] = None) -> Poset:
    """Poset on 0..n-1 whose order is the intersection of the natural order
    with the order of type alpha = w*alpha' pulled back through a fixed
    enumeration; labels record each element's (position, column) image.
    """
    alpha = OrdinalCNF.parse(alpha)
    alpha_prime = alpha.div_omega()
    if n < 1:
        raise UnsupportedParams("n must be >= 1")
    _check_size(f"sierpinskisation n={n}", n, pairs=True)
    seq = _sierp_sequence(alpha_prime, n, scheme, seed)

    def alpha_key(m):
        col, position = seq[m]
        return (_cnf_key(col), position)

    up = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if alpha_key(x) < alpha_key(y):
                up[x] |= 1 << y
    labels = [f"({p},{OrdinalCNF(c) if len(c) > 1 else c[0]})" for (c, p) in seq]
    return Poset(n, up, labels)


def lattice_sierp(alpha, n: int) -> Poset:
    """Join-closed window of a lattice sierpinskisation of w*alpha (alpha is
    the alpha' of w*alpha'): vertical lines are non-empty and finite,
    horizontal lines cofinite in the window. Finite alpha = m gives the full
    grid chain_n x chain_m; infinite alpha gives the staircase over the
    canonical enumeration (the omega case is the pairs (i,j), j <= i < n)."""
    alpha = OrdinalCNF.parse(alpha)
    if alpha.is_zero:
        raise UnsupportedOrdinal("alpha' must be nonzero")
    if n < 1:
        raise UnsupportedParams("n must be >= 1")
    # n * m cells for a finite alpha = m, else the staircase j <= i < n
    _check_size(f"lattice_sierp n={n}", n * alpha.coeffs[0]
                if alpha.is_finite else n * (n + 1) // 2, pairs=True)
    if alpha.is_finite:
        m = alpha.coeffs[0]
        cells = [(i, (a,)) for i in range(n) for a in range(m)]
    else:
        cols = ordinals_below(alpha, n)
        cells = [(i, cols[j]) for i in range(n) for j in range(len(cols)) if j <= i]
    order = sorted(cells, key=lambda c: (c[0], _cnf_key(c[1])))
    return _from_leq([(i, _cnf_key(a)) for (i, a) in order], _componentwise,
                     [f"({i},{OrdinalCNF(a) if len(a) > 1 else a[0]})" for (i, a) in order])


def s_alpha(alpha, trunc: int, tail: int = 0,
            scheme: str = "column_alternating", seed: Optional[int] = None) -> Poset:
    """Direct sum of a monotonic sierpinskisation of w*alpha, trunc elements
    long, with a chain of tail elements; alpha plays the part of alpha'."""
    if tail < 0:
        raise UnsupportedParams("tail must be >= 0")
    _check_size(f"s_alpha tail={tail}", trunc + tail)
    core = sierpinskisation(OrdinalCNF.parse(alpha).times_omega(), trunc, scheme, seed)
    return core if tail == 0 else _poset.direct_sum(core, _poset.chain(tail))


# ---------------------------------------------------------------------------
# shared shapes

SHAPES = ("finite_powerset", "delta", "gamma", "v", "omega_star_grid")


def shape(family: str, n: int) -> Poset:
    """family(n) for a family in SHAPES, built once per process and shared
    by every caller, so its covers, tables and structure report are built
    once too. Callers must not modify it. The memo is keyed by the budget
    in force, so a shape is only shared under the budget it was built
    under."""
    if family not in SHAPES:
        raise UnsupportedParams(f"{family!r} is not one of {SHAPES}")
    return _built_shape(family, int(n), _budget.limit(_budget.ENUM_BUDGET))


@functools.lru_cache(maxsize=32)
def _built_shape(family: str, n: int, _limit: int) -> Poset:
    return _GENERATORS[family](n)


# ---------------------------------------------------------------------------
# dispatch

# each family's generator, in listing order; a spec's params are passed to
# it by name, so its signature is where a parameter and its default are set
_GENERATORS = {
    "finite_powerset": finite_powerset, "omega_star_grid": omega_star_grid, "delta": delta,
    "gamma": gamma, "v": v_family, "l_alpha": l_alpha, "m5": m5, "omega_eta": omega_eta,
    "sierpinskisation": sierpinskisation, "lattice_sierp": lattice_sierp, "s_alpha": s_alpha,
}
FAMILIES = tuple(_GENERATORS)


def generate(spec: FamilySpec) -> Poset:
    """The spec's family built by its generator from spec.params, checked
    against the generator's parameters first, with a least element added
    when spec.with_bottom is set."""
    make = _GENERATORS[spec.family]
    params = inspect.signature(make).parameters
    for name, param in params.items():
        if param.default is param.empty and name not in spec.params:
            raise UnsupportedParams(f"{spec.family} needs parameter {name!r}")
    if unknown := sorted(spec.params.keys() - params.keys()):
        raise UnsupportedParams(f"{spec.family} got unknown parameters {unknown}")
    out = make(**spec.params)
    return _poset.add_bottom(out, "()") if spec.with_bottom else out
