"""Executable forms of the constructive proofs: separating-chain extraction,
the descending-chain/grid dichotomy, Ramsey classification of antichains, and
the end-to-end sublattice pipeline.

Every operation returns a Certificate whose evidence can be re-verified from
the payload alone; tie-breaks are smallest-index-lexicographic throughout so
runs are reproducible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Sequence

from . import downsets as _downsets
from . import families as _families
from . import poset as _poset
from . import semilattice as _semilattice
from .downsets import DownSet
from .errors import (
    ConstructionStalled,
    DepthUnreachable,
    IndependenceTooSmall,
    IndexOutOfRange,
    NoMonochromaticSubset,
    NotAntichain,
    NotDistributive,
    NotSeparating,
)
from .poset import Poset

DELTA_LIKE = "DeltaLike"
GAMMA_LIKE = "GammaLike"
V_LIKE = "VLike"
NOT_WQO_EVIDENCE = "NotWqoEvidence"


# ---------------------------------------------------------------------------
# chains of ideals


@dataclass(frozen=True)
class ChainOfDownSets:
    """Strictly monotone list of ideals of a join-semilattice host, and their tops."""

    host: Poset
    members: tuple
    decreasing: bool = False
    tops: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _semilattice.require_joins(self.host)
        if not self.members:
            raise ValueError("chain must be non-empty")
        tops = []
        for d in self.members:
            # an ideal of a finite poset is principal: it has a top
            try:
                tops.append(_ideal_top(self.host, d.mask))
            except ValueError:
                raise ValueError(
                    f"chain member {sorted(d.members)} is not an ideal") from None
        for a, b in zip(self.members, self.members[1:]):
            lo, hi = (b, a) if self.decreasing else (a, b)
            if not (lo.mask & ~hi.mask == 0 and lo.mask != hi.mask):
                raise ValueError("chain members must be strictly nested")
        object.__setattr__(self, "tops", tuple(tops))

    def to_json_dict(self) -> dict:
        return {
            "host": _poset.to_json_dict(self.host),
            "sets": [list(d.sorted_members()) for d in self.members],
            "decreasing": self.decreasing,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainOfDownSets":
        if not isinstance(data, dict):
            raise ValueError("a chain document must be a JSON object")
        decreasing = data.get("decreasing", False)
        if not isinstance(decreasing, bool):
            raise ValueError("decreasing must be a boolean")
        host = _poset.from_json_dict(data["host"])
        return cls(host, _members(host, data["sets"]), decreasing)


def _indices(value, n: int, what: str) -> list:
    """value, checked to be a list of element indices in 0..n-1; raises
    ValueError otherwise, so a malformed document is an input error."""
    if not (isinstance(value, list) and set(map(type, value)) <= {int}
            and (not value or (min(value) >= 0 and max(value) < n))):
        raise ValueError(f"{what} must be a list of indices in 0..{n - 1}")
    return value


def _witness(source: Poset, target: Poset, payload, key: str):
    """The MapWitness of the table payload[key], read through _indices."""
    return _semilattice.MapWitness(
        source, target, tuple(_indices(payload[key], target.n, key)))


def _members(host: Poset, sets) -> tuple:
    """The DownSets of a JSON list of member index lists."""
    if not isinstance(sets, list):
        raise ValueError("chain members must be a list of index lists")
    return tuple(DownSet(host, frozenset(_indices(s, host.n, "chain member")))
                 for s in sets)


def _ideal_top(host: Poset, ideal_mask: int) -> int:
    """The greatest element m of a principal ideal J = down(m), given as a
    mask. Every ideal of a finite poset is principal; raises ValueError when
    the mask is not one. The scan runs from the highest index down, where a
    set lattice keeps its top."""
    rest = ideal_mask
    while rest:
        m = rest.bit_length() - 1
        if host.up[m] & ideal_mask == 0:
            if host.down_incl(m) != ideal_mask:
                break
            return m
        rest ^= 1 << m
    raise ValueError(f"mask {ideal_mask:#x} is not a principal ideal")


def _is_separating_masks(host: Poset, masks: Sequence[int], tops: Sequence[int]):
    """Core check over member masks and tops; returns (bool, violating (I,x) or None).

    Separating: every tested member I and excluded x admit a member J with
    I not inside {x} v J. As {x} v J = down(x v top J) only grows with J,
    some J works exactly when the least member does.

    Finite surrogate: the window's least member is excluded from the
    I-quantifier (a chain with a least member is never literally separating
    unless it is a singleton, so the least member stands in for the unseen
    tail and only supplies J's), and x ranges over the join-irreducible
    generators of the host (joins that reach the window boundary would mask
    the behaviour of the object being truncated).
    """
    # nested masks are ordered as integers
    union, (least, least_top) = max(masks), min(zip(masks, tops))
    irr_mask = sum(1 << x for x in _semilattice._join_irreducibles_no_zero(host))
    for i_mask, t in zip(masks, tops):
        if i_mask == union or i_mask == least:
            continue
        for x in _poset.bits(union & ~i_mask & irr_mask):
            if host.leq(t, host.join(x, least_top)):
                return False, (i_mask, x)
    return True, None


def is_separating(chain: ChainOfDownSets):
    """(True, None) or (False, (I, x)) with I the violating member."""
    ok, witness = _is_separating_masks(
        chain.host, [d.mask for d in chain.members], chain.tops)
    if ok:
        return True, None
    i_mask, x = witness
    return False, (_downsets._from_mask(chain.host, i_mask), x)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    kind: str          # IndependentSet | DescendingChain | GridMap | RamseyClass | SublatticePattern
    payload: dict
    evidence: tuple = field(default_factory=tuple)   # ((name, bool), ...)

    def ok(self) -> bool:
        return all(v for _n, v in self.evidence)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "payload": self.payload,
            "evidence": [{"name": n, "ok": v} for n, v in self.evidence],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        entries = data.get("evidence") if isinstance(data, dict) else None
        if not (isinstance(entries, list) and isinstance(data.get("kind"), str)
                and isinstance(data.get("payload"), dict)
                and all(isinstance(e, dict) and isinstance(e.get("name"), str)
                        for e in entries)):
            raise ValueError("a certificate is an object with a kind, a payload "
                             "object and a list of named evidence entries")
        if data["kind"] not in _EVIDENCE_CHECKERS:
            raise ValueError(f"unknown certificate kind {data['kind']!r}, expected "
                             f"one of {', '.join(_EVIDENCE_CHECKERS)}")
        for e in entries:
            if type(e.get("ok")) is not bool:
                raise ValueError(f"evidence entry {e['name']!r} needs a boolean ok")
        return cls(data["kind"], data["payload"],
                   tuple((e["name"], e["ok"]) for e in entries))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def verify_certificate(cert: Certificate):
    """Recompute the evidence from the payload alone.

    Returns the recomputed (name, ok) list; a certificate is valid when every
    recomputed entry is true and the stored evidence matches. Raises
    ValueError (or KeyError, OrderError) on a malformed payload.
    """
    host = _poset.from_json_dict(cert.payload["host"])
    return _EVIDENCE_CHECKERS[cert.kind](host, cert.payload)


def _certificate(kind: str, host: Poset, payload: dict) -> Certificate:
    """A producer's certificate: its evidence comes from the same checker
    that verify_certificate runs, here on the host the producer holds."""
    return Certificate(kind, payload, tuple(_EVIDENCE_CHECKERS[kind](host, payload)))


def certificate_valid(cert: Certificate) -> bool:
    recomputed = verify_certificate(cert)
    return dict(recomputed) == dict(cert.evidence) and all(v for _n, v in recomputed)


# ---------------------------------------------------------------------------
# separating-chain extraction


def independent_from_separating(chain: ChainOfDownSets) -> Certificate:
    """Extract an independent set from a separating chain, one witness element
    per strict descent, following the inductive a/b/c construction. One pass
    down the chain: each member either becomes the current one or is passed."""
    host = chain.host
    ok, _w = is_separating(chain)
    if not ok:
        raise NotSeparating("input chain is not separating")
    step = 1 if chain.decreasing else -1
    desc, tops = [d.mask for d in chain.members[::step]], chain.tops[::step]
    if len(desc) < 2:
        raise ConstructionStalled("no proper member below the union", None)
    xs = [min(_poset.bits(desc[0] & ~desc[1]))]
    i, x_join = 1, xs[0]
    for j in range(2, len(desc)):
        # I_j becomes the current member when I_i escapes {x_join} v I_j
        if rest := desc[i] & ~host.down_incl(host.join(x_join, tops[j])):
            xs.append(min(_poset.bits(rest)))
            x_join = host.join(x_join, xs[-1])
            i = j
    return _certificate("IndependentSet", host, {
        "host": _poset.to_json_dict(host),
        "chain": [list(d.sorted_members()) for d in chain.members],
        "independent_set": xs,
    })


def _payload_chain(host: Poset, payload) -> ChainOfDownSets:
    """payload["chain"] as a decreasing chain, its members largest first."""
    members = sorted(_members(host, payload["chain"]), key=lambda d: -len(d.members))
    return ChainOfDownSets(host, tuple(members), decreasing=True)


def _check_independent_set(host: Poset, payload):
    chain = _payload_chain(host, payload)
    ok, _w = is_separating(chain)
    xs = _indices(payload["independent_set"], host.n, "independent_set")
    return [
        ("chain_is_separating", ok),
        ("extracted_size_ge_members_minus_one", len(xs) >= len(chain.members) - 1),
        ("independence_exhaustive", _semilattice.is_independent(host, xs)),
    ]


# ---------------------------------------------------------------------------
# the dichotomy


def dichotomy_extract(chain: ChainOfDownSets, depth: int) -> Certificate:
    """Either a strictly descending chain of `depth` elements or a certified
    join-preserving injective map of the (i,j)-grid of depth `depth`.

    Precondition: the chain is descending and every suffix of length >= 2 is
    non-separating. Case selection follows E = {x : some bounded member sits
    properly below x}, where a member is bounded when its top has at most one
    lower cover; stalls surface as reduced achieved depth in the evidence.
    """
    if not chain.decreasing:
        raise ValueError("dichotomy_extract needs a decreasing chain")
    host = chain.host
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > len(chain.members) - 1:
        raise DepthUnreachable(
            f"depth {depth} needs at least {depth + 1} chain members")
    masks, tops = [d.mask for d in chain.members], chain.tops
    # suffixes of length <= 2 have no testable member and are vacuously
    # separating; the suffix from k tests members k+1..L-2 and each x in
    # masks[k] outside them, always against J = masks[-1], so a longer suffix
    # keeps every violation of a shorter one: the last three members decide
    if len(masks) > 2 and _is_separating_masks(host, masks[-3:], tops[-3:])[0]:
        raise NotSeparating("a suffix of the chain is separating")

    # Finite surrogate for 'the ideal is bounded': its top has at most one
    # lower cover. A finite ideal always has a maximum; one that sits on top
    # of a single predecessor looks genuinely principal, while a
    # join-reducible top is the footprint of a truncated unbounded ideal.
    # The least member, masks[-1], stands in for the unseen tail, as in the
    # separating check; it neither bounds nor gets walked through.
    irreducible = set(_poset.at_most_one_cover(host))
    below = {}  # x in E -> the largest bounded member strictly below down(x)
    for m, t in zip(masks[:-1], tops):
        if t in irreducible:
            for x in _poset.bits(host.up[t] & masks[0]):
                below.setdefault(x, m)

    # case (i): x in E, then its member, then the next x inside it; each step
    # takes the largest member (slowest descent), the smallest x on ties
    walk, current = [], masks[0]
    while len(walk) < depth and (steps := [x for x in _poset.bits(current) if x in below]):
        walk.append(max(steps, key=lambda x: below[x].bit_count()))
        current = below[walk[-1]]
    if len(walk) >= depth:
        return _certificate("DescendingChain", host, {
            "host": _poset.to_json_dict(host),
            "chain": [list(d.sorted_members()) for d in chain.members],
            "depth": depth,
            "elements": walk,
        })
    return _dichotomy_case_grid(host, chain, masks, tops, below, depth)


def _dichotomy_case_grid(host, chain, masks, tops, below, depth):
    """Case (ii): below the largest member missing E, pull non-separation
    witnesses (x_n, I_n), strengthen them to rows y_n with the join-control
    conditions, and map the grid through (i,j) -> y_i v y_j."""
    # E is an up-set of the union, so a member misses E when its top does
    prev = next(i for i, t in enumerate(tops) if t not in below)
    join = host.join

    # phase 1: x_n in I_{n-1} minus I_n with I_n inside {x_n} v J for all
    # J below I_{n-1}, that is for the least member J, in one pass down the
    # chain from the start member; i_masks[n + 1] stores I_n, i_masks[0] the
    # start member, and prev indexes I_{n-1} in the chain
    xs: list = []
    i_masks = [masks[prev]]
    for i in range(prev + 1, len(masks)):
        x = next((x for x in _poset.bits(masks[prev] & ~masks[i])
                  if host.leq(tops[i], join(x, tops[-1]))), None)
        if x is not None:
            xs.append(x)
            i_masks.append(masks[i])
            prev = i
            if len(xs) == depth + 1:
                break

    # phase 2: y_0 = x_0; y_n = x_n v z v t, z in I_{n-1} escaping the
    # running join, t_j in I_{n-1} re-dominating the later rows over x_j
    ys: list = []
    stall = None
    if xs:
        ys.append(xs[0])
    while len(ys) < len(xs) and len(ys) < depth + 1:
        n = len(ys)
        running = _semilattice.join_of(host, ys)
        prev_ideal = i_masks[n]  # I_{n-1}
        z = next((c for c in _poset.bits(prev_ideal)
                  if not host.leq(c, running)), None)
        if z is None:
            stall = f"no element of I_{n - 1} escapes the running join"
            break
        if n == 1:
            ys.append(join(xs[1], z))
            continue
        # the scan always finds a t_j: phase 1 put I_j, which holds the later
        # rows, below x_j v top(J) for the least member J, which is in I_{n-1}
        ts = []
        for j in range(n - 1):
            yj = _semilattice.join_of(host, ys[j + 1:n])
            ts.append(next(c for c in _poset.bits(prev_ideal)
                           if host.leq(yj, join(xs[j], c))))
        ys.append(_semilattice.join_of(host, [xs[n], z, *ts]))

    achieved = len(ys) - 1
    if achieved < 1:
        raise ConstructionStalled(
            stall or "phase 1 produced fewer than two witnesses", None)
    return _certificate("GridMap", host, {
        "host": _poset.to_json_dict(host),
        "chain": [list(d.sorted_members()) for d in chain.members],
        "depth": depth,
        "achieved": achieved,
        "rows": ys,
        "table": [join(ys[i], ys[j]) for (i, j) in _families.grid_coords(achieved)],
    })


def _check_descending_chain(host: Poset, payload):
    if type(payload["depth"]) is not int or payload["depth"] < 1:
        raise ValueError("depth must be an integer >= 1")
    # the walk starts in the chain's first member and stays inside it
    first = _payload_chain(host, payload).members[0].mask
    xs = _indices(payload["elements"], host.n, "elements")
    if any(first >> x & 1 == 0 for x in xs):
        raise ValueError("elements must lie in the chain's first member")
    return [
        ("requested_depth_reached", len(xs) == payload["depth"]),
        ("strictly_descending", all(host.lt(b, a) for a, b in zip(xs, xs[1:]))),
    ]


def _check_grid_map(host: Poset, payload):
    achieved, depth = payload["achieved"], payload["depth"]
    if type(achieved) is not int or type(depth) is not int or min(achieved, depth) < 1:
        raise ValueError("achieved and depth must be integers >= 1")
    # each row is a join of elements of a member, so it lies in the first one
    first = _payload_chain(host, payload).members[0].mask
    rows = _indices(payload["rows"], host.n, "rows")
    if len(rows) != achieved + 1 or any(first >> y & 1 == 0 for y in rows):
        raise ValueError(f"rows must be {achieved + 1} elements of the chain's first member")
    grid = _witness(_families.shape("omega_star_grid", achieved), host, payload, "table")
    if list(grid.table) != [host.join(rows[i], rows[j])
                            for (i, j) in _families.grid_coords(achieved)]:
        raise ValueError("table must send each cell (i,j) to the join of rows i and j")
    return [
        ("requested_depth_reached", achieved >= depth),
        ("grid_join_preserving", grid.check_flag("join_preserving")),
        ("grid_injective", grid.check_flag("injective")),
    ]


# ---------------------------------------------------------------------------
# Ramsey classification


def _comparable_pair(host: Poset, xs):
    """The first pair (xs[a], xs[b]), a < b in list order, that is not
    incomparable (equal elements count as comparable), or None when xs is
    an antichain."""
    return next(((x, y) for a, x in enumerate(xs) for y in xs[a + 1:]
                 if not host.incomparable(x, y)), None)


def _triple_class(host: Poset, xs, i, j, k) -> int:
    meet = host.meet
    mij, mik, mjk = meet(xs[i], xs[j]), meet(xs[i], xs[k]), meet(xs[j], xs[k])
    if mij == mik:
        return 4 if mjk == mij else 5
    if host.lt(mij, mik):
        return 3
    if host.lt(mik, mij):
        return 2
    return 1


def _monochromatic_subset(host: Poset, xs, m: int):
    """Lexicographically first size-m subset of indices into xs with all
    triples in one class, found by poset._first_subset."""

    def fits(chosen, c) -> bool:
        # the triples inside chosen share one class; each new one must match it
        if len(chosen) < 3:
            return True
        want = _triple_class(host, xs, *chosen[:3])
        return all(_triple_class(host, xs, chosen[a], chosen[b], c) == want
                   for a in range(len(chosen)) for b in range(a + 1, len(chosen)))

    return _poset._first_subset(range(len(xs)), m, fits, "Ramsey subset search")


def ramsey_extract(host: Poset, antichain: Sequence[int], m: int) -> Certificate:
    """Classify a planted antichain by the meet pattern of its triples and
    return the matching pattern map.

    Finds the lexicographically first size-m subset whose triples share one
    of the five meet classes, then builds the delta / gamma / v shaped map
    (with even-index thinning in the delta case so the map, and its downset
    lift, stay injective). Classes 1 and 2 are reported as NotWqoEvidence.
    """
    _semilattice.require_meets(host)
    xs = list(antichain)
    for x in xs:
        if not 0 <= x < host.n:
            raise IndexOutOfRange(f"antichain element {x} outside 0..{host.n - 1}")
    if m < 3:
        raise ValueError("m must be >= 3")
    if len(set(xs)) != len(xs):
        raise NotAntichain("repeated elements")
    if pair := _comparable_pair(host, xs):
        raise NotAntichain(f"{pair[0]} and {pair[1]} are comparable")
    if len(xs) < m:
        raise NoMonochromaticSubset(f"antichain has fewer than {m} elements")
    fields = _ramsey_fields(host, xs, m)
    return _certificate("RamseyClass", host, {
        "host": _poset.to_json_dict(host), "antichain": xs, "m": m, **fields})


def _ramsey_fields(host: Poset, xs, m: int) -> dict:
    """ramsey_extract's payload past its inputs: subset and ramsey_class,
    then classification alone for classes 1 and 2, else thinned,
    classification, pattern and the pattern map's table. Raises
    NoMonochromaticSubset when no size-m subset of xs is monochromatic."""
    picked = _monochromatic_subset(host, xs, m)
    if picked is None:
        raise NoMonochromaticSubset(f"no monochromatic subset of size {m}")
    cls = _triple_class(host, xs, picked[0], picked[1], picked[2])
    classification = _CLASSIFICATION[cls]
    fields = {"subset": picked, "ramsey_class": cls, "classification": classification}
    if cls in (1, 2):
        return fields
    meet = host.meet
    h_elems = [xs[c] for c in picked]
    if cls == 3:
        thinned = picked[0::2]
        row = [xs[c] for c in thinned]
        table = [row[i] if j == _families.OMEGA else meet(row[i], row[j])
                 for (i, j) in _families.delta_coords(len(thinned) - 1)]
    elif cls == 5:
        thinned = picked
        table = [h_elems[i] if j == _families.OMEGA else meet(h_elems[i], h_elems[i + 1])
                 for (i, j) in _families.gamma_coords(len(picked) - 1)]
    else:  # class 4
        thinned = picked
        table = [meet(h_elems[0], h_elems[1])] + h_elems
    fields.update(thinned=thinned, pattern=_pattern_descriptor(classification, len(thinned)),
                  table=table)
    return fields


# the classification of each meet class; classes 1 and 2 carry no pattern
_CLASSIFICATION = {1: NOT_WQO_EVIDENCE, 2: NOT_WQO_EVIDENCE, 3: DELTA_LIKE, 4: V_LIKE,
                   5: GAMMA_LIKE}


# the pattern family of each classification that carries a pattern map
_PATTERN_FAMILY = {DELTA_LIKE: "delta", GAMMA_LIKE: "gamma", V_LIKE: "v"}


def _pattern_descriptor(classification: str, cols: int) -> dict:
    family = _PATTERN_FAMILY[classification]
    return {"family": family, "n": cols if family == "v" else cols - 1}


def _pattern_poset(descriptor) -> Poset:
    if not (isinstance(descriptor, dict) and type(descriptor.get("n")) is int):
        raise ValueError("pattern must be an object with an integer n")
    if descriptor.get("family") not in ("delta", "gamma", "v"):
        raise ValueError("pattern family must be delta, gamma or v")
    return _families.shape(descriptor["family"], descriptor["n"])


def _pattern_map(host: Poset, family: str, tops) -> list:
    """The table of the pattern map with the given column tops: on delta and
    gamma, (i,w) goes to tops[i] and (i,j) to tops[i] ^ tops[j]; on v, the
    least element goes to the meet of the first two tops, then the tops."""
    if family == "v":
        # reduce: a payload's v(1) has one top and no pair to meet
        return [functools.reduce(host.meet, tops[:2]), *tops]
    coords = _families.delta_coords if family == "delta" else _families.gamma_coords
    return [tops[i] if j == _families.OMEGA else host.meet(tops[i], tops[j])
            for (i, j) in coords(len(tops) - 1)]


def _check_ramsey(host: Poset, payload):
    _semilattice.require_meets(host)
    xs = _indices(payload["antichain"], host.n, "antichain")
    picked = _indices(payload["subset"], len(xs), "subset")
    if type(payload["m"]) is not int or payload["m"] != len(picked):
        raise ValueError("m must be the size of subset")
    classes = {
        _triple_class(host, xs, picked[a], picked[b], picked[c])
        for a in range(len(picked))
        for b in range(a + 1, len(picked))
        for c in range(b + 1, len(picked))
    }
    mono = len(classes) == 1
    if mono:
        # a monochromatic subset fixes the class, its name and the thinning
        (cls,) = classes
        if type(payload["ramsey_class"]) is not int or payload["ramsey_class"] != cls:
            raise ValueError("ramsey_class must be the class of subset")
        if payload["classification"] != _CLASSIFICATION[cls]:
            raise ValueError("classification must name ramsey_class")
        if cls > 2 and (thinned := _indices(payload["thinned"], len(xs), "thinned")) != (
                picked[0::2] if cls == 3 else picked):
            raise ValueError("thinned must be every other index of subset for class 3, "
                             "else subset")
    out = [("antichain", _comparable_pair(host, xs) is None), ("monochromatic", mono)]
    if payload["classification"] == NOT_WQO_EVIDENCE:
        out.append(("wqo_evidence", False))
        return out
    pattern = _pattern_poset(payload["pattern"])
    # checked after the pattern is built, so its budget and family errors come first
    if mono and cls > 2 and payload["pattern"] != _pattern_descriptor(
            payload["classification"], len(payload["thinned"])):
        raise ValueError("pattern must be the shape of thinned's class")
    witness = _witness(pattern, host, payload, "table")
    if mono and cls > 2 and list(witness.table) != _pattern_map(
            host, payload["pattern"]["family"], [xs[c] for c in thinned]):
        raise ValueError("table must be the pattern map of thinned's antichain elements")
    out.append(("map_meet_preserving", witness.check_flag("meet_preserving")))
    out.append(("map_injective", witness.check_flag("injective")))
    return out


# ---------------------------------------------------------------------------
# the end-to-end pipeline


def thm8_pipeline(t: Poset, k: int) -> Certificate:
    """Independent set -> powerset quotient -> delta-shaped map -> Ramsey
    classification -> downset-lattice lift; emits a certified sublattice
    witness from the nonempty-downset lattice of the classified pattern.
    The steps build tables only; the SublatticePattern certificate, the
    checker verify_certificate runs, is the one check of their maps."""
    if k < 4:
        raise IndependenceTooSmall("pipeline needs k >= 4")
    if t.birkhoff() is None:
        raise NotDistributive("host must be a distributive lattice")
    independents = _semilattice.find_independent_set(t, k)
    if independents is None:
        raise IndependenceTooSmall(f"no independent set of size {k}")

    sub_elements, phi_table = _semilattice._phi_table(t, independents)
    delta_table = _semilattice._delta_table(t, phi_table, sub_elements, k)
    coords = _families.delta_coords(k - 1)
    row = [delta_table[i] for i, c in enumerate(coords) if c[1] == _families.OMEGA]
    ramsey = None
    for m in range(len(row), 2, -1):
        try:
            ramsey = _ramsey_fields(t, row, m)
        except NoMonochromaticSubset:
            continue
        if ramsey["classification"] != NOT_WQO_EVIDENCE:
            break
    if ramsey is None or ramsey["classification"] == NOT_WQO_EVIDENCE:
        # unreachable on _delta_table's row: for a < b < c, row[c] >= b_c >=
        # row[a] ^ row[b], so m_ab <= m_ac and every triple is of class 3, 4
        # or 5; any three positions then answer at m = 3. Kept so a broken
        # core stalls with a typed error, not a KeyError below
        raise ConstructionStalled("no usable monochromatic subset")

    masks, _lattice = _downsets.nonempty_downset_lattice(_pattern_poset(ramsey["pattern"]))
    payload = {
        "host": _poset.to_json_dict(t),
        "k": k,
        "independent_set": list(independents),
        "sublattice_elements": list(sub_elements),
        "phi_table": list(phi_table),
        "delta_table": list(delta_table),
        "delta_row": row,
        "classification": ramsey["classification"],
        "pattern": ramsey["pattern"],
        "pattern_table": list(ramsey["table"]),
        "lift_table": list(_semilattice._lift_table(t, ramsey["table"], masks)),
    }
    cert = _certificate("SublatticePattern", t, payload)
    if not cert.ok():
        raise ConstructionStalled("pipeline produced a non-verifying witness", cert)
    return cert


def _check_sublattice_pattern(host: Poset, payload):
    inds = _indices(payload["independent_set"], host.n, "independent_set")
    k = payload["k"]
    if type(k) is not int or k != len(inds):
        raise ValueError("k must be the size of independent_set")
    row = _indices(payload["delta_row"], host.n, "delta_row")
    sub = _poset.induced(host, _indices(payload["sublattice_elements"], host.n,
                                        "sublattice_elements"))
    powerset = _families.shape("finite_powerset", k)
    phi = _witness(sub, powerset, payload, "phi_table")
    delta_dom = _families.shape("delta", k - 1)
    f = _witness(delta_dom, host, payload, "delta_table")
    if row != [v for v, (_i, j) in zip(f.table, _families.delta_coords(k - 1))
               if j == _families.OMEGA]:
        raise ValueError("delta_row must be the omega row of delta_table")
    pattern = _pattern_poset(payload["pattern"])
    classification = payload["classification"]
    if not (isinstance(classification, str)
            and _PATTERN_FAMILY.get(classification) == payload["pattern"]["family"]):
        raise ValueError("classification must name the pattern's family")
    h = _witness(pattern, host, payload, "pattern_table")
    # the column tops are the images of the maximal elements; each must be
    # found in delta_row after the one before it
    tops, later = [h.table[x] for x in pattern.maximals()], iter(row)
    if not all(t in later for t in tops) or list(h.table) != _pattern_map(
            host, payload["pattern"]["family"], tops):
        raise ValueError("pattern_table must be the pattern map of column tops "
                         "taken from delta_row in order")
    _masks, lift_source = _downsets.nonempty_downset_lattice(pattern)
    lift = _witness(lift_source, host, payload, "lift_table")
    return [
        ("independence_exhaustive", _semilattice.is_independent(host, inds)),
        ("phi_lattice_hom_onto_powerset",
         phi.check_flag("lattice_hom") and phi.check_flag("surjective")),
        ("delta_map_meet_preserving", f.check_flag("meet_preserving")),
        ("row_antichain", _comparable_pair(host, row) is None),
        ("ramsey_map_meet_preserving", h.check_flag("meet_preserving")),
        ("ramsey_map_injective", h.check_flag("injective")),
        ("sublattice_hom", lift.check_flag("lattice_hom")),
        ("sublattice_injective", lift.check_flag("injective")),
    ]


_EVIDENCE_CHECKERS = {
    "IndependentSet": _check_independent_set,
    "DescendingChain": _check_descending_chain,
    "GridMap": _check_grid_map,
    "RamseyClass": _check_ramsey,
    "SublatticePattern": _check_sublattice_pattern,
}
