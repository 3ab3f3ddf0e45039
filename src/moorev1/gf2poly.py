"""Exact multigraded polynomial arithmetic over GF(2).

A polynomial is a finite set of monomials: every nonzero coefficient is 1
and addition is symmetric difference of term sets, so arithmetic is exact
by construction.  Generators live in a fixed Alphabet.  A generator may be
invertible (Laurent exponents), nilpotent of square zero, or restricted to
exponent multiples of a stride (used for pages that only contain even
powers of the invertible generator).
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union


class GF2PolyError(Exception):
    """Base error for alphabet and polynomial problems."""


class AlphabetMismatchError(GF2PolyError):
    """Raised when combining polynomials over different alphabets."""


class InvalidWindowError(GF2PolyError):
    """Raised for truncation windows with an empty range."""


class ParseError(GF2PolyError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(ParseError):
    """A syntactically valid generator name that is not in the alphabet."""


class Multidegree(tuple):
    """Tridegree (s, t, u) with componentwise arithmetic."""

    __slots__ = ()

    def __new__(cls, s: int, t: int, u: int):
        return tuple.__new__(cls, (s, t, u))

    @property
    def s(self) -> int:
        return self[0]

    @property
    def t(self) -> int:
        return self[1]

    @property
    def u(self) -> int:
        return self[2]

    # built by tuple.__new__ directly: a second trip through __new__ costs
    # more than the sum itself
    def __add__(self, other):
        return tuple.__new__(Multidegree, (self[0] + other[0], self[1] + other[1], self[2] + other[2]))

    def __sub__(self, other):
        return tuple.__new__(Multidegree, (self[0] - other[0], self[1] - other[1], self[2] - other[2]))

    def scaled(self, k: int) -> "Multidegree":
        return tuple.__new__(Multidegree, (self[0] * k, self[1] * k, self[2] * k))

    def __repr__(self):
        return f"Multidegree(s={self[0]}, t={self[1]}, u={self[2]})"


_H_NAME = re.compile(r"^h\((\d+),(\d+)\)$")
_X_NAME = re.compile(r"^x\((\d+)\)$")


def _name_rank(name: str) -> Tuple[int, int, int]:
    """Canonical generator order: v1 < alpha < alphap < h(1,0) < h(1,1) < h(2,1) < ... < x(1) < x(2) < ..."""
    if name == "v1":
        return (0, 0, 0)
    if name == "alpha":
        return (1, 0, 0)
    if name == "alphap":
        return (2, 0, 0)
    m = _H_NAME.match(name)
    if m:
        return (3, int(m.group(1)), int(m.group(2)))
    m = _X_NAME.match(name)
    if m:
        return (4, int(m.group(1)), 0)
    raise GF2PolyError(f"generator name {name!r} is not in the supported grammar")


@dataclass(frozen=True)
class Generator:
    """A graded generator.  stride restricts exponents to multiples of it."""

    name: str
    degree: Multidegree
    invertible: bool = False
    nilpotent_square: bool = False
    stride: int = 1

    def __post_init__(self):
        _name_rank(self.name)  # validates the name shape
        if self.invertible and self.nilpotent_square:
            raise GF2PolyError(f"{self.name}: invertible generators cannot square to zero")
        if self.stride < 1:
            raise GF2PolyError(f"{self.name}: stride must be positive")
        if self.stride > 1 and not self.invertible:
            raise GF2PolyError(f"{self.name}: stride only applies to the invertible generator")


class Alphabet:
    """An ordered set of generators, kept in the canonical generator order."""

    def __init__(self, generators: Iterable[Generator]):
        gens = sorted(generators, key=lambda g: _name_rank(g.name))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise GF2PolyError("duplicate generator names in alphabet")
        invertible = [g for g in gens if g.invertible]
        if len(invertible) > 1:
            raise GF2PolyError("at most one invertible generator is supported")
        if invertible and invertible[0].name != "v1":
            raise GF2PolyError("only v1 may be invertible")
        self.generators: Tuple[Generator, ...] = tuple(gens)
        self._index: Dict[str, int] = {g.name: i for i, g in enumerate(gens)}
        self.v1_index: Optional[int] = self._index.get("v1") if invertible else None

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __getitem__(self, i: int) -> Generator:
        return self.generators[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GF2PolyError(f"generator {name!r} not in alphabet") from None

    def generator(self, name: str) -> Generator:
        return self.generators[self.index(name)]

    @property
    def v1(self) -> Optional[Generator]:
        return None if self.v1_index is None else self.generators[self.v1_index]

    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def max_u_compensation(self, s_cap: int) -> int:
        """Largest total u-degree the non-invertible part of a monomial can carry
        when its total s-degree is at most s_cap."""
        total = 0
        ratio = 0
        for g in self.generators:
            if g.invertible or g.degree.u <= 0:
                continue
            if g.degree.s == 0:
                # bounded by nilpotence; unbounded otherwise
                if not g.nilpotent_square:
                    raise GF2PolyError(f"{g.name}: unbounded u-degree in window enumeration")
                total += g.degree.u
            else:
                ratio = max(ratio, -(-g.degree.u // g.degree.s))  # ceil(u/s)
        return total + ratio * max(s_cap, 0)


# A monomial is a tuple of (generator index, exponent) pairs, sorted by
# index, with all exponents nonzero.
Monomial = Tuple[Tuple[int, int], ...]

UNIT: Monomial = ()


def mono_degree(alphabet: Alphabet, mono: Monomial) -> Multidegree:
    s = t = u = 0
    for gi, e in mono:
        d = alphabet[gi].degree
        s += d[0] * e
        t += d[1] * e
        u += d[2] * e
    return Multidegree(s, t, u)


def mono_mul(alphabet: Alphabet, a: Monomial, b: Monomial) -> Optional[Monomial]:
    """Product of two monomials, or None when a square of a nilpotent appears.

    A merge of the two index-sorted factor tuples: only a generator present
    in both factors can vanish, square a nilpotent or turn negative."""
    if not a:
        return b
    if not b:
        return a
    gens = alphabet.generators
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ga, ea = a[i]
        gb, eb = b[j]
        if ga < gb:
            out.append(a[i])
            i += 1
        elif gb < ga:
            out.append(b[j])
            j += 1
        else:
            i += 1
            j += 1
            e = ea + eb
            if e == 0:
                continue
            g = gens[ga]
            if g.nilpotent_square and e > 1:
                return None
            if e < 0 and not g.invertible:
                raise GF2PolyError(f"negative exponent on {g.name}")
            out.append((ga, e))
    out.extend(a[i:] if i < na else b[j:])
    return tuple(out)


def mono_divides(divisor: Monomial, mono: Monomial) -> bool:
    """True when divisor's exponents are all covered by mono (positive
    exponents only), by one walk along both index-sorted factor tuples."""
    rest = iter(mono)
    for gi, e in divisor:
        for g, x in rest:
            if g >= gi:
                break
        else:
            return False
        if g != gi or x < e:
            return False
    return True


def mono_sort_key(alphabet: Alphabet, mono: Monomial) -> Tuple[int, ...]:
    key = [0] * len(alphabet)
    for gi, e in mono:
        key[gi] = e
    return tuple(key)


def mono_str(alphabet: Alphabet, mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for gi, e in mono:
        name = alphabet[gi].name
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _xor(items: Iterable) -> FrozenSet:
    """GF(2) sum of basis items: those occurring an odd number of times."""
    acc = set()
    for p in items:
        if p in acc:
            acc.discard(p)
        else:
            acc.add(p)
    return frozenset(acc)


class Polynomial:
    """A GF(2) polynomial: a frozenset of monomials over one alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Iterable[Monomial] = ()):
        self.alphabet = alphabet
        # duplicate terms cancel in characteristic 2
        self.terms = terms if isinstance(terms, frozenset) else _xor(terms)

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Polynomial":
        return cls(alphabet, frozenset())

    @classmethod
    def one(cls, alphabet: Alphabet) -> "Polynomial":
        return cls(alphabet, frozenset((UNIT,)))

    @classmethod
    def gen(cls, alphabet: Alphabet, name: str, exp: int = 1) -> "Polynomial":
        gi = alphabet.index(name)
        g = alphabet[gi]
        if exp == 0:
            return cls.one(alphabet)
        if exp < 0 and not g.invertible:
            raise GF2PolyError(f"negative exponent on {name}")
        if g.invertible and exp % g.stride:
            raise GF2PolyError(f"{name}: exponent {exp} is not a multiple of its stride {g.stride}")
        if g.nilpotent_square and exp > 1:
            return cls.zero(alphabet)
        return cls(alphabet, frozenset((((gi, exp),),)))

    @classmethod
    def monomial(cls, alphabet: Alphabet, mono: Monomial) -> "Polynomial":
        return cls(alphabet, frozenset((mono,)))

    def _check_alphabet(self, other: "Polynomial"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("polynomials over different alphabets")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.terms))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_alphabet(other)
        return Polynomial(self.alphabet, self.terms ^ other.terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_alphabet(other)
        products = (mono_mul(self.alphabet, a, b) for a in self.terms for b in other.terms)
        return Polynomial(self.alphabet, (m for m in products if m is not None))

    def mul_monomial(self, mono: Monomial) -> "Polynomial":
        # exponents add, so distinct terms keep distinct products: nothing cancels
        terms = frozenset([mono_mul(self.alphabet, x, mono) for x in self.terms])
        return Polynomial(self.alphabet, terms - {None})

    def monomials_sorted(self) -> List[Monomial]:
        return sorted(self.terms, key=lambda m: mono_sort_key(self.alphabet, m))

    def multidegree(self) -> Optional[Multidegree]:
        """Common multidegree of all terms; None for the zero polynomial."""
        degs = {mono_degree(self.alphabet, m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise GF2PolyError("polynomial is not homogeneous")
        return degs.pop()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(mono_str(self.alphabet, m) for m in self.monomials_sorted())

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Polynomial":
        return _parse(alphabet, text)


_TOKEN_RE = re.compile(
    r"v1|alphap|alpha|h\(\s*\d+\s*,\s*\d+\s*\)|x\(\s*\d+\s*\)|\^|\*|\+|-?\d+"
)


def _tokenize(text: str) -> List[Tuple[str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tok = re.sub(r"\s", "", m.group(0))
        tokens.append((tok, pos))
        pos = m.end()
    return tokens


def _parse(alphabet: Alphabet, text: str) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    terms: List[Monomial] = []
    i = 0

    def parse_term(i: int) -> Tuple[Optional[Monomial], int]:
        exps: Dict[int, int] = {}
        first: Dict[int, int] = {}  # generator -> position of its first factor
        dead = False
        while True:
            if i >= len(tokens):
                raise ParseError("expected a factor", len(text))
            tok, pos = tokens[i]
            i += 1
            if tok == "1":
                pass
            elif tok == "0":
                dead = True
            elif tok in ("^", "*", "+") or re.fullmatch(r"-?\d+", tok):
                raise ParseError(f"expected a factor, found {tok!r}", pos)
            else:
                try:
                    gi = alphabet.index(tok)
                except GF2PolyError:
                    raise UnknownGeneratorError(f"unknown generator {tok!r}", pos) from None
                exp = 1
                if i < len(tokens) and tokens[i][0] == "^":
                    i += 1
                    if i >= len(tokens) or not re.fullmatch(r"-?\d+", tokens[i][0]):
                        at = tokens[i][1] if i < len(tokens) else len(text)
                        raise ParseError("expected an integer exponent", at)
                    exp = int(tokens[i][0])
                    i += 1
                exps[gi] = exps.get(gi, 0) + exp
                first.setdefault(gi, pos)
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                continue
            break
        if dead:
            return None, i
        mono = []
        for gi in sorted(exps):
            e = exps[gi]
            if e == 0:
                continue
            g = alphabet[gi]
            if e < 0 and not g.invertible:
                raise ParseError(f"negative exponent on {g.name}", first[gi])
            if g.invertible and e % g.stride:
                raise ParseError(
                    f"{g.name}: exponent {e} is not a multiple of its stride {g.stride}", first[gi]
                )
            if g.nilpotent_square and e > 1:
                return None, i  # square of a nilpotent: the whole term is zero
            mono.append((gi, e))
        return tuple(mono), i

    while True:
        mono, i = parse_term(i)
        if mono is not None:
            terms.append(mono)
        if i < len(tokens):
            tok, pos = tokens[i]
            if tok != "+":
                raise ParseError(f"expected '+', found {tok!r}", pos)
            i += 1
            continue
        break
    return Polynomial(alphabet, terms)


@dataclass(frozen=True)
class TruncationWindow:
    """Finite truncation of an infinite graded algebra.

    Results are exact inside the window.
    """

    v1_exponent_range: Tuple[int, int]
    s_range: Tuple[int, int]
    t_range: Tuple[int, int]
    u_range: Tuple[int, int]

    def __post_init__(self):
        for name in ("v1_exponent_range", "s_range", "t_range", "u_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise InvalidWindowError(f"empty {name}: ({lo}, {hi})")

    def contains(self, d: Multidegree) -> bool:
        return (
            self.s_range[0] <= d[0] <= self.s_range[1]
            and self.t_range[0] <= d[1] <= self.t_range[1]
            and self.u_range[0] <= d[2] <= self.u_range[1]
        )


def default_window(
    t_max: int = 64,
    s_max: int = 12,
    v1_min: int = -16,
    v1_max: int = 16,
) -> TruncationWindow:
    """Window used throughout: u matches the v1 exponent range and the
    internal degree reaches down to the most negative in-window monomial."""
    t_min = 2 * v1_min - 1 if v1_min < 0 else -1
    return TruncationWindow(
        v1_exponent_range=(v1_min, v1_max),
        s_range=(0, s_max),
        t_range=(t_min, t_max),
        u_range=(v1_min, v1_max),
    )


@dataclass(frozen=True)
class Quotient:
    """The polynomial algebra on an alphabet modulo monomial relations: its
    basis is the monomials no relation divides.  A relation is a monomial
    other than 1 in the non-invertible generators."""

    alphabet: Alphabet
    relations: Tuple[Monomial, ...] = ()

    def __post_init__(self):
        for rel in self.relations:
            if not rel or any(e < 1 or self.alphabet[gi].invertible for gi, e in rel):
                raise GF2PolyError(
                    f"relation {mono_str(self.alphabet, rel)} needs positive exponents on non-invertible generators"
                )


# what a window walk takes: an alphabet stands for its quotient by no relation
Algebra = Union[Alphabet, Quotient]


def _quotient(algebra: Algebra) -> Quotient:
    return algebra if isinstance(algebra, Quotient) else Quotient(algebra)


_ORIGIN = (0, 0, 0)

# a degree's lane under a step: the lane's first degree with 0 <= u < the
# step's u, and a position k along it, the degree being first + k*step
Lane = Tuple[int, int, int]


def _lane(d: Tuple[int, int, int], step: Tuple[int, int, int]) -> Tuple[Lane, int]:
    k = d[2] // step[2]
    return (d[0] - k * step[0], d[1] - k * step[1], d[2] - k * step[2]), k


def _add_cuts(
    lanes: Dict[Lane, List[int]],
    step: Tuple[int, int, int],
    source: Dict[Lane, List[int]],
    offset: Tuple[int, int, int] = _ORIGIN,
    support: bool = False,
) -> None:
    """Add to lanes the cuts of source read at d + offset: the positions k
    of d = first + k*step where something source files at d + offset may
    change (source holds cuts by lane of the same step).  With support, the
    lanes source's cuts fall on are added first; else only lanes already
    there get cuts."""
    if not source:
        return
    ds, dt, du = offset
    if support:
        for s, t, u in source:
            lanes.setdefault(_lane((s - ds, t - dt, u - du), step)[0], [])
    ss, st, su = step
    for (s, t, u), ks in lanes.items():
        # _lane of d + offset, written out: this runs once per lane and read
        k = (u + du) // su
        cuts = source.get((s + ds - k * ss, t + dt - k * st, u + du - k * su))
        if cuts:
            ks.extend([c - k for c in cuts])


def _edges(x: int, dx: int, lo: int, hi: int) -> Tuple[int, ...]:
    """The k where x + k*dx enters and leaves [lo, hi]."""
    if dx > 0:
        return -((x - lo) // dx), (hi - x) // dx + 1
    if dx < 0:
        return -((hi - x) // -dx), (x - lo) // -dx + 1
    return ()


class Run(NamedTuple):
    """first + k*step for k < length, the degrees of one run, and what
    does not change along it."""

    first: Multidegree
    length: int
    value: Any


class Runs:
    """The maximal runs of one step on which a value does not change,
    filed by lane, so that the run holding a degree is one search away."""

    def __init__(self, step: Multidegree, runs: Iterable[Run]):
        self.step = step
        lanes: Dict[Lane, List[Tuple[int, Run]]] = {}
        for run in runs:
            lane, k = _lane(run.first, step)
            lanes.setdefault(lane, []).append((k, run))
        for got in lanes.values():
            got.sort(key=lambda kr: kr[0])
        self._lanes = lanes  # lane -> (position of first, run) in rising position
        self._starts = {lane: [k for k, _ in got] for lane, got in lanes.items()}
        self._cuts: Optional[Dict[Lane, List[int]]] = None

    def __iter__(self) -> Iterator[Run]:
        for runs in self._lanes.values():
            for _, run in runs:
                yield run

    def at(self, d: Tuple[int, int, int]) -> Optional[Run]:
        lane, k = _lane(d, self.step)
        starts = self._starts.get(lane)
        if starts:
            i = bisect_right(starts, k) - 1
            if i >= 0:
                first, run = self._lanes[lane][i]
                if k < first + run.length:
                    return run
        return None

    def cuts(self) -> Dict[Lane, List[int]]:
        """Where each run starts and ends, by lane (see _add_cuts)."""
        if self._cuts is None:
            self._cuts = {lane: [k for a, run in runs for k in (a, a + run.length)] for lane, runs in self._lanes.items()}
        return self._cuts


def spans(lanes: Dict[Lane, List[int]]) -> Dict[Lane, Tuple[int, int]]:
    """The first and last cut of each lane, taken once the support is in:
    no run reaches past them."""
    return {lane: (min(ks), max(ks)) for lane, ks in lanes.items()}


def segment_runs(
    step: Multidegree, lanes: Dict[Lane, List[int]], span: Dict[Lane, Tuple[int, int]], value: Callable[[Multidegree], Any]
) -> Runs:
    """The maximal runs along lanes, within span, on which value is not
    None and does not change, given cuts (positions on each lane) outside
    which it cannot change: value is read once per stretch between cuts,
    at its first degree, and equal neighbours are merged."""
    ds, dt, du = step
    out: List[Run] = []
    for (s, t, u), ks in lanes.items():
        lo, hi = span[s, t, u]
        ks = sorted({k for k in ks if lo <= k <= hi})
        got: List[list] = []
        last = None
        for a, b in zip(ks, ks[1:]):
            d = tuple.__new__(Multidegree, (s + a * ds, t + a * dt, u + a * du))
            v = value(d)
            if v is None:
                last = None
            elif last is not None and last[2] == v:
                last[1] += b - a
            else:
                last = [d, b - a, v]
                got.append(last)
        out.extend(Run(*run) for run in got)
    return Runs(step, out)


class _WindowTrust:
    """The completeness rule shared by the bases and the counts of a window.

    A degree is complete when no monomial of that exact multidegree was
    excluded by the v1 exponent range; degrees outside the window ranges are
    never complete since nothing was enumerated there.
    """

    def __init__(self, window: TruncationWindow, truncated: Set[Tuple[int, int, int]], alphabet: Alphabet):
        self.window = window
        self.alphabet = alphabet
        self._truncated = truncated
        # below s = 0 the whole algebra vanishes, no truncation can hide anything
        self._vanishes_below_s0 = all(g.degree.s >= 0 for g in alphabet)
        self._box = window.s_range + window.t_range + window.u_range
        # shift -> what _spread builds for it
        self._around: Dict[Tuple[int, int, int], Tuple[Set[Tuple[int, int, int]], Tuple[int, ...]]] = {}
        self._clip_lanes: Dict[Tuple[int, int, int], Dict[Lane, List[int]]] = {}

    def trust_cuts(
        self, lanes: Dict[Lane, List[int]], shift: Tuple[int, int, int], step: Multidegree, offset=_ORIGIN
    ) -> None:
        """Add to each lane the positions where complete_around(d + offset,
        shift) may change: where d + offset, or a degree one shift from it,
        crosses the t or u range or a stretch of truncated degrees."""
        clips = self._clip_lanes.get(step)
        if clips is None:
            clips = self._clip_lanes[step] = self._stretches(step)
        _, _, t_lo, t_hi, u_lo, u_hi = self._box
        ss, st, su = shift
        os_, ot, ou = offset
        for near in {offset, (os_ + ss, ot + st, ou + su), (os_ - ss, ot - st, ou - su)}:
            _add_cuts(lanes, step, clips, near)
            _, nt, nu = near
            for (_, t, u), ks in lanes.items():
                ks.extend(_edges(t + nt, step[1], t_lo, t_hi))
                ks.extend(_edges(u + nu, step[2], u_lo, u_hi))

    def _stretches(self, step: Multidegree) -> Dict[Lane, List[int]]:
        """Where each stretch of consecutive truncated degrees starts and
        ends, by lane of step."""
        cuts: Dict[Lane, Set[int]] = {}
        for d in self._truncated:
            lane, k = _lane(d, step)
            # the ends shared by two neighbours cancel
            cuts.setdefault(lane, set()).symmetric_difference_update((k, k + 1))
        return cuts

    def _in_box(self, s: int, t: int, u: int) -> bool:
        """complete(d) for a d that is not truncated."""
        if s < 0 and self._vanishes_below_s0:
            return True
        s_lo, s_hi, t_lo, t_hi, u_lo, u_hi = self._box
        return s_lo <= s <= s_hi and t_lo <= t <= t_hi and u_lo <= u <= u_hi

    def complete(self, d: Multidegree) -> bool:
        # a truncated degree holds a monomial, so it has s >= 0 whenever
        # the algebra vanishes below s = 0
        return self._in_box(*d) and d not in self._truncated

    def _spread(self, shift: Tuple[int, int, int]) -> Tuple[Set[Tuple[int, int, int]], Tuple[int, ...]]:
        """What complete_around reads for one shift: the degrees with a
        truncated degree at d, d - shift or d + shift, and the box of the d
        with d, d - shift and d + shift all inside the window ranges (empty
        when the shift is wider than a range)."""
        ds, dt, du = shift
        near = set(self._truncated)
        for s, t, u in self._truncated:
            near.add((s + ds, t + dt, u + du))
            near.add((s - ds, t - dt, u - du))
        s_lo, s_hi, t_lo, t_hi, u_lo, u_hi = self._box
        ds, dt, du = abs(ds), abs(dt), abs(du)
        return near, (s_lo + ds, s_hi - ds, t_lo + dt, t_hi - dt, u_lo + du, u_hi - du)

    def complete_around(self, d: Multidegree, shift: Multidegree) -> bool:
        """The trust rule of a computed page: complete at d, d - shift and
        d + shift, so both maps through d are known in full.

        One lookup in the truncated set spread by ±shift and one box test,
        both built once per shift, stand for the three lookups and the three
        range tests complete would make; only a d outside that box takes the
        range tests, which also hold the rule below s = 0."""
        around = self._around.get(shift)
        if around is None:
            around = self._around[shift] = self._spread(shift)
        near, (s_lo, s_hi, t_lo, t_hi, u_lo, u_hi) = around
        if d in near:
            return False
        s, t, u = d
        if s_lo <= s <= s_hi and t_lo <= t <= t_hi and u_lo <= u <= u_hi:
            return True
        ds, dt, du = shift
        return (
            self._in_box(s, t, u)
            and self._in_box(s - ds, t - dt, u - du)
            and self._in_box(s + ds, t + dt, u + du)
        )


class WindowBasis(_WindowTrust):
    """Monomial bases of every degree in a window, with completeness flags.

    A degree is kept as its pieces (j, parts) in rising j, parts the
    v1-free monomials of one part degree of _walk_parts in the canonical
    order, one tuple shared by every degree the part degree is placed at.
    Its basis is v1^j * part over the pieces in turn, which is the
    canonical order (v1 exponent, then the v1-free part).  basis(d) builds
    that tuple on its first read and keeps it, so every read gets the same
    object; size(d) counts it without building a monomial."""

    def __init__(
        self,
        window: TruncationWindow,
        pieces: Dict[Multidegree, List[Tuple[int, Tuple[Monomial, ...]]]],
        truncated: Set[Tuple[int, int, int]],
        alphabet: Alphabet,
    ):
        super().__init__(window, truncated, alphabet)
        self._pieces = pieces  # nonempty degrees only
        self._sizes: Dict[Multidegree, int] = {}
        for d, got in pieces.items():
            n = 0
            for _, parts in got:
                n += len(parts)
            self._sizes[d] = n
        self._built: Dict[Multidegree, Tuple[Monomial, ...]] = {}

    def basis(self, d: Multidegree) -> Tuple[Monomial, ...]:
        got = self._built.get(d)
        if got is None:
            pieces = self._pieces.get(d)
            if pieces is None:
                return ()
            vi = self.alphabet.v1_index
            got = self._built[d] = tuple(((vi, j),) + part if j else part for j, parts in pieces for part in parts)
        return got

    def size(self, d: Multidegree) -> int:
        return self._sizes.get(d, 0)

    def degrees(self) -> List[Multidegree]:
        return sorted(self._pieces)


class WindowCounts(_WindowTrust):
    """The number of window monomials at every degree, with the
    completeness flags of the enumeration they count.

    The counts are kept as _walk_parts yields them: each part degree and
    parity with its count n and kept v1 exponents, filed as a piece (a, b,
    n, parity at a) of positions a, a + stride, ..., b on the part
    degree's line (_lane under v1's degree; without v1, under (0, 0, 1), one
    position per piece).  A degree is counted off the pieces of its line."""

    def __init__(self, window: TruncationWindow, found: List[tuple], truncated, alphabet: Alphabet, v1_odd=False):
        super().__init__(window, truncated, alphabet)
        v1 = alphabet.v1
        self._v1 = Multidegree(0, 0, 1) if v1 is None else v1.degree
        self._stride = 1 if v1 is None else v1.stride
        self._flip = int(v1_odd)  # the parity flips with each power of an odd v1
        self._lines: Dict[Lane, List[Tuple[int, int, int, int]]] = {}
        for s, t, u, p, n, kept in found:
            if kept:
                line, k = _lane((s, t, u), self._v1)
                self._lines.setdefault(line, []).append((k + kept.start, k + kept[-1], n, p ^ (v1_odd & kept.start)))

    def _at(self, d: Tuple[int, int, int]) -> Tuple[int, int]:
        """(count, odd count) at d."""
        line, k = _lane(d, self._v1)
        n = odd = 0
        stride, flip = self._stride, self._flip
        for a, b, m, parity in self._lines.get(line, ()):
            if a <= k <= b and not (k - a) % stride:
                n += m
                if parity ^ (flip & (k - a)):
                    odd += m
        return n, odd

    def count(self, d: Multidegree) -> int:
        return self._at(d)[0]

    def odd_count(self, d: Multidegree) -> int:
        """How many of the counted monomials at d are odd (see count_window)."""
        return self._at(d)[1]

    def total(self) -> int:
        stride = self._stride
        return sum(n * ((b - a) // stride + 1) for pieces in self._lines.values() for a, b, n, _ in pieces)

    def count_cuts(self, step: Multidegree, parity: bool = True) -> Dict[Lane, List[int]]:
        """Where each piece starts and ends on the lanes of step, a multiple
        m of the line's step; m must be a multiple of v1's stride, so that a
        piece's count holds along a lane, and with parity even when v1 is
        odd, so that its parity holds too.  The positions of a piece on its
        line are a, a + stride, ..., b, and position p = q*m + r sits at q on
        the lane r steps of v1 up the line."""
        (_, vt, vu), stride = self._v1, self._stride
        m = step[2] // vu
        if step != self._v1.scaled(m) or m < 1 or m % stride or parity and self._flip & m:
            raise GF2PolyError(f"runs of step {tuple(step)} do not fit v1's degree, stride and parity")
        got: Dict[Lane, List[int]] = {}
        for (s, t, u), pieces in self._lines.items():
            for a, b, _, _ in pieces:
                for p in range(a, min(b, a + m - stride) + 1, stride):
                    q, r = divmod(p, m)
                    got.setdefault((s, t + vt * r, u + vu * r), []).extend((q, q + (b - p) // m + 1))
        return got

    def runs(self, shift: Multidegree, step: Multidegree) -> Runs:
        """The maximal runs first + k*step of degrees with a nonzero count
        on which the count, the odd count and complete_around(d, shift) do
        not change; a run's value is (count, odd count, trusted)."""
        lanes: Dict[Lane, List[int]] = {}
        _add_cuts(lanes, step, self.count_cuts(step), support=True)
        span = spans(lanes)
        self.trust_cuts(lanes, shift, step)

        def value(d):
            n, odd = self._at(d)
            return (n, odd, self.complete_around(d, shift)) if n else None

        return segment_runs(step, lanes, span, value)


class _PartPlan:
    """How _walk_parts walks a window, for enumerate_window and count_window.

    A monomial is v1^j times a part in the other generators.  Parts grow
    one generator at a time in a fixed order, pruned by caps on their
    (s, t, u) degree; each part degree is then placed at every v1 exponent
    j consistent with the t and u ranges, solved for by v1_exponents."""

    def __init__(self, alphabet: Alphabet, window: TruncationWindow):
        v1_lo, v1_hi = window.v1_exponent_range
        if v1_lo > v1_hi:
            raise InvalidWindowError("empty v1 exponent range")
        self.window = window
        self.s_lo, self.s_hi = window.s_range
        self.v1 = v1 = alphabet.v1
        others = [(i, g) for i, g in enumerate(alphabet.generators) if not g.invertible]
        others.sort(key=lambda ig: (-ig[1].degree.t, ig[0]))
        self.others = others
        # the most the generators from k on can lower t
        self.neg_slack = neg_slack = [0] * (len(others) + 1)
        for k in range(len(others) - 1, -1, -1):
            neg_slack[k] = neg_slack[k + 1] + max(0, -others[k][1].degree.t)
        t_hi, u_hi = window.t_range[1], window.u_range[1]
        self.t_part_hi, self.u_part_hi = t_hi, u_hi
        # the degree of v1 (0 without it, where a part is placed at j = 0 only)
        # and the first multiples of its stride at and past the v1 range
        self.vt = self.vu = 0
        if v1 is not None:
            vt, vu, stride = v1.degree.t, v1.degree.u, v1.stride
            self.vt, self.vu, self.stride = vt, vu, stride
            if vu <= 0:
                raise GF2PolyError("v1 must carry positive u-degree")
            self.kept_from = v1_lo + -v1_lo % stride
            self.above_from = v1_hi + 1 + -(v1_hi + 1) % stride
            # parts carry u >= 0, so j lies between j_floor and u_hi // vu
            j_floor = min(v1_lo, window.u_range[0] - alphabet.max_u_compensation(self.s_hi))
            if j_floor < 0:
                self.u_part_hi = u_hi - vu * j_floor
            # a part is placed only if t + vt*j <= t_hi for some j, so its t is
            # capped by the j that lowers t most: the least j when vt > 0, the
            # greatest when vt < 0
            j_far = j_floor if vt > 0 else u_hi // vu
            if vt * j_far < 0:
                self.t_part_hi = t_hi - vt * j_far

    def pruned(self, k: int, s: int, t: int, u: int) -> bool:
        """No part extending this one from generator k on fits the window."""
        return s > self.s_hi or u > self.u_part_hi or t - self.neg_slack[k] > self.t_part_hi

    def exponent_cap(self, k: int, s: int, t: int, u: int) -> int:
        """The largest exponent of generator k that a part of degree
        (s, t, u) so far can take."""
        g = self.others[k][1]
        e_max = None
        if g.nilpotent_square:
            e_max = 1
        if g.degree.s > 0:
            cap = (self.s_hi - s) // g.degree.s
            e_max = cap if e_max is None else min(e_max, cap)
        if g.degree.t > 0:
            cap = (self.t_part_hi + self.neg_slack[k + 1] - t) // g.degree.t
            e_max = cap if e_max is None else min(e_max, cap)
        if g.degree.u > 0:
            cap = (self.u_part_hi - u) // g.degree.u
            e_max = cap if e_max is None else min(e_max, cap)
        if e_max is None:
            raise GF2PolyError(f"{g.name}: cannot bound exponent during enumeration")
        return e_max

    def keeps(self, s: int, t: int, u: int) -> bool:
        """Whether a finished part is kept.  Without v1 the part is the
        monomial, so it must lie in the window; with v1, v1_exponents
        tests the t and u ranges."""
        if s < self.s_lo:
            return False
        w = self.window
        return self.v1 is not None or (
            w.t_range[0] <= t <= w.t_range[1] and w.u_range[0] <= u <= w.u_range[1]
        )

    def v1_exponents(self, s: int, t: int, u: int) -> Tuple[range, range, range]:
        """The v1 exponents j that put a kept part of degree (s, t, u) inside
        the t and u ranges, v1^j * part having degree (s, t + j*vt, u + j*vu),
        as three ranges of rising multiples of the stride: those below the
        v1 range, which clips them, those inside it, and those above it.
        Without v1 the kept part is the monomial, placed once at j = 0."""
        if self.v1 is None:
            return _NO_J, _ZERO_J, _NO_J
        w = self.window
        t_lo, t_hi = w.t_range
        u_lo, u_hi = w.u_range
        vt, vu, stride = self.vt, self.vu, self.stride
        lo, hi = -((u - u_lo) // vu), (u_hi - u) // vu  # u_lo <= u + j*vu <= u_hi
        if vt > 0:
            lo, hi = max(lo, -((t - t_lo) // vt)), min(hi, (t_hi - t) // vt)
        elif vt < 0:
            lo, hi = max(lo, -((t_hi - t) // -vt)), min(hi, (t - t_lo) // -vt)
        elif not t_lo <= t <= t_hi:
            return _NO_J, _NO_J, _NO_J
        lo += -lo % stride
        v1_lo, v1_hi = w.v1_exponent_range
        return (
            range(lo, min(hi + 1, v1_lo), stride),
            range(max(lo, self.kept_from), min(hi, v1_hi) + 1, stride),
            range(max(lo, self.above_from), hi + 1, stride),
        )

    def at(self, s: int, t: int, u: int, js: range) -> List[Tuple[int, int, int]]:
        """The degrees of v1^j * part for j in js, the part of degree (s, t, u)."""
        vt, vu = self.vt, self.vu
        return [(s, t + vt * j, u + vu * j) for j in js]


_NO_J, _ZERO_J = range(0), range(1)


def _walk_parts(
    quotient: Quotient, plan: _PartPlan, odd: Set[int], keep: bool
) -> Tuple[Set[Tuple[int, int, int]], List[tuple]]:
    """The v1-free parts of the quotient that plan's window can hold, by one
    dynamic program over plan.others, for enumerate_window (keep) and
    count_window.

    A state is a part degree (s, t, u), a parity, and for each generator a
    relation names, its exponent capped at the most any relation asks of
    it: the Hilbert function of a monomial quotient (Bayer and Stillman,
    J. Symbolic Comput. 14, 1992).  A part is odd when its exponents on the
    generators in `odd` add up to an odd number.  A state carries how many
    of its parts no relation divides, or with keep those parts as factor
    tuples in walk order; a divided part is carried as nothing, since its
    degree may still be clipped.

    Returns the degrees the v1 range clips (for the whole algebra, whose
    clipping sets the trust) and (s, t, u, p, value, kept) for each part
    degree and parity holding a part no relation divides: value is the
    count or the parts, kept the v1 exponents that place them in the
    window, solved once per part degree and parity."""
    rels = quotient.relations
    need: Dict[int, int] = {}  # tracked generator -> the exponent cap of its state
    for rel in rels:
        for gi, e in rel:
            need[gi] = max(need.get(gi, 0), e)
    slot = {gi: i for i, gi in enumerate(sorted(need))}
    rel_slots = [tuple((slot[gi], e) for gi, e in rel) for rel in rels]
    # what a state carries: a count, or the parts themselves
    start, divided = ([()], []) if keep else (1, 0)
    # (part degree, parity, capped tracked exponents) -> the parts no relation
    # divides; divided parts have no exponents
    states: Dict[Tuple[int, int, int, int, Tuple[int, ...]], Any] = {(0, 0, 0, 0, (0,) * len(slot)): start}
    for k, (gi, g) in enumerate(plan.others):
        ds, dt, du = g.degree
        flip = 1 if gi in odd else 0
        i = slot.get(gi)
        grown: Dict[Tuple[int, int, int, int, Tuple[int, ...]], Any] = {}
        for (s, t, u, p, exps), free in states.items():
            if plan.pruned(k, s, t, u):
                continue
            for e in range(plan.exponent_cap(k, s, t, u) + 1):
                got, x = free, exps
                if i is not None and e and got:
                    x = exps[:i] + (min(e, need[gi]),) + exps[i + 1 :]
                    if any(all(x[j] >= r for j, r in rel) for rel in rel_slots):
                        got, x = divided, ()
                if keep and e and got:
                    got = [m + ((gi, e),) for m in got]
                key = (s + ds * e, t + dt * e, u + du * e, p ^ (flip & e), x)
                grown[key] = grown.get(key, divided) + got
        states = grown
    # the tracked exponents have done their work: merge the parts they split
    merged: Dict[Tuple[int, int, int, int], Any] = {}
    for (s, t, u, p, _), free in states.items():
        merged[s, t, u, p] = merged.get((s, t, u, p), divided) + free
    k_end = len(plan.others)
    truncated: Set[Tuple[int, int, int]] = set()
    found = []
    for (s, t, u, p), free in merged.items():
        if plan.pruned(k_end, s, t, u) or not plan.keeps(s, t, u):
            continue
        below, kept, above = plan.v1_exponents(s, t, u)
        truncated.update(plan.at(s, t, u, below), plan.at(s, t, u, above))
        if free:
            found.append((s, t, u, p, free, kept))
    return truncated, found


def enumerate_window(algebra: Algebra, window: TruncationWindow) -> WindowBasis:
    """Every in-window basis monomial of the quotient, filed by
    multidegree as v1-free parts placed at v1 exponents (WindowBasis), so a
    degree's monomials are built only when its basis is read.

    The v1 exponent is iterated over everything consistent with the u range,
    so a degree whose basis got clipped by the v1 exponent range is flagged
    as truncated rather than silently reported short.  The parts come from
    _walk_parts, which drops a part once a relation divides it but keeps its
    degree, since the whole algebra's clipping sets the trust, as in
    count_window.
    """
    quotient = _quotient(algebra)
    plan = _PartPlan(quotient.alphabet, window)
    truncated, found = _walk_parts(quotient, plan, set(), True)
    # at a window degree of fixed u, a larger u of the part means a smaller
    # v1 exponent, so in falling u each window degree gets its pieces in
    # rising j
    found.sort(key=lambda f: -f[2])
    vt, vu = plan.vt, plan.vu
    pieces: Dict[Multidegree, List[Tuple[int, Tuple[Monomial, ...]]]] = {}
    for s, t, u, _, got, kept in found:
        # the canonical order, dense exponents with the lowest generator
        # first, read off the index-sorted factors
        parts = tuple(sorted((tuple(sorted(m)) for m in got), key=lambda m: [(-gi, e) for gi, e in m]))
        for j in kept:
            pieces.setdefault(tuple.__new__(Multidegree, (s, t + vt * j, u + vu * j)), []).append((j, parts))
    return WindowBasis(window, pieces, truncated, quotient.alphabet)


def count_window(algebra: Algebra, window: TruncationWindow, odd: Iterable[str] = ()) -> WindowCounts:
    """How many basis monomials of the quotient enumerate_window finds at
    each degree, and which degrees the v1 range clips (for the whole
    alphabet, as there).  A counted monomial is odd when its exponents on the
    generators named in `odd` add up to an odd number; odd_count reads how
    many are.

    No monomial is built and no count is placed: _walk_parts counts the
    parts of each part degree and parity, and WindowCounts keeps each count
    with the v1 exponents of its part degree, on the part degree's
    v1-line."""
    quotient = _quotient(algebra)
    alphabet = quotient.alphabet
    plan = _PartPlan(alphabet, window)
    flips = {alphabet.index(name) for name in odd}
    truncated, found = _walk_parts(quotient, plan, flips, False)
    return WindowCounts(window, found, truncated, alphabet, alphabet.v1_index in flips)
