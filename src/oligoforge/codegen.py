"""Cyclic simplex codes and the DNA codes built from them.

A simplex code of dimension m has length n = 2^m - 1; its nonzero
codewords are the n cyclic shifts of a single generator, all of weight
2^(m-1), and any two of them share exactly 2^(m-2) one-positions. Pairing
every ordered (even, odd) combination of nonzero codewords through the
two-bit base encoding yields (2^m - 1)^2 DNA words of constant GC-content
2^(m-1) whose shift-match counts never exceed 2^(m-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import folding
# binary_image and mu are not called here. They stay bound because
# perfbench/tracing.py wraps them under this module's name as well.
from .seqcore import (  # noqa: F401
    DnaSequence,
    binary_image,
    gc_content,
    mu,
    packed_image,
    packed_mu,
    sequence_from_even_odd,
)


class SimplexCodeError(ValueError):
    """Raised when a generator does not produce a simplex code."""


# Primitive polynomials over GF(2), one per dimension, given as the
# exponents carrying coefficient 1. The m = 3 entry is chosen so that the
# default generator comes out as 1110100.
PRIMITIVE_POLYNOMIALS: dict[int, tuple[int, ...]] = {
    2: (2, 1, 0),
    3: (3, 2, 0),
    4: (4, 3, 0),
    5: (5, 3, 0),
    6: (6, 1, 0),
    7: (7, 1, 0),
    8: (8, 4, 3, 2, 0),
}


def default_generator(m: int) -> str:
    """Maximal-length shift-register output for the default polynomial.

    Runs the register from the all-ones state for 2^m - 1 steps; the
    resulting bit string generates the simplex code of dimension m.
    """
    if m not in PRIMITIVE_POLYNOMIALS:
        raise SimplexCodeError(
            f"no default generator for dimension {m}; provide one explicitly"
        )
    taps = [e for e in PRIMITIVE_POLYNOMIALS[m] if e != m]
    n = 2**m - 1
    state = [1] * m
    bits = []
    for _ in range(n):
        bits.append(state[0])
        feedback = 0
        for e in taps:
            feedback ^= state[e]
        state = state[1:] + [feedback]
    return "".join(str(b) for b in bits)


@dataclass(frozen=True)
class SimplexCode:
    """Nonzero codewords of a cyclic simplex code, in shift order."""

    m: int
    n: int
    codewords: tuple[str, ...]

    @property
    def generator(self) -> str:
        return self.codewords[0]


def _rotations(word: str) -> list[str]:
    return [word[k:] + word[:k] for k in range(len(word))]


def simplex_code(m: int, generator: str | None = None) -> SimplexCode:
    """Build and verify the simplex code of dimension m.

    The generator's n cyclic shifts must be distinct, of constant weight
    2^(m-1), closed under XOR together with zero, and pairwise intersecting
    in exactly 2^(m-2) positions. Every property is checked, including for
    the built-in default generators.
    """
    if m < 2:
        raise SimplexCodeError("dimension must be >= 2")
    n = 2**m - 1
    if generator is None:
        generator = default_generator(m)
    if set(generator) - {"0", "1"}:
        raise SimplexCodeError(f"generator must be a bit string, got {generator!r}")
    if len(generator) != n:
        raise SimplexCodeError(
            f"generator length {len(generator)} != 2^{m} - 1 = {n}"
        )
    weight = 2 ** (m - 1)
    if generator.count("1") != weight:
        raise SimplexCodeError(
            f"generator has weight {generator.count('1')}, expected {weight}"
        )
    shifts = _rotations(generator)
    if len(set(shifts)) != n:
        raise SimplexCodeError("cyclic shifts of the generator are not distinct")
    ints = [int(w, 2) for w in shifts]
    members = set(ints) | {0}
    for a in ints:
        for b in ints:
            if a ^ b not in members:
                raise SimplexCodeError("shifts plus zero are not closed under XOR")
    intersection = 2 ** (m - 2)
    for idx, a in enumerate(ints):
        for b in ints[idx + 1 :]:
            if (a & b).bit_count() != intersection:
                raise SimplexCodeError(
                    f"codeword pair intersects in {(a & b).bit_count()} positions, "
                    f"expected {intersection}"
                )
    return SimplexCode(m, n, tuple(shifts))


@dataclass(frozen=True)
class CodeProperties:
    """Recomputable metadata of a DNA codeword set."""

    size: int
    length: int
    min_hamming_distance: int | None
    gc_content: int | None  # common value, None when not constant
    gc_values: tuple[int, ...]  # sorted distinct values
    max_shift_match: int


def code_properties(codewords) -> CodeProperties:
    """Compute the metadata of an arbitrary equal-length codeword set.

    Distances and shift-match counts go through the packed binary images:
    positions differ exactly where the even or the odd bits differ, so each
    pairwise distance is one popcount, and each shift-match count is one
    popcount too (seqcore.packed_mu).
    """
    words = [DnaSequence(w) for w in codewords]
    if not words:
        raise ValueError("empty code")
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("codewords must have equal length")
    images = [packed_image(w) for w in words]
    min_distance = None
    for idx, (e1, o1) in enumerate(images):
        for e2, o2 in images[idx + 1 :]:
            d = ((e1 ^ e2) | (o1 ^ o2)).bit_count()
            if min_distance is None or d < min_distance:
                min_distance = d
    gc_values = tuple(sorted({gc_content(w) for w in words}))
    common_gc = gc_values[0] if len(gc_values) == 1 else None
    max_mu = max(
        (packed_mu(e, o, length, i) for e, o in images for i in range(1, length)),
        default=0,
    )
    return CodeProperties(
        size=len(words),
        length=length,
        min_hamming_distance=min_distance,
        gc_content=common_gc,
        gc_values=gc_values,
        max_shift_match=max_mu,
    )


@dataclass(frozen=True)
class DnaCode:
    """A set of DNA codewords and their metadata.

    properties is computed once, from the codewords, when the code is made.
    m and generator are present when the code came out of the simplex
    construction; codes loaded from plain files carry None there.
    """

    codewords: tuple[DnaSequence, ...]
    m: int | None = None
    generator: str | None = None
    properties: CodeProperties = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "properties", code_properties(self.codewords))

    @property
    def mu_bound(self) -> int | None:
        return 2 ** (self.m - 2) if self.m is not None else None


def build_dna_code(code: SimplexCode) -> DnaCode:
    """DNA code from all ordered (even, odd) pairs of nonzero codewords.

    Each pair decodes position-wise through the inverse base encoding,
    giving (2^m - 1)^2 distinct words; ordering follows the shift order of
    the generator, even component outermost.
    """
    words = []
    for even in code.codewords:
        for odd in code.codewords:
            words.append(sequence_from_even_odd(even, odd))
    if len(set(words)) != code.n**2:
        raise SimplexCodeError("construction produced duplicate codewords")
    return DnaCode(tuple(words), m=code.m, generator=code.generator)


def load_dna_code(sequences, m: int | None = None, generator: str | None = None) -> DnaCode:
    """Wrap an existing codeword list, recomputing its metadata."""
    return DnaCode(tuple(DnaSequence(w) for w in sequences), m=m, generator=generator)


@dataclass(frozen=True)
class VerificationReport:
    """Recomputed code facts plus pass/fail against the declared bounds."""

    size: int
    length: int
    min_hamming_distance: int | None
    gc_constant: bool
    gc_values: tuple[int, ...]
    max_shift_match: int
    mu_bound: int | None
    mu_bound_met: bool
    expected_gc: int | None
    gc_as_expected: bool
    energies: dict[str, int]
    folded: tuple[str, ...]  # codewords at or below the structure threshold
    threshold: int
    passed: bool

    def render_text(self) -> str:
        lines = [
            f"codewords: {self.size}",
            f"length: {self.length}",
            f"min_hamming_distance: {self.min_hamming_distance}",
            f"gc_content: {'constant ' + str(self.gc_values[0]) if self.gc_constant else 'NOT CONSTANT ' + str(list(self.gc_values))}",
            f"max_mu: {self.max_shift_match}"
            + (f" (bound {self.mu_bound})" if self.mu_bound is not None else ""),
        ]
        energies = list(self.energies.values())
        if energies:
            lines.append(
                f"min_free_energy: min {min(energies)} max {max(energies)}"
            )
        lines.append(
            f"folded_at_threshold_{self.threshold}: {len(self.folded)} of {self.size}"
        )
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_code(
    code: DnaCode,
    params: folding.EnergyParams | None = None,
    threshold: int = folding.DEFAULT_STRUCTURE_THRESHOLD,
) -> VerificationReport:
    """Check a DNA code's properties against its bounds and fold each word.

    The properties are the ones the code computed from its codewords when
    it was made. Pass requires: the shift-match bound holds when known, and
    GC-content is constant (and equal to 2^(m-1) when m is known). Folding
    energies are reported for information; the threshold verdict counts how
    many words fold.
    """
    props = code.properties
    mu_bound = code.mu_bound
    mu_ok = mu_bound is None or props.max_shift_match <= mu_bound
    expected_gc = 2 ** (code.m - 1) if code.m is not None else None
    gc_constant = props.gc_content is not None
    gc_ok = gc_constant and (expected_gc is None or props.gc_content == expected_gc)
    energies = {}
    folded = []
    for w in code.codewords:
        e = folding.min_free_energy(w, params)
        energies[w.text] = e
        if e <= threshold:
            folded.append(w.text)
    return VerificationReport(
        size=props.size,
        length=props.length,
        min_hamming_distance=props.min_hamming_distance,
        gc_constant=gc_constant,
        gc_values=props.gc_values,
        max_shift_match=props.max_shift_match,
        mu_bound=mu_bound,
        mu_bound_met=mu_ok,
        expected_gc=expected_gc,
        gc_as_expected=gc_ok,
        energies=energies,
        folded=tuple(folded),
        threshold=threshold,
        passed=mu_ok and gc_ok,
    )


def code_metadata(code: DnaCode, report: VerificationReport) -> dict:
    """JSON-ready sidecar describing a constructed code."""
    return {
        "m": code.m,
        "generator": code.generator,
        "size": report.size,
        "length": report.length,
        "min_hamming_distance": report.min_hamming_distance,
        "gc_content": code.properties.gc_content,
        "max_mu": report.max_shift_match,
        "mu_bound": report.mu_bound,
        "threshold": report.threshold,
        "energies": report.energies,
    }
