"""Cyclic simplex codes and the DNA codes built from them.

A simplex code of dimension m has length n = 2^m - 1; its nonzero
codewords are the n cyclic shifts of a single generator, all of weight
2^(m-1), and any two of them share exactly 2^(m-2) one-positions. Pairing
every ordered (even, odd) combination of nonzero codewords through the
two-bit base encoding yields (2^m - 1)^2 DNA words of constant GC-content
2^(m-1) whose shift-match counts never exceed 2^(m-2).
"""

from __future__ import annotations

from collections import namedtuple

from . import folding
# binary_image, gc_content and mu are not called here. They stay bound because
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


class SimplexCode(namedtuple("SimplexCode", "m n codewords")):
    """Nonzero codewords of a cyclic simplex code, in shift order."""

    __slots__ = ()

    @property
    def generator(self) -> str:
        return self.codewords[0]


def simplex_code(m: int, generator: str | None = None) -> SimplexCode:
    """Build and verify the simplex code of dimension m.

    The generator's n cyclic shifts must be distinct, of constant weight
    2^(m-1), and closed under XOR together with zero. Every property is
    checked, including for the built-in default generators.

    Any two distinct shifts a, b then intersect in exactly 2^(m-2)
    positions, so that is not checked apart: a ^ b is nonzero, hence one
    of the shifts, of weight 2^(m-1) = |a| + |b| - 2|a & b| = 2^m - 2|a & b|.
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
    shifts = [generator[k:] + generator[:k] for k in range(n)]
    if len(set(shifts)) != n:
        raise SimplexCodeError("cyclic shifts of the generator are not distinct")
    ints = [int(w, 2) for w in shifts]
    members = set(ints) | {0}
    for a in ints:
        for b in ints:
            if a ^ b not in members:
                raise SimplexCodeError("shifts plus zero are not closed under XOR")
    return SimplexCode(m, n, tuple(shifts))


class CodeProperties(namedtuple("CodeProperties", [
    "size", "length", "min_hamming_distance", "gc_content", "gc_values",
    "max_shift_match", "rotation_step", "representatives",
])):
    """Recomputable metadata of a DNA codeword set.

    gc_content is the common value, None when not constant; gc_values holds
    the sorted distinct values.

    rotation_step is the smallest d such that rotating every word by d
    maps the codeword multiset onto itself. The rotations that do form the
    group generated by d; it is 1 for a simplex code, and the word length
    when only the identity does. representatives holds one distinct word
    per orbit of that group, in codeword order; rotating each by the
    multiples of d gives every distinct word, each once per orbit.
    """

    __slots__ = ()

    @property
    def gc_constant(self) -> bool:
        return self.gc_content is not None


def _rotation_orbits(texts: list[str], length: int) -> tuple[int, tuple[str, ...]]:
    """Rotation step of a word multiset and one representative per orbit.

    The rotations preserving the multiset form a subgroup of Z_length,
    which is dZ_length for the smallest such d. Multiplicity counts: a
    rotation that maps a repeated word onto a single one does not preserve
    the code. The first word of each orbit, by index, represents it.
    """
    counts: dict[str, int] = {}
    for t in texts:
        counts[t] = counts.get(t, 0) + 1
    step = next(
        d
        for d in range(1, length + 1)
        if length % d == 0 and all(counts.get(t[d:] + t[:d]) == c for t, c in counts.items())
    )
    representatives = []
    for t in list(counts):
        if t in counts:  # not yet in an orbit
            representatives.append(t)
            for k in range(0, length, step):
                counts.pop(t[k:] + t[:k], None)
    return step, tuple(representatives)


def _rotate(image: int, k: int, length: int) -> int:
    """Packed image of a length-base word rotated left by k, 0 <= k <= length."""
    return (image << k | image >> length - k) & ((1 << length) - 1)


def code_properties(codewords) -> CodeProperties:
    """Compute the metadata of an arbitrary equal-length codeword set.

    Each distinct word is packed once. Distances and shift-match counts go
    through the packed binary images: positions differ exactly where the
    even or the odd bits differ, so each pairwise distance is one popcount,
    and each shift-match count is one popcount too (seqcore.packed_mu).

    A repeated word puts the minimum distance at 0. Otherwise, since Hamming
    distance does not change when both words rotate alike, the minimum over
    all pairs is the minimum over the pairs that hold an orbit
    representative. Representatives are compared with each other once and
    with every other word; when the group is trivial every word is a
    representative and this is the plain loop over all pairs.

    The maximum mu_i reads the representatives alone: a linear shift-i pair
    of a rotation of w is a cyclic one of w, so the mu_i of w's orbit are at
    most cmu(w, i) = popcount(~(E ^ rot_i E) & (O ^ rot_i O)), and the
    rotations are counted only where cmu exceeds the maximum so far.
    """
    words = [DnaSequence(w) for w in codewords]
    if not words:
        raise ValueError("empty code")
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("codewords must have equal length")
    distinct = {w.text: w for w in words}  # in first-occurrence order
    step, representatives = _rotation_orbits([w.text for w in words], length)
    chosen = set(representatives)
    ordered = [packed_image(distinct[t]) for t in representatives]
    ordered += [packed_image(w) for t, w in distinct.items() if t not in chosen]
    min_distance = 0 if len(distinct) < len(words) else None
    for idx in range(len(representatives)):
        e1, o1 = ordered[idx]
        for e2, o2 in ordered[idx + 1 :]:
            d = ((e1 ^ e2) | (o1 ^ o2)).bit_count()
            if min_distance is None or d < min_distance:
                min_distance = d
    gc_values = tuple(sorted({e.bit_count() for e, _ in ordered}))
    common_gc = gc_values[0] if len(gc_values) == 1 else None
    max_mu = 0
    for e, o in ordered[: len(representatives)]:
        for i in range(1, length):
            cyclic = ~(e ^ _rotate(e, i, length)) & (o ^ _rotate(o, i, length))
            if cyclic.bit_count() <= max_mu:
                continue
            for k in range(0, length, step):
                max_mu = max(
                    max_mu, packed_mu(_rotate(e, k, length), _rotate(o, k, length), length, i)
                )
    return CodeProperties(
        size=len(words),
        length=length,
        min_hamming_distance=min_distance,
        gc_content=common_gc,
        gc_values=gc_values,
        max_shift_match=max_mu,
        rotation_step=step,
        representatives=representatives,
    )


class DnaCode(namedtuple("DnaCode", "codewords m generator properties")):
    """A set of DNA codewords and their metadata.

    properties is computed once, from the codewords, when the code is made.
    m and generator are present when the code came out of the simplex
    construction; codes loaded from plain files carry None there.
    """

    __slots__ = ()

    @property
    def mu_bound(self) -> int | None:
        return 2 ** (self.m - 2) if self.m is not None else None


def build_dna_code(code: SimplexCode) -> DnaCode:
    """DNA code from all ordered (even, odd) pairs of nonzero codewords.

    Each pair decodes position-wise through the inverse base encoding,
    giving (2^m - 1)^2 distinct words, since the shifts are distinct;
    ordering follows the shift order of the generator, even component
    outermost.

    Codeword k is the generator rotated left by k, so the word of
    (c_a, c_b) is the word of (c_0, c_(b-a mod n)) rotated left by a. Only
    the n words with even component c_0 are decoded; the rest are slices.
    """
    n = code.n
    firsts = [sequence_from_even_odd(code.generator, odd).text for odd in code.codewords]
    words = [
        DnaSequence(w[a:] + w[:a])
        for a in range(n)
        for w in firsts[n - a :] + firsts[: n - a]
    ]
    return DnaCode(tuple(words), code.m, code.generator, code_properties(words))


def load_dna_code(sequences, m: int | None = None, generator: str | None = None) -> DnaCode:
    """Wrap an existing codeword list, recomputing its metadata."""
    if m is not None and m < 2:
        raise ValueError(f"simplex dimension must be >= 2, got {m}")
    words = tuple(DnaSequence(w) for w in sequences)
    return DnaCode(words, m, generator, code_properties(words))


def holds_simplex_code(code: DnaCode, simplex: SimplexCode) -> bool:
    """Whether code's words are exactly simplex's DNA code, as a multiset.

    That code holds n^2 distinct words of length n, in n orbits of n under
    rotation by 1, and a word is in it when its even and odd images are
    both shifts of the generator. A multiset closed under rotation by 1 is
    its representatives' orbits, each word of an orbit repeated alike; a
    representative whose images are shifts has n distinct rotations. So n^2
    such words with rotation step 1 are that code exactly when there are n
    representatives and each one's images are shifts.
    """
    props, n = code.properties, simplex.n
    shifts = {int(c, 2) for c in simplex.codewords}
    return (
        props.size == n * n
        and props.length == n
        and props.rotation_step == 1
        and len(props.representatives) == n
        and all(e in shifts and o in shifts for e, o in map(packed_image, props.representatives))
    )


class VerificationReport(
    namedtuple("VerificationReport", "properties mu_bound params energies folded threshold failures")
):
    """Recomputed code facts and the reasons the code fails its bounds.

    folded holds the codewords at or below the structure threshold.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def mu_bound_met(self) -> bool:
        return self.mu_bound is None or self.properties.max_shift_match <= self.mu_bound

    def render_text(self) -> str:
        props = self.properties
        lines = [
            f"codewords: {props.size}",
            f"length: {props.length}",
            f"min_hamming_distance: {props.min_hamming_distance}",
            f"gc_content: {'constant ' + str(props.gc_values[0]) if props.gc_constant else 'NOT CONSTANT ' + str(list(props.gc_values))}",
            f"max_mu: {props.max_shift_match}"
            + (f" (bound {self.mu_bound})" if self.mu_bound is not None else ""),
        ]
        energies = list(self.energies.values())
        if energies:
            lines.append(
                f"min_free_energy: min {min(energies)} max {max(energies)}"
            )
        lines.append(
            f"folded_at_threshold_{self.threshold}: {len(self.folded)} of {props.size}"
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
    GC-content is constant (and equal to 2^(m-1) when m is known); each
    failed requirement is one line of the report's failures. Folding
    energies are reported for information; the threshold verdict counts how
    many words fold. Each orbit of the code's rotation group is folded by
    one windowed fill of its representative (folding.rotation_energies);
    the energies are keyed in codeword order.
    """
    params = params or folding.DEFAULT_ENERGY_PARAMS
    props = code.properties
    failures = []
    if code.mu_bound is not None and props.max_shift_match > code.mu_bound:
        failures.append(f"max mu {props.max_shift_match} exceeds bound {code.mu_bound}")
    if not props.gc_constant or (code.m is not None and props.gc_content != 2 ** (code.m - 1)):
        failures.append(f"GC content check failed: values {list(props.gc_values)}")
    energies = dict.fromkeys(w.text for w in code.codewords)
    step = props.rotation_step
    for t in props.representatives:
        for k, energy in enumerate(folding.rotation_energies(t, step, props.length // step, params)):
            # rotations of a representative are codewords, so these keys exist
            energies[t[k * step :] + t[: k * step]] = energy
    return VerificationReport(
        properties=props,
        mu_bound=code.mu_bound,
        params=params,
        energies=energies,
        folded=tuple(w.text for w in code.codewords if energies[w.text] <= threshold),
        threshold=threshold,
        failures=tuple(failures),
    )


def code_metadata(code: DnaCode, report: VerificationReport) -> dict:
    """JSON-ready sidecar describing a code: every key verify compares."""
    props = report.properties
    return {
        "m": code.m,
        "generator": code.generator,
        "size": props.size,
        "length": props.length,
        "min_hamming_distance": props.min_hamming_distance,
        "gc_content": props.gc_content,
        "max_mu": props.max_shift_match,
        "mu_bound": report.mu_bound,
        "threshold": report.threshold,
        "at_energy": report.params.at,
        "gc_energy": report.params.gc,
        "energies": report.energies,
    }
