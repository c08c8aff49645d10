"""Cyclic simplex codes and the DNA codes built from them.

A simplex code of dimension m has length n = 2^m - 1; its nonzero
codewords are the n cyclic shifts of a single generator, all of weight
2^(m-1), and any two of them share exactly 2^(m-2) one-positions. Pairing
every ordered (even, odd) combination of nonzero codewords through the
two-bit base encoding yields (2^m - 1)^2 DNA words of constant GC-content
2^(m-1) whose shift-match counts never exceed 2^(m-2).

Those bounds hold by construction, and code_properties takes the minimum
distance 2^(m-1) and max mu 2^(m-2) from it when the words alone show that
they are exactly such a code; any other word set goes through pair loops.
verify_code folds one rotation orbit per pair of orbits that a base swap
(C<->G, A<->T or both) maps onto each other, since a swap keeps energies.
"""

from __future__ import annotations

from collections import Counter, namedtuple

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


def is_simplex_length(length: int, m: int) -> bool:
    """Whether length is 2^m - 1, read from its bits (m ones), so no 2^m is made."""
    return length.bit_length() == m and length & (length + 1) == 0


def simplex_code(m: int, generator: str | None = None) -> SimplexCode:
    """Build and verify the simplex code of dimension m.

    The generator must be of length n = 2^m - 1 and weight 2^(m-1), and
    g ^ s must be zero or a shift for each of its n cyclic shifts s. Every
    property is checked, including for the built-in default generators.

    The rest follows. Rotation permutes the shifts and commutes with XOR,
    so rot_a g ^ rot_b g = rot_a(g ^ rot_(b-a) g): the shifts with zero are
    closed under XOR. A generator of period p repeats its first p bits n/p
    times, an odd number as n is odd, so n/p divides the weight 2^(m-1) and
    p = n: the shifts are distinct. Any two distinct shifts a, b then
    intersect in exactly 2^(m-2) positions: a ^ b is nonzero, hence one of
    the shifts, of weight 2^(m-1) = |a| + |b| - 2|a & b| = 2^m - 2|a & b|.
    """
    if m < 2:
        raise SimplexCodeError("dimension must be >= 2")
    if generator is None:  # before any 2^m is made: m may be far past the built-in ones
        generator = default_generator(m)
    if set(generator) - {"0", "1"}:
        raise SimplexCodeError(f"generator must be a bit string, got {generator!r}")
    n = len(generator)
    if not is_simplex_length(n, m):
        raise SimplexCodeError(f"generator length {n} != 2^{m} - 1")
    if (weight := generator.count("1")) != 2 ** (m - 1):
        raise SimplexCodeError(f"generator has weight {weight}, expected {2 ** (m - 1)}")
    shifts = [generator[k:] + generator[:k] for k in range(n)]
    members = {int(w, 2) for w in shifts} | {0}
    g = int(generator, 2)
    if any(g ^ s not in members for s in members):
        raise SimplexCodeError("shifts plus zero are not closed under XOR")
    return SimplexCode(m, n, tuple(shifts))


class CodeProperties(namedtuple("CodeProperties", [
    "size", "length", "min_hamming_distance", "gc_content", "gc_values",
    "max_shift_match", "rotation_step", "representatives", "simplex",
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

    simplex is the SimplexCode whose DNA code the words are exactly, as a
    multiset, and None for any other word set. Its codewords are the
    generators of that DNA code: a generator has the same shifts as any of
    its rotations, and so the same code.
    """

    __slots__ = ()

    @property
    def gc_constant(self) -> bool:
        return self.gc_content is not None


def _rotation_orbits(words: list[DnaSequence], length: int) -> tuple[int, tuple[DnaSequence, ...]]:
    """Rotation step of a word multiset and one representative per orbit.

    The rotations preserving the multiset form a subgroup of Z_length,
    which is dZ_length for the smallest such d. Multiplicity counts: a
    rotation that maps a repeated word onto a single one does not preserve
    the code. The first word of each orbit, by index, represents it.
    """
    counts = Counter(words)
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


def _pair_loops(words, length, step, representatives, images) -> tuple[int, int]:
    """Minimum distance and max mu of any code, from every pair that holds a representative.

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
    distinct = dict.fromkeys(words)  # in first-occurrence order
    chosen = set(representatives)
    ordered = images + [packed_image(w) for w in distinct if w not in chosen]
    min_distance = 0 if len(distinct) < len(words) else None
    for idx in range(len(representatives)):
        e1, o1 = ordered[idx]
        for e2, o2 in ordered[idx + 1 :]:
            d = ((e1 ^ e2) | (o1 ^ o2)).bit_count()
            if min_distance is None or d < min_distance:
                min_distance = d
    max_mu = 0
    for e, o in images:
        for i in range(1, length):
            cyclic = ~(e ^ _rotate(e, i, length)) & (o ^ _rotate(o, i, length))
            if cyclic.bit_count() <= max_mu:
                continue
            for k in range(0, length, step):
                max_mu = max(
                    max_mu, packed_mu(_rotate(e, k, length), _rotate(o, k, length), length, i)
                )
    return min_distance, max_mu


def _simplex_of(size: int, length: int, step: int, images) -> SimplexCode | None:
    """The simplex code whose DNA code a multiset of size words of this
    length, rotation step and representatives' packed images is exactly,
    read from the words alone; else None.

    That code holds n^2 distinct words of length n = 2^m - 1, in n orbits
    of n under rotation by 1, and a word is in it when its even and odd
    images are both shifts of the generator. A multiset closed under
    rotation by 1 is its representatives' orbits, each word of an orbit
    repeated alike; a representative whose images are shifts has n
    distinct rotations. So n^2 such words with rotation step 1 are that
    code exactly when there are n representatives and each one's images
    are shifts. The length fixes m, and the shifts of the generator
    generate the same code, so the first representative's even image
    serves as the generator.
    """
    if size != length * length or step != 1 or len(images) != length:
        return None
    try:
        simplex = simplex_code(length.bit_length(), format(images[0][0], f"0{length}b"))
    except SimplexCodeError:  # no simplex generator, or a length that is not 2^m - 1
        return None
    shifts = {int(c, 2) for c in simplex.codewords}
    return simplex if all(e in shifts and o in shifts for e, o in images) else None


def code_properties(codewords) -> CodeProperties:
    """Compute the metadata of an arbitrary equal-length codeword set.

    One orbit pass finds the rotation step and the representatives, which
    are packed once. GC-content does not change under rotation, so the
    representatives' even images give every value.

    The minimum distance and the largest shift-match count come from the
    construction when the words are exactly the DNA code of a simplex code
    of dimension m (_simplex_of; n = 2^m - 1), and from the pair
    loops (_pair_loops) otherwise. For that code, word (c_a, c_b) has the
    shifts c_a and c_b of the generator for its even and odd images:

    - min distance 2^(m-1). Words (c_a, c_b) and (c_a', c_b') differ where
      c_a != c_a' or c_b != c_b'. With a = a' that is the |c_b ^ c_b'| =
      2^(m-1) positions, c_b ^ c_b' being a shift; otherwise it is a
      superset of the 2^(m-1) positions of c_a ^ c_a'.
    - max mu 2^(m-2). At shift i, c_a ^ rot_i c_a is a shift c_(a+t), with
      t fixed by i, so the cyclic match count of (c_a, c_b) is
      |~c_(a+t) & c_(b+t)|: 2^(m-2) when a != b and 0 when a = b, and the
      linear count is at most the cyclic one. The code is closed under
      rotation, so some rotation of a word with a != b puts a non-match at
      the one wrapped position of shift 1; there are n - 2^(m-2) >= 1
      non-matches, so mu_1 reaches 2^(m-2).
    """
    words = [DnaSequence(w) for w in codewords]
    if not words:
        raise ValueError("empty code")
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("codewords must have equal length")
    step, representatives = _rotation_orbits(words, length)
    images = [packed_image(t) for t in representatives]
    gc_values = tuple(sorted({e.bit_count() for e, _ in images}))
    simplex = _simplex_of(len(words), length, step, images)
    if simplex is None:
        min_distance, max_mu = _pair_loops(words, length, step, representatives, images)
    else:
        min_distance, max_mu = 2 ** (simplex.m - 1), 2 ** (simplex.m - 2)
    return CodeProperties(
        size=len(words),
        length=length,
        min_hamming_distance=min_distance,
        gc_content=gc_values[0] if len(gc_values) == 1 else None,
        gc_values=gc_values,
        max_shift_match=max_mu,
        rotation_step=step,
        representatives=representatives,
        simplex=simplex,
    )


class DnaCode(namedtuple("DnaCode", "codewords m generator properties")):
    """A set of DNA codewords and their metadata.

    properties is computed once, from the codewords, when the code is made.
    m and generator are the code's simplex claims, None where it makes
    none: build_dna_code takes them from the construction, load_dna_code
    as given (verify passes its -m and the sidecar's). An m fits when the
    words have length 2^m - 1; only an m that fits gives the mu bound
    2^(m-2) and the GC target 2^(m-1).
    """

    __slots__ = ()

    @property
    def fits(self) -> bool:
        return self.m is None or is_simplex_length(self.properties.length, self.m)

    @property
    def mu_bound(self) -> int | None:
        return 2 ** (self.m - 2) if self.m is not None and self.fits else None


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
    firsts = [sequence_from_even_odd(code.generator, odd) for odd in code.codewords]
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
        """The facts, the verdict, then one failure: line per failure."""
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
        lines += [f"failure: {failure}" for failure in self.failures]
        return "\n".join(lines)


# C<->G, A<->T and both (the complement): the base swaps that keep every energy
_BASE_SWAPS = tuple(str.maketrans(x, y) for x, y in (("CG", "GC"), ("AT", "TA"), ("ACGT", "TGCA")))


def verify_code(
    code: DnaCode,
    params: folding.EnergyParams | None = None,
    threshold: int = folding.DEFAULT_STRUCTURE_THRESHOLD,
) -> VerificationReport:
    """Check a DNA code's properties against its bounds and fold each word.

    The properties are the ones the code computed from its codewords when
    it was made. Pass requires: m fits the word length when given, the
    shift-match bound holds when known, and GC-content is constant (and
    equal to 2^(m-1) when m fits); each failed requirement is one line of
    the report's failures, the m line first. Folding
    energies are reported for information; the threshold verdict counts how
    many words fold. Each orbit of the code's rotation group is folded by
    one windowed fill of its representative (folding.rotation_energies);
    the energies are keyed in codeword order.

    One fill also sets the orbit of each base swap s of its representative
    t (C<->G, A<->T or both) that is a codeword not yet set:

    - a swap keeps the two pair classes and maps any other two bases to
      two that are neither, so alpha(swap x, swap y) = alpha(x, y) under
      any EnergyParams, at = 0 or gc = 0 included: a pairing scores alike
      in w and its swap, and so does the minimum.
    - a swap acts on each base alone, so it commutes with rotation.
    - the code is closed under rotation by its step d, so rot_kd s is a
      codeword with energy(rot_kd s) = energy(swap(rot_kd t)) =
      energy(rot_kd t). Orbits split the words, so an orbit is set in
      whole or not at all, s shows which, and one set already is skipped.

    The simplex code's C<->G swap maps (c_a, c_b) to (c_a, c_a ^ c_b), so
    its n orbits take (n + 1)/2 fills: only (c_0, c_0)'s has no partner.
    """
    params = params or folding.DEFAULT_ENERGY_PARAMS
    props = code.properties
    failures = [] if code.fits else [f"m: {code.m} needs words of length 2^m - 1, got length {props.length}"]
    if code.mu_bound is not None and props.max_shift_match > code.mu_bound:
        failures.append(f"max mu {props.max_shift_match} exceeds bound {code.mu_bound}")
    if not props.gc_constant or (code.mu_bound is not None and props.gc_content != 2 ** (code.m - 1)):
        failures.append(f"GC content check failed: values {list(props.gc_values)}")
    energies = dict.fromkeys(code.codewords)
    step = props.rotation_step
    for t in props.representatives:
        if energies[t] is not None:
            continue
        fill = folding.rotation_energies(t, step, props.length // step, params)
        for s in (t, *(t.translate(swap) for swap in _BASE_SWAPS)):
            if energies.get(s, 0) is None:  # a codeword whose orbit is not set
                for k, energy in enumerate(fill):
                    energies[s[k * step :] + s[: k * step]] = energy
    return VerificationReport(
        properties=props,
        mu_bound=code.mu_bound,
        params=params,
        energies=energies,
        folded=tuple(w for w in code.codewords if energies[w] <= threshold),
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
