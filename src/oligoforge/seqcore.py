"""DNA alphabet, complementation, distances, shift metrics and binary images.

Sequences are words over {A, C, G, T}. A word is a DnaSequence, a str
validated and upper-cased once; every function here also takes plain
text. Positions are 1-based in every user-facing report.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

BASES = "ACGT"

COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}

# Two-bit encoding per base: first bit goes to the even subsequence,
# second bit to the odd subsequence (A=00, T=01, C=10, G=11).
_EVEN_BITS = str.maketrans("ACGT", "0110")
_ODD_BITS = str.maketrans("ACGT", "0011")
_BASE_FROM_BITS = {("0", "0"): "A", ("0", "1"): "T", ("1", "0"): "C", ("1", "1"): "G"}
# deletes the bases, so a valid uppercase word translates to ""
_DROP_BASES = str.maketrans("", "", BASES)


class SequenceParseError(ValueError):
    """Raised when text cannot be parsed as a DNA sequence.

    Carries the source path and 1-based line number when the error comes
    from a sequence file.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        super().__init__(message)


def complement(base: str) -> str:
    """Return the complement of a single base (A<->T, C<->G)."""
    try:
        return COMPLEMENT[base]
    except KeyError:
        raise SequenceParseError(f"invalid base {base!r}") from None


class DnaSequence(str):
    """Word over {A, C, G, T}, length >= 1: a str that has been validated.

    Lowercase input is normalized to uppercase; anything else is rejected.
    Another DnaSequence is valid already, so it is returned as it is. A
    DnaSequence equals its plain text, and its slices are plain strs.
    """

    __slots__ = ()

    def __new__(cls, text: str):
        if isinstance(text, DnaSequence):
            return text
        normalized = text.upper()
        if not normalized:
            raise SequenceParseError("empty sequence")
        if normalized.translate(_DROP_BASES):
            pos, ch = next((p, c) for p, c in enumerate(normalized, start=1) if c not in COMPLEMENT)
            raise SequenceParseError(f"invalid base {ch!r} at position {pos}")
        return super().__new__(cls, normalized)

    @property
    def text(self) -> DnaSequence:
        """The word itself."""
        return self

    def __repr__(self) -> str:
        return f"DnaSequence({str.__repr__(self)})"


def complement_sequence(q: DnaSequence | str) -> DnaSequence:
    """Elementwise complement, preserving order and length."""
    return DnaSequence("".join(COMPLEMENT[b] for b in DnaSequence(q)))


def hamming_distance(p: DnaSequence | str, r: DnaSequence | str) -> int:
    """Number of positions where p and r differ; lengths must match."""
    p, r = DnaSequence(p), DnaSequence(r)
    if len(p) != len(r):
        raise ValueError(f"length mismatch: {len(p)} vs {len(r)}")
    return sum(a != b for a, b in zip(p, r))


def wc_distance(p: DnaSequence | str, r: DnaSequence | str) -> int:
    """Number of positions where p differs from the complement of r.

    Equal to hamming_distance(p, complement_sequence(r)); zero exactly when
    p and r are full complements of each other.
    """
    p, r = DnaSequence(p), DnaSequence(r)
    if len(p) != len(r):
        raise ValueError(f"length mismatch: {len(p)} vs {len(r)}")
    return sum(a != COMPLEMENT[b] for a, b in zip(p, r))


def packed_image(q: DnaSequence | str) -> tuple[int, int]:
    """Even and odd subsequences of q's binary image as ints.

    The first base sits in the highest bit, so bit n-1-l of either int
    belongs to 0-based position l.
    """
    q = DnaSequence(q)
    return int(q.translate(_EVEN_BITS), 2), int(q.translate(_ODD_BITS), 2)


def packed_mu(even: int, odd: int, n: int, i: int) -> int:
    """mu(q, i) from q's packed image (even, odd) and length n.

    q[l] matches the complement of q[l+i] exactly where their even bits are
    equal and their odd bits differ, so the count is
    popcount(~(E ^ E>>i) & (O ^ O>>i) & mask(n-i)).
    """
    return (~(even ^ even >> i) & (odd ^ odd >> i) & ((1 << n - i) - 1)).bit_count()


def mu(q: DnaSequence | str, i: int) -> int:
    """Count positions where q matches the complement of its own i-shift.

    For shift 0 <= i <= n-1 this is the number of indices l with
    q[l] == complement(q[l+i]) (1-based l from 1 to n-i). A sequence whose
    first few mu values are zero has no complementary matches against its
    short shifts, which is the folding-resistance screen used throughout.
    """
    even, odd = packed_image(q)
    n = len(q)
    if not 0 <= i <= n - 1:
        raise ValueError(f"shift {i} out of range for length {n}")
    return packed_mu(even, odd, n, i)


def shift_profile(q: DnaSequence | str) -> tuple[int, ...]:
    """All shift-match counts (mu(q, 0), ..., mu(q, n-1))."""
    even, odd = packed_image(q)
    n = len(q)
    return tuple(packed_mu(even, odd, n, i) for i in range(n))


def gc_content(q: DnaSequence | str) -> int:
    """Number of G or C bases in q."""
    q = DnaSequence(q)
    return q.count("G") + q.count("C")


# 2n-bit encoding of a DNA word, with its even/odd subsequences
BinaryImage = namedtuple("BinaryImage", "bits even odd")


def binary_image(q: DnaSequence | str) -> BinaryImage:
    """Encode q as bits (A=00, T=01, C=10, G=11), split into even/odd parts.

    Bit 2k of the full string is the k-th even bit, bit 2k+1 the k-th odd
    bit. The even subsequence has weight equal to the GC-content.
    """
    q = DnaSequence(q)
    even = q.translate(_EVEN_BITS)
    odd = q.translate(_ODD_BITS)
    bits = "".join(e + o for e, o in zip(even, odd))
    return BinaryImage(bits, even, odd)


def sequence_from_even_odd(even: str, odd: str) -> DnaSequence:
    """Rebuild the DNA word whose binary image has these even/odd parts."""
    if len(even) != len(odd):
        raise ValueError(f"length mismatch: {len(even)} vs {len(odd)}")
    try:
        return DnaSequence("".join(_BASE_FROM_BITS[pair] for pair in zip(even, odd)))
    except KeyError:
        raise ValueError("even/odd strings must consist of '0' and '1'") from None


def decode_binary_image(image: BinaryImage) -> DnaSequence:
    """Inverse of binary_image."""
    return sequence_from_even_odd(image.even, image.odd)


def wc_distance_via_binary(p: DnaSequence | str, r: DnaSequence | str) -> int:
    """wc_distance computed through the packed binary images.

    With sigma_e/sigma_o the XORs of the even/odd parts, the positions where
    p matches the complement of r are exactly those with an even-bit match
    and an odd-bit mismatch, so the distance is
    n - weight(NOT(sigma_e) AND sigma_o).
    """
    (ep, op), (er, or_) = packed_image(p), packed_image(r)
    n = len(p)
    if n != len(r):
        raise ValueError(f"length mismatch: {n} vs {len(r)}")
    return n - (~(ep ^ er) & (op ^ or_) & ((1 << n) - 1)).bit_count()


# the whitespace a data line is stripped of; str.strip() would drop \x0b,
# \x0c and \x1c-\x1f as well, which are refused with the line instead
_LINE_SPACE = " \t\r\n"


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) of each line of a text file that holds data.

    Each line is stripped of spaces, tabs, CR and LF alone, and blank lines
    and lines starting with '#' are skipped. A non-ASCII byte raises
    SequenceParseError naming the path and line.
    """
    # undecodable bytes become lone surrogates, reported per line below
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.isascii():
                pos, ch = next((p, c) for p, c in enumerate(raw, start=1) if not c.isascii())
                raise SequenceParseError(
                    f"non-ASCII byte 0x{ord(ch) - 0xDC00:02x} at position {pos}", path=path, line=lineno
                )
            line = raw.strip(_LINE_SPACE)
            if line and not line.startswith("#"):
                yield lineno, line


def read_sequence_file(path: str) -> list[DnaSequence]:
    """Read sequences from a text file, one per data line (see data_lines).

    Parse failures, a non-ASCII byte included, report the path and line number.
    """
    sequences = []
    for lineno, line in data_lines(path):
        try:
            sequences.append(DnaSequence(line))
        except SequenceParseError as exc:
            raise SequenceParseError(str(exc), path=path, line=lineno) from None
    return sequences


def write_sequence_file(path: str, sequences: Iterable[DnaSequence | str]) -> None:
    """Write sequences to a text file, one per line."""
    with open(path, "w", encoding="ascii") as handle:
        for q in sequences:
            handle.write(DnaSequence(q) + "\n")
