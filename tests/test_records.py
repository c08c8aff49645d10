"""Value semantics of the result records, and the modules the CLI imports."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import oligoforge
from oligoforge.codegen import build_dna_code, code_properties, load_dna_code, simplex_code, verify_code
from oligoforge.enumeration import dominant_root, g_series, gj_coefficients
from oligoforge.folding import EnergyParams, nussinov_table, traceback
from oligoforge.seqcore import DnaSequence, binary_image

WORDS = ["GCGATCA", "ACGTACG", "TTGCAAC"]

# name -> (a call that makes the record through the public API, one of its attributes)
RECORDS = {
    "SimplexCode": (lambda: simplex_code(3), "m"),
    "DnaCode (built)": (lambda: build_dna_code(simplex_code(3)), "properties"),
    "DnaCode (loaded)": (lambda: load_dna_code(WORDS, m=3, generator="1110100"), "codewords"),
    "CodeProperties": (lambda: code_properties(WORDS), "gc_content"),
    "VerificationReport": (
        lambda: verify_code(load_dna_code(WORDS), EnergyParams(-2, -3), -3),
        "failures",
    ),
    "CountTable": (lambda: g_series(2, 12), "values"),
    "BivariateSeries": (lambda: gj_coefficients(8), "rows"),
    "GrowthAnalysis": (lambda: dominant_root(3), "rho"),
    "SecondaryStructure": (lambda: traceback(nussinov_table("GGGAAACCC"), "GGGAAACCC"), "pairs"),
    "BinaryImage": (lambda: binary_image("ACGT"), "even"),
    "DnaSequence": (lambda: DnaSequence("acgt"), "text"),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordValues:
    def test_attributes_cannot_be_assigned(self, name):
        make, attribute = RECORDS[name]
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_equal_inputs_give_equal_records(self, name):
        make, _ = RECORDS[name]
        assert make() == make()

    @pytest.mark.parametrize("duplicate", [
        copy.copy,
        copy.deepcopy,
        lambda record: pickle.loads(pickle.dumps(record)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal(self, name, duplicate):
        make, _ = RECORDS[name]
        record = make()
        twin = duplicate(record)
        assert type(twin) is type(record)
        assert twin == record


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # -S skips site, and with it the .pth file of an editable install
    package_root = Path(oligoforge.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    probe = "import sys, oligoforge.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
