"""Each check against 1e-10 compares with a name from ``seer_lab.tolerances``,
so the tolerance that decides a verdict is one of the named constants."""

import ast
import tokenize
from pathlib import Path

import seer_lab
from seer_lab import tolerances

PACKAGE = Path(seer_lab.__file__).resolve().parent


def literal_lines(path: Path, value: float) -> list[int]:
    """Lines of ``path`` holding a number literal equal to ``value``;
    comments and strings do not count."""
    with tokenize.open(path) as fh:
        return [tok.start[0] for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NUMBER and ast.literal_eval(tok.string) == value]


def test_no_bare_1e_10_outside_tolerances():
    found = {path.name: literal_lines(path, 1e-10)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_named_checks_keep_their_value():
    names = ("POVM_TOL", "NORM_TOL", "ORTHO_TOL", "RANK_TOL", "CHAIN_TOL")
    assert {name: getattr(tolerances, name) for name in names} == dict.fromkeys(names, 1e-10)
