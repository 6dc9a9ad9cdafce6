"""Golden traces: the sha256 of the rows each config writes below the trace
header. The ``#`` metadata lines are left out, so a new config field does not
move a hash; a change to any rate, loss or count does.
"""
import hashlib

import pytest

from bfeopt.cli import main
from bfeopt.harness import TRACE_HEADER

LINREG = ("--problem", "linreg", "--seed", "42", "--max-steps", "200")
QUADRATIC = ("--problem", "quadratic", "--curvatures", "0.1,1,10",
             "--theta0", "1,1,1", "--lim-zero", "1e-9", "--max-steps", "300")

GOLDEN = {
    ("bfe", *LINREG):
        "1fe2920674221b3043cee639c36e672a8bcd1f3ff944b3eb6b51bb9a8b428ec6",
    ("bfe-zoomin", *LINREG):
        "daa35f1c0ff6fe1554da21b0ebd297614e6f12dc1bf293d7dab7a0c1d3ff93b2",
    ("bfe-grad", *LINREG):
        "ec319b5c6da638640b3964d6457ca69627cc7a011bab57d2b1abd2aa660b8e1d",
    ("adabfe", "--normalize", *LINREG):
        "371532878af447c29587b2372c54cb32a4641f38165c53d9ab23abdc9b5e8b68",
    ("sgd", *LINREG):
        "b25f0e11de42902a32c9dbcde05b3c90d8e8066afe3f19876bcce6a5758c1457",
    ("nesterov", *LINREG):
        "907acfdc0030f492ff50ce2d92be14dbba1c42f3b1c32efeabc212a284243fe1",
    ("adam", *LINREG):
        "71cbcc24539f27f9b4d690f507f77c83c4a854f2bd42b697187365ae0f278a6e",
    ("bfe", "--base", "3", "--commit-policy", "full_step", *LINREG):
        "7d8f73ac0cf2941964e1a66a5bd3f5f6252c1e4009ab34e0769917aaf4b6a6aa",
    ("bfe-grad", "--base", "3", "--zoom-out-exit", "quarter_fresh_step",
     *LINREG):
        "ef3ed7d94f66b15b88fb88a5305976115f6459e66ea6692d82bd092be63e11f6",
    # on a batch-independent problem each step's stop check is the gradient
    # the last probe took at the committed point
    ("bfe", *QUADRATIC):
        "614f9264514a45645459f316cdeb457e9cfe6f3069b5686cb149956425c71193",
    ("adabfe", *QUADRATIC):
        "1f4ed31a7aa4baddd04b91d2dbe5b28ea0199b47cc3e9b99adacdc888dfe5f94",
    # from a rate of 1e-30 every other step ends at the highest rate
    ("bfe-grad", *QUADRATIC, "--eta0", "1e-30", "--max-inner", "200"):
        "caa4dad174c18cb0e819a373387eb4b8f9d2a88c9ab1fd93548d65d235ff044c",
}


@pytest.mark.parametrize("flags", list(GOLDEN), ids=" ".join)
def test_trace_rows_are_unchanged(flags, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", *flags, "--out", str(out)]) == 0
    rows = out.read_text().split(TRACE_HEADER + "\n", 1)[1]
    assert hashlib.sha256(rows.encode()).hexdigest() == GOLDEN[flags]
