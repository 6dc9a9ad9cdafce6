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
        "fe752a54a3c5def9fdcead8c0a1897e87da22cf350695a0906a2f636dcb469a9",
    ("bfe-grad", "--base", "3", "--zoom-out-exit", "quarter_fresh_step",
     *LINREG):
        "3c4e0cf164828483605d3b65958328d47cebfca227fd88616de8e090f9f73332",
    # batch layouts: one row, three rows with a partial last batch, an
    # epoch of equal batches, one batch larger than the dataset, and
    # standardized features
    ("sgd", "--batch-size", "1", *LINREG):
        "b1a0ff0d3b011369323822e0a93eae2fb6d2af9c1a930ecaa75e126588eafa61",
    ("sgd", "--batch-size", "1", "--n-samples", "50", *LINREG):
        "b04570a4086f63bc7f1e8b587e3c91385767a23b792a045b0726922bdbf7f8ca",
    ("bfe", "--batch-size", "3", *LINREG):
        "143a04bb0be696811c082e149aee15de14d1705cd95f24aea035c11a09677b92",
    ("bfe", "--batch-size", "3", "--n-samples", "100", *LINREG):
        "5b508151fdb7b2ac978cd8bb7e43abce4bd09afa6210043ee5e7e7c9b6ee6578",
    ("bfe", "--n-samples", "1024", "--batch-size", "256", *LINREG):
        "8039284645d7b1930890d6909e65d61dd90fdde63e158a9a2dd189cb8d527763",
    ("sgd", "--batch-size", "20000", *LINREG):
        "e4d9add742adfaac33af8bbf0280cb03975fa663258c0b9c66f484c7cfd5117a",
    ("sgd", "--normalize", *LINREG):
        "9c7090f0bee7683b11755ce749860ca4d42a0ec496dce4e7a499b782d40c6d27",
    # the threshold, reset and angle-mode variants. At the default epsilon
    # the min- and mean-scaled thresholds decide every probe alike, so
    # min_scaled runs at a larger epsilon, where they differ
    ("bfe", "--epsilon-v-policy", "min_scaled", "--epsilon", "0.1", *LINREG):
        "e18c86f91dd21a4ed5b2ee006b3862a2ebe028b28ba617267d835d7190626ffd",
    ("bfe", "--epsilon-v-policy", "constant", *LINREG):
        "a0bede52ea16fe1447a2da878422da9f79a5afc1743e996eb70946b2964d42f6",
    ("bfe", "--epsilon-v-policy", "epoch_decay", *LINREG):
        "a95a8810992d6d46038e978639ed362ee5ad7ba70df1f41dc3b30bce2542752b",
    ("bfe-zoomin", "--reset-policy", "prev_eta", *LINREG):
        "436e181a5718c974113dbddf87506b6e2780189b6e5939aef37fa2ca182ef7a1",
    ("bfe-grad", "--threshold-mode", "relative", *LINREG):
        "cd227bc5a60d3dd8076683deaf435e312efaadf24058f5eb24d28b20d817426b",
    # on a batch-independent problem each step's stop check is the gradient
    # the last probe took at the committed point
    ("bfe", *QUADRATIC):
        "614f9264514a45645459f316cdeb457e9cfe6f3069b5686cb149956425c71193",
    ("adabfe", *QUADRATIC):
        "1f4ed31a7aa4baddd04b91d2dbe5b28ea0199b47cc3e9b99adacdc888dfe5f94",
    ("adabfe", "--pre-halve", *QUADRATIC):
        "e766e3c76dca43478e4a165063dea6c1e0d9ec47bae894f792f475d1600adbfa",
    # from a rate of 1e-30 every other step ends at the highest rate
    ("bfe-grad", *QUADRATIC, "--eta0", "1e-30"):
        "caa4dad174c18cb0e819a373387eb4b8f9d2a88c9ab1fd93548d65d235ff044c",
}


@pytest.mark.parametrize("flags", list(GOLDEN), ids=" ".join)
def test_trace_rows_are_unchanged(flags, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["optimize", "--optimizer", *flags, "--out", str(out)]) == 0
    rows = out.read_text().split(TRACE_HEADER + "\n", 1)[1]
    assert hashlib.sha256(rows.encode()).hexdigest() == GOLDEN[flags]
