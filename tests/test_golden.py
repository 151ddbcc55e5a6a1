"""Golden stdout: fixed CLI runs whose output must not change by one byte.

Long outputs are pinned by SHA-256, short ones literally.  The seeded
``sample`` streams are pinned for every method, so a change to a sampler
that keeps its law but alters the draws still shows here.
"""

import hashlib

import pytest

from riffle.cli import main

SAMPLE_52 = ["sample", "--n", "52", "--p", "0.4,0.6", "--k", "7", "--samples", "200",
             "--seed", "7", "--method"]

GOLDEN_SHA256 = [
    (SAMPLE_52 + ["interleave"],
     "d3e76f702da0757829a46fe252d4968cf4f09d4a4e4940c70ca7617fa8042e59"),
    (SAMPLE_52 + ["drop"],
     "e529ab37d8a9d3a57b79139b44736384a9860339e94d6c89637f0e4111e4cf3e"),
    (SAMPLE_52 + ["geometric"],
     "04efb2cb18bd91851d3fe7c7ed10037132ee28d150d1e1e960be4c77f07627e7"),
    (SAMPLE_52 + ["inverse"],
     "aada093c78c69257a9e5a0a3b4360eb62ae9464f784495cf3f12282105ec4d4e"),
    # k = 1 goes through exact_distribution (cut x interleaving enumeration)
    (["dist", "--n", "5", "--p", "1/3,2/3"],
     "182c9fb24ca29125773f3c5ce827001cb310ccecd751fc491c121b90fd8dc91a"),
    (["dist", "--n", "4", "--p", "1/2,1/4,1/4", "--k", "2"],
     "93ed66c62feda0174005c3714d5960cfc2460cc1e870208730b6c5bff30217f7"),
    (["stats", "--n", "5", "--p", "1/2,1/4,1/4", "--k", "2", "--stat", "cycle-pgf"],
     "fcadab64bd3037ce43de7bac103e46003da79794326cd0a39663d8da44cfdccd"),
    (["stats", "--n", "6", "--p", "0.4,0.6", "--k", "3", "--stat", "inv-pgf"],
     "9eafb9f2f731e63d522c54dadd749591093c501cf247ea348768c2e8c36f07cb"),
]

GOLDEN_TEXT = [
    (["sample", "--n", "0", "--p", "1/2,1/2", "--seed", "1", "--samples", "2"], "\n\n"),
    (["bijection", "--word", "2,2,1,1,2,3,3,3,2,3,2,2"],
     '{"word": [2, 2, 1, 1, 2, 3, 3, 3, 2, 3, 2, 2], "letters": "bbaabcccbcbb", '
     '"standardized": [3, 4, 1, 2, 5, 9, 10, 11, 6, 12, 7, 8], "necklaces": ['
     '{"necklace": [1, 2], "letters": "ab", "mult": 2}, '
     '{"necklace": [2], "letters": "b", "mult": 1}, '
     '{"necklace": [2, 3], "letters": "bc", "mult": 1}, '
     '{"necklace": [2, 3, 2, 3, 3], "letters": "bcbcc", "mult": 1}]}\n'),
]


def stdout_of(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_SHA256])
def test_golden_digest(capsys, argv, digest):
    assert hashlib.sha256(stdout_of(capsys, argv).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,text", GOLDEN_TEXT,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_TEXT])
def test_golden_text(capsys, argv, text):
    assert stdout_of(capsys, argv) == text
