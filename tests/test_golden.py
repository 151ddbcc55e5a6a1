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
    (["report", "--n", "6", "--p", "0.4,0.6", "--k-max", "5"],
     "66d467d546cb4d4bca0500681cef33e24e88b558dc6c04f34b83090d68f517c0"),
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
    # exact distances to uniform, recorded when they were still summed over S_n
    (["tv", "--n", "5", "--p", "1/3,2/3"],
     '{"n": 5, "bias": ["1/3", "2/3"], "k": 1, "exact_tv": "7537/9720", '
     '"exact_tv_float": 0.7754115226337449, "tv_bound": "50/9", '
     '"tv_bound_float": 5.555555555555555}\n'),
    (["tv", "--n", "6", "--p", "1/2,1/4,1/4", "--k", "3"],
     '{"n": 6, "bias": ["1/2", "1/4", "1/4"], "k": 3, "exact_tv": "11917844197/103079215104", '
     '"exact_tv_float": 0.11561830563975188, "tv_bound": "405/512", '
     '"tv_bound_float": 0.791015625}\n'),
    (["tv", "--n", "4", "--p", "1/3,0,2/3"],
     '{"n": 4, "bias": ["1/3", "0/1", "2/3"], "k": 1, "exact_tv": "119/216", '
     '"exact_tv_float": 0.5509259259259259, "tv_bound": "10/3", '
     '"tv_bound_float": 3.3333333333333335}\n'),
    (["tv", "--n", "5", "--p", "1/3,0,2/3", "--k", "2"],
     '{"n": 5, "bias": ["1/3", "0/1", "2/3"], "k": 2, "exact_tv": "1097381/2361960", '
     '"exact_tv_float": 0.4646060898575759, "tv_bound": "250/81", '
     '"tv_bound_float": 3.0864197530864197}\n'),
    (["tv", "--n", "4", "--p", "1/2,1/2", "--k", "0"],
     '{"n": 4, "bias": ["1/2", "1/2"], "k": 0, "exact_tv": "23/24", '
     '"exact_tv_float": 0.9583333333333334, "tv_bound": "6/1", "tv_bound_float": 6.0}\n'),
    (["tv", "--n", "0", "--p", "1/2,1/2"],
     '{"n": 0, "bias": ["1/2", "1/2"], "k": 1, "exact_tv": "0/1", "exact_tv_float": 0.0, '
     '"tv_bound": "0/1", "tv_bound_float": 0.0}\n'),
    (["report", "--n", "5", "--p", "1/2,1/4,1/4", "--k-max", "3", "--format", "json"],
     '{"n": 5, "bias": ["1/2", "1/4", "1/4"], "lalley_lower_steps": null, '
     '"suffices_steps": 3.281790194352735, "rows": ['
     '{"k": 1, "tv_bound": "15/4", "exact_tv": "1429/2560"}, '
     '{"k": 2, "tv_bound": "45/32", "exact_tv": "1726871/7864320"}, '
     '{"k": 3, "tv_bound": "135/256", "exact_tv": "11946741/134217728"}]}\n'),
    # n above the cap: the exact column stays empty
    (["report", "--n", "10", "--p", "1/2,1/2", "--k-max", "3"],
     "# n=10\n# bias=1/2,1/2\n# lalley_lower_steps=4.982892142330666\n"
     "# suffices_steps=6.643856189774725\nk,tv_bound,exact_tv\n1,45/2,\n2,45/4,\n3,45/8,\n"),
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
