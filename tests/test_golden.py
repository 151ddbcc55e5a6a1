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
    (["stats", "--n", "12", "--n-max", "12", "--p", "0.4,0.6", "--k", "3", "--stat", "inv-pgf"],
     "be8295030178ff5f95adc90387f478b0a404504bcbc7b1c7ed9eebc9617254e0"),
    # a zero letter, and a series of degree C(20,2) = 190
    (["stats", "--n", "20", "--n-max", "20", "--p", "1/3,0,2/3", "--k", "2", "--stat", "inv-pgf"],
     "53b9b3eb40ebd8164375f19a2e5c2fa250a0f390833adbebc393f4621bf07b19"),
    (["report", "--n", "6", "--p", "0.4,0.6", "--k-max", "5"],
     "66d467d546cb4d4bca0500681cef33e24e88b558dc6c04f34b83090d68f517c0"),
    # rows 9 and 10 are over the sweep budget: their exact column stays empty
    (["report", "--n", "8", "--p", "1/3,1/3,1/3"],
     "ff84cbc864b3ed6858b3a6e03d9ea1526c9f1d8d585711fd16667df022af798c"),
    # every suite's name, verdict and detail line, in registry order
    (["verify", "--n-max", "3", "--samples", "2000", "--seed", "1"],
     "29a34c75a115ca951f6ae0b265e8037f5fba50780d24220291e6bccd8968eb11"),
]

METHODS = ("interleave", "drop", "geometric", "inverse")
HUGE_DENOMINATOR = "0.333333333333333333333333333333,0.666666666666666666666666666667"

# Seeded streams at the edges of the samplers' input, pinned for every method:
# a zero bias entry, a denominator whose draws are rejected and redrawn
# (1000003 < 2^20), and both machine-readable formats.  With bias
# 1/1000003,1000002/1000003 nearly every draw is the identity, so the
# three-letter bias over the same denominator is what makes the rejections
# show in the output.
SAMPLE_EDGE_SHA256 = [
    (["sample", "--n", "13", "--p", "1/3,0,2/3", "--k", "3", "--samples", "100", "--seed", "11"],
     {"interleave": "61815519544b909898b3173710334b5f25593e9a56de0182fc236d56627cc0bc",
      "drop": "8322f6a235465146f05c72ced89e173737f55d66e1208fcbe72906ac961e8572",
      "geometric": "e3580ec5c0cf0d74a183be00784895d4499034343dd209c8709066c4221ea91f",
      "inverse": "a8b1972af633852328e775d26bdc20a58301eb48ad73111673e1c232cdca1db0"}),
    (["sample", "--n", "20", "--p", "1/1000003,1000002/1000003", "--k", "2", "--samples", "100",
      "--seed", "12"],
     dict.fromkeys(METHODS, "c8f4b4ee8b6750997a1a561fed04cd63e9a97383fe0737b6fb307a54e45af102")),
    (["sample", "--n", "20", "--p", "1/1000003,500001/1000003,500001/1000003", "--k", "2",
      "--samples", "100", "--seed", "12"],
     {"interleave": "4891b8ab650dede3cd9433d331503438a6c6b0dd47854618c6ba9a41635de04c",
      "drop": "ff0bb2d5994808c8bb15dd00f44af100d77ea509f53387515c919349f4f4775a",
      "geometric": "aa9648dc6f4dd208256e36462a46f4a5afdaca3ea80356d7c707c9ed53941dd9",
      "inverse": "3ae2235995d0ca51a2c7565b878070383e5c428d95ca7e45a59e7f73a65986dd"}),
    (["sample", "--n", "10", "--p", "0.4,0.6", "--k", "3", "--samples", "50", "--seed", "14",
      "--format", "csv"],
     {"interleave": "739e3c0fc397d28e42d3a4eeb8996976923c8bfdf72d3ac8e8dbe69c82a6f361",
      "drop": "fd7c045441e0ea4d36a8c88ed74417093d5d4b5fbf71c208465a5974ca079747",
      "geometric": "194617ff59e1d011e08896802755bd34d3210ff0dd1591606a0e1af1137ce579",
      "inverse": "8eae4fda64306fbac90daa6b0f51a26bbef160d34647da49248eaa941c36a036"}),
    (["sample", "--n", "10", "--p", "0.4,0.6", "--k", "3", "--samples", "50", "--seed", "14",
      "--format", "json"],
     {"interleave": "4d3e64cc2d83f6b774f604a3e0c17251d23fc4fc0910f8df2cbf227ebe8a99bb",
      "drop": "1edc9f297228a5a198a33dfc524e841ade8a0f8a8771b4848edbb772915ff500",
      "geometric": "3cf37a728368982f469b08230c529666c100054bfb1389d6d1cbfd22b36bcfda",
      "inverse": "8e9f6907bb94ce6eafc58dc1a1eb003ca4767bd78ac75bf6cd3cffa1c3c9f597"}),
    # the draws the one-byte batch decoder does not take: a 100-bit
    # denominator (10^30, rejected about one time in five) and 256 letters
    (["sample", "--n", "13", "--p", HUGE_DENOMINATOR, "--k", "2", "--samples", "50",
      "--seed", "15"],
     {"interleave": "027108f39a9dc2cb55ba8641d9d33adad3663b01eb2233b1b89dec9d03457bb4",
      "drop": "8a5f5ce1a64dcebdbd5ed11ca83f4847d538c851c203a74267ace60136cddf8c",
      "geometric": "e4fe9f2d01282ab25b4c8682475e566d897d3ae910c46cbcc970e1908a30807c",
      "inverse": "772dbf6f8cb0202903b967fd829d890fb53f0ee0b7893e05ca4b17f008f1eb1f"}),
    (["sample", "--n", "13", "--p", ",".join(["1/256"] * 256), "--k", "2", "--samples", "50",
      "--seed", "16"],
     {"interleave": "1a66d8a893ed82c0c0e90b67c2cbbef02ffac514d0de2a84d853b0ef21f1d099",
      "drop": "3c3ce6da4f85ff7824477a10294f8db13c8b0c2c8ce77dddce0d3c27300aa968",
      "geometric": "e5147330f12c7cad90055ecd49442a95d9945395786e29f5784a44dfb8833238",
      "inverse": "a3fe0d32899a70b7c35e920a0623cefaae59cc35d28009ebfcbc16eab4a5090b"}),
    # draws whose labels cross the inverse sampler's label runs: 40 factors
    # of 52 cards (runs of 19 factors), and 300 cards (runs of 3 factors)
    # with a zero letter
    (["sample", "--n", "52", "--p", "0.4,0.6", "--k", "40", "--samples", "20", "--seed", "17"],
     {"interleave": "160e6a01352a01624f406bcc6aa2487787c5db7dc3ab78b1f41d49e4d34f17a2",
      "drop": "53248cdc590c47e64bf04daccf622ea3e9c8e1ce9bc2b2ff620abc73a361e1b2",
      "geometric": "1f1cbd239da54f04ba52def6955a5504cb201e3586df6535f5425b63caf96f98",
      "inverse": "14c98895b2ebb04898a04579e968d0514c650deaca65ef01622d4a07b84d7785"}),
    (["sample", "--n", "300", "--p", "1/3,0,2/3", "--k", "5", "--samples", "5", "--seed", "18"],
     {"interleave": "c901c9c68b116659623721145441a2e55ce61132b04556a68c8a21fe93901b1f",
      "drop": "3a2afad0160d2d08126de3dbb5fc5874d8912e61c1f28345ed0e410b16d40d97",
      "geometric": "765259de4bfe2cdf8ebd7a4b662ecbe933dac3524c6ee504ed17d04268d68262",
      "inverse": "329cb296266e2b33a57facc1f7f8e9b73029ee5267a449608f5b8e74c81b11ef"}),
    # alphabets on both sides of the cutoff between sample's two ways of
    # composing pile words (3, 4, 5 and 6 letters, the last with a zero
    # letter), and decks of 1100 cards, longer than one label run
    (["sample", "--n", "52", "--p", "1/2,1/4,1/4", "--k", "7", "--samples", "100", "--seed", "19"],
     {"interleave": "02139576260199930c04d3ac4f86fb873da844086d456fa1acb5d246780702f0",
      "drop": "7342b1a28534f227b4e882d027ca77226c8256c9274e68da8645612e7811a364",
      "geometric": "9544bea29564465d074624d95fa1891fabd9f9d5a520680e184c251dd77222e2",
      "inverse": "b7a245de5b6fe27b54da35bb5915ff126bdfeacf328d0be8b8afb6d276500bfe"}),
    (["sample", "--n", "52", "--p", "1/10,1/5,3/10,2/5", "--k", "7", "--samples", "100",
      "--seed", "20"],
     {"interleave": "7660af69452eb7f06b371bb9a7238c6c0d048ee697d16cf49701c94926447450",
      "drop": "1b345a9125408df4b3a168f2b94971b0ec2abe1df437afe86f4f33a5797f0753",
      "geometric": "1b44d9113d267b57b06a286d4595a5c472b3b2209a8325bbe80b5d763b2f6459",
      "inverse": "31128012fea96459de63567a2d15613665803859a9342ef33b85b52bd3f680f4"}),
    (["sample", "--n", "52", "--p", ",".join(["1/5"] * 5), "--k", "7", "--samples", "100",
      "--seed", "21"],
     {"interleave": "f4a2339d3d4e3c1ffeb6001244d6efa24c7478a0d6ed3f4e2d8172457185bb6c",
      "drop": "ee727cf2271e054bbceb092648f80152fb22bc12f234522fd968a8119ac22410",
      "geometric": "4867776fdd6cdfaf71598c757a6c028e82aad9ee8db5d5f806ad6fe28a2ce2ff",
      "inverse": "1e05ce3b57c2f56e85174f68c5fda8f7d3f1d2aefa1afe1baa547658611e91bb"}),
    (["sample", "--n", "52", "--p", "1/4,0,1/4,1/8,1/8,1/4", "--k", "7", "--samples", "100",
      "--seed", "22"],
     {"interleave": "1dab3929913e2ea596b5b0a90150cf3b865a564f192781fd3a5e8f19a8ee2c83",
      "drop": "d0d4c9ce20d99848673ab154c55800d93e6aac7b624e009ec9f9a1504c72ee63",
      "geometric": "372029ad7550da18048486825b26d1d73a568d88b6e87f18d34e0d3d406e02dd",
      "inverse": "3835b80a6a01084d2bc40f81afad3299a8e524460dfca509204ee6e283d0f51e"}),
    (["sample", "--n", "1100", "--p", "0.4,0.6", "--k", "3", "--samples", "2", "--seed", "23"],
     {"interleave": "7ad7d068d1caec782d6ccee43ad29606bb865bc830df81e5076471e8b7fee1a5",
      "drop": "b9e5fe86924b4d7c0859af3bd2dd4877897e3bd8489d010f5329c2638314cdd5",
      "geometric": "6ac7d634630c16d9bd6efdc412746a5b09d0eead3641d1dc1bf59ed037d250b1",
      "inverse": "7b19f10be90c2f98602973a68b4e27fe9f59b6f1a2364046eefd0cd86c4b0a93"}),
    (["sample", "--n", "1100", "--p", "1/4,0,1/4,1/8,1/8,1/4", "--k", "2", "--samples", "2",
      "--seed", "24"],
     {"interleave": "6824237720eb82d5e6bfc541f277087da5fd006a43ff07895d5e0ac0fea2ed70",
      "drop": "a5406b5ea28b566d0cca4e803f4ff39b94cd943d21e27b3ecc4fa9f21548bc5d",
      "geometric": "b256c86eeaa86f157c09c158f3ec180d943ab02953a9173c0293a0ea08f40d38",
      "inverse": "05f0b5c34a76ba876ea994b04e372c8c910ac64a6a19c45584b6a41387a85082"}),
]
GOLDEN_SHA256 += [
    (argv + ["--method", method], digests[method])
    for argv, digests in SAMPLE_EDGE_SHA256
    for method in METHODS
]

# no shuffle at all, a one-card deck and an empty deck, for every method
SAMPLE_EDGE_TEXT = [
    (["sample", "--n", "6", "--p", "1/2,1/2", "--k", "0", "--samples", "3", "--seed", "13"],
     "1 2 3 4 5 6\n" * 3),
    (["sample", "--n", "1", "--p", "1/3,2/3", "--k", "2", "--samples", "3", "--seed", "13"],
     "1\n" * 3),
    (["sample", "--n", "0", "--p", "1/2,1/4,1/4", "--k", "2", "--samples", "3", "--seed", "13"],
     "\n" * 3),
]

GOLDEN_TEXT = [
    *((argv + ["--method", method], text)
      for argv, text in SAMPLE_EDGE_TEXT for method in METHODS),
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
    # past S_9: the exact column is the fair closed form of Bayer and Diaconis
    (["report", "--n", "10", "--p", "1/2,1/2", "--k-max", "3"],
     "# n=10\n# bias=1/2,1/2\n# lalley_lower_steps=4.982892142330666\n"
     "# suffices_steps=6.643856189774725\nk,tv_bound,exact_tv\n1,45/2,604631/604800\n"
     "2,45/4,1562377/1814400\n3,45/8,812046492277/1902536294400\n"),
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
