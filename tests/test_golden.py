"""Behaviour lock: SHA-256 digests of what `modehb run` and `modehb report` write.

Each case runs every optimizer through the CLI and hashes each archive CSV,
per-run metrics JSON and `summary.json`, whose (temporary) output_dir value
is masked first; the cases that run `report` also hash its CSVs.

The digests pin the determinism contract across refactors.  A digest may
change only in a change whose CHANGES.md entry says why.
"""

import hashlib
import json

import pytest

from modehb import cli

OPTIMIZERS = [{"name": name} for name in cli.OPTIMIZER_NAMES]

# name: (benchmark, (b_min, b_max, eta), seeds, max_tae, `report` arguments
# after the output directory, or None to skip `report`)
CASES = {
    # Population 15, many duplicate cells and tied hypervolumes.
    "toy_grid_k4": ({"name": "toy_grid", "k": 4}, (1, 4, 2), [0, 8], 64, []),
    # Population 40; the default budget for d=6.
    "zdt1_d6": ({"name": "zdt1_mf", "d": 6}, (1, 27, 3), [0], 216, None),
    # Three seeds with distinct fronts: every attainment level differs.
    "zdt1_d4_seeds3": (
        {"name": "zdt1_mf", "d": 4}, (1, 9, 3), [0, 1, 2], 120, ["--attainment", "1,2,3"]
    ),
    # Population 121 on a five-rung ladder.
    "zdt2_d10": ({"name": "zdt2_mf", "d": 10}, (1, 81, 3), [0], 300, None),
    # Population 3: mutation pools fall back to random genotypes.
    "toy_grid_tiny": ({"name": "toy_grid", "k": 4}, (1, 2, 2), [0, 1], 40, None),
}

GOLDEN = {
    "toy_grid_k4": {
        "modehb_epsnet_seed0_archive.csv":
            "cac2f5528a0aaab747161c81ec314b4d749e38c0e8cb4e8bf9b5b07dc53b6db2",
        "modehb_epsnet_seed0_metrics.json":
            "737d3db59261eacf3d0dd9e4c56b1ff38fdc5d89da23af0333e4e5eb02710945",
        "modehb_epsnet_seed8_archive.csv":
            "422dba8fb65058c0d0733e7edb1312cd84412034b753bb81ea1dac6514aacd07",
        "modehb_epsnet_seed8_metrics.json":
            "e82a7e96422b26241ef98e4d367592b15477503a6d7939b2400e7d0d6f2c7164",
        "modehb_nsga2_seed0_archive.csv":
            "cac2f5528a0aaab747161c81ec314b4d749e38c0e8cb4e8bf9b5b07dc53b6db2",
        "modehb_nsga2_seed0_metrics.json":
            "d7b5906038dc061a172487951832df9e1d27293543e1bd0c7c6d914cb9cfd64d",
        "modehb_nsga2_seed8_archive.csv":
            "4d4e1d1a2a35394ab340dfd2c14e52ba011822205a2cbd156922f94099b15840",
        "modehb_nsga2_seed8_metrics.json":
            "6eb70f14c22bc7da5572869306b2bde8843b27be79717c55526a83eb2ea577eb",
        "random_search_seed0_archive.csv":
            "3476b2367ad037370e4cf9e9941cf210d909f1f4e64f0ccba7cdff68560f11b7",
        "random_search_seed0_metrics.json":
            "fa794caf92b6d0ae12d171e23b93aeed71348e54289efb0811321d655037814c",
        "random_search_seed8_archive.csv":
            "8b89a978f2cd59e372ec5ec1534df68f37cdcb98bafc0ef780d353c776fb38b8",
        "random_search_seed8_metrics.json":
            "44b7f7f7fe17ce1a3554ff220ad6bd8f57241f9df29f2d1be6e51edc0e8ace23",
        "report_attainment_modehb_epsnet_k1.csv":
            "bc699cafb2623d0512c866668d4ec26a6b047547a34057a5eeb11de03098d2c2",
        "report_attainment_modehb_nsga2_k1.csv":
            "bc699cafb2623d0512c866668d4ec26a6b047547a34057a5eeb11de03098d2c2",
        "report_attainment_random_search_k1.csv":
            "bc699cafb2623d0512c866668d4ec26a6b047547a34057a5eeb11de03098d2c2",
        "report_hv_modehb_epsnet.csv":
            "99306afc4c02f0f3ec1079c950589edee02db10d8e0270a56f39c409fdedd8ae",
        "report_hv_modehb_nsga2.csv":
            "99306afc4c02f0f3ec1079c950589edee02db10d8e0270a56f39c409fdedd8ae",
        "report_hv_random_search.csv":
            "edb7d6cf512e80ac3092ae4229571f07e8c67c55fec093c08eadd8b38164a47a",
        "report_loghvdiff_modehb_epsnet.csv":
            "15e38249f6ed6eacfe480726681cd4ac649c8fcea3df62b48251511bc0336d13",
        "report_loghvdiff_modehb_nsga2.csv":
            "15e38249f6ed6eacfe480726681cd4ac649c8fcea3df62b48251511bc0336d13",
        "report_loghvdiff_random_search.csv":
            "0870d79cfc1b261af053c5b4cdc64e926d4f19a378078b1abfeb33b1399217a3",
        "report_rank.csv":
            "ba1949cf83c9fbae71349bde755c170f527f3a651e60e264ea2e0a7ed853eae7",
        "summary.json":
            "2c6357a8d1f16621eee69536ef468c80df2a28f04a768e41888d4a059aaa68e8",
    },
    "toy_grid_tiny": {
        "modehb_epsnet_seed0_archive.csv":
            "f8d70a78fbb637953a43d2c55dbcf31edfbe49d114626e304261eee501e079b4",
        "modehb_epsnet_seed0_metrics.json":
            "5c2ed4c09fb578f38134e72ae02863b1c14bacdab5b79c2a44c86e20eaf66727",
        "modehb_epsnet_seed1_archive.csv":
            "9dc8f23edab9aedcecae0ee56fdb875a3204dfdcb751cd0f02bcc9e367c80a06",
        "modehb_epsnet_seed1_metrics.json":
            "d1336aa9b7eb57a05568b7702b7a5e4b2aac5c6a1671329cc388281202ce3336",
        "modehb_nsga2_seed0_archive.csv":
            "f8d70a78fbb637953a43d2c55dbcf31edfbe49d114626e304261eee501e079b4",
        "modehb_nsga2_seed0_metrics.json":
            "8be8aee10c2ed510c0865e0443885993480aae022f22d8c6d7ba6b40a03c1bd0",
        "modehb_nsga2_seed1_archive.csv":
            "9dc8f23edab9aedcecae0ee56fdb875a3204dfdcb751cd0f02bcc9e367c80a06",
        "modehb_nsga2_seed1_metrics.json":
            "67ee306a724f26ce23d7d9df3e714adbcef63e07bee4a36764b9758defb0134d",
        "random_search_seed0_archive.csv":
            "149d2e7a0f74b1e42439078a1c5cd2486f5cb47f5bbef6fc6dddb9c953539cf4",
        "random_search_seed0_metrics.json":
            "73ab753cdd2721799234980ef3b5bc75f7fac7ca4478181c604dada8f5ab9bb3",
        "random_search_seed1_archive.csv":
            "f300aa75a2be7f31f5f03e36681441a5f117297ec29b353854b97ebca891456b",
        "random_search_seed1_metrics.json":
            "60ec3d1fd6a6873f0042efdd6c98073b6e8c91fafcbeddc8999ab9f8fa5b42f2",
        "summary.json":
            "04c92bb477eac9ff50bc8f9a4248fcc8c7b28902c51d813314b0d9445793b769",
    },
    "zdt1_d4_seeds3": {
        "modehb_epsnet_seed0_archive.csv":
            "da6c3552abbe0828b1a6646121d0090fe0d368d5cbf8f3434cade7119990a713",
        "modehb_epsnet_seed0_metrics.json":
            "23245eede96240355dd634633d9bdc9e11988ca2c337d983bdcbc56351e6c1fa",
        "modehb_epsnet_seed1_archive.csv":
            "94b27a61307cc0c4a1c135b7a49c7baa07192d4162da638077c3aafd336e2966",
        "modehb_epsnet_seed1_metrics.json":
            "81a1e0a567d2b2b029840bee9ce859772fd14a7f232509cd0facd5cc09939163",
        "modehb_epsnet_seed2_archive.csv":
            "fd3fe7c5300540b37d90812b62e4d3d38b2dc851906b795dd328fa09042fa2f6",
        "modehb_epsnet_seed2_metrics.json":
            "9aecc880726d15654daadabf87d3d418cd4c8878e7403cd6c98fd1813e8e9bcd",
        "modehb_nsga2_seed0_archive.csv":
            "84263b69e33d9cded1f71f786f50e010753c899bc98d26287dc87b2133ad07a5",
        "modehb_nsga2_seed0_metrics.json":
            "9b2486fe5c7724b9873a04b2b86d15af068eec4e85041f1a18f1ea804744b062",
        "modehb_nsga2_seed1_archive.csv":
            "d73c728726ac0f35c497c5010a45da4d1d3a21ac6c16448cbb351d1e0dc323d2",
        "modehb_nsga2_seed1_metrics.json":
            "7494f35712f2c43ea03db7d158aabea544829e501aa259655b97b3093403ec80",
        "modehb_nsga2_seed2_archive.csv":
            "a6bf8caef5ed27394dc888d2dc19c6a2d41257808a54d73333ff7d677a9eadf1",
        "modehb_nsga2_seed2_metrics.json":
            "d78a13bfdd3fdcb49795903768f967335823020269e7f33d8b53e30b89915433",
        "random_search_seed0_archive.csv":
            "5e348a3c180c8f36b80e44b4c87ecba38ff7e0678e431b29fbf2175a6284583c",
        "random_search_seed0_metrics.json":
            "abc8866b685a6a4946ede495841e809e0ef2dfc4f4ebd8b8172453185f062151",
        "random_search_seed1_archive.csv":
            "81a13d70fb0920f1169769c7ce263ac26c641c14a0bdaf2fab49a911cf8b1282",
        "random_search_seed1_metrics.json":
            "b98b9c8a0b2f9e860956fe71f8a19f92d80c90402326de426d48b4581ddd2edd",
        "random_search_seed2_archive.csv":
            "14b9368608ead3c500a8db5e597b17140199f318b08f2a71f088cc8c9fbae763",
        "random_search_seed2_metrics.json":
            "78f927971414a46a3e9226552885c5b31606de81708198605e0f4c9399ab98e4",
        "report_attainment_modehb_epsnet_k1.csv":
            "6b35a908916793b216aef72058e418eb715aa9158acf8846c0bc1752ccac72c1",
        "report_attainment_modehb_epsnet_k2.csv":
            "0203f6b01805ee5e2603e27af059e05b046bb59187b9dcb3c6382ce4205a54ed",
        "report_attainment_modehb_epsnet_k3.csv":
            "9d758341c8026afe31a5ba3a854db38776d606660dd6c5211fb4ad25a0ef3581",
        "report_attainment_modehb_nsga2_k1.csv":
            "25f0c0677f7e7e9a9b66676c3fa5a5188b493fe1be05d56cf0a575c0010c75b9",
        "report_attainment_modehb_nsga2_k2.csv":
            "a588a9312a322d3b8077d650238ab8d004a4025e969a843aeceeea792e295b4a",
        "report_attainment_modehb_nsga2_k3.csv":
            "864c3b73f09d4c3a611e1729f2c9f6b021d8850546d55f1cdf7daa5f4c42672e",
        "report_attainment_random_search_k1.csv":
            "b58f6204a5e1fed22d8eebffe9418926ed812d854ba63684da08d15d33222993",
        "report_attainment_random_search_k2.csv":
            "815fa9e60b415f84195074781c9b20545f6ac87dff5f4d224afe16ad1b3b9b19",
        "report_attainment_random_search_k3.csv":
            "1dbb6df84e65468035832c0efd4d89f00b6863592faf422bfb848ed11013689f",
        "report_hv_modehb_epsnet.csv":
            "b917d9427b49675e8b6c994178b0b4754f8e8eb23788330025e53f30bd24d371",
        "report_hv_modehb_nsga2.csv":
            "a3f9daa14a72baf277a370f752f8f34c906812e630e2622a72fd65452ba242f0",
        "report_hv_random_search.csv":
            "8ca0338ee9dcd28a3417be8f354ed1c0b293e4e07c17d4994ac0b679de2037ed",
        "report_loghvdiff_modehb_epsnet.csv":
            "37cd4d1b3a89e81132e09efc2304bc2e38261ef58cce65e583b6f424f0cce1aa",
        "report_loghvdiff_modehb_nsga2.csv":
            "315edc021b04fc57cdf7d7e7d5d1c5d3267e8dd9247bbc5051de966ad4960449",
        "report_loghvdiff_random_search.csv":
            "32a8218453d8ec1fc6a00a3b162a82a68f0edd6f2e602e2981106a234ca82887",
        "report_rank.csv":
            "c065e72795619bc30ef5edb91740521865ba27dd8d4207b852bede81eb2a9854",
        "summary.json":
            "42e7126f38a1a0b2c0c790ea8a8b932a7b3176cb2a562fe2ce5fbd79bdadf191",
    },
    "zdt1_d6": {
        "modehb_epsnet_seed0_archive.csv":
            "e747c731251330a348ee4e8b6a7911adaad6b3b2cfc14e3b46880960fd127e5b",
        "modehb_epsnet_seed0_metrics.json":
            "d52499392fbaa450790ab9d6ae09d005c51243fd1a77654df84c3b86ce7ca95c",
        "modehb_nsga2_seed0_archive.csv":
            "f8869cace8bec0ae7230d015a7f4dcbdb9a865e1efc0376c1d603c0d3e00f0c6",
        "modehb_nsga2_seed0_metrics.json":
            "f00f46246f395e9d849e06da557c49ffa5805e55fd9a241d2f32e2b98ffef45e",
        "random_search_seed0_archive.csv":
            "0bac3069bd95dafd68f8163b49a4963cf2a132127a3f48aff316591be5382dbf",
        "random_search_seed0_metrics.json":
            "0ae105a6fb9d3a971214707fce561b920629540e1d4f25969b12eb06e4af6459",
        "summary.json":
            "5cd0ec29d83f50affa8d4407974d2f14366d3a4a3f77beabf6965c39bc8d58c3",
    },
    "zdt2_d10": {
        "modehb_epsnet_seed0_archive.csv":
            "dff1d127d31e7386ecdf97ff27d2ccc86f0504b4cc9d61f643f63e88325cef4e",
        "modehb_epsnet_seed0_metrics.json":
            "88ef8d1fe3e919176fcfc8d9ff89a34f24dab9cfe4a4b0c8ee5c24d3a36cff3f",
        "modehb_nsga2_seed0_archive.csv":
            "7298a2ee580c0b4918f82c3f225679d82e9b3f289e30fcd5969cf8d9f96ff9e0",
        "modehb_nsga2_seed0_metrics.json":
            "5c80ba4242a148b320d2f25768c78b5d6cb4b51fbd6bb97298a50308d5c761e5",
        "random_search_seed0_archive.csv":
            "850612f96afb03e2eacc33c04297b182ba90f6a975bf4e254be6bd5918c54462",
        "random_search_seed0_metrics.json":
            "bc7dc367aaefb194465a59e15225be04bc948b7178279591b9a436948c2b9a92",
        "summary.json":
            "193b51070d84deece66cacfc44bc8a0115be9c9c95970b2fb805a930faacd91f",
    },
}


def _digests(out_dir):
    masked = json.dumps(str(out_dir)).encode()
    return {
        path.name: hashlib.sha256(
            path.read_bytes().replace(masked, b'"<output_dir>"')
            if path.name == "summary.json"
            else path.read_bytes()
        ).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    benchmark, (b_min, b_max, eta), seeds, max_tae, report = CASES[case]
    out = tmp_path / "out"
    config = {
        "benchmark": benchmark,
        "optimizers": OPTIMIZERS,
        "ladder": {"b_min": b_min, "b_max": b_max, "eta": eta},
        "seeds": seeds,
        "stop": {"max_tae": max_tae},
        "output_dir": str(out),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["run", str(path)]) == 0
    if report is not None:
        assert cli.main(["report", str(out), *report]) == 0
    assert _digests(out) == GOLDEN[case]
