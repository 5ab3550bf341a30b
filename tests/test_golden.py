"""Behaviour lock: SHA-256 digests of what `modehb run` and `modehb report` write.

Each case runs every optimizer through the CLI and hashes each archive CSV
and per-run metrics JSON; the first case also hashes the `report` CSVs.
`summary.json` is left out because it embeds the (temporary) output_dir.

The digests pin the determinism contract across refactors.  A digest may
change only in a change whose CHANGES.md entry says why.
"""

import hashlib
import json

import pytest

from modehb import cli

OPTIMIZERS = [{"name": name} for name in cli.OPTIMIZER_NAMES]

# name: (benchmark, (b_min, b_max, eta), seeds, max_tae, also run `report`)
CASES = {
    # Population 15, many duplicate cells and tied hypervolumes.
    "toy_grid_k4": ({"name": "toy_grid", "k": 4}, (1, 4, 2), [0, 8], 64, True),
    # Population 40; the default budget for d=6.
    "zdt1_d6": ({"name": "zdt1_mf", "d": 6}, (1, 27, 3), [0], 216, False),
    # Population 121 on a five-rung ladder.
    "zdt2_d10": ({"name": "zdt2_mf", "d": 10}, (1, 81, 3), [0], 300, False),
    # Population 3: mutation pools fall back to random genotypes.
    "toy_grid_tiny": ({"name": "toy_grid", "k": 4}, (1, 2, 2), [0, 1], 40, False),
}

GOLDEN = {
    "toy_grid_k4": {
        "modehb_epsnet_seed0_archive.csv":
            "0d0926503aa328329359299fc56a282ab023d702efaec6f8af78256359635cdb",
        "modehb_epsnet_seed0_metrics.json":
            "737d3db59261eacf3d0dd9e4c56b1ff38fdc5d89da23af0333e4e5eb02710945",
        "modehb_epsnet_seed8_archive.csv":
            "52cdf6c7e885ac4973f5ea8a0b9efd3439130b1a00ae1ed05de6fa86323bb698",
        "modehb_epsnet_seed8_metrics.json":
            "9540f8cc079ca297e413a1759ac5a98a82bbe7275201a8e2fb5ce800839d0b80",
        "modehb_nsga2_seed0_archive.csv":
            "2d73001ac36ed97ccb2de430a6d9a570d6189895440f6b68f7a1119ffe703658",
        "modehb_nsga2_seed0_metrics.json":
            "d7b5906038dc061a172487951832df9e1d27293543e1bd0c7c6d914cb9cfd64d",
        "modehb_nsga2_seed8_archive.csv":
            "1c5cf0b218e26b07639248c7441064456abb085fe26e3a527225afc166c3553f",
        "modehb_nsga2_seed8_metrics.json":
            "f3128a0ce13dc98883e35df8fb44128522622472e0ae0d594e8e576e5168359b",
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
            "6d033aa1038c096a2ee3c358dfe5b26c7c433366c21e58b46c1bdf3264df36d1",
        "report_hv_modehb_nsga2.csv":
            "4a36bf3441ddcfc8bb6a1015c709ab994ede9c1edad02d4a3c8e311b23302b3a",
        "report_hv_random_search.csv":
            "edb7d6cf512e80ac3092ae4229571f07e8c67c55fec093c08eadd8b38164a47a",
        "report_loghvdiff_modehb_epsnet.csv":
            "429635a97fd8a70bdb885db6b9ef0afa0bff65023f9665a9e6de9166e18a5542",
        "report_loghvdiff_modehb_nsga2.csv":
            "6de8d4cd919f65b5eb8399f0ac68732e355c0617f07c9845d05963c9da7f10e2",
        "report_loghvdiff_random_search.csv":
            "0870d79cfc1b261af053c5b4cdc64e926d4f19a378078b1abfeb33b1399217a3",
        "report_rank.csv":
            "9da8767f8cb45b36c898416ec0d0d49f11336fa70608f50de3a86d6918cad8ab",
    },
    "toy_grid_tiny": {
        "modehb_epsnet_seed0_archive.csv":
            "0520c70abac51f6c84c710b9946798cb795617948a4088da063c6e4cb72636b5",
        "modehb_epsnet_seed0_metrics.json":
            "5dcb25142bb483814e631cff260d086da3e6be52792ef7bc606645e4757ef3af",
        "modehb_epsnet_seed1_archive.csv":
            "33a554996a41ee36b98e3aa844522f0a66b070d60e46d0cb1e1dcd8644ac9c26",
        "modehb_epsnet_seed1_metrics.json":
            "3f6c0f355030b65bb22c92a86c1b73465960da7b3211348022594af689c7be4f",
        "modehb_nsga2_seed0_archive.csv":
            "0520c70abac51f6c84c710b9946798cb795617948a4088da063c6e4cb72636b5",
        "modehb_nsga2_seed0_metrics.json":
            "62318dc616cf29284c61b14e0286c8ca0ac54835e1e4a4a1c80cd872a856ceff",
        "modehb_nsga2_seed1_archive.csv":
            "33a554996a41ee36b98e3aa844522f0a66b070d60e46d0cb1e1dcd8644ac9c26",
        "modehb_nsga2_seed1_metrics.json":
            "c1b3d6dd959a009faf41632c45376135d85ffcc31928840433ac5b39540f8e6d",
        "random_search_seed0_archive.csv":
            "149d2e7a0f74b1e42439078a1c5cd2486f5cb47f5bbef6fc6dddb9c953539cf4",
        "random_search_seed0_metrics.json":
            "73ab753cdd2721799234980ef3b5bc75f7fac7ca4478181c604dada8f5ab9bb3",
        "random_search_seed1_archive.csv":
            "f300aa75a2be7f31f5f03e36681441a5f117297ec29b353854b97ebca891456b",
        "random_search_seed1_metrics.json":
            "60ec3d1fd6a6873f0042efdd6c98073b6e8c91fafcbeddc8999ab9f8fa5b42f2",
    },
    "zdt1_d6": {
        "modehb_epsnet_seed0_archive.csv":
            "d46141d215c16d1d26b5fa88573289d15a854aa211f3bde280ff5396dcb9660e",
        "modehb_epsnet_seed0_metrics.json":
            "9b2e8b002c7613216060ed84afe6d179f94187a1560e71a6cce5cda717b02c5e",
        "modehb_nsga2_seed0_archive.csv":
            "f8869cace8bec0ae7230d015a7f4dcbdb9a865e1efc0376c1d603c0d3e00f0c6",
        "modehb_nsga2_seed0_metrics.json":
            "0128c4f426242867dffc51e006e4d37f7d6f8fbd14d89ed9757dc9d114cbe967",
        "random_search_seed0_archive.csv":
            "0bac3069bd95dafd68f8163b49a4963cf2a132127a3f48aff316591be5382dbf",
        "random_search_seed0_metrics.json":
            "a5fcb5c944201c7cd7fa1178a815436a44745ad215bc3ca8898e0e62ace685cd",
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
    },
}


def _digests(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.name != "summary.json"
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
    if report:
        assert cli.main(["report", str(out)]) == 0
    assert _digests(out) == GOLDEN[case]
