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
    # A long budget: survivor selection breaks 462 (nsga2) and 453 (epsnet)
    # ties by the hypervolume contributions of last fronts of 10-12 points.
    "zdt1_d6_long": ({"name": "zdt1_mf", "d": 6}, (1, 27, 3), [0], 5000, []),
    # Ten seeds: a mean column sums ten values, past the eight from which
    # numpy's pairwise sum unrolls; `report` at its default levels 1, 5, 9.
    "zdt1_d4_seeds10": ({"name": "zdt1_mf", "d": 4}, (1, 9, 3), list(range(10)), 120, []),
}

GOLDEN = {
    "toy_grid_k4": {
        "modehb_epsnet_seed0_archive.csv":
            "480cddf67d974c11cf5236d2d06a4ee2250b1a00408b930c475d4efe86bbd9e6",
        "modehb_epsnet_seed0_metrics.json":
            "737d3db59261eacf3d0dd9e4c56b1ff38fdc5d89da23af0333e4e5eb02710945",
        "modehb_epsnet_seed8_archive.csv":
            "9c7902c1f024b4e49abdd53c380ac65efaacd91f56427bbd112ec2c409bdc89f",
        "modehb_epsnet_seed8_metrics.json":
            "e82a7e96422b26241ef98e4d367592b15477503a6d7939b2400e7d0d6f2c7164",
        "modehb_nsga2_seed0_archive.csv":
            "480cddf67d974c11cf5236d2d06a4ee2250b1a00408b930c475d4efe86bbd9e6",
        "modehb_nsga2_seed0_metrics.json":
            "d7b5906038dc061a172487951832df9e1d27293543e1bd0c7c6d914cb9cfd64d",
        "modehb_nsga2_seed8_archive.csv":
            "c648f54a0b58e5c1da4ead31b79ec5f3ae607d7d8c794df54504850dde14ac84",
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
            "3ac27bd3266fa511fbc4de0cc80e8d311882c8cf3503f14f5a8db76db2f7eaa0",
        "report_hv_modehb_nsga2.csv":
            "c18267719036a8e5cb65ee506576e41c2813bb02dd8ee4846e2eb75fd2be32a0",
        "report_hv_random_search.csv":
            "edb7d6cf512e80ac3092ae4229571f07e8c67c55fec093c08eadd8b38164a47a",
        "report_loghvdiff_modehb_epsnet.csv":
            "7d4ffb009518b6b250b3fde5f868a07e8c612c5ed1c9e72d692617bfdb373959",
        "report_loghvdiff_modehb_nsga2.csv":
            "893c7d41358db3d8455ce092b641e977e3c69759b9bec6c18e6afa40afd9cec6",
        "report_loghvdiff_random_search.csv":
            "0870d79cfc1b261af053c5b4cdc64e926d4f19a378078b1abfeb33b1399217a3",
        "report_rank.csv":
            "3d1e4b3b9d40317e027089e9c7b8e35197f100707d63597314ee9d04db3f83a1",
        "summary.json":
            "2c6357a8d1f16621eee69536ef468c80df2a28f04a768e41888d4a059aaa68e8",
    },
    "toy_grid_tiny": {
        "modehb_epsnet_seed0_archive.csv":
            "7e170c88dcf080e1b7245ae253296415f8996d6a132936d91679e67d529647b4",
        "modehb_epsnet_seed0_metrics.json":
            "5c2ed4c09fb578f38134e72ae02863b1c14bacdab5b79c2a44c86e20eaf66727",
        "modehb_epsnet_seed1_archive.csv":
            "52492accf6821233bac3636ac7787a66f0771cc2e8f72aa02d537064ac54d012",
        "modehb_epsnet_seed1_metrics.json":
            "d1336aa9b7eb57a05568b7702b7a5e4b2aac5c6a1671329cc388281202ce3336",
        "modehb_nsga2_seed0_archive.csv":
            "7e170c88dcf080e1b7245ae253296415f8996d6a132936d91679e67d529647b4",
        "modehb_nsga2_seed0_metrics.json":
            "8be8aee10c2ed510c0865e0443885993480aae022f22d8c6d7ba6b40a03c1bd0",
        "modehb_nsga2_seed1_archive.csv":
            "52492accf6821233bac3636ac7787a66f0771cc2e8f72aa02d537064ac54d012",
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
            "d74f7ce2167ed8aa306be0b1d235b94009c841ec92c2265f6c666d15643c25fe",
        "modehb_epsnet_seed0_metrics.json":
            "a24623136c4fc1c86f8a6f7d74f3b8eee242178d4551bb059637b07701183bf6",
        "modehb_epsnet_seed1_archive.csv":
            "9d7dd55d8279ed71252a3763e0238b12dd7f0d427b083c6c1cde2e2ce071acfd",
        "modehb_epsnet_seed1_metrics.json":
            "ba33068762ef9656e9284196204f2c3b7d2896df37d03942ffb973852dd0a730",
        "modehb_epsnet_seed2_archive.csv":
            "2ad06bdd31d0158a36e7224f1ff00c59703d6c06e4829737f4edeab67dca591c",
        "modehb_epsnet_seed2_metrics.json":
            "fe2d629ae363fdbde4d8b6531c1f0d7634bb9ce7be3e38d4770db7b42e44be99",
        "modehb_nsga2_seed0_archive.csv":
            "36773bf04129b87beb6cfa35cf30a6561a05963a4a7d7bb1d0a7ab3c86e7bb56",
        "modehb_nsga2_seed0_metrics.json":
            "867e95937c74edd7b7e741a65463423c83d092b7cdcb298d75d85b7a2297bd6b",
        "modehb_nsga2_seed1_archive.csv":
            "b324897ab6d72f29249889550f89bec5081a58d36ac9ac40cd23f01a44ef3fb2",
        "modehb_nsga2_seed1_metrics.json":
            "268dcc5d66dd1aa581d219764a23da9a98fad07b3f43e08cb326b748bfb41739",
        "modehb_nsga2_seed2_archive.csv":
            "22cf0cb407addb2d9fbc25b842181db3e46d7d871f5fcd3642ac93866999ee5e",
        "modehb_nsga2_seed2_metrics.json":
            "c10854355f7d3a1c722aaed7ca8ab8d4bcc8bff3d0cad2a3c1aecafe68427dd6",
        "random_search_seed0_archive.csv":
            "5e348a3c180c8f36b80e44b4c87ecba38ff7e0678e431b29fbf2175a6284583c",
        "random_search_seed0_metrics.json":
            "e64fda50fbcbcc8e6b8b5e6869a5198d0954b06ef926a78bbe7dfb6ed34c519c",
        "random_search_seed1_archive.csv":
            "81a13d70fb0920f1169769c7ce263ac26c641c14a0bdaf2fab49a911cf8b1282",
        "random_search_seed1_metrics.json":
            "1cc5d649826add7b037259ece4c81313346e55cc5c19f42ccce9eeea64810e0e",
        "random_search_seed2_archive.csv":
            "14b9368608ead3c500a8db5e597b17140199f318b08f2a71f088cc8c9fbae763",
        "random_search_seed2_metrics.json":
            "4abf59f444e3f730126953f17b996f1adadfcb0ed45e44f2e841ff0efa3ff08e",
        "report_attainment_modehb_epsnet_k1.csv":
            "c18aab7941ef0b44a53eb7c73607875adc333092fdcaac5b12edd1f393c36454",
        "report_attainment_modehb_epsnet_k2.csv":
            "869b98f093defbfae92477fa2070c3ea016190dd5d4ce09a640d0da5fbe737e2",
        "report_attainment_modehb_epsnet_k3.csv":
            "048720beb5513c9b97b8817fcfcf1035734f7db2d10144053d3a2416d45e4f3a",
        "report_attainment_modehb_nsga2_k1.csv":
            "698d3ed8cec0dd4f45ae7dfdfe3175ef72fa89f6390cfa4394cb04b656315bf2",
        "report_attainment_modehb_nsga2_k2.csv":
            "9bb68c5144dba394e5062d481e77175db3cec79e47aa814e63c6d81c72fe9869",
        "report_attainment_modehb_nsga2_k3.csv":
            "910085c8829141cb31d393b7cc53f5984d8fb35b6d9772dcf7560b691f7f6fce",
        "report_attainment_random_search_k1.csv":
            "b58f6204a5e1fed22d8eebffe9418926ed812d854ba63684da08d15d33222993",
        "report_attainment_random_search_k2.csv":
            "815fa9e60b415f84195074781c9b20545f6ac87dff5f4d224afe16ad1b3b9b19",
        "report_attainment_random_search_k3.csv":
            "1dbb6df84e65468035832c0efd4d89f00b6863592faf422bfb848ed11013689f",
        "report_hv_modehb_epsnet.csv":
            "758dac67c05506c97747c1c517761bbc11fd8e6d850d3957ada457264aca5326",
        "report_hv_modehb_nsga2.csv":
            "fd924734805f07517f85e625fa6cba37ce59442cc62685d1cd21aaa2718b8f3e",
        "report_hv_random_search.csv":
            "8ca0338ee9dcd28a3417be8f354ed1c0b293e4e07c17d4994ac0b679de2037ed",
        "report_loghvdiff_modehb_epsnet.csv":
            "06efd741e2754c009db078cc17755a8149e5fe13b65291e794b3623bf71fe7cc",
        "report_loghvdiff_modehb_nsga2.csv":
            "54cb2d1c6fcb1ef5d5daa4817ae7f5e82749c2ab30c1cea7b5c04eb95f87d686",
        "report_loghvdiff_random_search.csv":
            "5441f91df071bb309bce2c4e504305dba162a66c6c145115a9d00107f8efbb8f",
        "report_rank.csv":
            "e8f828b104180d2c7a9ac8065669e7a286c5bf49bff3345b27314b45c8817ccb",
        "summary.json":
            "56808d7dd1c5b727efaf6af06319ea44242ba121f1efa7b9cb7bbe4aba910be2",
    },
    "zdt1_d4_seeds10": {
        "modehb_epsnet_seed0_archive.csv":
            "d74f7ce2167ed8aa306be0b1d235b94009c841ec92c2265f6c666d15643c25fe",
        "modehb_epsnet_seed0_metrics.json":
            "a9b9e38e4c9219c08ddb292b78fb51cd435a5c43062920bdb1f7e5645b306071",
        "modehb_epsnet_seed1_archive.csv":
            "9d7dd55d8279ed71252a3763e0238b12dd7f0d427b083c6c1cde2e2ce071acfd",
        "modehb_epsnet_seed1_metrics.json":
            "5c974e4b5afc7476d104056f84e660d7166da9fa2fc0c7797a2428866d3b5629",
        "modehb_epsnet_seed2_archive.csv":
            "2ad06bdd31d0158a36e7224f1ff00c59703d6c06e4829737f4edeab67dca591c",
        "modehb_epsnet_seed2_metrics.json":
            "fdf1f520edee61600ac52120f9d57f781ed2a66e7cfc52639284a6e1ed75983d",
        "modehb_epsnet_seed3_archive.csv":
            "43033e65835feee101e534e294099f55bbb230fac49bc9a257e9f3a7208853c7",
        "modehb_epsnet_seed3_metrics.json":
            "19713c5310776ec79c35d802b247e92dc0859fca95eacdb1fe33a4f7845b88ed",
        "modehb_epsnet_seed4_archive.csv":
            "26b063fabb298e9f7c4f9a2a508ea0d4a181727fef6f67f55943e0c8c5ef2302",
        "modehb_epsnet_seed4_metrics.json":
            "57dc06a81f1099b346a9ebb44550f5921492015e078d9a9a265f5874bb428467",
        "modehb_epsnet_seed5_archive.csv":
            "560ce0f6d9fa6cebe1347aed61b992115d7f85e91470e8301f61a5b348c02d1e",
        "modehb_epsnet_seed5_metrics.json":
            "20fdf11035b5fa3c2da3c4de120c40ab57da37a9031d4382a26cf32bc9a336ff",
        "modehb_epsnet_seed6_archive.csv":
            "f2e225ff760e6bfde0aa7a7463ad0447013daee45afcd364274b5900cf4dd5ea",
        "modehb_epsnet_seed6_metrics.json":
            "76f2e2e26b90eeda2e10e8069bbbe4a6da7c3130258c34bd001ea5798434ca2d",
        "modehb_epsnet_seed7_archive.csv":
            "77467b46494575bcabdd8b76f65c7cc009e304da54375236c1c8b99fb722eb38",
        "modehb_epsnet_seed7_metrics.json":
            "11f13ba7e8bce2fec133dda02050c523d30703ac7a2d1a05ff478296f2d310d2",
        "modehb_epsnet_seed8_archive.csv":
            "fa2811fdea6205e07641076e2d2b9a089dc50799c0858742d2e0bfd2a165ea1c",
        "modehb_epsnet_seed8_metrics.json":
            "fcfe390f1be26366ddc93651f3dc0273af07afa0d8e6a604c77584d41bed99ee",
        "modehb_epsnet_seed9_archive.csv":
            "490ce0be9d538691f1980710dbda68612b516b2a6b7a92217a06fd41adf9533b",
        "modehb_epsnet_seed9_metrics.json":
            "6404e2c6fad2cd97ec8164e00f40e2983602b8e6f265f18bdef1368c320d8b62",
        "modehb_nsga2_seed0_archive.csv":
            "36773bf04129b87beb6cfa35cf30a6561a05963a4a7d7bb1d0a7ab3c86e7bb56",
        "modehb_nsga2_seed0_metrics.json":
            "f1f06104c7035637058d1519667b2df2ac1b0474d801ab4a1bf25b15896158d6",
        "modehb_nsga2_seed1_archive.csv":
            "b324897ab6d72f29249889550f89bec5081a58d36ac9ac40cd23f01a44ef3fb2",
        "modehb_nsga2_seed1_metrics.json":
            "9b763295e9b6886b2ac3842943f4a71e34804645393c3c9d32dee8952c462b7c",
        "modehb_nsga2_seed2_archive.csv":
            "22cf0cb407addb2d9fbc25b842181db3e46d7d871f5fcd3642ac93866999ee5e",
        "modehb_nsga2_seed2_metrics.json":
            "bcf2203ef2d011c84be29877b562c1208b2d77da37dca8e2ed15908bf4b29ca6",
        "modehb_nsga2_seed3_archive.csv":
            "6fae9fa08f8ed813cbc4774f7565387cd91310202fb1dcf9663cb5db671910fe",
        "modehb_nsga2_seed3_metrics.json":
            "85fbc0e1649b81b69b5d23337c3fc43846eedbdab2a120a3074bb10868918a72",
        "modehb_nsga2_seed4_archive.csv":
            "f605a7f2a3fe603d9273f18b01f4d5639013818526d34bcf2e184c4112aae2ea",
        "modehb_nsga2_seed4_metrics.json":
            "e96773d2b0923446e6b387c2d048fc8c5f62ec17eae2fe0c139ff3b57b9c9fbf",
        "modehb_nsga2_seed5_archive.csv":
            "d5f7d2828885e1692f52a07f7dcbf6c1d679764e45543e5bd2ff93bcf8bd7e22",
        "modehb_nsga2_seed5_metrics.json":
            "ca020281af14b3ea65e6494097e77f4905b7b110dedc1ddd61e1693dad5e359c",
        "modehb_nsga2_seed6_archive.csv":
            "7a1c8f0bb60d806acf4f9988ba80ef11054ae46f0688c6dc7b92da88904470d2",
        "modehb_nsga2_seed6_metrics.json":
            "d1ac9147222deb892c8bfd3ae9953472f61e19b51035ce8be40d64c389b8bc06",
        "modehb_nsga2_seed7_archive.csv":
            "83938dbb2b67a364e2210a653f294a293b64c914b26e4b4681256d92b8385c6f",
        "modehb_nsga2_seed7_metrics.json":
            "d99d4ca1546bc132a55726bd4799c8c3028048e1ed9cb798501a7696f8fb22f7",
        "modehb_nsga2_seed8_archive.csv":
            "9a34cde36aa94b2b907e6ceb88ecc5864ba03cd3d3b58c1c7010ba75cbe92ee7",
        "modehb_nsga2_seed8_metrics.json":
            "83fa3e204fa7d6c006497cd0ec17116db137255309054099ebc3878a726cef2a",
        "modehb_nsga2_seed9_archive.csv":
            "241bb66a66715313a9ae76456ef3ed1f99459973f87beb8cbe67e6e3b30155f4",
        "modehb_nsga2_seed9_metrics.json":
            "0808d8f0aa97749298837f18cef5faabed35e42fae5a232c52cfe826925c9c71",
        "random_search_seed0_archive.csv":
            "5e348a3c180c8f36b80e44b4c87ecba38ff7e0678e431b29fbf2175a6284583c",
        "random_search_seed0_metrics.json":
            "dea12792ce0b8f4a0fae53620e90ff70694f33f3eb950ba494a35c3a8b27ce37",
        "random_search_seed1_archive.csv":
            "81a13d70fb0920f1169769c7ce263ac26c641c14a0bdaf2fab49a911cf8b1282",
        "random_search_seed1_metrics.json":
            "5514ad74296e8c95d75072f646f482278d783cc1de1c4f85d3c5abc26774b9d3",
        "random_search_seed2_archive.csv":
            "14b9368608ead3c500a8db5e597b17140199f318b08f2a71f088cc8c9fbae763",
        "random_search_seed2_metrics.json":
            "1a0015922516ad31e18904efaf006a2e30bee424e93592a6b1981744f9d3b704",
        "random_search_seed3_archive.csv":
            "8dcf8cfaf20b7ea04526dc66aca3f386c63181bdd2873207528bbe365d8ea708",
        "random_search_seed3_metrics.json":
            "c54f58df55fd156a37d3464461df8be28fbff9235846bfcafd322a2f806e9238",
        "random_search_seed4_archive.csv":
            "a9b0cfee11a90bccf44cebff74d9eab54cfabc484f608618a26cffb84843f7bd",
        "random_search_seed4_metrics.json":
            "1c766999458c466751b130aae73aac88643adb32a7dbbeb3b9ef1cfd9c7a6162",
        "random_search_seed5_archive.csv":
            "b6e87095a31e7396eb52caaca2c087c42433afc1d918e3aa7ed721ef906163e1",
        "random_search_seed5_metrics.json":
            "ecd7d1f85a29a746d1ba39202babf612f7490c4259ae7c09410ffe1e7ec67d4e",
        "random_search_seed6_archive.csv":
            "ffb0729edcf80a527b9e0301a1c4d23309fb217fe57b904ad1831e95d951e4ad",
        "random_search_seed6_metrics.json":
            "b2b3cb2e8d340c4765294771717ea4a89980b6626b59a646adee0fa4125b0374",
        "random_search_seed7_archive.csv":
            "faac54ab8dce47b552b35b46bf19f18b3ba212193ec7c2aca863aab9cdea53dc",
        "random_search_seed7_metrics.json":
            "bf6b0b02aaac28a9e931e5faa503eb146e29530e1ada9eeee7dd8ef917a6be38",
        "random_search_seed8_archive.csv":
            "8661f4b3fc3d2764cb27cd994c05b6a338120226328460ceda5766e252ea6250",
        "random_search_seed8_metrics.json":
            "45698eb2f82f903bed654d1b97c97aa65c9ea3db3a049f2789776d18413f6694",
        "random_search_seed9_archive.csv":
            "a3ec5da4601eb3877526cf0376ae5bc7a007ef9ddfccf362fdd29e6a3315e545",
        "random_search_seed9_metrics.json":
            "4aadd6fd7206f9f5a85303345096efa3fe29705365df99b7c6a43afbe8afb997",
        "report_attainment_modehb_epsnet_k1.csv":
            "cd6b95abb2887e534839137d0dfbe03b49e0de2cad8cf70a00339b32d6564ee2",
        "report_attainment_modehb_epsnet_k5.csv":
            "70889645b65a0a810ee9b3e4a6255f81ca0d904070204107c9a8789e7f875f1b",
        "report_attainment_modehb_epsnet_k9.csv":
            "5bd0e01e1d5c50de8b58ab186c3f42503223e90087ff3bb743b924fe68f5dec5",
        "report_attainment_modehb_nsga2_k1.csv":
            "d65e20315680ab9d40e957419e31441d996250c7a83a405948e8500232808dfb",
        "report_attainment_modehb_nsga2_k5.csv":
            "b8f595c62db57d785be5a35f94a70d04ff8d8b02479baf6374d5575629216c09",
        "report_attainment_modehb_nsga2_k9.csv":
            "61d7d4a579cee5997000873232aff34952b34d32a7f5816470215d70f8ebd31e",
        "report_attainment_random_search_k1.csv":
            "a86460e37ce964a44379720f3452002b259ad1e7c0a5bcb51677e706133a56d0",
        "report_attainment_random_search_k5.csv":
            "20adce29e99b4ab2fa0aa2b9aa3e463cd359fb18531a093b7e02b2db08e84b8b",
        "report_attainment_random_search_k9.csv":
            "815fa9e60b415f84195074781c9b20545f6ac87dff5f4d224afe16ad1b3b9b19",
        "report_hv_modehb_epsnet.csv":
            "5309900ed587fce2729f35de8bc5eb099d92372df1bbdad89bd234f88c9bfa92",
        "report_hv_modehb_nsga2.csv":
            "5e3710f877881803e01f8db073630c1f940fe08f8637b423fb1be6f806577e3e",
        "report_hv_random_search.csv":
            "874b8d06da05df442f0023f7ea050d43f4264d93bb03de178387f9c7e65da36e",
        "report_loghvdiff_modehb_epsnet.csv":
            "7234f5216acceecc4071113a361cf3c61d959f8512e7f3f41ce83aa91c7133e6",
        "report_loghvdiff_modehb_nsga2.csv":
            "bc315beb63549d34e6bad4f26b0889d1392b45670c320d03ab2eea7965c24d69",
        "report_loghvdiff_random_search.csv":
            "1316f319c9c821cf4cf75c3b8aadefcc4eb6e8a2219d7801148cd295f866f5a2",
        "report_rank.csv":
            "b6043c4f5e66bae8163b1362a001b0d897b06ff2fde576c571bf03e55f89ba8b",
        "summary.json":
            "87af5593f6cacc45c797943458052c45ac88b020b2223f2150fc48b7d41548f4",
    },
    "zdt1_d6": {
        "modehb_epsnet_seed0_archive.csv":
            "4652a59b15c8e43a1001ec5ee543632b50493c2d2e8ceef458184ad550277623",
        "modehb_epsnet_seed0_metrics.json":
            "72404d5a0052c875d18be14987fb986e8157326d13d1200f126c4e5855a69e64",
        "modehb_nsga2_seed0_archive.csv":
            "d59ab68895ef9176457d0105f407fc8e8bc5d043e4bd7e575742d41ea9ca7cda",
        "modehb_nsga2_seed0_metrics.json":
            "b532b155070955a41082897f9dfe1d87b6a216b92bb6a134301b2a4fb2230e40",
        "random_search_seed0_archive.csv":
            "0bac3069bd95dafd68f8163b49a4963cf2a132127a3f48aff316591be5382dbf",
        "random_search_seed0_metrics.json":
            "7e1abce523f264709977cdb635047bff3122e79f8bee645c5fe6b07156fad1b7",
        "summary.json":
            "d0d9eb8d80eb84ab5054d3fa3740e3af3d1c1af71586b21ea99d99f05829fb4f",
    },
    "zdt1_d6_long": {
        "modehb_epsnet_seed0_archive.csv":
            "65cc34c341f74d30e82b2047500f5053940904b2fc06477355f5d0a73dcb912e",
        "modehb_epsnet_seed0_metrics.json":
            "114e9b99164f7cd3d4c1c0ef398dba3757f736a6029be9a306f73c1f684b7498",
        "modehb_nsga2_seed0_archive.csv":
            "59e7d72f3f93d298e369afadaca87c98d2bb2f4ce2759bef0326ccb444149f0b",
        "modehb_nsga2_seed0_metrics.json":
            "c334912df81d68951352e7da1075eb016fcad021f525dd3de9a5149b38b1d67e",
        "random_search_seed0_archive.csv":
            "ce4d6c472ab6d77e36bbac4bd69b48bbce4c059cb128bb9471c4e6e8223e0fca",
        "random_search_seed0_metrics.json":
            "031e69244591786085a1632344401f682af3bc43f67a8742b4dc118593093f07",
        "report_attainment_modehb_epsnet_k1.csv":
            "48a1faa082df44dd77351cf3a5fb93dac37913f7a3fada20d7a8b3efbb37f817",
        "report_attainment_modehb_nsga2_k1.csv":
            "9eda676ad5d831ee9a9b225a051c98ccd711fde8065e5ac511864eba4fe46025",
        "report_attainment_random_search_k1.csv":
            "8bb40cb4a85705ffd73c37d25d7c771ff576293366c75f21dab900c26ecff7a8",
        "report_hv_modehb_epsnet.csv":
            "52eb188beca36b621857d635fc8bbc7d90aee81792f104532af461693fd0752a",
        "report_hv_modehb_nsga2.csv":
            "5aa41cca83de12b99e02d2563644307711fa6464d5c165fbb3d1db0cc739e02f",
        "report_hv_random_search.csv":
            "efa12f55e0d33df51afc25fd625b7bf88dddea918592ff47b95717c82c3cb484",
        "report_loghvdiff_modehb_epsnet.csv":
            "5ffd77e9efb9d7ec61f724c37124c9dfe50595540d007f31824d00fec62fdb46",
        "report_loghvdiff_modehb_nsga2.csv":
            "3d12aae33d3841c00bd395cf2d231353126cf547f6b6d4ac5889cc9fcce3e3da",
        "report_loghvdiff_random_search.csv":
            "2430861ee4860f738712d4e3de9e059a17b13be24bd25e4f40d29f0d1ff64f61",
        "report_rank.csv":
            "66d90fe599e6c95b95e9c9ef80e59f4e92d366eba9156c66369c21a9f75c12fa",
        "summary.json":
            "45a874af868546216d09cfe64d13694f7a226a1b858b50d29555fd620992d2e4",
    },
    "zdt2_d10": {
        "modehb_epsnet_seed0_archive.csv":
            "4a7e3ae6b508715a471eced0e970dfab8ba6ddb5c97e1eed143765e7f81ba828",
        "modehb_epsnet_seed0_metrics.json":
            "88ef8d1fe3e919176fcfc8d9ff89a34f24dab9cfe4a4b0c8ee5c24d3a36cff3f",
        "modehb_nsga2_seed0_archive.csv":
            "ab17a0c0b616cc880ce393660a95dae450969eecd7267adead43a9896b0fb320",
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
