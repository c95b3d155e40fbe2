"""Golden digests of CLI behaviour on the five shipped configs.

Each command runs in-process through `fracdec.cli.main` inside an empty
working directory holding a copy of the config, so every path it sees or
prints is relative. Its digest is the sha256 of its exit code, stdout,
stderr and the bytes of its `--out` file. A library change that claims to
keep behaviour must keep every digest; a change that alters behaviour on
purpose records the new digests and says why.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from fracdec.cli import main
from fracdec.harness import random_message, trial_stream
from fracdec.serialization import config_from_dict, load_json

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TINY = ("frs-p19-n6-k1", "ts-q5-n4-k2")


def commands(name):
    """(label, argv) pairs for one config, in run order. Staged commands
    read the files earlier ones wrote."""
    data = load_json(CONFIG_DIR / f"{name}.json")
    cfg, scheme = config_from_dict(data), data["scheme"]
    weights = ",".join(map(str, range(cfg.n + 1)))
    yield "simulate", ["simulate", "--config", "cfg.json", "--weights",
                       weights, "--mode", "sampled", "--trials-per-weight",
                       "3", "--seed", "5"]
    for t in range(cfg.radius + 1):
        yield f"compare-naive t={t}", ["compare-naive", "--config", "cfg.json",
                                       "--t", str(t), "--seed", "2"]
    yield "encode", [scheme, "encode", "--config", "cfg.json",
                     "--message", "msg.json"]
    last = ",".join(map(str, range(cfg.n - cfg.radius, cfg.n)))
    corruptions = [(f"w{w}", ["--weight", str(w)])
                   for w in (cfg.radius, cfg.radius + 1)]
    corruptions.append(("last", ["--positions", last]))
    for tag, how in corruptions:
        yield f"corrupt {tag}", [scheme, "corrupt", "--config", "cfg.json",
                                 "--in", "encode.out", "--seed", "3", *how]
        yield f"download {tag}", [scheme, "download", "--config", "cfg.json",
                                  "--in", f"corrupt {tag}.out"]
        yield f"decode {tag}", [scheme, "decode", "--config", "cfg.json",
                                "--in", f"download {tag}.out"]
    if name not in TINY:
        return
    yield "oracle collision", ["oracle", "collision", "--config", "cfg.json",
                               "--t", "1"]
    yield "oracle collision short", ["oracle", "collision", "--config",
                                     "cfg.json", "--t", "1",
                                     "--download-count", "1"]
    yield "oracle list", ["oracle", "list", "--config", "cfg.json",
                          "--word", f"download w{cfg.radius + 1}.out",
                          "--radius", str(cfg.radius + 1)]
    yield "oracle nearest", ["oracle", "nearest", "--q", "13", "--k", "2",
                             "--received", "1,3,0,7,9,0", "--radius", "3"]
    yield "oracle nearest omega", ["oracle", "nearest", "--q", "5", "--k", "1",
                                   "--received", "1,1,2", "--omega", "4,2,0",
                                   "--radius", "1"]


def run_digests(name, workdir, capsys):
    """Run every command of `name` in `workdir`; label -> sha256 hex."""
    shutil.copy(CONFIG_DIR / f"{name}.json", workdir / "cfg.json")
    data = load_json(workdir / "cfg.json")
    message = random_message(config_from_dict(data), trial_stream(11, 0, 0))
    (workdir / "msg.json").write_text(json.dumps(
        {"format": 1, "scheme": data["scheme"], "message": list(message)}))
    capsys.readouterr()
    digests = {}
    for label, argv in commands(name):
        out = workdir / f"{label}.out"
        code = main(argv + ["--out", out.name])
        captured = capsys.readouterr()
        body = out.read_bytes() if out.exists() else b"<no file>"
        digests[label] = hashlib.sha256(
            b"\0".join([str(code).encode(), captured.out.encode(),
                        captured.err.encode(), body])).hexdigest()
    return digests


GOLDEN = {
    "frs-p19-n6-k1": {
        "simulate":
            "2605348682617ceae412debe17af52edd70124cad74b00d11cf9cda0676b30e6",
        "compare-naive t=0":
            "2aa72542ef380ef485f7acaca326e167a9d13072f54ddd75e0a1c6951d33e95f",
        "compare-naive t=1":
            "eb4ceeb64dd00270db0d03ac396f1027fcfb4de913d2309dbebc5709b36537c3",
        "encode":
            "e84b21fab8bfd9ffa292827dea7f2f2b74423a1aa37942b7bacda1627857193a",
        "corrupt w1":
            "c8eddd29197da8c80bea1286a7457d4343d124aa66445cac287c0d4253be5d14",
        "download w1":
            "02eacf5b81a7a08b103126df6f06ac23bf222a05ffe1d8295c370b96ac31b3e7",
        "decode w1":
            "0f8734a20879b6f0ebe7895fcf607cc7886639919bcc7cec8d3a6dabde1655e6",
        "corrupt w2":
            "e12c72883dcb8e2a1696017ee2a5ea54449d57c4ad363f102fddbd644a0994cc",
        "download w2":
            "d9e1fd0594fc099721ec9afabad77b206f947e0a39fd67ce22609a847943d435",
        "decode w2":
            "b403df7683489906122d75c5db345130b81b1613d58048952e2fe35666d6d684",
        "corrupt last":
            "6d81d1885c25bc25036659e7a480e5ed953f920129c02af8385d620959bbf22a",
        "download last":
            "5b8e2b84202b33d5ddb915630c84d26cfa59b0b8c5c35ef036c77c3c12da2304",
        "decode last":
            "d980799b6a0c013d6e11d0aab4a5672182e8261b2778cea2f4c982a2d65eb5b7",
        "oracle collision":
            "f8ef0c63b67caed4f4789741e641bddd29f14e4f103663561518881dd4032b4c",
        "oracle collision short":
            "f8ef0c63b67caed4f4789741e641bddd29f14e4f103663561518881dd4032b4c",
        "oracle list":
            "507c776e4974175b224e5f525f6b8478027fed4fbf85418257da6ddf2a81e267",
        "oracle nearest":
            "39f84c54b51c7ef61530880b5be2bb6bed68ca8bd3a96ffd7f66826e7864b8ed",
        "oracle nearest omega":
            "b0f1fc8ed7cdbaf3925ea8d1e32a4adef10038c5d8eacb2c9ecb792eabe6459a",
    },
    "frs-p37-n8-k3": {
        "simulate":
            "e1ee7e014dc24bcb7d9c0d304ea8e67293dbc305f2f36d048720ce0ef1a6501e",
        "compare-naive t=0":
            "8d7d802f4eaafe40c2143f68cb8851c5e5974132a5f868919868f65ed8cbf6a4",
        "compare-naive t=1":
            "7034714552c99b6d62582e2e527b985229482e180adc0ef57aced5cab6a62301",
        "compare-naive t=2":
            "db1f551db156c4dcd2e323fc8a41a9d8831e476ac4a3db4d4492fe978b2da11d",
        "encode":
            "fb963fb036db122ad9ba2c2cebf3791b1e954a378ebf27df8b41c4593ac3773b",
        "corrupt w2":
            "f2c2e778fe33eff884a3cc7867f81cfd0bb8297fa75e4bb50a18feb552aaf21a",
        "download w2":
            "7d7aa2eaf14f271712feb3c0938baacf45728faa71e5ff8d5ecd4ca5d9ba04c8",
        "decode w2":
            "247f86fab0106ec1b7d16ca43cdb1db56fbdbdd420b8a66f1f4db89dcc129af1",
        "corrupt w3":
            "796ccfde3585d3c937d45079c5aae5e4479a7d5dadb9903493b6e25f3bf80454",
        "download w3":
            "3621e11b7cc9cb2ad67ed84dcf21da89dad589147ae05b1ecf74586723ef20c1",
        "decode w3":
            "2e3186a3d14d559f3a43cc140de36341c2ded87599f2cd6da9ece4bc08050f74",
        "corrupt last":
            "cafce089903f9f1ecc82f45d26e7bfed757453aab976259552e243f625f4a04d",
        "download last":
            "00a1d750a33c9999ae23bcc72a19e1299578d7fa200508964917ee0600758fb5",
        "decode last":
            "87cbbc211f9a238b37f8df286a83ecd2c0f72e9d57042e4f07113d8b790dc899",
    },
    "ts-q13-n12-k4": {
        "simulate":
            "39c997e1d5c03b7285dd321c3e1b9f4fb8555c4986ad782a02f8e422a4056f4f",
        "compare-naive t=0":
            "b77029f258d56a7051bd1e6870f59d948b9998cbda52062099054c1c3c37e636",
        "compare-naive t=1":
            "13f7010ce6883bcc3452d6d36f54574234e4d9059fc78b8229471fa77cc06959",
        "compare-naive t=2":
            "83ab68ff04355ef343aca9f69653108d4a91122e7d05dc7e2d5deb8c1903ec43",
        "encode":
            "5b7ca327af98e2cf73a3af58a99f63bbe46be6fb1f8d2485c9953d2968a7eb63",
        "corrupt w2":
            "0bc83135754babe57a6d03e4a44260763c9d65f3434320ea811aa287c200e715",
        "download w2":
            "51d8d7470723fb14c2a3296d7b67d44f9fb4ebaee04bcaac0897c3e958f2eb2b",
        "decode w2":
            "ef886c95117011121eb23c2e9ed14a29462994475de73b88e747b4716e360cad",
        "corrupt w3":
            "da93601f4a412a704a945f7fe541985459f3d8149e477e1872f9b2d5b1a2e360",
        "download w3":
            "3cb634df6bf62fdf01c3c10eb0e9a9ae149f3f216fbd2cce14930aaab5b89683",
        "decode w3":
            "2a7ab201abd54f33365069fdc7cb539af9c08f55f5092b14966e2a614711c2f4",
        "corrupt last":
            "6c16ce5c4fbd2a607088c6416fcb9b36167b96edfe36f2478d02d32881c4e5d2",
        "download last":
            "0c4533e54e40fec545aa36e20f114b763861ef6c84ed39284a8eeaea9bcdb369",
        "decode last":
            "ef886c95117011121eb23c2e9ed14a29462994475de73b88e747b4716e360cad",
    },
    "ts-q17-n10-k4": {
        "simulate":
            "adfb12aa39d11d990410bbe5acd7ce38c5bd65a166ef53a9c68dfcd17ac4b12c",
        "compare-naive t=0":
            "f7d7bee566497288f629009d9cf9aef7f90576674e59c9b9a62fe0dec0bb6d3c",
        "compare-naive t=1":
            "3a9703cbdbe8481a0dad08656b1ab7d476ed0b165d2e59a2ddb6daf1fe7e3881",
        "encode":
            "b1795b88ea940dcab24458b8551276b0f7f914bb5471da11fce6784d9df156f1",
        "corrupt w1":
            "503034a06da3d7a2f2e76294f096c41bddd72641d5455aba96c5c7baf41f5875",
        "download w1":
            "3d30fa96f4541f1a37f4fefb9a37d04dbb5c018807a6abc1d78a25db2a94f9f7",
        "decode w1":
            "d3beec01fc5a34622147d9f88ec761de0bcdcd42a823126e27c5721dad7f54c1",
        "corrupt w2":
            "e6a9eea5b2f6f0d0b52129ea84f187746492ea88cd77ed7791cf3f0da9cd6163",
        "download w2":
            "c7e1a0914c70db8fc157ad4cf9733d5064444d0a8d8752188a510e4611f0d785",
        "decode w2":
            "4216fb0275b5108e5a03287e3644abeb90bab6673f9dc879bbbe2d8a4e888341",
        "corrupt last":
            "6b0b3ec8350e4b6fd8b55046d37fd4685cc1985f67957d639926a2a13286660a",
        "download last":
            "c3e8a73b1fd20840148a3c7b612095c861823db94df6ad5a0758d8438ac5a162",
        "decode last":
            "271a649c8333c5b5357bbecb8c63350900f92a2f856a8f8724bacc255f332279",
    },
    "ts-q5-n4-k2": {
        "simulate":
            "71ba242f96cbd262efbe64f7a34b08bf47ea869924d6fcad07fdb4f4ea691569",
        "compare-naive t=0":
            "26e95c6d6e6a20bba367ea9edf34fa846dec55775300e35239321ac82955ad05",
        "compare-naive t=1":
            "f3e2acea7afc29d4b5c5f61caa6bde07086d6a0a149f3e54e05696211496eb8e",
        "encode":
            "13ca6a936f8eb4bef2b18b7d381a1cb57a6fb9e5062e6dcf4166d64d69007dc6",
        "corrupt w1":
            "4638ea538cc3383a8a89aaed087f47f44b1e6f1b103b658dcff94912f0a488c2",
        "download w1":
            "6271bdc4cf9786c52406e58237b8f61eeb8fd0229f9b65ed68f1f259c7bac3c3",
        "decode w1":
            "1daf206a66358f79c89c791ce3b87b1f995a4043b7a8ddc324c0ca98a36e8be1",
        "corrupt w2":
            "838ff58321013a6dd98934eee44c9d42c728c0abc2817099016f73eedb25636c",
        "download w2":
            "9d707b1b5df33041d39769c625b1f9d59496ce9e91913753013913cfbedb3d2d",
        "decode w2":
            "b403df7683489906122d75c5db345130b81b1613d58048952e2fe35666d6d684",
        "corrupt last":
            "48776f2d26bc266f4eab0523c55196a56b57a9b6c693955cecd76d513f61c375",
        "download last":
            "e57080cce40c709a9d1e2e846a8c985c436f97e8da01476dfe43d6131be01cf1",
        "decode last":
            "da25155fdcb50e5a9b446fe0ac473501a1c29f6288a95c0d7c98bb14df758b6c",
        "oracle collision":
            "f8ef0c63b67caed4f4789741e641bddd29f14e4f103663561518881dd4032b4c",
        "oracle collision short":
            "e9f21b2ecb6d00b9b6052f0dd34a6a7c79895aefac4adb0323f058b05e649ec1",
        "oracle list":
            "e27dc1587e72597fde7c191778b594bcaf9e53f402abde7fc53596fddb13b407",
        "oracle nearest":
            "39f84c54b51c7ef61530880b5be2bb6bed68ca8bd3a96ffd7f66826e7864b8ed",
        "oracle nearest omega":
            "b0f1fc8ed7cdbaf3925ea8d1e32a4adef10038c5d8eacb2c9ecb792eabe6459a",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FRACDEC_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_digests(name, tmp_path, capsys) == GOLDEN[name]
