"""Output of the single-cell commands ``run``, ``check`` and ``trace``,
pinned byte for byte.

Each configuration runs ``main(argv)`` twice, as text and with
``--json``, in a fresh working directory with relative output paths and
a constant trace ID.  The SHA-256 of what one invocation produced is
pinned: its exit code, stdout, stderr, the exception that escaped
``main`` (type and message), and the bytes of every file it wrote (the
Chrome trace, the span NDJSON, the ``--save-trace`` JSONL, the
``check --output`` report).  The pinned exit code is the text form's;
the JSON form must exit the same way.  The digests do not depend on
``PYTHONHASHSEED``.

The four ``ci-*`` trace configurations must also keep the span-sum ==
engine-awake identity and write a valid Chrome trace.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace

TRACE_ID = "0123456789abcdef"

#: name -> argv without ``--json``.
CONFIGS = {
    "run-randomized": ["run", "--graph", "ring", "--n", "16", "--seed", "1"],
    "run-deterministic": [
        "run", "--algorithm", "deterministic", "--graph", "gnp", "--n", "16",
        "--seed", "1",
    ],
    "run-logstar": [
        "run", "--algorithm", "logstar", "--graph", "path", "--n", "10",
        "--id-range", "40",
    ],
    "run-traditional": [
        "run", "--algorithm", "traditional", "--graph", "gnp", "--n", "12",
        "--seed", "1",
    ],
    "run-mis-monitored": [
        "run", "--problem", "mis", "--monitors", "all", "--graph", "gnp",
        "--n", "16", "--seed", "1",
    ],
    "run-mis-alias": [
        "run", "--algorithm", "mis", "--graph", "gnp", "--n", "16", "--seed", "1",
    ],
    "run-array": [
        "run", "--engine", "array", "--graph", "grid", "--n", "64", "--seed", "1",
    ],
    "run-dup-monitored": [
        "run", "--faults", "dup:0.2", "--monitors", "all", "--graph", "gnp",
        "--n", "16", "--seed", "1",
    ],
    "run-crash": [
        "run", "--faults", "crash:2@10", "--graph", "gnp", "--n", "16",
        "--seed", "1",
    ],
    "run-drop-monitored": [
        "run", "--faults", "drop:0.02", "--monitors", "all", "--graph", "gnp",
        "--n", "24", "--seed", "3",
    ],
    "run-mis-crash": [
        "run", "--problem", "mis", "--faults", "crash:2@10", "--graph", "gnp",
        "--n", "16", "--seed", "1",
    ],
    "run-mis-alias-crash": [
        "run", "--algorithm", "mis", "--faults", "crash:2@10", "--graph", "gnp",
        "--n", "16", "--seed", "1",
    ],
    "run-save-trace": [
        "run", "--graph", "ring", "--n", "8", "--seed", "1",
        "--save-trace", "run.jsonl",
    ],
    "run-fixed-randomized": [
        "run", "--termination", "fixed", "--graph", "gnp", "--n", "16",
        "--seed", "1",
    ],
    "run-fixed-deterministic": [
        "run", "--algorithm", "deterministic", "--termination", "fixed",
        "--graph", "gnp", "--n", "16", "--seed", "1",
    ],
    "run-fixed-traditional": [
        "run", "--algorithm", "traditional", "--termination", "fixed",
        "--graph", "gnp", "--n", "12", "--seed", "1",
    ],
    "check-perfect": ["check", "--graph", "gnp", "--n", "16", "--seed", "1"],
    "check-drop": [
        "check", "--faults", "drop:0.02", "--graph", "gnp", "--n", "24",
        "--seed", "3",
    ],
    "check-mis": [
        "check", "--problem", "mis", "--graph", "gnp", "--n", "16", "--seed", "1",
    ],
    "check-output": [
        "check", "--graph", "ring", "--n", "12", "--seed", "2",
        "--output", "report.json",
    ],
    "check-crash": [
        "check", "--faults", "crash:2@10", "--graph", "gnp", "--n", "16",
        "--seed", "1",
    ],
    "ci-trace-ring": [
        "trace", "--algorithm", "randomized", "--graph", "ring", "--n", "32",
        "--seed", "1", "--output", "trace.json", "--ndjson", "spans.ndjson",
    ],
    "ci-trace-deterministic": [
        "trace", "--algorithm", "deterministic", "--graph", "gnp", "--n", "24",
        "--seed", "1", "--output", "trace.json",
    ],
    "ci-trace-mis": [
        "trace", "--problem", "mis", "--graph", "gnp", "--n", "32", "--seed", "1",
        "--output", "trace.json",
    ],
    "ci-trace-dup": [
        "trace", "--algorithm", "randomized", "--graph", "gnp", "--n", "24",
        "--faults", "dup:0.1", "--seed", "1", "--output", "trace.json",
    ],
    "trace-crash": [
        "trace", "--faults", "crash:2@10", "--graph", "gnp", "--n", "16",
        "--seed", "1",
    ],
    "trace-mis-alias-crash": [
        "trace", "--algorithm", "mis", "--faults", "crash:2@10", "--graph",
        "gnp", "--n", "16", "--seed", "1",
    ],
    "trace-traditional": [
        "trace", "--algorithm", "traditional", "--graph", "ring", "--n", "8",
        "--seed", "1",
    ],
    "error-faults": ["run", "--faults", "bogus:1", "--n", "8"],
    "error-monitors": ["run", "--monitors", "no-such-monitor", "--n", "8"],
    "error-check-off": ["check", "--monitors", "off", "--n", "8"],
    "error-mis-array": ["run", "--problem", "mis", "--engine", "array", "--n", "8"],
    "error-traditional-array": [
        "run", "--algorithm", "traditional", "--engine", "array", "--n", "8",
    ],
}

#: name -> (exit code or escaped exception type, text digest, json digest).
PINNED = {
    "check-crash": (
        0,
        "b9c8184b8e18093ccb03434162fe7d1f7b44adb6e6eef871b7b1a4522745a672",
        "845b9072f5872c443ed7defa3f3437dc8a5c5e677fa8da2ae574c4c2e0d28865",
    ),
    "check-drop": (
        0,
        "e72a8dcc5eabac8ee030393742d63d7b319b8b574f196f2971375b4654ff2da6",
        "eea5e06e6734c7189b7945d961481319752d33f437b6da0045bcaa6cb7d487fd",
    ),
    "check-mis": (
        0,
        "52e3c5b9f819a1fe38706823ff9536a52ff7352667d9da2f2c2582624fe4771a",
        "37fbab06c64ec40ecc968afafbd4e0363c3c959b7303bb1e4e5e0c1aaa585830",
    ),
    "check-output": (
        0,
        "47e028e18831f42a3e75d0bf2920969a90239ce3893289444f622f01afbb9d1f",
        "8e7bca29b7d6d692d89050d24f8aaa1fee1b0fbbfe11824d3d1bd51bb1217aec",
    ),
    "check-perfect": (
        0,
        "af09cd52dba0aeaf09911216c1af2749433c9b473f78ad491cd07a63e6a1bd65",
        "0721e6409c52a93df93a66f1be1d47957175e2b26d1fe58dfa917729b8761cac",
    ),
    "ci-trace-deterministic": (
        0,
        "7fde34e3e7c0f1a279fcb39086535b3c340b3af14a862d4993025291f228a6a5",
        "559f9758559c8d5814902c73b30d70c8dd539f9a6e54f04d23c9a8daa15f568f",
    ),
    "ci-trace-dup": (
        0,
        "da84085d090f28edac040ce7b1cce31bdaa837bbe15325f2a3885a8e0c18dc8e",
        "e6337f44cfdeb92536027019eadd020fc217b6c9386098db8a09261e4a64ebfd",
    ),
    "ci-trace-mis": (
        0,
        "eff12c8d7bdb917c0c05f424eb093223acf9ee81167e8d24e0bd566f088fdd51",
        "db5e451238e160b4f5c369925ecc04e21beba9ea2ee9a9b252e8aa08ba1e5a26",
    ),
    "ci-trace-ring": (
        0,
        "b7536573a6f40feae99b86d8d32398414d8fb2620e49e38fec5a8175b9987f8b",
        "a637da26bb00974b08abc971e84376bacf190cfd977bc514a31845def6231036",
    ),
    "error-check-off": (
        2,
        "a05481017f7bf818b8ba87d91855ef94e8d81f7bffd191e76fa4f793fb2f1942",
        "a05481017f7bf818b8ba87d91855ef94e8d81f7bffd191e76fa4f793fb2f1942",
    ),
    "error-faults": (
        2,
        "08b18d024c54785846d7437a8ecd18338bf7b759f666abde01fc16fc0ee63383",
        "08b18d024c54785846d7437a8ecd18338bf7b759f666abde01fc16fc0ee63383",
    ),
    "error-mis-array": (
        2,
        "e58ad1af5a2862fca660e5461ac0ce91ca96ac0e28ce40c4eb49af8c475e4c4f",
        "e58ad1af5a2862fca660e5461ac0ce91ca96ac0e28ce40c4eb49af8c475e4c4f",
    ),
    "error-monitors": (
        2,
        "69f894cc5cb4476210b47f1526f08c3cad4a15fb96dcc4b246bc2e2bb2fef5ce",
        "69f894cc5cb4476210b47f1526f08c3cad4a15fb96dcc4b246bc2e2bb2fef5ce",
    ),
    "error-traditional-array": (
        2,
        "1657b2a921cbc7ac136fe389277b38abd36b871bfab3f519df9047955a618286",
        "1657b2a921cbc7ac136fe389277b38abd36b871bfab3f519df9047955a618286",
    ),
    "run-array": (
        0,
        "8a25a34c62b2cf5e00459eb77618a1497917d6ebb2b874c04a8d2a38f23deff0",
        "0cae4804a11673ca684e6ce9dc59106fb9480c65f0782085f0f07894e558bedb",
    ),
    "run-crash": (
        1,
        "fb829048b35e643f8739019597fd9e8f7494df91207e2bed0d9758b97aed9bab",
        "447b7c6236589bee289c9cffe3520a26ba7b78a750dfe7a032ac65e868107b5b",
    ),
    "run-deterministic": (
        0,
        "46719cef2eaf1b2ee42624281d8e1818d4310c0e31058dea5edcd36576c371bc",
        "ee9db8b13b7236ed9978739a5b1facea2293dbcd62bb9da3fa205dd9d4d145e4",
    ),
    "run-drop-monitored": (
        1,
        "3126d8341c8c57e4269293e9c379f92afcfeb8ee5dfd8800da899343f7720cb4",
        "cd296448ad5dbca4f6eb25dc5e816c7b84389747409d3c43a709f3e951670351",
    ),
    "run-dup-monitored": (
        0,
        "5b1452f63c6bcb82a681ae8ba7ccb557623ac20967573251bb4e9e3caa7aa5a9",
        "52364c554b01980f6a887c12005fedc36cdc202d729dea73b3b46f46fba3e240",
    ),
    "run-fixed-deterministic": (
        2,
        "7abf7f356603abb3e9512fd35b622183194abb47ef423e5d7ca0a5f59651e35e",
        "7abf7f356603abb3e9512fd35b622183194abb47ef423e5d7ca0a5f59651e35e",
    ),
    "run-fixed-randomized": (
        0,
        "dd6f9db4ba2dabfb435200be14771d0feae8f213d7f33691a2eef000ed9bf3b3",
        "4b66a79be9f4e4fc83cd8b2b94fef8c7338938f5bd6fa7798f618dc8765d4997",
    ),
    "run-fixed-traditional": (
        0,
        "c51d89cc302d5acf0ab38131f1c30e1100e41956d87466ae2fc64b7ce0191539",
        "dbd560536922d75e70a71f747dade4da6fd9d68668ba0b79ef0dc6d410266718",
    ),
    "run-logstar": (
        0,
        "66201538aa10514389e790011771a0ed685dd6beb734880e0ab317b507638156",
        "cfd87facdeaa824eeb310942731b8a2453b6280ff5ec309311ef00886455850e",
    ),
    "run-mis-alias": (
        0,
        "94b8054a19ebefd673719d7d0a70e6d25053380581bf1a559512e59572925be0",
        "3b4ca7e3177d816043c98011756b8dfda9dee36cfd15e41eff96f57a58208b98",
    ),
    "run-mis-alias-crash": (
        1,
        "2c660b8945a2ee8225799008250eb62138302195a52d18c6617546ed74250305",
        "820f3c779c51073e16c2a73e791f8b70fcd4c37415ff1cf4f745af9544c55601",
    ),
    "run-mis-crash": (
        1,
        "2c660b8945a2ee8225799008250eb62138302195a52d18c6617546ed74250305",
        "820f3c779c51073e16c2a73e791f8b70fcd4c37415ff1cf4f745af9544c55601",
    ),
    "run-mis-monitored": (
        0,
        "afc8f5c2709a172b27479845dc81afc0dcab2e54e430d7c6b43326636696c2fe",
        "060be75cfd0904569a843f1b9382337470d3756aad4da2635bd71e380d99c6bd",
    ),
    "run-randomized": (
        0,
        "a82267b900a76e8ac5090e26d2efbc42d7b7a584c9aa6c7ad933daf6cc1e6912",
        "3ac60f1eef1f71475c69a9c7a7e4e9f18c79c59366f619fdfa530714da20152c",
    ),
    "run-save-trace": (
        0,
        "7c3e563dbd399ad57becf3991cf2c51fea219c29c4fd5f8ac2093d581db321c1",
        "3a01de62a155465f8e95f0637c5d73d553e399e81f39ea50be4edf800e7ea7d6",
    ),
    "run-traditional": (
        0,
        "8646d9ce897b5d69e587089d8e9b9c2979297e57d86f8fd8a0b8a7836c647314",
        "24324ec86eaa6ae99f20251d92d9426945fcaac23a6d04bed1a13fd46f19bae9",
    ),
    "trace-crash": (
        1,
        "55caf4d00295ad9a1789d3b47064020aad6a54664176a24012940bcca6027397",
        "d9c81dcca7a2e92d669a7b51a1195ca6d98736e4f5d514dcee608c5ef488806f",
    ),
    "trace-mis-alias-crash": (
        1,
        "33c641a6c83403f6e6d163001fceb5e7573cd6735c143fd478f96c076bef788d",
        "f0513e7b7affd2103a1f4eec208ca23c9cab4c4692cb545f573e91d0438086dd",
    ),
    "trace-traditional": (
        0,
        "6df4f69c1331ecb64d3dca5e555be0701d52c681168f057529ca87a2c3115be6",
        "f04b4a3099f1f46ffdbebf26753167af28476b5e89719a0e955ead03b034f05e",
    ),
}


def invoke(argv, workdir, capsys, monkeypatch):
    """Run ``main(argv)`` in ``workdir``; return everything it produced."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setattr("repro.telemetry.logs.new_trace_id", lambda: TRACE_ID)
    capsys.readouterr()
    raised = None
    try:
        code = main(argv)
    except SystemExit as error:
        code = error.code
    except Exception as error:  # noqa: BLE001 - an escaped error is output too
        code = type(error).__name__
        raised = str(error)
    captured = capsys.readouterr()
    files = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    return {
        "exit": code,
        "raised": raised,
        "stdout": captured.out,
        "stderr": captured.err,
        "files": files,
    }


def digest(outcome) -> str:
    text = json.dumps(outcome, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_output_pinned(name, tmp_path, capsys, monkeypatch):
    argv = CONFIGS[name]
    text = invoke(argv, tmp_path / "text", capsys, monkeypatch)
    as_json = invoke(argv + ["--json"], tmp_path / "json", capsys, monkeypatch)
    assert as_json["exit"] == text["exit"]
    assert (text["exit"], digest(text), digest(as_json)) == PINNED[name]


@pytest.mark.parametrize(
    "name", sorted(name for name in CONFIGS if name.startswith("ci-"))
)
def test_ci_trace_identity_and_chrome_trace(name, tmp_path, capsys, monkeypatch):
    outcome = invoke(CONFIGS[name] + ["--json"], tmp_path / "run", capsys, monkeypatch)
    assert outcome["exit"] == 0
    payload = json.loads(outcome["stdout"])
    assert payload["identity_ok"] is True
    with open(tmp_path / "run" / "trace.json", encoding="utf-8") as handle:
        assert validate_chrome_trace(json.load(handle)) == payload["events"]
