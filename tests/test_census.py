"""Golden-output census: CLI commands whose output bytes are pinned.

Each entry is an argv list, the exit code, and the sha256 of every file the
command writes except `manifest.json`, which records times and versions.
Each command writes into a fresh directory named after its entry (a render
writes `heatmap.svg` there), and all run in one fresh working directory, in
order, so a render reads an earlier sweep's output.

Only `run`, `sweep`, `render` and the error exits are here: their bytes are
the same under every BLAS kernel and numpy SIMD cap, while `calibrate` and
`analyze` write per-kernel low bits.

A change that moves output bytes on purpose re-pins the table from

    PYTHONPATH=src python tests/test_census.py

which runs every command and prints each digest that differs, old -> new.
"""
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from qwalk.cli import main

DISORDER = 'static_disorder_mhz={"U00Q0": 0.7, "U11Q1": -0.4}'
MZ_DISORDER = 'static_disorder_mhz={"U12Q0": 0.3, "U33Q1": -0.5}'

# name -> (argv without --out, exit code, {output file: sha256})
CENSUS = {
    "run-ctqw-two": (
        ["run", "--scenario", "ctqw-two", "--override", "n_shots=20000", "--seed", "7"],
        0,
        {
            "populations.csv": "9b4c3353320d54fc11a8486d42cce390dfdf9143069b0668e234fadf2ec05fa1",
            "records.jsonl": "b95add2b8c2e9fce838d20829bbe3fd7953cb756c75b025f9c35d0e21084f0c3",
            "shots.txt": "599db600d40f97d87046743c33f1db137bd02cf2fef4a25973a30e15c46095f1",
            "snapshot.svg": "0c90db757ccf0c544d112840974c2fd284d5022c27a6f1f8a92f1076d559eb36",
        },
    ),
    "run-ctqw-two-disorder": (
        ["run", "--scenario", "ctqw-two", "--override", DISORDER],
        0,
        {
            "populations.csv": "7d3d043a1e10dce561578f5c2263922ef5656d18685140fba67d95ac10cfc546",
            "records.jsonl": "99328907e8033e7acf0213d8049d85aa6c98f1efa862204e9b280db093605687",
            "snapshot.svg": "9334a213890c19be85be31d545b5f84cc6718b80a58be746fd95ec4595b95ca4",
        },
    ),
    "run-ctqw-single": (
        ["run", "--scenario", "ctqw-single", "--override", "n_shots=2000"],
        0,
        {
            "populations.csv": "290b9b4166903bd527a0ea74cc79ad0c61aa474383b4c45992a01cc7e4695928",
            "records.jsonl": "7c9f6ec74442dfdfd67a7ed38c183751a32201cb19c1f028ef64c62317d68937",
            "shots.txt": "ffaead82acde6391b9453affa5f4fcf9a71eb9e41b473334f63472c6251ebd27",
            "snapshot.svg": "ca514de15824c9dd95e47e3cb24c4c7fa441a59ad794ef2a881bf70029a311c9",
        },
    ),
    "run-mz-single": (
        ["run", "--scenario", "mz-single"],
        0,
        {
            "populations.csv": "14ea5b13bbd44c21281acaac3a1e1b84a5f8a9e4ff14dde7a237a6d2692117cf",
            "records.jsonl": "d1b5f693235ca4ff71707377ad9aafd31855ee8294565f92986ac69d179d07eb",
            "snapshot.svg": "18565ffb4433ff9b0391a523d756c6d6afdcb1f5ddb319fe63f5427c1dfa9ea2",
        },
    ),
    "run-mz-two": (
        ["run", "--scenario", "mz-two", "--override", "n_shots=5000"],
        0,
        {
            "populations.csv": "17bf631504f9e85b1fb679628e78f6f94fce33f02a9189f0609b2ff44e5ab339",
            "records.jsonl": "b7e5d487dd7ff32c7acfab6d20738238663999ab355a69cecb486d81c25f2273",
            "shots.txt": "c57692b8bc5ef92018e62f751ace26e1fd43bd900bd15cc7f6e933755f8d3fc9",
            "snapshot.svg": "c20432cae93a4a2fec8a643de1e5aae531e092047bca88f63633764c4b6c68bb",
        },
    ),
    "run-mz-blocked": (
        ["run", "--scenario", "mz-blocked"],
        0,
        {
            "populations.csv": "f5c6f2bee7d6dd998f8ba1fde278982a6affcc5d28b87b4b31eafe4d3d6306d7",
            "records.jsonl": "80ccf2d1986fececce46a315d6c1b9564dd0d87847a5e5066df77d0afbebeb7f",
            "snapshot.svg": "43dbebfe5c06bd50b36c0e993be66c066058b2c7423a5949e3c290138032f873",
        },
    ),
    "run-mz-removed": (
        ["run", "--scenario", "mz-removed"],
        0,
        {
            "populations.csv": "18b32d92605204731b71fce0d4a082313e5949ffdcede31f00b8f56253a2a60a",
            "records.jsonl": "269e6bd834ee323aa628ca9272fdc97368ab0dcd770fc514235460c99b9b9c46",
            "snapshot.svg": "1ac02ac593eafae2134230144634402a7a96e47835d5e50175ff31d346f41951",
        },
    ),
    "sweep-mz-two": (
        ["sweep", "--scenario", "mz-two"],
        0,
        {
            "fringe.csv": "b310d279b752c47e23108fe0d1ecfe2003bc39412c94a63639dd21c64b913fce",
            "fringe.svg": "c0a2c2b5b3c58f7c9c99fe87d01c13717bf462db9d86a384671c3428fb5f4656",
            "records.jsonl": "69e4123ff1f2a2e2638ba7e23163c5dea10daaaa909ff9cd5442c98bc058f178",
        },
    ),
    "sweep-mz-single": (
        ["sweep", "--scenario", "mz-single", "--d-left", "0:2:5", "--d-right=-1:1:4"],
        0,
        {
            "fringe.csv": "c703afc826c776aa6dd7f7431bfe1e550c40a5dfd581c197fb385a0e9eff8aa3",
            "fringe.svg": "e309dbadcde8671749fc4667db2465af9df9b8d08c75b6660dd5e04a015a3908",
            "records.jsonl": "6360ebbc2449d1a01aa693bb9554d1884ffe11d113193899618a6671f0d13d64",
        },
    ),
    "sweep-mz-two-disorder": (
        ["sweep", "--scenario", "mz-two", "--d-left", "1:-1:3", "--d-right=0:-0.5:2", "--time", "300", "--override", MZ_DISORDER],
        0,
        {
            "fringe.csv": "ca668081a3d60798518f29a26f64e323ea2831e584a1af834a7dbc70ba5765b9",
            "fringe.svg": "7f183b0168ea2561533f654ba5217dade9247ad4276ff0c74d2e9edcf178113d",
            "records.jsonl": "804e67d7f328c9fee819b59de11ce36f91fcc920b9858b0a67c391b094853ec6",
        },
    ),
    "sweep-mz-blocked": (
        ["sweep", "--scenario", "mz-blocked", "--d-left", "0:1:3", "--d-right", "0:1:3", "--time", "400"],
        0,
        {
            "fringe.csv": "db099bcba86ab76cf689d32736db24b9440cb7f3e54f735e9431f0c4fa3c8cb8",
            "fringe.svg": "43a9d473dfa6dd13f40cc4138147a56396f3c873274e3120f73d1e78e84b2aca",
            "records.jsonl": "862e46c70f0c190fd6c8a8ff4659c362d8c799fee1d396046b764f7447c5a0f4",
        },
    ),
    "render-mz-two": (
        ["render", "--input", "sweep-mz-two/fringe.csv", "--title", "mz-two <fringe>", "--vmin", "0", "--vmax", "1"],
        0,
        {
            "heatmap.svg": "d1da13d133dd2ac55bf00aed63de1ebd7e6bbe197fb6bc678f177f8c6f6f9d92",
        },
    ),
    "error-render-not-a-grid": (
        ["render", "--input", "sweep-mz-two/records.jsonl"],
        1,
        {},
    ),
    "error-run-no-shots": (
        ["run", "--scenario", "ctqw-single", "--override", "n_shots=0"],
        1,
        {
            "error.json": "07d24a06d883a79be44d1d2146ecad8c272516bfa9b4d9b30f4dc838fb090a24",
        },
    ),
    "error-sweep-empty-axis": (
        ["sweep", "--scenario", "mz-single", "--d-left", "0:1:0"],
        1,
        {
            "error.json": "b4cd5501519154c376c0ad7994d4471bb2bb7d467736d3ae77453f2912c2e104",
        },
    ),
}


def measure() -> dict:
    """Per census entry, the exit code and the sha256 of each output file
    but `manifest.json`."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            found = {}
            for name, (argv, _, _) in CENSUS.items():
                Path(name).mkdir()
                code = main([*argv, "--out", f"{name}/heatmap.svg" if argv[0] == "render" else name])
                files = sorted(p for p in Path(name).rglob("*") if p.is_file() and p.name != "manifest.json")
                found[name] = (code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files})
            return found
        finally:
            os.chdir(cwd)


def test_cli_outputs_match_the_census():
    assert measure() == {name: (code, digests) for name, (_, code, digests) in CENSUS.items()}


if __name__ == "__main__":
    changed = False
    for name, (code, digests) in measure().items():
        _, old_code, old = CENSUS[name]
        if code != old_code:
            changed = True
            print(f"{name}: exit {old_code} -> {code}")
        for file in sorted(old.keys() | digests.keys()):
            if old.get(file) != digests.get(file):
                changed = True
                print(f"{name}/{file}: {old.get(file)} -> {digests.get(file)}")
    sys.exit(1 if changed else 0)
