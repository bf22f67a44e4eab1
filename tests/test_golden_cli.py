"""Golden digests of CLI outputs on a small scenario x policy matrix.

Every run below writes its ``--out`` (and ``--summary``) file; the test
compares the sha256 of each file and of the run's ``details`` JSON with
digests recorded before the scenario runners were merged into one
competition driver.  Rerun checks (acceptance 11) only show that a build
agrees with itself; these pin the bytes across refactors.

The digests depend on NumPy's ``Generator`` streams (PCG64 and the
samplers the package draws from), exactly like ``perfbench``'s
``DIGESTS``: a NumPy release that changes a stream changes them, and
they must then be re-recorded from a trusted build.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from whentopost.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "replay_small"

HAWKES = ["simulate", "--scenario", "one-follower-hawkes", "--seeds", "0-2", "--feed-events", "60"]
SINUSOID = [
    "simulate", "--scenario", "multi-follower-sinusoid", "--seeds", "0-2",
    "--followers", "3", "--horizon", "43200",
]
ALL_REPLAY = ["--policy", "redqueen", "--policy", "uniform", "--policy", "segment-offline",
              "--policy", "true-posts"]

#: run name -> (argv without --out/--summary, writes a summary)
RUNS = {
    "hawkes-sweep": (HAWKES + [
        "--policy", "redqueen", "--policy", "oracle", "--policy", "uniform",
        "--policy", "segment-offline", "--budget", "3,6",
    ], False),
    "hawkes-q": (HAWKES + ["--policy", "oracle", "--policy", "segment-offline", "--q", "2.0"], False),
    "sinusoid": (SINUSOID + [
        "--policy", "redqueen", "--policy", "uniform", "--policy", "segment-offline",
        "--budget", "4",
    ], False),
    # a horizon that is not a whole number of hours: the rate's last hour is cut short
    "sinusoid-partial-hour": (SINUSOID[:-1] + [
        "5400", "--policy", "redqueen", "--policy", "segment-offline", "--budget", "2",
    ], False),
    "replay": (["replay", "--seeds", "0-2", *ALL_REPLAY], True),
    "replay-weekday-hour": (["replay", "--seeds", "0-1", "--significance", "weekday-hour",
                             "--policy", "redqueen", "--policy", "true-posts"], False),
    "replay-q-initial-rank": (["replay", "--seeds", "0-1", "--q", "50.0", "--initial-rank", "2",
                               *ALL_REPLAY], False),
    "replay-true-posts-only": (["replay", "--seeds", "0", "--policy", "true-posts"], False),
    "replay-one-follower-oracle": (["replay", "--seeds", "0-1", "--policy", "oracle",
                                    "--policy", "redqueen", "--policy", "true-posts"], True),
    "tune-q-hawkes": (["tune-q", "--scenario", "one-follower-hawkes", "--target", "5",
                       "--seeds", "0-3", "--feed-events", "60"], False),
    "tune-q-sinusoid": (["tune-q", "--scenario", "multi-follower-sinusoid", "--target", "5",
                         "--seeds", "0-2", "--followers", "2", "--horizon", "43200"], False),
}

GOLDEN = {
    "hawkes-sweep/out": "10325804abac2720cb0018089a9d87cccb27eb02d970f9c272ff9475421e2d7a",
    "hawkes-sweep/details": "7cb1aca6ae2453e5070579719a7de25b26c0520d1348bd8cd92a4f21fd16769a",
    "hawkes-q/out": "28febb88038db996d9213fe1499523e1a683a1410f0b8a271ae2c88226c2f7b7",
    "hawkes-q/details": "1aac1400570a7ffd3ce02e6b1e431b7a3b7da143d3ba0ca69e0487cd7333c4dd",
    "sinusoid/out": "72e0e3de847d25d2bbdcb62ea26f84c9b99848cfcf7d5fe8b25a6f6f42ff13ab",
    "sinusoid/details": "983478e2b9ef8f1b2b4e44f7395874fd1bc29e976985e20d480aaff3152449e1",
    "sinusoid-partial-hour/out": "7d73ff3b5ca79ff5b9b6a87136a3669692817754c5f2cd711b949c1edcc2f958",
    "sinusoid-partial-hour/details": "bf723d4b8a0d97bd50d5835ec560d6a10d5f9eeac4d1cae30cde5cd0c492c30a",
    "replay/out": "fbf69f7ef1ef6842b0daa8861371064b23b6c633906237ac445f2a385f4c613d",
    "replay/details": "7e4b0cdfcc90945f27e83ada4c3ea7d7d7b4484d58fff8e598974e6b16c0e994",
    "replay/summary": "652667ceda04da882209f76bc637d31d10b29dac16dc7a5d766e216241fd3c9c",
    "replay-weekday-hour/out": "38aa65e20ad3780594f74eb5198faa49f48b77045a99dd09ab9df60c5e5ac1cd",
    "replay-weekday-hour/details": "a41cf61d3dd1cac0f359381e30220e66462788989677a327b58d57870efd425d",
    "replay-q-initial-rank/out": "0749b2d2fad829b51815505e72885f787c2963229603cea89a1b0e37d6527d35",
    "replay-q-initial-rank/details": "3ba683406cbca7a8d6641db2fc577f137d2e21933c4a982f8fd4446d4983a729",
    "replay-true-posts-only/out": "5c0296610fc010f3aa2706fc23e66f558ec4491bd41c052c674728c5b9e385b2",
    "replay-true-posts-only/details": "34cf4c154b6b6144a8f5766e4773e114974b43f510a3811a51cc8c25c6df5c19",
    "replay-one-follower-oracle/out": "1e08f4e95da84fd857c0b6a51183f98f4528209407845fe558d815928f7017f7",
    "replay-one-follower-oracle/details": "af2392af4c44a0f0fc7461d264882832af8db3e94225e9c192ea6606f14b02aa",
    "replay-one-follower-oracle/summary": "0ceae21bd3c24cefe9300d7a3fc3e366553cf3a6dc9b55c1da3fb125bbc52e3d",
    "tune-q-hawkes": "9985b61142e415c977f0f79139591bdfc53bcf071d5c6df10b817cb5b18b8981",
    "tune-q-sinusoid": "0053283a0a2911497c2fb76544a6f56f7b8f6dd0d8d641b7fd602e14dc90660f",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def one_follower_manifest(tmp_path: Path) -> Path:
    """The fixture window with ``bob`` as the broadcaster's only follower."""
    for name in ("events.jsonl", "manifest.txt"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    (tmp_path / "network.csv").write_text("alice,bob\nwire,bob\nlocal1,bob\n", encoding="utf-8")
    return tmp_path / "manifest.txt"


def run_digests(tmp_path: Path) -> dict:
    """sha256 of every output file and details payload in the matrix."""
    solo = tmp_path / "solo"
    solo.mkdir()
    manifests = {"replay-one-follower-oracle": one_follower_manifest(solo)}
    digests = {}
    for name, (argv, with_summary) in RUNS.items():
        argv = list(argv)
        if argv[0] == "replay":
            argv += ["--manifest", str(manifests.get(name, FIXTURE / "manifest.txt"))]
        out = tmp_path / f"{name}.csv"
        summary = tmp_path / f"{name}-summary.csv"
        if argv[0] != "tune-q":
            argv += ["--out", str(out)]
        if with_summary:
            argv += ["--summary", str(summary)]
        result = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == 0, (name, result.output, result.stderr)
        status = json.loads(result.stdout)
        if argv[0] == "tune-q":
            digests[name] = _sha(result.stdout.encode())
            continue
        digests[f"{name}/out"] = _sha(out.read_bytes())
        digests[f"{name}/details"] = _sha(json.dumps(status["details"], sort_keys=True).encode())
        if with_summary:
            digests[f"{name}/summary"] = _sha(summary.read_bytes())
    return digests


# the fixture's followers never post, so their weekday-hour profiles fall
# back to flat ones (with a warning); the run still goes through the
# significance schedule
@pytest.mark.filterwarnings("ignore:empty activity log:UserWarning")
def test_cli_outputs_match_golden_digests(tmp_path):
    assert run_digests(tmp_path) == GOLDEN
