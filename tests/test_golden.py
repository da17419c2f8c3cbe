"""Byte-identity of the karate, mixed-label and oracle outputs, pinned as sha256 digests.

The all-seeds report is hashed without --trajectories (that option writes
its directory into the report); the trajectory CSVs are hashed as one
stream of (file name, contents) in file-name order. `hierarchy` is hashed
on both outputs, the pairs JSON and the DOT DAG. A change to these
digests is a change of output, not a refactoring.

Karate labels are all numeric. The mixed-label graph mixes numbers and
words so that first-appearance order, label order (numbers numerically,
then words) and plain string order all differ; its communities come in
equal-psi, equal-size pairs that only label order ranks.

The oracle digests pin `oracle --compare` output against a detect report:
on the weighted OSCILLATING graph (3 exact minima, all found) and on a
13-node random graph with 4 exact minima, one of which detect misses.
"""

import hashlib

import pytest

from conftest import OSCILLATING
from nodecut import cli

REPORT_SHA256 = {
    "det": "5472358aff557bc347634e13c4094fcd8808eb124a0ea7c33ea7654fb3db9219",
    "rng-1": "abe19a5eb8e4cb7a7b46e7a871195037e841a874a795928a8ae293ce114e5c61",
}
TRAJECTORIES_SHA256 = {
    "det": "21f439d7ce4c700cd3acf9d57134c8d918c42748c73b845877e87c2bb3005850",
    "rng-1": "2e763c80aeff927e7421fb72fc62da70469790a57d205882f434b3ffd2252036",
}
HIERARCHY_JSON_SHA256 = "c0f37a7f0b8ff9fa791babbda93de7d6b12a8746a869f9334601aa249000d191"
HIERARCHY_DOT_SHA256 = "d87ff48a6a084530a50c6327a0143fc932007cd482c4b215b883bff6c95f6b1d"

# 14 nodes, 24 weighted links: three four-node groups joined through 41, d, a, b
MIXED_EDGE_LIST = """\
10 9 2
10 100 1
10 b 1
9 100 1
9 b 1
100 b 2
b a 1
a x1 2
a 2 1
a 33 1
x1 2 1
x1 33 1
2 33 2
33 41 1
41 c 1
c y 2
c 7 1
c z2 1
y 7 1
y z2 1
7 z2 2
41 d 1
d 10 1
d y 1
"""
MIXED_REPORT_SHA256 = {
    "det": "8b0f256f10dc16237a4305495880c991d72c6540c8443aca655ce20f6e875b70",
    "rng-1": "c96dea665fa91bf73f249d63c4439963615ca019f3b4c2796b48e8d85140577d",
}
MIXED_HIERARCHY_JSON_SHA256 = "4f116d7d7402682b6803bbda7cebd2fad5a869e19cd3a1b8b917ac9c7508af6a"
MIXED_HIERARCHY_DOT_SHA256 = "26c3c462da600269c2e038f3d2c41cdf8d4d1998d1ebcde4bfcbce1666f6728d"

POLICY_ARGS = {"det": [], "rng-1": ["--tie-break", "rng", "--rng-seed", "1"]}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _detect(tmp_path, policy, *extra):
    out = tmp_path / f"{policy}.json"
    args = ["detect", "--dataset", "karate", "--out", str(out), *POLICY_ARGS[policy], *extra]
    assert cli.main(args) == 0
    return out


@pytest.mark.parametrize("policy", sorted(POLICY_ARGS))
def test_karate_report_digest(tmp_path, policy):
    assert _sha256(_detect(tmp_path, policy).read_bytes()) == REPORT_SHA256[policy]


@pytest.mark.parametrize("policy", sorted(POLICY_ARGS))
def test_karate_trajectory_csv_digest(tmp_path, policy):
    traj = tmp_path / "traj"
    _detect(tmp_path, policy, "--trajectories", str(traj))
    files = sorted(traj.iterdir())
    assert len(files) == 78
    h = hashlib.sha256()
    for item in files:
        h.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    assert h.hexdigest() == TRAJECTORIES_SHA256[policy]


def test_karate_hierarchy_json_digest(tmp_path):
    report = _detect(tmp_path, "det", "--include-ground-state")
    pairs = tmp_path / "pairs.json"
    dot = tmp_path / "dag.dot"
    assert cli.main(["hierarchy", "--report", str(report), "--json", str(pairs), "--dot", str(dot)]) == 0
    assert _sha256(pairs.read_bytes()) == HIERARCHY_JSON_SHA256
    assert _sha256(dot.read_bytes()) == HIERARCHY_DOT_SHA256


def _detect_mixed(tmp_path, monkeypatch, policy, *extra):
    # the report records the input path as given, so run from tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed.edges").write_text(MIXED_EDGE_LIST)
    out = tmp_path / f"{policy}.json"
    args = ["detect", "mixed.edges", "--weighted", "--out", str(out), *POLICY_ARGS[policy], *extra]
    assert cli.main(args) == 0
    return out


@pytest.mark.parametrize("policy", sorted(POLICY_ARGS))
def test_mixed_label_report_digest(tmp_path, monkeypatch, policy):
    out = _detect_mixed(tmp_path, monkeypatch, policy)
    assert _sha256(out.read_bytes()) == MIXED_REPORT_SHA256[policy]


def test_mixed_label_hierarchy_json_digest(tmp_path, monkeypatch):
    report = _detect_mixed(tmp_path, monkeypatch, "det", "--include-ground-state")
    pairs = tmp_path / "pairs.json"
    dot = tmp_path / "dag.dot"
    assert cli.main(["hierarchy", "--report", str(report), "--json", str(pairs), "--dot", str(dot)]) == 0
    assert _sha256(pairs.read_bytes()) == MIXED_HIERARCHY_JSON_SHA256
    assert _sha256(dot.read_bytes()) == MIXED_HIERARCHY_DOT_SHA256


# 13 nodes, 21 unit links: random_connected_graph(random.Random(18), 13, 9).
# Four exact minima, of which detect finds three, so --compare lists one
# oracle-only minimum.
RANDOM13_EDGE_LIST = """\
1 2
1 3
3 4
4 5
3 6
2 7
2 8
8 9
8 10
3 11
8 12
5 13
1 6
8 11
5 10
7 13
4 9
9 10
5 7
4 10
12 13
"""
ORACLE_COMPARE_SHA256 = {
    "oscillating": "052ec539766d1371b64a9449e5215980a66dc01ddca90391a9fa48f082cb1b87",
    "random13": "3820c7f95b338ee92c0a437aaaf6cc319a08f20f562db0b5d860933a831acbb9",
}
ORACLE_INPUTS = {
    "oscillating": (OSCILLATING, ["--weighted"]),
    "random13": (RANDOM13_EDGE_LIST, []),
}


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_oracle_compare_digest(tmp_path, monkeypatch, name):
    text, graph_args = ORACLE_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text(text)
    assert cli.main(["detect", "g.edges", *graph_args, "--out", "report.json"]) == 0
    assert cli.main(["oracle", "g.edges", *graph_args, "--compare", "report.json", "--out", "oracle.json"]) == 0
    assert _sha256((tmp_path / "oracle.json").read_bytes()) == ORACLE_COMPARE_SHA256[name]
