"""``run_experiment``'s reports: the bytes it writes and the errors it lets through."""

import hashlib
import json

import pytest

from foreman import experiment
from foreman.experiment import ExperimentConfig, run_experiment

_SUPERVISORS = ("llm:gemma", "llm:llama", "llm:mistral", "search-minimal", "search-conservative")
_REPORTS = ("similarity.csv", "edit_profile.csv", "summary.json")


def _unschedulable_wall(fix_dir, tmp_path):
    """The wall scenario plus a SCAN task at B that no robot can do, so FCFS
    raises ``UnassignableTask``; the file name keeps the mocks' scenario name."""
    doc = json.loads((fix_dir / "wall_assembly.scn.json").read_text(encoding="utf-8"))
    doc["tasks"].append({"id": "scan_b", "type": "SCAN", "required_skills": ["SCAN"], "location": "B"})
    path = tmp_path / "wall_assembly.scn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 of similarity.csv, edit_profile.csv, summary.json and the sorted JSON
# of the returned summary, for the five supervisors above.
_PINNED = {
    "wall_assembly": (
        "badc2150c4509424bb3eb34bcf316040e6d16a92cf55bcd9145c829e55b5f275",
        "94d149d27a37a0d5b77438cf82568bb225e63a5e7b12c5ae6cf84982a62ec1ed",
        "b43e1d5210435601749b79ed414ca4947199114225593dce5ed6ca83e1dcbd6c",
        "257ad6558769fb66081378102c61639c841039b20cf45f5ab4e7dc88a15dc68e",
    ),
    "scan_grid": (
        "4c36827775450a7a05d9635dc01f28ae58b836b1674ebdd7166bd1d97a5420e7",
        "0875a527759a7ce51ae194b0fe41021cf66b5d007c56833fc23aadd19c6f77d7",
        "8fcd367640877a314da4435e0adcbbf3d695e4ca0929bd76e92e95351ca343c6",
        "31e7244a90bd9e93187c5543f571ae60b191ccb06576d3d4c436a6a7b493fa27",
    ),
    "fcfs_fails": (
        "1c472d46a68de60b0242d12009ee396c2a90dc642729ad488c72ba381ba0b52e",
        "daa43efdade49fd7cc8958c669983e5708105e7f07c2adc3c70a79c8f178f5f1",
        "8a80ea052e7e541353502357cc125a12ed67c2035a7e9df40edc307640cf943c",
        "9328bd9fa64fe02381e539a98a10391525470355c2325ad44bedd4f0732e7d3f",
    ),
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_report_bytes_are_pinned(fix_dir, tmp_path, case):
    if case == "fcfs_fails":
        scenario_path = _unschedulable_wall(fix_dir, tmp_path)
    else:
        scenario_path = fix_dir / f"{case}.scn.json"
    out = tmp_path / "out"
    summary = run_experiment(ExperimentConfig(scenario_path, supervisors=_SUPERVISORS, out_dir=out))
    digests = tuple(_sha256((out / name).read_bytes()) for name in _REPORTS)
    digests += (_sha256(json.dumps(summary, sort_keys=True).encode()),)
    assert digests == _PINNED[case]


def test_an_fcfs_error_outside_its_documented_ones_propagates(monkeypatch, fix_dir, tmp_path):
    def broken(s):
        raise KeyError("defect")

    monkeypatch.setattr(experiment, "fcfs_schedule", broken)
    cfg = ExperimentConfig(fix_dir / "wall_assembly.scn.json", supervisors=(), out_dir=tmp_path)
    with pytest.raises(KeyError):
        run_experiment(cfg)
