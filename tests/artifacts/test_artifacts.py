"""Run artifacts: durable, content-addressed, re-executable — and the
``repro audit`` gate that catches both tampering and result rot."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.artifacts import (
    ArtifactStore,
    RunArtifact,
    artifact_digest,
    audit_artifact,
    default_store_dir,
    diff_payload,
    scrub,
)
from repro.artifacts.audit import encode_points, encode_spec
from repro.core.executor import SweepExecutor
from repro.core.sweep import SweepPoint
from repro.errors import ArtifactError
from repro.machine import ideal


def _spec():
    return ideal(nodes=2, cores_per_node=4)


def _sweep_artifact():
    """A real one-point sweep artifact (cheap: P=4, 4KiB on ideal)."""
    points = [SweepPoint("scatter_ring_opt", 4, 4096)]
    records = SweepExecutor(jobs=1, cache=None).run(
        _spec(), points
    )
    config = {
        "spec": encode_spec(_spec()),
        "points": encode_points(points),
        "root": 0,
        "placement": "blocked",
        "faults": None,
    }
    return RunArtifact.create(
        "sweep", config, [dataclasses.asdict(r) for r in records]
    )


@pytest.fixture(scope="module")
def sweep_artifact():
    return _sweep_artifact()


class TestStore:
    def test_round_trip(self, sweep_artifact, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save(sweep_artifact)
        assert path.name == f"{sweep_artifact.name}.json"
        loaded = store.load(sweep_artifact.name)
        assert loaded == sweep_artifact
        assert store.load(path) == sweep_artifact  # by path too

    def test_same_recipe_overwrites_not_accumulates(
        self, sweep_artifact, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        store.save(sweep_artifact)
        store.save(sweep_artifact)
        assert len(store) == 1

    def test_missing_ref_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact found"):
            ArtifactStore(tmp_path).load("sweep-doesnotexist")

    def test_malformed_payload_raises_artifact_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "sweep"}))  # missing fields
        with pytest.raises(ArtifactError, match="malformed"):
            ArtifactStore(tmp_path).load(path)

    def test_env_override_controls_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "mine"))
        assert default_store_dir() == tmp_path / "mine"

    def test_volatile_keys_do_not_change_digest(self):
        rec = {"time": 1.0, "solver_time_s": 0.5}
        assert scrub(rec) == {"time": 1.0}
        assert artifact_digest(rec) == artifact_digest(
            {"time": 1.0, "solver_time_s": 99.0}
        )


class TestAudit:
    def test_fresh_artifact_reproduces(self, sweep_artifact):
        result = audit_artifact(sweep_artifact)
        assert result.ok
        assert result.reexecuted
        assert "bit-for-bit" in result.describe()

    def test_integrity_tamper_fails_without_reexecution(
        self, sweep_artifact, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        path = store.save(sweep_artifact)
        data = json.loads(path.read_text())
        data["records"][0]["time"] = 1.0
        path.write_text(json.dumps(data))
        result = audit_artifact(sweep_artifact.name, store=store)
        assert not result.ok
        assert not result.reexecuted  # digest mismatch short-circuits
        assert any("records were altered" in p for p in result.integrity)

    def test_coherent_tamper_caught_by_reexecution(
        self, sweep_artifact, tmp_path
    ):
        # An attacker who also fixes up the digests defeats the
        # integrity check — only re-execution catches that.
        tampered_records = json.loads(json.dumps(sweep_artifact.records))
        tampered_records[0]["time"] = 1.0
        forged = RunArtifact.create(
            sweep_artifact.kind, sweep_artifact.config, tampered_records
        )
        assert not forged.integrity_problems()
        result = audit_artifact(forged)
        assert not result.ok
        assert result.reexecuted
        assert any(".time" in m for m in result.mismatches)

    def test_unknown_kind_raises(self):
        bad = RunArtifact.create("nonsense", {}, [])
        with pytest.raises(ArtifactError, match="nonsense"):
            audit_artifact(bad)

    def test_diff_payload_names_paths(self):
        out = diff_payload(
            [{"a": 1, "b": [1, 2]}], [{"a": 1, "b": [1, 3]}]
        )
        assert out == ["$[0].b[1]: stored 2 vs re-executed 3"]


class TestCli:
    def test_audit_exit_codes(self, sweep_artifact, tmp_path, capsys):
        store = ArtifactStore(tmp_path)
        path = store.save(sweep_artifact)
        assert main(["audit", "--dir", str(tmp_path)]) == 0
        assert "1/1 artifact(s) reproduced" in capsys.readouterr().out
        data = json.loads(path.read_text())
        data["records"][0]["time"] = 1.0
        path.write_text(json.dumps(data))
        assert main(["audit", sweep_artifact.name, "--dir", str(tmp_path)]) == 1
        assert main(["audit", "nope", "--dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_spec_the_code_cannot_build_is_usage_error(
        self, sweep_artifact, tmp_path, capsys
    ):
        """An artifact whose recorded spec carries a field MachineSpec
        lacks, or a value it rejects, ends the audit in one ``error:``
        line (exit 2) naming the field, not in a traceback."""
        store = ArtifactStore(tmp_path)
        for field, value in (("jitter_sigma", 0.0), ("nic_bw", float("nan"))):
            spec = dict(sweep_artifact.config["spec"], **{field: value})
            config = dict(sweep_artifact.config, spec=spec)
            old = RunArtifact.create("sweep", config, sweep_artifact.records)
            assert not old.integrity_problems()
            if field == "jitter_sigma":
                with pytest.raises(ArtifactError, match=field):
                    audit_artifact(old)
            store.save(old)
            assert main(["audit", old.name, "--dir", str(tmp_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1, err
            assert err[0].startswith("error:") and field in err[0]

    def test_audit_empty_store_is_usage_error(self, tmp_path, capsys):
        assert main(["audit", "--dir", str(tmp_path)]) == 2
        assert "no artifacts" in capsys.readouterr().err

    def test_sweep_artifact_flag_records_and_audits(self, tmp_path, capsys):
        rc = main(
            [
                "sweep", "--nranks", "4", "--nodes", "2",
                "--sizes", "4KiB", "--no-cache",
                "--artifact", str(tmp_path / "arts"),
            ]
        )
        assert rc == 0
        assert "artifact:" in capsys.readouterr().err
        assert main(["audit", "--dir", str(tmp_path / "arts"), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results[0]["ok"] is True
        assert results[0]["kind"] == "sweep"

    def test_every_gate_kind_records_and_audits(self, tmp_path, capsys):
        store = str(tmp_path / "arts")
        runs = [
            ("verify", ["verify", "--nranks", "4"]),
            ("cost", ["cost", "--grid"]),
            ("chaos", ["chaos", "--nranks", "4", "--nbytes", "1KiB"]),
            ("replay", ["replay", "--nranks", "4"]),
            ("mc", ["mc", "--grid"]),
            ("prove", ["prove", "--all", "--xval", "2:6"]),
            ("prove", ["prove", "--collective", "bcast_opt", "--xval", "2:3"]),
        ]
        for _, argv in runs:
            assert main(argv + ["--artifact", store]) == 0, argv
            assert "artifact:" in capsys.readouterr().err, argv
        assert main(["audit", "--dir", store, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert all(r["ok"] and r["reexecuted"] for r in results)
        assert sorted(r["kind"] for r in results) == sorted(k for k, _ in runs)

    def test_artifact_notice_keeps_json_stdout_parseable(
        self, tmp_path, capsys, monkeypatch
    ):
        store = tmp_path / "arts"
        monkeypatch.setenv("REPRO_ARTIFACTS", str(store))
        argv = ["verify", "--collective", "bcast_native", "--nranks", "8,10",
                "--json"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        assert [r["redundant_count"] for r in reports] == [12, 15]
        (path,) = store.glob("verify-*.json")
        assert f"artifact: {path}" in captured.err
