"""Tests for run manifest building, serialization, and input verification."""

from __future__ import annotations

import hashlib
import json

import pytest

from threadscope.errors import ManifestError
from threadscope.manifest import (
    ARTIFACT_VERSION,
    ManifestInput,
    RunManifest,
    build_manifest,
    read_manifest,
    sha256_file,
    verify_inputs,
    write_manifest,
)


def test_sha256_file(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(b"hello world\n")
    assert sha256_file(path) == hashlib.sha256(b"hello world\n").hexdigest()


def test_build_manifest_digests_and_sorts_inputs(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("alpha")
    b.write_text("beta")
    manifest = build_manifest(
        "ingest",
        {"k": 2, "from": "2020-03-01"},
        {"docs": b, "dump": a},
        seeds={"seed": 42},
    )
    assert manifest.command == "ingest"
    assert manifest.artifact_version == ARTIFACT_VERSION
    assert [i.param for i in manifest.inputs] == ["docs", "dump"]
    assert manifest.inputs[1] == ManifestInput(
        param="dump", path=str(a), sha256=sha256_file(a)
    )
    assert manifest.seeds == {"seed": 42}


def test_to_json_is_stable_and_complete(tmp_path):
    manifest = build_manifest("stats", {"b": 1, "a": 2}, {})
    text = manifest.to_json()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert set(payload) == {
        "artifact_version",
        "command",
        "params",
        "inputs",
        "seeds",
    }
    # keys come out sorted so identical runs serialize identically
    assert text == manifest.to_json()
    assert text.index('"a"') < text.index('"b"')


def test_write_read_round_trip(tmp_path):
    source = tmp_path / "in.txt"
    source.write_text("x")
    manifest = build_manifest("topics", {"k": 2}, {"docs": source}, {"seed": 1})
    path = tmp_path / "out" / "manifest.json"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


def test_read_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{nope")
    with pytest.raises(ManifestError):
        read_manifest(path)
    # nesting past the decoder's recursion limit
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ManifestError, match="not valid JSON"):
        read_manifest(path)


def test_read_manifest_rejects_missing_fields(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "stats"}))
    with pytest.raises(ManifestError) as excinfo:
        read_manifest(path)
    assert "artifact_version" in str(excinfo.value)


def test_verify_inputs_reports_problems(tmp_path):
    source = tmp_path / "in.txt"
    source.write_text("original")
    manifest = build_manifest("stats", {}, {"docs": source})
    assert verify_inputs(manifest) == []

    source.write_text("tampered")
    (problem,) = verify_inputs(manifest)
    assert "digest changed" in problem

    source.unlink()
    (problem,) = verify_inputs(manifest)
    assert "missing" in problem


def test_manifest_params_are_copied():
    params = {"k": 2}
    manifest = RunManifest(command="topics", params=dict(params))
    params["k"] = 3
    assert manifest.params == {"k": 2}
