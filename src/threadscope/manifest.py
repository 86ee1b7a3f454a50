"""Run manifests: a JSON record of what a command ran with, written
after every other artifact of the run, so an output tree with a manifest
is finished and explained by it, and one without is unfinished.

A manifest pins the subcommand name, every effective parameter except
the output location, sha256 digests of the input files, and the seeds.
Two runs with identical inputs and manifests produce byte-identical
outputs, and `replay` re-executes a manifest into a fresh directory.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, NamedTuple

from .records import FrozenRecord

ARTIFACT_VERSION = 2
MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ManifestInput(NamedTuple):
    param: str
    path: str
    sha256: str


class RunManifest(FrozenRecord):
    # not a NamedTuple, whose one default dict every record would share
    __slots__ = _fields = ("command", "params", "inputs", "seeds", "artifact_version")

    def __init__(
        self,
        command: str,
        params: dict,
        inputs: tuple[ManifestInput, ...] = (),
        seeds: dict | None = None,
        artifact_version: int = ARTIFACT_VERSION,
    ) -> None:
        self._freeze(command, params, inputs, {} if seeds is None else seeds, artifact_version)

    def to_json(self) -> str:
        payload = {**self._asdict(), "inputs": [i._asdict() for i in self.inputs]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def build_manifest(
    command: str,
    params: Mapping[str, object],
    input_paths: Mapping[str, str | Path],
    seeds: Mapping[str, int] | None = None,
) -> RunManifest:
    """Digest the inputs and freeze the run record.  Callers pass params
    already stripped of output locations."""
    inputs = tuple(
        ManifestInput(param=param, path=str(path), sha256=sha256_file(path))
        for param, path in sorted(input_paths.items())
    )
    return RunManifest(
        command=command,
        params=dict(params),
        inputs=inputs,
        seeds=dict(seeds or {}),
    )


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(manifest.to_json(), encoding="utf-8")


_FIELDS = (
    ("artifact_version", int, "an integer"),
    ("command", str, "a string"),
    ("params", dict, "an object"),
    ("inputs", list, "a list"),
    ("seeds", dict, "an object"),
)


def read_manifest(path: str | Path) -> RunManifest:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a manifest object")
    for key, kind, what in _FIELDS:
        if key not in payload:
            raise ValueError(f"{path}: missing manifest field {key!r}")
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{path}: manifest field {key!r} must be {what}")
    inputs = []
    for entry in payload["inputs"]:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) for key in ("param", "path", "sha256")
        ):
            raise ValueError(
                f"{path}: each manifest input must hold string param, path and sha256"
            )
        inputs.append(ManifestInput(entry["param"], entry["path"], entry["sha256"]))
    return RunManifest(
        command=payload["command"],
        params=payload["params"],
        inputs=tuple(inputs),
        seeds=payload["seeds"],
        artifact_version=payload["artifact_version"],
    )


def verify_inputs(manifest: RunManifest) -> list[str]:
    """Re-digest each recorded input; return problems, empty if all match."""
    problems: list[str] = []
    for entry in manifest.inputs:
        path = Path(entry.path)
        if not path.exists():
            problems.append(f"{entry.param}: {entry.path} is missing")
            continue
        actual = sha256_file(path)
        if actual != entry.sha256:
            problems.append(
                f"{entry.param}: {entry.path} digest changed "
                f"(recorded {entry.sha256[:12]}, found {actual[:12]})"
            )
    return problems
