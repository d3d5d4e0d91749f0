"""Run manifests: schema-versioned records of what one invocation measured.

Every experiment entry point writes ``results/<run>/manifest.json`` — the
durable artefact tying a set of figure results to the exact configuration
that produced them:

* the **config fingerprint** (the device model's calibration constants),
  so a manifest recorded against a recalibrated model is distinguishable;
* the **seed** (fault-plan seed, when faults were injected);
* a full **metrics snapshot** (see :mod:`repro.metrics.registry`) whose
  ``experiment.value`` gauges alone are sufficient to re-assert the
  paper's F1–F10 findings (``tests/findings`` does exactly that);
* ``git describe`` of the producing tree, when available;
* an optional **profile** section (``--profile``: cProfile's top-N hot
  functions).

The schema is validated on load and on write; unknown versions are
rejected rather than half-parsed.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.metrics.registry import MetricsError, MetricsSnapshot

#: Current manifest schema version.
MANIFEST_VERSION = 1

#: Schema identifier embedded in every manifest.
MANIFEST_SCHEMA = "repro.run-manifest"


class ManifestError(MetricsError):
    """A manifest failed schema validation or could not be read."""


@dataclass
class RunManifest:
    """One experiment invocation's durable record."""

    name: str
    figures: list[str]
    fast: bool
    jobs: int
    config_fingerprint: str
    metrics: MetricsSnapshot
    #: Evaluation engine that produced the timings (``sim`` / ``model``
    #: / ``hybrid`` — see :mod:`repro.engine`).
    engine: str = "sim"
    seed: "int | None" = None
    argv: list[str] = field(default_factory=list)
    experiments: list[dict] = field(default_factory=list)
    profile: "dict | None" = None
    git_describe: "str | None" = None
    created_unix: float = field(default_factory=time.time)
    schema_version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "schema_version": self.schema_version,
            "run": {
                "name": self.name,
                "figures": list(self.figures),
                "fast": self.fast,
                "jobs": self.jobs,
                "engine": self.engine,
                "argv": list(self.argv),
                "created_unix": self.created_unix,
            },
            "config": {
                "fingerprint": self.config_fingerprint,
                "seed": self.seed,
            },
            "git": {"describe": self.git_describe},
            "metrics": self.metrics.to_dict(),
            "experiments": list(self.experiments),
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        errors = validate_manifest(payload)
        if errors:
            raise ManifestError(
                "invalid manifest: " + "; ".join(errors)
            )
        run = payload["run"]
        return cls(
            name=run["name"],
            figures=list(run["figures"]),
            fast=run["fast"],
            jobs=run["jobs"],
            engine=run.get("engine", "sim"),
            argv=list(run.get("argv", [])),
            created_unix=run["created_unix"],
            config_fingerprint=payload["config"]["fingerprint"],
            seed=payload["config"].get("seed"),
            git_describe=payload["git"].get("describe"),
            metrics=MetricsSnapshot.from_dict(payload["metrics"]),
            experiments=list(payload.get("experiments", [])),
            profile=payload.get("profile"),
            schema_version=payload["schema_version"],
        )

    def write(self, directory: "str | os.PathLike") -> Path:
        """Write ``<directory>/manifest.json`` (plus the raw metrics
        snapshot as ``metrics.json``) atomically; returns the manifest
        path."""
        directory = Path(directory)
        payload = self.to_dict()
        errors = validate_manifest(payload)
        if errors:  # pragma: no cover - defensive: we built the payload
            raise ManifestError(
                "refusing to write invalid manifest: " + "; ".join(errors)
            )
        path = directory / "manifest.json"
        atomic_write_json(path, payload, indent=1)
        atomic_write_json(
            directory / "metrics.json", payload["metrics"], indent=1
        )
        return path


def load_manifest(path: "str | os.PathLike") -> RunManifest:
    """Read and validate a manifest file."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    return RunManifest.from_dict(payload)


def validate_manifest(payload: Any) -> list[str]:
    """Schema-check a manifest payload; returns a list of problems
    (empty when valid)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["manifest must be a JSON object"]
    if payload.get("schema") != MANIFEST_SCHEMA:
        errors.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got "
            f"{payload.get('schema')!r}"
        )
    if payload.get("schema_version") != MANIFEST_VERSION:
        errors.append(
            f"unsupported schema_version {payload.get('schema_version')!r}"
        )
    run = payload.get("run")
    if not isinstance(run, dict):
        errors.append("missing 'run' section")
    else:
        for key, types in (
            ("name", str),
            ("figures", list),
            ("fast", bool),
            ("jobs", int),
            ("created_unix", (int, float)),
        ):
            if not isinstance(run.get(key), types):
                errors.append(f"run.{key} missing or mistyped")
        # Optional (absent in manifests written before engines existed).
        if "engine" in run and not isinstance(run["engine"], str):
            errors.append("run.engine must be a string")
    config = payload.get("config")
    if not isinstance(config, dict) or not isinstance(
        config.get("fingerprint"), str
    ):
        errors.append("config.fingerprint missing or mistyped")
    elif config.get("seed") is not None and not isinstance(
        config["seed"], int
    ):
        errors.append("config.seed must be an integer or null")
    if not isinstance(payload.get("git"), dict):
        errors.append("missing 'git' section")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("missing 'metrics' section")
    else:
        try:
            MetricsSnapshot.from_dict(metrics)
        except MetricsError as exc:
            errors.append(str(exc))
        else:
            for section in ("counters", "gauges", "histograms"):
                if not isinstance(metrics.get(section), list):
                    errors.append(f"metrics.{section} must be a list")
    if not isinstance(payload.get("experiments"), list):
        errors.append("'experiments' must be a list")
    profile = payload.get("profile")
    if profile is not None and not isinstance(profile, dict):
        errors.append("'profile' must be an object or null")
    return errors


def git_describe(cwd: "str | os.PathLike | None" = None) -> "str | None":
    """``git describe --always --dirty`` of ``cwd``, or None."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def atomic_write_json(
    path: Path, payload: Any, indent: "int | None" = None
) -> None:
    """Write ``payload`` as JSON to ``path`` (creating its directory)
    through a same-directory temp file and ``os.replace``, so a reader
    or a crashed writer never sees a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=indent)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
