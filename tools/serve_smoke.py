#!/usr/bin/env python3
"""The ``make serve-smoke`` lane: the analysis daemon as a real process.

The in-process soak test exercises the protocol exhaustively with a
manual clock; this lane covers what it cannot — the operator-facing
plumbing.  A real ``repro serve analysis`` subprocess on an ephemeral
port, driven over a real localhost socket by two concurrent clients
plus a streaming subscriber:

1. client A uploads a dump, re-uploads it (the spool must answer
   ``deduplicated``), and submits it for analysis under the default
   and the ``fine`` carve presets;
2. client B uploads two large dumps back-to-back so the second one
   *must* trip the default per-tenant byte quota, then heals by
   waiting out the daemon's ``retry_after`` hint and submits both;
3. a subscriber collects streamed deltas; the daemon is then SIGTERMed
   and must drain cleanly — every accepted job's delta arrives before
   the terminal ``drained`` event, the process exits 0, and the
   ``-o`` report it writes holds one row per dump and carve preset
   analyzed: four, two of them client A's dump under both presets.

Just before the SIGTERM the lane prints the daemon's peak resident set
(``VmHWM`` from ``/proc/<pid>/status``), so the log tracks daemon
memory from run to run; it is a log line, not a check.

Exit status: 0 = all of the above held, 1 = any check failed, with the
daemon's output replayed to stderr for triage.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import AsyncServiceClient  # noqa: E402

MODELS = "resnet50_pt,squeezenet_pt"
INPUT_HW = "32"
SMOKE_TIMEOUT = 60.0
"""Hard wall for every blocking step; the lane should finish in a few
seconds, so anything near this is already a hang."""

BIG_NBYTES = 700_000
"""Two of these from one tenant exceed the default 1 MiB upload burst,
so the second upload is guaranteed a quota refusal; the deficit refills
at 256 KiB/s, keeping the healing wait under two seconds."""


def _blob(seed: int, nbytes: int) -> bytes:
    """Deterministic noise around a verbatim model-name string, so the
    analyzer has something to identify without needing a board."""
    rng = random.Random(seed)
    marker = b"/usr/share/vitis_ai_library/models/resnet50_pt\x00"
    noise = bytes(rng.randrange(256) for _ in range(nbytes - len(marker)))
    half = len(noise) // 2
    return noise[:half] + marker + noise[half:]


async def _client_a(host: str, port: int, checks: dict) -> list[int]:
    blob = _blob(seed=1, nbytes=120_000)
    async with await AsyncServiceClient.connect(host, port) as client:
        first = await client.put_dump("smoke-a", blob)
        assert first.get("ok"), first
        again = await client.put_dump("smoke-a", blob)
        assert again.get("ok"), again
        if again["deduplicated"]:
            checks["dedup_hits"] += 1
        checks["a_digest"] = first["sha256"]
        job_ids = []
        for carve in ("default", "fine"):
            submitted = await client.request(
                "submit", tenant="smoke-a", sha256=first["sha256"],
                carve=carve,
            )
            assert submitted.get("ok"), submitted
            job_ids.append(submitted["job_id"])
        return job_ids


async def _client_b(host: str, port: int, checks: dict) -> list[int]:
    blobs = [_blob(seed=2, nbytes=BIG_NBYTES), _blob(seed=3, nbytes=BIG_NBYTES)]
    job_ids = []
    async with await AsyncServiceClient.connect(host, port) as client:
        digests = []
        for blob in blobs:
            for _ in range(5):
                response = await client.put_dump("smoke-b", blob)
                if response.get("ok"):
                    digests.append(response["sha256"])
                    break
                assert response["code"] == "quota", response
                checks["quota_rejections"] += 1
                await asyncio.sleep(min(response["retry_after"], 5.0) + 0.05)
            else:
                raise AssertionError("upload never healed past the quota")
        for digest in digests:
            submitted = await client.request(
                "submit", tenant="smoke-b", sha256=digest
            )
            assert submitted.get("ok"), submitted
            job_ids.append(submitted["job_id"])
    return job_ids


async def _subscribe(host: str, port: int, events: list) -> None:
    async with await AsyncServiceClient.connect(host, port) as client:
        async for event in client.subscribe():
            events.append(event)


def _peak_rss(pid: int) -> str:
    """The ``VmHWM`` line of *pid*'s ``/proc`` status, where there is one."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return "unavailable (no /proc)"
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return line.split(":", 1)[1].strip()
    return "unavailable (no VmHWM)"


async def _scenario(host: str, port: int, daemon: subprocess.Popen) -> dict:
    checks = {"quota_rejections": 0, "dedup_hits": 0}
    events: list = []
    subscriber = asyncio.create_task(_subscribe(host, port, events))
    await asyncio.sleep(0.1)  # let the subscription register
    job_lists = await asyncio.wait_for(
        asyncio.gather(
            _client_a(host, port, checks), _client_b(host, port, checks)
        ),
        timeout=SMOKE_TIMEOUT,
    )
    print(f"daemon peak RSS before drain: {_peak_rss(daemon.pid)}")
    daemon.send_signal(signal.SIGTERM)
    await asyncio.wait_for(subscriber, timeout=SMOKE_TIMEOUT)
    checks["accepted_jobs"] = sorted(
        job_id for jobs in job_lists for job_id in jobs
    )
    checks["events"] = events
    return checks


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        tmp_path = Path(tmp)
        report_path = tmp_path / "report.json"
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "serve", "analysis",
                "--port", "0",
                "--models", MODELS,
                "--input-hw", INPUT_HW,
                "--spool-dir", str(tmp_path / "spool"),
                "-o", str(report_path),
            ],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert daemon.stdout is not None
        banner = daemon.stdout.readline()
        if "listening on" not in banner:
            daemon.kill()
            output, _ = daemon.communicate()
            print(banner + output, file=sys.stderr)
            print("serve-smoke: daemon never came up", file=sys.stderr)
            return 1
        address = banner.rsplit(" ", 1)[-1].strip()
        host, port = address.rsplit(":", 1)
        print(f"daemon up at {address}")

        started = time.monotonic()
        try:
            checks = asyncio.run(_scenario(host, int(port), daemon))
        except Exception as error:  # noqa: BLE001 — triage surface
            daemon.kill()
            output, _ = daemon.communicate()
            print(output, file=sys.stderr)
            print(f"serve-smoke: scenario failed: {error!r}", file=sys.stderr)
            return 1
        output, _ = daemon.communicate(timeout=SMOKE_TIMEOUT)

        failures: list[str] = []
        if daemon.returncode != 0:
            failures.append(f"daemon exited {daemon.returncode}, expected 0")
        if "drained:" not in output:
            failures.append("daemon output never announced the drain")
        if checks["quota_rejections"] < 1:
            failures.append("the byte quota never rejected an upload")
        if checks["dedup_hits"] < 1:
            failures.append("the duplicate upload was not deduplicated")
        deltas = [e for e in checks["events"] if e.get("event") == "delta"]
        if sorted(e["job_id"] for e in deltas) != checks["accepted_jobs"]:
            failures.append(
                f"streamed deltas {sorted(e['job_id'] for e in deltas)} != "
                f"accepted jobs {checks['accepted_jobs']} — the drain lost "
                f"or invented work"
            )
        if not checks["events"] or checks["events"][-1].get("event") != "drained":
            failures.append("subscriber never saw the terminal drained event")
        try:
            report = json.loads(report_path.read_text())
            if report["total"] != 4:
                failures.append(
                    f"report holds {report['total']} row(s), expected 4"
                )
            presets = sorted(
                row["carve_preset"] for row in report["dumps"]
                if row["sha256"] == checks["a_digest"]
            )
            if presets != ["default", "fine"]:
                failures.append(
                    f"client A's dump has report rows for {presets}, "
                    f"expected both presets it was submitted under"
                )
        except (OSError, json.JSONDecodeError, KeyError) as error:
            failures.append(f"report unreadable: {error!r}")

        if failures:
            print(output, file=sys.stderr)
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"serve-smoke: PASS in {time.monotonic() - started:.1f}s — "
            f"{len(checks['accepted_jobs'])} job(s) analyzed across 2 "
            f"clients, {checks['quota_rejections']} quota rejection(s) "
            f"healed, duplicate upload deduplicated, one dump reported "
            f"under two presets, SIGTERM drained cleanly"
        )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
