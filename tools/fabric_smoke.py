#!/usr/bin/env python3
"""The ``make fabric-smoke`` lane: a distributed chaos drill, end to end.

Everything here runs as *real operating-system processes* talking over
a real localhost socket — the same commands an operator types, so the
lane covers the CLI plumbing the in-process chaos tests cannot:

1. ``repro campaign run``   — the single-host reference report;
2. ``repro campaign serve`` — a coordinator on an ephemeral port with
   a short lease TTL;
3. a worker started with ``--die-after-waves 1`` — the scripted kill:
   it claims a board shard, ships one wave, and dies mid-board
   (exit 3) still holding its lease;
4. the coordinator itself is killed (SIGTERM) mid-campaign and
   restarted with ``--resume`` on the *same port* — completed boards
   are reused from the journal, outstanding leases are forgotten, and
   the ``leases.json`` epoch watermarks fence every pre-restart token;
5. two clean ``repro campaign work`` processes finish the campaign —
   one of them through a :class:`FlakyProxy` that drops its connection
   on scripted requests, forcing the ``--retry-*`` reconnect-and-
   replay path.

The drill passes iff the resumed coordinator exits 0, every scripted
fault actually fired, and the distributed ``report.json`` is
**byte-identical** to the single-host reference — the contract the
whole fabric exists to keep.

Exit status: 0 = byte-identical, 1 = drill failed (divergent reports,
a process that would not die or converge), with every subprocess's
output replayed to stderr for triage.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign.runtime.netchaos import ChaosScript, FlakyProxy  # noqa: E402

SPEC_FLAGS = ["--boards", "3", "--victims", "12", "--seed", "7"]
LEASE_TTL = "5"
"""Short enough that waiting out the dead worker's lease costs the
lane seconds, long enough that a loaded CI box cannot expire a *live*
worker between its own waves."""

SERVE_TIMEOUT = 180.0
"""Hard wall for the whole drill; the coordinator also enforces it."""

RETRY_FLAGS = [
    "--retry-attempts", "10",
    "--retry-base", "0.05",
    "--retry-cap", "0.5",
]
"""Self-healing knobs for the proxy-fronted worker: enough budget to
ride out every scripted drop without stretching the lane."""


def _run(argv: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **kwargs,
    )


def _report(label: str, process: subprocess.Popen, output: str) -> None:
    print(f"--- {label} (exit {process.returncode}) ---", file=sys.stderr)
    print(output.rstrip() or "<no output>", file=sys.stderr)


def _serve(extra: list[str]) -> tuple[subprocess.Popen, str] | None:
    """Start a coordinator; returns (process, address) or None."""
    serve = _run(
        [
            "campaign", "serve",
            "--lease-ttl", LEASE_TTL,
            "--timeout", str(int(SERVE_TIMEOUT)),
            *extra,
        ]
    )
    assert serve.stdout is not None
    banner = serve.stdout.readline()
    if "listening on" not in banner:
        serve.kill()
        output, _ = serve.communicate()
        _report("coordinator", serve, banner + output)
        return None
    return serve, banner.rsplit(" ", 1)[-1].strip()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fabric_smoke_") as tmp:
        tmp_path = Path(tmp)
        failures: list[str] = []

        # 1. Single-host reference.
        reference_dir = tmp_path / "reference"
        reference = _run(
            ["campaign", "run", "--run-dir", str(reference_dir), *SPEC_FLAGS]
        )
        ref_output, _ = reference.communicate(timeout=SERVE_TIMEOUT)
        if reference.returncode != 0:
            _report("reference run", reference, ref_output)
            print("fabric-smoke: reference run failed", file=sys.stderr)
            return 1

        # 2. The coordinator, on an ephemeral port.
        fabric_dir = tmp_path / "fabric"
        started_serve = _serve(
            ["--run-dir", str(fabric_dir), "--port", "0", *SPEC_FLAGS]
        )
        if started_serve is None:
            print("fabric-smoke: coordinator never came up", file=sys.stderr)
            return 1
        serve, address = started_serve
        print(f"coordinator up at {address}")
        port = address.rsplit(":", 1)[-1]

        # 3. The scripted worker kill: one wave, then death mid-board.
        casualty = _run(
            [
                "campaign", "work", address,
                "--name", "casualty",
                "--no-wait",
                "--die-after-waves", "1",
            ]
        )
        casualty_output, _ = casualty.communicate(timeout=SERVE_TIMEOUT)
        _report("casualty worker", casualty, casualty_output)
        if casualty.returncode != 3:
            failures.append(
                f"scripted kill exited {casualty.returncode}, expected 3"
            )

        # 4. The coordinator kill: SIGTERM mid-campaign, then resume
        # the same run directory on the same port.  Completed boards
        # are reused from the journal; the dead worker's lease is
        # simply forgotten (and its epoch fenced via leases.json).
        serve.send_signal(signal.SIGTERM)
        serve_output, _ = serve.communicate(timeout=SERVE_TIMEOUT)
        _report("coordinator (killed)", serve, serve_output)
        if serve.returncode == 0:
            failures.append(
                "coordinator exited 0 before the campaign finished"
            )
        restarted = _serve(
            ["--resume", str(fabric_dir), "--port", port]
        )
        if restarted is None:
            print(
                "fabric-smoke: resumed coordinator never came up",
                file=sys.stderr,
            )
            return 1
        serve, resumed_address = restarted
        print(f"coordinator resumed at {resumed_address}")
        if resumed_address != address:
            failures.append(
                f"resumed coordinator at {resumed_address}, "
                f"expected {address}"
            )

        # 5. Two clean workers finish the campaign — one through a
        # flaky proxy that drops scripted requests, forcing the
        # --retry-* reconnect-and-replay path.
        host = address.rsplit(":", 1)[0]
        proxy = FlakyProxy(
            (host, int(port)),
            script=ChaosScript(drop_after_requests=(3, 7, 11)),
        )
        proxy_host, proxy_port = proxy.start()
        started = time.monotonic()
        try:
            workers = [
                _run(
                    [
                        "campaign", "work",
                        f"{proxy_host}:{proxy_port}",
                        "--name", "flaky",
                        *RETRY_FLAGS,
                    ]
                ),
                _run(["campaign", "work", address, "--name", "clean"]),
            ]
            for label, worker in zip(("flaky", "clean"), workers):
                output, _ = worker.communicate(timeout=SERVE_TIMEOUT)
                _report(f"worker {label}", worker, output)
                # The coordinator keeps listening until every polling
                # worker has heard `done`, so both must exit 0.
                if worker.returncode != 0:
                    failures.append(
                        f"worker {label} exited {worker.returncode}"
                    )
            serve_output, _ = serve.communicate(timeout=SERVE_TIMEOUT)
            _report("coordinator (resumed)", serve, serve_output)
        finally:
            stats = proxy.stats()
            proxy.close()
        print(
            f"drill converged in "
            f"{time.monotonic() - started:.1f}s after the restart; "
            f"proxy injected {stats['drops_injected']} drop(s) over "
            f"{stats['connections']} connection(s), "
            f"{stats['upstream_failures']} failed upstream connect(s)"
        )
        if serve.returncode != 0:
            failures.append(
                f"resumed coordinator exited {serve.returncode}"
            )
        if stats["drops_injected"] < 1:
            failures.append(
                "the flaky proxy never dropped a request — the "
                "self-healing path went unexercised"
            )

        # 6. The contract: byte-identical reports.
        reference_bytes = (reference_dir / "report.json").read_bytes()
        fabric_bytes = (fabric_dir / "report.json").read_bytes()
        if fabric_bytes != reference_bytes:
            failures.append(
                f"distributed report ({len(fabric_bytes)} bytes) diverges "
                f"from single-host reference ({len(reference_bytes)} bytes)"
            )

        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            "fabric-smoke: PASS — worker killed mid-board, coordinator "
            "killed and resumed on the same port, one worker healed "
            "through a flaky proxy, report byte-identical to single host"
        )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
