"""Workload ``gateway_tenants``: a closed loop of tenants against a real gateway.

Set-up captures the replay mix (as ``replay_mix`` does) and spawns
``python -m repro.service serve`` at its default configuration.  Two
tenants in one asyncio process then upload the mix's traces, each
naming the session's lifeguard in its ``begin`` frame; a tenant starts
its next upload only after it has its report, like a CI job waiting for
its verdict.  Every settled ``report["result"]`` must equal
``report_document(replay_trace(...))["result"]`` for the same trace and
lifeguard.

This workload is not listed in ``BENCHMARK.json``: at the gateway's
default two replay workers per session, sharded MemCheck and AddrCheck
replays of multi-chunk traces report false positives, and the largest
report replies exceed the protocol's 64 KiB header line.  Those sessions
fail here (``failed.report_mismatch``, ``failed.transport``) and are
left visible.  See README.md.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import signal
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from benchlib import HostClock, Outcome, make_plan, mix_pairs, peak_rss_mb, percentile
from replay_mix import SCALES, set_up
from repro.service.client import GatewayClient, GatewayError
from repro.service.gateway import report_document
from repro.service.protocol import ProtocolError
from repro.trace.replay import replay_trace

TENANTS = 2
#: Sessions per run, so that at least 10 settle times lie beyond p90.
MIN_SESSIONS = 100
SERVER_START_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0
CLIENT_CALLS = ("begin", "upload_file", "commit", "report_wait")
TRANSPORT_ERRORS = (ProtocolError, ValueError, ConnectionError, asyncio.IncompleteReadError)


class GatewayTenants:
    """One run: set-up, reference, closed loop, drain."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.plan = make_plan(seed, SCALES, mix_pairs())
        rng = random.Random(seed)
        self.assignment = [rng.randrange(TENANTS) for _ in self.plan.pairs]
        self.workdir = workdir
        self.outcome = Outcome()
        self.clock = HostClock()
        self.side: Dict[str, tuple] = {}
        self.expected: Dict[Tuple[str, str], dict] = {}
        self.settle_s: List[float] = []
        self.calls: Dict[str, List[float]] = defaultdict(list)
        self.report_bytes_max = 0
        self.snapshot: dict = {}

    # --------------------------------------------------------------- set-up

    def _prepare(self) -> float:
        self.traces, self.stats, (capture_s,) = set_up(
            self.plan, self.workdir, self.outcome, self.clock, 1
        )
        for program, lifeguard in self.plan.pairs:
            result = replay_trace(str(self.traces / f"{program}.lbatrace"), lifeguard)
            self.expected[(program, lifeguard)] = report_document(result)["result"]
        return capture_s

    async def _spawn(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.service", "serve",
            "--store", str(self.workdir / "store"), "--port", "0",
            stdout=asyncio.subprocess.PIPE, env=env,
        )
        try:
            while True:
                line = await asyncio.wait_for(process.stdout.readline(), SERVER_START_TIMEOUT_S)
                if not line:
                    raise RuntimeError("gateway exited before listening")
                text = line.decode().strip()
                if text.startswith("gateway listening on "):
                    host, _, port = text.rsplit(" ", 1)[-1].rpartition(":")
                    return process, host, int(port)
        except BaseException:
            await self._stop(process)
            raise

    async def _stop(self, process) -> None:
        if process.returncode is None:
            process.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(process.wait(), DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                self.outcome.problem("gateway did not drain in time; killed")
                process.kill()
                await process.wait()
        if process.returncode != 0:
            self.outcome.problem(f"gateway exited with {process.returncode}")

    # ------------------------------------------------------------ sessions

    async def _timed(self, name: str, call):
        start = time.perf_counter()
        try:
            return await call
        finally:
            self.calls[name].append(time.perf_counter() - start)

    async def _session(self, host: str, port: int, pair) -> None:
        program, lifeguard = pair
        label = f"session {program}/{lifeguard}"
        start = time.perf_counter()
        reason, detail = "", ""
        try:
            async with GatewayClient(host, port) as client:
                begun = await self._timed("begin", client.begin(lifeguard=lifeguard))
                session_id = begun["session_id"]
                path = self.traces / f"{program}.lbatrace"
                await self._timed("upload_file", client.upload_file(session_id, path))
                await self._timed("commit", client.commit(session_id))
                reply = await self._timed(
                    "report_wait",
                    client.report(session_id, wait=True, timeout=SESSION_TIMEOUT_S),
                )
            self.report_bytes_max = max(self.report_bytes_max, len(json.dumps(reply)))
            if not reply.get("ok"):
                reason, detail = "error", str(reply.get("error") or reply.get("reason"))
            elif reply["report"]["result"] != self.expected[pair]:
                got, want = reply["report"]["result"], self.expected[pair]
                differ = sorted(key for key in want if got.get(key) != want[key])
                reason = "report_mismatch"
                detail = (f"{','.join(differ)} differ; "
                          f"{got['errors_detected']} reports vs {want['errors_detected']}")
        except GatewayError as exc:
            reason = "shed" if exc.code == 503 else "error"
            detail = str(exc)
        except TRANSPORT_ERRORS as exc:
            reason, detail = "transport", repr(exc)
        except Exception as exc:  # counted, reported, and the loop goes on
            reason, detail = "error", repr(exc)
        self.settle_s.append(time.perf_counter() - start)
        self.outcome.record(label, reason, detail)

    async def _tenant(self, tenant: int, host: str, port: int, deadline: float, quota: int):
        mine = [pair for pair, who in zip(self.plan.pairs, self.assignment) if who == tenant]
        index = 0
        while time.perf_counter() < deadline or index < quota:
            await self._session(host, port, mine[index % len(mine)])
            index += 1

    async def _run(self, seconds: float) -> Tuple[float, float]:
        spawn_start = time.perf_counter()
        process, host, port = await self._spawn()
        spawn_s = time.perf_counter() - spawn_start
        try:
            self.clock.reading()
            start = time.perf_counter()
            quota = -(-MIN_SESSIONS // TENANTS)
            await asyncio.gather(*(
                self._tenant(tenant, host, port, start + seconds, quota)
                for tenant in range(TENANTS)
            ))
            loop_s = time.perf_counter() - start
            self.clock.reading()
            async with GatewayClient(host, port) as client:
                self.snapshot = (await client.metrics())["snapshot"]
        finally:
            await self._stop(process)
        return spawn_s, loop_s

    # --------------------------------------------------------------- metrics

    def _measure(self, seconds: float) -> Tuple[float, float]:
        capture_s = self._prepare()
        spawn_s, loop_s = asyncio.run(self._run(seconds))
        return capture_s + spawn_s, loop_s

    def end_to_end(self, seconds: float) -> Dict[str, tuple]:
        setup_s, loop_s = self._measure(seconds)
        return {
            "settle_ms_p50": (percentile(self.settle_s, 0.5) * 1000.0, "ms"),
            "settle_ms_p90": (percentile(self.settle_s, 0.9) * 1000.0, "ms"),
            "sessions_per_s": (len(self.settle_s) / loop_s, "sessions/s"),
            "failed_share": self.outcome.failure_metrics()["failed_share"],
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        }

    def per_layer(self) -> Dict[str, tuple]:
        self._measure(0.0)
        metrics: Dict[str, tuple] = {}
        for name in CLIENT_CALLS:
            samples = self.calls.get(name) or [0.0]
            metrics[f"service.client.{name}_s.p50"] = (percentile(samples, 0.5), "s")
            metrics[f"service.client.{name}_s.p90"] = (percentile(samples, 0.9), "s")
        counters = self.snapshot.get("counters", {})
        gauges = self.snapshot.get("gauges", {})
        metrics["service.queue_high_water"] = (gauges.get("service.queue_high_water", 0), "chunks")
        for name in ("service.sessions_shed", "service.sessions_failed",
                     "replay.worker_retries", "replay.shm_segments",
                     "replay.shm_fallback_chunks"):
            metrics[name] = (counters.get(name, 0), "count")
        metrics["service.report_bytes_max"] = (self.report_bytes_max, "bytes")
        return metrics
