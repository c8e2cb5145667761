"""Measure one workload on rendered inputs and check its outputs.

Run as ``python3 perfbench/measure.py --workload W --inputs DIR
--seconds S --trace 0|1 --result FILE`` from the repository root, in a
fresh interpreter with ``src`` on ``PYTHONPATH`` and a fixed
``PYTHONHASHSEED`` (``run.py`` does this).  The program is imported
only after the process starts, so the first set-up it times is cold.

Each workload repeats whole rounds of the same operations until
``--seconds`` of measured time have passed (at least one round).  An
operation is one message handed to the program; a message fails when
it does not come out in exactly one event.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then the same round with every layer wrapped (see
``tracer.py``), and reports the per-layer metrics plus the tracing
overhead.  Both modes run every correctness check.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402  (perfbench/tracer.py)

#: Push size of the check replays (the stream_scale feed's own push
#: boundaries come from render.py).
PUSH_SIZE = 1000
#: Messages of the stream_scale feed replayed under reference mode.
REFERENCE_PREFIX = 2000
#: Status-poll period while the serve daemon drains its sources.
SERVE_POLL_S = 0.1
SERVE_TIMEOUT_S = 150.0
#: Bounds on the batch digest's agreement with the generator's labels.
MAX_EVENTS_PER_INCIDENT = 2.0
MIN_PURITY = 0.9


class Checks:
    """Named correctness checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: dict[str, str] = {}
        self.ok = True

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.results[name] = "ok" if ok else f"FAILED {detail}".strip()
        self.ok = self.ok and bool(ok)


def _messages(tuples):
    from repro.syslog.message import SyslogMessage

    return [
        SyslogMessage(
            timestamp=ts, router=router, error_code=code, detail=detail,
            vendor=vendor,
        )
        for ts, router, code, detail, vendor in tuples
    ]


def _load(path: str):
    with open(path, "rb") as fh:
        return pickle.load(fh)


# ------------------------------------------------------------- shared checks


def check_partition(checks: Checks, name: str, events, n: int) -> int:
    """Events' member indices are disjoint and cover 0..n-1; returns
    how many messages are not in exactly one event."""
    seen: dict[int, int] = {}
    for event in events:
        for index in event.indices:
            seen[index] = seen.get(index, 0) + 1
    doubled = sum(1 for c in seen.values() if c != 1)
    missing = sum(1 for i in range(n) if i not in seen)
    extra = sum(1 for i in seen if not 0 <= i < n)
    checks.check(
        name, doubled == missing == extra == 0,
        f"doubled={doubled} missing={missing} extra={extra}",
    )
    return doubled + missing


def check_scores(checks: Checks, name: str, events, kb) -> None:
    """Score = sum over members of 10**(level-1) / log(e + f_m) (§4.2.4)."""
    bad = 0
    for event in events:
        expect = sum(
            10.0 ** (plus.primary_location.level - 1)
            / math.log(math.e + kb.frequency(plus.router, plus.template_key))
            for plus in event.messages
        )
        if not math.isclose(event.score, expect, rel_tol=1e-9, abs_tol=1e-12):
            bad += 1
    checks.check(name, bad == 0, f"{bad} of {len(events)} events")


def canonical_fingerprint(events) -> str:
    """Order-free fingerprint over (member indices, label, score)."""
    rows = sorted((tuple(e.indices), e.label, repr(e.score)) for e in events)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def replay_stream(kb, config, messages):
    from repro.core.stream import DigestStream

    stream = DigestStream(kb, config)
    events = []
    for i in range(0, len(messages), PUSH_SIZE):
        events.extend(stream.push_many(messages[i:i + PUSH_SIZE]))
    events.extend(stream.close())
    return events


def learn_stage_seconds() -> dict[str, float]:
    """The registry's cumulative learn stage timers."""
    from repro.obs import STAGE_SECONDS, get_registry

    out = {}
    for stage in ("learn_templates", "learn_rules", "learn_fit_temporal"):
        hist = get_registry().histogram(STAGE_SECONDS, stage=stage)
        out[stage] = hist.total if hist is not None else 0.0
    return out


def per_layer(tracer: tracing.Tracer, learn: dict, overhead: float,
              extra: dict) -> dict[str, float]:
    """Every per-layer metric, from one traced round."""
    s = tracer.self_seconds
    c = tracer.counters
    augmented = c.get("admit.augmented", 0)
    metrics = {
        "admit.augment_s": s("admit.augment"),
        "admit.match_s": s("admit.match"),
        "admit.locate_s": s("admit.locate"),
        "admit.memo_hit_ratio": (
            1.0 - tracer.calls("admit.match") / augmented if augmented else 0.0
        ),
        "shard.step_s": s("shard.step"),
        "stream.rest_s": s("stream.push") + s("stream.close"),
        "stream.open_max": c.get("stream.open_max", 0),
        "stream.sweeps": (
            c.get("stream.metric_flushes", 0) - tracer.calls("stream.close")
        ),
        "finalize.score_s": s("finalize.score"),
        "batch.group_s": s("batch.group"),
        "batch.temporal_s": s("batch.temporal"),
        "batch.rule_s": s("batch.rule"),
        "batch.cross_s": s("batch.cross"),
        "learn.templates_s": learn.get("learn_templates", 0.0),
        "learn.rules_s": learn.get("learn_rules", 0.0),
        "learn.temporal_s": learn.get("learn_fit_temporal", 0.0),
        "parse.line_s": s("parse.line"),
        "tail.poll_s": s("tail.poll"),
        "ingest.push_line_s": s("ingest.push_line"),
        "checkpoint.write_s": s("checkpoint.write"),
        "checkpoint.writes": tracer.calls("checkpoint.write"),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "journal.append_s": s("journal.append"),
        "journal.sync_s": s("journal.sync"),
        "journal.bytes_per_event": 0.0,
        "rpc.calls": tracer.calls("rpc.request"),
        "rpc.wait_s": s("rpc.request"),
        "http.requests": tracer.calls("http.handler"),
        "http.handler_s": s("http.handler"),
        "trace.overhead": overhead,
        "stream.push_p50_ms": 0.0,
        "stream.push_p90_ms": 0.0,
        "http.status_p50_ms": 0.0,
        "serve.inline_msgs_per_s": 0.0,
        "serve.process_msgs_per_s": 0.0,
    }
    metrics.update(extra)
    return metrics


def rounds_until(seconds: float, run_round) -> list:
    """Run whole rounds until ``seconds`` of round time have passed."""
    out = []
    spent = 0.0
    while not out or spent < seconds:
        result = run_round()
        spent += result["wall"]
        out.append(result)
    return out


def median_wall(rounds: list) -> float:
    return statistics.median(r["wall"] for r in rounds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -------------------------------------------------------------- stream_scale


def run_stream_scale(inputs: dict, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    from repro.core.config import DigestConfig
    from repro.core.pipeline import SyslogDigest
    from repro.core.stream import DigestStream
    from repro.hotpath import reference_mode, stream_fingerprint

    t_import = time.perf_counter() - t0
    history = _load(inputs["history"])
    learn_msgs = _messages(history["history"])
    feed = _messages(inputs["feed"])
    batches = [feed[a:b] for a, b in inputs["pushes"]]

    t1 = time.perf_counter()
    system = SyslogDigest.learn(learn_msgs, history["configs"], DigestConfig())
    first = DigestStream(system.kb, system.config)
    setup_s = t_import + time.perf_counter() - t1
    learn = learn_stage_seconds()

    def one_round(stream=None) -> dict:
        stream = stream or DigestStream(system.kb, system.config)
        events = []
        lat = []
        perf = time.perf_counter
        c0 = time.process_time()
        w0 = perf()
        for batch in batches:
            a = perf()
            events.extend(stream.push_many(batch))
            lat.append(perf() - a)
        events.extend(stream.close())
        wall = perf() - w0
        return {"wall": wall, "cpu": time.process_time() - c0,
                "lat": lat, "events": events}

    # The first round pushes into the stream built during set-up.
    streams = [first]
    rounds = rounds_until(
        seconds, lambda: one_round(streams.pop() if streams else None)
    )
    rss = peak_rss_mb()

    checks = Checks()
    failed = 0
    for r in rounds:
        failed += check_partition(checks, "partition", r["events"], len(feed))
        check_scores(checks, "scores", r["events"], system.kb)
    prefix = feed[:REFERENCE_PREFIX]
    compiled = stream_fingerprint(replay_stream(system.kb, system.config, prefix))
    with reference_mode():
        reference = stream_fingerprint(
            replay_stream(system.kb, system.config, prefix)
        )
    checks.check("reference_prefix", compiled == reference)
    checks.check(
        "no_rule_pairs", not system.kb.rule_pairs(),
        f"{len(system.kb.rule_pairs())} pairs",
    )
    n = len(feed) * len(rounds)
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "msgs_per_s": len(feed) / median_wall(rounds),
            "cpu_us_per_msg": sum(r["cpu"] for r in rounds) / n * 1e6,
            "peak_rss_mb": rss,
        }
    else:
        tracer = tracing.Tracer()
        tracing.install_admit(tracer)
        tracing.install_stream(tracer)
        try:
            traced = one_round()
        finally:
            tracer.restore()
        check_partition(checks, "partition_traced", traced["events"], len(feed))
        # Push latency comes from the untraced rounds.
        lat = [x for r in rounds for x in r["lat"]]
        deciles = statistics.quantiles(lat, n=10)
        p50, p90 = deciles[4], deciles[8]
        metrics = per_layer(
            tracer, learn, traced["wall"] / median_wall(rounds) - 1.0,
            {"stream.push_p50_ms": p50 * 1e3, "stream.push_p90_ms": p90 * 1e3},
        )
        write_trace("stream_scale", tracer, traced["wall"])
    return {"attempted": n, "failed": failed, "checks": checks,
            "metrics": metrics}


def write_trace(workload: str, tracer: tracing.Tracer, wall: float) -> None:
    out = BENCH_DIR / ".work" / f"trace-{workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(tracer.table(wall), indent=2) + "\n")


# ------------------------------------------------------------ batch_cascades


def ground_truth_quality(events, label_of: dict[int, str | None]):
    """(mean digest events per incident, message-weighted purity).

    Both come from the generator's labels: an incident split across
    events raises the first; an event mixing incidents (or an incident
    with background noise) lowers the second.
    """
    events_of: dict[str, set[int]] = {}
    pure = total = 0
    for n, event in enumerate(events):
        counts: dict[str | None, int] = {}
        for plus in event.messages:
            label = label_of[id(plus.message)]
            counts[label] = counts.get(label, 0) + 1
            if label is not None:
                events_of.setdefault(label, set()).add(n)
        pure += max(counts.values())
        total += event.n_messages
    per_incident = (
        sum(len(s) for s in events_of.values()) / len(events_of)
        if events_of else 0.0
    )
    return per_incident, pure / total if total else 0.0


def run_batch_cascades(inputs: dict, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    from repro.core.config import DigestConfig
    from repro.core.pipeline import SyslogDigest
    from repro.syslog.stream import sort_messages

    t_import = time.perf_counter() - t0
    history = _load(inputs["history"])
    learn_msgs = _messages(history["history"])
    live = _messages(t for t, _label in inputs["live"])
    label_of = {
        id(m): label for m, (_t, label) in zip(live, inputs["live"])
    }

    t1 = time.perf_counter()
    system = SyslogDigest.learn(learn_msgs, history["configs"], DigestConfig())
    setup_s = t_import + time.perf_counter() - t1
    learn = learn_stage_seconds()

    def one_round() -> dict:
        c0 = time.process_time()
        w0 = time.perf_counter()
        result = system.digest(live)
        wall = time.perf_counter() - w0
        return {"wall": wall, "cpu": time.process_time() - c0,
                "result": result}

    rounds = rounds_until(seconds, one_round)
    rss = peak_rss_mb()

    checks = Checks()
    failed = 0
    for r in rounds:
        failed += check_partition(
            checks, "partition", r["result"].events, len(live)
        )
    events = rounds[0]["result"].events
    check_scores(checks, "scores", events, system.kb)
    per_incident, purity = ground_truth_quality(events, label_of)
    checks.check(
        "events_per_incident", 1.0 <= per_incident <= MAX_EVENTS_PER_INCIDENT,
        f"{per_incident:.3f}",
    )
    checks.check("purity", purity >= MIN_PURITY, f"{purity:.4f}")
    checks.check(
        "cascades_use_rules", bool(system.kb.rule_pairs()), "no rule pairs"
    )
    stream_events = replay_stream(
        system.kb, system.config, sort_messages(live)
    )
    checks.check(
        "batch_equals_stream",
        canonical_fingerprint(events) == canonical_fingerprint(stream_events),
    )
    n = len(live) * len(rounds)
    if not trace:
        metrics = {
            "setup_s": setup_s,
            "msgs_per_s": len(live) / median_wall(rounds),
            "cpu_us_per_msg": sum(r["cpu"] for r in rounds) / n * 1e6,
            "peak_rss_mb": rss,
        }
    else:
        tracer = tracing.Tracer()
        tracing.install_admit(tracer)
        tracing.install_stream(tracer)
        tracing.install_batch(tracer)
        try:
            traced = one_round()
        finally:
            tracer.restore()
        check_partition(
            checks, "partition_traced", traced["result"].events, len(live)
        )
        metrics = per_layer(
            tracer, learn, traced["wall"] / median_wall(rounds) - 1.0, {}
        )
        write_trace("batch_cascades", tracer, traced["wall"])
    return {"attempted": n, "failed": failed, "checks": checks,
            "metrics": metrics,
            "info": {"incidents": inputs["n_incidents"],
                     "events_per_incident": per_incident,
                     "purity": purity}}


# ---------------------------------------------------------- serve_placements


def http_json(port: int, path: str, method: str = "GET"):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=b"" if method == "POST" else None,
        method=method,
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


TENANT_PLACEMENT = {"net-a": "inline", "net-b": "process"}
#: With the default 0 s reorder delay the ingest drops a source's
#: second line within one second as "late" whenever another source's
#: line of that second sorted after the first (see CHANGES.md); 5 s,
#: as in the repository's chaos gate, keeps every line.
REORDER_DELAY_S = 5.0
#: http.status_p50_ms: status requests for the process-placed tenant
#: (parent event loop, then an RPC to the worker), timed only while both
#: tenants digest, so the median is taken over one kind of request.
LATENCY_TENANT = "net-b"
#: Closing lines render.py appends per tenant (two per source file).
CLOSING_LINES = 4


def serve_config(inputs: dict, workdir: Path) -> dict:
    """Two tenants; default tenant settings but placement and reorder delay."""
    return {
        "host": "127.0.0.1",
        "port": 0,
        "workdir": str(workdir),
        "once": False,
        "tenants": [
            {
                "name": name,
                "sources": [s["path"] for s in spec["sources"]],
                "workdir": str(workdir / name),
                "kb_path": spec["kb"],
                "placement": TENANT_PLACEMENT[name],
                "max_reorder_delay": REORDER_DELAY_S,
            }
            for name, spec in inputs["tenants"].items()
        ],
    }


class ServeObserver:
    """Watches a serve daemon from outside, at a low fixed rate.

    ``observe`` waits until every tenant's supervisor journal shows it
    started (``healthy``), polls ``/tenants/<id>/sources`` every
    :data:`SERVE_POLL_S` until each tenant has consumed every line
    written, pages all events, reads journals and health over HTTP, and
    finally requests the drain.
    """

    def __init__(self, inputs: dict, workdir: Path, t_start: float,
                 alive, daemon_pid: int | None = None) -> None:
        self.lines = {
            name: sum(s["lines"] for s in spec["sources"])
            for name, spec in inputs["tenants"].items()
        }
        self.workdir = workdir
        self.t_start = t_start
        self.alive = alive
        self.daemon_pid = daemon_pid
        self.out: dict = {}
        self.error: BaseException | None = None

    def _wait(self, predicate, what: str, period: float) -> None:
        deadline = time.perf_counter() + SERVE_TIMEOUT_S
        while not predicate():
            if not self.alive():
                raise RuntimeError(f"daemon exited while waiting for {what}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"timed out waiting for {what}")
            time.sleep(period)

    def _mtime(self, tenant: str, filename: str) -> float:
        return (self.workdir / tenant / filename).stat().st_mtime_ns / 1e9

    def _started(self) -> bool:
        """Every tenant's supervisor journal holds its ``healthy`` arc.

        Read from the files the supervisor fsyncs at each transition,
        not over HTTP: the event loop answers HTTP only between inline
        batches, which would add up to a batch's time to the set-up.
        """
        if not (self.workdir / "http.port").exists():
            return False
        for name in self.lines:
            path = self.workdir / name / "supervisor.jsonl"
            try:
                text = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                return False
            if '"to": "healthy"' not in text:
                return False
        return True

    def observe(self) -> None:
        try:
            self._observe()
        except BaseException as exc:  # reported by the caller
            self.error = exc
            port_file = self.workdir / "http.port"
            if self.alive() and port_file.exists():
                try:  # end the daemon rather than leave it serving
                    http_json(int(port_file.read_text()), "/drain", "POST")
                except OSError:
                    pass

    def _observe(self) -> None:
        out = self.out
        port_file = self.workdir / "http.port"
        self._wait(self._started, "tenants to start", 0.01)
        out["setup_s"] = time.perf_counter() - self.t_start
        port = int(port_file.read_text())
        # A tenant starts digesting right after its ``healthy`` arc is
        # journaled, and its last line ends with the last event-journal
        # append before the drain (the closing lines finalize every
        # event).  Both instants come from file mtimes, so HTTP latency
        # does not enter the rates.
        t_start = {
            name: self._mtime(name, "supervisor.jsonl") for name in self.lines
        }
        worker_pid = http_json(port, "/tenants/net-b/health")["worker_pid"]
        pids = [p for p in (self.daemon_pid, worker_pid) if p]
        cpu0 = sum(proc_cpu_s(p) for p in pids) if self.daemon_pid else 0.0
        done: set[str] = set()
        latencies: list[float] = []
        deadline = time.perf_counter() + SERVE_TIMEOUT_S
        tick = time.perf_counter()
        while len(done) < len(self.lines):
            if time.perf_counter() > deadline or not self.alive():
                raise RuntimeError("sources were not consumed")
            tick += SERVE_POLL_S
            time.sleep(max(0.0, tick - time.perf_counter()))
            both_busy = not done
            for name in self.lines:
                if name in done:
                    continue
                a = time.perf_counter()
                rows = http_json(port, f"/tenants/{name}/sources")
                if both_busy and name == LATENCY_TENANT:
                    latencies.append(time.perf_counter() - a)
                if sum(row["pushed"] for row in rows) >= self.lines[name]:
                    done.add(name)
        if self.daemon_pid:
            out["cpu_s"] = sum(proc_cpu_s(p) for p in pids) - cpu0
            out["rss_mb"] = sum(proc_hwm_mb(p) for p in pids)
        t_done = {name: self._mtime(name, "events.bin") for name in self.lines}
        out["rates"] = {
            name: self.lines[name] / (t_done[name] - t_start[name])
            for name in self.lines
        }
        out["consumed"] = sum(self.lines.values())
        out["wall"] = max(t_done.values()) - min(t_start.values())
        out["latencies"] = latencies
        out["tenants"] = {}
        for name in self.lines:
            events, cursor = [], 0
            while cursor is not None:
                page = http_json(
                    port, f"/tenants/{name}/events?cursor={cursor}&limit=500"
                )
                events.extend(page["events"])
                cursor = page["next_cursor"]
            out["tenants"][name] = {
                "events": events,
                "sources": http_json(port, f"/tenants/{name}/sources"),
                "journal": http_json(port, f"/tenants/{name}/journal"),
                "health": http_json(port, f"/tenants/{name}/health"),
            }
        http_json(port, "/drain", method="POST")


def payload_fingerprint(payloads) -> str:
    """Order-free fingerprint over HTTP event payloads (cursor dropped)."""
    rows = sorted(
        json.dumps({k: v for k, v in p.items() if k != "cursor"},
                   sort_keys=True)
        for p in payloads
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def reference_events(spec: dict):
    """An in-process DigestStream over the tenant's lines, in the order
    a watermark-reordering ingest releases them: by timestamp, router,
    error code, source, then position in the source."""
    from repro.core.config import DigestConfig
    from repro.core.knowledge import KnowledgeBase
    from repro.core.stream import DigestStream
    from repro.syslog.parse import parse_line

    keyed = []
    for source_index, source in enumerate(spec["sources"]):
        with open(source["path"], "r", encoding="utf-8") as fh:
            for position, line in enumerate(fh):
                message = parse_line(line)
                keyed.append((
                    (message.timestamp, message.router, message.error_code,
                     source_index, position),
                    message,
                ))
    keyed.sort(key=lambda item: item[0])
    kb = KnowledgeBase.load(spec["kb"])
    stream = DigestStream(kb, DigestConfig())
    pushed = stream.push_many([m for _k, m in keyed])
    return kb, pushed, len(keyed)


def serve_references(inputs: dict) -> dict:
    """Per tenant: (kb, reference events, payload fingerprint, lines)."""
    from repro.serve.http import event_payload

    out = {}
    for name, spec in inputs["tenants"].items():
        kb, events, n_lines = reference_events(spec)
        payloads = json.loads(json.dumps(
            [event_payload(e, i) for i, e in enumerate(events)]
        ))
        out[name] = (kb, events, payload_fingerprint(payloads), n_lines)
    return out


def check_references(checks: Checks, references: dict) -> None:
    """The in-process references partition the lines and score right."""
    for name, (kb, events, _fp, n_lines) in references.items():
        # The closing lines sort last and stay open until the drain.
        check_partition(
            checks, f"{name}.reference_partition", events,
            n_lines - CLOSING_LINES,
        )
        check_scores(checks, f"{name}.scores", events, kb)


def check_serve(checks: Checks, inputs: dict, references: dict,
                seen: dict) -> int:
    """Every check on one served round; returns how many lines failed."""
    failed = 0
    for name, spec in inputs["tenants"].items():
        got = seen["tenants"][name]
        rows = {row["source"]: row for row in got["sources"]}
        for source in spec["sources"]:
            row = rows.get(source["path"], {})
            pushed = row.get("pushed", 0)
            failed += abs(source["lines"] - pushed)
            checks.check(
                f"{name}.arrivals", pushed == source["lines"],
                f"{source['path']}: {pushed} of {source['lines']}",
            )
            dropped = sum(
                row.get(k, 0) for k in (
                    "late_dropped", "deduplicated", "parse_failures",
                    "breaker_rejected", "admission_shed",
                )
            )
            checks.check(f"{name}.admitted", dropped == 0, f"{dropped}")
        stream_health = got["health"]["stream"]
        checks.check(
            f"{name}.quarantine", stream_health["quarantine_total"] == 0,
            f"{stream_health['quarantine_total']}",
        )
        bad = [
            entry for entry in got["journal"]["supervisor"]
            if entry.get("to") in ("restarting", "degraded", "failed")
            or "kind" in entry
        ] + got["journal"]["breaker"]
        checks.check(f"{name}.journal", not bad, json.dumps(bad)[:200])
        _kb, _events, fingerprint, n_lines = references[name]
        n_measured = n_lines - CLOSING_LINES
        served = sum(p["n_messages"] for p in got["events"])
        checks.check(
            f"{name}.served_covers", served == n_measured,
            f"{served} of {n_measured}",
        )
        checks.check(
            f"{name}.matches_reference",
            payload_fingerprint(got["events"]) == fingerprint,
        )
    return failed


def run_serve_placements(inputs: dict, seconds: float, trace: bool) -> dict:
    run_dir = Path(inputs["run_dir"])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")

    def one_round(n: int) -> dict:
        workdir = run_dir / f"serve-{n}"
        shutil.rmtree(workdir, ignore_errors=True)
        config_path = run_dir / f"serve-{n}.json"
        config_path.write_text(json.dumps(serve_config(inputs, workdir)))
        log = open(run_dir / f"serve-{n}.stderr", "wb")
        t_start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--config", str(config_path)],
            cwd=str(ROOT), env=env,
            stdout=subprocess.DEVNULL, stderr=log,
        )
        try:
            observer = ServeObserver(
                inputs, workdir, t_start, lambda: proc.poll() is None,
                daemon_pid=proc.pid,
            )
            observer.observe()
            if observer.error is not None:
                raise RuntimeError(f"serve round failed: {observer.error}")
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            log.close()
        seen = observer.out
        seen["exit_code"] = code
        return seen

    def in_process_round(tag: str) -> dict:
        """The daemon on this process's main thread, via run_daemon."""
        from repro.serve import ServeConfig, run_daemon

        workdir = run_dir / f"serve-{tag}"
        shutil.rmtree(workdir, ignore_errors=True)
        config = ServeConfig.from_dict(serve_config(inputs, workdir))
        stopped = threading.Event()
        observer = ServeObserver(
            inputs, workdir, time.perf_counter(),
            lambda: not stopped.is_set(),
        )
        thread = threading.Thread(target=observer.observe, daemon=True)
        thread.start()
        try:
            code = run_daemon(config)
        finally:
            stopped.set()
            thread.join(timeout=SERVE_TIMEOUT_S)
        if observer.error is not None:
            raise RuntimeError(f"serve round failed: {observer.error}")
        seen = observer.out
        seen["exit_code"] = code
        seen["workdir"] = workdir
        return seen

    checks = Checks()
    references = serve_references(inputs)
    check_references(checks, references)
    lines = sum(n for *_rest, n in references.values())
    if not trace:
        counter = itertools.count()
        rounds = rounds_until(seconds, lambda: one_round(next(counter)))
    else:
        from repro.serve.journal import EventJournal
        from repro.serve.tenant import EVENTS_FILE

        rounds = [in_process_round("untraced")]
        tracer = tracing.Tracer()
        tracing.install_admit(tracer)
        tracing.install_stream(tracer)
        tracing.install_serve(tracer)
        try:
            traced = in_process_round("traced")
        finally:
            tracer.restore()
        rounds.append(traced)
        journal_path = traced["workdir"] / "net-a" / EVENTS_FILE
        journal = EventJournal(journal_path)
        try:
            n_journaled = len(journal)
        finally:
            journal.close()
        untraced = rounds[0]
        metrics = per_layer(
            tracer, {}, traced["wall"] / untraced["wall"] - 1.0,
            {
                "journal.bytes_per_event":
                    journal_path.stat().st_size / max(1, n_journaled),
                "serve.inline_msgs_per_s": untraced["rates"]["net-a"],
                "serve.process_msgs_per_s": untraced["rates"]["net-b"],
                "http.status_p50_ms":
                    statistics.median(untraced["latencies"]) * 1e3,
            },
        )
        write_trace("serve_placements", tracer, traced["wall"])
    failed = 0
    for r in rounds:
        checks.check("daemon_exit_0", r["exit_code"] == 0, f"{r['exit_code']}")
        failed += check_serve(checks, inputs, references, r)
    info = {
        "inline_msgs_per_s": statistics.median(r["rates"]["net-a"] for r in rounds),
        "process_msgs_per_s": statistics.median(r["rates"]["net-b"] for r in rounds),
        "rounds": len(rounds),
    }
    if not trace:
        metrics = {
            # Every round spawns a new daemon, so each is a cold start.
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "msgs_per_s": statistics.median(
                r["consumed"] / r["wall"] for r in rounds
            ),
            "cpu_us_per_msg": sum(r["cpu_s"] for r in rounds)
            / sum(r["consumed"] for r in rounds) * 1e6,
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        }
    return {"attempted": lines * len(rounds), "failed": failed,
            "checks": checks, "metrics": metrics, "info": info}


# ---------------------------------------------------------------- entry


WORKLOADS = {
    "stream_scale": run_stream_scale,
    "batch_cascades": run_batch_cascades,
    "serve_placements": run_serve_placements,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    inputs = _load(str(Path(args.inputs) / "inputs.pkl"))
    inputs["run_dir"] = args.inputs
    outcome = WORKLOADS[args.workload](
        inputs, args.seconds, bool(args.trace)
    )
    checks = outcome["checks"]
    result = {
        "correct": checks.ok,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
        "checks": checks.results,
        "info": outcome.get("info", {}),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
