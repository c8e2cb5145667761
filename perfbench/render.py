"""Render a workload's inputs before any clock starts.

Run as ``python3 perfbench/render.py --workload W --seed N --out DIR``
from the repository root, with ``src`` on ``PYTHONPATH`` and a fixed
``PYTHONHASHSEED``.  It writes ``DIR/inputs.pkl``, a dict of plain
tuples, strings and file paths that ``measure.py`` hands to the program.

The seed varies only the measured feed.  Networks, learning histories
and the knowledge bases the serve daemon loads are fixed per workload,
so they are rendered once and cached under ``.work/cache/<key>``, where
the key hashes the program's source and this file: a changed program
never runs on a stale knowledge base.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import shutil
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
CACHE_DIR = WORK_DIR / "cache"

#: stream_scale: the backbone and the full-density message rate.
SCALE_ROUTERS = 1000
SCALE_PER_DAY = 1_000_000
SCALE_NETWORK_SEED = 7
SCALE_LEARN_MESSAGES = 30_000
#: 3.6 h of message time at 1M msgs/day: past the 3 h flush horizon.
SCALE_FEED_MESSAGES = 150_000
SCALE_FEED_SALT = 0x5EED0001

#: Messages per DigestStream.push_many call; below the CLI's 2048 so
#: most pushes do not run a finalize sweep and the median push is the
#: common case, not a blend of two modes.
PUSH_SIZE = 1000

#: netsim dataset scale for batch_cascades and serve_placements.
DATASET_SCALE = 0.25
BATCH_ONLINE_DAYS = 14
BATCH_ENGINE_SEED = 1001
SERVE_ONLINE_DAYS = 7
#: The serve feeds are fixed windows: with a new window per seed the
#: per-line cost moved by up to 2x between seeds (checkpoint size
#: follows the open state), so the seed only re-splits the routers.
SERVE_ENGINE_SEEDS = {"A": 2001, "B": 3001}


def source_key() -> str:
    """Hash of the program's source and of this renderer."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files.append(Path(__file__).resolve())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _msg_tuple(message) -> tuple:
    return (
        message.timestamp,
        message.router,
        message.error_code,
        message.detail,
        message.vendor,
    )


def _cached(name: str, build) -> Path:
    """Directory holding ``build(dir)``'s output for this source key.

    Built into a temporary directory and renamed, so an interrupted
    render never leaves a half-written cache entry behind; entries of
    other source keys are removed, which bounds the cache's size.
    """
    key = source_key()
    final = CACHE_DIR / f"{name}-{key}"
    if final.is_dir():
        return final
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    for stale in CACHE_DIR.glob(f"{name}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = CACHE_DIR / f".tmp-{name}-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    os.replace(tmp, final)
    return final


# ------------------------------------------------------------ stream_scale


def _scale_generator():
    from repro.netsim.scale import ScaleGenerator, ScaleSpec

    return ScaleGenerator(
        ScaleSpec(
            n_routers=SCALE_ROUTERS,
            n_messages=SCALE_PER_DAY,
            duration_days=1.0,
            seed=SCALE_NETWORK_SEED,
        )
    )


def _build_scale_history(out: Path) -> None:
    gen = _scale_generator()
    history = [
        _msg_tuple(m) for m in gen.learning_messages(SCALE_LEARN_MESSAGES)
    ]
    with open(out / "history.pkl", "wb") as fh:
        pickle.dump({"history": history, "configs": gen.configs()}, fh)


def render_stream_scale(seed: int, out: Path) -> dict:
    """The fixed full-density feed; the seed sets the push phase.

    The first push carries ``1 + seed % PUSH_SIZE`` messages and every
    later one ``PUSH_SIZE``, so the seed moves where push boundaries
    fall against the finalize sweeps.  A new feed per seed moved the
    median push time by 10% between seeds.
    """
    history_dir = _cached("scale-history", _build_scale_history)
    gen = _scale_generator()
    # The spec spreads 1M messages over one day; the first N of that
    # stream keep its full density.
    feed = [
        _msg_tuple(m)
        for m in islice(gen.stream(seed_salt=SCALE_FEED_SALT),
                        SCALE_FEED_MESSAGES)
    ]
    first = 1 + seed % PUSH_SIZE
    bounds = [0, *range(first, len(feed), PUSH_SIZE), len(feed)]
    return {
        "history": str(history_dir / "history.pkl"),
        "feed": feed,
        "pushes": list(zip(bounds, bounds[1:])),
    }


# ---------------------------------------------------------- netsim datasets


def _dataset(name: str):
    from repro.netsim.datasets import dataset_a, dataset_b, generate_dataset

    spec = dataset_a() if name == "A" else dataset_b()
    return generate_dataset(spec, scale=DATASET_SCALE)


def _history(instance):
    from repro.netsim.datasets import LEARNING_DAYS, LEARNING_START

    return instance.generate(LEARNING_START, LEARNING_DAYS)


def _live(instance, engine_seed: int, days: int):
    """An online window on the dataset's network, drawn with its own seed."""
    from repro.netsim.datasets import LEARNING_START, ONLINE_START
    from repro.netsim.generator import WorkloadEngine
    from repro.utils.timeutils import DAY

    engine = WorkloadEngine(
        network=instance.network, mix=instance.spec.mix, seed=engine_seed
    )
    return engine.generate(ONLINE_START, days * DAY, LEARNING_START)


def _build_batch_history(out: Path) -> None:
    instance = _dataset("A")
    history = [_msg_tuple(m.message) for m in _history(instance).messages]
    with open(out / "history.pkl", "wb") as fh:
        pickle.dump(
            {"history": history, "configs": list(instance.configs.values())},
            fh,
        )


def render_batch_cascades(seed: int, out: Path) -> dict:
    """The fixed two-week window, handed over in a seed-shuffled order.

    ``SyslogDigest.digest`` sorts its input, so the order changes the
    work only by that sort.  A new window per seed moved the digest
    rate by 20% between seeds with its cascade mix.
    """
    import random

    history_dir = _cached("batch-history", _build_batch_history)
    live = _live(_dataset("A"), BATCH_ENGINE_SEED, BATCH_ONLINE_DAYS)
    rows = [(_msg_tuple(m.message), m.event_id) for m in live.messages]
    random.Random(seed).shuffle(rows)
    return {
        "history": str(history_dir / "history.pkl"),
        "live": rows,
        "n_incidents": len(live.incidents),
    }


def _build_serve_kbs(out: Path) -> None:
    from repro.core.pipeline import SyslogDigest

    for name in ("A", "B"):
        instance = _dataset(name)
        system = SyslogDigest.learn(
            _history(instance).raw_messages(), list(instance.configs.values())
        )
        system.kb.save(out / f"kb-{name}.json")


def render_serve_placements(seed: int, out: Path) -> dict:
    """Two tenants, two source files each, plus two closing lines.

    Each tenant's feed is a fixed online window of its dataset; the seed
    decides which of the dataset's routers go to which of the tenant's
    two collector files.  Every file ends with two copies of its last
    line, stamped one day and one day plus a minute after the tenant's
    last line.  Once both files' second copies arrive, the ingest
    watermark (a few seconds behind the slowest file) releases the
    first copies, which move the stream clock past the flush horizon:
    every event over the measured lines is finalized while the daemon
    still answers HTTP.
    """
    import random

    from repro.syslog.parse import format_line
    from repro.utils.timeutils import DAY

    kb_dir = _cached("serve-kbs", _build_serve_kbs)
    tenants = {}
    for tenant, name, engine_seed in (
        ("net-a", "A", SERVE_ENGINE_SEEDS["A"]),
        ("net-b", "B", SERVE_ENGINE_SEEDS["B"]),
    ):
        instance = _dataset(name)
        live = _live(instance, engine_seed, SERVE_ONLINE_DAYS)
        routers = sorted(instance.network.routers)
        random.Random(f"{seed}:{tenant}").shuffle(routers)
        side_of = {r: i % 2 for i, r in enumerate(routers)}
        files: list[list[str]] = [[], []]
        last = [None, None]
        for labeled in live.messages:
            side = side_of[labeled.message.router]
            files[side].append(format_line(labeled.message))
            last[side] = labeled.message
        sources = []
        end = max(m.timestamp for m in last)
        for side in (0, 1):
            for later in (DAY, DAY + 60.0):
                files[side].append(
                    format_line(replace(last[side], timestamp=end + later))
                )
            path = out / f"{tenant}-{side + 1}.log"
            path.write_text("\n".join(files[side]) + "\n", encoding="utf-8")
            sources.append({"path": str(path), "lines": len(files[side])})
        tenants[tenant] = {
            "kb": str(kb_dir / f"kb-{name}.json"),
            "sources": sources,
        }
    return {"tenants": tenants}


RENDERERS = {
    "stream_scale": render_stream_scale,
    "batch_cascades": render_batch_cascades,
    "serve_placements": render_serve_placements,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RENDERERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = RENDERERS[args.workload](args.seed, out)
    with open(out / "inputs.pkl", "wb") as fh:
        pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
