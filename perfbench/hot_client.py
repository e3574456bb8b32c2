"""Load generator of serve_hot_tcp: closed-loop JSON-lines TCP clients.

Usage: ``python3 perfbench/hot_client.py --port P --seed N --round R --seconds S``

Holds :data:`hot_inputs.CONNECTIONS` connections; each sends its next
request only after the previous reply arrived.  Requests are hot clouds
(Zipf over :data:`hot_inputs.HOT_CLOUDS`) with probability
:data:`hot_inputs.HOT_SHARE`, else clouds never sent before.  Load runs in
bursts of :data:`common.STRETCH_S`; between bursts nothing is in flight and
the host probe runs.  Prints one JSON object: per-request latencies, the burst
intervals, error counts, probe times and the logits received per cloud.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

common.limit_blas_threads()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import hot_inputs  # noqa: E402

#: Unmeasured load before the first burst (connection and first-call costs).
WARMUP_S = 0.3
#: Unique clouds whose replies are kept for the output check.
CHECKED_UNIQUE = 32


class LoadGenerator:
    def __init__(self, seed: int, round_index: int):
        self.seed = seed
        self.round_index = round_index
        self.hot_lines = [hot_inputs.request_line(cloud) for cloud in hot_inputs.hot_clouds(seed)]
        rng = np.random.default_rng([seed, 3, round_index])
        weights = 1.0 / np.arange(1, hot_inputs.HOT_CLOUDS + 1) ** hot_inputs.ZIPF_EXPONENT
        draws = 1 << 18
        self._hot = rng.choice(hot_inputs.HOT_CLOUDS, size=draws, p=weights / weights.sum()).tolist()
        self._is_hot = (rng.random(draws) < hot_inputs.HOT_SHARE).tolist()
        self._next = 0
        self._unique = 0
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.errors: collections.Counter = collections.Counter()
        self.hot_logits: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
        self.unique_logits: list[tuple[int, list[float]]] = []

    def reset(self) -> None:
        """Forget everything the warm-up measured."""
        self.latencies_ms.clear()
        self.attempted = 0
        self.errors.clear()
        self.hot_logits.clear()
        self.unique_logits.clear()

    def _request(self) -> tuple[int, bytes]:
        """``(cloud id, line)``: a hot index, or ``-n`` for the n-th unique cloud."""
        position = self._next % len(self._hot)
        self._next += 1
        if self._is_hot[position]:
            index = self._hot[position]
            return index, self.hot_lines[index]
        self._unique += 1
        cloud = hot_inputs.unique_cloud(self.seed, self.round_index, self._unique)
        return -self._unique, hot_inputs.request_line(cloud)

    async def _drive(self, reader, writer, deadline: float) -> None:
        while time.perf_counter() < deadline:
            cloud_id, line = self._request()
            started = time.perf_counter()
            writer.write(line)
            await writer.drain()
            reply = await reader.readline()
            finished = time.perf_counter()
            self.attempted += 1
            if not reply:
                raise ConnectionError("server closed the connection")
            message = json.loads(reply)
            if not message.get("ok"):
                self.errors[message.get("error", "unknown")] += 1
                continue
            self.latencies_ms.append((finished - started) * 1e3)
            if cloud_id >= 0:
                self.hot_logits[cloud_id][tuple(message["logits"])] += 1
            elif len(self.unique_logits) < CHECKED_UNIQUE:
                self.unique_logits.append((-cloud_id, message["logits"]))

    async def run(self, port: int, seconds: float, probe: common.Probe) -> list[tuple[float, float]]:
        connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(hot_inputs.CONNECTIONS)]
        bursts: list[tuple[float, float]] = []
        active = 0.0
        try:
            warmup_end = time.perf_counter() + WARMUP_S
            await asyncio.gather(*(self._drive(reader, writer, warmup_end) for reader, writer in connections))
            self.reset()
            probe.run()
            while active < seconds:
                start = time.perf_counter()
                deadline = start + min(common.STRETCH_S, seconds - active)
                await asyncio.gather(*(self._drive(reader, writer, deadline) for reader, writer in connections))
                end = time.perf_counter()
                bursts.append((start, end))
                active += end - start
                probe.run()
        finally:
            for _, writer in connections:
                writer.close()
                await writer.wait_closed()
        return bursts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    generator = LoadGenerator(args.seed, args.round)
    with common.Probe() as probe:
        bursts = asyncio.run(generator.run(args.port, args.seconds, probe))
    print(
        json.dumps(
            {
                "latencies_ms": generator.latencies_ms,
                "bursts": bursts,
                "attempted": generator.attempted,
                "errors": dict(generator.errors),
                "probe_ms": probe.samples_ms,
                "probe_components": probe.components,
                "hot": {index: [[list(logits), count] for logits, count in counter.items()]
                        for index, counter in generator.hot_logits.items()},
                "unique": generator.unique_logits,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
