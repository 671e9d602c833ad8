"""A served session, driven over the JSON-lines TCP endpoint.

Starts a two-shard :class:`~repro.serve.SimService` behind
:func:`~repro.serve.serve_tcp` on a free port, then talks to it as an
out-of-process client would: one JSON request per line, one JSON reply
per line. The session is created, stepped, migrated to the other shard
and stepped again; its final digest must equal that of a local
``Session`` twin that never left this process.

Usage: PYTHONPATH=src python examples/tcp_client.py
"""

import asyncio
import json

from repro.api import Session, SessionSpec
from repro.serve import SimService, protocol, serve_tcp, shard_for

SPEC = SessionSpec("ragdoll", scale=0.05, seed=7, backend="numpy")
FRAMES = (4, 4)  # stepped before and after the migration


async def served_digest():
    async with SimService.start(n_shards=2) as service:
        server = await serve_tcp(service, "127.0.0.1", 0)  # a free port
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        sent = []

        async def call(verb, **args):
            sent.append(verb)
            line = {"req_id": len(sent), "verb": verb,
                    "session_id": "demo", "args": args}
            writer.write(json.dumps(line).encode("utf-8") + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["req_id"] == len(sent), reply
            return protocol.raise_if_error(reply)

        try:
            await call("create", spec=SPEC.to_dict())
            await call("step", frames=FRAMES[0])
            target = 1 - shard_for("demo", 2)
            moved = await call("migrate", target_shard=target)
            assert moved["shard_id"] == target, moved
            await call("step", frames=FRAMES[1])
            return await call("query")
        finally:
            writer.close()
            server.close()
            await server.wait_closed()


def main():
    status = asyncio.run(served_digest())
    twin = Session.create(SPEC)
    twin.step(sum(FRAMES))
    assert status["frame_index"] == sum(FRAMES), status
    assert status["digest"] == twin.state_digest(), "served run diverged"
    print(f"OK: {SPEC.scenario} served over TCP, migrated once, "
          f"{status['frame_index']} frames, digest "
          f"{status['digest'][:12]}... matches the local twin")


if __name__ == "__main__":
    main()
