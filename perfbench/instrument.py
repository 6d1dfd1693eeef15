"""Wrappers around each layer's public entry points, installed from outside.

The program is not edited: :func:`instrumented` replaces the listed
methods on their classes for the duration of a ``with`` block and puts
the originals back on exit.  Layer names are the ``src/repro`` modules
the methods live in.  ``ThreadPoolExecutor.submit`` is wrapped too, so
that shard work a cluster call hands to its pool threads is recorded as
that call's children.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.btree.tree import BTree
from repro.cluster.sharded import ShardedEncipheredDatabase
from repro.core.codecs import SubstitutedNodeCodec
from repro.core.database import EncipheredDatabase
from repro.core.records import RecordStore
from repro.crypto.des import DES
from repro.crypto.rsa import RSA
from repro.storage.device import BlockDevice
from repro.storage.pager import Pager
from repro.storage.platter import FilePlatter
from repro.storage.rwlock import ReadWriteLock
from repro.substitution.base import KeySubstitution

from perfbench.tracer import Tracer

CLUSTER = "cluster"
DATABASE = "core.database"

#: ``(layer, class, methods)``: the entry points a traced run wraps.
ENTRY_POINTS = (
    (CLUSTER, ShardedEncipheredDatabase,
     ("get", "search", "get_many", "range_search", "insert", "delete",
      "put_many", "delete_many", "commit")),
    (DATABASE, EncipheredDatabase,
     ("get", "search", "range_search", "insert", "delete", "put_many",
      "delete_many", "commit")),
    ("storage.rwlock", ReadWriteLock, ("acquire_read", "acquire_write")),
    ("btree", BTree, ("search", "contains", "range_search", "insert", "delete")),
    ("core.codecs", SubstitutedNodeCodec, ("encode", "decode")),
    ("substitution", KeySubstitution, ("substitute", "invert")),
    ("crypto.rsa", RSA, ("encrypt_int", "decrypt_int")),
    ("crypto.des", DES,
     ("encrypt_block", "decrypt_block", "encrypt_blocks", "decrypt_blocks")),
    ("core.records", RecordStore, ("get", "put", "delete")),
    ("storage.pager", Pager, ("read", "write", "flush")),
    ("storage.device", BlockDevice,
     ("read_block", "read_many", "write_block", "write_many", "sync")),
    ("storage.platter", FilePlatter, ("sync",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


def _one_block(args) -> int:
    return 1


def _des_blocks(args) -> int:
    """8-byte blocks a ``DES.*_block(s)`` call ciphers."""
    data = args[1]
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data) // DES.block_size
    return len(data)


def _tagger(cls, method: str, shard_numbers: dict[int, int]):
    if cls is DES:
        return _one_block if method.endswith("_block") else _des_blocks
    if cls is EncipheredDatabase:
        # shard numbers start at 1: tag 0 means "no tag"
        return lambda args: shard_numbers.setdefault(id(args[0]), len(shard_numbers) + 1)
    return None


@contextmanager
def instrumented(tracer: Tracer, layers=None):
    """Install span wrappers for the ``with`` body.

    ``layers`` limits the wrappers to the named layers; ``None`` wraps
    every entry point.
    """
    shard_numbers: dict[int, int] = {}
    saved = []
    for layer, cls, methods in ENTRY_POINTS:
        if layers is not None and layer not in layers:
            continue
        for method in methods:
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            tag = _tagger(cls, method, shard_numbers)
            setattr(cls, method, tracer.wrap(tracer.kind(layer, method), original, tag))
    submit = ThreadPoolExecutor.submit

    def submit_in_context(pool, fn, /, *args, **kwargs):
        context = tracer.current()
        if context is None:
            return submit(pool, fn, *args, **kwargs)
        return submit(pool, tracer.call_in_context, context, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context
    try:
        yield
    finally:
        ThreadPoolExecutor.submit = submit
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)

