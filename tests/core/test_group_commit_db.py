"""Group commit at the database layer -- the engine's only one.

Concurrent committers stage under the write lock and one leader syncs
both devices for the whole batch.  Covered here: the env-flag default,
parity with serial commits (bytes, counters, and recovery from a kill
at every point of either device's sync), concurrent committers all
reaching durability, a failed leader round surfacing and then retrying,
and in-transaction commits staying on the inline path.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.database import EncipheredDatabase
from repro.crypto.rsa import RSA, generate_rsa_keypair
from repro.designs.difference_sets import planar_difference_set
from repro.storage.backend import FileBackend, MemoryBackend

DESIGN = planar_difference_set(13)
KEYPAIR = generate_rsa_keypair(bits=128, rng=random.Random(0x9C))


def fresh_parts():
    from repro.substitution.oval import OvalSubstitution

    return OvalSubstitution(DESIGN, t=5), RSA(KEYPAIR)


def make_db(backend, **kwargs):
    sub, rsa = fresh_parts()
    return EncipheredDatabase.create(sub, rsa, backend=backend, **kwargs)


def reopen_db(backend, **kwargs):
    sub, rsa = fresh_parts()
    return EncipheredDatabase.reopen_from_backend(sub, rsa, backend, **kwargs)


def backend_at(tmp_path):
    return FileBackend(tmp_path / "db", fsync=False)


class Kill(Exception):
    pass


class TestDefaults:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_GROUP_COMMIT", raising=False)
        db = make_db(MemoryBackend())
        assert db.config.group_commit is False

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "1")
        assert make_db(MemoryBackend()).config.group_commit is True

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "0")
        assert make_db(MemoryBackend()).config.group_commit is False

    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GROUP_COMMIT", "1")
        assert make_db(MemoryBackend(), group_commit=False).config.group_commit is False

    def test_stats_surface(self, tmp_path):
        db = make_db(backend_at(tmp_path), group_commit=True, autocommit=False)
        db.insert(1, b"x")
        db.commit()
        s = db.stats()
        assert s["commit_group"]["rounds"] >= 1
        assert s["commit_group"]["joins"] >= 0
        assert set(s["cipher_kernel"]) == {"vector_calls", "fast_calls"}
        db.close()


class TestParityWithSerial:
    def workload(self, db):
        for k in range(0, 90, 3):
            db.insert(k, f"rec-{k}".encode())
        db.commit()
        for k in range(0, 90, 9):
            db.delete(k)
        db.commit()

    def test_single_threaded_bytes_and_counters_match(self, tmp_path):
        outcomes = {}
        for name, group in (("serial", False), ("grouped", True)):
            backend = FileBackend(tmp_path / name, fsync=False)
            db = make_db(backend, autocommit=False, group_commit=group)
            self.workload(db)
            snap = db.stats()["durability"]
            outcomes[name] = {
                "node_bytes": db.disk.raw_blocks(),
                "record_bytes": db.records.disk.raw_blocks(),
                "node_syncs": snap["node"]["syncs"],
                "node_frames": snap["node"]["wal_frames"],
                "record_syncs": snap["records"]["syncs"],
            }
            db.close()
        assert outcomes["grouped"] == outcomes["serial"]


class TestSingleThreadedParity:
    def test_grouped_rounds_counted(self, tmp_path):
        # alone, every committer is its own leader: one round per commit
        # and nobody ever waits out another thread's round
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=True)
        before = db.stats()["commit_group"]["rounds"]
        for i in range(3):
            db.insert(i, b"r")
            db.commit()
        group = db.stats()["commit_group"]
        assert group["rounds"] - before == 3
        assert group["joins"] == 0
        db.close()

    def test_sequential_control_pays_per_commit(self, tmp_path):
        # the serial path syncs inline and never touches the group
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=False)
        before = db.stats()["durability"]["node"]["syncs"]
        for i in range(3):
            db.insert(i, b"r")
            db.commit()
        stats = db.stats()
        assert stats["durability"]["node"]["syncs"] - before == 3
        assert stats["commit_group"] == {"rounds": 0, "joins": 0}
        db.close()


class TestCrashMatrixParity:
    """Kill a grouped commit at every fault point of either device's
    sync; recovery must match a serial-commit control killed at the same
    point -- same at-rest bytes on both platters, same WAL repair work."""

    POINTS = (
        "sync:start",
        "wal:appended",
        "apply:block",
        "apply:done",
        "header:flipped",
    )

    def _killed_survivor(self, tmp_path, name, device, point, group_commit):
        db = make_db(
            FileBackend(tmp_path / name, fsync=False),
            autocommit=False,
            group_commit=group_commit,
        )
        for k in range(0, 90, 3):
            db.insert(k, f"base-{k}".encode())
        db.commit()
        for k in range(1, 45, 3):
            db.insert(k, f"late-{k}".encode())
        for k in range(0, 90, 9):
            db.delete(k)

        def bomb(p):
            if p == point:
                raise Kill

        target = db.disk if device == "node" else db.records.disk
        target.fault_hook = bomb
        with pytest.raises(Kill):
            db.commit()
        db.disk.abandon()
        db.records.disk.abandon()
        return reopen_db(FileBackend(tmp_path / name, fsync=False))

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("device", ("node", "records"))
    def test_recovery_matches_serial_control(self, tmp_path, device, point):
        grouped = self._killed_survivor(tmp_path, "grouped", device, point, True)
        control = self._killed_survivor(tmp_path, "control", device, point, False)
        grouped.tree.check_invariants()
        assert grouped.disk.raw_blocks() == control.disk.raw_blocks()
        assert grouped.records.disk.raw_blocks() == control.records.disk.raw_blocks()
        g = grouped.stats()["durability"]
        c = control.stats()["durability"]
        for dev in ("node", "records"):
            for counter in ("frames_replayed", "blocks_repaired"):
                assert g[dev][counter] == c[dev][counter]
        grouped.close()
        control.close()


class TestConcurrentCommitters:
    def test_all_committers_durable_after_reopen(self, tmp_path):
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=True)
        barrier = threading.Barrier(8)
        errors = []

        def committer(i):
            try:
                barrier.wait()
                db.insert(i, f"thread-{i}".encode())
                db.commit()
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        rounds = db.stats()["commit_group"]["rounds"]
        assert 1 <= rounds <= 8
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        for i in range(8):
            assert db2.search(i) == f"thread-{i}".encode()
        db2.close()


class TestFailedRound:
    def test_error_surfaces_then_the_next_commit_retries(self, tmp_path):
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=True)
        db.insert(1, b"x")
        db.commit()

        def bomb(point):
            if point == "sync:start":
                raise Kill

        db.disk.fault_hook = bomb
        db.insert(2, b"y")
        with pytest.raises(Kill):
            db.commit()  # the leader's round fails; the error reaches us
        db.disk.fault_hook = None
        db.commit()  # a fresh round covers the staged work
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(1) == b"x"
        assert db2.search(2) == b"y"
        db2.close()


class TestTransactionsStaySerial:
    def test_commit_inside_transaction_syncs_inline(self, tmp_path):
        # a thread holding the write lock can never wait on a leader
        # that needs it: the in-transaction commit path must not stage
        db = make_db(backend_at(tmp_path), autocommit=False, group_commit=True)
        before = db.stats()["commit_group"]["rounds"]
        with db.transaction():
            db.insert(3, b"t")
            db.commit()  # explicit mid-transaction commit point
        assert db.stats()["commit_group"]["rounds"] == before
        assert db.stats()["durability"]["node"]["syncs"] >= 1
        db.close()
        db2 = reopen_db(backend_at(tmp_path))
        assert db2.search(3) == b"t"
        db2.close()
