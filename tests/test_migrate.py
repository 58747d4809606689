"""``forkbase migrate``: legacy FileStore directories stay readable.

``fixtures/legacy_filestore`` is a small engine directory (three legacy
segments, four heads, a CSV table) written by the retired FileStore;
``fixtures/legacy_filestore.json`` records its heads and chunk uids as
that store reported them.  Migration must reproduce both exactly.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.api.cli import main as cli_main
from repro.chunk import Chunk, ChunkType
from repro.db import ForkBase
from repro.errors import EngineError
from repro.store.migrate import migrate_legacy
from tests.legacy_layout import write_legacy

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def legacy_dir(tmp_path):
    directory = str(tmp_path / "db")
    shutil.copytree(os.path.join(FIXTURES, "legacy_filestore"), directory)
    return directory


@pytest.fixture
def expected():
    with open(os.path.join(FIXTURES, "legacy_filestore.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_unmigrated_directory_is_refused(legacy_dir, capsys):
    with pytest.raises(EngineError, match="forkbase migrate"):
        ForkBase.open(legacy_dir)
    assert cli_main(["--data-dir", legacy_dir, "list"]) == 1
    assert "forkbase migrate" in capsys.readouterr().err


def test_migrate_preserves_heads_and_chunks(legacy_dir, expected, capsys):
    assert cli_main(["migrate", legacy_dir]) == 0
    assert "3 legacy segment(s)" in capsys.readouterr().out
    chunk_dir = os.path.join(legacy_dir, "chunks")
    assert sorted(os.listdir(chunk_dir)) == ["pack-index.dat", "packs"]
    with ForkBase.open(legacy_dir) as engine:
        heads = {f"{k}@{b}": h.base32() for k, b, h in engine.branch_table.all_heads()}
        assert heads == expected["heads"]
        assert sorted(u.base32() for u in engine.store.ids()) == expected["uids"]
        for key, branch, _ in engine.branch_table.all_heads():
            assert engine.verify(key, branch).ok
        assert engine.get_value("doc", branch="dev")[b"only"] == b"dev"


def test_migrate_twice_is_refused(legacy_dir):
    migrate_legacy(legacy_dir)
    with pytest.raises(EngineError):
        migrate_legacy(legacy_dir)


def test_swept_records_return_as_garbage(legacy_dir, expected, capsys):
    """Bytes the old index had dropped come back unreachable; gc reclaims."""
    orphan = Chunk(ChunkType.BLOB, b"swept by the old store")
    write_legacy(legacy_dir, [orphan], index=False)
    summary = migrate_legacy(legacy_dir)
    assert f"{len(expected['uids']) + 1} new chunk(s)" in summary
    with ForkBase.open(legacy_dir) as engine:
        assert engine.store.has(orphan.uid)
    assert cli_main(["--data-dir", legacy_dir, "gc"]) == 0
    with ForkBase.open(legacy_dir) as engine:
        assert not engine.store.has(orphan.uid)
        assert sorted(u.base32() for u in engine.store.ids()) == expected["uids"]
