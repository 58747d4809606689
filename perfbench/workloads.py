"""The four workloads.

Each one is a single closed-loop client in this process.  Inputs come
only from ``repro.workloads`` generators seeded by ``--seed``; every
result is compared with a plain-Python model outside the timed call.
"""

from __future__ import annotations

import bisect
import csv
import os
import random
import shutil
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import ClusterStore
from repro.db.engine import ForkBase
from repro.table.dataset import DataTable
from repro.vcs.branches import DEFAULT_BRANCH
from repro.workloads import (
    ZipfSampler,
    generate_rows,
    make_edit_script,
    mutate_csv_one_word,
    rows_to_csv,
)
from repro.workloads.csvgen import SALES_COLUMNS

from perfbench.measure import Recorder
from perfbench.spec import CLUSTER_SETTINGS, ENGINE_SETTINGS

MASTER = DEFAULT_BRANCH
Row = Dict[str, str]


def _row_bytes(row: Row) -> int:
    return len(",".join(row.values())) + 1


class Workload:
    """Set-up, one loop step at a time, and the final checks."""

    durable = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.db: Optional[ForkBase] = None
        self._setups = 0

    # -- engine lifetime ---------------------------------------------------

    def _fresh_dir(self) -> str:
        self._setups += 1
        path = os.path.join(self.workdir, f"engine-{self._setups}")
        os.makedirs(path)
        return path

    def open_engine(self) -> ForkBase:
        """A fresh engine with the benchmark's settings."""
        self.directory = self._fresh_dir()
        return ForkBase.open(self.directory, **ENGINE_SETTINGS)

    def discard(self) -> None:
        """Close and delete the engine built by the last set-up."""
        if self.db is not None:
            self.db.close()
            self.db = None
            shutil.rmtree(self.directory)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def reopen_check(self, rec: Recorder) -> None:
        """Close and reopen the durable engine; heads must survive."""
        db = self.db
        before = db.branch_table.to_dict()
        db.close()
        self.db = ForkBase.open(self.directory, **ENGINE_SETTINGS)
        rec.expect(self.db.branch_table.to_dict() == before, "heads changed across reopen")

    def disk_bytes(self) -> int:
        """Bytes the chunk store holds on disk (pack segments)."""
        return self.db.store.backing.disk_size()

    def settings(self) -> Dict[str, object]:
        codec = self.db.store.backing._codec
        names = {None: "none", 1: "zlib", 2: "zstd"}
        return dict(ENGINE_SETTINGS, compression=names.get(codec, str(codec)))

    # -- to implement --------------------------------------------------------

    def setup(self) -> None:
        """Open the engine and load the base data."""
        raise NotImplementedError

    def step(self, rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, rec: Recorder) -> None:
        raise NotImplementedError

    def sizes(self) -> Dict[str, int]:
        raise NotImplementedError


class KeyValue(Workload):
    """kv_small: Zipf put/get of 20-field maps plus branch-edit-merge of a key."""

    KEYS = 2000
    FIELDS = 20
    #: Every COLLAB_EVERY-th step forks a key, edits both sides, diffs and merges.
    COLLAB_EVERY = 40

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.keys = [f"user{index:05d}" for index in range(self.KEYS)]
        self.by_rank = list(self.keys)
        rng.shuffle(self.by_rank)
        self.fields = [f"f{index:02d}" for index in range(self.FIELDS)]
        self.initial = {key: {f: self._token(rng) for f in self.fields} for key in self.keys}
        self.op_seed = rng.random()

    @staticmethod
    def _token(rng: random.Random) -> str:
        return f"{rng.getrandbits(64):016x}"

    def sizes(self) -> Dict[str, int]:
        return {"keys": self.KEYS, "fields": self.FIELDS, "collab_every": self.COLLAB_EVERY}

    def make_engine(self) -> ForkBase:
        return self.open_engine()

    def setup(self) -> None:
        self.db = self.make_engine()
        self.model = {key: dict(value) for key, value in self.initial.items()}
        self.rng = random.Random(self.op_seed)
        self.zipf = ZipfSampler(self.KEYS, 1.0, seed=self.seed)
        self.steps = 0
        for key in self.keys:
            self.db.put(key, self.model[key])

    @staticmethod
    def _size(value: Dict[str, str]) -> int:
        return sum(len(k) + len(v) for k, v in value.items())

    @staticmethod
    def _encoded(value: Dict[str, str]) -> Dict[bytes, bytes]:
        return {k.encode(): v.encode() for k, v in value.items()}

    def _edit(self, value: Dict[str, str], fields: List[str]) -> Dict[str, str]:
        new = dict(value)
        for field in self.rng.sample(fields, 2):
            new[field] = self._token(self.rng)
        return new

    def step(self, rec: Recorder) -> None:
        self.steps += 1
        if self.steps % self.COLLAB_EVERY == 0:
            # Uniform, not Zipf: a merge walks the key's whole history, so a
            # hot key's growing history would make merges slow down with run length.
            self._collab(rec, self.keys[self.rng.randrange(self.KEYS)])
            return
        key = self.by_rank[self.zipf.sample()]
        if self.rng.random() < 0.5:
            value = self._edit(self.model[key], self.fields)
            rec.call("put", self.db.put, key, value)
            self.model[key] = value
            rec.user_bytes += self._size(value)
        else:
            got = rec.call("get", self.db.get_value, key)
            rec.expect(got == self._encoded(self.model[key]), f"get {key}")

    def _collab(self, rec: Recorder, key: str) -> None:
        db = self.db
        base = self.model[key]
        ours = self._edit(base, self.fields[self.FIELDS // 2:])
        theirs = self._edit(base, self.fields[: self.FIELDS // 2])
        rec.call("branch", db.branch, key, "edit")
        rec.call("put", db.put, key, theirs, branch="edit")
        rec.call("put", db.put, key, ours)
        rec.user_bytes += self._size(theirs) + self._size(ours)
        diff = rec.call("diff", db.diff, key, MASTER, "edit")
        expected = {
            f.encode(): (ours[f].encode(), theirs[f].encode())
            for f in self.fields
            if ours[f] != theirs[f]
        }
        rec.expect(
            diff.changed == expected and not diff.added and not diff.removed,
            f"diff {key}",
        )
        rec.call("merge", db.merge, key, "edit", MASTER)
        merged = {f: (theirs[f] if theirs[f] != base[f] else ours[f]) for f in self.fields}
        self.model[key] = merged
        rec.expect(db.get_value(key) == self._encoded(merged), f"merge {key}")
        rec.call("branch", db.delete_branch, key, "edit")

    def check(self, rec: Recorder) -> None:
        for key in self.keys:
            rec.expect(self.db.branches(key) == [MASTER], f"branches of {key}")
            rec.expect(
                self.db.get_value(key) == self._encoded(self.model[key]), f"head {key}"
            )
            rec.expect(self.db.verify(key).ok, f"verify {key}")
        if self.durable:
            self.reopen_check(rec)
            for key in self.keys:
                rec.expect(
                    self.db.get_value(key) == self._encoded(self.model[key]),
                    f"reopened head {key}",
                )


class ClusterKeyValue(KeyValue):
    """cluster_kv: the kv_small mix over an in-memory replicated ClusterStore."""

    durable = False

    def make_engine(self) -> ForkBase:
        return ForkBase(store=ClusterStore(**CLUSTER_SETTINGS))

    def discard(self) -> None:
        self.db = None

    def disk_bytes(self) -> int:
        """Replica payload bytes summed over every node."""
        return sum(node.store.physical_size() for node in self.db.store.nodes.values())

    def settings(self) -> Dict[str, object]:
        return dict(CLUSTER_SETTINGS, backend="cluster", node_store="memory")


class DatasetVersions(Workload):
    """dataset_versions: a collaborative loop over one large versioned table."""

    ROWS = 10000
    BATCH = 4
    GETS = 16
    #: The historical diff compares master with the version this many commits back.
    HISTORY_BACK = 4
    NAME = "sales"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.rows = generate_rows(self.ROWS, seed=seed)
        self.csv = rows_to_csv(self.rows)
        self.pks = [row["id"] for row in self.rows]
        rng = random.Random(seed)
        self.by_rank = list(self.pks)
        rng.shuffle(self.by_rank)
        self.op_seed = rng.random()

    def sizes(self) -> Dict[str, int]:
        return {"rows": self.ROWS, "csv_bytes": len(self.csv), "batch_rows": self.BATCH,
                "gets_per_cycle": self.GETS, "history_back": self.HISTORY_BACK}

    def setup(self) -> None:
        self.db = self.open_engine()
        self.table, _ = DataTable.load_csv(self.db, self.NAME, self.csv, "id")
        self.rng = random.Random(self.op_seed)
        self.zipf = ZipfSampler(self.ROWS, 1.0, seed=self.seed)
        self.current = {row["id"]: dict(row) for row in self.rows}
        #: Master versions, oldest first, and per pk the version indexes at
        #: which master changed the row and the rows, so a row can be looked
        #: up at any master version.
        self.versions = [self.db.head(self.NAME)]
        self.changes: Dict[str, Tuple[List[int], List[Row]]] = {}
        self.cycles = 0
        self.edits = 0

    # -- model ---------------------------------------------------------------

    def _row_at(self, pk: str, version: int) -> Row:
        indexes, rows = self.changes.get(pk, ((), ()))
        at = bisect.bisect_right(indexes, version)
        return rows[at - 1] if at else self.rows[int(pk)]

    def _commit_master(self, edited: Dict[str, Row]) -> None:
        self.versions.append(self.db.head(self.NAME))
        version = len(self.versions) - 1
        for pk, row in edited.items():
            self.current[pk] = row
            indexes, rows = self.changes.setdefault(pk, ([], []))
            indexes.append(version)
            rows.append(row)

    def _edited(self, pks: List[str]) -> Dict[str, Row]:
        out = {}
        for pk in pks:
            self.edits += 1
            out[pk] = dict(self.current[pk], note=f"edit-{self.seed}-{self.edits}")
        return out

    def _zipf_pks(self, count: int, exclude=()) -> List[str]:
        picked: List[str] = []
        while len(picked) < count:
            pk = self.by_rank[self.zipf.sample()]
            if pk not in picked and pk not in exclude:
                picked.append(pk)
        return picked

    def _script_pks(self, parity: int, exclude, seed: int) -> List[str]:
        candidates = [self.current[pk] for pk in self.pks[parity::2] if pk not in exclude]
        script = make_edit_script(candidates, updates=self.BATCH, clustered=False, seed=seed)
        return sorted(script.updates)

    # -- the loop ----------------------------------------------------------------

    def step(self, rec: Recorder) -> None:
        """One cycle: fork two branches, edit all three lines, diff, merge, read."""
        self.cycles += 1
        table = self.table
        a, b = f"a{self.cycles}", f"b{self.cycles}"
        rec.call("branch", table.branch, a)
        rec.call("branch", table.branch, b)
        ours_pks = self._zipf_pks(self.BATCH)
        ours = self._edited(ours_pks)
        side_a = self._edited(self._script_pks(0, ours, self.seed * 100003 + 2 * self.cycles))
        side_b = self._edited(
            self._script_pks(1, ours, self.seed * 100003 + 2 * self.cycles + 1)
        )
        before = {pk: self.current[pk] for pk in [*ours, *side_a, *side_b]}
        for branch, edits in ((a, side_a), (b, side_b), (MASTER, ours)):
            rec.call("put", table.upsert_rows, list(edits.values()), branch=branch)
            rec.user_bytes += sum(_row_bytes(row) for row in edits.values())
        self._commit_master(ours)

        def row(edits: Dict[str, Row], pk: str) -> Row:
            return edits.get(pk, before[pk])

        diff = rec.call("diff", table.diff, a, b)
        want = {pk: (row(side_a, pk), row(side_b, pk)) for pk in [*side_a, *side_b]}
        self._expect_diff(rec, diff, want, f"diff {a}/{b}")
        diff = rec.call("diff", table.diff, MASTER, a)
        want = {pk: (row(ours, pk), row(side_a, pk)) for pk in [*ours, *side_a]}
        self._expect_diff(rec, diff, want, f"diff master/{a}")
        old = max(0, len(self.versions) - 1 - self.HISTORY_BACK)
        diff = rec.call("diff", table.diff, version_a=self.versions[old], branch_b=MASTER)
        changed = [pk for pk, (indexes, _rows) in self.changes.items() if indexes[-1] > old]
        want = {pk: (self._row_at(pk, old), self.current[pk]) for pk in changed}
        self._expect_diff(rec, diff, want, f"diff v{old}/head")

        for branch, edits in ((a, side_a), (b, side_b)):
            rec.call("merge", table.merge, branch, MASTER)
            self._commit_master(edits)
        for pk in ours_pks + list(side_a) + list(side_b):
            rec.expect(table.get_row(pk) == self.current[pk], f"merged row {pk}")
        rec.call("branch", self.db.delete_branch, self.NAME, a)
        rec.call("branch", self.db.delete_branch, self.NAME, b)

        for index in range(self.GETS):
            pk = self.by_rank[self.zipf.sample()]
            if index % 2:
                got = rec.call("get", table.get_row, pk)
                rec.expect(got == self.current[pk], f"get {pk}")
            else:
                version = self.rng.randrange(len(self.versions))
                got = rec.call("get", table.get_row, pk, version=self.versions[version])
                rec.expect(got == self._row_at(pk, version), f"get {pk}@v{version}")

    @staticmethod
    def _expect_diff(rec: Recorder, diff, want: Dict[str, Tuple[Row, Row]], what: str) -> None:
        got = {row.pk: (row.kind, row.old, row.new) for row in diff.rows}
        expected = {pk: ("changed", old, new) for pk, (old, new) in want.items() if old != new}
        rec.expect(got == expected and not diff.schema_changed, what)

    def check(self, rec: Recorder) -> None:
        expected = rows_to_csv([self.current[pk] for pk in self.pks])
        rec.expect(self.db.branches(self.NAME) == [MASTER], "branches")
        rec.expect(self.table.export_csv() == expected, "master export")
        rec.expect(self.db.verify(self.NAME).ok, "verify master")
        self.reopen_check(rec)
        table = DataTable(self.db, self.NAME)
        rec.expect(table.export_csv() == expected, "reopened master export")


class CsvImport(Workload):
    """csv_import: fresh CSV datasets, each with two one-word near-duplicates."""

    ROWS = 2000
    GETS = 16

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.op_seed = random.Random(seed).random()

    def sizes(self) -> Dict[str, int]:
        return {"rows_per_csv": self.ROWS, "gets_per_cycle": self.GETS}

    def _dataset(self, index: int) -> Tuple[str, str, str, str]:
        """Base CSV and two one-word mutations of different lines; merged text."""
        base = rows_to_csv(generate_rows(self.ROWS, seed=self.seed * 1000003 + index))
        lines = base.splitlines(keepends=True)
        mutations = []
        salt = 0
        while len(mutations) < 2:
            salt += 1
            text = mutate_csv_one_word(base, seed=self.seed * 7919 + index * 31 + salt)
            line = next(i for i, (x, y) in enumerate(zip(lines, text.splitlines(True)))
                        if x != y)
            if all(line != other for other, _ in mutations):
                mutations.append((line, text.splitlines(keepends=True)[line]))
        a_lines, b_lines, merged = list(lines), list(lines), list(lines)
        a_lines[mutations[0][0]] = merged[mutations[0][0]] = mutations[0][1]
        b_lines[mutations[1][0]] = merged[mutations[1][0]] = mutations[1][1]
        return base, "".join(a_lines), "".join(b_lines), "".join(merged)

    def setup(self) -> None:
        self.db = self.open_engine()
        self.rng = random.Random(self.op_seed)
        #: Per dataset: name -> [(version uid, csv text)] in load order.
        self.loaded: Dict[str, List[Tuple[object, str]]] = {}
        base = self._dataset(0)[0]
        self._load(None, "ds00000", base, MASTER)
        self.cycles = 0

    def _load(self, rec: Optional[Recorder], name: str, text: str, branch: str) -> None:
        if rec is None:
            DataTable.load_csv(self.db, name, text, "id", branch=branch)
        else:
            rec.call("put", DataTable.load_csv, self.db, name, text, "id", branch=branch)
            rec.user_bytes += len(text)
        self.loaded.setdefault(name, []).append((self.db.head(name, branch), text))

    def step(self, rec: Recorder) -> None:
        self.cycles += 1
        name = f"ds{self.cycles:05d}"
        base, mut_a, mut_b, merged = self._dataset(self.cycles)
        self._load(rec, name, base, MASTER)
        table = DataTable(self.db, name)
        rec.call("branch", table.branch, "dup")
        self._load(rec, name, mut_a, "dup")
        self._load(rec, name, mut_b, MASTER)
        for uid, text in self.loaded[name]:
            rec.expect(table.export_csv(version=uid) == text, f"export {name}@{uid}")
        diff = rec.call("diff", table.diff, MASTER, "dup")
        rec.expect(len(diff.rows) == 2 and all(r.kind == "changed" for r in diff.rows),
                   f"diff {name}")
        diff = rec.call("diff", table.diff, "dup", version_b=self.loaded[name][0][0])
        rec.expect(len(diff.rows) == 1 and diff.rows[0].kind == "changed",
                   f"diff {name} dup/base")
        rec.call("merge", table.merge, "dup", MASTER)
        rec.expect(table.export_csv() == merged, f"merge {name}")
        self.loaded[name].append((self.db.head(name), merged))
        rec.call("branch", self.db.delete_branch, name, "dup")
        for _ in range(self.GETS):
            archived = self.rng.choice(list(self.loaded))
            uid, text = self.rng.choice(self.loaded[archived])
            line = self.rng.randrange(1, self.ROWS + 1)
            pk = f"{line - 1:07d}"
            got = rec.call("get", DataTable(self.db, archived).get_row, pk, version=uid)
            fields = next(csv.reader([text.splitlines()[line]]))
            rec.expect(got == dict(zip(SALES_COLUMNS, fields)), f"get {archived}/{pk}")

    def check(self, rec: Recorder) -> None:
        for name, versions in self.loaded.items():
            rec.expect(self.db.verify(name).ok, f"verify {name}")
            rec.expect(self.db.branches(name) == [MASTER], f"branches {name}")
        heads = {name: versions[-1] for name, versions in self.loaded.items()}
        self.reopen_check(rec)
        for name, (uid, text) in heads.items():
            rec.expect(self.db.head(name) == uid, f"reopened head {name}")
        last = max(heads)
        rec.expect(DataTable(self.db, last).export_csv() == heads[last][1],
                   f"reopened export {last}")


WORKLOAD_TYPES = {
    "kv_small": KeyValue,
    "dataset_versions": DatasetVersions,
    "csv_import": CsvImport,
    "cluster_kv": ClusterKeyValue,
}
