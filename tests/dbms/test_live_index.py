"""The improvement index stays live under table changes.

Rows appended to the query table reach the engine through the §4.3
``add_query``; every other change rebuilds it.  Either way an IMPROVE
must answer exactly as a fresh database holding the same tables.
"""

import numpy as np
import pytest

from repro.core.subdomain import SubdomainIndex
from repro.dbms.executor import Database
from repro.errors import ReproError, ValidationError

INDEX = (
    "CREATE IMPROVEMENT INDEX idx ON o (a, b, c) "
    "USING QUERIES q (wa, wb, wc, k) SENSE MAX"
)
#: EXPLAIN ANALYZE columns that describe the index's history or the
#: clock rather than the answer: a maintained index is at a later
#: epoch and may hold other lazily ranked prefixes than a fresh one.
VOLATILE = {"epoch", "index_memory"}


def _values(rows) -> str:
    return ", ".join("(" + ", ".join(repr(v) for v in row) + ")" for row in rows)


def _database(objects, queries, k_type: str = "INT") -> Database:
    db = Database()
    db.execute("CREATE TABLE o (a FLOAT, b FLOAT, c FLOAT)")
    db.execute(f"INSERT INTO o VALUES {_values(objects)}")
    db.execute(f"CREATE TABLE q (wa FLOAT, wb FLOAT, wc FLOAT, k {k_type})")
    db.execute(f"INSERT INTO q VALUES {_values(queries)}")
    db.execute(INDEX)
    return db


def _replica(db: Database) -> Database:
    """A fresh database holding ``db``'s current tables."""
    return _database(db.catalog.get("o").rows, db.catalog.get("q").rows)


def _outcome(db: Database, statement: str):
    try:
        result = db.execute(statement)
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    if statement.startswith("EXPLAIN"):
        keep = [i for i, c in enumerate(result.columns)
                if c not in VOLATILE and not c.endswith("_seconds")]
        return [[row[i] for i in keep] for row in result.rows]
    return repr(result.rows)


def _rows(rng, count: int):
    # Two decimals: ties between scores are common.
    return [
        [float(v) for v in rng.random(3).round(2)] + [int(rng.integers(1, 6))]
        for _ in range(count)
    ]


def _stream(seed: int):
    """Table changes of every kind, each followed by reads."""
    rng = np.random.default_rng(seed)
    objects = [[float(v) for v in row] for row in rng.random((24, 3)).round(2)]
    queries = _rows(rng, 10)
    writes = [
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        f"INSERT INTO q VALUES {_values(_rows(rng, 3))}",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        # More rows than the index holds: a rebuild.
        f"INSERT INTO q VALUES {_values(_rows(rng, 16))}",
        f"INSERT INTO q VALUES {_values(_rows(rng, 2))}",
        f"INSERT INTO o VALUES {_values(rng.random((1, 3)).round(2).tolist())}",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        "UPDATE o SET a = a + 0.25 WHERE rowid = 3",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        "DELETE FROM q WHERE rowid = 5",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        "IMPROVE o TARGET WHERE rowid = 2 USING idx REACH 4 APPLY",
        "INSERT INTO q VALUES (0.5, 0.5, 0.5, 0)",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        "DELETE FROM q WHERE k = 0",
        f"INSERT INTO q VALUES {_values(_rows(rng, 2))}",
        "DELETE FROM o WHERE rowid = 7",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
    ]
    statements = []
    for write in writes:
        statements.append(write)
        for _ in range(2):
            target = int(rng.integers(0, 24))
            goal = "REACH 3" if rng.random() < 0.5 else "BUDGET 0.3"
            statements.append(f"IMPROVE o TARGET WHERE rowid = {target} USING idx {goal}")
        statements.append(f"EXPLAIN ANALYZE IMPROVE o TARGET WHERE rowid = {target} USING idx REACH 2")
    return objects, queries, statements


@pytest.mark.parametrize("seed", [0, 1])
def test_live_index_answers_as_a_fresh_database(seed):
    objects, queries, statements = _stream(seed)
    db = _database(objects, queries)
    refused = 0
    for statement in statements:
        if "IMPROVE" not in statement:
            db.execute(statement)
            continue
        expected = _outcome(_replica(db), statement)
        assert _outcome(db, statement) == expected, statement
        refused += isinstance(expected, tuple)
    # The k = 0 row is refused by every read until it is deleted.
    assert refused == 6


@pytest.fixture
def builds(monkeypatch):
    """Counts SubdomainIndex constructions."""
    count = [0]
    original = SubdomainIndex.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SubdomainIndex, "__init__", counting)
    return count


def test_only_query_appends_skip_the_rebuild(builds):
    rng = np.random.default_rng(5)
    objects = [[float(v) for v in row] for row in rng.random((12, 3)).round(2)]
    db = _database(objects, _rows(rng, 6))
    read = "IMPROVE o TARGET WHERE rowid = 1 USING idx REACH 2"

    def built_by(*writes) -> int:
        before = builds[0]
        for write in writes:
            db.execute(write)
        db.execute(read)
        return builds[0] - before

    assert built_by() == 1  # the first read builds
    assert built_by(f"INSERT INTO q VALUES {_values(_rows(rng, 1))}") == 0
    assert built_by(
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
        f"INSERT INTO q VALUES {_values(_rows(rng, 1))}",
    ) == 0
    assert built_by(f"INSERT INTO q VALUES {_values(_rows(rng, 3))}") == 0
    assert built_by() == 0
    assert built_by(f"INSERT INTO q VALUES {_values(_rows(rng, 12))}") == 0  # 12 on 12 held
    assert built_by(f"INSERT INTO q VALUES {_values(_rows(rng, 25))}") == 1  # 25 on 24
    assert built_by("INSERT INTO o VALUES (0.5, 0.5, 0.5)") == 1
    assert built_by("UPDATE o SET b = 0.75 WHERE rowid = 2") == 1
    assert built_by("UPDATE q SET k = 2 WHERE rowid = 0") == 1
    assert built_by("DELETE FROM q WHERE rowid = 4") == 1
    assert built_by("DELETE FROM o WHERE rowid = 5") == 1
    before = db.execute("SELECT * FROM o").rows
    assert built_by("IMPROVE o TARGET WHERE rowid = 3 USING idx REACH 40 APPLY") == 1
    assert db.execute("SELECT * FROM o").rows != before
    assert built_by("UPDATE o SET b = 0.75 WHERE rowid = 999") == 0  # changed nothing


@pytest.mark.parametrize("append", [False, True], ids=["rebuild", "add_query"])
@pytest.mark.parametrize("k", ["2.7", "1e23"])
def test_k_must_be_a_whole_number(k, append):
    rng = np.random.default_rng(9)
    objects = [[float(v) for v in row] for row in rng.random((10, 3)).round(2)]
    queries = _rows(rng, 4)
    bad = [0.25, 0.5, 0.75, float(k)]
    db = _database(objects, queries if append else queries + [bad], k_type="FLOAT")
    improve = "IMPROVE o TARGET WHERE rowid = 0 USING idx REACH 2"
    if append:
        db.execute(improve)
        db.execute(f"INSERT INTO q VALUES (0.25, 0.5, 0.75, {k})")
    # Never truncated to k = 2, never cast past int range.
    for _ in range(2):
        with pytest.raises(ValidationError, match="k must be a finite whole number"):
            db.execute(improve)


@pytest.mark.parametrize("append", [False, True], ids=["rebuild", "add_query"])
def test_whole_float_k_is_read_as_an_integer(append):
    rng = np.random.default_rng(9)
    objects = [[float(v) for v in row] for row in rng.random((10, 3)).round(2)]
    queries = _rows(rng, 4)
    row = [0.25, 0.5, 0.75]
    improve = "IMPROVE o TARGET WHERE rowid = 0 USING idx REACH 2"
    db = _database(objects, queries if append else queries + [row + [3.0]], k_type="FLOAT")
    if append:
        db.execute(improve)
        db.execute("INSERT INTO q VALUES (0.25, 0.5, 0.75, 3.0)")
    expected = _database(objects, queries + [row + [3]]).execute(improve).rows
    assert db.execute(improve).rows == expected


def test_two_hundred_target_terms_still_parse():
    rng = np.random.default_rng(2)
    objects = [[float(v) for v in row] for row in rng.random((8, 3)).round(2)]
    db = _database(objects, _rows(rng, 5))
    where = " OR ".join(["rowid = 1"] + [f"rowid = {1000 + i}" for i in range(199)])
    result = db.execute(f"IMPROVE o TARGET WHERE {where} USING idx REACH 2")
    assert result.column("rowid") == [1]
