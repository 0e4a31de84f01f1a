"""Invariant oracles: a healthy index passes, a corrupted one is caught."""

import numpy as np
import pytest

from repro.check import check_index_invariants
from repro.check.oracles import (
    check_pair_consistency,
    check_partition_cover,
    check_prefixes,
    check_relevant_closure,
    check_signatures,
)
from repro.core import updates
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import SubdomainIndex
from repro.errors import IndexCorruptionError


def build(rng, mode="exact", n=8, m=12, d=2):
    dataset = Dataset(rng.random((n, d)))
    queries = QuerySet(rng.random((m, d)), ks=rng.integers(1, 4, m))
    return SubdomainIndex(dataset, queries, mode=mode)


class TestHealthyIndex:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_fresh_index_passes(self, rng, mode):
        check_index_invariants(build(rng, mode=mode))

    def test_passes_after_prefix_materialisation(self, rng):
        index = build(rng)
        for target in range(index.dataset.n):
            index.hits_mask(target)  # force lazy prefixes to exist
        check_index_invariants(index)


class TestCorruptionDetected:
    def test_wrong_subdomain_of_entry(self, rng):
        index = build(rng)
        index.subdomain_of[0] = (index.subdomain_of[0] + 1) % index.num_subdomains
        with pytest.raises(IndexCorruptionError):
            check_partition_cover(index)

    def test_empty_cell(self, rng):
        # Every member of cell 1 moved to cell 0: cell 1 is left empty.
        index = build(rng)
        assert index.num_subdomains > 1
        index.subdomain_of[index.subdomain_of == 1] = 0
        with pytest.raises(IndexCorruptionError, match="subdomain 1 is empty"):
            check_partition_cover(index)

    def test_foreign_representative(self, rng):
        index = build(rng)
        victim = next(
            sid
            for sid, members in enumerate(index.cell_members())
            if members.size < index.queries.m
        )
        outsider = next(
            j for j in range(index.queries.m) if index.subdomain_of[j] != victim
        )
        index.representatives[victim] = outsider
        with pytest.raises(IndexCorruptionError):
            check_partition_cover(index)

    def test_tampered_signature_byte(self, rng):
        index = build(rng)
        assert index.num_hyperplanes > 0
        index.signatures[0, 0] = -index.signatures[0, 0]  # flip one side entry
        with pytest.raises(IndexCorruptionError):
            check_signatures(index)

    def test_split_cell_sharing_a_signature(self, rng):
        # One member of a cell moved to a new cell with the same signature
        # row: the arrays still agree, and every member's side vector is
        # still right.
        index = build(rng)
        sid = int(np.flatnonzero(np.bincount(index.subdomain_of) > 1)[0])
        moved = int(np.flatnonzero(index.subdomain_of == sid)[-1])
        index.signatures = np.vstack((index.signatures, index.signatures[sid]))
        index.representatives = np.append(index.representatives, moved)
        index.prefixes = np.vstack((index.prefixes, index.prefixes[sid]))
        index.prefix_lengths = np.append(index.prefix_lengths, index.prefix_lengths[sid])
        index.subdomain_of[moved] = index.num_subdomains - 1
        index.validate()
        check_partition_cover(index)
        with pytest.raises(IndexCorruptionError, match="1 cell.* repeat another cell's signature"):
            check_signatures(index)

    def test_swapped_prefix_entries(self, rng):
        index = build(rng)
        index.hits_mask(0)  # materialise prefixes
        victim = int(np.flatnonzero(index.prefix_lengths >= 2)[0])
        length = index.prefix_lengths[victim]
        index.prefixes[victim, :length] = index.prefixes[victim, :length][::-1].copy()
        with pytest.raises(IndexCorruptionError):
            check_prefixes(index)

    def test_stale_pair_column_mapping(self, rng):
        # A pair mapped to two columns (a duplicated row), each column
        # with its true normal.
        index = build(rng)
        index.pairs = np.vstack([index.pairs, index.pairs[:1]])
        index.normals = np.vstack([index.normals, index.normals[:1]])
        with pytest.raises(IndexCorruptionError, match="occupies columns"):
            check_pair_consistency(index)

    def test_drifted_normal(self, rng):
        index = build(rng)
        index.normals[0] = index.normals[0] + 0.5
        with pytest.raises(IndexCorruptionError):
            check_pair_consistency(index)

    def test_dropped_pair_entry(self, rng):
        # A pair array shorter than the normal matrix is a length breach.
        index = build(rng)
        index.pairs = index.pairs[:-1]
        with pytest.raises(IndexCorruptionError):
            check_pair_consistency(index)


class TestRelevantClosure:
    @staticmethod
    def relevant(rng):
        dataset = Dataset(rng.random((40, 2)))
        queries = QuerySet(rng.random((15, 2)), ks=rng.integers(1, 3, 15))
        return SubdomainIndex(dataset, queries, mode="relevant")

    def test_healthy_through_updates(self, rng):
        index = self.relevant(rng)
        check_relevant_closure(index)
        updates.add_query(index, rng.random(2), 6)
        updates.remove_object(index, int(index.contenders().rows[0, 0]))
        updates.add_object(index, np.zeros(2))
        updates.remove_query(index, 0)
        check_index_invariants(index)

    def test_missing_pair_detected(self, rng):
        index = self.relevant(rng)
        index.pairs = index.pairs[:-1]
        index.normals = index.normals[:-1]
        with pytest.raises(IndexCorruptionError, match="misses 1 contender hyperplane"):
            check_relevant_closure(index)

    def test_wrong_row_detected(self, rng):
        index = self.relevant(rng)
        rows = index.contenders().rows
        outsider = next(o for o in range(index.dataset.n) if o not in rows)
        rows[0, 0] = outsider
        with pytest.raises(IndexCorruptionError, match="kept contender rows"):
            check_relevant_closure(index)
