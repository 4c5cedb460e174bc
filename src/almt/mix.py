"""Assemble the mixed fine-tuning manifest: annotated sentences, annotated
phrases, sampled or retrieved out-of-domain pairs, and optional synthetic
pairs."""

import json
import random
from dataclasses import dataclass, field

from .corpus import ParallelCorpus, read_records, record_id, write_text
from .errors import ConfigError


# Every entry origin, each counted in MixManifest.counts even when absent.
ORIGINS = ("annotated-sentence", "annotated-phrase", "retrieved", "sampled",
           "synthetic-switch", "synthetic-context")


@dataclass
class ManifestEntry:
    source: tuple[str, ...]
    target: tuple[str, ...]
    origin: str  # one of ORIGINS
    provenance: object


@dataclass
class MixManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def write_tsv(self, path):
        write_text(path, "".join(encode_entry(e)[1] for e in self.entries))


def encode_entry(entry: ManifestEntry) -> tuple[str, str]:
    """An entry's (manifest.jsonl line, manifest.tsv "source TAB target" line)."""
    return (json.dumps({"source": list(entry.source), "target": list(entry.target),
                        "origin": entry.origin, "provenance": entry.provenance}) + "\n",
            f"{' '.join(entry.source)}\t{' '.join(entry.target)}\n")


def sample_random(parallel: ParallelCorpus, seed: int):
    """Every pair in a seeded uniform order, so each prefix is a draw without
    replacement; returns (pair id, src, tgt) tuples."""
    ids = list(parallel)
    random.Random(seed).shuffle(ids)
    return [(sid, *parallel[sid]) for sid in ids]


def retrieve_similar(parallel: ParallelCorpus, scorer):
    """Every usable out-of-domain pair, ranked by corpus-level ratio similarity to U.

    ``scorer`` is an L × U RatioScorer. Ranking is by max ratio against any U
    sentence, descending, ties by ascending id. Pairs with degenerate
    embeddings are skipped and reported.
    """
    scores, skipped = scorer.max_over_b()
    usable = [sid for sid in parallel if sid in scores]
    ranked = sorted(usable, key=lambda sid: (-scores[sid], sid))
    rows = [(sid, *parallel[sid]) for sid in ranked]
    return rows, skipped


def encode_row(row) -> str:
    """The freeze-file line of a (pair id, src, tgt) row."""
    return json.dumps({"id": row[0]}) + "\n"


def write_freeze(rows, path):
    write_text(path, "".join(map(encode_row, rows)))


def load_freeze(path, parallel: ParallelCorpus):
    """The pairs of a freeze file, in its order. A malformed record or a repeated
    id raises ParseError naming ``path`` and the line (a repeated id's second one)."""
    rows = []
    for _, sid in read_records(path, lambda line: record_id(json.loads(line)),
                               key=lambda sid: f"id {sid}", what="freeze"):
        if sid not in parallel:
            raise ConfigError(f"{path}: freeze id {sid} is not a pair of corpus {parallel.name!r}")
        rows.append((sid, *parallel[sid]))
    return rows


def assemble(l_s, l_p, l_r, synthetic=None, retrieved: bool = True) -> MixManifest:
    """Concatenate the pools in fixed order: L_s, L_p, L_r, synthetic.

    l_s is a list of (tokens, target, id), its sources resolved upstream; l_p is
    an OracleResponse list; l_r is a list of (pair id, src, tgt). Every origin
    is counted, so empty inputs give an empty manifest with zero counts.
    """
    manifest = MixManifest(counts=dict.fromkeys(ORIGINS, 0))

    def add(source, target, origin, provenance):
        manifest.entries.append(ManifestEntry(tuple(source), tuple(target), origin, provenance))
        manifest.counts[origin] += 1

    for tokens, target, sid in l_s:
        add(tokens, target, "annotated-sentence", sid)
    for resp in l_p:
        add(resp.source, resp.target, "annotated-phrase", list(resp.provenance))
    r_origin = "retrieved" if retrieved else "sampled"
    for sid, src, tgt in l_r:
        add(src, tgt, r_origin, sid)
    for pair in synthetic or []:
        add(pair.source, pair.target, f"synthetic-{'switch' if pair.recipe == 'switch' else 'context'}",
            pair.origin_id)
    return manifest
