"""Synthetic topic-cluster corpus used by the training and acceptance tests.

Ten well-separated topic clusters in 20 dimensions plus 50 shared noisy
"stopword" vectors centered on the mean of all clusters.  Texts mix 40%
topic words with 60% stopwords, so idf rank correlates with informativeness
by construction: topic words get low document frequency, stopwords high.
"""

from __future__ import annotations

from typing import IO

import numpy as np

from textrep.embeddings import EmbeddingTable, compute_idf
from textrep.pairgen import TextPair
from textrep.textprep import NormalizedText

N_TOPICS = 10
WORDS_PER_TOPIC = 30
N_STOPWORDS = 50
DIM = 20
CORPUS_SIZE = 1000


def table_from(entries) -> EmbeddingTable:
    """An EmbeddingTable over a token -> vector mapping, rows in its order."""
    return EmbeddingTable(
        rows={token: i for i, token in enumerate(entries)},
        vectors=np.array(list(entries.values()), dtype=np.float64),
    )


def save_embeddings(table: EmbeddingTable, sink: IO[str]) -> None:
    """Write a table in word2vec textual format (6 significant digits)."""
    sink.write(f"{table.vocabulary_size} {table.dimension}\n")
    for token, row in table.rows.items():
        comps = " ".join(f"{v:.6g}" for v in table.vectors[row])
        sink.write(f"{token} {comps}\n")


def build_world(seed=7, topic_noise=0.3, stop_noise=3.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(N_TOPICS, DIM))
    entries = {}
    topic_vocab = []
    for t in range(N_TOPICS):
        vocab = []
        for i in range(WORDS_PER_TOPIC):
            token = f"t{t}w{i}"
            entries[token] = centers[t] + rng.normal(scale=topic_noise, size=DIM)
            vocab.append(token)
        topic_vocab.append(vocab)
    stop_mean = centers.mean(axis=0)
    stop_vocab = []
    for i in range(N_STOPWORDS):
        token = f"s{i}"
        entries[token] = stop_mean + rng.normal(scale=stop_noise, size=DIM)
        stop_vocab.append(token)

    table = table_from(entries)
    doc_freq = {t: 5 for vocab in topic_vocab for t in vocab}
    doc_freq.update({s: 900 for s in stop_vocab})
    idf = compute_idf(doc_freq, CORPUS_SIZE)
    return table, idf, topic_vocab, stop_vocab, rng


def make_text(rng, topic_vocab, stop_vocab, topic, length):
    n_topic = max(1, round(0.4 * length))
    n_stop = length - n_topic
    tokens = list(rng.choice(topic_vocab[topic], size=n_topic))
    tokens += list(rng.choice(stop_vocab, size=n_stop))
    rng.shuffle(tokens)
    return NormalizedText(tuple(tokens))


def make_pairs(n_related=2000, n_nonrelated=2000, seed=7, min_len=10,
               max_len=30, **world_kwargs):
    """Returns (table, idf, pairs); pairs alternate labels for easy splits."""
    table, idf, topic_vocab, stop_vocab, rng = build_world(
        seed=seed, **world_kwargs
    )

    def text(topic):
        return make_text(
            rng, topic_vocab, stop_vocab, topic,
            int(rng.integers(min_len, max_len + 1)),
        )

    pairs = []
    for _ in range(n_related):
        topic = int(rng.integers(N_TOPICS))
        pairs.append(TextPair(text(topic), text(topic), +1))
    for _ in range(n_nonrelated):
        a, b = rng.choice(N_TOPICS, size=2, replace=False)
        pairs.append(TextPair(text(int(a)), text(int(b)), -1))
    return table, idf, pairs


def split_pairs(pairs, train_frac=0.5, val_frac=0.25, seed=11):
    """Stratified shuffle-split into train/val/test."""
    rng = np.random.default_rng(seed)
    pos = [p for p in pairs if p.label == +1]
    neg = [p for p in pairs if p.label == -1]
    out = {"train": [], "val": [], "test": []}
    for pool in (pos, neg):
        order = rng.permutation(len(pool))
        n_train = int(train_frac * len(pool))
        n_val = int(val_frac * len(pool))
        for rank, idx in enumerate(order):
            if rank < n_train:
                out["train"].append(pool[idx])
            elif rank < n_train + n_val:
                out["val"].append(pool[idx])
            else:
                out["test"].append(pool[idx])
    return out["train"], out["val"], out["test"]
