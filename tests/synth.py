"""Synthetic topic-cluster corpus used by the training and acceptance tests.

Ten well-separated topic clusters in 20 dimensions plus 50 shared noisy
"stopword" vectors centered on the mean of all clusters.  Texts mix 40%
topic words with 60% stopwords, so idf rank correlates with informativeness
by construction: topic words get low document frequency, stopwords high.
The same world also writes a tweet stream (``make_tweets``) for the
``pairs-tweets`` half of the pipeline.
"""

from __future__ import annotations

import json
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

# Document frequencies of the world's tokens: topic words are rare,
# stopwords common.
DOC_FREQ = {
    **{f"t{t}w{i}": 5
       for t in range(N_TOPICS) for i in range(WORDS_PER_TOPIC)},
    **{f"s{i}": 900 for i in range(N_STOPWORDS)},
}


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
    idf = compute_idf(DOC_FREQ, CORPUS_SIZE)
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


# Tweet world: build_world's vectors under letter-only names, because
# normalize maps every digit run to "0" ("t3w12" would become "t0w0").
DIGIT_LETTERS = str.maketrans("0123456789", "abcdefghij")
TOPIC_TAGS = [f"topic{chr(ord('a') + t)}" for t in range(N_TOPICS)]
FILLER_TAGS = ["breaking", "news", "update"]  # pairgen's non-informative tags


def letters_only(token: str) -> str:
    """A world token with each digit spelled as a letter: t3w12 -> tdwbc."""
    return token.translate(DIGIT_LETTERS)


def tweet_world(seed=7):
    """(table, doc freq) of build_world's vocabulary under letter-only
    names; the vectors are build_world's."""
    table = build_world(seed=seed)[0]
    return (EmbeddingTable(rows={letters_only(t): row
                                 for t, row in table.rows.items()},
                           vectors=table.vectors),
            {letters_only(t): df for t, df in DOC_FREQ.items()})


def make_tweets(n_bursts=60, seed=7, world_seed=7):
    """A seeded tweet stream, as the JSONL records ``load_tweets`` reads.

    The stream is a run of bursts, 20-60 minutes apart, each of 4-12
    tweets on one topic sent 30-150 s apart; every topic recurs, so
    tweets of one topic are often more than 15 minutes apart.  A tweet
    mixes topic words and stopwords as ``make_text`` does, tags its
    topic's hashtag (written ``#TopicX`` in the text), and may add a
    non-informative tag, a mention, a URL or punctuation.  One in ten has
    under five words, and one in seven is a retweet: "RT @name:" and the
    burst's previous tweet with one word added, seconds later.
    """
    rng = np.random.default_rng(seed)
    _, _, topic_vocab, stop_vocab, _ = build_world(seed=world_seed)
    topic_vocab = [[letters_only(t) for t in vocab] for vocab in topic_vocab]
    stop_vocab = [letters_only(t) for t in stop_vocab]
    records, clock = [], 0
    for _ in range(n_bursts):
        topic = int(rng.integers(N_TOPICS))
        clock += int(rng.integers(1200, 3601))
        previous = None
        for _ in range(int(rng.integers(4, 13))):
            clock += int(rng.integers(30, 151))
            tags = [TOPIC_TAGS[topic]]
            if previous is not None and rng.random() < 1 / 7:
                text = (f"RT @{rng.choice(stop_vocab)}: {previous['text']} "
                        f"{rng.choice(stop_vocab)}")
                tags = previous["hashtags"]
            else:
                length = 3 if rng.random() < 0.1 else int(rng.integers(8, 17))
                words = list(make_text(rng, topic_vocab, stop_vocab, topic,
                                       length).tokens)
                if rng.random() < 0.3:
                    tags.append(str(rng.choice(FILLER_TAGS)))
                words += [f"#{tag.capitalize()}" for tag in tags]
                if rng.random() < 0.3:
                    words.insert(0, f"@{rng.choice(stop_vocab)}")
                if rng.random() < 0.3:
                    words.append(f"https://t.co/{rng.choice(stop_vocab)}")
                if rng.random() < 0.3:
                    words[-1] += "!"
                text = " ".join(words)
            previous = {"text": text, "hashtags": tags, "timestamp": clock}
            records.append(previous)
    return records


def save_tweets(records, sink: IO[str]) -> None:
    """Write tweet records as JSONL, one object per line."""
    for record in records:
        sink.write(json.dumps(record) + "\n")
