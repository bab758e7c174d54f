"""Seeded input generators for the textrep benchmark.

Every input a workload feeds to textrep is made here, from the workload
seed and a fixed world seed, so the benchmark needs no download and two
runs with one seed see byte-identical files.  The generator does not import textrep: the
program under test only ever reads the files written here.

The world is the topic-cluster design of ``tests/synth.py`` scaled up:
topic words sit near one of a few cluster centers and have low document
frequency; stopwords sit near the mean of all centers with wide noise and
have high document frequency; filler words are unrelated directions with
middling frequency.  Ranking a text by idf therefore puts its informative
words first, which is what the learned per-rank weights exploit.

    python3 perfbench/gen.py --workload train --seed 1 --out DIR

writes the workload's files into DIR plus ``inputs.json``, which records
each file's size and sha256 together with the planted counts the
correctness checks compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import string
from dataclasses import dataclass

import numpy as np

N_MAX = 20  # textrep's default number of rank weights
# The vocabulary, vectors, document frequencies and training pairs of each
# workload come from this fixed seed, like one pretrained embedding and one
# labeled training set reused across evaluations; the workload seed draws
# the validation and test pairs, the texts to embed and the corpus.  The
# number of epochs to convergence differs by about 15% between training
# sets, so a seed-drawn training set would swamp the time bounds.
WORLD_SEED = 20160702
CORPUS_SIZE = 1000  # documents behind the generated df tables
LETTERS = string.ascii_lowercase


@dataclass(frozen=True)
class WorldSpec:
    dim: int
    n_topics: int
    words_per_topic: int
    n_stop: int
    n_filler: int
    topic_scale: float  # spread of the cluster centers
    word_noise: float  # spread of topic words around their center
    stop_noise: float  # spread of stopwords around the mean center
    topic_share: float  # fraction of a text's tokens drawn from its topic
    filler_share: float  # fraction drawn from the filler words


# Long texts over a few thousand words at dim 300: couple matrices are
# large, so training and its memory dominate.
TRAIN_WORLD = WorldSpec(
    dim=300, n_topics=40, words_per_topic=50, n_stop=300, n_filler=1700,
    topic_scale=0.22, word_noise=1.0, stop_noise=1.5,
    topic_share=0.3, filler_share=0.2,
)
# A large table (~30k rows) of which short texts touch a small part:
# parsing the table and representing texts dominate.
EVAL_WORLD = WorldSpec(
    dim=300, n_topics=200, words_per_topic=100, n_stop=500, n_filler=9500,
    topic_scale=0.45, word_noise=1.0, stop_noise=1.5,
    topic_share=0.4, filler_share=0.2,
)
# A small vocabulary at dim 50: process start, normalization and file
# I/O dominate the CLI stages.
PIPELINE_WORLD = WorldSpec(
    dim=50, n_topics=24, words_per_topic=40, n_stop=120, n_filler=300,
    topic_scale=0.45, word_noise=1.0, stop_noise=1.5,
    topic_share=0.3, filler_share=0.2,
)

TRAIN_PAIRS = {"train": 4000, "val": 1000, "test": 3000}
TRAIN_TEXT_LEN = (10, 30)
EVAL_PAIRS = {"train": 1200, "val": 1000, "test": 2000}
EVAL_TEXT_LEN = (4, 15)
EVAL_OOV_RATE = 0.15
EVAL_ALL_OOV = {"train": 0, "val": 16, "test": 48}  # planted all-OOV pairs
EMBED_TEXTS = 6000
PIPELINE_ARTICLES = 120
PIPELINE_PARAGRAPHS = (3, 6)
PIPELINE_PARAGRAPH_LEN = (70, 120)


def word(prefix: str, index: int, width: int) -> str:
    """Letters-only token, so textrep's normalization leaves it intact."""
    letters = []
    for _ in range(width):
        index, r = divmod(index, 26)
        letters.append(LETTERS[r])
    return prefix + "".join(reversed(letters))


def width_for(n: int) -> int:
    return max(2, math.ceil(math.log(max(n, 2), 26)))


class World:
    """Vocabulary, vectors and document frequencies of one workload."""

    def __init__(self, spec: WorldSpec, rng: np.random.Generator):
        self.spec = spec
        d = spec.dim
        centers = rng.normal(scale=spec.topic_scale, size=(spec.n_topics, d))
        tw = width_for(spec.n_topics * spec.words_per_topic)
        self.topic_words = [
            [word("t", t * spec.words_per_topic + i, tw)
             for i in range(spec.words_per_topic)]
            for t in range(spec.n_topics)
        ]
        self.stop_words = [word("s", i, width_for(spec.n_stop))
                           for i in range(spec.n_stop)]
        self.filler_words = [word("f", i, width_for(spec.n_filler))
                             for i in range(spec.n_filler)]
        topic_vecs = (np.repeat(centers, spec.words_per_topic, axis=0)
                      + rng.normal(scale=spec.word_noise,
                                   size=(spec.n_topics * spec.words_per_topic, d)))
        stop_vecs = centers.mean(axis=0) + rng.normal(
            scale=spec.stop_noise, size=(spec.n_stop, d))
        filler_vecs = rng.normal(scale=spec.word_noise, size=(spec.n_filler, d))
        self.tokens = ([w for ws in self.topic_words for w in ws]
                       + self.stop_words + self.filler_words)
        self.vectors = np.vstack([topic_vecs, stop_vecs, filler_vecs])
        order = rng.permutation(len(self.tokens))
        self.tokens = [self.tokens[i] for i in order]
        self.vectors = self.vectors[order]

        df = {}
        for ws in self.topic_words:
            for w, f in zip(ws, rng.integers(2, 60, size=len(ws))):
                df[w] = int(f)
        for w, f in zip(self.stop_words,
                        rng.integers(700, 990, size=spec.n_stop)):
            df[w] = int(f)
        for w, f in zip(self.filler_words,
                        rng.integers(80, 500, size=spec.n_filler)):
            df[w] = int(f)
        self.doc_freq = df

    def text(self, rng: np.random.Generator, topic: int, length: int) -> list[str]:
        spec = self.spec
        n_topic = max(1, round(spec.topic_share * length))
        n_filler = round(spec.filler_share * length)
        n_stop = max(0, length - n_topic - n_filler)
        tokens = [self.topic_words[topic][i] for i in
                  rng.integers(0, spec.words_per_topic, size=n_topic)]
        tokens += [self.filler_words[i] for i in
                   rng.integers(0, spec.n_filler, size=n_filler)]
        tokens += [self.stop_words[i] for i in
                   rng.integers(0, spec.n_stop, size=n_stop)]
        rng.shuffle(tokens)
        return tokens

    def pairs(self, rng, count: int, length: tuple[int, int]) -> list:
        """``count`` pairs, half related (same topic), alternating labels."""
        out = []
        for k in range(count):
            related = k % 2 == 0
            ta = int(rng.integers(self.spec.n_topics))
            tb = ta
            while not related and tb == ta:
                tb = int(rng.integers(self.spec.n_topics))
            la, lb = rng.integers(length[0], length[1] + 1, size=2)
            out.append((1 if related else 0,
                        self.text(rng, ta, int(la)),
                        self.text(rng, tb, int(lb))))
        return out


def write_embeddings(path: str, tokens: list[str], vectors: np.ndarray,
                     decimals: int = 4) -> None:
    """word2vec text format: "<count> <dim>" header, then token + values.

    Values are rounded to ``decimals`` places and spelled through a table
    of every rounded value that occurs, which is far faster than
    formatting each float.
    """
    scale = 10 ** decimals
    steps = np.rint(vectors * scale).astype(np.int64)
    low = int(steps.min())
    spelled = np.array([f"{k / scale:.{decimals}f}"
                        for k in range(low, int(steps.max()) + 1)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {vectors.shape[1]}\n")
        for token, row in zip(tokens, steps):
            fh.write(f"{token} {' '.join(spelled[row - low])}\n")


def write_doc_freq(path: str, doc_freq: dict, corpus_size: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"N\t{corpus_size}\n")
        for token in sorted(doc_freq):
            fh.write(f"{token}\t{doc_freq[token]}\n")


def write_pairs(path: str, pairs: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, a, b in pairs:
            fh.write(f"{label}\t{' '.join(a)}\t{' '.join(b)}\n")


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def rank_model(n_max: int = N_MAX) -> dict:
    """A fixed, untrained model: weights decay with idf rank."""
    weights = [round(math.exp(-j / 4.0), 6) for j in range(n_max)]
    return {"metadata": {"loss": "generated"}, "metric": "euclidean",
            "n_max": n_max, "normalization_version": "v1", "weights": weights}


def decorate(rng: np.random.Generator, tokens: list[str]) -> str:
    """Raw-text surface for generated tokens: capitals, punctuation,
    numbers, URLs and mentions, all of which normalization removes."""
    out = []
    for i, tok in enumerate(tokens):
        r = rng.random()
        if i == 0 or r < 0.05:
            tok = tok.capitalize()
        if r > 0.93:
            tok += ","
        elif r > 0.90:
            tok = f"({tok})"
        out.append(tok)
        r2 = rng.random()
        if r2 < 0.02:
            out.append(str(int(rng.integers(1, 3000))))
        elif r2 < 0.025:
            out.append(f"@user{int(rng.integers(100))}")
        elif r2 < 0.03:
            out.append(f"https://example.org/{int(rng.integers(10_000))}")
    return " ".join(out) + "."


def gen_train(seed: int, out: str) -> dict:
    world = World(TRAIN_WORLD, np.random.default_rng([WORLD_SEED, 1]))
    fixed = np.random.default_rng([WORLD_SEED, 11])
    rng = np.random.default_rng([seed, 1])
    write_embeddings(os.path.join(out, "emb.txt"), world.tokens, world.vectors)
    write_doc_freq(os.path.join(out, "df.tsv"), world.doc_freq, CORPUS_SIZE)
    for split, n in TRAIN_PAIRS.items():
        draw = fixed if split == "train" else rng
        write_pairs(os.path.join(out, f"{split}.tsv"),
                    world.pairs(draw, n, TRAIN_TEXT_LEN))
    embed = [decorate(rng, a) for _, a, _ in world.pairs(rng, EMBED_TEXTS,
                                                          TRAIN_TEXT_LEN)]
    write_lines(os.path.join(out, "embed.txt"), embed)
    return {"planted_all_oov": {s: 0 for s in TRAIN_PAIRS}}


def gen_eval(seed: int, out: str) -> dict:
    world = World(EVAL_WORLD, np.random.default_rng([WORLD_SEED, 2]))
    fixed = np.random.default_rng([WORLD_SEED, 12])
    rng = np.random.default_rng([seed, 2])
    write_embeddings(os.path.join(out, "emb.txt"), world.tokens, world.vectors)
    oov_words = [word("x", i, 3) for i in range(3000)]
    df = dict(world.doc_freq)
    # Half the OOV words have a df entry (known to the corpus, missing
    # from the embedding table), half are unseen everywhere.
    for w, f in zip(oov_words[::2], rng.integers(2, 400, size=1500)):
        df[w] = int(f)
    write_doc_freq(os.path.join(out, "df.tsv"), df, CORPUS_SIZE)

    def oov_text(draw, n):
        return [oov_words[i] for i in draw.integers(0, len(oov_words), size=n)]

    for split, n in EVAL_PAIRS.items():
        draw = fixed if split == "train" else rng
        pairs = []
        for label, a, b in world.pairs(draw, n, EVAL_TEXT_LEN):
            sides = []
            for text in (a, b):
                # Replace tokens by OOV words, keeping one in-vocabulary
                # token so that only planted pairs are unrepresentable.
                keep = int(draw.integers(len(text)))
                hit = draw.random(len(text)) < EVAL_OOV_RATE
                sides.append([oov_words[int(draw.integers(len(oov_words)))]
                              if hit[i] and i != keep else tok
                              for i, tok in enumerate(text)])
            pairs.append((label, sides[0], sides[1]))
        planted = draw.choice(n, size=EVAL_ALL_OOV[split], replace=False)
        for k in planted:
            label, a, b = pairs[k]
            if k % 2:
                a = oov_text(draw, len(a))
            else:
                b = oov_text(draw, len(b))
            pairs[k] = (label, a, b)
        write_pairs(os.path.join(out, f"{split}.tsv"), pairs)
    embed = [decorate(rng, a) for _, a, _ in world.pairs(rng, EMBED_TEXTS,
                                                          EVAL_TEXT_LEN)]
    write_lines(os.path.join(out, "embed.txt"), embed)
    with open(os.path.join(out, "model.json"), "w", encoding="utf-8") as fh:
        json.dump(rank_model(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"planted_all_oov": dict(EVAL_ALL_OOV)}


def gen_pipeline(seed: int, out: str) -> dict:
    world = World(PIPELINE_WORLD, np.random.default_rng([WORLD_SEED, 3]))
    rng = np.random.default_rng([seed, 3])
    write_embeddings(os.path.join(out, "emb.txt"), world.tokens, world.vectors)
    lines = []
    # Every topic gets the same number of articles, so the share of
    # non-related pairs drawn from two articles on one topic is the same
    # on every seed.
    topics = rng.permutation(np.arange(PIPELINE_ARTICLES) % world.spec.n_topics)
    for a, topic in enumerate(topics.tolist()):
        if a:
            lines.append("")
        for _ in range(int(rng.integers(*PIPELINE_PARAGRAPHS, endpoint=True))):
            n = int(rng.integers(*PIPELINE_PARAGRAPH_LEN, endpoint=True))
            lines.append(decorate(rng, world.text(rng, topic, n)))
    write_lines(os.path.join(out, "corpus.txt"), lines)
    embed = decorate(rng, world.text(rng, 0, 12))
    write_lines(os.path.join(out, "embed.txt"), [embed])
    return {"planted_all_oov": {}}


GENERATORS = {"train": gen_train, "eval": gen_eval, "pipeline": gen_pipeline}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into ``out``; return the inputs record."""
    os.makedirs(out, exist_ok=True)
    record = GENERATORS[workload](seed, out)
    record["workload"] = workload
    record["seed"] = seed
    record["files"] = {
        name: {"bytes": os.path.getsize(os.path.join(out, name)),
               "sha256": sha256(os.path.join(out, name))}
        for name in sorted(os.listdir(out)) if name != "inputs.json"
    }
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
