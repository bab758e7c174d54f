"""Hypothesis strategies for generated input files: well-formed files of
each format, noise from the formats' own pieces, and near misses.

The CLI tests run them through ``dispatch`` and the pairgen tests through
the loaders.
"""

import json

from hypothesis import strategies as st

# Pieces of generated df and pair files: the formats' delimiters, field
# text, and what int() takes but the formats do not ("_", signs, spaces,
# a non-ASCII digit).
PIECES = ["\t", "\n", "\n\n", " ", "+", "-", "_", "0", "1", "5", "10",
          "\u0663", "N", "t0w1", "s1", "t1w2", "zz", "A", "#"]
WORDS = st.lists(st.sampled_from(["t0w1", "t0w2", "s1", "t1w2", "zz"]),
                 min_size=1, max_size=4).map(" ".join)


def generated(well_formed):
    """A well-formed file, noise from PIECES, or the file with noise after."""
    noise = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
    return st.one_of(well_formed, noise,
                     st.tuples(well_formed, noise).map("".join))


# df counts: mostly integers, sometimes what int() takes but the df
# format does not, or a near miss.
COUNTS = st.one_of(st.integers(0, 20).map(str), st.sampled_from(
    ["+3", "-1", "1_0", " 5", "5 ", "\u0663", "x", ""]))
DF_FILES = generated(st.builds(
    lambda n, rows: f"N\t{n}\n" + "".join(f"{t}\t{c}\n" for t, c in rows),
    st.one_of(st.just("1000"), COUNTS),
    st.dictionaries(st.sampled_from(["t0w1", "s1", "t1w2"]),
                    COUNTS).map(dict.items)))
PAIR_FILES = generated(st.lists(
    st.tuples(st.sampled_from("01"), WORDS, WORDS).map("\t".join),
    min_size=1, max_size=8).map(lambda rows: "\n".join(rows) + "\n"))

# Tweet records with enough words, shared tags and close timestamps that
# pairs often qualify; a spoiler gives one record's field another JSON
# type, or deletes it.  The words are letters only, because normalize()
# turns every digit run into 0 and would make w1 and w2 one word.
TWEET_RECORDS = st.lists(st.fixed_dictionaries({
    "text": st.lists(st.sampled_from(
        [f"w{c}" for c in "abcdefghijklmnopqrst"]
        + ["#storm", "@ann", "http://t.co", "12"]),
        min_size=7, max_size=10).map(" ".join),
    "hashtags": st.lists(st.sampled_from(["storm", "#Storm", "quake", "news"]),
                         min_size=1, max_size=2),
    "timestamp": st.integers(0, 1800),
}), min_size=2, max_size=10)
DELETED = object()
SPOILERS = st.tuples(
    st.integers(0, 9), st.sampled_from(["text", "hashtags", "timestamp"]),
    st.one_of(st.just(DELETED), st.none(), st.booleans(), st.floats(),
              st.just("900"), st.lists(st.integers(), max_size=2)))


def tweet_file(records, spoiler):
    if spoiler is not None:
        index, key, value = spoiler
        record = records[index % len(records)]
        if value is DELETED:
            del record[key]
        else:
            record[key] = value
    return "".join(json.dumps(record) + "\n" for record in records)


def storm_and_quake_tweets() -> str:
    """Tweet JSONL in which four related and four non-related pairs
    qualify: six tweets per hashtag, a minute apart, no shared words."""
    rows = []
    for i, tag_i in enumerate("abcdef"):
        for tag, prefix in (("storm", "s"), ("quake", "q")):
            text = " ".join(f"{prefix}{tag_i}{c}" for c in "vwxyz")
            rows.append(json.dumps({
                "text": f"{text} #{tag}", "hashtags": [tag],
                "timestamp": i * 60, "author": "n",
            }))
    return "\n".join(rows) + "\n"


TWEET_FILES = generated(st.builds(tweet_file, TWEET_RECORDS,
                                  st.one_of(st.none(), SPOILERS)))


# Model documents: n_max and a weight list of that length, then perhaps
# one field given another JSON value, or deleted.  Weights span the float
# range, non-finite values and integers beyond it included.
WEIGHT_VALUES = st.one_of(st.floats(), st.integers(-2, 2),
                          st.just(10**400), st.booleans(), st.just("1.5"))
MODEL_DOCS = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries(
    {"n_max": st.just(n),
     "weights": st.lists(st.floats(-10, 10), min_size=n, max_size=n)},
    optional={"metric": st.just("euclidean"),
              "normalization_version": st.just("v1"),
              "metadata": st.just({"loss": "median"})}))
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(),
    st.sampled_from(["euclidean", "cosine", "v1", "v0", "2"]),
    st.lists(WEIGHT_VALUES, max_size=5), st.just({}))
MODEL_SPOILERS = st.tuples(
    st.sampled_from(["n_max", "weights", "metric", "normalization_version",
                     "metadata"]),
    st.one_of(st.just(DELETED), JSON_VALUES))


def model_file(doc, spoiler):
    if spoiler is not None:
        key, value = spoiler
        if value is DELETED:
            doc.pop(key, None)
        else:
            doc[key] = value
    return json.dumps(doc)


MODEL_FILES = st.builds(model_file, MODEL_DOCS,
                        st.one_of(st.none(), MODEL_SPOILERS))


# Paragraph corpora: lines of words, blank lines between articles.
CORPUS_FILES = generated(st.lists(st.one_of(WORDS, st.just("")),
                                  min_size=1, max_size=10)
                         .map(lambda lines: "\n".join(lines) + "\n"))

# Embedding files: a header and rows of plain floats over a few repeated
# tokens, then perhaps a spoiler: one value that float() or int() takes
# but the format does not, a row one value too wide, or a token-only
# line.  The header declares the row count, one row fewer or one more,
# or is malformed, and the file may carry an invalid UTF-8 byte.
EMBEDDING_VALUES = st.one_of(st.floats(-2, 2).map(repr),
                             st.sampled_from(["1", "-0.25", "1e-3", "+2"]))
NEAR_MISSES = st.sampled_from(["#", "1_0", "\u0663", "nan", "-inf", "1e400",
                               "0x1", "1,5", " "])


@st.composite
def embedding_files(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(["ab", "cd", "t\u00e9"]),
        st.lists(EMBEDDING_VALUES, min_size=dim, max_size=dim)), max_size=5))
    spoiler = draw(st.sampled_from([None, None, "value", "wide", "bare"]))
    if rows and spoiler:
        values = rows[draw(st.integers(0, len(rows) - 1))][1]
        if spoiler == "value":
            values[draw(st.integers(0, dim - 1))] = draw(NEAR_MISSES)
        elif spoiler == "wide":
            values.append(draw(EMBEDDING_VALUES))
        else:
            values.clear()
    count = len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    header = draw(st.sampled_from([f"{count} {dim}"] * 4 + [
        f"{count}", f"{count} {dim} 1", f"1_0 {dim}", f"\u0663 {dim}",
        f"{count} 0", f"-1 {dim}", f"+{count} {dim}", f"# {dim}"]))
    text = header + "\n" + "".join(
        " ".join((token, *values)) + "\n" for token, values in rows)
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


EMBEDDING_FILES = embedding_files()
