"""Shortcuts for loading the packaged corpus in tests."""
from aspectkbl import corpus_path, corpus_text, parse_net, parse_obligation


def net(name):
    return parse_net(corpus_text(name))


def obl(name):
    return parse_obligation(corpus_text(name))


def path(name) -> str:
    return str(corpus_path(name))


def names(suffix):
    """The names of the corpus files with the suffix, sorted."""
    return sorted(p.name for p in corpus_path("").iterdir()
                  if p.name.endswith(suffix))
