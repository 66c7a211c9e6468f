"""The benchmark's workloads by name."""

from .crawl_day import CrawlDay
from .diff_live import DiffLive
from .serve_read import ServeRead

NAMES = ("serve_read", "diff_live", "crawl_day")


def make(name: str, work_dir: str):
    """The workload called ``name``; ``work_dir`` holds its scratch
    files (the on-disk repository of ``diff_live``)."""
    if name == "serve_read":
        return ServeRead()
    if name == "diff_live":
        return DiffLive(work_dir)
    if name == "crawl_day":
        return CrawlDay()
    raise KeyError(name)
