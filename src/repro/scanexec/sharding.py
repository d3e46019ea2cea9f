"""Domain-sharded partitioning of the distinct-URL scan workload.

The scan phase is embarrassingly parallel *per URL*, but not uniformly
so: the staticjs analyzer memoises per script source and crawled sites
repeat a small set of inline scripts, so URLs from one registrable
domain share cache lines.  Sharding by domain keeps that locality — a
domain's URLs always land in the same shard, and a shard's worker walks
them back-to-back.

Assignment is deterministic: domains are ordered by workload size
(largest first, domain name as tie-break) and greedily placed on the
least-loaded shard, so the same task list always produces the same
shards regardless of thread scheduling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..simweb.url import Url

__all__ = ["ScanTask", "ScanShard", "build_scan_tasks", "scan_task", "shard_tasks",
           "task_domain"]


@dataclass
class ScanTask:
    """One unit of scan work: a distinct URL plus its crawled copy."""

    url: str
    #: the crawler's saved page bytes; None means the scanners must fetch
    #: the URL themselves (a URL submission — cloaking applies)
    content: Optional[bytes] = None
    content_type: str = "text/html"
    final_url: Optional[str] = None

    @property
    def is_file_scan(self) -> bool:
        return self.content is not None


@dataclass
class ScanShard:
    """A batch of tasks bound for one worker invocation."""

    index: int
    tasks: List[ScanTask] = field(default_factory=list)
    domains: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)


def task_domain(task: ScanTask) -> str:
    """The registrable domain a task shards on ('' when unparseable)."""
    parsed = Url.try_parse(task.url)
    return parsed.registrable_domain if parsed is not None else ""


def build_scan_tasks(dataset) -> List[ScanTask]:
    """The scan workload for a crawl dataset, in distinct-URL order.

    ``dataset`` is a :class:`~repro.crawler.storage.CrawlDataset`
    (duck-typed: ``distinct_urls()`` + ``content``) — the same inputs
    the serial scan loop reads.
    """
    tasks: List[ScanTask] = []
    for url in dataset.distinct_urls():
        cached = dataset.content.get(url)
        if cached is None:
            tasks.append(ScanTask(url=url))
        else:
            tasks.append(ScanTask(
                url=url,
                content=cached.content,
                content_type=cached.content_type,
                final_url=cached.final_url,
            ))
    return tasks


def scan_task(service, task: ScanTask):
    """One task's :class:`~repro.detection.aggregate.UrlVerdict` from
    ``service``: a file submission when the crawler saved the page, a
    URL submission otherwise.  The serial scan loop, the executor's
    ordered lane and its shards all scan through here."""
    if task.is_file_scan:
        return service.verdict(task.url, content=task.content,
                               content_type=task.content_type,
                               final_url=task.final_url)
    return service.verdict(task.url)


def shard_tasks(tasks: Sequence[ScanTask], shard_count: int) -> List[ScanShard]:
    """Partition ``tasks`` into at most ``shard_count`` domain shards.

    All tasks of one domain land in the same shard, in their original
    workload order.  Empty shards are dropped, so fewer shards than
    requested come back when there are fewer domains than slots.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1 (got %d)" % shard_count)
    by_domain: Dict[str, List[ScanTask]] = {}
    for task in tasks:
        by_domain.setdefault(task_domain(task), []).append(task)

    # largest-first greedy binning onto the least-loaded shard; the heap
    # is keyed (load, index) so ties always break to the lowest shard
    ordered = sorted(by_domain.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    heap = [(0, index) for index in range(shard_count)]
    shards = [ScanShard(index=index) for index in range(shard_count)]
    for domain, domain_tasks in ordered:
        load, index = heapq.heappop(heap)
        shards[index].tasks.extend(domain_tasks)
        shards[index].domains.append(domain)
        heapq.heappush(heap, (load + len(domain_tasks), index))

    populated = [shard for shard in shards if shard.tasks]
    for new_index, shard in enumerate(populated):
        shard.index = new_index
    return populated
