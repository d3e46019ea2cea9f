"""The parallel sharded crawl executor.

The paper's measurement ran for months because crawl throughput — one
browser surfing nine exchanges back to back — is the binding
constraint, not scan throughput.  Each exchange's credit economy is
independent state (its own RNG stream, member roster, campaign
schedule, and surf clock), which makes the exchange the natural shard
boundary: :class:`ParallelCrawlExecutor` runs each exchange's surf
session on its own worker with a shard-confined HTTP client, server
front-end, and dataset, then merges everything back in original
exchange order so ``crawl_stats``, the :class:`~repro.crawler.storage.CrawlDataset`,
the HAR logs, and the obs report are bit-identical to the serial loop
at any worker count.

Shared mutable state the merge reconciles:

* **rotating redirectors** — per-(host, path) round-robin counters on
  the simulated server; shards count independently and the merge sums
  them.  If two shards ever touch the same rotation key the round-robin
  interleaving would differ from serial, so the executor detects the
  overlap and transparently re-runs the whole crawl serially (the
  ``crawlexec.fallback.serial`` counter records it),
* **shortener accounting** — shard servers resolve slugs *without*
  mutating the shared directory and log each resolution; the merge
  replays the log through the real service in exchange order, which is
  exactly the serial order (the serial loop finishes one exchange
  before starting the next),
* **the shared clock** — shard clients run on private clocks from
  zero; the merge *replays* each shard's request ticks on the shared
  clock (one ``REQUEST_SECONDS`` advance per record that holds a
  request, restamping its ``started``), reproducing the serial
  float-accumulation sequence bit for bit — offset-shifting
  shard-local sums would differ in the last ulp.
"""

from .executor import CrawlExecution, CrawlSpec, ParallelCrawlExecutor

__all__ = [
    "CrawlExecution",
    "CrawlSpec",
    "ParallelCrawlExecutor",
]
