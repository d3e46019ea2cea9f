"""Integration tests for the crawl-and-scan pipeline (small scale)."""


from repro.crawler.storage import RecordKind
from repro.httpsim import HarLog
from repro.simweb.url import Url


class TestCrawl:
    def test_all_exchanges_crawled(self, small_dataset):
        assert len(small_dataset.exchanges()) == 9

    def test_records_have_kinds(self, small_dataset):
        kinds = {r.kind for r in small_dataset.records}
        assert kinds == {RecordKind.SELF_REFERRAL, RecordKind.POPULAR_REFERRAL,
                         RecordKind.REGULAR}

    def test_self_referrals_point_home(self, small_dataset):
        for record in small_dataset.records:
            if record.kind == RecordKind.SELF_REFERRAL:
                host = Url.parse(record.url).host
                assert any(token in host for token in
                           ("10khits", "manyhit", "smiley", "sendsurf", "otohits",
                            "cashnhits", "easyhits4u", "hit2hit", "trafficmonsoon"))

    def test_popular_referrals_are_popular(self, small_dataset):
        from repro.simweb.popular import is_popular_url

        for record in small_dataset.records:
            if record.kind == RecordKind.POPULAR_REFERRAL:
                assert is_popular_url(Url.parse(record.url))

    def test_content_cached_for_regular_urls(self, small_dataset):
        regular = [r for r in small_dataset.records if r.kind == RecordKind.REGULAR]
        cached = sum(1 for r in regular if r.url in small_dataset.content)
        assert cached / len(regular) > 0.99

    def test_har_logs_per_exchange(self, small_dataset):
        assert len(small_dataset.exchange_records) == 9
        assert all(len(HarLog(records)) > 0
                   for records in small_dataset.exchange_records.values())

    def test_auto_crawls_bigger_than_manual(self, small_dataset):
        auto = len(small_dataset.records_for("10KHits"))
        manual = len(small_dataset.records_for("Cash N Hits"))
        assert auto > manual * 5


class TestScan:
    def test_every_distinct_url_scanned(self, small_dataset, small_outcome):
        for url in small_dataset.distinct_urls():
            assert url in small_outcome.verdicts

    def test_verdicts_have_reports(self, small_outcome):
        flagged = [v for v in small_outcome.verdicts.values() if v.malicious]
        assert flagged
        assert any(v.vt_report is not None for v in flagged)

    def test_some_malicious_found(self, small_dataset, small_outcome):
        regular = [r for r in small_dataset.records if r.kind == RecordKind.REGULAR]
        malicious = sum(1 for r in regular if small_outcome.is_malicious(r.url))
        assert 0.05 < malicious / len(regular) < 0.7


class TestDetectionQuality:
    """Ground-truth evaluation: the pipeline measures without truth, but we
    can grade it afterwards."""

    def test_precision_recall(self, small_study, small_dataset, small_outcome):
        registry = small_study.web.registry
        tp = fp = fn = tn = 0
        for url in small_dataset.distinct_urls(kind=RecordKind.REGULAR):
            parsed = Url.try_parse(url)
            if parsed is None:
                continue
            truth = registry.truth_for_url(parsed)
            if truth is None:
                continue
            flagged = small_outcome.is_malicious(url)
            if truth and flagged:
                tp += 1
            elif truth and not flagged:
                fn += 1
            elif not truth and flagged:
                fp += 1
            else:
                tn += 1
        precision = tp / max(tp + fp, 1)
        recall = tp / max(tp + fn, 1)
        # scanners are good but imperfect — like the real tools
        assert precision > 0.9
        assert recall > 0.55
        assert fp > 0 or fn > 0  # perfection would be suspicious

    def test_false_positives_exist_organically(self, small_results):
        # Section V-E: the study found FPs; ours must too at this scale
        assert isinstance(small_results.false_positives, list)
