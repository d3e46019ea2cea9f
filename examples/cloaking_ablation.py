#!/usr/bin/env python3
"""The footnote-1 cloaking-mitigation experiment.

"Some malicious websites use cloaking strategies ... to evade detection
by URL-based malware detection tools. ... we download completed pages to
our local storage and upload the files to malware detection tools."

This example cloaks a batch of malicious pages (the server serves a
benign decoy to referrer-less scanner fetches) and compares detection:

* URL submission — the scanner fetches the URL itself and is cloaked,
* file submission — the crawler's browser-fetched copy is uploaded.
"""


from repro.crawler import CrawlPipeline, PipelineOptions
from repro.detection import Submission, VirusTotalSim
from repro.httpsim import SimHttpClient
from repro.simweb.generator import WebGenerationConfig, WebGenerator


def main() -> None:
    web = WebGenerator(WebGenerationConfig(seed=11, scale=0.01)).build()
    pipeline = CrawlPipeline(web, PipelineOptions(seed=5))

    # cloak every malicious member page that carries active content
    cloaked_urls = []
    for site in web.registry.sites(malicious=True):
        for path, page in site.pages.items():
            if page.truth.malicious and "<script" in page.html.lower():
                site.behavior.cloaked_paths[path] = (
                    "<html><head><title>recipes</title></head>"
                    "<body><p>grandma's best cookie recipes</p></body></html>"
                )
                cloaked_urls.append(site.url(path))
                break
    print("cloaked %d malicious pages\n" % len(cloaked_urls))

    scanner_client = SimHttpClient(pipeline.server)
    vt_by_url = VirusTotalSim(client=scanner_client)
    vt_by_file = VirusTotalSim()

    url_detections = file_detections = 0
    for url in cloaked_urls:
        if vt_by_url.scan(Submission(url=url)).malicious:
            url_detections += 1
        # the crawler arrives from an exchange, so it sees the real page
        browser_view = scanner_client.fetch(url, referrer="http://www.10khits.com/surf")
        report = vt_by_file.scan(Submission(
            url=url,
            content=browser_view.response.body,
            content_type=browser_view.response.content_type,
        ))
        if report.malicious:
            file_detections += 1

    total = len(cloaked_urls)
    print("URL submission  (cloaked view) : %3d/%d detected (%.0f%%)"
          % (url_detections, total, 100 * url_detections / total))
    print("file submission (browser view) : %3d/%d detected (%.0f%%)"
          % (file_detections, total, 100 * file_detections / total))
    print("\n-> uploading locally saved pages defeats cloaking, "
          "which is why the study submits files")


if __name__ == "__main__":
    main()
