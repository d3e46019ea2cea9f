"""Detection-tool vetting against a gold-standard malware set.

Reproduces the Section III-B tool-selection experiment: assemble a gold
standard of known malware (the paper used the ad-injection samples from
Xing et al. [40]), run every candidate tool over it, and keep only the
tools that detect 100%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..jsengine import CompileCache
from ..malware import (
    build_flash_ad_kit,
    deceptive_download_bar,
    invisible_iframe,
    js_injected_iframe,
    make_executable,
    tiny_iframe,
)
from .base import ScanReport, Submission
from .heuristics import analyze_content

__all__ = ["GoldSample", "VettingResult", "build_gold_standard", "vet_tools"]


@dataclass
class GoldSample:
    """One gold-standard malware artifact."""

    name: str
    url: str
    content: bytes
    content_type: str = "text/html"


@dataclass
class VettingResult:
    """Per-tool accuracy on the gold standard."""

    accuracies: Dict[str, float] = field(default_factory=dict)
    detections: Dict[str, List[str]] = field(default_factory=dict)

    def accepted_tools(self, threshold: float = 1.0) -> List[str]:
        """Tools meeting the acceptance threshold (paper keeps 100%)."""
        return sorted(name for name, acc in self.accuracies.items() if acc >= threshold)

    def table_rows(self) -> List[Tuple[str, float]]:
        return sorted(self.accuracies.items(), key=lambda kv: kv[1], reverse=True)


def build_gold_standard(rng: random.Random, per_family: int = 5) -> List[GoldSample]:
    """Generate the gold-standard corpus (ad-injection style malware).

    Mirrors the gold standard's composition: hidden-iframe ad injection,
    JS-injected frames, deceptive downloads, click-jacking Flash, and
    malicious executables.
    """
    samples: List[GoldSample] = []
    shell = "<html><head><title>sample</title></head><body><p>content</p>%s</body></html>"

    for index in range(per_family):
        target = "http://inject-target-%d.example.com/ads" % index
        samples.append(GoldSample(
            name="gold-tiny-iframe-%d" % index,
            url="http://gold%d.test/tiny" % index,
            content=(shell % tiny_iframe(rng, target).html).encode("utf-8"),
        ))
        samples.append(GoldSample(
            name="gold-invisible-iframe-%d" % index,
            url="http://gold%d.test/invisible" % index,
            content=(shell % invisible_iframe(rng, target).html).encode("utf-8"),
        ))
        samples.append(GoldSample(
            name="gold-js-iframe-%d" % index,
            url="http://gold%d.test/jsinject" % index,
            content=(shell % js_injected_iframe(rng, target, obfuscation_depth=1 + index % 3).html).encode("utf-8"),
        ))
        lure = deceptive_download_bar(rng, "http://payload-%d.example.com/flashplayer.exe" % index)
        samples.append(GoldSample(
            name="gold-deceptive-download-%d" % index,
            url="http://gold%d.test/download" % index,
            content=(shell % lure.html).encode("utf-8"),
        ))
        kit = build_flash_ad_kit(
            rng, "http://static-%d.example.com" % index, "http://ads-%d.example.com/pop" % index
        )
        samples.append(GoldSample(
            name="gold-flash-%d" % index,
            url="http://gold%d.test/AdFlash.swf" % index,
            content=kit.swf_bytes,
            content_type="application/x-shockwave-flash",
        ))
        samples.append(GoldSample(
            name="gold-exe-%d" % index,
            url="http://gold%d.test/flashplayer.exe" % index,
            content=make_executable(rng, malicious=True),
            content_type="application/x-msdownload",
        ))
    return samples


def vet_tools(tools: Sequence, samples: Sequence[GoldSample]) -> VettingResult:
    """Run every tool over the gold standard; measure detection accuracy.

    Every tool judges the same :func:`analyze_content` result, so each
    sample is analyzed once (its scripts compiled once per distinct
    source) and the analysis rides on the submission, as in the scan
    pipeline.
    """
    compile_cache = CompileCache()
    submissions = [
        Submission(url=sample.url, content=sample.content, content_type=sample.content_type,
                   analysis=analyze_content(sample.content, sample.content_type, sample.url,
                                            compile_cache=compile_cache))
        for sample in samples
    ]
    result = VettingResult()
    for tool in tools:
        detected: List[str] = []
        for sample, submission in zip(samples, submissions):
            report: ScanReport = tool.scan(submission)
            if report.malicious:
                detected.append(sample.name)
        result.accuracies[tool.name] = len(detected) / len(samples) if samples else 0.0
        result.detections[tool.name] = detected
    return result
