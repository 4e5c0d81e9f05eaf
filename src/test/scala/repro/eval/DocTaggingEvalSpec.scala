package repro.eval

import repro.{SharedRun, SparkSpec}

/** Doc-tagging precision against gold at test scale (Sec. 5.3 numbers). */
class DocTaggingEvalSpec extends SparkSpec {

  private lazy val report = DocTaggingEval.run(SharedRun.pipeline._1)

  test("some documents get concept tags") {
    assert(report.conceptCoverage > 0.1, f"coverage ${report.conceptCoverage}%.3f")
  }

  test("some documents get event tags") {
    assert(report.eventCoverage > 0.01)
  }

  test("concept tagging precision is high (paper: 0.88)") {
    info(f"concept precision ${report.conceptPrecision}%.3f coverage ${report.conceptCoverage}%.3f")
    assert(report.conceptPrecision > 0.7)
  }

  test("event tagging precision is high (paper: 0.96)") {
    info(f"event precision ${report.eventPrecision}%.3f coverage ${report.eventCoverage}%.3f")
    assert(report.eventPrecision > 0.7)
  }

  test("per-category breakdown covers multiple categories") {
    assert(report.perCategory.size >= 3)
    for ((cat, p, n) <- report.perCategory) assert(p >= 0.0 && p <= 1.0 && n > 0)
  }
}
