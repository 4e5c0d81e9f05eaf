package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

class TextRankSpec extends AnyFunSuite {

  // eight content tokens, so the top 5 keywords are a real selection
  private val texts = Seq(
    Seq("what", "are", "the", "famous", "crime", "series"),
    Seq("review", "famous", "crime", "series"),
    Seq("famous", "classic", "crime", "series"),
    Seq("guide", "ranking", "recap"))

  test("keywords favor frequently co-occurring content tokens") {
    // keywords come highest score first, so the first three are the top 3
    val kws = TextRank.keywords(texts)
    assert(kws.size == 5)
    assert(kws.take(3).toSet.intersect(Set("famous", "crime", "series")).size >= 2)
  }

  test("extract preserves first-appearance order") {
    val p = TextRank.extract(texts)
    val order = texts.flatten.distinct
    assert(p.size == 5)
    assert(p == p.sortBy(order.indexOf))
  }

  test("stop words never extracted") {
    val p = TextRank.extract(texts)
    assert(!p.exists(Set("what", "are", "the")))
  }

  test("empty input yields empty output") {
    assert(TextRank.extract(Seq.empty) == Seq.empty)
    assert(TextRank.extract(Seq(Seq("the", "of"))) == Seq.empty)
  }
}

class AutoPhraseLiteSpec extends AnyFunSuite {

  private val texts = Seq(
    Seq("review", "famous", "crime", "series"),
    Seq("famous", "crime", "series", "zorvex"),
    Seq("the", "famous", "crime", "series"))

  test("mines the cohesive frequent n-gram") {
    val phrases = AutoPhraseLite.minePhrases(texts)
    assert(phrases.exists(_.containsSlice(Seq("crime", "series"))))
  }

  test("extract output excludes stop words") {
    val p = AutoPhraseLite.extract(texts)
    assert(!p.contains("the"))
  }

  test("phrases below min frequency are dropped") {
    val one = Seq(Seq("famous", "crime", "series"))
    assert(AutoPhraseLite.minePhrases(one).forall(_.size <= 3))
  }

  test("empty input") {
    assert(AutoPhraseLite.extract(Seq.empty) == Seq.empty)
  }
}

class MatchAlignSpec extends AnyFunSuite {

  test("matchExtract strips a known prefix and trailing stops") {
    val q = Seq("what", "are", "the", "famous", "runner")
    assert(MatchAlign.matchExtract(q, MatchAlign.SeedPatterns) == Some(Seq("famous", "runner")))
  }

  test("matchExtract fails without a known prefix") {
    assert(MatchAlign.matchExtract(Seq("famous", "runner"), MatchAlign.SeedPatterns).isEmpty)
  }

  test("bootstrapping learns new stop-prefix patterns") {
    // seed pattern discovers three concepts; the "which are the" prefix then
    // reaches the min support of 2 through those known concepts
    // (pattern-concept duality), while "who are the", seen once, does not
    val queries = Seq(
      Seq("what", "are", "the", "famous", "runner"),
      Seq("what", "are", "the", "classic", "sitcom"),
      Seq("what", "are", "the", "luxury", "suv"),
      Seq("which", "are", "the", "famous", "runner"),
      Seq("which", "are", "the", "classic", "sitcom"),
      Seq("who", "are", "the", "luxury", "suv"))
    val pats = MatchAlign.bootstrap(queries)
    assert(pats.contains(Seq("which", "are", "the")))
    assert(!pats.contains(Seq("who", "are", "the")))
  }

  test("bootstrapping runs three rounds") {
    // a chain: each round's new prefix extracts the two concepts that teach
    // the next one, so "about the" is first learned in round 3 and
    // "how is the" would be in round 4
    def pair(prefix: String, a: String, b: String): Seq[Seq[String]] =
      Seq(a, b).map(c => (prefix.split(" ") ++ c.split(" ")).toSeq)
    val queries = pair("what are the", "famous runner", "classic sitcom") ++
      pair("which are the", "famous runner", "classic sitcom") ++
      pair("which are the", "luxury suv", "cheap phone") ++
      pair("who are the", "luxury suv", "cheap phone") ++
      pair("who are the", "rare coin", "modern opera") ++
      pair("about the", "rare coin", "modern opera") ++
      pair("about the", "vintage guitar", "iconic novel") ++
      pair("how is the", "vintage guitar", "iconic novel")
    val pats = MatchAlign.bootstrap(queries)
    assert(pats.contains(Seq("about", "the")))
    assert(!pats.contains(Seq("how", "is", "the")))
  }

  test("alignOne finds the chunk containing query tokens in order") {
    val q = Seq("famous", "runner")
    val t = Seq("review", "famous", "classic", "runner", "zorvex")
    assert(MatchAlign.alignOne(q, t) == Some(Seq("famous", "classic", "runner")))
  }

  test("alignOne fails when order differs") {
    assert(MatchAlign.alignOne(Seq("runner", "famous"), Seq("famous", "classic", "runner")).isEmpty)
  }

  test("alignExtract picks the most frequent candidate") {
    val q = Seq("famous", "runner")
    val titles = Seq(
      Seq("famous", "runner"),
      Seq("famous", "runner", "zorvex"),
      Seq("famous", "classic", "runner"))
    assert(MatchAlign.alignExtract(q, titles) == Some(Seq("famous", "runner")))
  }

  test("matchAlignExtract pools both strategies") {
    val q = Seq("what", "are", "the", "famous", "runner")
    val titles = Seq(Seq("review", "famous", "runner"))
    val r = MatchAlign.matchAlignExtract(q, titles, MatchAlign.SeedPatterns)
    assert(r == Some(Seq("famous", "runner")))
  }
}

class CoverRankSpec extends AnyFunSuite {

  test("subtitles split on punctuation") {
    assert(CoverRank.subtitles(Seq("review", "|", "zorvex", "explodes", ",", "recap")) ==
      Seq(Seq("review"), Seq("zorvex", "explodes"), Seq("recap")))
  }

  test("top subtitle covers the most query tokens") {
    val queries = Seq((Seq("zorvex", "explodes", "2018"), 1.0))
    val titles = Seq(
      (Seq("review", "overview", "guide", "|", "zorvex", "explodes", "2018"), 0.9),
      (Seq("ranking", "recap", "analysis"), 0.5))
    assert(CoverRank.extract(queries, titles) == Seq("zorvex", "explodes", "2018"))
  }

  test("length band filters out-of-range subtitles") {
    val queries = Seq((Seq("zorvex"), 1.0))
    val titles = Seq((Seq("zorvex", "|", "a", "b", "c"), 1.0))
    // "zorvex" alone is below the lenLo=3 band
    assert(CoverRank.extract(queries, titles) == Seq("a", "b", "c"))
  }

  test("ties break by click weight") {
    val queries = Seq((Seq("zorvex", "explodes"), 1.0))
    val titles = Seq(
      (Seq("zorvex", "explodes", "moscow"), 0.2),
      (Seq("zorvex", "explodes", "paris"), 0.9))
    assert(CoverRank.extract(queries, titles) == Seq("zorvex", "explodes", "paris"))
  }

  test("empty when nothing in band") {
    assert(CoverRank.extract(Seq((Seq("a"), 1.0)), Seq((Seq("b"), 1.0))) == Seq.empty)
  }
}

class TextSummaryLiteSpec extends AnyFunSuite {

  test("decodes the dominant bigram path") {
    val lm = TextSummaryLite.fit(Seq(
      Seq("famous", "runner"), Seq("famous", "runner"), Seq("famous", "coach")))
    assert(lm.summarize() == Seq("famous", "runner"))
  }

  test("never repeats a token and respects maxLen") {
    val lm = TextSummaryLite.fit(Seq(Seq("a", "b", "a", "b", "a")))
    val s = lm.summarize()
    assert(s.distinct == s)
    // a 20-token chain stops at the 12-token cap
    val chain = (1 to 20).map(i => s"t$i")
    assert(TextSummaryLite.fit(Seq(chain)).summarize() == chain.take(12))
  }

  test("empty corpus yields empty summary") {
    assert(TextSummaryLite.fit(Seq.empty).summarize() == Seq.empty)
  }
}
