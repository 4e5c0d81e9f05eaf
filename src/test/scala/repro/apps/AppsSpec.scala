package repro.apps

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Fixed-seed ScalaCheck runner of the doc-tagging properties. */
private object AppsCheck {
  def apply(p: Prop): Unit = {
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20200614L)), p)
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  /** Small alphabets make repeated and shared tokens common. */
  def phrase(tokens: Seq[String], maxLen: Int): Gen[Seq[String]] =
    Gen.choose(0, maxLen).flatMap(Gen.listOfN(_, Gen.oneOf(tokens)))
}

class DocTaggingSpec extends AnyFunSuite {

  private val dict = Seq(1L -> Seq("zorvex"), 2L -> Seq("malkar"), 3L -> Seq("belfin"))

  test("keyEntities finds mentioned entities with normalized frequency") {
    val body = Seq("zorvex", "guide", "zorvex", "malkar")
    val ke = DocTagging.keyEntities(body, dict).toMap
    assert(math.abs(ke(1L) - 2.0 / 3) < 1e-9)
    assert(math.abs(ke(2L) - 1.0 / 3) < 1e-9)
    assert(!ke.contains(3L))
  }

  test("tagConcepts tags a parent concept the doc never mentions") {
    val title = Seq("review", "famous", "runner")
    val body = Seq("zorvex", "famous", "runner", "guide")
    val tags = DocTagging.tagConcepts(title, body, dict,
      parentConcepts = Map(1L -> Seq(100L)),
      conceptRep = Map(100L -> Seq("famous", "runner", "review", "marathon")),
      df = Map("famous" -> 1, "runner" -> 1), nDocs = 10)
    assert(tags.nonEmpty && tags.head._1 == 100L)
  }

  test("tagConcepts yields nothing without key entities") {
    val tags = DocTagging.tagConcepts(Seq("review"), Seq("guide"), dict,
      Map(1L -> Seq(100L)), Map(100L -> Seq("famous")), Map.empty, 10)
    assert(tags.isEmpty)
  }

  test("lcsLen computes token-level LCS") {
    assert(DocTagging.lcsLen(Seq("a", "b", "c"), Seq("a", "x", "b", "c")) == 3)
    assert(DocTagging.lcsLen(Seq("a"), Seq("b")) == 0)
    assert(DocTagging.lcsLen(Seq.empty, Seq("a")) == 0)
  }

  test("semanticSim is 1 for identical and 0 for disjoint token bags") {
    assert(math.abs(DocTagging.semanticSim(Seq("a", "b"), Seq("b", "a")) - 1.0) < 1e-9)
    assert(DocTagging.semanticSim(Seq("a"), Seq("b")) == 0.0)
  }

  test("tagEvents tags when LCS and semantic match both clear thresholds") {
    val title = Seq("zorvex", "explodes", "moscow")
    val body = Seq("recap", "|", "guide")
    val events = Seq((50L, Seq("zorvex", "explodes", "moscow", "2018")),
      (60L, Seq("malkar", "retires")),
      (70L, Seq("zorvex", "retires", "explodes", "paris", "moscow")), // LCS 3/5: on the 0.6 bound
      (80L, Seq("zorvex", "retires", "explodes", "paris", "moscow", "2018"))) // 3/6: below it
    val tags = DocTagging.tagEvents(title, body, events)
    assert(tags.map(_._1) == Seq(50L, 70L))
  }

  /** `tagEvents` as it was before the shared-token bound: LCS for every event
    * (LCS fraction ≥ 0.6 and semantic match ≥ 0.25).
    */
  private def tagEventsFull(title: Seq[String], body: Seq[String],
                            eventPhrases: Seq[(Long, Seq[String])]): Seq[(Long, Double)] = {
    val target = title ++ body.takeWhile(t => !repro.nlp.Lang.isPunct(t))
    eventPhrases.flatMap { case (id, phrase) =>
      val lcs = DocTagging.lcsLen(phrase, target).toDouble / math.max(1, phrase.size)
      val sim = DocTagging.semanticSim(phrase, target)
      if (lcs >= 0.6 && sim >= 0.25) Some((id, lcs + sim)) else None
    }.sortBy(-_._2)
  }

  test("property: tagEvents equals the unbounded LCS loop") {
    // a 5-token event sharing 3 tokens sits exactly on the 0.6 bound, and
    // the small alphabet makes both sides of it common
    val words = Seq("a", "b", "c", "d", "e")
    val inputs = for {
      events <- Gen.choose(0, 12).flatMap(Gen.listOfN(_,
        Gen.zip(Gen.choose(1L, 20L), AppsCheck.phrase(words, 5))))
      title <- AppsCheck.phrase(words, 5)
      body <- AppsCheck.phrase(words :+ "|", 6)
    } yield (events, title, body)
    AppsCheck(Prop.forAllNoShrink(inputs) { case (events, title, body) =>
      DocTagging.tagEvents(title, body, events) == tagEventsFull(title, body, events)
    })
  }
}
