package repro.apps

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Fixed-seed ScalaCheck runner shared by the apps specs. */
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

  test("inferConcepts falls back to context words (Eq. 12-14)") {
    val body = Seq("zorvex", "famous", "runner", "overview")
    val tags = DocTagging.inferConcepts(body, dict,
      concepts = Seq((100L, Seq("famous", "runner")), (200L, Seq("luxury", "suv"))))
    assert(tags.nonEmpty)
    assert(tags.head._1 == 100L)
    assert(!tags.exists(_._1 == 200L))
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
      (60L, Seq("malkar", "retires")))
    val tags = DocTagging.tagEvents(title, body, events)
    assert(tags.map(_._1) == Seq(50L))
  }

  /** `tagEvents` as it was before the shared-token bound: LCS for every event. */
  private def tagEventsFull(title: Seq[String], body: Seq[String],
                            eventPhrases: Seq[(Long, Seq[String])],
                            lcsFrac: Double, simThreshold: Double): Seq[(Long, Double)] = {
    val target = title ++ body.takeWhile(t => !repro.nlp.Lang.isPunct(t))
    eventPhrases.flatMap { case (id, phrase) =>
      val lcs = DocTagging.lcsLen(phrase, target).toDouble / math.max(1, phrase.size)
      val sim = DocTagging.semanticSim(phrase, target)
      if (lcs >= lcsFrac && sim >= simThreshold) Some((id, lcs + sim)) else None
    }.sortBy(-_._2)
  }

  test("property: tagEvents equals the unbounded LCS loop") {
    val words = Seq("a", "b", "c", "d", "e")
    val inputs = for {
      events <- Gen.choose(0, 12).flatMap(Gen.listOfN(_,
        Gen.zip(Gen.choose(1L, 20L), AppsCheck.phrase(words, 5))))
      title <- AppsCheck.phrase(words, 5)
      body <- AppsCheck.phrase(words :+ "|", 6)
      // k/m hits the bound exactly for an event of length m sharing k tokens
      lcsFrac <- Gen.oneOf(Gen.oneOf(0.0, 0.25, 0.6, 1.0),
        Gen.choose(1, 5).flatMap(m => Gen.choose(0, m).map(_.toDouble / m)))
      simThreshold <- Gen.oneOf(0.0, 0.25, 0.5)
    } yield (events, title, body, lcsFrac, simThreshold)
    AppsCheck(Prop.forAllNoShrink(inputs) { case (events, title, body, lcsFrac, simThreshold) =>
      DocTagging.tagEvents(title, body, events, lcsFrac, simThreshold) ==
        tagEventsFull(title, body, events, lcsFrac, simThreshold)
    })
  }
}

class StoryTreeSpec extends AnyFunSuite {
  import StoryTree._

  private val e1 = EventInfo(1, Seq("zorvex", "wins", "finals"), Seq("zorvex"), Seq("wins"), 10)
  private val e2 = EventInfo(2, Seq("zorvex", "wins", "finals", "2018"), Seq("zorvex"), Seq("wins"), 20)
  private val e3 = EventInfo(3, Seq("zorvex", "signs", "roster"), Seq("zorvex"), Seq("signs"), 30)
  private val e4 = EventInfo(4, Seq("malkar", "retires"), Seq("malkar"), Seq("retires"), 40)

  private val vecs = repro.ml.Embeddings.tokenVectors(Seq(
    e1.phrase, e2.phrase, e3.phrase, e4.phrase))

  test("retrieveRelated requires a shared entity") {
    val rel = retrieveRelated(e1, Seq(e2, e3, e4))
    assert(rel.map(_.id) == Seq(2L, 3L))
  }

  test("similarity is higher for same-trigger same-entity events") {
    val s12 = similarity(e1, e2, vecs)
    val s13 = similarity(e1, e3, vecs)
    assert(s12 > s13)
  }

  test("hierarchical clustering groups near-duplicates") {
    // threshold between the two measured similarities separates the pairs
    val thr = (similarity(e1, e2, vecs) + similarity(e1, e3, vecs)) / 2
    val clusters = hierarchicalCluster(Seq(e1, e2, e3), similarity(_, _, vecs), thr)
    val c12 = clusters.find(_.exists(_.id == 1))
    assert(c12.exists(_.exists(_.id == 2)))
    assert(!c12.exists(_.exists(_.id == 3)))
  }

  test("form orders branches and events by time, root is earliest") {
    val t = form(e1, Seq(e2, e3, e4), vecs, threshold = 2.0)
    assert(t.root.id == 1)
    for (b <- t.branches) assert(b.map(_.time) == b.map(_.time).sorted)
    assert(t.branches.map(_.head.time) == t.branches.map(_.head.time).sorted)
    // e4 shares no entity — not in the tree
    assert(!t.branches.flatten.exists(_.id == 4))
  }
}

class QueryRewriteSpec extends AnyFunSuite {
  import QueryRewrite._

  private val idx = Index(
    conceptPhrases = Seq((100L, Seq("famous", "runner")), (101L, Seq("runner"))),
    entityNames = Seq((1L, Seq("zorvex")), (2L, Seq("malkar")), (3L, Seq("belfin"))),
    entitiesOfConcept = Map(100L -> Seq(1L, 2L)),
    correlated = Map(1L -> Seq(2L, 3L)))

  test("detectConcept prefers the longest contained phrase") {
    assert(detectConcept(Seq("the", "famous", "runner"), idx).map(_._1) == Some(100L))
    assert(detectConcept(Seq("best", "runner"), idx).map(_._1) == Some(101L))
    assert(detectConcept(Seq("luxury", "suv"), idx).isEmpty)
  }

  test("rewrite appends instance entities to the query") {
    val rw = rewrite(Seq("famous", "runner"), idx)
    assert(rw == Seq(Seq("famous", "runner", "zorvex"), Seq("famous", "runner", "malkar")))
  }

  test("recommend returns correlated entities for an entity query") {
    assert(recommend(Seq("zorvex"), idx) == Seq(Seq("malkar"), Seq("belfin")))
  }

  test("no concept and no entity → no output") {
    assert(rewrite(Seq("luxury", "suv"), idx).isEmpty)
    assert(recommend(Seq("luxury", "suv"), idx).isEmpty)
  }

  /** Detection as it was before the index: filter, then stable sort. */
  private def longestScan(query: Seq[String], dict: Seq[(Long, Seq[String])]) =
    dict.filter { case (_, p) => p.nonEmpty && query.containsSlice(p) }
      .sortBy { case (id, p) => (-p.size, id) }.headOption

  test("property: detectConcept and detectEntity equal the filter-and-sort scan") {
    val words = Seq("a", "b", "c", "d")
    val dict = Gen.choose(0, 10).flatMap(Gen.listOfN(_,
      Gen.zip(Gen.choose(1L, 6L), AppsCheck.phrase(words, 3))))
    val inputs = for {
      concepts <- dict
      entities <- dict
      query <- AppsCheck.phrase(words, 8)
    } yield (Index(concepts, entities, Map.empty, Map.empty), query)
    AppsCheck(Prop.forAllNoShrink(inputs) { case (ix, query) =>
      detectConcept(query, ix) == longestScan(query, ix.conceptPhrases) &&
        detectEntity(query, ix) == longestScan(query, ix.entityNames)
    })
  }
}
