package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core.Normalize.MinedPhrase
import repro.data.OntoGen
import repro.nlp.Lang

class NormalizeSpec extends AnyFunSuite {

  private def mp(seed: Long, tokens: Seq[String], titles: Seq[Seq[String]] = Seq.empty,
                 isEvent: Boolean = false) =
    MinedPhrase(seed, tokens, isEvent, titles, Seq(seed * 10), seed * 100)

  private def normalize(mined: Seq[MinedPhrase]) = Normalize.normalize(mined, idBase = 0L)

  test("identical phrases with shared context merge into one node") {
    val t = Seq(Seq("review", "famous", "runner"))
    val nodes = normalize(Seq(mp(1, Seq("famous", "runner"), t), mp(2, Seq("famous", "runner"), t)))
    assert(nodes.size == 1)
    assert(nodes.head.seeds == Seq(1L, 2L))
    assert(nodes.head.goldAttns.toSet == Set(100L, 200L))
  }

  test("same token set in different order merges (non-stop set criterion)") {
    val t = Seq(Seq("famous", "runner", "review"))
    val nodes = normalize(Seq(
      mp(1, Seq("famous", "runner"), t), mp(2, Seq("runner", "famous"), t)))
    assert(nodes.size == 1)
    // representative phrase is the most frequent variant (tie → lexicographic)
    assert(nodes.head.variants.size == 2)
  }

  test("different token sets do not merge") {
    val nodes = normalize(Seq(
      mp(1, Seq("famous", "runner")), mp(2, Seq("classic", "runner"))))
    assert(nodes.size == 2)
  }

  test("same tokens with disjoint contexts stay separate (TF-IDF criterion)") {
    // disjoint titles: context cosine ≈ 0.25, below δ_m = 0.3
    val nodes = normalize(Seq(
      mp(1, Seq("famous", "runner"), Seq(Seq("review", "marathon", "guide"))),
      mp(2, Seq("famous", "runner"), Seq(Seq("ranking", "sitcom", "recap")))))
    assert(nodes.size == 2)
    // two of three title tokens shared: cosine ≈ 0.67, so they merge
    val merged = normalize(Seq(
      mp(1, Seq("famous", "runner"), Seq(Seq("review", "marathon", "guide"))),
      mp(2, Seq("famous", "runner"), Seq(Seq("review", "marathon", "recap")))))
    assert(merged.size == 1)
  }

  test("events and concepts never merge") {
    val nodes = normalize(Seq(
      mp(1, Seq("famous", "runner")), mp(2, Seq("famous", "runner"), isEvent = true)))
    assert(nodes.size == 2)
    assert(nodes.map(_.kind).toSet == Set("concept", "event"))
  }

  test("empty phrases are dropped") {
    assert(normalize(Seq(mp(1, Seq.empty))).isEmpty)
  }

  test("node ids start above idBase and are unique") {
    val nodes = Normalize.normalize(Seq(
      mp(1, Seq("a1", "runner")), mp(2, Seq("classic", "runner"))), idBase = 500)
    assert(nodes.forall(_.id > 500))
    assert(nodes.map(_.id).distinct.size == nodes.size)
  }

  test("tfidfCosine of identical bags is ~1") {
    val df = Map("a" -> 1, "b" -> 1)
    assert(math.abs(Normalize.tfidfCosine(Seq("a", "b"), Seq("a", "b"), df, 2) - 1.0) < 1e-9)
  }

  test("property: normalize gives the same nodes for any order of distinct-seed phrases") {
    val vocab = Seq("famous", "runner", "classic", "the", "review", "guide")
    val tokens = Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.oneOf(vocab)))
    val phrase = for {
      ts <- tokens; titles <- Gen.listOfN(2, tokens); ev <- Gen.oneOf(false, true)
    } yield (ts, titles, ev)
    val inputs = for {
      n <- Gen.choose(0, 12)
      seeds <- Gen.pick(n, 1L to 40L)
      ps <- Gen.listOfN(n, phrase)
      shuffleSeed <- Gen.choose(0L, Long.MaxValue)
    } yield (seeds.toSeq.zip(ps).map { case (s, (ts, titles, ev)) => mp(s, ts, titles, ev) }, shuffleSeed)
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20200614L)), Prop.forAllNoShrink(inputs) { case (mined, shuffleSeed) =>
        normalize(mined) == normalize(new scala.util.Random(shuffleSeed).shuffle(mined))
      })
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }
}

class DerivationSpec extends SparkSpec {
  import spark.implicits._

  test("isNounPhrase accepts ADJ*NOUN+ and rejects entities/verbs/stops") {
    assert(Derivation.isNounPhrase(Seq("famous", "runner")))
    assert(Derivation.isNounPhrase(Seq("crime", "series")))
    assert(!Derivation.isNounPhrase(Seq("zorvex", "runner")))
    assert(!Derivation.isNounPhrase(Seq("famous", "wins")))
    assert(!Derivation.isNounPhrase(Seq("the", "runner")))
    assert(!Derivation.isNounPhrase(Seq("famous"))) // bare ADJ is headless
    assert(!Derivation.isNounPhrase(Seq.empty))
  }

  test("commonSuffixes finds shared noun-phrase suffixes with support") {
    val df = Seq(
      (1L, Seq("famous", "crime", "series")),
      (2L, Seq("classic", "crime", "series")),
      (3L, Seq("luxury", "suv"))).toDF("id", "phrase")
    val out = Derivation.commonSuffixes(spark, df).collect()
      .map(r => r.getSeq[String](0) -> r.getLong(1)).toMap
    assert(out(Seq("crime", "series")) == 2)
    assert(out(Seq("series")) == 2)
    assert(!out.contains(Seq("suv")))
  }

  test("commonSuffixes counts distinct concepts, not rows") {
    val df = Seq(
      (1L, Seq("famous", "runner")),
      (1L, Seq("famous", "runner"))).toDF("id", "phrase")
    val out = Derivation.commonSuffixes(spark, df).collect()
    assert(out.isEmpty)
  }

  test("commonSuffixes runs in at most 2 Spark jobs") {
    // one shuffle, by suffix, serves both aggregations of countDistinct
    val df = Seq((1L, Seq("famous", "crime", "series")), (2L, Seq("classic", "crime", "series")))
      .toDF("id", "phrase")
    assert(jobsOf(Derivation.commonSuffixes(spark, df).collect()) <= 2)
  }

  test("commonSuffixes support counts match DuckDB") {
    // generated concept phrases, plus a repeated row and frequent suffixes
    // the noun-phrase filter must reject (stop word, entity, verb, bare ADJ)
    val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 25, nEvents = 15, seed = 4))
    val fixture = onto.concepts.map(c => c.id -> c.tokens) ++ Seq(
      900001L -> Seq("famous", "crime", "series"), 900001L -> Seq("famous", "crime", "series"),
      900002L -> Seq("crime", "the", "series"), 900003L -> Seq("drama", "the", "series"),
      900004L -> Seq("famous", "zorvex", "runner"), 900005L -> Seq("classic", "zorvex", "runner"),
      900006L -> Seq("famous", "runner", "wins"), 900007L -> Seq("classic", "runner", "wins"),
      900008L -> Seq("runner", "famous"), 900009L -> Seq("series", "famous"))
    val concepts = fixture.toDF("id", "phrase")
    val lexicon = fixture.flatMap(_._2).distinct.map { t =>
      val i = Lang.info(t); (t, i.stop.toString, i.pos)
    }.toDF("token", "stop", "pos")
    Oracle.assertEquivalent(
      Derivation.commonSuffixes(spark, concepts)
        .select(concat_ws(" ", $"suffix") as "suffix", $"support"),
      """WITH c   AS (SELECT CAST(id AS BIGINT) AS id, string_split(phrase, ' ') AS toks FROM concepts),
        |     cut AS (SELECT id, toks, unnest(range(1, len(toks))) AS i FROM c),
        |     suf AS (SELECT id, list_slice(toks, i + 1, len(toks)) AS suffix FROM cut),
        |     tok AS (SELECT id, suffix, unnest(suffix) AS t,
        |                    unnest(range(1, len(suffix) + 1)) AS k FROM suf),
        |     np  AS (SELECT tok.id, tok.suffix FROM tok JOIN lexicon l ON l.token = tok.t
        |             GROUP BY tok.id, tok.suffix
        |             HAVING bool_and(l.stop = 'false' AND l.pos IN ('NOUN', 'ADJ'))
        |                AND arg_max(l.pos, tok.k) = 'NOUN')
        |SELECT array_to_string(suffix, ' ') AS suffix, COUNT(DISTINCT id) AS support
        |FROM np GROUP BY suffix HAVING COUNT(DISTINCT id) >= 2""".stripMargin,
      "concepts" -> fixture.map { case (id, p) => (id, p.mkString(" ")) }.toDF("id", "phrase"),
      "lexicon" -> lexicon)
  }

  test("eventPattern collapses entity runs into one slot") {
    assert(Derivation.eventPattern(Seq("zorvex", "kaldo", "wins", "award")) ==
      Seq("<E>", "wins", "award"))
  }

  test("commonPatterns derives a topic from events sharing pattern + concept") {
    val events = Seq(
      (10L, Seq("zorvexa", "holds", "concert", "2018")),
      (11L, Seq("malkarb", "holds", "concert", "london")))
    val entityConcepts = Map(
      Seq("zorvexa") -> Seq(Seq("pop", "singer"), Seq("singer")),
      Seq("malkarb") -> Seq(Seq("singer")))
    val topics = Derivation.commonPatterns(events, entityConcepts)
    assert(topics.size == 1)
    assert(topics.head.phrase == Seq("singer", "holds", "concert"))
    assert(topics.head.eventNodeIds.toSet == Set(10L, 11L))
  }

  test("commonPatterns picks the most fine-grained common concept") {
    val events = Seq(
      (10L, Seq("zorvexa", "retires")),
      (11L, Seq("malkarb", "retires")))
    val entityConcepts = Map(
      Seq("zorvexa") -> Seq(Seq("famous", "runner"), Seq("runner")),
      Seq("malkarb") -> Seq(Seq("famous", "runner"), Seq("runner")))
    val topics = Derivation.commonPatterns(events, entityConcepts)
    assert(topics.head.phrase == Seq("famous", "runner", "retires"))
  }

  test("commonPatterns requires shared concept ancestry") {
    val events = Seq(
      (10L, Seq("zorvexa", "retires")),
      (11L, Seq("malkarb", "retires")))
    val entityConcepts = Map(
      Seq("zorvexa") -> Seq(Seq("runner")),
      Seq("malkarb") -> Seq(Seq("singer")))
    assert(Derivation.commonPatterns(events, entityConcepts).isEmpty)
  }

  test("commonPatterns requires minimum support") {
    val events = Seq((10L, Seq("zorvexa", "retires")))
    val entityConcepts = Map(Seq("zorvexa") -> Seq(Seq("runner")))
    assert(Derivation.commonPatterns(events, entityConcepts).isEmpty)
  }
}
