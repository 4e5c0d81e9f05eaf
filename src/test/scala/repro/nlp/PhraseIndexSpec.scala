package repro.nlp

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.apps.DocTagging

class PhraseIndexSpec extends AnyFunSuite {

  /** The scan the index replaces: every entry tried at every position. */
  private def scan(dict: Seq[(Long, Seq[String])], text: Seq[String]): Seq[(Int, Seq[Int])] =
    dict.indices.map(e => e -> text.indices.filter(i => text.startsWith(dict(e)._2, i)))
      .filter(_._2.nonEmpty)

  /** `DocTagging.keyEntities` as it was before the index. */
  private def keyEntitiesScan(body: Seq[String], dict: Seq[(Long, Seq[String])]): Seq[(Long, Double)] = {
    val counts = dict.flatMap { case (id, name) =>
      val c = body.indices.count(i => body.startsWith(name, i))
      if (c > 0) Some(id -> c.toDouble) else None
    }
    val total = counts.map(_._2).sum
    if (total == 0) Seq.empty else counts.map { case (id, c) => (id, c / total) }
  }

  private def found(index: PhraseIndex, text: Seq[String]): Seq[(Int, Seq[Int])] =
    index.find(text).toSeq

  test("find reports every (entry, start), prefixes and duplicates included") {
    val dict = Seq(1L -> Seq("a"), 2L -> Seq("a", "b"), 3L -> Seq("a", "b"),
      4L -> Seq("b", "a", "b"), 1L -> Seq("c"))
    val text = Seq("a", "b", "a", "b", "a")
    assert(found(PhraseIndex(dict), text) ==
      Seq(0 -> Seq(0, 2, 4), 1 -> Seq(0, 2), 2 -> Seq(0, 2), 3 -> Seq(1)))
    assert(found(PhraseIndex(dict), Seq("a", "a", "a")) == Seq(0 -> Seq(0, 1, 2)))
    assert(found(PhraseIndex(dict), Seq.empty).isEmpty)
  }

  test("an empty phrase matches at every position, as startsWith does") {
    val dict = Seq(5L -> Seq.empty[String], 6L -> Seq("x"))
    assert(found(PhraseIndex(dict), Seq("x", "y", "x")) == Seq(0 -> Seq(0, 1, 2), 1 -> Seq(0, 2)))
    assert(found(PhraseIndex(dict), Seq.empty).isEmpty)
    // keyEntities keeps its old result for such an entry: one mention per token
    val body = Seq("x", "y", "x")
    assert(DocTagging.keyEntities(body, dict) == keyEntitiesScan(body, dict))
    assert(DocTagging.keyEntities(body, dict) == Seq(5L -> 0.6, 6L -> 0.4))
  }

  private def check(p: Prop): Unit = {
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(19750601L)), p)
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  // A four-token alphabet makes prefixes, duplicates, overlaps and repeated
  // tokens common; ids 1..5 make duplicate ids common.
  private val token = Gen.oneOf("a", "b", "c", "d")
  private val name: Gen[Seq[String]] = Gen.frequency(
    1 -> Gen.const(Seq.empty[String]),
    12 -> Gen.choose(1, 3).flatMap(Gen.listOfN(_, token)))
  private val dictionaries: Gen[Seq[(Long, Seq[String])]] = for {
    n <- Gen.choose(1, 8)
    entries <- Gen.listOfN(n, Gen.zip(Gen.choose(1L, 5L), name))
    // extend or cut an existing name so one name is a prefix of another
    extra <- Gen.oneOf(entries).flatMap { case (_, p) =>
      Gen.oneOf(Gen.zip(Gen.choose(1L, 5L), token.map(p :+ _)),
        Gen.zip(Gen.choose(1L, 5L), Gen.const(p.take(1))))
    }
  } yield entries :+ extra
  private val texts: Gen[Seq[String]] = Gen.frequency(
    2 -> token.map(Seq(_)),
    6 -> Gen.choose(0, 12).flatMap(Gen.listOfN(_, token)))

  test("property: find equals the startsWith scan, and keyEntities is unchanged") {
    check(Prop.forAllNoShrink(dictionaries, texts) { (dict, text) =>
      val index = PhraseIndex(dict)
      found(index, text) == scan(dict, text) &&
        DocTagging.keyEntities(text, index) == keyEntitiesScan(text, dict)
    })
  }
}
