package repro.nlp

import org.scalatest.funsuite.AnyFunSuite

class LangSpec extends AnyFunSuite {

  test("stop words are flagged") {
    for (t <- Seq("what", "are", "the", "of", "which"))
      assert(Lang.isStop(t), s"$t should be a stop word")
  }

  test("modifiers are adjectives, not stop") {
    for (t <- Lang.Modifiers) {
      assert(Lang.info(t).pos == "ADJ")
      assert(!Lang.isStop(t))
    }
  }

  test("head nouns are NOUN") {
    for (c <- Lang.Categories; h <- c.heads; t <- h)
      assert(Lang.info(t).pos == "NOUN", s"head token $t")
  }

  test("trigger verbs are VERB") {
    for (c <- Lang.Categories; tr <- c.triggers)
      assert(Lang.info(tr.head).pos == "VERB", s"trigger ${tr.head}")
  }

  test("locations carry LOC ner") {
    for (t <- Lang.Locations) assert(Lang.info(t).ner == "LOC")
  }

  test("times carry TIME ner") {
    for (t <- Lang.Times) assert(Lang.info(t).ner == "TIME")
  }

  test("punct tokens are PUNCT") {
    for (t <- Lang.PunctTokens) assert(Lang.isPunct(t))
  }

  test("unknown tokens resolve to entity proper names") {
    val i = Lang.info("zormalvex")
    assert(i.pos == "PROPN" && i.ner == "ENT" && !i.stop)
  }

  test("entity names are deterministic in the rng") {
    val a = Lang.entityName(new scala.util.Random(5))
    val b = Lang.entityName(new scala.util.Random(5))
    assert(a == b)
  }

  test("contentTokens drops stops and punctuation") {
    assert(Lang.contentTokens(Seq("what", "are", "the", "famous", "runner", "|")) ==
      Seq("famous", "runner"))
  }

  test("pos and ner ids are valid indices") {
    for (t <- Seq("famous", "runner", "wins", "london", "2018", "what", "|")) {
      assert(Lang.PosTags.contains(Lang.info(t).pos))
      assert(Lang.NerTags.contains(Lang.info(t).ner))
    }
  }

  test("no token collision between lexical classes") {
    val classes = Seq(
      Lang.StopWords.toSeq, Lang.Modifiers, Lang.TitleDecorations,
      Lang.Locations, Lang.Times,
      Lang.Categories.flatMap(_.heads.flatten).distinct)
    for (Seq(a, b) <- classes.combinations(2)) {
      val inter = a.toSet.intersect(b.toSet)
      assert(inter.isEmpty, s"collision: $inter")
    }
  }
}
