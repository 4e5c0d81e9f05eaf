package repro.graph

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestSyntax._
import repro.nlp.Lang

class QTIGSpec extends AnyFunSuite {

  private val queries = Seq(Seq("what", "are", "the", "famous", "runner"))
  private val titles = Seq(Seq("review", "famous", "classic", "runner"),
    Seq("famous", "runner", "zorvex"))

  test("sos and eos are nodes 0 and 1") {
    val g = QTIG.build(queries, titles)
    assert(g.tokens(0) == QTIG.Sos && g.tokens(1) == QTIG.Eos)
  }

  test("tokens are merged across inputs") {
    val g = QTIG.build(queries, titles)
    assert(g.tokens.count(_ == "famous") == 1)
    assert(g.tokens.count(_ == "runner") == 1)
  }

  test("node insertion order follows input order (weight-sorted inputs first)") {
    val g = QTIG.build(queries, titles)
    // query tokens get the lowest ids after the markers
    assert(g.nodeOf("what").get < g.nodeOf("review").get)
  }

  test("adjacent tokens share a bi-directional seq edge") {
    val g = QTIG.build(queries, titles)
    val a = g.nodeOf("famous").get; val b = g.nodeOf("runner").get
    val fwd = g.edges.find(e => e._1 == a && e._2 == b)
    val bwd = g.edges.find(e => e._1 == b && e._2 == a)
    assert(fwd.exists(e => QTIG.Relations(e._3) == "seq_f"))
    assert(bwd.exists(e => QTIG.Relations(e._3) == "seq_b"))
  }

  test("only the first edge between a token pair is kept") {
    val g = QTIG.build(queries, titles)
    val pairs = g.edges.map(e => (math.min(e._1, e._2), math.max(e._1, e._2)))
    // each unordered pair appears exactly twice: forward + backward arc
    pairs.groupBy(identity).foreach { case (p, es) => assert(es.size == 2, s"pair $p") }
  }

  test("non-adjacent dependency creates a typed edge") {
    // in title 1, famous..runner are adjacent in title 2 (seq edge wins);
    // but 'classic' amod 'runner' is adjacent too. Use a query where adj and
    // noun are separated:
    val g = QTIG.build(Seq(Seq("famous", "football", "team")), Seq.empty)
    val a = g.nodeOf("famous").get
    val t = g.nodeOf("team").get
    val e = g.edges.find(e => e._1 == t && e._2 == a)
    assert(e.exists(x => QTIG.Relations(x._3) == "amod_f"),
      s"expected amod edge, got ${g.edges.map(e => (g.tokens(e._1), g.tokens(e._2), QTIG.Relations(e._3)))}")
  }

  test("texts keep per-input node sequences including markers") {
    val g = QTIG.build(queries, titles)
    assert(g.texts.size == 3)
    assert(g.texts.forall(t => t.head == 0 && t.last == 1))
    // queries come first
    assert(g.texts.head.map(g.tokens) == (QTIG.Sos +: queries.head :+ QTIG.Eos))
  }

  test("atspGraph connects sos to first positive and last positive to eos") {
    val g = QTIG.build(queries, titles)
    val fam = g.nodeOf("famous").get; val run = g.nodeOf("runner").get
    val adj = QTIG.atspGraph(g, Set(fam, run))
    assert(adj(0).contains(fam))
    assert(adj(run).contains(1))
  }

  test("atspGraph seq edges are unidirectional") {
    val g = QTIG.build(queries, titles)
    val fam = g.nodeOf("famous").get; val run = g.nodeOf("runner").get
    val adj = QTIG.atspGraph(g, Set(fam, run))
    assert(adj(fam).contains(run))
    assert(!adj.getOrElse(run, Map.empty[Int, Double]).contains(fam))
  }

  test("bfs distances: adjacent tokens at distance 1, with insertion at 2") {
    val g = QTIG.build(queries, titles)
    val fam = g.nodeOf("famous").get; val run = g.nodeOf("runner").get
    val adj = QTIG.atspGraph(g, Set(fam, run))
    val d = QTIG.shortestPaths(g.size, adj, Seq(fam))
    assert(d(fam)(run) == 1.0)
  }

  test("bfs distance through an inserted modifier is 2") {
    val g = QTIG.build(Seq.empty, Seq(Seq("famous", "classic", "runner")))
    val fam = g.nodeOf("famous").get; val run = g.nodeOf("runner").get
    val adj = QTIG.atspGraph(g, Set(fam, run))
    val d = QTIG.shortestPaths(g.size, adj, Seq(fam))
    assert(d(fam)(run) == 2.0)
  }

  test("relation vocabulary covers seq + both directions of each dep label") {
    assert(QTIG.NumRelations == 2 + repro.nlp.DepParser.Labels.size * 2)
  }

  test("empty cluster yields just the markers") {
    val g = QTIG.build(Seq.empty, Seq.empty)
    assert(g.size == 2 && g.edges.isEmpty)
  }

  test("property: one edge pair per token pair, and adjacent tokens of every text are seq-linked") {
    // a small mixed vocabulary (stops, modifiers, heads, triggers, places,
    // times, punctuation, entities) makes repeats and dependency arcs common
    val cat = Lang.Categories.head
    val vocab = Lang.StopWords.toSeq.sorted.take(3) ++ Lang.Modifiers.take(3) ++
      cat.heads.flatten.distinct.take(3) ++ cat.triggers.flatten.distinct.take(3) ++
      Lang.Locations.take(1) ++ Lang.Times.take(1) ++ Lang.PunctTokens ++ Seq("zorvex", "malkar")
    val text = Gen.choose(0, 6).flatMap(Gen.listOfN(_, Gen.oneOf(vocab)))
    val clusters = for {
      nq <- Gen.choose(1, 3); nt <- Gen.choose(0, 4)
      qs <- Gen.listOfN(nq, text); ts <- Gen.listOfN(nt, text)
    } yield (qs, ts)
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20200614L)), Prop.forAllNoShrink(clusters) { case (qs, ts) =>
        val g = QTIG.build(qs, ts)
        val arcs = g.edges.map(e => (e._1, e._2))
        val onePair = arcs.groupBy { case (a, b) => (math.min(a, b), math.max(a, b)) }.forall {
          case ((a, b), es) => es.toSet == Set((a, b), (b, a)) && es.size == 2
        }
        val seqArcs = g.edges.collect { case (a, b, r) if QTIG.Relations(r).startsWith("seq_") => (a, b) }.toSet
        onePair && g.texts.forall(_.sliding(2).forall {
          case Seq(a, b) => a == b || (seqArcs((a, b)) && seqArcs((b, a)))
          case _ => true
        })
      })
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }
}
