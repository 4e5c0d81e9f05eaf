package repro.ml

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.GCTSPNet
import repro.graph.QTIG

/** Direct Eq. 5–6 reference for [[RGCN]]: it materializes every
  * W_r = Σ_b a_rb V_b and the dense normalized adjacency Â_r, and applies
  * h' = ReLU(H W_0 + Σ_r Â_r H W_r) per relation. It shares only the flat
  * parameter layout with the kernel under test.
  */
object RGCNReference {

  private type M = Array[Array[Double]]

  /** a · b; each entry sums over k in ascending order. */
  private def mul(a: M, b: M): M = {
    val out = Array.ofDim[Double](a.length, b(0).length)
    for (i <- a.indices) {
      val oi = out(i)
      var k = 0
      while (k < b.length) {
        val x = a(i)(k); val bk = b(k)
        var j = 0
        while (j < oi.length) { oi(j) += x * bk(j); j += 1 }
        k += 1
      }
    }
    out
  }

  private def add(a: M, b: M): M = Array.tabulate(a.length, a(0).length)((i, j) => a(i)(j) + b(i)(j))

  def logits(g: RGCN.EncodedGraph, p: RGCN.Params): M = {
    val cfg = p.cfg
    val n = g.n
    var off = 0
    def take(rows: Int, cols: Int): M = {
      val m = Array.tabulate(rows, cols)((i, j) => p.flat(off + i + j * rows)); off += rows * cols; m
    }
    var h: M = g.feats.map(_.clone())
    for (l <- 0 until cfg.layers) {
      val (di, dout) = cfg.layerDims(l)
      val w0 = take(di, dout)
      val vb = Array.fill(cfg.bases)(take(di, dout))
      val a = take(cfg.relations, cfg.bases)
      var z = mul(h, w0)
      for (r <- 0 until cfg.relations) {
        val wr = Array.ofDim[Double](di, dout)
        for (b <- 0 until cfg.bases; i <- 0 until di) {
          val arb = a(r)(b); val vbi = vb(b)(i); val wi = wr(i)
          var j = 0
          while (j < dout) { wi(j) += arb * vbi(j); j += 1 }
        }
        val pairs = g.rels(r).grouped(2).map(e => (e(0), e(1))).toSeq
        val deg = pairs.groupBy(_._1).view.mapValues(_.size).toMap
        val aHat = Array.ofDim[Double](n, n)
        for ((v, w) <- pairs) aHat(v)(w) += 1.0 / deg(v)
        z = add(z, mul(mul(aHat, h), wr))
      }
      h = z.map(_.map(x => math.max(x, 0.0)))
    }
    val outW = take(cfg.hidden, cfg.outClasses)
    mul(h, outW).map(row => Array.tabulate(cfg.outClasses)(c => row(c) + p.flat(off + c)))
  }

  def probs(g: RGCN.EncodedGraph, p: RGCN.Params): M = logits(g, p).map { row =>
    val ex = row.map(x => math.exp(x - row.max))
    ex.map(_ / ex.sum)
  }

  /** Mean cross-entropy over all nodes (the mean divides by at least one node). */
  def loss(g: RGCN.EncodedGraph, p: RGCN.Params): Double = {
    val pr = probs(g, p)
    (0 until g.n).map(v => -math.log(pr(v)(g.labels(v)))).sum / math.max(1, g.n)
  }
}

class RGCNReferenceSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(60)
      .withInitialSeed(Seed(20200614L)), p)
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  /** Kernel output equals the reference's, and the kernel's gradient equals
    * central differences of the reference loss, at every index of `idxs`.
    */
  private def agrees(g: RGCN.EncodedGraph, p: RGCN.Params, idxs: Seq[Int]): Boolean = {
    val probs = RGCN.predictProbs(g, p)
    val ref = RGCNReference.probs(g, p)
    val (loss, grad) = RGCN.lossAndGrad(g, p)
    val probsOk = probs.indices.forall(v => probs(v).indices.forall(c => math.abs(probs(v)(c) - ref(v)(c)) < 1e-9))
    val lossOk = math.abs(loss - RGCNReference.loss(g, p)) < 1e-9
    val eps = 1e-6
    val gradOk = idxs.forall { i =>
      val orig = p.flat(i)
      p.flat(i) = orig + eps
      val lp = RGCNReference.loss(g, p)
      p.flat(i) = orig - eps
      val lm = RGCNReference.loss(g, p)
      p.flat(i) = orig
      val num = (lp - lm) / (2 * eps)
      val ok = math.abs(num - grad(i)) <= 1e-6 * math.max(1.0, math.abs(num))
      if (!ok) info(s"param $i: analytic ${grad(i)} vs numerical $num")
      ok
    }
    probsOk && lossOk && gradOk
  }

  private val unit = Gen.choose(-1.0, 1.0)

  /** Edges of one relation: empty, or random pairs plus a self-loop and a
    * duplicated edge. Nodes nobody points at stay isolated in the relation.
    */
  private def relation(n: Int): Gen[Array[Int]] = Gen.frequency(
    1 -> Gen.const(Array.empty[Int]),
    3 -> (for {
      m <- Gen.choose(1, 8)
      pairs <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      self <- Gen.choose(0, n - 1)
      extra <- Gen.oneOf(Seq((self, self), pairs.head))
    } yield (pairs :+ extra).flatMap { case (v, w) => Seq(v, w) }.toArray))

  private val cases: Gen[(RGCN.EncodedGraph, RGCN.Params)] = for {
    cfg <- for {
      inDim <- Gen.choose(1, 4); hidden <- Gen.choose(1, 4); layers <- Gen.choose(1, 3)
      relations <- Gen.choose(1, 4); bases <- Gen.choose(1, 3); classes <- Gen.choose(2, 4)
    } yield RGCN.Config(inDim, hidden, layers, relations, bases, classes)
    n <- Gen.choose(1, 7)
    feats <- Gen.listOfN(n, Gen.listOfN(cfg.inDim, unit).map(_.toArray))
    rels <- Gen.listOfN(cfg.relations, relation(n))
    labels <- Gen.listOfN(n, Gen.choose(0, cfg.outClasses - 1))
    flat <- Gen.listOfN(cfg.nParams, unit)
  } yield (RGCN.EncodedGraph(feats.toArray, rels.toArray, labels.toArray),
    new RGCN.Params(cfg, flat.toArray))

  test("property: kernel matches the direct Eq. 5-6 reference and central differences") {
    check(Prop.forAllNoShrink(cases) { case (g, p) => agrees(g, p, p.flat.indices) })
  }

  test("GCTSP-Net shape on an encoded QTIG matches the reference") {
    val q = QTIG.build(
      Seq(Seq("what", "are", "the", "famous", "crime", "series")),
      Seq(Seq("review", "famous", "classic", "crime", "series"), Seq("crime", "series", "famous")))
    val g = GCTSPNet.encode(q, GCTSPNet.binaryLabels(Seq("famous", "crime", "series")))
    assert(g.rels.exists(_.isEmpty) && g.rels.exists(_.nonEmpty))
    val cfg = GCTSPNet.config(2)
    val p = RGCN.init(cfg, 13)
    // a_rb of the first and last layers, plus a random sample of the rest
    def aOffset(l: Int): Int = (0 until l).map { k =>
      val di = cfg.layerDims(k)._1
      (1 + cfg.bases) * di * cfg.hidden + cfg.relations * cfg.bases
    }.sum + (1 + cfg.bases) * cfg.layerDims(l)._1 * cfg.hidden
    val coeffs = for (l <- Seq(0, cfg.layers - 1); i <- 0 until cfg.relations * cfg.bases by 7)
      yield aOffset(l) + i
    val rng = new scala.util.Random(0)
    val idxs = (coeffs ++ Seq.fill(60)(rng.nextInt(cfg.nParams))).distinct
    assert(agrees(g, p, idxs))
  }
}
