package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.core.GCTSPNet
import repro.graph.QTIG

class RGCNSpec extends AnyFunSuite {

  private def tinyGraph(seed: Int = 3): RGCN.EncodedGraph = {
    val rng = new scala.util.Random(seed)
    val n = 5
    val feats = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    // relation 0: chain 0→1→2→3→4 (node i+1 receives from i); relation 1: star to node 0
    val r0 = (0 until n - 1).flatMap(i => Seq(i + 1, i)).toArray
    val r1 = (1 until n).flatMap(i => Seq(0, i)).toArray
    val labels = Array(0, 1, 0, 1, 0)
    RGCN.EncodedGraph(feats, Array(r0, r1), labels)
  }

  private val cfg = RGCN.Config(inDim = 4, hidden = 6, layers = 3, relations = 2,
    bases = 2, outClasses = 2)

  test("nParams accounting matches flattened storage") {
    val p = RGCN.init(cfg, 1)
    assert(p.flat.length == cfg.nParams)
    // per layer W_0 and V_1 … V_B (in × out each) and a (relations × bases),
    // then the output weights and bias
    val layers = (0 until cfg.layers).map { l =>
      val (di, d) = cfg.layerDims(l)
      (1 + cfg.bases) * di * d + cfg.relations * cfg.bases
    }
    assert(cfg.nParams == layers.sum + cfg.hidden * cfg.outClasses + cfg.outClasses)
  }

  test("init is deterministic in the seed") {
    assert(RGCN.init(cfg, 7).flat.toSeq == RGCN.init(cfg, 7).flat.toSeq)
    assert(RGCN.init(cfg, 7).flat.toSeq != RGCN.init(cfg, 8).flat.toSeq)
  }

  test("predictProbs rows sum to one") {
    val p = RGCN.init(cfg, 1)
    val probs = RGCN.predictProbs(tinyGraph(), p)
    probs.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-9))
  }

  test("loss is positive and finite") {
    val p = RGCN.init(cfg, 1)
    val (loss, grad) = RGCN.lossAndGrad(tinyGraph(), p)
    assert(loss > 0 && loss.isFinite)
    assert(grad.forall(_.isFinite))
  }

  test("analytic gradient matches numerical gradient") {
    val g = tinyGraph()
    val p = RGCN.init(cfg, 5)
    val (_, grad) = RGCN.lossAndGrad(g, p)
    val eps = 1e-6
    val rng = new scala.util.Random(0)
    val idxs = Seq.fill(40)(rng.nextInt(cfg.nParams)).distinct
    for (i <- idxs) {
      val orig = p.flat(i)
      p.flat(i) = orig + eps
      val (lp, _) = RGCN.lossAndGrad(g, p)
      p.flat(i) = orig - eps
      val (lm, _) = RGCN.lossAndGrad(g, p)
      p.flat(i) = orig
      val num = (lp - lm) / (2 * eps)
      assert(math.abs(num - grad(i)) < 1e-5,
        s"param $i: analytic ${grad(i)} vs numerical $num")
    }
  }

  test("local training drives the loss down and fits a tiny graph") {
    val g = tinyGraph()
    val p0 = RGCN.init(cfg, 11)
    val (l0, _) = RGCN.lossAndGrad(g, p0)
    val p = RGCNTrainerSpec.reference(Seq(Seq(g) -> cfg), epochs = 150, seed = 11).head
    val (l1, _) = RGCN.lossAndGrad(g, p)
    assert(l1 < l0 / 2, s"loss did not drop: $l0 -> $l1")
    val probs = RGCN.predictProbs(g, p)
    val preds = probs.map(r => if (r(1) > r(0)) 1 else 0)
    assert(preds.toSeq == g.labels.toSeq, "failed to overfit a single tiny graph")
  }

  test("4-class head works") {
    val cfg4 = cfg.copy(outClasses = 4)
    val g = tinyGraph().copy(labels = Array(0, 1, 2, 3, 0))
    val p = RGCNTrainerSpec.reference(Seq(Seq(g) -> cfg4), epochs = 200, seed = 3).head
    val probs = RGCN.predictProbs(g, p)
    val preds = probs.map(r => r.zipWithIndex.maxBy(_._1)._2)
    assert(preds.toSeq == g.labels.toSeq)
  }

  test("lossAndGrad and predictProbs are pinned to the bit on encoded QTIGs") {
    // SHA-256 of the raw bits at both GCTSP-Net shapes; any change to the
    // kernel's arithmetic or summation order moves them
    def sha(xs: Iterator[Double]): String = java.security.MessageDigest.getInstance("SHA-256")
      .digest(xs.map(java.lang.Double.doubleToRawLongBits).mkString(",").getBytes("UTF-8"))
      .map(b => f"$b%02x").mkString
    val qtigs = Seq(
      QTIG.build(Seq(Seq("what", "are", "the", "famous", "crime", "series"), Seq("crime", "series")),
        Seq(Seq("review", "famous", "classic", "crime", "series"), Seq("crime", "series", "famous"))),
      QTIG.build(Seq(Seq("zorvex", "wins", "award", "london", "2018")),
        Seq(Seq("zorvex", "wins", "award", "in", "london", "|", "recap"), Seq("famous", "runner", "zorvex", "wins"))),
      QTIG.build(Seq(Seq("luxury", "suv")), Seq(Seq("luxury", "suv", "guide"))))
    val phrases = Seq(Seq("famous", "crime", "series"), Seq("zorvex", "wins", "award"), Seq("luxury", "suv"))
    val element = GCTSPNet.elementLabels(Seq("zorvex"), Seq("wins", "award"), Some("london"))
    /** (lossAndGrad, predictProbs) digests of the three graphs at `classes`. */
    def digests(classes: Int, labels: Seq[String => Int]): (String, String) = {
      val p = RGCN.init(GCTSPNet.config(classes), 13)
      val gs = qtigs.zip(labels).map { case (q, l) => GCTSPNet.encode(q, l) }
      (sha(gs.iterator.flatMap { g => val (loss, grad) = RGCN.lossAndGrad(g, p); Iterator(loss) ++ grad }),
        sha(gs.iterator.flatMap(g => RGCN.predictProbs(g, p).iterator.flatten)))
    }
    val d2 = digests(2, phrases.map(GCTSPNet.binaryLabels))
    val d4 = digests(GCTSPNet.ElementClasses, Seq.fill(3)(element))
    assert(d2 == ("5d84952323a0dee68ebe9e01fc6ec0c6dff06104bb3dd0a82490ea702ba6a8d6",
      "7adb73e7c1d566e7ef57802c5870977bae695a37a413143e918ec727724abb09"))
    assert(d4 == ("7839569cf3089b452621ac4ace50f8a366e03e66cfc6c5aa8e8304e335a86f05",
      "87c45c4f447c029ee93be0ee5cb75396344529c05c36a33529d3740bc8dab9a4"))
  }

  test("graphs with an empty relation are handled") {
    val g = tinyGraph()
    val g2 = g.copy(rels = Array(g.rels(0), Array.empty[Int]))
    val p = RGCN.init(cfg, 1)
    val (loss, _) = RGCN.lossAndGrad(g2, p)
    assert(loss.isFinite)
  }
}
