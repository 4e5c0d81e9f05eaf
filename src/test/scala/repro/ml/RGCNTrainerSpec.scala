package repro.ml

import repro.SparkSpec

class RGCNTrainerSpec extends SparkSpec {

  private def graph(seed: Int): RGCN.EncodedGraph = {
    val rng = new scala.util.Random(seed)
    val n = 6
    val feats = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    val r0 = (0 until n - 1).flatMap(i => Seq(i + 1, i)).toArray
    val labels = Array.tabulate(n)(i => i % 2)
    RGCN.EncodedGraph(feats, Array(r0), labels, Array.fill(n)(true))
  }

  private val cfg = RGCN.Config(inDim = 4, hidden = 5, layers = 2, relations = 1,
    bases = 2, outClasses = 2)

  test("distributed training equals local training (same full-batch gradient)") {
    val graphs = (1 to 8).map(graph)
    val tc = RGCNTrainer.TrainConfig(epochs = 5, seed = 3)
    val local = RGCNTrainer.trainLocal(graphs, cfg, tc)
    for (parts <- Seq(1, 3, 8)) {
      val dist = RGCNTrainer.trainPartitioned(spark, graphs, cfg, tc, parts)
      val maxDiff = local.flat.zip(dist.flat).map { case (a, b) => math.abs(a - b) }.max
      assert(maxDiff < 1e-9, s"$parts partitions: parameter divergence $maxDiff")
      // one partition sums in exactly the local order
      if (parts == 1) assert(dist.flat.toSeq == local.flat.toSeq)
    }
    val dist = RGCNTrainer.train(spark, graphs, cfg, tc)
    val maxDiff = local.flat.zip(dist.flat).map { case (a, b) => math.abs(a - b) }.max
    assert(maxDiff < 1e-9, s"parameter divergence $maxDiff")
  }

  test("two distributed runs on the same input give bitwise-identical parameters") {
    val graphs = (1 to 11).map(graph)
    val tc = RGCNTrainer.TrainConfig(epochs = 4, seed = 7)
    def bits(p: RGCN.Params): Seq[Long] = p.flat.map(java.lang.Double.doubleToRawLongBits).toSeq
    for (parts <- Seq(3, 8))
      assert(bits(RGCNTrainer.trainPartitioned(spark, graphs, cfg, tc, parts)) ==
        bits(RGCNTrainer.trainPartitioned(spark, graphs, cfg, tc, parts)), s"$parts partitions")
    assert(bits(RGCNTrainer.train(spark, graphs, cfg, tc)) == bits(RGCNTrainer.train(spark, graphs, cfg, tc)))
  }

  test("training reduces the aggregate loss") {
    val graphs = (1 to 6).map(graph)
    val tc = RGCNTrainer.TrainConfig(epochs = 60, seed = 5)
    val p0 = RGCN.init(cfg, 5)
    val before = graphs.map(g => RGCN.lossAndGrad(g, p0)._1).sum
    val p = RGCNTrainer.trainLocal(graphs, cfg, tc)
    val after = graphs.map(g => RGCN.lossAndGrad(g, p)._1).sum
    assert(after < before * 0.8, s"$before -> $after")
  }

  test("Adam step actually moves every parameter with nonzero gradient") {
    val g = graph(1)
    val tc = RGCNTrainer.TrainConfig(epochs = 1, seed = 9)
    val p0 = RGCN.init(cfg, 9).flat.clone()
    val p = RGCNTrainer.trainLocal(Seq(g), cfg, tc)
    val moved = p.flat.zip(p0).count { case (a, b) => a != b }
    assert(moved > p0.length / 2)
  }

  test("empty graph set is rejected") {
    intercept[IllegalArgumentException] {
      RGCNTrainer.train(spark, Seq.empty[RGCN.EncodedGraph], cfg)
    }
  }
}
