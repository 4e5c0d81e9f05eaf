package repro.ml

import repro.SparkSpec

class RGCNTrainerSpec extends SparkSpec {

  private def graph(seed: Int): RGCN.EncodedGraph = {
    val rng = new scala.util.Random(seed)
    val n = 6
    val feats = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    val r0 = (0 until n - 1).flatMap(i => Seq(i + 1, i)).toArray
    val labels = Array.tabulate(n)(i => i % 2)
    RGCN.EncodedGraph(feats, Array(r0), labels)
  }

  private val cfg = RGCN.Config(inDim = 4, hidden = 5, layers = 2, relations = 1,
    bases = 2, outClasses = 2)

  private def bits(p: RGCN.Params): Seq[Long] = p.flat.map(java.lang.Double.doubleToRawLongBits).toSeq

  /** One head trained on Spark over `parts` partitions. */
  private def trainOn(parts: Int, graphs: Seq[RGCN.EncodedGraph], cfg: RGCN.Config,
                      epochs: Int, seed: Long): RGCN.Params =
    RGCNTrainer.trainPartitioned(spark, Seq(graphs -> cfg), epochs, seed, parts).head

  test("distributed training equals local training (same full-batch gradient)") {
    val graphs = (1 to 8).map(graph)
    val local = RGCNTrainer.trainLocal(graphs, cfg, epochs = 5, seed = 3)
    for (parts <- Seq(1, 3, 8)) {
      val dist = trainOn(parts, graphs, cfg, epochs = 5, seed = 3)
      val maxDiff = local.flat.zip(dist.flat).map { case (a, b) => math.abs(a - b) }.max
      assert(maxDiff < 1e-9, s"$parts partitions: parameter divergence $maxDiff")
      // one partition sums in exactly the local order
      if (parts == 1) assert(dist.flat.toSeq == local.flat.toSeq)
    }
    val dist = RGCNTrainer.train(spark, Seq(graphs -> cfg), epochs = 5, seed = 3).head
    val maxDiff = local.flat.zip(dist.flat).map { case (a, b) => math.abs(a - b) }.max
    assert(maxDiff < 1e-9, s"parameter divergence $maxDiff")
  }

  test("two distributed runs on the same input give bitwise-identical parameters") {
    val graphs = (1 to 11).map(graph)
    def run(parts: Int) = bits(trainOn(parts, graphs, cfg, epochs = 4, seed = 7))
    for (parts <- Seq(3, 8)) assert(run(parts) == run(parts), s"$parts partitions")
    def runDefault = bits(RGCNTrainer.train(spark, Seq(graphs -> cfg), epochs = 4, seed = 7).head)
    assert(runDefault == runDefault)
  }

  test("trained parameters are pinned to the bit (local and 3 partitions)") {
    // SHA-256 of the raw bits; any change to the loop, Adam or its constants
    // moves them
    def digest(p: RGCN.Params): String = java.security.MessageDigest.getInstance("SHA-256")
      .digest(bits(p).mkString(",").getBytes("UTF-8")).map(b => f"$b%02x").mkString
    val graphs = (1 to 8).map(graph)
    assert(digest(RGCNTrainer.trainLocal(graphs, cfg, epochs = 5, seed = 3)) ==
      "625b918d38ddfd96c70c5182cc3b29f6654e2d1fc56687b300118a0e7f51980c")
    assert(digest(trainOn(3, graphs, cfg, epochs = 5, seed = 3)) ==
      "ef675fa3cbfd170b35ad857f39122dbfdc2222b68f89c82eb2a65c3b2afd726d")
  }

  test("training reduces the aggregate loss") {
    val graphs = (1 to 6).map(graph)
    val p0 = RGCN.init(cfg, 5)
    val before = graphs.map(g => RGCN.lossAndGrad(g, p0)._1).sum
    val p = RGCNTrainer.trainLocal(graphs, cfg, epochs = 60, seed = 5)
    val after = graphs.map(g => RGCN.lossAndGrad(g, p)._1).sum
    assert(after < before * 0.8, s"$before -> $after")
  }

  test("Adam step actually moves every parameter with nonzero gradient") {
    val g = graph(1)
    val p0 = RGCN.init(cfg, 9).flat.clone()
    val p = RGCNTrainer.trainLocal(Seq(g), cfg, epochs = 1, seed = 9)
    val moved = p.flat.zip(p0).count { case (a, b) => a != b }
    assert(moved > p0.length / 2)
  }

  test("empty graph set is rejected") {
    intercept[IllegalArgumentException] {
      RGCNTrainer.train(spark, Seq(Seq.empty[RGCN.EncodedGraph] -> cfg), epochs = 1, seed = 1)
    }
    intercept[IllegalArgumentException] {
      RGCNTrainer.train(spark, Seq.empty, epochs = 1, seed = 1)
    }
  }

  /** Graphs for a head of `classes` output classes. */
  private def graphs(n: Int, classes: Int, from: Int): Seq[RGCN.EncodedGraph] =
    (from until from + n).map { s =>
      val g = graph(s)
      g.copy(labels = g.labels.indices.map(i => (i + s) % classes).toArray)
    }

  test("a head with no graphs is rejected by index before any Spark job") {
    var message = ""
    val jobs = jobsOf {
      message = intercept[IllegalArgumentException] {
        RGCNTrainer.train(spark, Seq(graphs(4, 2, 1) -> cfg, Seq.empty -> cfg,
          graphs(3, 3, 7) -> cfg.copy(outClasses = 3)), epochs = 2, seed = 1)
      }.getMessage
    }
    assert(message.contains("head 1 "), message)
    assert(jobs == 0)
  }

  test("three heads trained together are bitwise equal to each head trained alone") {
    // head 1 has fewer graphs than most partition counts (empty slices);
    // head 2 has three output classes
    val heads = Seq(graphs(11, 2, 1) -> cfg, graphs(2, 2, 20) -> cfg,
      graphs(7, 3, 30) -> cfg.copy(outClasses = 3))
    for (parts <- Seq(1, 3, 8)) {
      val together = RGCNTrainer.trainPartitioned(spark, heads, epochs = 4, seed = 5, parts)
      assert(together.size == heads.size)
      for (((gs, c), p) <- heads.zip(together)) {
        assert(bits(p) == bits(trainOn(parts, gs, c, epochs = 4, seed = 5)),
          s"$parts partitions, ${c.outClasses} classes, ${gs.size} graphs")
        // one partition sums in exactly the local order
        if (parts == 1) assert(bits(p) == bits(RGCNTrainer.trainLocal(gs, c, epochs = 4, seed = 5)))
      }
    }
  }
}
