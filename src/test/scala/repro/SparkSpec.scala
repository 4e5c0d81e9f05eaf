package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The number of Spark jobs that `body` starts. Listener events arrive in
    * order, so once a marker job run after `body` is seen, every job of
    * `body` has been counted.
    */
  def jobsOf(body: => Any): Int = {
    val sc = spark.sparkContext
    val group = s"jobsOf-${java.util.UUID.randomUUID}"
    val marker = s"$group-marker"
    val started = new java.util.concurrent.ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        started.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse(""))
    }
    sc.addSparkListener(listener)
    try {
      def inGroup(id: String)(f: => Any): Unit = {
        sc.setJobGroup(id, id)
        try f finally sc.clearJobGroup()
      }
      inGroup(group)(body)
      inGroup(marker)(sc.parallelize(Seq(1), 1).count())
      val deadline = System.nanoTime() + 30e9.toLong
      while (!started.contains(marker) && System.nanoTime() < deadline) Thread.sleep(10)
      assert(started.contains(marker), "marker job not seen")
      started.toArray.count(_ == group)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  /** Shuffle partitions of every test session; perfbench's session uses the
    * same count.
    */
  private val ShufflePartitions = 64

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
