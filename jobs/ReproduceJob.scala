package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{DocTaggingEval, TablePrinter, Tables}

/** The paper's evaluation in one spark-submit job: run GIANT once, then print
  * Tables 1–7 and the Sec. 5.3 document-tagging numbers next to the paper's.
  * Tables 5–7 score the run's own GCTSP-Net heads. The last line is the
  * ontology's digest (`Ontology.Digest`).
  *
  * Usage: spark-submit --class repro.jobs.ReproduceJob <jar> [--bench]
  * The `--bench` flag switches from test scale to bench scale.
  */
object ReproduceJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("giant-reproduce")
      // spark-submit provides spark.master via system properties; fall back
      // to local[*] so the job also runs under `sbt runMain`
      .master(sys.props.getOrElse("spark.master",
        sys.env.getOrElse("SPARK_MASTER", "local[*]")))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val scale = if (args.contains("--bench")) Tables.BenchScale else Tables.TestScale
    val (res, report) = Tables.tables1and2(spark, scale)
    Seq(TablePrinter.table1(report), TablePrinter.table2(report),
      TablePrinter.table3(Tables.table3(res)), TablePrinter.table4(Tables.table4(res)),
      TablePrinter.table5(Tables.table5(res)), TablePrinter.table6(Tables.table6(res)),
      TablePrinter.table7(Tables.table7(res)), TablePrinter.docTagging(DocTaggingEval.run(res)))
      .flatten.foreach(println)
    val digest = res.built.digest
    println(s"ontology digest: nodes ${digest.nodes} edges ${digest.edges}")
    spark.stop()
  }
}
